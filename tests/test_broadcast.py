import collections
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrsim.analysis import region_probability_cap
from sinrsim.broadcast import (
    Broadcast,
    FixedProbBroadcaster,
    SlowStartBroadcaster,
    broadcast_budget,
    verify_local_broadcast,
)
from sinrsim.engine import SimTrace, TraceConfig, run_simulation
from sinrsim.errors import ProtocolViolationError
from sinrsim.experiment import RegionBudgetMonitor, run_slow_start
from sinrsim.model import NetworkParams, Node, build_network
from sinrsim.topology import clique_topology

from .conftest import pair_network, random_small_network, reference_network_build
from .test_event_loop import scattered_network
from .test_harness import GOLDEN, GOLDEN_NETWORKS, GOLDEN_RUNS


def lone_network(params):
    return build_network([Node(0, 0.0, 0.0, 8.0)], params)


class TestFixedProb:
    def test_probability_one_transmits_every_slot(self, exact_params):
        net = lone_network(exact_params)
        trace = run_simulation(
            net,
            lambda n: FixedProbBroadcaster(n, prob=1.0, budget=37),
            max_slots=100,
            seed=0,
        )
        assert trace.tx_count[0] == 37
        assert trace.completed

    def test_monte_carlo_frequency(self, exact_params):
        net = lone_network(exact_params)
        trace = run_simulation(
            net,
            lambda n: FixedProbBroadcaster(n, prob=0.25, budget=100_000),
            max_slots=100_001,
            seed=5,
        )
        assert trace.tx_count[0] / 100_000 == pytest.approx(0.25, abs=0.01)

    def test_budget_exhaustion_is_exact(self, exact_params):
        params = exact_params
        prob = 0.125
        budget = broadcast_budget(prob, params, 16, 1.0)
        assert budget == math.ceil(8 * params.c_whp / prob * math.log(16))
        net = lone_network(params)
        trace = run_simulation(
            net,
            lambda n: FixedProbBroadcaster(n, prob=prob, budget=budget),
            max_slots=budget + 10,
            seed=1,
            trace=TraceConfig(record_outcomes=True),
        )
        assert trace.machines[0].done and trace.completed
        assert trace.n_slots == budget + 1  # completion poll fires right after
        assert max(o.slot for o in trace.outcomes) < budget

    def test_stepping_after_completion_rejected(self, exact_params):
        machine = FixedProbBroadcaster(
            Node(0, 0, 0, 1.0), prob=0.5, budget=5
        )
        machine.wake(0)
        machine.poll(5)
        assert machine.done
        with pytest.raises(ProtocolViolationError):
            machine.on_transmit(6, 0)


class TestSlowStart:
    def make(self, node, *, cap=0.16, n=16, phase_len=10,
             target=50, budget=10_000):
        return SlowStartBroadcaster(
            node, prob_cap=cap, n=n, phase_len=phase_len,
            cap_slots_target=target, budget=budget,
        )

    @pytest.mark.parametrize("kwargs,name", [
        ({"phase_len": 2.5}, "phase_len"),
        ({"phase_len": 0}, "phase_len"),
        ({"budget": 50.5}, "budget"),
        ({"budget": True}, "budget"),
        ({"target": 10.5}, "cap_slots_target"),
        ({"n": 2.5}, "n"),
        ({"n": 0}, "n"),
    ])
    def test_slot_counts_must_be_integers(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got "):
            self.make(Node(0, 0, 0, 1.0), **kwargs)

    @pytest.mark.parametrize("cap", [True, math.nan, "0.5", 0.0, 1.5])
    def test_cap_must_be_a_probability(self, cap):
        expected = rf"^prob_cap must be a probability in \(0, 1\], got {re.escape(repr(cap))}$"
        with pytest.raises(ValueError, match=expected):
            self.make(Node(0, 0, 0, 1.0), cap=cap)

    def test_isolated_node_ramps_in_log_phases(self, exact_params):
        net = lone_network(exact_params)
        phases = math.ceil(math.log2(16))
        trace = run_simulation(
            net,
            self.make,
            max_slots=10 * (phases + 2),
            seed=0,
        )
        machine = trace.machines[0]
        assert machine.p_cur == machine.prob_cap

    def test_cap_is_never_exceeded(self, exact_params):
        net = clique_topology(4, params=exact_params)
        cap = 0.02

        def factory(n):
            return self.make(n, cap=cap, target=200, budget=4_000)

        trace = run_simulation(net, factory, max_slots=4_001, seed=3)
        for machine in trace.machines.values():
            assert machine.p_cur <= cap + 1e-15

    def test_reception_halves_probability(self, exact_params):
        machine = self.make(Node(0, 0, 0, 1.0))
        machine.wake(0)
        while machine.p_cur < machine.prob_cap:  # ride the ramp up
            machine.poll(machine._checkpoint)
        assert not machine.done
        machine.on_receive(machine._checkpoint - 1, 1, "m")
        assert machine.p_cur == machine.prob_cap / 2

    def test_halving_floors_at_start_probability(self, exact_params):
        machine = self.make(Node(0, 0, 0, 1.0))
        machine.wake(0)
        for slot in range(1, 6):
            machine.on_receive(slot, 1, "m")
        assert machine.p_cur == machine.prob_init

    def test_completion_by_cap_time(self, exact_params):
        net = lone_network(exact_params)
        trace = run_simulation(
            net,
            lambda n: self.make(n, target=40, budget=100_000),
            max_slots=100_001,
            seed=2,
        )
        machine = trace.machines[0]
        assert machine.done and machine.cap_slots == 40
        assert trace.completed and trace.n_slots <= machine.end_slot  # before the budget

    def test_region_sums_stay_bounded_live(self, exact_params):
        """Clique runs with the live assertion attached (reduced scale)."""
        net = clique_topology(9, params=exact_params)
        for seed in range(5):
            report = run_slow_start(
                net, [seed], scale=0.05, budget_constant=2048
            )
            names = [name for name, ok, _ in report.verdicts if not ok]
            assert "region probability budget" not in names


class TestSlowStartPolls:
    """Every poll either stops the machine or lands on a phase boundary
    below the cap and doubles the probability there: a checkpoint is the
    next boundary, the end of the cap time or the end of the budget, and a
    reception moves it to the next boundary."""

    @staticmethod
    def checked_polls(monkeypatch):
        seen = collections.Counter()
        poll = SlowStartBroadcaster.poll

        def checked(self, slot):
            before = self.p_cur
            poll(self, slot)
            if self.done:
                seen["cap" if self.cap_slots >= self.cap_slots_target else "budget"] += 1
                return
            assert slot > self.start_slot
            assert (slot - self.start_slot) % self.phase_len == 0
            assert before < self.prob_cap
            assert self.p_cur == min(self.prob_cap, 2.0 * before)
            seen["boundary"] += 1

        monkeypatch.setattr(SlowStartBroadcaster, "poll", checked)
        return seen

    @pytest.mark.parametrize("topo", sorted(GOLDEN_NETWORKS))
    def test_golden_runs(self, topo, monkeypatch):
        seen = self.checked_polls(monkeypatch)
        report = GOLDEN_RUNS["slowstart"](GOLDEN_NETWORKS[topo]())
        assert report.to_csv() == (GOLDEN / f"slowstart_{topo}.csv").read_text()
        assert seen["boundary"] > 0 and seen["cap"] + seen["budget"] > 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_scattered_networks_with_a_binding_cap_target(self, seed, monkeypatch):
        seen = self.checked_polls(monkeypatch)
        net = scattered_network(seed + 10, 12, wake_window=20)

        def factory(node):
            return SlowStartBroadcaster(
                node, prob_cap=0.25, n=12, phase_len=6, cap_slots_target=20,
                budget=500,
            )

        trace = run_simulation(net, factory, max_slots=600, seed=seed)
        assert trace.completed
        assert seen["boundary"] > 0 and seen["cap"] > 0


def piecewise(pieces, *, budget=50, prob=0.5, power_bounds=None):
    return FixedProbBroadcaster(
        Node(0, 0, 0, 8.0), prob=prob, budget=budget,
        pieces=pieces, power_bounds=power_bounds,
    )


class TestPowerSchedule:
    def test_lookup(self):
        machine = piecewise([(0, 2.0), (10, 1.0), (30, 4.0)])
        machine.wake(7)
        powers = [machine.on_transmit(7 + offset, 0)[1] for offset in (0, 9, 10, 45)]
        assert powers == [2.0, 2.0, 1.0, 4.0]

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            piecewise([(5, 1.0)])

    @pytest.mark.parametrize("pieces", [
        [], [(0, 2.0), (0, 1.0)], [(0, 2.0), (3, 0.0)], [(0, float("nan"))],
    ])
    def test_malformed_pieces_rejected(self, pieces):
        with pytest.raises(ValueError):
            piecewise(pieces)

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf, -1.0, 0.0, True, "1"])
    def test_piece_power_must_be_finite_and_positive(self, power):
        expected = rf"^scheduled power must be a finite positive number, got {re.escape(repr(power))}$"
        with pytest.raises(ValueError, match=expected):
            piecewise([(0, 2.0), (10, power)])

    def test_trace_pieces_clip_to_duration(self):
        pieces = [(0, 2.0), (10, 1.0)]
        assert piecewise(pieces, budget=15).power_trace().pieces == (
            (0, 10, 2.0), (10, 15, 1.0)
        )
        assert piecewise(pieces, budget=5).power_trace().pieces == ((0, 5, 2.0),)

    def test_default_is_own_power_throughout(self):
        trace = piecewise(None, budget=20).power_trace()
        assert trace.pieces == ((0, 20, 8.0),)


class TestVariablePower:
    def test_constant_schedule_matches_fixed_behavior(self, exact_params):
        net = pair_network(exact_params)

        def run(**pieces):
            return run_simulation(
                net,
                lambda n: FixedProbBroadcaster(n, prob=0.2, budget=500, **pieces),
                max_slots=501,
                seed=9,
                trace=TraceConfig(record_outcomes=True),
            )

        fixed = run()
        varp = run(pieces=[(0, 8.0)], power_bounds=(8.0, 8.0))
        # same per-node random streams, same lottery: identical slots and powers
        assert [
            (o.slot, tuple((t.sender, t.power) for t in o.transmissions))
            for o in fixed.outcomes
        ] == [
            (o.slot, tuple((t.sender, t.power) for t in o.transmissions))
            for o in varp.outcomes
        ]

    def test_trace_counts_match_hand_count(self, exact_params):
        machine = piecewise([(0, 4.0), (100, 1.0)], budget=110, power_bounds=(1.0, 8.0))
        trace = machine.power_trace()
        assert trace.levels() == (0.0, 1.0, 4.0)
        assert trace.slots_at_least() == (110, 110, 100)

    @pytest.mark.parametrize("prob", [0.0, -0.1, 1.5, True, math.nan, None, np.float64(2.0)])
    def test_probability_outside_unit_interval_rejected(self, prob):
        expected = rf"^prob must be a probability in \(0, 1\], got {re.escape(repr(prob))}$"
        with pytest.raises(ValueError, match=expected):
            piecewise([(0, 8.0)], prob=prob)

    def test_budget_helper_checks_its_probability(self, exact_params):
        with pytest.raises(ValueError, match=r"^prob must be a probability in \(0, 1\], got True$"):
            broadcast_budget(True, exact_params, 16, 1.0)
        assert broadcast_budget(np.float64(0.5), exact_params, 16, 1.0) == broadcast_budget(
            0.5, exact_params, 16, 1.0
        )

    @pytest.mark.parametrize("budget", [0, 2.5, True])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match=f"^budget must be an integer >= 1, got {budget!r}$"):
            piecewise(None, budget=budget)

    def test_out_of_bounds_power_rejected(self, exact_params):
        with pytest.raises(ProtocolViolationError):
            piecewise([(0, 16.0)], budget=10, power_bounds=(1.0, 8.0))
        with pytest.raises(ProtocolViolationError):
            piecewise([(0, 4.0), (5, 0.5)], budget=10, power_bounds=(1.0, 8.0))


class TestVerifyLocalBroadcast:
    def run_pair(self, params, budget=2000, d=1.0):
        net = pair_network(params, d=d)
        trace = run_simulation(
            net,
            lambda n: FixedProbBroadcaster(n, prob=0.05, budget=budget),
            max_slots=budget + 2,
            seed=21,
        )
        return net, trace

    def test_no_neighbors_is_vacuous(self, exact_params):
        net = build_network(
            [Node(0, 0, 0, 1.0), Node(1, 50.0, 0, 1.0)], exact_params
        )
        trace = run_simulation(
            net,
            lambda n: FixedProbBroadcaster(n, prob=0.5, budget=10),
            max_slots=12,
            seed=0,
        )
        assert verify_local_broadcast(trace, net, 0, (0, 10))

    def test_reception_present_and_absent(self, exact_params):
        net, trace = self.run_pair(exact_params)
        assert verify_local_broadcast(trace, net, 0, (0, 2000))
        # a window before the first success must fail
        first = trace.first_rx[1][0]
        assert not verify_local_broadcast(trace, net, 0, (0, first))

    def test_unknown_sender(self, exact_params):
        net, trace = self.run_pair(exact_params)
        with pytest.raises(ValueError):
            verify_local_broadcast(trace, net, 77, (0, 10))

    def test_custom_radius_restricts_audience(self, exact_params):
        net, trace = self.run_pair(exact_params, d=1.0)
        assert verify_local_broadcast(trace, net, 0, (0, 2000), radius=0.5)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_radius_audience_matches_distance_row(self, data):
        """The grid query picks the nodes a full distance row does, a node
        exactly on the radius included and one an ulp beyond it left out:
        node `j` alone never heard the sender, so the verdict fails
        exactly when `j` is an intended receiver."""
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        net = random_small_network(rng, data.draw(st.integers(2, 60)), NetworkParams.exact())
        i, j = (int(k) for k in rng.choice(net.n, size=2, replace=False))
        sender, other = net.ids[i], net.ids[j]
        d = net.dist(sender, other)
        radius = data.draw(st.sampled_from(
            [d, math.nextafter(d, 0.0), math.nextafter(d, math.inf), 3.0 * d]))
        row = net.distance_row(i)
        expected = [net.ids[k] for k in np.flatnonzero(row <= radius).tolist() if k != i]
        assert [net.ids[k] for k in net.within(i, radius)[0].tolist()] == expected
        first_rx = {v: ({} if v == other else {sender: 0}) for v in net.ids}
        trace = SimTrace(
            seed=0, n_slots=10, completed=True, machines=dict.fromkeys(net.ids),
            first_rx=first_rx, tx_count={}, full_success_count={},
            first_full_success={}, draws={},
        )
        assert verify_local_broadcast(trace, net, sender, (0, 10), radius=radius) == (
            other not in expected
        )

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_range_audience_matches_dense_adjacency(self, seed):
        """Without a radius the audience is the sender's out-neighbours,
        here on ids that are not indices: node `j` alone never heard the
        sender, so the verdict fails exactly when the dense reference
        adjacency links `i` to `j`."""
        rng = np.random.default_rng(seed)
        base = random_small_network(rng, int(rng.integers(2, 30)), NetworkParams.exact())
        net = build_network(
            [dataclasses.replace(node, id=1000 - 7 * node.id) for node in base.nodes],
            base.params,
        )
        adjacency = reference_network_build(net)["adjacency"]
        i, j = (int(k) for k in rng.choice(net.n, size=2, replace=False))
        sender, other = net.ids[i], net.ids[j]
        first_rx = {v: ({} if v == other else {sender: 0}) for v in net.ids}
        trace = SimTrace(
            seed=0, n_slots=10, completed=True, machines=dict.fromkeys(net.ids),
            first_rx=first_rx, tx_count={}, full_success_count={},
            first_full_success={}, draws={},
        )
        assert verify_local_broadcast(trace, net, sender, (0, 10)) == (not adjacency[i, j])
