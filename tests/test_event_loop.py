"""The event loop against its reference, its error attribution and its
counters."""

import heapq
import types

import numpy as np
import pytest

import sinrsim.engine as engine
from sinrsim.analysis import region_probability_cap
from sinrsim.broadcast import (
    FixedProbBroadcaster,
    PowerSchedule,
    SlowStartBroadcaster,
    VariablePowerBroadcaster,
)
from sinrsim.coloring import ColoringConstants, ColoringMachine
from sinrsim.engine import ProtocolMachine, TraceConfig, run_simulation
from sinrsim.errors import ProtocolViolationError, SimulationAbort
from sinrsim.experiment import _resignation_script
from sinrsim.model import NetworkParams, Node, build_network

from .reference_engine import reference_run_simulation

PARAMS = NetworkParams.exact(alpha=3.0, beta=1.0, noise=1.0, delta=2.0, c_whp=2.0)


def scattered_network(seed, n, *, wake_window=0, sleepers=0):
    """n nodes in a square of side 1.6*sqrt(n) with powers in [1, 8], wake
    slots uniform over [0, wake_window] and the first `sleepers` nodes
    leaving after a while."""
    rng = np.random.default_rng(seed)
    side = 1.6 * np.sqrt(n)
    nodes = []
    for i in range(n):
        wake = int(rng.integers(0, wake_window + 1))
        sleep = wake + int(rng.integers(5, 200)) if i < sleepers else None
        nodes.append(
            Node(i, float(rng.uniform(0, side)), float(rng.uniform(0, side)),
                 float(rng.uniform(1.0, 8.0)), wake_slot=wake, sleep_slot=sleep)
        )
    return build_network(nodes, PARAMS)


def run_both(network, factory, max_slots, seed, *, scripts=None, outcome_limit=None):
    """Both engines on the same input; `scripts` builds a fresh script list
    per run, because forced resignations keep state."""
    runs = []
    for simulate in (reference_run_simulation, run_simulation):
        updates = []
        trace = simulate(
            network,
            factory,
            max_slots,
            seed,
            trace=TraceConfig(record_outcomes=True, outcome_limit=outcome_limit),
            monitor=lambda slot, changes, out=updates: out.append((slot, list(changes))),
            scripted=scripts() if scripts else None,
        )
        runs.append((trace, updates))
    return runs


def assert_same_run(runs):
    (ref, ref_updates), (new, new_updates) = runs
    assert new.n_slots == ref.n_slots
    assert new.completed == ref.completed
    assert new.eventful_slots == ref.eventful_slots
    assert new.outcomes_truncated == ref.outcomes_truncated
    assert new.outcomes == ref.outcomes  # receptions in listener order
    assert new.tx_count == ref.tx_count
    assert new.full_success_count == ref.full_success_count
    assert new.first_full_success == ref.first_full_success
    assert {v: list(row.items()) for v, row in new.first_rx.items()} == {
        v: list(row.items()) for v, row in ref.first_rx.items()
    }
    assert new_updates == ref_updates
    assert new.machines.keys() == ref.machines.keys()
    for v, machine in new.machines.items():
        other = ref.machines[v]
        assert machine.log == other.log
        assert machine.done == other.done
        # equal generator states: both engines drew the same numbers
        assert machine.rng.bit_generator.state == other.rng.bit_generator.state
    assert ref.eventful_slots > 0


def coloring_constants(network, scale):
    cap = region_probability_cap(network.params, network.range_ratio, network.n)
    return ColoringConstants.derive(
        network.params, cap, network.max_degree, network.range_ratio, network.n, scale
    )


def coloring_slots(network, constants):
    wake_span = max(node.wake_slot for node in network.nodes)
    return 2 * wake_span + 2 * constants.termination_budget(network.longest_chain) + 16


class TestMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fixed_broadcast(self, seed):
        net = scattered_network(seed, 14, wake_window=30)
        runs = run_both(
            net, lambda node, rng: FixedProbBroadcaster(node, rng, prob=0.15, budget=300),
            400, seed,
        )
        assert_same_run(runs)
        assert runs[1][0].multi_tx_slots > 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_slow_start(self, seed):
        net = scattered_network(seed + 10, 12, wake_window=20)

        def factory(node, rng):
            return SlowStartBroadcaster(
                node, rng, prob_cap=0.25, n_hint=12, phase_len=6, cap_slots_target=20,
                budget=500,
            )

        assert_same_run(run_both(net, factory, 600, seed))

    @pytest.mark.parametrize("seed", [0, 4])
    def test_variable_power(self, seed):
        net = scattered_network(seed + 20, 12)
        bounds = (float(net.powers.min()), float(net.powers.max()))

        def factory(node, rng):
            low = max(bounds[0], 0.5 * node.power)
            schedule = PowerSchedule([(0, node.power), (100, low)] if low < node.power
                                     else [(0, node.power)])
            return VariablePowerBroadcaster(
                node, rng, prob=0.2, schedule=schedule, duration=250, power_bounds=bounds
            )

        assert_same_run(run_both(net, factory, 300, seed))

    def test_variable_power_reach_over_several_grid_cells(self):
        # the true noise lies far below its bound, so a lone transmission
        # reaches (8 * 27) ** (1/3) = 6, three times the grid cell of side
        # r_max_global = 2, and multi-transmission slots draw candidates
        # from several cells in every direction
        params = NetworkParams(
            alpha_lo=3.0, alpha_hi=3.0, alpha_true=3.0,
            beta_lo=1.0, beta_hi=1.0, beta_true=1.0,
            noise_lo=1.0 / 27.0, noise_hi=1.0, noise_true=1.0 / 27.0,
            delta=2.0, c_whp=2.0,
        )
        rng = np.random.default_rng(90)
        net = build_network(
            [Node(i, float(rng.uniform(0, 14)), float(rng.uniform(0, 14)),
                  float(rng.uniform(1.0, 8.0))) for i in range(16)],
            params,
        )
        bounds = (float(net.powers.min()), float(net.powers.max()))

        def factory(node, rng):
            schedule = PowerSchedule([(0, bounds[1]), (60, bounds[0])])
            return VariablePowerBroadcaster(
                node, rng, prob=0.2, schedule=schedule, duration=150, power_bounds=bounds
            )

        runs = run_both(net, factory, 200, 3)
        assert_same_run(runs)
        assert runs[1][0].multi_tx_slots > 0

    @pytest.mark.parametrize("mis", [False, True])
    def test_coloring_and_mis(self, mis):
        net = scattered_network(30 + mis, 10, wake_window=40)
        k = coloring_constants(net, 1.0)
        runs = run_both(
            net, lambda node, rng: ColoringMachine(node, rng, k, mis=mis),
            coloring_slots(net, k), 5,
        )
        assert_same_run(runs)
        assert runs[1][0].completed and runs[1][0].multi_tx_slots > 0

    def test_sleeping_nodes(self):
        net = scattered_network(40, 12, wake_window=10, sleepers=5)
        runs = run_both(
            net, lambda node, rng: FixedProbBroadcaster(node, rng, prob=0.2, budget=400),
            500, 2,
        )
        assert_same_run(runs)
        assert runs[1][0].stale_tx_entries > 0

    def test_forced_resignation(self):
        net = scattered_network(50, 6)
        k = coloring_constants(net, 0.3)
        runs = run_both(
            net, lambda node, rng: ColoringMachine(node, rng, k),
            4 * coloring_slots(net, k), 1,
            scripts=lambda: _resignation_script(1, k, 0),
        )
        assert_same_run(runs)
        assert sum(m.resigned_count for m in runs[1][0].machines.values()) == 1

    def test_checkpoint_pushed_twice_for_one_slot(self):
        class Rearm(ProtocolMachine):
            """Arms slot 10, moves to 6, arms 10 again from the poll at 6
            (two entries for slot 10 now), and re-arms 10 inside its poll."""

            def wake(self, slot):
                self.polls_at_10 = 0
                self.schedule(10)
                self.set_prob(0, 1.0)

            def on_transmit(self, slot, lane):
                if slot == 0:
                    self.set_prob(0, 0.0)
                    self.schedule(6)
                return "x", self.node.power

            def poll(self, slot):
                self.record(slot, "poll")
                if slot == 6:
                    self.schedule(10)
                elif slot == 10:
                    self.polls_at_10 += 1
                    self.set_prob(0, 0.1 * self.polls_at_10)
                    if self.polls_at_10 == 1:
                        self.schedule(10)

        net = scattered_network(75, 3)
        runs = run_both(net, Rearm, 40, 0)
        assert_same_run(runs)
        for machine in runs[1][0].machines.values():
            assert [s for s, kind, _d in machine.log] == [6, 10, 10]

    def test_truncated_outcomes(self):
        net = scattered_network(70, 10)
        runs = run_both(
            net, lambda node, rng: FixedProbBroadcaster(node, rng, prob=0.2, budget=300),
            350, 0, outcome_limit=25,
        )
        assert_same_run(runs)
        assert runs[1][0].outcomes_truncated and len(runs[1][0].outcomes) == 25


# ---------------------------------------------------------------------------
# error attribution
# ---------------------------------------------------------------------------


class Faulty(ProtocolMachine):
    """Node `talker` transmits in every slot; node `bad` raises in callback
    `where` at slot `at`.  Every node polls once, three slots after waking."""

    def __init__(self, node, rng, *, talker, bad, where, at):
        super().__init__(node, rng)
        self.talker, self.bad, self.where, self.at = talker, bad, where, at

    def _maybe_fail(self, where, slot):
        if self.node.id == self.bad and where == self.where and slot == self.at:
            raise KeyError(where)

    def wake(self, slot):
        self.set_prob(0, 1.0 if self.node.id == self.talker else 0.0)
        self.schedule(slot + 3)
        self._maybe_fail("wake", slot)

    def poll(self, slot):
        self._maybe_fail("poll", slot)

    def on_receive(self, slot, messages):
        self._maybe_fail("on_receive", slot)

    def on_transmit(self, slot, lane):
        self._maybe_fail("on_transmit", slot)
        return "x", self.node.power


def trio():
    # ids differ from indices, so an index cannot pass for an id
    return build_network(
        [Node(10, 0.0, 0.0, 8.0), Node(20, 1.0, 0.0, 8.0),
         Node(30, 0.0, 1.0, 8.0, wake_slot=5)],
        PARAMS,
    )


class TestErrorAttribution:
    @pytest.mark.parametrize(
        "where, bad, at",
        [("wake", 30, 5), ("poll", 20, 3), ("poll", 30, 8), ("on_receive", 30, 6),
         ("on_receive", 20, 1), ("on_transmit", 10, 4)],
    )
    def test_callback_error_names_node_and_slot(self, where, bad, at):
        def factory(node, rng):
            return Faulty(node, rng, talker=10, bad=bad, where=where, at=at)

        with pytest.raises(SimulationAbort) as err:
            run_simulation(trio(), factory, max_slots=50, seed=0)
        assert (err.value.node_id, err.value.slot) == (bad, at)
        assert isinstance(err.value.cause, KeyError)
        assert err.value.cause.args == (where,)

    def test_protocol_violation_inside_a_callback_is_wrapped(self):
        class Refuses(Faulty):
            def on_transmit(self, slot, lane):
                raise ProtocolViolationError("refused")

        def factory(node, rng):
            return Refuses(node, rng, talker=20, bad=None, where=None, at=None)

        with pytest.raises(SimulationAbort) as err:
            run_simulation(trio(), factory, max_slots=50, seed=0)
        assert (err.value.node_id, err.value.slot) == (20, 0)
        assert isinstance(err.value.cause, ProtocolViolationError)

    def test_two_lanes_in_one_slot_is_a_bare_violation(self):
        class TwoLanes(ProtocolMachine):
            LANES = 2

            def wake(self, slot):
                if self.node.id == 20:
                    self.set_prob(0, 1.0)
                    self.set_prob(1, 1.0)

            def on_transmit(self, slot, lane):
                return "x", self.node.power

        twice = "node 20 transmitted twice in slot 0"
        with pytest.raises(ProtocolViolationError, match=twice) as err:
            run_simulation(trio(), TwoLanes, max_slots=50, seed=0)
        assert type(err.value) is ProtocolViolationError

    def test_scripted_action_error_passes_through(self):
        def factory(node, rng):
            return Faulty(node, rng, talker=10, bad=None, where=None, at=None)

        def script(machines, slot):
            raise LookupError("script")

        with pytest.raises(LookupError, match="script"):
            run_simulation(trio(), factory, max_slots=50, seed=0, scripted=[(7, script)])


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


class OddSlotToggler(ProtocolMachine):
    """Transmits on odd slots only; every reception toggles its probability,
    which discards the pending draw.  Receptions arrive on even slots, so a
    redraw can never fall on the slot being processed."""

    def wake(self, slot):
        self.configure_lane(0, 2, 1)
        self.set_prob(0, 0.3)

    def on_receive(self, slot, messages):
        self.set_prob(0, 0.5 if self.lanes[0].prob == 0.3 else 0.3)

    def on_transmit(self, slot, lane):
        return "x", self.node.power


class TestLoopCounters:
    def test_heap_and_stale_entry_counts(self, monkeypatch):
        popped = []

        def counting_pop(heap):
            entry = heapq.heappop(heap)
            popped.append(entry)
            return entry

        shim = types.SimpleNamespace(
            heappush=heapq.heappush, heappop=counting_pop, heapify=heapq.heapify
        )
        monkeypatch.setattr(engine, "heapq", shim)
        net = scattered_network(80, 12, sleepers=4)
        trace = run_simulation(net, OddSlotToggler, max_slots=400, seed=3,
                               trace=TraceConfig(record_outcomes=True))
        tx_pops = sum(1 for entry in popped if entry[1] == engine._TX)
        transmissions = sum(len(o.transmissions) for o in trace.outcomes)
        assert trace.heap_pops == len(popped)
        assert transmissions == sum(trace.tx_count.values())
        assert transmissions + trace.stale_tx_entries == tx_pops
        assert trace.stale_tx_entries > 0

    def test_multi_tx_slots(self):
        net = scattered_network(81, 12)
        trace = run_simulation(
            net, lambda node, rng: FixedProbBroadcaster(node, rng, prob=0.25, budget=300),
            max_slots=350, seed=1, trace=TraceConfig(record_outcomes=True),
        )
        single = sum(1 for o in trace.outcomes if len(o.transmissions) == 1)
        assert not trace.outcomes_truncated
        assert trace.multi_tx_slots > 0
        assert trace.eventful_slots - trace.multi_tx_slots == single
