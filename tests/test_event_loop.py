"""The event loop against its reference, its error attribution and its
counters."""

import heapq
import types

import numpy as np
import pytest

import sinrsim.engine as engine
from sinrsim.analysis import region_probability_cap
from sinrsim.broadcast import FixedProbBroadcaster, SlowStartBroadcaster
from sinrsim.coloring import ColoringConstants, ColoringMachine
from sinrsim.engine import ProtocolMachine, TraceConfig, node_rng, run_simulation
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
    """Both engines on the same input; `scripts` builds a fresh script per
    run, because forced resignations keep state."""
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
    # both engines drew the same numbers from every stream
    assert new.draws == ref.draws
    assert ref.eventful_slots > 0


def counted_pops(monkeypatch):
    """The entries the engine takes off its heap, in order."""
    popped = []

    def counting_pop(heap):
        popped.append(heapq.heappop(heap))
        return popped[-1]

    shim = types.SimpleNamespace(
        heappush=heapq.heappush, heappop=counting_pop, heapify=heapq.heapify
    )
    monkeypatch.setattr(engine, "heapq", shim)
    return popped


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
            net, lambda node: FixedProbBroadcaster(node, prob=0.15, budget=300),
            400, seed,
        )
        assert_same_run(runs)
        assert runs[1][0].multi_tx_slots > 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_slow_start(self, seed):
        net = scattered_network(seed + 10, 12, wake_window=20)

        def factory(node):
            return SlowStartBroadcaster(
                node, prob_cap=0.25, n=12, phase_len=6, cap_slots_target=20,
                budget=500,
            )

        assert_same_run(run_both(net, factory, 600, seed))

    @pytest.mark.parametrize("seed", [0, 4])
    def test_variable_power(self, seed):
        net = scattered_network(seed + 20, 12)
        bounds = (float(net.powers.min()), float(net.powers.max()))

        def factory(node):
            low = max(bounds[0], 0.5 * node.power)
            pieces = [(0, node.power), (100, low)] if low < node.power else [(0, node.power)]
            return FixedProbBroadcaster(
                node, prob=0.2, budget=250, pieces=pieces, power_bounds=bounds
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

        def factory(node):
            return FixedProbBroadcaster(
                node, prob=0.2, budget=150,
                pieces=[(0, bounds[1]), (60, bounds[0])], power_bounds=bounds,
            )

        runs = run_both(net, factory, 200, 3)
        assert_same_run(runs)
        assert runs[1][0].multi_tx_slots > 0

    @pytest.mark.parametrize("mis", [False, True])
    def test_coloring_and_mis(self, mis):
        net = scattered_network(30 + mis, 10, wake_window=40)
        k = coloring_constants(net, 1.0)
        runs = run_both(
            net, lambda node: ColoringMachine(node, k, mis=mis),
            coloring_slots(net, k), 5,
        )
        assert_same_run(runs)
        assert runs[1][0].completed and runs[1][0].multi_tx_slots > 0

    def test_sleeping_nodes(self):
        net = scattered_network(40, 12, wake_window=10, sleepers=5)
        runs = run_both(
            net, lambda node: FixedProbBroadcaster(node, prob=0.2, budget=400),
            500, 2,
        )
        assert_same_run(runs)
        assert runs[1][0].stale_tx_entries > 0

    def test_forced_resignation(self):
        net = scattered_network(50, 6)
        k = coloring_constants(net, 0.3)
        runs = run_both(
            net, lambda node: ColoringMachine(node, k),
            4 * coloring_slots(net, k), 1,
            scripts=lambda: _resignation_script(1, k, 0),
        )
        assert_same_run(runs)
        assert sum(m.resigned_count for m in runs[1][0].machines.values()) == 1

    def test_checkpoint_pushed_twice_for_one_slot(self, monkeypatch):
        class Rearm(ProtocolMachine):
            """Arms slot 10, is moved to 6 by a script at slot 1, arms 10
            again from the poll at 6 (two entries for slot 10 now), and
            re-arms 10 inside its poll."""

            def wake(self, slot):
                self.polls_at_10 = 0
                self.schedule(10)
                self.set_prob(0, 1.0)

            def on_transmit(self, slot, lane):
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

        def silence_and_move(machines, slot):
            for machine in machines.values():
                machine.set_prob(0, 0.0)
                machine.schedule(6)

        popped = counted_pops(monkeypatch)
        net = scattered_network(75, 3)
        runs = run_both(net, Rearm, 40, 0, scripts=lambda: (1, silence_and_move))
        assert_same_run(runs)
        for machine in runs[1][0].machines.values():
            assert [s for s, kind, _d in machine.log] == [6, 10, 10]
        # per node: the entries from wake-up and from the poll at 6, then
        # the one re-armed inside the first poll at 10
        checks_at_10 = [i for s, kind, i, _k in popped if (s, kind) == (10, engine._CHECK)]
        assert checks_at_10 == [0, 0, 1, 1, 2, 2, 0, 1, 2]

    def test_truncated_outcomes(self):
        net = scattered_network(70, 10)
        runs = run_both(
            net, lambda node: FixedProbBroadcaster(node, prob=0.2, budget=300),
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

    def __init__(self, node, *, talker, bad, where, at):
        super().__init__(node)
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

    def on_receive(self, slot, sender, payload):
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
        def factory(node):
            return Faulty(node, talker=10, bad=bad, where=where, at=at)

        with pytest.raises(SimulationAbort) as err:
            run_simulation(trio(), factory, max_slots=50, seed=0)
        assert (err.value.node_id, err.value.slot) == (bad, at)
        assert isinstance(err.value.cause, KeyError)
        assert err.value.cause.args == (where,)

    def test_protocol_violation_inside_a_callback_is_wrapped(self):
        class Refuses(Faulty):
            def on_transmit(self, slot, lane):
                raise ProtocolViolationError("refused")

        def factory(node):
            return Refuses(node, talker=20, bad=None, where=None, at=None)

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

    @pytest.mark.parametrize("action", ["set_prob", "schedule", "done"])
    def test_state_change_in_on_transmit_is_a_bare_violation(self, action):
        class Changes(ProtocolMachine):
            def wake(self, slot):
                self.set_prob(0, 1.0 if self.node.id == 20 else 0.0)
                self.schedule(slot + 30)

            def on_transmit(self, slot, lane):
                if slot == 3:
                    if action == "set_prob":
                        self.set_prob(0, 0.5)
                    elif action == "schedule":
                        self.schedule(slot + 5)
                    else:
                        self.done = True
                return "x", self.node.power

        with pytest.raises(ProtocolViolationError, match=r"^node 20 .* slot 3$") as err:
            run_simulation(trio(), Changes, max_slots=50, seed=0)
        assert type(err.value) is ProtocolViolationError

    def test_scripted_action_error_passes_through(self):
        def factory(node):
            return Faulty(node, talker=10, bad=None, where=None, at=None)

        def script(machines, slot):
            raise LookupError("script")

        with pytest.raises(LookupError, match="script"):
            run_simulation(trio(), factory, max_slots=50, seed=0, scripted=(7, script))


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

    def on_receive(self, slot, sender, payload):
        self.set_prob(0, 0.5 if self.lanes[0].prob == 0.3 else 0.3)

    def on_transmit(self, slot, lane):
        return "x", self.node.power


class OneShot(ProtocolMachine):
    """Node 0 transmits once within the first thousand slots, at slot 3,
    and is done from a poll at that slot on; the other nodes are done on
    their first reception."""

    def wake(self, slot):
        if self.node.id == 0:
            self.configure_lane(0, 1000, 3)
            self.set_prob(0, 1.0)
            self.schedule(3)

    def poll(self, slot):
        self.done = True

    def on_receive(self, slot, sender, payload):
        self.record(slot, "rx", (sender, payload))
        self.done = True

    def on_transmit(self, slot, lane):
        return "x", self.node.power


class TestDelivery:
    def pair(self):
        return build_network([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)], PARAMS)

    def test_reception_reaches_the_next_slot_without_a_heap_entry(self, monkeypatch):
        popped = counted_pops(monkeypatch)
        runs = run_both(self.pair(), OneShot, 50, 0)
        assert_same_run(runs)
        trace = runs[1][0]
        assert trace.machines[1].log == [(4, "rx", (0, "x"))]
        # nothing else is due at slot 4, and the run ends there
        assert trace.completed and trace.n_slots == 5
        assert [entry[0] for entry in popped] == [0, 0, 3, 3]
        assert trace.heap_pops == len(popped)

    def test_reception_due_at_max_slots_is_not_delivered(self, monkeypatch):
        popped = counted_pops(monkeypatch)
        runs = run_both(self.pair(), OneShot, 4, 0)
        assert_same_run(runs)
        trace = runs[1][0]
        assert trace.machines[1].log == []
        assert not trace.completed and trace.n_slots == 4
        assert trace.heap_pops == len(popped) == 4


class Shaped(ProtocolMachine):
    """Done at once, with one lane of the shape its node id names."""

    SHAPES = {10: (3, 0, 1.0), 20: (2, 1, 0.5), 30: (1, 0, 0.25)}  # period, phase, prob

    def wake(self, slot):
        period, phase, prob = self.SHAPES[self.node.id]
        self.configure_lane(0, period, phase)
        self.set_prob(0, prob)
        self.done = True

    def on_transmit(self, slot, lane):
        return "x", self.node.power


class TestMonitorFeed:
    def test_updates_name_indices_and_odd_periods_fill_both_parities(self):
        """Node 10's period of 3 puts its slots on both parities, node 20
        sends on odd slots only and node 30 on every slot; the monitor
        hears of each by node index."""
        runs = run_both(trio(), Shaped, 100, 0)
        assert_same_run(runs)
        for _trace, updates in runs:
            assert updates == [
                (0, [(0, 1.0, 1.0), (1, 0.0, 0.5)]),
                (5, [(2, 0.25, 0.25)]),
            ]


class Idle(ProtocolMachine):
    """Done from its wake-up on; never transmits."""

    def wake(self, slot):
        self.done = True


class TestScript:
    """`scripted=(first_slot, action)`: the action returns its next slot or
    None, and the run cannot complete while a call is pending."""

    @pytest.mark.parametrize("simulate", [reference_run_simulation, run_simulation])
    def test_none_ends_the_chain(self, simulate):
        calls = []

        def action(machines, slot):
            calls.append(slot)
            return slot + 5 if len(calls) < 3 else None

        trace = simulate(trio(), Idle, 100, 0, scripted=(3, action))
        assert calls == [3, 8, 13]
        assert trace.completed and trace.n_slots == 14

    @pytest.mark.parametrize("simulate", [reference_run_simulation, run_simulation])
    @pytest.mark.parametrize("offset", [0, -1])
    def test_a_slot_not_after_the_current_one_raises(self, simulate, offset):
        def action(machines, slot):
            return slot + offset

        with pytest.raises(ValueError, match=f"slot 7 returned slot {7 + offset}"):
            simulate(trio(), Idle, 100, 0, scripted=(7, action))

    @pytest.mark.parametrize("simulate", [reference_run_simulation, run_simulation])
    def test_a_node_waking_after_the_run_leaves_the_count_alone(self, simulate):
        """Node 30 wakes at slot 5, after the run; the action at slot 1
        touches every machine and must not count it as done, because
        node 10 is still running."""

        class Busy(Idle):
            def wake(self, slot):
                self.done = self.node.id != 10

        trace = simulate(trio(), Busy, 5, 0, scripted=(1, lambda machines, slot: None))
        assert not trace.completed and trace.n_slots == 5

    def test_probe_stops_after_its_last_call(self):
        k = coloring_constants(scattered_network(50, 6), 0.3)
        start, probe = _resignation_script(1, k, 0)
        slots = [start]
        while (nxt := probe({}, slots[-1])) is not None:
            slots.append(nxt)
        interval = 8 * k.slots_std
        assert slots == [start + j * interval for j in range(2000)]

    def test_probe_stops_at_max_slots(self):
        k = coloring_constants(scattered_network(50, 6), 0.3)
        start, probe = _resignation_script(1, k, 0)
        interval = 8 * k.slots_std
        max_slots = start + 3 * interval + 1
        calls = []

        def nobody_to_resign(machines, slot):
            calls.append(slot)
            return probe({}, slot)

        trace = run_simulation(trio(), Idle, max_slots, 0, scripted=(start, nobody_to_resign))
        assert calls == [start + j * interval for j in range(4)]
        assert trace.completed and trace.n_slots == calls[-1] + 1


class TestLoopCounters:
    def test_heap_and_stale_entry_counts(self, monkeypatch):
        popped = counted_pops(monkeypatch)
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
            net, lambda node: FixedProbBroadcaster(node, prob=0.25, budget=300),
            max_slots=350, seed=1, trace=TraceConfig(record_outcomes=True),
        )
        single = sum(1 for o in trace.outcomes if len(o.transmissions) == 1)
        assert not trace.outcomes_truncated
        assert trace.multi_tx_slots > 0
        assert trace.eventful_slots - trace.multi_tx_slots == single


class DeafChatter(ProtocolMachine):
    """Transmits with probability 0.2 forever; defines no on_receive."""

    def wake(self, slot):
        self.set_prob(0, 0.2)

    def on_transmit(self, slot, lane):
        return "x", self.node.power


class Logs:
    """Logs every reception."""

    def on_receive(self, slot, sender, payload):
        self.record(slot, "rx", sender)


class Chatter(Logs, DeafChatter):
    pass


class DeafBeacon(DeafChatter):
    """Done from its wake-up on, as a colored node is, yet node 0 keeps
    transmitting in every slot."""

    def wake(self, slot):
        self.done = True
        if self.node.id == 0:
            self.set_prob(0, 1.0)


class Beacon(Logs, DeafBeacon):
    pass


class TestDeafListeners:
    """A machine class whose on_receive is ProtocolMachine's gets no inbox;
    one that inherits another, as Chatter and Beacon do, hears."""

    def test_same_counters_without_on_receive(self):
        net = scattered_network(7, 12)
        hearing = run_simulation(net, Chatter, 300, 4)
        deaf = run_simulation(net, DeafChatter, 300, 4)
        assert deaf.heap_pops == hearing.heap_pops
        assert deaf.eventful_slots == hearing.eventful_slots
        assert deaf.tx_count == hearing.tx_count
        assert deaf.first_rx == hearing.first_rx
        assert any(m.log for m in hearing.machines.values())
        assert not any(m.log for m in deaf.machines.values())

    def test_a_reception_nobody_reads_takes_no_slot(self):
        """Every node is done at slot 0; a pending delivery would keep the
        run going, and node 0 causes one in every slot."""
        pair = build_network([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)], PARAMS)
        hearing = run_both(pair, Beacon, 50, 0)
        assert_same_run(hearing)
        trace = hearing[1][0]
        assert not trace.completed and trace.n_slots == 50
        assert [slot for slot, _, _ in trace.machines[1].log] == list(range(1, 50))
        deaf = run_both(pair, DeafBeacon, 50, 0)
        assert_same_run(deaf)
        trace = deaf[1][0]
        assert trace.completed and trace.n_slots == 1 and trace.eventful_slots == 1
        assert trace.first_rx[1] == {0: 0} and trace.machines[1].log == []


class TestDrawsInBlocks:
    """The engine reads each node's uniforms ahead in blocks and counts the
    ones it took."""

    def test_blocks_match_scalar_draws(self):
        uniforms = engine._Uniforms([node_rng(5, 2), node_rng(5, 3)])
        scalar = [node_rng(5, 2), node_rng(5, 3)]
        assert uniforms.counts() == [0, 0]
        # two nodes taking turns, each across three block boundaries
        count = 2 * (3 * engine._BLOCK + 3)
        assert [uniforms.draw(j % 2) for j in range(count)] == [
            scalar[j % 2].random() for j in range(count)
        ]
        assert uniforms.counts() == [count // 2] * 2

    def test_draw_counts_cross_block_boundaries(self):
        """A chatter never changes regime after its wake-up, so it draws
        one gap then, and one after each transmission."""
        net = scattered_network(9, 6, wake_window=40)
        runs = run_both(net, DeafChatter, 300, 3)
        assert_same_run(runs)
        trace = runs[1][0]
        assert trace.draws == {v: trace.tx_count[v] + 1 for v in net.ids}
        assert max(trace.draws.values()) > 3 * engine._BLOCK
