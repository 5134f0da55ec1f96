"""The event loop against its reference, its error attribution and its
counters."""

import heapq
import math
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sinrsim.engine as engine
from sinrsim.analysis import RegionBudgetMonitor, region_probability_cap
from sinrsim.broadcast import FixedProbBroadcaster, SlowStartBroadcaster
from sinrsim.coloring import ColoringConstants, ColoringMachine
from sinrsim.engine import ProtocolMachine, TraceConfig, _generator, _seed_words, run_simulation
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


def assert_same_schedule(runs):
    """`assert_same_run` for a run of fixed broadcasters alone, which the
    engine must have swept as a schedule: with eventful slots, the event
    loop would have popped wake entries off its heap."""
    assert_same_run(runs)
    assert runs[1][0].heap_pops == 0


def counted_pops(monkeypatch, pushed=None):
    """The entries the engine takes off its heap, in order; with a list
    `pushed`, each entry it pushes goes there too, with the heap's size
    after the push."""
    popped = []

    def counting_pop(heap):
        popped.append(heapq.heappop(heap))
        return popped[-1]

    def counting_push(heap, entry):
        heapq.heappush(heap, entry)
        pushed.append((entry, len(heap)))

    shim = types.SimpleNamespace(
        heappush=heapq.heappush if pushed is None else counting_push,
        heappop=counting_pop,
        heapify=heapq.heapify,
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
        assert_same_schedule(runs)
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

        assert_same_schedule(run_both(net, factory, 300, seed))

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
        assert_same_schedule(runs)
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

    def test_sleeping_nodes(self, monkeypatch):
        net = scattered_network(40, 12, wake_window=10, sleepers=5)
        assert_same_schedule(run_both(
            net, lambda node: FixedProbBroadcaster(node, prob=0.2, budget=400),
            500, 2,
        ))
        # in the event loop, a sleeper leaves lane entries behind, which pop
        # after its departure and send nothing
        popped = counted_pops(monkeypatch)
        runs = run_both(net, OddSlotToggler, 500, 2)
        assert_same_run(runs)
        left = [(s, i) for s, kind, i, _k in popped
                if kind == engine._TX and s >= (net.nodes[i].sleep_slot or math.inf)]
        assert left
        sent = {(o.slot, tx.sender) for o in runs[1][0].outcomes for tx in o.transmissions}
        assert sent.isdisjoint(left)

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
            """Arms slot 10, is moved to 6 by a script at slot 1, and arms
            10 again from the poll at 6: two entries for slot 10 now, and
            one poll there."""

            def wake(self, slot):
                self.schedule(10)
                self.set_prob(0, 1.0)

            def on_transmit(self, slot, lane):
                return "x", self.node.power

            def poll(self, slot):
                self.record(slot, "poll")
                if slot == 6:
                    self.schedule(10)
                else:
                    self.set_prob(0, 0.1)

        def silence_and_move(machines, slot):
            for machine in machines.values():
                machine.set_prob(0, 0.0)
                machine.schedule(6)

        popped = counted_pops(monkeypatch)
        net = scattered_network(75, 3)
        runs = run_both(net, Rearm, 40, 0, scripts=lambda: (1, silence_and_move))
        assert_same_run(runs)
        for machine in runs[1][0].machines.values():
            assert [s for s, kind, _d in machine.log] == [6, 10]
        # per node: the entries from wake-up and from the poll at 6
        checks_at_10 = [i for s, kind, i, _k in popped if (s, kind) == (10, engine._CHECK)]
        assert checks_at_10 == [0, 0, 1, 1, 2, 2]

    def test_truncated_outcomes(self):
        net = scattered_network(70, 10)
        runs = run_both(
            net, lambda node: FixedProbBroadcaster(node, prob=0.2, budget=300),
            350, 0, outcome_limit=25,
        )
        assert_same_schedule(runs)
        assert runs[1][0].outcomes_truncated and len(runs[1][0].outcomes) == 25


class TestScheduleMatchesReference:
    """A run of fixed broadcasters alone is swept as a schedule below
    probability 1, and goes through the event loop at 1; the reference
    engine steps it through its per-slot loop."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_fixed_broadcast_runs(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        n = data.draw(st.integers(2, 12))
        budget = data.draw(st.integers(1, 120))
        prob = data.draw(st.sampled_from([1.0, 0.5, 0.3, 0.12]))
        wake_window = data.draw(st.integers(0, 60))
        # up to well past every budget end, so budgets run past it or not
        max_slots = data.draw(st.integers(1, wake_window + budget + 20))
        pieces = data.draw(st.booleans())
        limit = data.draw(st.sampled_from([None, 0, 3, 20]))
        side = 1.6 * np.sqrt(n)
        nodes = []
        for i in range(n):
            wake = int(rng.integers(0, wake_window + 1))
            # stays, or leaves before, at or after its budget end
            leave = [None, wake + int(rng.integers(1, budget + 1)), wake + budget,
                     wake + budget + int(rng.integers(1, 30))][int(rng.integers(0, 4))]
            nodes.append(Node(i, float(rng.uniform(0, side)), float(rng.uniform(0, side)),
                              float(rng.uniform(1.0, 8.0)), wake_slot=wake, sleep_slot=leave))
        net = build_network(nodes, PARAMS)
        schedules = {}
        for node in nodes:
            starts = sorted({0, *rng.integers(1, budget + 10, size=3).tolist()}) if pieces else [0]
            schedules[node.id] = [(t, float(rng.uniform(0.5, 8.0))) for t in starts]

        def factory(node):
            return FixedProbBroadcaster(node, prob=prob, budget=budget, pieces=schedules[node.id])

        runs = run_both(net, factory, max_slots, 0, outcome_limit=limit)
        assume(runs[0][0].eventful_slots > 0)
        if prob < 1.0:
            assert_same_schedule(runs)
        else:
            assert_same_run(runs)
            assert runs[1][0].heap_pops > 0
        (ref, _), (new, _) = runs
        for v in net.ids:
            assert new.machines[v].power_trace() == ref.machines[v].power_trace()


def chunk_fields(trace):
    """What a chunk of the schedule's step 8 writes into a trace."""
    return (
        {v: list(row.items()) for v, row in trace.first_rx.items()},
        trace.tx_count,
        trace.full_success_count,
        trace.first_full_success,
        trace.outcomes,
    )


class TestScheduleChunks:
    """The schedule settles its slots a chunk of multi-transmission slots
    at a time (`engine._CHUNK`), each among the nodes awake in it; no
    chunk size changes a result."""

    @pytest.mark.parametrize("seed", range(6))
    def test_chunk_size_changes_no_result(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        # staggered wake-ups, and ten nodes that leave while the others send
        net = scattered_network(seed + 300, 24, wake_window=40, sleepers=10)
        budget = 150
        # each node's power changes from slot to slot
        pieces = {
            node.id: [(t, float(rng.uniform(0.5, 8.0)))
                      for t in sorted({0, *rng.integers(1, budget, size=3).tolist()})]
            for node in net.nodes
        }

        def factory(node):
            return FixedProbBroadcaster(node, prob=0.2, budget=budget, pieces=pieces[node.id])

        def run(simulate, **kwargs):
            updates = []
            trace = simulate(net, factory, 260, seed, trace=TraceConfig(record_outcomes=True),
                             monitor=lambda slot, changes: updates.append((slot, changes)),
                             **kwargs)
            return trace, updates

        swept = []
        for chunk in (1, 2, engine._CHUNK):
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            swept.append(run(run_simulation))
        loop = run(run_simulation, scripted=(0, lambda machines, slot: None))
        reference = run(reference_run_simulation)
        assert all(trace.heap_pops == 0 for trace, _ in swept) and loop[0].heap_pops > 0
        for trace, updates in [*swept, loop]:
            assert chunk_fields(trace) == chunk_fields(reference[0])
            assert updates == reference[1]
        # in chunks of two, a listener wakes or leaves between the two
        # multi-transmission slots of some chunk
        multi = [o.slot for o in reference[0].outcomes if len(o.transmissions) > 1]
        flips = {node.wake_slot for node in net.nodes} | {
            node.sleep_slot for node in net.nodes if node.sleep_slot is not None
        }
        assert any(a < f <= b for a, b in zip(multi[::2], multi[1::2]) for f in flips)


class HearingBroadcaster(FixedProbBroadcaster):
    """A fixed broadcaster that logs what it hears."""

    def on_receive(self, slot, sender, payload):
        self.record(slot, "rx", sender)


class TestSchedulePath:
    """The engine sweeps a run of fixed broadcasters alone as a schedule,
    with no lane draws and no heap; a script or a hearing machine puts the
    run through the event loop."""

    def lane_draws(self, monkeypatch):
        calls = []

        def counting(lane, stream, from_slot):
            calls.append(stream)
            return real(lane, stream, from_slot)

        real = engine._lane_slot
        monkeypatch.setattr(engine, "_lane_slot", counting)
        return calls

    def run(self, factory, **kwargs):
        net = scattered_network(60, 14, wake_window=30, sleepers=4)
        return run_simulation(net, factory, 400, 5, trace=TraceConfig(record_outcomes=True),
                              **kwargs)

    @staticmethod
    def fixed(node):
        return FixedProbBroadcaster(node, prob=0.15, budget=300)

    def test_fixed_run_is_a_schedule(self, monkeypatch):
        calls = self.lane_draws(monkeypatch)
        popped = counted_pops(monkeypatch)
        trace = self.run(self.fixed)
        assert calls == [] and popped == []
        assert trace.heap_pops == 0
        assert trace.eventful_slots > 0 and sum(trace.draws.values()) > 0

    @pytest.mark.parametrize("simulate", [reference_run_simulation, run_simulation])
    def test_a_run_nobody_wakes_in_does_not_complete(self, simulate):
        late = build_network(
            [Node(0, 0.0, 0.0, 8.0, wake_slot=9), Node(1, 1.0, 0.0, 8.0, wake_slot=12)], PARAMS
        )
        trace = simulate(late, self.fixed, 9, 0)
        assert (trace.completed, trace.n_slots, trace.eventful_slots) == (False, 9, 0)
        assert trace.draws == {0: 0, 1: 0}

    def test_a_script_takes_the_event_loop(self, monkeypatch):
        schedule = self.run(self.fixed)
        calls = self.lane_draws(monkeypatch)
        scripted = self.run(self.fixed, scripted=(3, lambda machines, slot: None))
        assert calls and scripted.heap_pops > 0
        # a script that changes nothing changes no result
        assert scripted.outcomes == schedule.outcomes
        assert scripted.first_rx == schedule.first_rx
        assert scripted.draws == schedule.draws
        assert (scripted.n_slots, scripted.completed) == (schedule.n_slots, schedule.completed)

    def test_transmissions_go_through_on_transmit(self, monkeypatch):
        sent = []
        real = FixedProbBroadcaster.on_transmit

        def logged(machine, slot, lane):
            sent.append((slot, machine.node.id))
            return real(machine, slot, lane)

        monkeypatch.setattr(FixedProbBroadcaster, "on_transmit", logged)
        trace = self.run(self.fixed)
        assert sent == sorted(sent)  # in slot order, nodes in index order
        assert len(sent) == sum(trace.tx_count.values()) > 0

    def test_the_schedule_follows_the_plan_wake_sets(self, monkeypatch):
        # a lane of period 3 and a shorter checkpoint than the budget: the
        # sweep reads both from the machine, as the event loop does, which
        # runs the machines of probability 1
        real = FixedProbBroadcaster.wake

        def wake(machine, slot):
            real(machine, slot)
            machine.configure_lane(0, 3, machine.node.id % 3)
            machine.schedule(slot + 150)

        monkeypatch.setattr(FixedProbBroadcaster, "wake", wake)
        calls = self.lane_draws(monkeypatch)
        net = scattered_network(61, 14, wake_window=30, sleepers=4)
        for prob in (0.2, 1.0):
            calls.clear()
            runs = run_both(net, lambda node: FixedProbBroadcaster(node, prob=prob, budget=300),
                            400, 5)
            assert_same_run(runs)
            trace = runs[1][0]
            assert trace.completed and trace.n_slots <= 30 + 151
            if prob < 1.0:
                assert calls == [] and trace.heap_pops == 0
            else:
                assert calls and trace.heap_pops > 0

    def test_a_poll_that_leaves_the_plan_running_is_refused(self, monkeypatch):
        monkeypatch.setattr(FixedProbBroadcaster, "poll", lambda machine, slot: None)
        with pytest.raises(ProtocolViolationError, match="did not end its open-loop plan"):
            self.run(self.fixed)

    def test_a_wake_that_sets_probability_1_is_refused(self, monkeypatch):
        # the dispatch reads the constructor's probability; the schedule
        # has no gap to draw for the one that `wake` sets
        real = FixedProbBroadcaster.wake

        def wake(machine, slot):
            real(machine, slot)
            machine.set_prob(0, 1.0)

        monkeypatch.setattr(FixedProbBroadcaster, "wake", wake)
        net = build_network([Node(v, float(v), 0.0, 8.0, wake_slot=4 - v) for v in range(4)],
                            PARAMS)
        with pytest.raises(ProtocolViolationError,
                           match="^node 3: its wake in slot 1 set probability 1") as err:
            run_simulation(net, lambda node: FixedProbBroadcaster(node, prob=0.2, budget=30),
                           50, 0)
        assert type(err.value) is ProtocolViolationError

    def test_a_hearing_machine_takes_the_event_loop(self, monkeypatch):
        calls = self.lane_draws(monkeypatch)

        def factory(node):
            if node.id == 0:
                return HearingBroadcaster(node, prob=0.15, budget=300)
            return self.fixed(node)

        trace = self.run(factory)
        assert calls and trace.heap_pops > 0
        assert trace.machines[0].log


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


class Backdate(ProtocolMachine):
    """Node 0 transmits in every slot; node 1 files the slot two before
    its third reception, at slot 3."""

    def wake(self, slot):
        self.heard = 0
        self.set_prob(0, 1.0 if self.node.id == 0 else 0.0)

    def on_receive(self, slot, sender, payload):
        self.record(slot, "rx", sender)
        self.heard += 1
        if self.heard == 3:
            self.schedule(slot - 2)

    def poll(self, slot):
        self.record(slot, "poll")

    def on_transmit(self, slot, lane):
        return "x", self.node.power


class RearmInPoll(Backdate):
    """Node 0 transmits in every slot; both nodes arm slot 5, and file it
    again inside their first poll there."""

    def wake(self, slot):
        super().wake(slot)
        self.schedule(5)

    def on_receive(self, slot, sender, payload):
        pass

    def poll(self, slot):
        self.record(slot, "poll")
        if len(self.log) == 1:
            self.schedule(slot)


class KeepDue(Backdate):
    """As Backdate, but node 1 arms slot 4 and files it again on each
    reception, which leaves the due checkpoint in place at slot 4."""

    def wake(self, slot):
        super().wake(slot)
        if self.node.id == 1:
            self.schedule(4)

    def on_receive(self, slot, sender, payload):
        self.record(slot, "rx", sender)
        if not self.done:
            self.schedule(4)

    def poll(self, slot):
        self.record(slot, "poll")
        self.done = True


def pair():
    """Two nodes one unit apart, in each other's reach."""
    return build_network([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)], PARAMS)


class TestEachSlotOnce:
    """Each slot runs once, in increasing order: a checkpoint newly filed at
    or before the current slot is refused, naming the node, the slot filed
    and the current slot, on both engine paths and in the reference."""

    @pytest.mark.parametrize("simulate", [reference_run_simulation, run_simulation])
    @pytest.mark.parametrize("machine, message", [
        (Backdate, "node 1 filed checkpoint 1 in slot 3, not after it"),
        (RearmInPoll, "node 0 filed checkpoint 5 in slot 5, not after it"),
    ], ids=["backdate", "rearm_in_poll"])
    def test_a_backward_checkpoint_is_refused(self, simulate, machine, message):
        with pytest.raises(ProtocolViolationError, match=f"^{message}$") as err:
            simulate(pair(), machine, 50, 0)
        assert type(err.value) is ProtocolViolationError

    @pytest.mark.parametrize("simulate", [reference_run_simulation, run_simulation])
    def test_the_schedule_refuses_a_wake_that_files_its_own_slot(self, simulate, monkeypatch):
        real = FixedProbBroadcaster.wake

        def wake(machine, slot):
            real(machine, slot)
            machine.schedule(slot)

        monkeypatch.setattr(FixedProbBroadcaster, "wake", wake)
        late = build_network(
            [Node(0, 0.0, 0.0, 8.0, wake_slot=3), Node(1, 1.0, 0.0, 8.0, wake_slot=7)], PARAMS
        )
        with pytest.raises(ProtocolViolationError,
                           match="^node 0 filed checkpoint 3 in slot 3, not after it$"):
            simulate(late, lambda node: FixedProbBroadcaster(node, prob=0.2, budget=30), 50, 5)

    @pytest.mark.parametrize("path", ["schedule", "event_loop", "reference"])
    def test_every_wake_of_a_slot_runs_before_its_plans(self, path, monkeypatch):
        # node 0's wake files its own slot, a plan refused only when read;
        # node 1's wake, in the same slot, raises before any plan is read
        real = FixedProbBroadcaster.wake

        def wake(machine, slot):
            real(machine, slot)
            if machine.node.id == 1:
                raise KeyError("wake")
            machine.schedule(slot)

        swept = []
        sweep = engine._run_schedule
        monkeypatch.setattr(FixedProbBroadcaster, "wake", wake)
        monkeypatch.setattr(engine, "_run_schedule", lambda *a: swept.append(1) or sweep(*a))
        both = build_network(
            [Node(0, 0.0, 0.0, 8.0, wake_slot=3), Node(1, 1.0, 0.0, 8.0, wake_slot=3)], PARAMS
        )
        simulate = reference_run_simulation if path == "reference" else run_simulation
        script = (1, lambda machines, slot: None) if path == "event_loop" else None
        with pytest.raises(SimulationAbort) as err:
            simulate(both, lambda node: FixedProbBroadcaster(node, prob=0.2, budget=30), 50, 5,
                     scripted=script)
        assert (err.value.node_id, err.value.slot) == (1, 3)
        assert type(err.value.cause) is KeyError
        assert swept == ([1] if path == "schedule" else [])

    @pytest.mark.parametrize("simulate", [reference_run_simulation, run_simulation])
    def test_the_schedule_names_the_first_node_to_wake(self, simulate, monkeypatch):
        real = FixedProbBroadcaster.wake

        def wake(machine, slot):
            real(machine, slot)
            machine.schedule(slot)

        monkeypatch.setattr(FixedProbBroadcaster, "wake", wake)
        net = build_network([Node(v, float(v), 0.0, 8.0, wake_slot=w)
                             for v, w in enumerate([13, 20, 30, 25, 18, 7])], PARAMS)
        with pytest.raises(ProtocolViolationError,
                           match="^node 5 filed checkpoint 7 in slot 7, not after it$"):
            simulate(net, lambda node: FixedProbBroadcaster(node, prob=0.2, budget=30), 50, 5)

    def test_a_due_checkpoint_left_in_place_is_polled(self):
        runs = run_both(pair(), KeepDue, 8, 0)
        assert_same_run(runs)
        log = runs[1][0].machines[1].log
        assert [(s, kind) for s, kind, _ in log] == [(1, "rx"), (2, "rx"), (3, "rx"), (4, "rx"),
                                                     (4, "poll"), (5, "rx"), (6, "rx"), (7, "rx")]


class TestLaneChecks:
    """Lane values are refused where they enter the engine, naming the
    node, the lane and the value."""

    @pytest.mark.parametrize("method, args, problem", [
        ("configure_lane", (-2, 0), "period must be an integer >= 1, got -2"),
        ("configure_lane", (0, 0), "period must be an integer >= 1, got 0"),
        ("configure_lane", (2.5, 0), "period must be an integer >= 1, got 2.5"),
        ("configure_lane", (True, 0), "period must be an integer >= 1, got True"),
        ("configure_lane", (2, 0.5), "phase must be an integer, got 0.5"),
        ("set_prob", (math.nan,), "probability must lie in [0, 1], got nan"),
        ("set_prob", (1.5,), "probability must lie in [0, 1], got 1.5"),
        ("set_prob", (-0.25,), "probability must lie in [0, 1], got -0.25"),
    ], ids=["period-2", "period0", "period2.5", "period_bool", "phase0.5",
            "prob_nan", "prob1.5", "prob-0.25"])
    def test_a_bad_lane_value_is_refused(self, method, args, problem):
        class Bad(ProtocolMachine):
            LANES = 2

            def wake(self, slot):
                getattr(self, method)(1, *args)

        with pytest.raises(SimulationAbort) as err:
            run_simulation(trio(), Bad, 50, 0)
        assert (err.value.node_id, err.value.slot) == (10, 0)
        assert type(err.value.cause) is ProtocolViolationError
        assert str(err.value.cause) == f"node 10 lane 1: {problem}"

    def test_integral_and_boundary_values_pass(self):
        machine = ProtocolMachine(Node(7, 0.0, 0.0, 1.0))
        machine.configure_lane(0, np.int64(3), -1)
        for prob in (1, np.float64(0.5), 0.0):
            machine.set_prob(0, prob)
        lane = machine.lanes[0]
        assert (lane.period, lane.phase, lane.prob) == (3, -1, 0.0)


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


class OddSlotToggler(ProtocolMachine):
    """Transmits on odd slots only; every reception toggles its probability,
    which discards the pending draw."""

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


class Echo(OneShot):
    """As OneShot, but a node that is not done answers its reception in
    the slot it arrives: the lane it sets there is due at once."""

    def on_receive(self, slot, sender, payload):
        self.record(slot, "rx", (sender, payload))
        if not self.done:
            self.configure_lane(0, 1000, slot)
            self.set_prob(0, 1.0)
            self.done = True


class TestDelivery:
    def test_reception_reaches_the_next_slot_without_a_heap_entry(self, monkeypatch):
        popped = counted_pops(monkeypatch)
        runs = run_both(pair(), OneShot, 50, 0)
        assert_same_run(runs)
        trace = runs[1][0]
        assert trace.machines[1].log == [(4, "rx", (0, "x"))]
        # nothing else is due at slot 4, and the run ends there
        assert trace.completed and trace.n_slots == 5
        assert [entry[0] for entry in popped] == [0, 0, 3, 3]
        assert trace.heap_pops == len(popped)

    def test_reception_due_at_max_slots_is_not_delivered(self, monkeypatch):
        popped = counted_pops(monkeypatch)
        runs = run_both(pair(), OneShot, 4, 0)
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


class Scripted(ProtocolMachine):
    """Sets nothing itself: only a script gives it a lane."""

    def on_transmit(self, slot, lane):
        return "x", self.node.power


class TestAsleepNodes:
    """The lottery and the monitor see a node's lanes only while it is
    awake: lanes set before its wake-up are drawn and reported there, and
    its departure reports them as 0."""

    @pytest.mark.parametrize("simulate", [reference_run_simulation, run_simulation])
    def test_a_lane_set_before_the_wake_up_fires_after_it(self, simulate):
        net = build_network(
            [Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0, wake_slot=50)], PARAMS
        )

        def action(machines, slot):
            machines[1].set_prob(0, 0.5)

        updates = []
        trace = simulate(
            net, Scripted, 200, 0, trace=TraceConfig(record_outcomes=True),
            monitor=lambda slot, changes: updates.append((slot, list(changes))),
            scripted=(10, action),
        )
        slots = [outcome.slot for outcome in trace.outcomes]
        assert trace.tx_count[1] == len(slots) > 0 and slots[0] >= 50
        assert updates == [(50, [(1, 0.5, 0.5)])]

    # a fixed broadcaster runs on the schedule, a hearing one on the event loop
    @pytest.mark.parametrize("simulate", [reference_run_simulation, run_simulation])
    @pytest.mark.parametrize("machine", [FixedProbBroadcaster, HearingBroadcaster])
    def test_a_departure_reports_zero_lanes(self, simulate, machine):
        net = build_network(
            [Node(0, 0.0, 0.0, 8.0, sleep_slot=20), Node(1, 1.0, 0.0, 8.0)], PARAMS
        )
        monitor = RegionBudgetMonitor(net, math.inf)
        updates = []

        def feed(slot, changes):
            updates.append((slot, list(changes)))
            monitor(slot, changes)

        trace = simulate(net, lambda node: machine(node, prob=0.5, budget=100), 200, 0,
                         monitor=feed)
        assert trace.completed and trace.n_slots == 101
        assert updates == [
            (0, [(0, 0.5, 0.5), (1, 0.5, 0.5)]),
            (20, [(0, 0.0, 0.0)]),
            (100, [(1, 0.0, 0.0)]),
        ]
        assert monitor.sum_even == monitor.sum_odd == [0.0, 0.0]


class TestAwakeWindow:
    """Step 8 tests no listener for being awake in the window in which
    every node is: from the latest wake-up up to the earliest departure.
    Node 0 sends in nearly every slot of its budget, past both edges of
    that window: node 1 wakes last, in slot 4, and node 2 leaves first, in
    slot 9, both its out-neighbours.  A far sender, node 3, makes every
    slot a multi-transmission slot; node 4, near node 0 and waking at or
    past `max_slots`, never wakes, so then no slot lies in the window."""

    MAX_SLOTS = 30

    @pytest.mark.parametrize("path", ["schedule", "event loop"])
    @pytest.mark.parametrize("never", [None, MAX_SLOTS, MAX_SLOTS + 5])
    @pytest.mark.parametrize("far", [False, True])
    def test_window_edges_match_the_reference(self, far, never, path):
        nodes = [Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 1.0, wake_slot=4),
                 Node(2, 0.0, 1.0, 1.0, sleep_slot=9)]
        if far:
            nodes.append(Node(3, 1000.0, 0.0, 8.0))
        if never is not None:
            nodes.append(Node(4, -1.0, 0.0, 1.0, wake_slot=never))
        net = build_network(nodes, PARAMS)
        assert {1, 2} <= set(net.out_indices(0).tolist())

        def factory(node):
            # the senders all but surely in every slot, the others never
            return FixedProbBroadcaster(node, prob=0.999 if node.id in (0, 3) else 1e-9,
                                        budget=12)

        scripts = (lambda: (0, lambda machines, slot: None)) if path == "event loop" else None
        runs = run_both(net, factory, self.MAX_SLOTS, 0, scripts=scripts)
        assert_same_run(runs)
        trace = runs[1][0]
        assert (trace.heap_pops > 0) == (path == "event loop")
        assert [(o.slot, len(o.transmissions)) for o in trace.outcomes] == [
            (s, 2 if far else 1) for s in range(12)
        ]
        heard = [sorted(l for l, tx in o.receptions if tx.sender == 0) for o in trace.outcomes]
        # before the last wake-up and in its slot; in the slot before the
        # first departure and in that slot, where the leaver hears nothing
        assert [heard[s] for s in (3, 4, 8, 9)] == [[2], [1, 2], [1, 2], [1]]
        # nor does a node asleep in a slot block a full success there
        assert trace.full_success_count[0] == trace.tx_count[0] == 12


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


def popped_lanes(popped, trace):
    """The (slot, node index) of each lane entry the engine popped, and the
    number of them that sent nothing: redrawn, repeated or left by a
    departure.  A node sends at most once a slot; its id must be its index."""
    lanes = [(s, i) for s, kind, i, _k in popped if kind == engine._TX]
    sent = {(o.slot, tx.sender) for o in trace.outcomes for tx in o.transmissions}
    return lanes, len(lanes) - len(sent.intersection(lanes))


class TestLoopCounters:
    def test_heap_and_stale_entry_counts(self, monkeypatch):
        popped = counted_pops(monkeypatch)
        net = scattered_network(80, 12, sleepers=4)
        trace = run_simulation(net, OddSlotToggler, max_slots=400, seed=3,
                               trace=TraceConfig(record_outcomes=True))
        lanes, stale = popped_lanes(popped, trace)
        transmissions = sum(len(o.transmissions) for o in trace.outcomes)
        assert trace.heap_pops == len(popped)
        assert transmissions == sum(trace.tx_count.values())
        assert transmissions + stale == len(lanes)
        assert stale > 0

    def test_a_redraw_onto_its_own_slot_pops_there(self, monkeypatch):
        """Node 1's first reception, at slot 4, sets a lane due at slot 4:
        step 6 files it on the heap, and step 7 pops it and sends."""
        popped = counted_pops(monkeypatch)
        runs = run_both(pair(), Echo, 50, 0)
        assert_same_run(runs)
        trace = runs[1][0]
        assert [(o.slot, [tx.sender for tx in o.transmissions]) for o in trace.outcomes] == [
            (3, [0]), (4, [1])
        ]
        assert (4, engine._TX, 1, 0) in popped
        lanes, stale = popped_lanes(popped, trace)
        assert sum(trace.tx_count.values()) + stale == len(lanes)
        assert trace.heap_pops == len(popped)

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


class Detour(ProtocolMachine):
    """Keeps a far checkpoint, `END`, and detours through a near one on
    each reception; the poll there flips its probability and files `END`
    again, as slow start files `end_slot` again after the phase boundary a
    reception sets.  Every return pushes one more entry for `END`."""

    END = 6000

    def wake(self, slot):
        self.set_prob(0, 0.2)
        self.schedule(self.END)

    def on_receive(self, slot, sender, payload):
        if not self.done:
            self.schedule(min(slot + 2, self.END))

    def on_transmit(self, slot, lane):
        return "x", self.node.power

    def poll(self, slot):
        self.record(slot, "poll")
        if slot >= self.END:
            self.set_prob(0, 0.0)
            self.done = True
        else:
            self.set_prob(0, 0.4 if self.lanes[0].prob == 0.2 else 0.2)
            self.schedule(self.END)


class TestCompaction:
    """The event loop drops its heap's dead entries once the heap outgrows
    twice its live entries (and `_COMPACT_FLOOR`); the live ones pop in
    the same order, so the run is the same."""

    def test_a_far_checkpoint_filed_again_and_again(self, monkeypatch):
        pushed = []
        popped = counted_pops(monkeypatch, pushed)
        net = build_network([Node(v, float(v), 0.0, 8.0) for v in range(3)], PARAMS)
        runs = run_both(net, Detour, Detour.END + 10, 0)
        assert_same_run(runs)
        trace = runs[1][0]
        assert trace.completed and trace.n_slots == Detour.END + 1
        far = sum(entry[:2] == (Detour.END, engine._CHECK) for entry, _size in pushed)
        assert far > 2000
        # uncompacted, the heap would hold every copy of the far entry
        most = max(size for _entry, size in pushed)
        assert most <= engine._COMPACT_FLOOR + 3 and most < far // 4
        # the dropped entries never pop; the stale lane entries left pop
        # to no transmission
        assert trace.heap_pops == len(popped) < len(pushed)
        far_pops = sum(entry[:2] == (Detour.END, engine._CHECK) for entry in popped)
        assert far_pops < far // 4
        lanes, stale = popped_lanes(popped, trace)
        assert 0 < stale < len(lanes)
        # every transmission is one popped lane entry, a redraw onto its own
        # slot included
        assert sum(trace.tx_count.values()) + stale == len(lanes)


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
        hearing = run_both(pair(), Beacon, 50, 0)
        assert_same_run(hearing)
        trace = hearing[1][0]
        assert not trace.completed and trace.n_slots == 50
        assert [slot for slot, _, _ in trace.machines[1].log] == list(range(1, 50))
        deaf = run_both(pair(), DeafBeacon, 50, 0)
        assert_same_run(deaf)
        trace = deaf[1][0]
        assert trace.completed and trace.n_slots == 1 and trace.eventful_slots == 1
        assert trace.first_rx[1] == {0: 0} and trace.machines[1].log == []


class TestDrawsInBlocks:
    """The engine reads each node's stream ahead in blocks and counts the
    uniforms it took."""

    def test_blocks_match_scalar_draws(self):
        streams = [engine._Stream(_generator(words)) for words in _seed_words(5, [2, 3])]
        scalar = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, v))))
                  for v in (2, 3)]
        assert [stream.count() for stream in streams] == [0, 0]
        # two nodes taking turns, each across three block boundaries
        count = 2 * (3 * engine._BLOCK + 3)
        assert [streams[j % 2].draw() for j in range(count)] == [
            scalar[j % 2].random() for j in range(count)
        ]
        assert [stream.count() for stream in streams] == [count // 2] * 2

    def test_draw_counts_cross_block_boundaries(self):
        """A chatter never changes regime after its wake-up, so it draws
        one gap then, and one after each transmission."""
        net = scattered_network(9, 6, wake_window=40)
        runs = run_both(net, DeafChatter, 300, 3)
        assert_same_run(runs)
        trace = runs[1][0]
        assert trace.draws == {v: trace.tx_count[v] + 1 for v in net.ids}
        assert max(trace.draws.values()) > 3 * engine._BLOCK
