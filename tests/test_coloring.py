import collections
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrsim.analysis import region_probability_cap
from sinrsim.coloring import (
    AssignMsg,
    ColorMsg,
    ColoringConstants,
    ColoringMachine,
    CounterMsg,
    LearnAck,
    LearnReply,
    LearnReq,
    RequestMsg,
    free_counter_value,
    validate_coloring,
    validate_mis,
)
from sinrsim.engine import TraceConfig, run_simulation
from sinrsim.experiment import _leader_density_ok
from sinrsim.model import NetworkParams, Node, broadcast_range, build_network
from sinrsim.topology import clique_topology

from .conftest import (
    brute_free_counter,
    brute_leader_density_ok,
    brute_mis_verdict,
    drive_machine,
    full_scan_dominated,
    random_small_network,
)
from .test_harness import COLORING_GOLDEN_CASES, GOLDEN, coloring_golden_run


def make_constants(params=None, cap=None, max_degree=2, ratio=1.0, n_hint=4, scale=1.0):
    params = params or NetworkParams.exact(alpha=3.0, c_whp=2.0)
    cap = cap or region_probability_cap(params, ratio, n_hint)
    return ColoringConstants.derive(params, cap, max_degree, ratio, n_hint, scale)


def coloring_net(nodes, params=None):
    return build_network(nodes, params or NetworkParams.exact(alpha=3.0, c_whp=2.0))


def run_protocol(net, seed, *, mis=False, scale=1.0, n_hint=None, record=False,
                 max_slots=None):
    params = net.params
    n_hint = n_hint or net.n
    cap = region_probability_cap(params, net.range_ratio, n_hint)
    k = ColoringConstants.derive(params, cap, net.max_degree, net.range_ratio,
                                 n_hint, scale)
    budget = k.termination_budget(net.longest_chain)
    trace = run_simulation(
        net,
        lambda n: ColoringMachine(n, k, mis=mis),
        max_slots=max_slots or (2 * budget + 16),
        seed=seed,
        trace=TraceConfig(record_outcomes=True) if record else None,
    )
    return trace, k


class TestFreeCounterValue:
    def test_empty_set(self):
        assert free_counter_value([], 5) == 0

    def test_single_blocking_interval(self):
        assert free_counter_value([0], 2) == -3

    def test_negative_estimate_leaves_zero_free(self):
        assert free_counter_value([-5], 1) == 0

    @given(
        ds=st.lists(st.integers(-50, 50), max_size=8),
        zeta=st.integers(0, 10),
    )
    @settings(max_examples=300)
    def test_matches_scanning_oracle(self, ds, zeta):
        assert free_counter_value(ds, zeta) == brute_free_counter(ds, zeta)


class TestConstants:
    def test_probability_split_obeys_cap(self):
        cap = region_probability_cap(NetworkParams.exact(alpha=3.0, c_whp=2.0), 1.5, 32)
        k = make_constants(cap=cap, max_degree=6, ratio=1.5, n_hint=32)
        assert 9 * 1.5**2 * k.prob_leader + 6 * k.prob_std <= cap * (1 + 1e-9)

    def test_ceilinged_counts(self):
        k = make_constants(ratio=1.3)
        assert k.compete_span == math.ceil(38 * 1.69)
        assert k.leader_colors == math.ceil(9 * 1.69) + 1

    def test_budgets_scale_down(self):
        full = make_constants(scale=1.0)
        tiny = make_constants(scale=0.1)
        assert tiny.slots_std < full.slots_std
        assert tiny.listen_slots < full.listen_slots


class TestLearning:
    def test_isolated_node_learns_nothing(self):
        net = coloring_net([Node(0, 0.0, 0.0, 8.0)])
        trace, k = run_protocol(net, seed=0)
        machine = trace.machines[0]
        assert machine.phase == "colored"
        learned = [d for s, kind, d in machine.log if kind == "learned"][0]
        assert learned == {"in": [], "out": []}

    @pytest.mark.parametrize("seed", range(20))
    def test_bidirectional_pair_handshakes(self, seed):
        net = coloring_net([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)])
        trace, k = run_protocol(net, seed=seed)
        for v, u in ((0, 1), (1, 0)):
            machine = trace.machines[v]
            assert u in machine.heard_from
            assert u in machine.confirmed_out

    def test_learning_ends_after_its_budget(self):
        """The requests stop after one standard round; the phase ends
        `learning_budget` eligible slots after the wake-up, answers to a
        neighbour's request notwithstanding."""
        k = make_constants()

        def driven(until):
            machine = ColoringMachine(Node(0, 0, 0, 1.0), k)
            drive_machine(machine, until=until, inbox=[(3, 9, LearnReq())])
            return machine

        stop = driven(0)._after_ticks(0, k.slots_std)
        assert driven(stop - 1).lanes[0].prob == k.prob_std
        machine = driven(stop)
        assert machine.lanes[0].prob == 0.0 and machine.phase == "learning"
        end = machine._after_ticks(0, k.learning_budget)
        learned = [s for s, kind, _d in driven(end + 1).log if kind == "learned"]
        assert learned == [end]

    def test_one_way_pair_learns_asymmetrically(self):
        # strong node 0 reaches weak node 1; replies die in the channel
        net = coloring_net([Node(0, 0.0, 0.0, 8.0), Node(1, 1.2, 0.0, 1.0)])
        assert net.out_indices(0).tolist() == [1]
        trace, k = run_protocol(net, seed=3)
        weak = trace.machines[1]
        assert 0 in weak.heard_from and 0 not in weak.confirmed_out
        strong = trace.machines[0]
        assert 1 not in strong.heard_from


class TestWaitTransitions:
    def wake_past_learning(self, machine, inbox=()):
        k = machine.k
        listen_end = machine._after_ticks(0, k.learning_budget + k.listen_slots)
        drive_machine(machine, until=listen_end + 2, inbox=inbox)
        return listen_end

    def test_drive_machine_delivers_one_reception_per_slot(self):
        machine = ColoringMachine(Node(0, 0, 0, 1.0), make_constants())
        with pytest.raises(ValueError, match="one slot"):
            drive_machine(machine, until=10, inbox=[(3, 9, LearnReq()), (3, 8, LearnReq())])

    def test_unblocked_node_competes(self):
        k = make_constants()
        machine = ColoringMachine(Node(0, 0, 0, 1.0), k)
        self.wake_past_learning(machine)
        assert machine.phase == "compete"
        assert machine._compete_color == 0

    def test_uncolored_dominator_blocks(self):
        k = make_constants()
        machine = ColoringMachine(Node(0, 0, 0, 1.0), k)
        inbox = [(3, 9, CounterMsg(0, -4))]  # node 9 reaches us, we never reach it
        self.wake_past_learning(machine, inbox)
        assert machine.phase == "wait"

    def test_colored_dominator_releases(self):
        k = make_constants()
        machine = ColoringMachine(Node(0, 0, 0, 1.0), k)
        end = machine._after_ticks(0, k.learning_budget + k.listen_slots)
        inbox = [(end - 1, 9, ColorMsg(k.leader_colors + 5))]
        self.wake_past_learning(machine, inbox)
        assert machine.phase == "compete"

    def test_colored_bidirectional_leader_attracts_request(self):
        k = make_constants()
        machine = ColoringMachine(Node(0, 0, 0, 1.0), k)
        end = machine._after_ticks(0, k.learning_budget + k.listen_slots)
        inbox = [
            (3, 9, LearnReply(target=0)),  # node 9 is bidirectional
            (end - 1, 9, ColorMsg(2)),     # and holds a leader color
        ]
        self.wake_past_learning(machine, inbox)
        assert machine.phase == "request"
        assert machine._request_leader == 9

    def test_request_times_out_back_to_wait(self):
        k = make_constants(scale=0.05)
        machine = ColoringMachine(Node(0, 0, 0, 1.0), k)
        end = machine._after_ticks(0, k.learning_budget + k.listen_slots)
        inbox = [(3, 9, LearnReply(target=0)), (end - 1, 9, ColorMsg(2))]
        drive_machine(machine, until=end + 2 * (k.request_budget + 4) + 8, inbox=inbox)
        assert machine.phase == "wait"
        entry = next(s for s, kind, _d in machine.log if kind == "request")
        timeout = next(s for s, kind, _d in machine.log if kind == "request_timeout")
        assert timeout == machine._after_ticks(entry, k.request_budget)

    def test_assignment_moves_to_compete(self):
        k = make_constants(scale=0.05)
        machine = ColoringMachine(Node(0, 0, 0, 1.0), k)
        end = machine._after_ticks(0, k.learning_budget + k.listen_slots)
        inbox = [
            (3, 9, LearnReply(target=0)),
            (end - 1, 9, ColorMsg(2)),
            (end + 7, 9, AssignMsg(target=0, color=k.compete_span)),
        ]
        drive_machine(machine, until=end + 20, inbox=inbox)
        assert machine.phase == "compete"
        assert machine._compete_color == k.compete_span


class TestCompete:
    def test_lone_competitor_wins_on_schedule(self):
        """Unopposed, the counter crosses the finish line one listen window
        plus one full round after entering the compete state."""
        net = coloring_net([Node(0, 0.0, 0.0, 8.0)])
        trace, k = run_protocol(net, seed=4)
        log = {kind: slot for slot, kind, _ in trace.machines[0].log}
        race_span = log["won"] - log["compete"]
        assert abs(race_span - 2 * 2 * k.slots_std) <= 4  # wall slots, lane parity slack

    def test_announce_durations(self):
        """Leader announcements last a leader round plus a standard round;
        follower announcements last two standard rounds."""
        net = coloring_net([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)])
        trace, k = run_protocol(net, seed=2)
        for v in net.ids:
            machine = trace.machines[v]
            events = {kind: slot for slot, kind, _ in machine.log}
            span = events["colored"] - events["announce"]
            if machine.color < k.leader_colors:
                assert abs(span - 2 * (k.slots_leader + k.slots_std)) <= 4
            else:
                assert abs(span - 2 * (2 * k.slots_std)) <= 4

    @pytest.mark.parametrize("seed", range(50))
    def test_pair_exclusivity(self, seed):
        net = coloring_net([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)])
        trace, k = run_protocol(net, seed=seed)
        colors = sorted(
            (trace.machines[v].color, v) for v in net.ids
        )
        leaders = [v for c, v in colors if c < k.leader_colors]
        followers = [v for c, v in colors if c >= k.compete_span]
        assert len(leaders) == 1 and len(followers) == 1
        verdict = validate_coloring(net, {v: trace.machines[v].color for v in net.ids}, k)
        assert verdict.valid

    def test_counter_floor_never_violated(self):
        for seed in range(10):
            net = clique_topology(4, params=NetworkParams.exact(alpha=3.0, c_whp=2.0))
            trace, k = run_protocol(net, seed=seed)
            assert all(trace.machines[v].floor_violations == 0 for v in net.ids)

    def test_no_reset_after_heard_by_all(self):
        """Replay rule: once a competitor's counter message was received by
        every other racer, that competitor is never reset again."""
        checked = 0
        for seed in range(6):
            net = coloring_net([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)])
            trace, k = run_protocol(net, seed=seed, record=True)
            for v, u in ((0, 1), (1, 0)):
                heard_at = None
                for outcome in trace.outcomes:
                    for listener, tx in outcome.receptions:
                        if (
                            listener == u
                            and tx.sender == v
                            and isinstance(tx.payload, CounterMsg)
                        ):
                            heard_at = outcome.slot
                            break
                    if heard_at is not None:
                        break
                if heard_at is None:
                    continue
                checked += 1
                resets = [s for s, kind, _ in trace.machines[v].log if kind == "reset"]
                assert all(s <= heard_at for s in resets)
        assert checked > 0


class TestReceive:
    HANDLERS = ("_queue_answer", "_confirm", "_saw_color", "_saw_counter",
                "_saw_request", "_saw_assign")
    # one message of each class from node 9 at slot 5, addressed to node 0
    # where it names a target, and the handler calls it must make
    ROUTES = [
        (LearnReq(), [("_queue_answer", (5, "reply", 9))]),
        (LearnReply(target=0), [("_confirm", (9,)), ("_queue_answer", (5, "ack", 9))]),
        (LearnAck(target=0), [("_confirm", (9,))]),
        (CounterMsg(0, 3), [("_saw_counter", (5, 9, CounterMsg(0, 3)))]),
        (ColorMsg(4, True), [("_saw_color", (5, 9, 4, True))]),
        (RequestMsg(leader=0), [("_saw_request", (5, 9))]),
        (AssignMsg(target=0, color=7), [("_saw_assign", (5, 9, AssignMsg(0, 7)))]),
    ]

    @staticmethod
    def listening_machine(monkeypatch):
        """A node in its learning phase whose message handlers only record
        their calls."""
        machine = ColoringMachine(Node(0, 0, 0, 1.0), make_constants())
        machine.wake(0)
        calls = []
        for name in TestReceive.HANDLERS:
            monkeypatch.setattr(
                machine, name, lambda *args, name=name: calls.append((name, args))
            )
        return machine, calls

    def test_routes_cover_every_message_class(self):
        kinds = {type(msg) for msg, _calls in self.ROUTES}
        assert kinds == {LearnReq, LearnReply, LearnAck, CounterMsg, ColorMsg,
                         RequestMsg, AssignMsg}

    @pytest.mark.parametrize("msg,expected", ROUTES, ids=[type(m).__name__ for m, _ in ROUTES])
    def test_each_message_reaches_its_handler(self, msg, expected, monkeypatch):
        machine, calls = self.listening_machine(monkeypatch)
        machine.on_receive(5, 9, msg)
        assert calls == expected
        assert machine.heard_from == {9: 5}

    def test_other_payloads_only_stamp_the_sender(self, monkeypatch):
        machine, calls = self.listening_machine(monkeypatch)

        def state():
            kept = {
                name: copy.deepcopy(value) for name, value in vars(machine).items()
                if name not in ("lanes", "heard_from", "_unconfirmed")
            }
            return kept, [(ln.period, ln.phase, ln.prob) for ln in machine.lanes]

        before = state()
        # a plain tuple shaped like a ColorMsg is not one
        for sender, payload in ((9, "x"), (8, 42), (7, (4, True))):
            machine.on_receive(5, sender, payload)
        assert calls == []
        assert machine.heard_from == {9: 5, 8: 5, 7: 5}
        assert machine._unconfirmed == {7, 8, 9}
        assert state() == before

    def test_dominance_ends_with_the_staleness_window(self, monkeypatch):
        machine, _calls = self.listening_machine(monkeypatch)
        machine.on_receive(5, 9, "x")
        last = 5 + 2 * machine.k.request_budget  # the last slot 9 counts
        for slot in (5, last - 1, last, last + 1):
            assert machine._dominated(slot) is full_scan_dominated(machine, slot)
        assert machine._dominated(last) and not machine._dominated(last + 1)

    @pytest.mark.parametrize("case,topo", COLORING_GOLDEN_CASES)
    def test_dominance_matches_full_scan(self, case, topo, monkeypatch):
        """Before and after every reception and poll of the coloring, churn
        and MIS golden runs, `_dominated` answers as a scan of all of
        `heard_from` does, and the kept unconfirmed senders are the heard
        ones not confirmed; the runs stay golden."""
        answers = collections.Counter()

        def check(machine, slot):
            assert machine._unconfirmed == machine.heard_from.keys() - machine.confirmed_out
            expected = full_scan_dominated(machine, slot)
            assert machine._dominated(slot) is expected
            answers[expected] += 1

        def checked(method):
            def callback(self, slot, *args):
                check(self, slot)
                method(self, slot, *args)
                check(self, slot)

            return callback

        for name in ("on_receive", "poll"):
            monkeypatch.setattr(ColoringMachine, name, checked(getattr(ColoringMachine, name)))
        _report, digest = coloring_golden_run(case, topo, monkeypatch)
        assert digest == (GOLDEN / f"{case}_{topo}.sha256").read_text()
        assert answers[True] > 0 and answers[False] > 0


class TestSteps:
    @pytest.mark.parametrize("case,topo", COLORING_GOLDEN_CASES)
    def test_checkpoint_stays_ahead_of_the_slot(self, case, topo, monkeypatch):
        """After every wake-up and poll of the coloring, churn and MIS
        golden runs the next checkpoint is None or a later slot.  A
        reception may arrive in the slot of a due checkpoint, whose poll
        follows it, but never moves the checkpoint before its own slot.  So
        every step and answer window is polled in its own slot, and one
        poll finds at most one of each due; the runs stay golden."""
        seen = collections.Counter()

        def checked(method, earliest):
            def callback(self, slot, *args):
                method(self, slot, *args)
                cp = self._checkpoint
                assert cp is None or cp >= slot + earliest
                seen["none" if cp is None else "now" if cp == slot else "later"] += 1

            return callback

        for name, earliest in (("wake", 1), ("poll", 1), ("on_receive", 0)):
            method = getattr(ColoringMachine, name)
            monkeypatch.setattr(ColoringMachine, name, checked(method, earliest))
        _report, digest = coloring_golden_run(case, topo, monkeypatch)
        assert digest == (GOLDEN / f"{case}_{topo}.sha256").read_text()
        assert seen["none"] > 0 and seen["later"] > 0


class TestColoredServing:
    def test_clique_leader_serves_interval_colors(self):
        net = clique_topology(3, params=NetworkParams.exact(alpha=3.0, c_whp=2.0))
        trace, k = run_protocol(net, seed=1)
        leaders = [v for v in net.ids if trace.machines[v].color < k.leader_colors]
        assert len(leaders) == 1
        leader = trace.machines[leaders[0]]
        serves = [d for _s, kind, d in leader.log if kind == "serve"]
        base_colors = sorted({d["color"] for d in serves})
        assert base_colors == [k.compete_span, 2 * k.compete_span]
        # served colors are what the followers started verification from
        followers = sorted(set(net.ids) - set(leaders))
        for f in followers:
            assert trace.machines[f].color >= k.compete_span

    def test_only_standing_leaders_assign(self):
        """Every assignment was sent while its sender held a leader color."""

        def color_at(machine, slot):
            holding = None
            for s, kind, data in machine.log:
                if s > slot:
                    break
                if kind == "colored":
                    holding = data
                elif kind == "resign":
                    holding = None
            return holding

        for seed in range(5):
            net = coloring_net([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)])
            trace, k = run_protocol(net, seed=seed, record=True)
            assigns = 0
            for outcome in trace.outcomes:
                for tx in outcome.transmissions:
                    if isinstance(tx.payload, AssignMsg):
                        assigns += 1
                        held = color_at(trace.machines[tx.sender], outcome.slot)
                        assert held is not None and held < k.leader_colors
            assert assigns > 0

    def test_queued_requests_served_within_leader_windows(self):
        """With the maximal number of requesters queued, each is served at
        most max_degree leader windows after serving starts."""
        net = clique_topology(4, params=NetworkParams.exact(alpha=3.0, c_whp=2.0))
        trace, k = run_protocol(net, seed=3)
        leaders = [v for v in net.ids if trace.machines[v].color < k.leader_colors]
        assert len(leaders) == 1
        leader = trace.machines[leaders[0]]
        colored_at = [s for s, kind, _ in leader.log if kind == "colored"][0]
        serve_open = colored_at + 2 * k.listen_slots
        serves = [(s, d) for s, kind, d in leader.log if kind == "serve"]
        assert len({d["target"] for _s, d in serves}) == net.n - 1
        window = 2 * (net.max_degree * k.slots_leader + k.slots_std)
        for s, _d in serves:
            assert s <= serve_open + window

    def test_forced_resignation_reuses_color(self):
        net = clique_topology(3, params=NetworkParams.exact(alpha=3.0, c_whp=2.0))
        params = net.params
        cap = region_probability_cap(params, net.range_ratio, net.n)
        k = ColoringConstants.derive(params, cap, net.max_degree, net.range_ratio, net.n)
        budget = k.termination_budget(net.longest_chain)

        first_colors = {}

        def snapshot_and_resign(machines, slot):
            for node_id in sorted(machines):
                m = machines[node_id]
                if m.phase == "colored" and m.color is not None and m.color >= k.leader_colors:
                    first_colors[node_id] = m.color
                    m.force_resign(slot)
                    return

        trace = run_simulation(
            net,
            lambda n: ColoringMachine(n, k),
            max_slots=4 * budget,
            seed=2,
            scripted=(budget, snapshot_and_resign),
        )
        assert first_colors, "script found no colored non-leader"
        (victim, old_color), = first_colors.items()
        machine = trace.machines[victim]
        assert machine.resigned_count == 1
        assert machine.color == old_color  # re-requested and got the same one


class TestMis:
    def test_isolated_node_joins(self):
        net = coloring_net([Node(0, 0.0, 0.0, 8.0)])
        trace, _ = run_protocol(net, seed=0, mis=True)
        assert trace.machines[0].color == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_pair_exactly_one_member(self, seed):
        net = coloring_net([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)])
        trace, _ = run_protocol(net, seed=seed, mis=True)
        members = [v for v in net.ids if trace.machines[v].color == 0]
        assert len(members) == 1

    def test_dominating_center_decides_first(self):
        nodes = [
            Node(0, 0.0, 0.0, 8.0),     # strong center
            Node(1, 1.2, 0.0, 1.0),     # weak leaves, unreachable back
            Node(2, -1.2, 0.0, 1.0),
        ]
        net = coloring_net(nodes)
        assert net.out_indices(0).tolist() == [1, 2]
        assert net.in_indices(0).tolist() == []
        for seed in range(5):
            trace, _ = run_protocol(net, seed=seed, mis=True)
            assert trace.machines[0].color == 0
            assert trace.machines[1].color == 1
            assert trace.machines[2].color == 1
            members = {v: trace.machines[v].color == 0 for v in net.ids}
            assert validate_mis(net, members).ok


class TestValidators:
    def test_equal_colors_on_edge_invalid(self, exact_params):
        net = coloring_net([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)])
        k = make_constants()
        verdict = validate_coloring(net, {0: 7, 1: 7}, k)
        assert not verdict.valid

    def test_four_cycle_two_coloring_valid(self):
        # unit square, diagonals out of range
        power = 2 * 1.2**3
        nodes = [
            Node(0, 0.0, 0.0, power),
            Node(1, 1.0, 0.0, power),
            Node(2, 1.0, 1.0, power),
            Node(3, 0.0, 1.0, power),
        ]
        net = coloring_net(nodes)
        assert net.out_indices(0).tolist() == [1, 3]
        k = make_constants()
        verdict = validate_coloring(net, {0: 0, 1: 1, 2: 0, 3: 1}, k)
        assert verdict.valid and verdict.distinct_colors == 2

    def test_uncolored_node_is_incomplete(self):
        net = coloring_net([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)])
        k = make_constants()
        verdict = validate_coloring(net, {0: 1, 1: None}, k)
        assert not verdict.complete and not verdict.ok

    def test_problems_name_nodes_by_id(self):
        # ids 9 and 4 sit at indices 0 and 1: problems name ids, in index order
        net = coloring_net([Node(9, 0.0, 0.0, 8.0), Node(4, 1.0, 0.0, 8.0)])
        verdict = validate_coloring(net, {9: 0, 4: 0}, make_constants())
        assert verdict.problems == [
            "link 9->4 joins equal colors 0",
            "link 4->9 joins equal colors 0",
            "bidirectional leaders 9, 4",
        ]
        verdict = validate_mis(net, {9: True, 4: True})
        assert verdict.problems == ["linked members 9, 4", "linked members 4, 9"]
        apart = coloring_net([Node(9, 0.0, 0.0, 8.0), Node(4, 30.0, 0.0, 8.0)])
        assert validate_mis(apart, {9: False, 4: True}).problems == [
            "non-member 9 hears no member"
        ]

    def test_single_member_mis_valid(self):
        net = coloring_net([Node(0, 0.0, 0.0, 8.0)])
        assert validate_mis(net, {0: True}).ok

    def test_linked_members_invalid(self):
        net = coloring_net([Node(0, 0.0, 0.0, 8.0), Node(1, 1.0, 0.0, 8.0)])
        verdict = validate_mis(net, {0: True, 1: True})
        assert not verdict.independent

    def test_uncovered_non_member_invalid(self):
        net = coloring_net([Node(0, 0.0, 0.0, 8.0), Node(1, 30.0, 0.0, 8.0)])
        verdict = validate_mis(net, {0: True, 1: False})
        assert not verdict.dominating

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_mis_validator_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        net = random_small_network(rng, 8, NetworkParams.exact(alpha=3.0))
        members = {v: bool(rng.integers(0, 2)) for v in net.ids}
        verdict = validate_mis(net, members)
        independent, dominating = brute_mis_verdict(
            net, {v for v, m in members.items() if m}
        )
        assert verdict.independent == independent
        assert verdict.dominating == dominating


def clusters(sizes, power=8.0):
    """Equal-power clusters of the given sizes, each on a circle of radius
    0.1 r around (0, 0), (1.5 r, 0), (-1.5 r, 0), ... for the broadcasting
    range r: a cluster's nodes are within one range of each other, the
    centre cluster's within two of the others'."""
    params = NetworkParams.exact(alpha=3.0, c_whp=2.0)
    r = broadcast_range(power, params)
    centres = [0.0, 1.5 * r, -1.5 * r]
    nodes = []
    for centre, size in zip(centres, sizes):
        for j in range(size):
            angle = 2.0 * math.pi * j / size
            nodes.append(Node(len(nodes), centre + 0.1 * r * math.cos(angle),
                              0.1 * r * math.sin(angle), power))
    return build_network(nodes, params)


class TestLeaderDensity:
    """`_leader_density_ok`, one batched radius query, against the scan of
    one query per leader."""

    @pytest.mark.parametrize("leaders, ok", [(10, True), (11, False)])
    def test_leaders_of_a_clique(self, leaders, ok):
        """Ratio 1: at most 9 other leaders within one range."""
        net = clique_topology(12, params=NetworkParams.exact(alpha=3.0, c_whp=2.0))
        k = make_constants()
        assert net.range_ratio == 1.0
        colors = {v: v % k.leader_colors if v < leaders else k.leader_colors + v
                  for v in net.ids}
        colors[11] = None  # uncolored nodes are no leaders
        assert _leader_density_ok(net, colors, k) is ok
        assert brute_leader_density_ok(net, colors, k.leader_colors) is ok

    @pytest.mark.parametrize("side, ok", [(5, True), (6, False)])
    def test_leaders_within_two_ranges(self, side, ok):
        """Ratio 1: at most 19 other leaders within two ranges; a centre
        leader has 9 within one range and 2 * side within two."""
        net = clusters([10, side, side])
        k = make_constants()
        assert net.range_ratio == 1.0
        colors = dict.fromkeys(net.ids, 0)  # every node a leader
        assert _leader_density_ok(net, colors, k) is ok
        assert brute_leader_density_ok(net, colors, k.leader_colors) is ok

    @given(seed=st.integers(0, 5000), n=st.sampled_from([6, 30, 150]))
    @settings(max_examples=40, deadline=None)
    def test_matches_one_query_per_leader(self, seed, n):
        """Dense random placements, both below and above the all-pairs
        size of `pairs_within`, with a random share of leaders."""
        rng = np.random.default_rng(seed)
        side = 0.3 * math.sqrt(n)
        nodes = [Node(i, float(rng.uniform(0, side)), float(rng.uniform(0, side)),
                      float(rng.uniform(1.0, 2.0))) for i in range(n)]
        net = build_network(nodes, NetworkParams.exact(alpha=3.0, c_whp=2.0))
        k = make_constants()
        share = rng.uniform(0.0, 1.0)
        colors = {v: None if rng.uniform() < 0.1 else
                  int(rng.integers(0, k.leader_colors)) if rng.uniform() < share else
                  k.leader_colors for v in net.ids}
        assert _leader_density_ok(net, colors, k) == brute_leader_density_ok(
            net, colors, k.leader_colors
        )
