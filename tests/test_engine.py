import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrsim.engine import (
    ProtocolMachine,
    TraceConfig,
    Transmission,
    _Core,
    resolve_slot,
    run_simulation,
    sinr_check,
)
from sinrsim.errors import ProtocolViolationError, SimulationAbort
from sinrsim.model import NetworkParams, Node, build_network

from .conftest import pair_network, random_small_network


def sinr_params(alpha=2.0, beta=2.0, noise=1.0):
    return NetworkParams.exact(alpha=alpha, beta=beta, noise=noise, delta=2.0)


def triangle(params, *powers):
    nodes = [
        Node(0, 0.0, 0.0, powers[0]),
        Node(1, 1.0, 0.0, powers[1]),
        Node(2, 0.0, 10.0, powers[2]),
    ]
    return build_network(nodes, params)


class TestSinrCheck:
    def test_clear_channel(self):
        net = triangle(sinr_params(), 10.0, 1.0, 10.0)
        # signal 10/1 over noise 1 -> 10 >= 2
        assert sinr_check(net, 0, 1)

    def test_one_distant_interferer(self):
        net = triangle(sinr_params(), 10.0, 1.0, 10.0)
        # interference 10/10^2 = 0.1; 10 / 1.1 = 9.09 >= 2
        assert sinr_check(net, 0, 1, [(2, 10.0)])

    def test_too_weak_against_noise(self):
        net = triangle(sinr_params(), 1.0, 1.0, 10.0)
        # 1/1 over noise 1 -> 1 < 2
        assert not sinr_check(net, 0, 1)

    def test_self_listening_rejected(self):
        net = triangle(sinr_params(), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sinr_check(net, 0, 0)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_interference_is_monotone(self, data):
        """Adding an interferer can only break a reception, never create one."""
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        net = random_small_network(rng, 6, sinr_params(alpha=3.0, beta=1.0))
        sender, listener, extra = 0, 1, 2
        others = [(3, float(net.node(3).power))]
        before = sinr_check(net, sender, listener, others)
        after = sinr_check(net, sender, listener, others + [(extra, float(net.node(extra).power))])
        assert before or not after


class TestResolveSlot:
    def test_empty_slot(self, exact_params):
        net = pair_network(exact_params)
        outcome = resolve_slot(net, [])
        assert outcome.receptions == ()

    def test_lone_in_range_transmission_is_received(self, exact_params):
        net = pair_network(exact_params, d=1.0)
        # margin guarantee: within broadcast range a lone transmission
        # always clears the true-parameter SINR threshold
        assert net.dist(0, 1) <= net.r_bcast[0]
        out = resolve_slot(net, [Transmission(0, 5, 8.0, "x")])
        assert [(l, tx.sender) for l, tx in out.receptions] == [(1, 0)]

    def test_mutual_transmitters_hear_nothing(self, exact_params):
        net = pair_network(exact_params)
        out = resolve_slot(
            net,
            [Transmission(0, 3, 8.0, "a"), Transmission(1, 3, 8.0, "b")],
        )
        assert out.receptions == ()

    def test_sleeping_sender_rejected(self, exact_params):
        net = build_network(
            [Node(0, 0, 0, 8.0, wake_slot=10), Node(1, 1, 0, 8.0)], exact_params
        )
        with pytest.raises(ProtocolViolationError):
            resolve_slot(net, [Transmission(0, 3, 8.0, "x")])

    def test_double_transmission_rejected(self, exact_params):
        net = pair_network(exact_params)
        with pytest.raises(ProtocolViolationError):
            resolve_slot(
                net,
                [Transmission(0, 3, 8.0, "a"), Transmission(0, 3, 8.0, "b")],
            )

    def test_mixed_slots_rejected(self, exact_params):
        net = pair_network(exact_params)
        with pytest.raises(ValueError):
            resolve_slot(
                net,
                [Transmission(0, 3, 8.0, "a"), Transmission(1, 4, 8.0, "b")],
            )


def array_resolve(network, awake, sending, txs):
    """The array formulation of `_Core.resolve` for several transmissions,
    kept as its oracle: candidates gathered with `np.concatenate`, a dense
    block of ``dist ** alpha`` from array distances, and the denominators
    summed with `np.add.accumulate`, which adds in transmission order."""
    params = network.params
    received = [[] for _ in txs]
    cand = np.concatenate(
        [np.array(network.lone_reach(idx, power)[1], dtype=np.intp) for idx, power, _ in txs]
    )
    cand.sort()
    keep = np.frombuffer(awake, dtype=np.bool_)[cand] & ~np.frombuffer(sending, dtype=np.bool_)[cand]
    keep[1:] &= cand[1:] != cand[:-1]  # each listener once
    cand = cand[keep]
    if cand.size == 0:
        return received
    senders = [idx for idx, _, _ in txs]
    dx = network.positions[senders, 0, None] - network.positions[cand, 0]
    dy = network.positions[senders, 1, None] - network.positions[cand, 1]
    gains = np.array([power for _, power, _ in txs])[:, None] / (
        np.sqrt(dx * dx + dy * dy) ** params.alpha_true
    )
    total = np.add.accumulate(gains, axis=0)[-1] + params.noise_true
    hits = gains >= params.beta_true * (total - gains)
    single = np.count_nonzero(hits, axis=0) == 1
    winners = hits[:, single].argmax(axis=0)
    for l, t in zip(cand[single].tolist(), winners.tolist()):
        received[t].append(l)
    return received


class TestFastPathEquivalence:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_core_resolver_matches_array_oracle(self, data):
        """Receiver lists equal to the array formulation's, order included,
        for 2 to 24 senders, some far outside the others' reach, at powers
        off the node powers and with random sleepers."""
        seed = data.draw(st.integers(0, 100_000))
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(25, 70))
        far = data.draw(st.integers(0, 4))
        alpha = data.draw(st.sampled_from([2.5, 3.0, 4.0]))
        beta = data.draw(st.sampled_from([1.0, 1.5]))
        params = sinr_params(alpha=alpha, beta=beta)
        base = random_small_network(rng, n, params)
        # far nodes, each beyond reach of the cluster and of each other
        side = math.sqrt(n) * 1.6
        nodes = [*base.nodes] + [
            Node(n + j, side * (6.0 + 5.0 * j), side * float(rng.uniform(0, 1)),
                 float(rng.uniform(1.0, 8.0)))
            for j in range(far)
        ]
        net = build_network(nodes, params)
        k = data.draw(st.integers(2, 24))
        senders = sorted(rng.choice(net.n, size=k, replace=False).tolist())
        powers = [float(net.powers[i] * rng.uniform(0.5, 1.5)) for i in senders]
        core = _Core(net)
        for i in range(net.n):
            core.awake[i] = rng.random() < 0.8
        for i in senders:
            core.awake[i] = True
            core.sending[i] = True
        txs = [(i, power, None) for i, power in zip(senders, powers)]
        received, _ = core.resolve(txs)
        assert [list(rx) for rx in received] == array_resolve(net, core.awake, core.sending, txs)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_core_resolver_matches_reference(self, data):
        seed = data.draw(st.integers(0, 100_000))
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(3, 40))
        params = sinr_params(alpha=3.0, beta=1.0)
        base = random_small_network(rng, n - 1, params)
        # node 0 sits on a dyadic grid point and sends at power 8: the last
        # node, exactly 2 away, lies on its beta*noise reach boundary
        x0 = math.floor(base.nodes[0].x * 64) / 64
        y0 = math.floor(base.nodes[0].y * 64) / 64
        nodes = [Node(0, x0, y0, base.nodes[0].power), *base.nodes[1:]]
        nodes.append(Node(n - 1, x0 + 2.0, y0, float(rng.uniform(1.0, 8.0))))
        net = build_network(nodes, params)
        assert net.dist(0, n - 1) == 2.0

        k = data.draw(st.integers(1, min(6, n - 1)))
        senders = sorted({0, *rng.choice(n - 1, size=k, replace=False).tolist()})
        # per-transmission powers off the node power, as variable power sends
        powers = {i: 8.0 if i == 0 else float(net.powers[i] * rng.uniform(0.5, 1.5))
                  for i in senders}
        txs = [Transmission(net.ids[i], 7, powers[i], f"m{i}") for i in senders]
        # a random part of the other nodes sleeps
        asleep = set(rng.choice(n, size=int(rng.integers(0, n // 3 + 1)), replace=False).tolist())
        listeners = [i for i in range(n) if i not in powers and i not in asleep]

        core = _Core(net)
        for i in [*senders, *listeners]:
            core.awake[i] = True
        for i in senders:
            core.sending[i] = True
        fast, entries = core.resolve([(i, powers[i], None) for i in senders])
        # the network's cached lone-reach entries, one per transmission
        assert all(e is net.lone_reach(i, powers[i]) for e, i in zip(entries, senders, strict=True))
        assert len(fast) == len(txs)
        assert all(rx == sorted(rx) for rx in fast)
        fast_pairs = {(net.ids[l], txs[t].sender) for t, rx in enumerate(fast) for l in rx}
        awake = {net.ids[i] for i in [*senders, *listeners]}
        reference = resolve_slot(net, txs, awake=awake)
        assert fast_pairs == {(l, tx.sender) for l, tx in reference.receptions}
        # alone, node 0 reaches the boundary listener
        lone = _Core(net)
        lone.awake[n - 1] = True
        received, (entry,) = lone.resolve([(0, 8.0, None)])
        assert received == [[n - 1]] and entry is net.lone_reach(0, 8.0)


class ChatterMachine(ProtocolMachine):
    """Transmits with a fixed probability forever; logs receptions."""

    def __init__(self, node, prob=1.0):
        super().__init__(node)
        self.prob = prob
        self.heard: list[tuple[int, int]] = []

    def wake(self, slot):
        self.set_prob(0, self.prob)

    def on_receive(self, slot, sender, payload):
        self.heard.append((slot, sender))

    def on_transmit(self, slot, lane):
        return ("tick", self.node.id), self.node.power


class CrashMachine(ProtocolMachine):
    def wake(self, slot):
        self.set_prob(0, 1.0)

    def on_transmit(self, slot, lane):
        raise RuntimeError("boom")


class TestRunSimulation:
    def test_no_awake_nodes_is_empty(self, exact_params):
        net = build_network(
            [Node(0, 0, 0, 8.0, wake_slot=1000), Node(1, 1, 0, 8.0, wake_slot=1000)],
            exact_params,
        )
        trace = run_simulation(net, ChatterMachine, max_slots=100, seed=0)
        assert trace.eventful_slots == 0
        assert trace.tx_count == {0: 0, 1: 0}

    def test_delivery_is_next_slot(self, exact_params):
        net = pair_network(exact_params, d=1.0)

        def factory(node):
            return ChatterMachine(node, prob=1.0 if node.id == 0 else 0.0)

        trace = run_simulation(net, factory, max_slots=5, seed=1)
        heard = trace.machines[1].heard
        assert heard[0] == (1, 0)  # transmitted at 0, delivered at 1
        assert [slot for slot, _ in heard] == [1, 2, 3, 4]

    def test_deterministic_repeats(self, exact_params):
        rng = np.random.default_rng(0)
        net = random_small_network(rng, 8, exact_params)

        def run():
            return run_simulation(
                net,
                lambda node: ChatterMachine(node, prob=0.2),
                max_slots=400,
                seed=99,
                trace=TraceConfig(record_outcomes=True),
            )

        a, b = run(), run()
        assert a.tx_count == b.tx_count
        assert a.first_rx == b.first_rx
        assert a.outcomes == b.outcomes

    def test_seed_changes_trace(self, exact_params):
        net = pair_network(exact_params)
        t1 = run_simulation(
            net, lambda n: ChatterMachine(n, 0.3), max_slots=300, seed=1
        )
        t2 = run_simulation(
            net, lambda n: ChatterMachine(n, 0.3), max_slots=300, seed=2
        )
        assert t1.tx_count != t2.tx_count

    def test_at_most_one_reception_per_listener_per_slot(self, exact_params):
        rng = np.random.default_rng(4)
        net = random_small_network(rng, 8, exact_params)
        trace = run_simulation(
            net,
            lambda node: ChatterMachine(node, prob=0.4),
            max_slots=500,
            seed=7,
            trace=TraceConfig(record_outcomes=True),
        )
        for outcome in trace.outcomes:
            listeners = [l for l, _tx in outcome.receptions]
            assert len(listeners) == len(set(listeners))
            for l, tx in outcome.receptions:
                assert l != tx.sender

    def test_protocol_exception_is_attributed(self, exact_params):
        net = pair_network(exact_params)
        with pytest.raises(SimulationAbort) as err:
            run_simulation(net, CrashMachine, max_slots=10, seed=0)
        assert err.value.node_id in (0, 1)
        assert err.value.slot == 0

    def test_half_duplex_no_self_reception(self, exact_params):
        net = pair_network(exact_params)
        trace = run_simulation(
            net,
            lambda node: ChatterMachine(node, prob=1.0),
            max_slots=50,
            seed=3,
        )
        # both always transmit: nobody ever receives
        assert trace.machines[0].heard == []
        assert trace.machines[1].heard == []

    def test_geometric_lottery_frequency(self, exact_params):
        net = build_network([Node(0, 0.0, 0.0, 8.0)], exact_params)
        trace = run_simulation(
            net,
            lambda node: ChatterMachine(node, prob=0.25),
            max_slots=100_000,
            seed=12,
        )
        assert trace.tx_count[0] == pytest.approx(25_000, abs=1_000)

    def test_outcome_limit_marks_truncation(self, exact_params):
        net = pair_network(exact_params, d=1.0)

        def run(limit):
            return run_simulation(
                net,
                lambda node: ChatterMachine(node, prob=1.0),
                max_slots=20,
                seed=0,
                trace=TraceConfig(record_outcomes=True, outcome_limit=limit),
            )

        cut = run(5)
        assert len(cut.outcomes) == 5 and cut.outcomes_truncated
        whole = run(None)
        assert len(whole.outcomes) == 20 and not whole.outcomes_truncated

    def test_sleeping_node_stops_participating(self, exact_params):
        net = build_network(
            [Node(0, 0, 0, 8.0, sleep_slot=10), Node(1, 1, 0, 8.0)], exact_params
        )

        def factory(node):
            return ChatterMachine(node, prob=1.0 if node.id == 0 else 0.0)

        trace = run_simulation(net, factory, max_slots=50, seed=0)
        assert trace.tx_count[0] == 10  # slots 0..9 only
        assert all(slot <= 10 for slot, _ in trace.machines[1].heard)
