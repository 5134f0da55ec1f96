import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrsim.engine import (
    ProtocolMachine,
    TraceConfig,
    Transmission,
    _generator,
    _ledger,
    _seed_words,
    resolve_slot,
    run_simulation,
)
from sinrsim.errors import ProtocolViolationError, SimulationAbort
from sinrsim.model import NetworkParams, Node, build_network

from .conftest import (
    kernel_receivers,
    pair_network,
    random_small_network,
    reference_receivers,
)


def sinr_params(alpha=2.0, beta=2.0, noise=1.0):
    return NetworkParams.exact(alpha=alpha, beta=beta, noise=noise, delta=2.0)


def triangle(params, *powers):
    nodes = [
        Node(0, 0.0, 0.0, powers[0]),
        Node(1, 1.0, 0.0, powers[1]),
        Node(2, 0.0, 10.0, powers[2]),
    ]
    return build_network(nodes, params)


class TestResolveSlot:
    def test_clear_channel(self):
        net = triangle(sinr_params(), 10.0, 1.0, 10.0)
        # signal 10/1 over noise 1 -> 10 >= 2
        assert reference_receivers(net, [[(0, 10.0)]]) == [[1]]

    def test_one_distant_interferer(self):
        net = triangle(sinr_params(), 10.0, 1.0, 10.0)
        # interference 10/10^2 = 0.1; 10 >= 2 * 1.1
        assert reference_receivers(net, [[(0, 10.0), (2, 10.0)]]) == [[1], []]

    def test_too_weak_against_noise(self):
        net = triangle(sinr_params(), 1.0, 1.0, 10.0)
        # 1/1 over noise 1 -> 1 < 2
        assert reference_receivers(net, [[(0, 1.0)]]) == [[]]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_interference_is_monotone(self, data):
        """Adding an interferer can only break a reception, never create one."""
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        net = random_small_network(rng, 6, sinr_params(alpha=3.0, beta=1.0))
        txs = [(i, float(net.powers[i])) for i in (0, 3)]
        before = 1 in reference_receivers(net, [txs])[0]
        after = 1 in reference_receivers(net, [txs + [(2, float(net.powers[2]))]])[0]
        assert before or not after

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


def settled(net, awake, txs):
    """Step 8 through `_ledger` for slot 7 of `net`, with the nodes in
    `awake` awake in it and the others asleep, alternately yet to wake and
    departed in slot 7 or before: the slot's transmissions `txs` (node
    index, power, payload) settled.  Returns the network with those wake
    and sleep slots and the slot's recorded outcome.  Some awake nodes
    wake in slot 7 or leave in slot 8, on the edges of the window in which
    all are awake."""
    on = set(awake)
    nodes = []
    for k, node in enumerate(net.nodes):
        if k in on:
            wake, sleep = (7 if k % 3 == 0 else 0), (8 if k % 4 == 0 else None)
        elif k % 2:
            wake, sleep = 8 + k, None
        else:
            wake, sleep = 0, 7 - k % 7
        nodes.append(dataclasses.replace(node, wake_slot=wake, sleep_slot=sleep))
    slept = build_network(nodes, net.params)
    assert [slept.awake_at(v, 7) for v in net.ids] == [k in on for k in range(net.n)]
    settle, _tally, finish = _ledger(slept, bytearray(net.n), TraceConfig(record_outcomes=True))
    settle(7, txs, {})
    (outcome,) = finish(0, 8, True, [], [0] * net.n).outcomes
    return slept, outcome


def settle_slot(net, awake, txs):
    """The receivers of each transmission of the slot `settled` settles,
    as node indices in listener order."""
    _slept, outcome = settled(net, awake, txs)
    index = {v: i for i, v in enumerate(net.ids)}
    return [[index[l] for l, tx in outcome.receptions if tx.sender == net.ids[i]]
            for i, _power, _payload in txs]


def clustered_network(rng, n, far, params):
    """`random_small_network` with `far` more nodes, each beyond reach of
    the cluster and of each other."""
    base = random_small_network(rng, n, params)
    side = math.sqrt(n) * 1.6
    nodes = [*base.nodes] + [
        Node(n + j, side * (6.0 + 5.0 * j), side * float(rng.uniform(0, 1)),
             float(rng.uniform(1.0, 8.0)))
        for j in range(far)
    ]
    return build_network(nodes, params)


def random_slot(rng, net, k):
    """k distinct senders in index order, at powers off the node powers,
    as variable power sends."""
    senders = sorted(rng.choice(net.n, size=k, replace=False).tolist())
    return [(i, float(net.powers[i] * rng.uniform(0.5, 1.5))) for i in senders]


class TestFastPathEquivalence:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_dense_oracle(self, data):
        """The kernel's receiver lists equal `resolve_slot`'s, order
        included, for 2 to 24 senders, some far outside the others' reach,
        at powers off the node powers; step 8 drops the sleepers."""
        seed = data.draw(st.integers(0, 100_000))
        rng = np.random.default_rng(seed)
        alpha = data.draw(st.sampled_from([2.5, 3.0, 4.0]))
        beta = data.draw(st.sampled_from([1.0, 1.5]))
        net = clustered_network(rng, data.draw(st.integers(25, 70)),
                                data.draw(st.integers(0, 4)), sinr_params(alpha=alpha, beta=beta))
        txs = random_slot(rng, net, data.draw(st.integers(2, 24)))
        expected = reference_receivers(net, [txs])
        assert kernel_receivers(net, [txs]) == expected
        awake = {i for i in range(net.n) if rng.random() < 0.8} | {i for i, _ in txs}
        settled = settle_slot(net, sorted(awake), [(i, power, None) for i, power in txs])
        assert settled == [[l for l in rx if l in awake] for rx in expected]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_slots_decided_together_as_one_at_a_time(self, data):
        """Several slots in one call, apart in the flat lists as the
        schedule holds them, give each slot's receivers as a call of its
        own does; a node may send in one slot and listen in another."""
        rng = np.random.default_rng(data.draw(st.integers(0, 100_000)))
        net = clustered_network(rng, data.draw(st.integers(10, 50)),
                                data.draw(st.integers(0, 2)), sinr_params(alpha=3.0, beta=1.0))
        slots = [random_slot(rng, net, int(rng.integers(2, min(8, net.n) + 1)))
                 for _ in range(data.draw(st.integers(1, 12)))]
        alone = [rx for txs in slots for rx in kernel_receivers(net, [txs])]
        assert kernel_receivers(net, slots) == alone
        assert kernel_receivers(net, slots, gap=data.draw(st.integers(1, 3))) == alone
        assert alone == reference_receivers(net, slots)

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

        # one sender takes step 8's lone path, several its kernel
        fast = settle_slot(net, [*senders, *listeners], [(i, powers[i], None) for i in senders])
        assert len(fast) == len(txs)
        assert all(rx == sorted(rx) for rx in fast)
        fast_pairs = {(net.ids[l], txs[t].sender) for t, rx in enumerate(fast) for l in rx}
        awake = {net.ids[i] for i in [*senders, *listeners]}
        reference = resolve_slot(net, txs, awake=awake)
        assert fast_pairs == {(l, tx.sender) for l, tx in reference.receptions}
        # the boundary listener hears node 0 alone, through step 8's exact
        # lone-reach path, and not beside a far sender, whose interference
        # the kernel adds, as in the reference
        wide = build_network([*nodes, Node(n, x0 + 1000.0, y0, 1.0)], params)
        for slot_txs, heard in (([(0, 8.0, None)], [n - 1]),
                                ([(0, 8.0, None), (n, 1.0, None)], [])):
            on = {n - 1, *(i for i, _, _ in slot_txs)}
            reference = resolve_slot(
                wide, [Transmission(i, 7, p, None) for i, p, _ in slot_txs], awake=on
            )
            assert [l for l, tx in reference.receptions if tx.sender == 0] == heard
            assert settle_slot(wide, sorted(on), slot_txs)[0] == heard


def decodes(gain, beta, noise):
    """The SINR rule for a transmission alone in its slot, in the engine's
    float form: ``g >= beta * (total - g)``, the total being g plus the
    noise."""
    return gain >= beta * ((gain + noise) - gain)


def floats_around(x, k):
    """The k floats below `x`, `x` and the k floats above it, ascending."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


class TestTies:
    """Exact SINR ties, where the floating-point form of the decision rule
    decides: step 8's lone path (`settle` with one transmission), the
    kernel (`_decide`) and `resolve_slot` must decide them alike, bit for
    bit."""

    BETA, NOISE, ALPHA = 1.1, 1.0, 3.0

    @pytest.mark.parametrize("beta,noise,other", [
        (1.1, 1.0, lambda g, beta, noise: g >= beta * noise),
        (1.5, 0.7, lambda g, beta, noise: g / ((g + noise) - g) >= beta),
    ], ids=["floor", "quotient"])
    def test_lone_tie_where_another_form_differs(self, beta, noise, other):
        # a gain that the rule's float form and another form of the same
        # test, against the beta * noise floor or as a quotient, decide apart
        gain = next(g for g in floats_around(beta * noise, 64)
                    if other(g, beta, noise) != decodes(g, beta, noise))
        # a listener 2 away: its loss 2 ** 3 is exact, so power 8g gives gain g
        params = sinr_params(alpha=self.ALPHA, beta=beta, noise=noise)
        net = build_network([Node(0, 0.0, 0.0, 8.0 * gain), Node(1, 2.0, 0.0, 1.0)], params)
        assert 8.0 * gain / (net.distance_row(0) ** self.ALPHA)[1] == gain
        heard = [1] if decodes(gain, beta, noise) else []
        assert settle_slot(net, [0, 1], [(0, 8.0 * gain, None)]) == [heard]
        assert kernel_receivers(net, [[(0, 8.0 * gain)]]) == [heard]
        assert reference_receivers(net, [[(0, 8.0 * gain)]]) == [heard]

    def test_tie_where_scalar_and_array_power_differ(self):
        beta, noise, alpha = self.BETA, self.NOISE, self.ALPHA
        # a listener distance whose path loss differs between the array
        # ``**`` and a scalar one, and a power at which that last ulp
        # decides the reception
        xs = 1.0 + np.arange(1, 1000) / 997.0
        d = np.sqrt(xs * xs)
        loss = d**alpha
        x = next(x for x, dk, lk in zip(xs.tolist(), d.tolist(), loss.tolist()) if dk**alpha != lk)
        net = build_network(
            [Node(0, 0.0, 0.0, 1.0), Node(1, x, 0.0, 1.0), Node(2, 1e7, 0.0, 1.0)],
            sinr_params(alpha=alpha, beta=beta, noise=noise),
        )
        array_loss = float((net.distance_row(0) ** alpha)[1])
        scalar_loss = net.dist(0, 1) ** alpha
        assert array_loss != scalar_loss
        power = next(p for p in floats_around(beta * noise * array_loss, 16)
                     if decodes(p / array_loss, beta, noise) != decodes(p / scalar_loss, beta, noise))
        heard = [1] if decodes(power / array_loss, beta, noise) else []
        assert settle_slot(net, [0, 1, 2], [(0, power, None)]) == [heard]
        assert reference_receivers(net, [[(0, power)]]) == [heard]
        # the same slot beside a sender 10**7 away, whose gain at the
        # listener is below half an ulp of the noise: the kernel decides it
        far = 1.0 / float((net.distance_row(2) ** alpha)[1])
        assert far < math.ulp(noise) / 2
        txs = [(0, power), (2, 1.0)]
        assert kernel_receivers(net, [txs]) == [heard, []]
        assert reference_receivers(net, [txs]) == [heard, []]
        assert settle_slot(net, [0, 1, 2], [(i, p, None) for i, p in txs]) == [heard, []]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_settle_equals_resolve_slot_at_ties(self, data):
        """A sender at the power whose array gain at a listener is beta *
        noise, times 1 and 1 +- 2**-52, alone or beside up to two other
        senders, some nodes asleep, under several betas and noises:
        `settle`'s outcome equals `resolve_slot`'s."""
        rng = np.random.default_rng(data.draw(st.integers(0, 100_000)))
        beta = data.draw(st.sampled_from([1.0, 1.1, 1.5]))
        noise = data.draw(st.sampled_from([1.0, 0.3, 2.5]))
        net = random_small_network(rng, data.draw(st.integers(3, 12)),
                                   sinr_params(alpha=self.ALPHA, beta=beta, noise=noise))
        sender, listener, *rest = rng.permutation(net.n).tolist()
        tie = beta * noise * float((net.distance_row(sender) ** self.ALPHA)[listener])
        others = [(i, float(net.powers[i] * rng.uniform(0.5, 1.5)), None)
                  for i in rest[:data.draw(st.integers(0, 2))]]
        awake = {i for i in rest if rng.random() < 0.8} | {sender, listener}
        awake |= {i for i, _, _ in others}
        for factor in (1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-52):
            txs = sorted([(sender, tie * factor, None), *others])
            slept, outcome = settled(net, sorted(awake), txs)
            assert outcome == resolve_slot(slept, list(outcome.transmissions))


def numpy_state(seed, node_id):
    return np.random.SeedSequence((seed, node_id)).generate_state(4, np.uint64)


def numpy_stream(seed, node_id):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, node_id))))


class TestSeedWords:
    """The batch seeding against NumPy's own SeedSequence, its oracle."""

    # up to 2**100: (seed, id) has 2 to 8 words, so some mix in words beyond the pool's 4
    @given(seed=st.integers(0, 2**100 - 1), ids=st.lists(st.integers(0, 2**100 - 1), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_seed_sequence(self, seed, ids):
        words = _seed_words(seed, ids)
        assert words.dtype == np.uint64 and words.shape == (len(ids), 4)
        for row, v in zip(words, ids):
            assert np.array_equal(row, numpy_state(seed, v))
            assert np.array_equal(_generator(row).random(20), numpy_stream(seed, v).random(20))

    def test_edge_ids(self):
        ids = [0, 2**32 - 1, 2**32, 5]
        for seed in (0, 2**32 - 1, 2**32):
            words = _seed_words(seed, ids)
            for row, v in zip(words, ids):
                assert np.array_equal(row, numpy_state(seed, v))
            assert np.array_equal(_generator(_seed_words(seed, [2**32])[0]).random(20),
                                  numpy_stream(seed, 2**32).random(20))

    def test_no_ids(self):
        words = _seed_words(3, [])
        assert words.shape == (0, 4) and words.dtype == np.uint64

    def test_numpy_integers_and_bools_read_as_ints(self):
        words = _seed_words(np.int64(4), [np.uint64(9), True])
        assert np.array_equal(words[0], numpy_state(4, 9))
        assert np.array_equal(words[1], numpy_state(4, 1))

    @pytest.mark.parametrize("seed,ids,message", [
        (-1, [0], "seed must be >= 0, got -1"),
        (0, [3, -2, -5], "node id must be >= 0, got -5"),
    ])
    def test_refuses_negative_values(self, seed, ids, message):
        with pytest.raises(ValueError, match=message):
            _seed_words(seed, ids)

    def test_refuses_non_integers(self):
        with pytest.raises(TypeError):
            _seed_words(0, [1.5])

    def test_state_is_only_the_seed_words(self):
        state = _generator(_seed_words(1, [2])[0]).bit_generator.seed_seq
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            state.generate_state(8, np.uint32)


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
    @pytest.mark.parametrize("kwargs,message", [
        ({"max_slots": 0}, "max_slots must be an integer >= 1, got 0"),
        ({"max_slots": True}, "max_slots must be an integer >= 1, got True"),
        ({"max_slots": 20.5}, "max_slots must be an integer >= 1, got 20.5"),
        ({"max_slots": math.inf}, "max_slots must be an integer >= 1, got inf"),
        ({"max_slots": math.nan}, "max_slots must be an integer >= 1, got nan"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": True}, "seed must be an integer >= 0, got True"),
        ({"seed": 1.0}, "seed must be an integer >= 0, got 1.0"),
    ])
    def test_refuses_bad_slot_counts_and_seeds(self, exact_params, kwargs, message):
        net = pair_network(exact_params)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_simulation(net, ChatterMachine, **{"max_slots": 5, "seed": 0, **kwargs})

    def test_numpy_integers_are_counts(self, exact_params):
        net = pair_network(exact_params)

        def run(max_slots, seed):
            return run_simulation(net, lambda n: ChatterMachine(n, 0.3), max_slots, seed)

        a, b = run(np.int64(300), np.uint32(7)), run(300, 7)
        assert (a.tx_count, a.first_rx, a.n_slots) == (b.tx_count, b.first_rx, b.n_slots)

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

    @pytest.mark.parametrize("limit", [-1, 2.5, "3", True])
    def test_outcome_limit_must_be_a_count(self, limit):
        with pytest.raises(ValueError, match="outcome_limit"):
            TraceConfig(record_outcomes=True, outcome_limit=limit)

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_record_outcomes_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match=f"record_outcomes must be a bool, got {flag!r}"):
            TraceConfig(record_outcomes=flag)

    def test_outcome_limit_zero_records_nothing(self, exact_params):
        trace = run_simulation(
            pair_network(exact_params, d=1.0),
            lambda node: ChatterMachine(node, prob=1.0),
            max_slots=5,
            seed=0,
            trace=TraceConfig(record_outcomes=True, outcome_limit=np.int64(0)),
        )
        assert trace.outcomes == [] and trace.outcomes_truncated

    def test_sleeping_node_stops_participating(self, exact_params):
        net = build_network(
            [Node(0, 0, 0, 8.0, sleep_slot=10), Node(1, 1, 0, 8.0)], exact_params
        )

        def factory(node):
            return ChatterMachine(node, prob=1.0 if node.id == 0 else 0.0)

        trace = run_simulation(net, factory, max_slots=50, seed=0)
        assert trace.tx_count[0] == 10  # slots 0..9 only
        assert all(slot <= 10 for slot, _ in trace.machines[1].heard)
