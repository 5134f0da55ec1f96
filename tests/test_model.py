import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrsim import model
from sinrsim.errors import ModelViolationError
from sinrsim.experiment import halo_pair_count
from sinrsim.model import (
    Network,
    NetworkParams,
    Node,
    broadcast_range,
    build_network,
    max_transmission_range,
    ring_index,
)
from sinrsim.topology import chain_topology, random_topology

from .conftest import (
    brute_longest_chain,
    brute_max_degree,
    brute_halo_pair_count,
    brute_ring_index,
    kernel_receivers,
    pair_network,
    random_small_network,
    reference_network_build,
    reference_receivers,
)


def assert_lone_reach_matches(net, ref, i, power):
    """All four parts of ``net.lone_reach(i, power)`` against the dense
    distances and adjacency of `reference_network_build`: the exact reach,
    by the SINR rule with one sender, the slack superset, the
    out-neighbours and those outside the exact reach."""
    params = net.params
    beta, noise = params.beta_true, params.noise_true
    dist_alpha = ref["distances"][i] ** params.alpha_true
    dist_alpha[i] = math.inf  # a gain of 0 at the sender itself
    signal = power / dist_alpha
    decodes = signal >= beta * ((signal + noise) - signal)
    out_row = ref["adjacency"][i]
    exact, slack, out, missing = net.lone_reach(i, power)
    assert exact == tuple(np.flatnonzero(decodes).tolist())
    assert np.array_equal(slack, np.flatnonzero(signal >= beta * noise * (1.0 - 1e-9)))
    assert out == tuple(np.flatnonzero(out_row).tolist())
    assert missing == tuple(np.flatnonzero(out_row & ~decodes).tolist())


def params_with(**kw):
    defaults = dict(
        alpha_lo=2.0, alpha_hi=2.0, alpha_true=2.0,
        beta_lo=1.0, beta_hi=1.0, beta_true=1.0,
        noise_lo=1.0, noise_hi=1.0, noise_true=1.0,
        delta=2.0, c_whp=2.0,
    )
    defaults.update(kw)
    return NetworkParams(**defaults)


class TestRanges:
    def test_unit_power_gives_unit_range(self):
        p = params_with(noise_lo=2.0, noise_hi=2.0, noise_true=2.0,
                        beta_lo=1.5, beta_hi=1.5, beta_true=1.5)
        assert max_transmission_range(2.0 * 1.5, p) == pytest.approx(1.0)

    def test_square_root_law(self):
        assert max_transmission_range(4.0, params_with()) == pytest.approx(2.0)

    def test_cube_root_law(self):
        p = params_with(alpha_lo=3.0, alpha_hi=3.0, alpha_true=3.0)
        assert max_transmission_range(8.0, p) == pytest.approx(2.0)

    def test_broadcast_range_unit(self):
        p = params_with(delta=2.0)
        assert broadcast_range(2.0, p) == pytest.approx(1.0)

    def test_broadcast_range_with_margin(self):
        assert broadcast_range(8.0, params_with(delta=2.0)) == pytest.approx(2.0)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            max_transmission_range(0.0, params_with())
        with pytest.raises(ValueError):
            broadcast_range(-1.0, params_with())

    @given(power=st.floats(0.01, 1000.0), delta=st.floats(1.01, 8.0))
    def test_broadcast_never_exceeds_transmission_range(self, power, delta):
        p = params_with(delta=delta, alpha_lo=3.0, alpha_hi=3.0, alpha_true=3.0)
        assert broadcast_range(power, p) <= max_transmission_range(power, p)


class TestParamValidation:
    def test_bounds_must_bracket(self):
        with pytest.raises(ValueError):
            params_with(alpha_lo=2.5)

    def test_delta_must_exceed_one(self):
        with pytest.raises(ValueError):
            params_with(delta=1.0)

    def test_beta_at_least_one(self):
        with pytest.raises(ValueError):
            params_with(beta_lo=0.5, beta_true=0.5, beta_hi=0.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delta", math.nan),
            ("alpha_hi", math.inf),
            ("noise_true", math.nan),
            ("c_whp", math.inf),
            ("scale", math.nan),
            ("beta_lo", "1.0"),
            ("scale", True),
        ],
    )
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            params_with(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -0.5, 1.5])
    def test_scale_out_of_range_names_the_value(self, value):
        with pytest.raises(ValueError, match=r"^scale must lie in \(0, 1\], got ") as info:
            NetworkParams.exact(scale=value)
        assert str(info.value).endswith(repr(value))

    def test_exact_rejects_nan_delta(self):
        with pytest.raises(ValueError, match="delta must be a finite number"):
            NetworkParams.exact(alpha=3.0, delta=math.nan)


class TestNodeValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("power", math.nan),
            ("power", math.inf),
            ("x", math.nan),
            ("x", -math.inf),
            ("y", math.nan),
            ("y", math.inf),
        ],
    )
    def test_rejects_non_finite_numbers(self, field, value):
        fields = dict(id=7, x=0.0, y=0.0, power=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"node 7: {field} must be finite"):
            Node(**fields)

    @pytest.mark.parametrize(
        "field, value", [("wake_slot", 2.5), ("wake_slot", 3.0), ("sleep_slot", 10.5)]
    )
    def test_rejects_non_integral_slots(self, field, value):
        with pytest.raises(ValueError, match=f"node 7: {field} must be an integer"):
            Node(7, 0.0, 0.0, 1.0, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("x", "0.0"), ("y", None), ("power", True), ("x", [1.0]), ("wake_slot", True),
         ("wake_slot", None)],
    )
    def test_rejects_non_numbers_and_bools(self, field, value):
        fields = dict(id=7, x=0.0, y=0.0, power=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"node 7: {field} must be an? ") as info:
            Node(**fields)
        assert repr(value) in str(info.value)

    @pytest.mark.parametrize("value", [[2], "2", 2.0, True, None])
    def test_rejects_a_non_integral_id(self, value):
        with pytest.raises(ValueError, match=r": id must be an integer, got ") as info:
            Node(value, 0.0, 0.0, 1.0)
        assert repr(value) in str(info.value)

    @pytest.mark.parametrize("value", [-1, np.int64(-7)])
    def test_rejects_a_negative_id(self, value):
        with pytest.raises(ValueError, match=rf"^node {value}: id must be >= 0$"):
            Node(value, 0.0, 0.0, 1.0)

    def test_numpy_numbers_pass(self):
        node = Node(np.int64(3), np.float64(1.5), np.float32(2.0), np.int32(4), np.int64(2))
        assert (node.id, node.x, node.y, node.power, node.wake_slot) == (3, 1.5, 2.0, 4, 2)


class TestBuildNetwork:
    def test_lone_reach_is_cached_and_read_only(self, exact_params):
        net = random_small_network(np.random.default_rng(5), 6, exact_params)
        entry = net.lone_reach(2, 4.0)
        assert net.lone_reach(2, 4.0) is entry
        exact, slack, out, missing = entry
        assert all(type(part) is tuple for part in (exact, slack, out, missing))
        assert 2 not in exact and set(exact) <= set(slack)
        assert_lone_reach_matches(net, reference_network_build(net), 2, 4.0)
        with pytest.raises(ValueError):
            net.out_indices(2)[...] = 0

    def test_symmetric_pair(self, exact_params):
        net = pair_network(exact_params, d=1.0)
        assert net.out_indices(0).tolist() == [1]
        assert net.out_indices(1).tolist() == [0]
        assert net.range_ratio == pytest.approx(1.0)
        assert net.longest_chain == 0

    def test_one_way_pair(self, exact_params):
        # strong node reaches weak one at 1.2; weak replies die at 0.794
        net = pair_network(exact_params, d=1.2, p0=8.0, p1=1.0)
        assert net.out_indices(0).tolist() == [1]
        assert net.out_indices(1).tolist() == []
        assert net.longest_chain == 1

    def test_max_degree_matches_brute_force(self, exact_params):
        rng = np.random.default_rng(42)
        for _ in range(10):
            net = random_small_network(rng, 10, exact_params)
            assert net.max_degree == brute_max_degree(net)

    def test_duplicate_id_rejected(self, exact_params):
        with pytest.raises(ValueError, match="duplicate"):
            build_network(
                [Node(0, 0, 0, 1.0), Node(0, 1, 0, 1.0)], exact_params
            )

    def test_empty_rejected(self, exact_params):
        with pytest.raises(ValueError):
            build_network([], exact_params)

    def test_coincident_positions_rejected(self, exact_params):
        with pytest.raises(ValueError, match="coincident|share position"):
            build_network(
                [Node(0, 1.0, 2.0, 1.0), Node(1, 1.0, 2.0, 1.0)], exact_params
            )


def _scattered_nodes(seed: int, n: int, ids=None) -> list[Node]:
    """Nodes around the origin, so coordinates and differences of both
    signs occur; powers spread over 1..64 for many one-way links."""
    rng = np.random.default_rng(seed)
    side = 1.5 * math.sqrt(n)
    return [
        Node(
            id=i if ids is None else ids[i],
            x=float(rng.uniform(-side, side / 3)),
            y=float(rng.uniform(-side / 2, side / 2)),
            power=float(rng.uniform(1.0, 64.0)),
        )
        for i in range(n)
    ]


def bracketed(noise_true: float) -> NetworkParams:
    """alpha 3 and beta 1 exactly; noise known only to lie in
    [noise_true, 1], so the lone reach at the true noise exceeds the
    maximum transmission range by (1 / noise_true) ** (1/3)."""
    return NetworkParams(
        alpha_lo=3.0, alpha_hi=3.0, alpha_true=3.0,
        beta_lo=1.0, beta_hi=1.0, beta_true=1.0,
        noise_lo=noise_true, noise_hi=1.0, noise_true=noise_true,
        delta=2.0, c_whp=2.0,
    )


def assert_kernel_losses_match(net: Network, distances: np.ndarray) -> None:
    """Each node i's path loss to the next node l inside the engine's
    kernel is the dense entry L = ``distances ** alpha`` bit for bit: i
    sends at 2L and the node after l at its own loss to l, so under unit
    noise l's SINR for i is exactly 2 / (1 + 1).  Beta 1 decodes that tie
    and beta 1 + 2**-51 does not, and a last-ulp error in L flips one of
    the two, which no receiver comparison at drawn powers would catch."""
    n = net.n
    if n < 3:
        return
    alpha = net.params.alpha_true
    loss = distances ** alpha
    slots = [
        [(i, float(2.0 * loss[i, (i + 1) % n])),
         ((i + 2) % n, float(loss[(i + 2) % n, (i + 1) % n]))]
        for i in range(n)
    ]
    for beta, decodes in ((1.0, True), (1.0 + 2.0**-51, False)):
        tie = build_network(net.nodes, NetworkParams(
            alpha_lo=alpha, alpha_hi=alpha, alpha_true=alpha, beta_lo=1.0, beta_hi=beta,
            beta_true=beta, noise_lo=1.0, noise_hi=1.0, noise_true=1.0, delta=2.0, c_whp=2.0,
        ))
        heard = kernel_receivers(tie, slots)
        assert [((i + 1) % n in heard[2 * i]) for i in range(n)] == [decodes] * n
        assert heard == reference_receivers(tie, slots)


class TestNetworkBuildOracle:
    """The grid queries, the per-node index arrays and the on-demand
    distances and gains against the dense n x n computation they
    replaced, bit for bit."""

    @pytest.fixture(autouse=True)
    def grid_at_every_size(self, monkeypatch):
        # small networks skip the grid and take every pair as a candidate;
        # these oracles check the grid lookup at every size
        monkeypatch.setattr(model, "_ALL_PAIRS_MAX_N", 0)

    def test_all_pairs_and_grid_agree(self, exact_params, monkeypatch):
        nodes = _scattered_nodes(8, 60)
        radii = np.linspace(0.5, 9.0, 60)
        grid = build_network(nodes, exact_params).pairs_within(radii)
        monkeypatch.setattr(model, "_ALL_PAIRS_MAX_N", 60)
        every = build_network(nodes, exact_params).pairs_within(radii)
        for a, b in zip(grid, every):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def assert_matches_reference(net: Network) -> None:
        ref = reference_network_build(net)
        for name in ("max_degree", "longest_chain"):
            assert getattr(net, name) == ref[name], name
        adjacency = ref["adjacency"]
        for i in range(net.n):
            assert np.array_equal(net.out_indices(i), np.flatnonzero(adjacency[i]))
            assert np.array_equal(net.in_indices(i), np.flatnonzero(adjacency[:, i]))
        distances = ref["distances"]
        assert halo_pair_count(net) == brute_halo_pair_count(net)
        for i in range(net.n):
            assert net.distance_row(i).tobytes() == distances[i].tobytes()
            for power in (1.0, 6.0, 40.0, float(net.powers[i])):
                assert_lone_reach_matches(net, ref, i, power)
        # the engine's multi-transmission kernel against `resolve_slot`,
        # over every listener: each node beside its successor, then sender
        # sets gathered at random, all in one call, as the schedule asks
        slots = [[(i, float(net.powers[i])), ((i + 1) % net.n, 6.0)] for i in range(net.n - 1)]
        rng = np.random.default_rng(net.n)
        for size in (1, 2, 7):
            rows = rng.choice(net.n, size=min(size, net.n), replace=False)
            slots.append([(int(i), float(rng.uniform(1.0, 40.0))) for i in rows])
        assert kernel_receivers(net, slots, gap=1) == reference_receivers(net, slots)
        assert_kernel_losses_match(net, distances)

    @pytest.mark.parametrize("seed", range(6))
    def test_negative_coordinates(self, seed, exact_params):
        net = build_network(_scattered_nodes(seed, 40), exact_params)
        assert net.positions.min() < 0.0
        self.assert_matches_reference(net)

    def test_ids_are_not_indices(self, exact_params):
        ids = [int(v) for v in np.random.default_rng(9).permutation(50) * 7 + 1000]
        net = build_network(_scattered_nodes(3, 50, ids), exact_params)
        assert net.ids == tuple(ids)
        assert net.longest_chain > 0
        self.assert_matches_reference(net)

    def test_single_node(self, exact_params):
        net = build_network([Node(5, -2.0, 3.0, 4.0)], exact_params)
        assert (net.max_degree, net.longest_chain) == (0, 0)
        assert net.out_indices(0).tolist() == net.in_indices(0).tolist() == []
        self.assert_matches_reference(net)

    @pytest.mark.parametrize("n,ratio", [(2, 0.15), (7, 0.3), (12, 0.6)])
    def test_chain_topology(self, n, ratio, exact_params):
        self.assert_matches_reference(chain_topology(n, ratio, params=exact_params))

    def test_random_topology(self, exact_params):
        self.assert_matches_reference(
            random_topology(300, 14.0, (1.0, 6.0), seed=11, params=exact_params)
        )

    def test_reach_spanning_several_grid_rings(self):
        # a variable power of 40 against node powers of at most 6, and a
        # true noise 1/27 of its bound: the lone reach (40 * 27) ** (1/3) =
        # 10.3 spans more than five grid cells of side r_max_global, the
        # largest maximum transmission range 6 ** (1/3)
        params = bracketed(1.0 / 27.0)
        net = random_topology(300, 40.0, (1.0, 6.0), seed=4, params=params)
        exact = net.lone_reach(0, 40.0)[0]
        assert net.distance_row(0)[list(exact)].max() > 5.0 * net.r_max_global
        assert halo_pair_count(net) > 0
        self.assert_matches_reference(net)

    def test_bcast2k_build_holds_no_matrix(self):
        # the bcast2k benchmark recipe at n = 2000
        n = 2000
        params = NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0, c_whp=2.0)
        side = 12.0 * math.sqrt(n / 64)
        nodes = random_topology(n, side, (1.0, 6.0), seed=11, params=params).nodes
        tracemalloc.start()
        try:
            Network(nodes, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_build_memory_stays_below_three_matrices(self, exact_params):
        n = 500
        nodes = random_topology(n, 20.0, (1.0, 6.0), seed=1, params=exact_params).nodes
        tracemalloc.start()
        try:
            Network(nodes, exact_params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 8


class TestLongestDirectedPath:
    def test_uniform_power_has_no_chain(self, exact_params):
        rng = np.random.default_rng(7)
        nodes = [
            Node(i, float(rng.uniform(0, 4)), float(rng.uniform(0, 4)), 4.0)
            for i in range(8)
        ]
        net = build_network(nodes, exact_params)
        assert net.longest_chain == 0

    def test_three_collinear_descending(self, exact_params):
        # each node reaches exactly its successor
        nodes = [
            Node(0, 0.0, 0.0, 64.0),
            Node(1, 3.0, 0.0, 1.0),
            Node(2, 3.7, 0.0, 1.0 / 64.0),
        ]
        net = build_network(nodes, exact_params)
        assert net.out_indices(0).tolist() == [1]
        assert net.out_indices(1).tolist() == [2]
        assert net.out_indices(2).tolist() == []
        assert net.longest_chain == 2
        assert brute_longest_chain(net) == 2

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_chain_preset_matches_dfs(self, n, exact_params):
        net = chain_topology(n, 0.15, params=exact_params)
        assert net.longest_chain == n - 1
        assert brute_longest_chain(net) == n - 1

    def test_range_monotone_along_chains(self, exact_params):
        net = chain_topology(6, 0.15, params=exact_params)
        unidirectional = reference_network_build(net)["unidirectional"]
        for i in range(net.n):
            for j in np.nonzero(unidirectional[i])[0]:
                assert net.r_max[i] >= net.r_max[int(j)]


class TestRingIndex:
    def test_proximity(self, exact_params):
        net = pair_network(exact_params, d=1.5 * 2.0, p0=8.0, p1=8.0)
        # r_max = 2.0 for power 8, alpha 3
        assert net.r_max_global == pytest.approx(2.0)
        assert ring_index(0, 1, net) is None

    def test_first_ring(self, exact_params):
        net = pair_network(exact_params, d=3.5 * 2.0, p0=8.0, p1=8.0)
        assert ring_index(0, 1, net) == 2

    def test_boundary_tie_takes_smaller_index(self, exact_params):
        # distance exactly 4 R sits in both ring 2 and ring 3
        net = pair_network(exact_params, d=4.0 * 2.0, p0=8.0, p1=8.0)
        assert ring_index(0, 1, net) == 2

    def test_same_node_rejected(self, exact_params):
        net = pair_network(exact_params)
        with pytest.raises(ValueError):
            ring_index(0, 0, net)

    @given(mult=st.floats(0.1, 40.0))
    @settings(max_examples=200)
    def test_matches_smallest_index_oracle(self, mult):
        params = NetworkParams.exact(alpha=3.0)
        net = pair_network(params, d=mult * 2.0, p0=8.0, p1=8.0)
        assert ring_index(0, 1, net) == brute_ring_index(mult * 2.0, 2.0)


class TestStructuralOracles:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_instances_match_brute_force(self, data):
        n = data.draw(st.integers(2, 8))
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        params = NetworkParams.exact(alpha=3.0)
        net = random_small_network(rng, n, params)
        assert net.max_degree == brute_max_degree(net)
        assert net.longest_chain == brute_longest_chain(net)
        assert net.range_ratio == pytest.approx(
            max(net.r_max) / min(net.r_max)
        )
