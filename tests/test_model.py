import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrsim.errors import ModelViolationError
from sinrsim.model import (
    NetworkParams,
    Node,
    broadcast_range,
    build_network,
    max_transmission_range,
    ring_index,
)
from sinrsim.topology import chain_topology

from .conftest import (
    brute_longest_chain,
    brute_max_degree,
    brute_ring_index,
    pair_network,
    random_small_network,
)


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
        ],
    )
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            params_with(**{field: value})

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


class TestBuildNetwork:
    def test_dist_alpha_is_cached_and_read_only(self, exact_params):
        net = random_small_network(np.random.default_rng(5), 6, exact_params)
        expected = net.distances**exact_params.alpha_true
        np.fill_diagonal(expected, math.inf)
        assert np.array_equal(net.dist_alpha, expected)
        assert net.dist_alpha is net.dist_alpha
        with pytest.raises(ValueError):
            net.dist_alpha[0, 1] = 1.0

    def test_symmetric_pair(self, exact_params):
        net = pair_network(exact_params, d=1.0)
        assert net.out_neighbors(0) == (1,)
        assert net.out_neighbors(1) == (0,)
        assert net.range_ratio == pytest.approx(1.0)
        assert net.longest_chain == 0

    def test_one_way_pair(self, exact_params):
        # strong node reaches weak one at 1.2; weak replies die at 0.794
        net = pair_network(exact_params, d=1.2, p0=8.0, p1=1.0)
        assert net.out_neighbors(0) == (1,)
        assert net.out_neighbors(1) == ()
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
        assert net.out_neighbors(0) == (1,)
        assert net.out_neighbors(1) == (2,)
        assert net.out_neighbors(2) == ()
        assert net.longest_chain == 2
        assert brute_longest_chain(net) == 2

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_chain_preset_matches_dfs(self, n, exact_params):
        net = chain_topology(n, 0.15, params=exact_params)
        assert net.longest_chain == n - 1
        assert brute_longest_chain(net) == n - 1

    def test_range_monotone_along_chains(self, exact_params):
        net = chain_topology(6, 0.15, params=exact_params)
        for i in range(net.n):
            for j in np.nonzero(net.unidirectional[i])[0]:
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
