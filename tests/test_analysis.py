import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinrsim import analysis
from sinrsim.analysis import (
    PowerTrace,
    RegionBudgetMonitor,
    expected_far_interference,
    proximity_silence_probability,
    region_probability_cap,
    variable_power_guarantee,
    whp_slots,
)
from sinrsim.broadcast import broadcast_budget
from sinrsim.coloring import ColoringConstants
from sinrsim.experiment import analyze_network, run_slow_start
from sinrsim.model import NetworkParams, Node, build_network, ring_index
from sinrsim.topology import grid_topology

from .conftest import (
    blocked_far_interference,
    brute_expected_far_interference,
    brute_proximity_silence_probability,
    brute_region_sums,
    random_small_network,
    reference_network_build,
)


def region_probability_sums(network, probs):
    """Maximum over nodes v of the probability mass inside v's broadcasting
    region (v itself included), from a limitless monitor sent one update
    that sets every node to its probability in `probs` (0 for absent
    nodes) in both slot parities."""
    monitor = RegionBudgetMonitor(network, math.inf)
    monitor(0, [(i, probs.get(v, 0.0), probs.get(v, 0.0)) for i, v in enumerate(network.ids)])
    return monitor.peak


def ring_interference_bound(i, cap, params, range_ratio):
    """Closed-form bound on expected interference contributed by the annulus
    of index `i`, for any probability assignment respecting the per-region
    cap: ``60 * cap * beta_hi * noise_hi * ratio**2 / i**(alpha_hi - 1)``."""
    if i < 2:
        raise ValueError("rings start at index 2; smaller annuli overlap the proximity region")
    return (
        60.0
        * cap
        * params.beta_hi
        * params.noise_hi
        * range_ratio**2
        / float(i) ** (params.alpha_hi - 1.0)
    )


# -- numeric facts used by the probabilistic arguments -----------------------

_FACT_SLACK = 1e-12


def product_probability_bounds_hold(probabilities):
    """(1/4)**sum(p) <= prod(1 - p) <= (1/e)**sum(p), valid for p in [0, 1/2]."""
    for p in probabilities:
        if not (0.0 <= p <= 0.5):
            raise ValueError("probabilities must lie in [0, 1/2]")
    total = sum(probabilities)
    product = 1.0
    for p in probabilities:
        product *= 1.0 - p
    lower = 0.25**total
    upper = math.exp(-total)
    return lower <= product * (1.0 + _FACT_SLACK) and product <= upper * (1.0 + _FACT_SLACK)


def exponential_approx_bounds_hold(n, t):
    """e**t * (1 - t**2/n) <= (1 + t/n)**n <= e**t, valid for n >= 1, |t| <= n.

    Checked in log space so overflow cannot produce spurious verdicts."""
    if n < 1 or abs(t) > n:
        raise ValueError("requires n >= 1 and |t| <= n")
    slack = _FACT_SLACK * (1.0 + abs(t))
    if t == -n:
        log_middle = -math.inf  # (1 + t/n)**n collapses to zero
    else:
        log_middle = n * math.log1p(t / n)
    if log_middle > t + slack:
        return False
    low_factor = 1.0 - t * t / n
    if low_factor <= 0.0:
        return True  # lower bound is non-positive, middle never is
    return t + math.log(low_factor) <= log_middle + slack


def cap_params(alpha=3.0, beta=1.0, delta=2.0):
    return NetworkParams.exact(alpha=alpha, beta=beta, noise=1.0, delta=delta)


class TestRegionProbabilityCap:
    def test_single_node_single_term(self):
        assert region_probability_cap(cap_params(), 1.0, 1) == pytest.approx(
            1.0 / 120.0, rel=1e-12
        )

    def test_two_terms_cubic_falloff(self):
        # sum = 1 + 1/4, numerator = 1
        assert region_probability_cap(cap_params(alpha=3.0), 1.0, 2) == pytest.approx(
            1.0 / 150.0, rel=1e-12
        )

    def test_large_margin_is_capped(self):
        assert region_probability_cap(cap_params(delta=5.0), 1.0, 1) == pytest.approx(
            1.0 / 120.0, rel=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            region_probability_cap(cap_params(), 1.0, 0)
        with pytest.raises(ValueError):
            region_probability_cap(cap_params(), 0.5, 4)

    @given(
        n=st.integers(1, 500),
        ratio=st.floats(1.0, 8.0),
        beta=st.floats(1.0, 4.0),
        delta=st.floats(1.05, 6.0),
    )
    @settings(max_examples=200)
    def test_monotone_in_every_argument(self, n, ratio, beta, delta):
        params = NetworkParams.exact(alpha=3.0, beta=beta, delta=delta)
        base = region_probability_cap(params, ratio, n)
        assert base <= region_probability_cap(params, ratio, max(1, n - 1)) * (1 + 1e-12)
        assert base >= region_probability_cap(params, ratio + 0.5, n) * (1 - 1e-12)
        bigger_delta = NetworkParams.exact(alpha=3.0, beta=beta, delta=delta + 0.5)
        assert region_probability_cap(bigger_delta, ratio, n) >= base * (1 - 1e-12)
        bigger_beta = NetworkParams.exact(alpha=3.0, beta=beta + 0.5, delta=delta)
        assert region_probability_cap(bigger_beta, ratio, n) <= base * (1 + 1e-12)


class TestProximitySilence:
    def test_all_silent(self):
        net = grid_topology(2, 2, 1.0, 4.0, params=cap_params())
        assert proximity_silence_probability(net, {}, 0) == 1.0

    def test_two_proximity_nodes_product(self):
        net = grid_topology(1, 3, 1.0, 4.0, params=cap_params())
        probs = {0: 0.5, 1: 0.5, 2: 0.5}
        # nodes 1 and 2 are both within three max ranges of node 0
        assert proximity_silence_probability(net, probs, 0) == pytest.approx(0.25)

    def test_bounded_assignments_stay_above_quarter(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            net = random_small_network(rng, 12, cap_params())
            cap = region_probability_cap(net.params, net.range_ratio, net.n)
            probs = dict.fromkeys(net.ids, cap / (net.max_degree + 1))
            assert region_probability_sums(net, probs) <= cap * (1 + 1e-9)
            for v in net.ids:
                assert proximity_silence_probability(net, probs, v) >= 0.25


class TestFarInterference:
    def test_no_far_nodes(self):
        net = grid_topology(2, 2, 1.0, 4.0, params=cap_params())
        assert expected_far_interference(net, {v: 0.5 for v in net.ids}, 0, 3.0) == 0.0

    def test_single_far_node_term(self):
        # huge noise shrinks every range, so a distance-2 neighbor is far;
        # the receiver boundary point collapses onto the sender for a
        # vanishing broadcast range
        params = NetworkParams.exact(alpha=2.0, noise=1e6, delta=2.0)
        net = build_network(
            [Node(0, 0.0, 0.0, 1e-6), Node(1, 2.0, 0.0, 16.0)], params
        )
        assert 3.0 * net.r_max_global < 2.0
        value = expected_far_interference(net, {0: 0.0, 1: 0.5}, 0, 2.0)
        assert value == pytest.approx(0.5 * 16.0 / 4.0, rel=1e-6)

    def test_certificate_on_random_instances(self):
        rng = np.random.default_rng(11)
        params = cap_params()
        margin = (params.delta - 1.0) * params.noise_hi / 2.0
        for _ in range(10):
            net = random_small_network(rng, 16, params)
            cap = region_probability_cap(params, net.range_ratio, net.n)
            probs = dict.fromkeys(net.ids, cap / (net.max_degree + 1))
            for v in net.ids:
                assert (
                    expected_far_interference(net, probs, v, params.alpha_hi)
                    <= margin
                )

    def test_rejects_shallow_exponent(self):
        net = grid_topology(2, 2, 1.0, 4.0, params=cap_params())
        with pytest.raises(ValueError):
            expected_far_interference(net, {}, 0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, 2.0, -0.5], ids=["nan", "above_1", "negative"])
    def test_names_bad_probability(self, bad):
        net = grid_topology(1, 3, 1.0, 4.0, params=cap_params())
        with pytest.raises(ValueError, match=r"^probability for node 2 outside \[0, 1\]$"):
            expected_far_interference(net, {1: 0.5, 2: bad}, 0, 3.0)


def survivors(monkeypatch):
    """Per call of the exact pass, how many candidates it evaluated."""
    counts = []
    real = analysis._exact_max

    def counting(candidates, *args):
        counts.append(len(candidates))
        return real(candidates, *args)

    monkeypatch.setattr(analysis, "_exact_max", counting)
    return counts


def candidate_count(net, p, v):
    """All candidates of node `v`: the nodes inside its region and one
    boundary point per far node."""
    i = net.index(v)
    row = net.distance_row(i)
    inside = int(np.count_nonzero(row <= net.r_bcast[i])) - 1
    return inside + int(np.count_nonzero((row >= 3.0 * net.r_max_global) & (p > 0.0)))


def screened_nodes(monkeypatch):
    """Per call of the screen, whether it pruned (False where it kept every
    candidate)."""
    pruned = []
    real = analysis._screen

    def recording(*args):
        sums = real(*args)
        pruned.append(sums is not None)
        return sums

    monkeypatch.setattr(analysis, "_screen", recording)
    return pruned


def assert_screen_within_bound(net, p, exponent):
    """Every screened sum lies within the bound that `_expansion` derived
    for it of the direct float64 sum, up to the factor the screen's units
    leave, ``unit**exponent / max(weights)``; returns how many nodes the
    screen ran on."""
    calls, bounds = [], []
    real_screen, real_expansion = analysis._screen, analysis._expansion

    def screen(*args):
        calls.append((args, real_screen(*args)))
        return calls[-1][1]

    def expansion(*args):
        bounds.append(real_expansion(*args))
        return bounds[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_screen", screen)
        patch.setattr(analysis, "_expansion", expansion)
        analysis._far_interference(net, p, net.ids, exponent)
    ran = 0
    for ((candidates, far_pos, weights, center, _), sums), expanded in zip(calls, bounds):
        if sums is None:
            continue
        ran += 1
        d = np.hypot(*(far_pos[None] - candidates[:, None]).transpose(2, 0, 1))
        direct = (weights / d**exponent).sum(axis=1)
        unit = np.hypot(*(far_pos - center).T).min()
        ratio = sums / direct * weights.max() / unit**exponent
        assert np.abs(ratio - 1.0).max() <= expanded[1]
    return ran


class TestFarInterferenceScreen:
    """The far-field screen keeps every candidate that can hold the maximum,
    so `_far_interference` equals the blocked float64 oracle bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        exponent=st.floats(1.5, 10.0),
        offset=st.sampled_from([0.0, 1e6]),
    )
    @settings(max_examples=150, deadline=None)
    # near ties that the exact order K keeps apart even at zero slack, and
    # the order K - 1 does not
    @example(seed=35, n=35, exponent=1.5, offset=0.0)
    @example(seed=38, n=38, exponent=3.6059728405190548, offset=0.0)
    @example(seed=46, n=46, exponent=1.9140625, offset=0.0)
    def test_equals_the_oracle(self, seed, n, exponent, offset):
        rng = np.random.default_rng(seed)
        net = random_small_network(rng, n, bracketed_params(), offset)
        # mixed probabilities: a fifth at exactly 0
        p = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 1.0, n))
        assert analysis._far_interference(net, p, net.ids, exponent) == (
            blocked_far_interference(net, p, net.ids, exponent)
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        exponent=st.floats(1.5, 12.0),
        offset=st.sampled_from([0.0, 1e6]),
    )
    @settings(max_examples=100, deadline=None)
    def test_screened_sums_within_the_bound(self, seed, n, exponent, offset):
        rng = np.random.default_rng(seed)
        net = random_small_network(rng, n, bracketed_params(), offset)
        p = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 1.0, n))
        assert_screen_within_bound(net, p, exponent)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("exponent", [1.5, 3.0, 6.0, 12.0])
    def test_bound_at_exactly_three_max_ranges(self, exponent, offset):
        # R_max = 2 and node 1 lies exactly 3 R_max from node 0, whose
        # broadcasting range, at a margin delta just above 1, is the largest
        # and within 2**-40 of R_max: rho is 1/3 to that, and the boundary
        # point towards node 1 meets the expansion's largest remainder
        net = build_network(
            [
                Node(0, offset, offset, 8.0),
                Node(1, offset + 6.0, offset, 8.0),
                Node(2, offset + 0.5, offset + 0.5, 1.0),
                Node(3, offset - 5.0, offset + 7.0, 3.0),
                Node(4, offset + 4.0, offset - 9.0, 6.0),
            ],
            cap_params(delta=1.0 + 2.0**-40),
        )
        assert net.distance_row(0)[1] == 3.0 * net.r_max_global == 6.0
        assert net.r_bcast[0] == net.r_bcast.max() > (1.0 - 2.0**-40) * net.r_max_global
        assert assert_screen_within_bound(net, np.full(net.n, 0.5), exponent) >= 1

    def test_the_screen_prunes(self, monkeypatch):
        net = random_small_network(np.random.default_rng(41), 200, bracketed_params())
        p = np.full(net.n, 0.3)
        counts = survivors(monkeypatch)
        got = analysis._far_interference(net, p, net.ids, 3.0)
        assert got == blocked_far_interference(net, p, net.ids, 3.0)
        total = sum(candidate_count(net, p, v) for v in net.ids)
        assert 0 < sum(counts) < 0.1 * total

    @pytest.mark.parametrize("exponent", [1.5, 6.0])
    def test_exact_ties_all_survive(self, monkeypatch, exponent):
        # the centre of a symmetric grid: several candidates share the
        # largest float64 sum exactly, and each of them is kept
        net = grid_topology(15, 15, 1.0, 8.0, params=cap_params())
        p = np.full(net.n, 0.3)
        kept = []
        real = analysis._exact_max

        def each_row(candidates, *args):
            kept.extend(real(candidates[j : j + 1], *args) for j in range(len(candidates)))
            return real(candidates, *args)

        monkeypatch.setattr(analysis, "_exact_max", each_row)
        (value,) = analysis._far_interference(net, p, [7 * 15 + 7], exponent)
        assert kept.count(value) >= 2
        assert len(kept) < candidate_count(net, p, 7 * 15 + 7)
        assert analysis._far_interference(net, p, net.ids, exponent) == (
            blocked_far_interference(net, p, net.ids, exponent)
        )

    def test_one_far_node_at_exactly_three_max_ranges(self):
        # R_max = (8 / 1)**(1/3) = 2, so node 1 is exactly 3 R_max from node 0
        net = build_network(
            [Node(0, 0.0, 0.0, 8.0), Node(1, 6.0, 0.0, 8.0), Node(2, 0.5, 0.5, 1.0)],
            cap_params(),
        )
        assert net.distance_row(0)[1] == 3.0 * net.r_max_global == 6.0
        p = np.array([0.5, 0.25, 0.5])
        got = analysis._far_interference(net, p, net.ids, 3.0)
        assert got == blocked_far_interference(net, p, net.ids, 3.0)
        assert got[0] > 0.0 and got[2] == 0.0
        assert got[0] == pytest.approx(
            brute_expected_far_interference(net, {0: 0.5, 1: 0.25, 2: 0.5}, 0, 3.0), rel=1e-12
        )

    @pytest.mark.parametrize("case", ["spread", "underflow"])
    def test_prunes_far_beyond_the_network(self, monkeypatch, case):
        # spread: two more far nodes beyond 2**17 * 3 R_max; underflow: at
        # alpha = 9, a cluster whose only far nodes lie about 2000 * 3 R_max
        # away, whose terms would underflow in float32.  Both lie far inside
        # the float64 range, so the screen prunes every node
        rng = np.random.default_rng(43)
        net = random_small_network(rng, 40, bracketed_params())
        exponent = 9.0 if case == "underflow" else 3.0
        far = 3.0 * net.r_max_global * (2.0**17 if case == "spread" else 2000.0)
        nodes = list(net.nodes) if case == "spread" else [
            Node(i, node.x / 8.0, node.y / 8.0, 8.0) for i, node in enumerate(net.nodes[:3])
        ]
        nodes += [Node(len(nodes), far, far, 8.0), Node(len(nodes) + 1, far, -far, 8.0)]
        net = build_network(nodes, bracketed_params())
        p = np.full(net.n, 0.4)
        counts, pruned = survivors(monkeypatch), screened_nodes(monkeypatch)
        got = analysis._far_interference(net, p, net.ids, exponent)
        assert got == blocked_far_interference(net, p, net.ids, exponent)
        assert all(pruned)
        assert sum(counts) < sum(candidate_count(net, p, v) for v in net.ids)

    @pytest.mark.parametrize("case", ["steep", "tiny", "not_finite"])
    def test_every_candidate_where_the_bound_fails(self, monkeypatch, case):
        # steep: at alpha = 40 most nodes need an order above _MAX_ORDER;
        # tiny: the heaviest far node 1e25 away and the nearest almost
        # silent, so that the screened maximum falls under the underflow
        # floor; not_finite: infinite powers, so no finite screened sum
        rng = np.random.default_rng(43)
        net = random_small_network(rng, 40, bracketed_params())
        p = np.full(net.n, 0.4)
        exponent = {"steep": 40.0, "tiny": 12.0}.get(case, 3.0)
        if case == "tiny":
            net = build_network(
                [Node(0, 0.0, 0.0, 8.0), Node(1, 0.5, 0.5, 1.0), Node(2, 6.5, 0.0, 8.0),
                 Node(3, 1e25, 0.0, 8.0)],
                bracketed_params(),
            )
            p = np.array([0.4, 0.4, 1e-300, 0.4])
        if case == "not_finite":
            monkeypatch.setattr(
                analysis, "_powers", lambda z, count: np.full((count, len(z)), np.inf + 0j)
            )
        counts, pruned = survivors(monkeypatch), screened_nodes(monkeypatch)
        with np.errstate(invalid="ignore" if case == "not_finite" else "warn"):
            got = analysis._far_interference(net, p, net.ids, exponent)
        assert got == blocked_far_interference(net, p, net.ids, exponent)
        with_far = [v for v in net.ids if got[net.index(v)] > 0.0]
        assert len(with_far) == len(counts) == len(pruned)
        for v, kept, screened in zip(with_far, counts, pruned):
            if not screened:
                assert kept == candidate_count(net, p, v)
        if case == "steep":
            assert pruned.count(False) >= len(pruned) // 2
        else:  # tiny: nodes 0 and 1, whose nearest far node is node 2
            assert not any(pruned[: 2 if case == "tiny" else None])


def bracketed_params():
    """Known exponent bounds strictly around the true exponent."""
    return NetworkParams(
        alpha_lo=2.5, alpha_hi=3.5, alpha_true=3.0,
        beta_lo=1.0, beta_hi=1.5, beta_true=1.2,
        noise_lo=1.0, noise_hi=1.0, noise_true=1.0,
        delta=2.0, c_whp=2.0,
    )


def mixed_probs(rng, net):
    """Random probabilities with some nodes at exactly 0 and some absent."""
    probs = {}
    for v in net.ids:
        r = rng.random()
        if r < 0.2:
            continue
        probs[v] = 0.0 if r < 0.4 else float(rng.uniform(0.0, 1.0))
    return probs


def assert_matches_oracles(net, probs, v, exponents):
    assert proximity_silence_probability(net, probs, v) == (
        brute_proximity_silence_probability(net, probs, v)
    )
    for exponent in exponents:
        fast = expected_far_interference(net, probs, v, exponent)
        slow = brute_expected_far_interference(net, probs, v, exponent)
        assert math.isclose(fast, slow, rel_tol=1e-12, abs_tol=0.0), (v, exponent)


class TestCertificateOracles:
    def test_random_networks_match_loop_oracles(self):
        rng = np.random.default_rng(29)
        params = bracketed_params()
        exponents = (params.alpha_lo, params.alpha_true, params.alpha_hi, 1.5)
        far_seen = 0
        for n in (2, 9, 25, 40):
            net = random_small_network(rng, n, params)
            probs = mixed_probs(rng, net)
            for v in net.ids:
                assert_matches_oracles(net, probs, v, exponents)
                far_seen += expected_far_interference(net, probs, v, 3.0) > 0.0
        assert far_seen > 0

    def test_node_without_far_nodes(self):
        # every node beyond the proximity region has probability 0 or none
        rng = np.random.default_rng(31)
        params = bracketed_params()
        net = random_small_network(rng, 40, params)
        v = net.ids[0]
        i = net.index(v)
        limit = 3.0 * net.r_max_global
        distances = reference_network_build(net)["distances"]
        probs = {
            u: (0.0 if distances[i, j] >= limit else 0.3)
            for j, u in enumerate(net.ids)
            if j % 2 == 0 or distances[i, j] < limit
        }
        assert any(distances[i] >= limit)
        assert expected_far_interference(net, probs, v, 3.0) == 0.0
        assert_matches_oracles(net, probs, v, (params.alpha_hi,))

    def test_more_candidates_than_one_block(self):
        rng = np.random.default_rng(37)
        params = bracketed_params()
        net = random_small_network(rng, 220, params)
        probs = mixed_probs(rng, net)
        limit = 3.0 * net.r_max_global
        distances = reference_network_build(net)["distances"]
        far_counts = [
            sum(
                1
                for j, u in enumerate(net.ids)
                if distances[i, j] >= limit and probs.get(u, 0.0) > 0.0
            )
            for i in range(net.n)
        ]
        big = [net.ids[i] for i in np.argsort(far_counts)[-3:]]
        assert min(far_counts[net.index(v)] for v in big) > 128
        for v in big:
            assert_matches_oracles(net, probs, v, (params.alpha_true, params.alpha_hi))

    def test_silence_names_bad_probability(self):
        net = grid_topology(1, 3, 1.0, 4.0, params=cap_params())
        with pytest.raises(ValueError, match="node 2 outside"):
            proximity_silence_probability(net, {1: 0.5, 2: 1.5}, 0)


class TestRingBound:
    def test_zero_cap_zero_bound(self):
        assert ring_interference_bound(5, 0.0, cap_params(), 2.0) == 0.0

    def test_golden_value(self):
        # 60 * (1/120) / 2^2 at unit ratio, beta, noise
        value = ring_interference_bound(2, 1.0 / 120.0, cap_params(alpha=3.0), 1.0)
        assert value == pytest.approx(0.125, rel=1e-12)

    def test_rings_start_at_two(self):
        with pytest.raises(ValueError):
            ring_interference_bound(1, 0.01, cap_params(), 1.0)

    @pytest.mark.parametrize("ratio,n", [(1.0, 16), (2.0, 64), (3.5, 200)])
    def test_ring_sum_within_margin(self, ratio, n):
        params = cap_params()
        cap = region_probability_cap(params, ratio, n)
        total = sum(
            ring_interference_bound(i, cap, params, ratio) for i in range(2, n + 1)
        )
        assert total <= (params.delta - 1.0) * params.noise_hi / 2.0 + 1e-12

    def test_bound_dominates_ring_floor_sum(self):
        """The analytic per-ring bound must dominate the exact expected
        interference computed with ring-floor distances."""
        rng = np.random.default_rng(5)
        params = cap_params()
        for _ in range(10):
            net = random_small_network(rng, 14, params)
            cap = region_probability_cap(params, net.range_ratio, net.n)
            probs = dict.fromkeys(net.ids, cap / (net.max_degree + 1))
            r = net.r_max_global
            for v in net.ids:
                per_ring: dict[int, float] = {}
                for w in net.ids:
                    if w == v:
                        continue
                    ring = ring_index(v, w, net)
                    if ring is None:
                        continue
                    per_ring.setdefault(ring, 0.0)
                    per_ring[ring] += (
                        probs[w]
                        * net.node(w).power
                        / (ring * r) ** params.alpha_hi
                    )
                for ring, exact in per_ring.items():
                    assert exact <= ring_interference_bound(
                        ring, cap, params, net.range_ratio
                    ) * (1 + 1e-9)


class TestRegionSums:
    def test_empty_assignment(self):
        net = grid_topology(2, 2, 1.0, 4.0, params=cap_params())
        assert region_probability_sums(net, {}) == 0.0

    def test_isolated_node_own_probability(self):
        net = build_network([Node(0, 0.0, 0.0, 1.0)], cap_params())
        assert region_probability_sums(net, {0: 0.3}) == pytest.approx(0.3)

    def test_uniform_split_respects_cap(self):
        # grid where broadcasting regions are strictly thinner than the
        # transmission-range disc that defines the degree
        params = cap_params()
        net = grid_topology(4, 4, 1.0, 3.5, params=params)
        cap = region_probability_cap(params, net.range_ratio, net.n)
        probs = dict.fromkeys(net.ids, cap / net.max_degree)
        assert region_probability_sums(net, probs) <= cap * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_monitor_sums_match_brute_oracle(self, seed):
        """The monitor adds a region's members in index order, the oracle
        the region's own node first: equal for one shared probability, and
        within the last ulp otherwise."""
        rng = np.random.default_rng(seed)
        net = random_small_network(rng, int(rng.integers(2, 40)), cap_params())
        report = analyze_network(net)
        uniform = dict.fromkeys(net.ids, report["prob"])
        assert list(report["region_sums"].values()) == brute_region_sums(net, uniform)
        # uneven probabilities, one node left out of the mapping
        probs = {v: float(rng.uniform(0.0, 0.5)) for v in net.ids[1:]}
        assert region_probability_sums(net, probs) == pytest.approx(
            max(brute_region_sums(net, probs)), rel=1e-12
        )


class TestPowerTrace:
    def test_levels_and_counts(self):
        trace = PowerTrace(0, 0, 110, ((0, 100, 1.0), (100, 110, 4.0)))
        assert trace.levels() == (0.0, 1.0, 4.0)
        assert trace.slots_at_least() == (110, 110, 10)

    def test_counts_never_increase(self):
        trace = PowerTrace(0, 0, 60, ((0, 10, 2.0), (20, 50, 1.0), (50, 60, 8.0)))
        counts = trace.slots_at_least()
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_gap_slots_count_as_zero_power(self):
        trace = PowerTrace(0, 0, 40, ((10, 20, 2.0),))
        assert trace.slots_at_least() == (40, 10)

    def test_rejects_overlapping_pieces(self):
        with pytest.raises(ValueError):
            PowerTrace(0, 0, 10, ((0, 5, 1.0), (4, 8, 2.0)))


# a few shared levels, so that pieces pool their slots, or any power
PIECE_POWERS = st.sampled_from([0.0, 1.0, 2.0, 8.0]) | st.floats(0.0, 64.0)


@st.composite
def power_traces(draw):
    """Valid traces over [0, end): ordered, disjoint pieces with gaps
    between them and at least one uncovered slot at the end."""
    pieces, at = [], 0
    for gap, length, power in draw(st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, 300), PIECE_POWERS), max_size=8
    )):
        pieces.append((at + gap, at + gap + length, power))
        at += gap + length
    return PowerTrace(0, 0, at + draw(st.integers(1, 100)), tuple(pieces))


class TestVariablePowerGuarantee:
    def params(self):
        return cap_params()

    def test_single_level_qualifies(self):
        trace = PowerTrace(0, 0, 200, ((0, 200, 8.0),))
        # threshold 8c/p ln n with p chosen so it lands at 100
        p = 8 * 2.0 * math.log(4) / 100
        level, radius = variable_power_guarantee(trace, p, self.params(), 4)
        assert level == 1
        assert radius == pytest.approx((8.0 / 2.0) ** (1.0 / 3.0))

    def test_two_level_hand_count(self):
        trace = PowerTrace(0, 0, 110, ((0, 100, 1.0), (100, 110, 4.0)))
        p = 8 * 2.0 * math.log(4) / 50  # threshold = 50
        level, radius = variable_power_guarantee(trace, p, self.params(), 4)
        # slots at >= 1.0 is 110 > 50; slots at >= 4.0 is 10 <= 50
        assert level == 1
        assert radius == pytest.approx((1.0 / 2.0) ** (1.0 / 3.0))

    def test_all_idle_gives_nothing(self):
        trace = PowerTrace(0, 0, 50, ())
        assert variable_power_guarantee(trace, 0.5, self.params(), 4) == (0, 0.0)

    @given(data=st.data(), trace=power_traces(), p=st.floats(0.05, 1.0), n=st.integers(1, 1000))
    @settings(max_examples=200, deadline=None)
    def test_radius_is_monotone(self, data, trace, p, n):
        """The certified radius never falls when a piece fills part of an
        uncovered gap or when p rises, and never rises when n rises."""
        params = self.params()
        radius = variable_power_guarantee(trace, p, params, n)[1]
        ends = [trace.interval_start, *(end for _, end, _ in trace.pieces)]
        starts = [*(start for start, _, _ in trace.pieces), trace.interval_end]
        a, b = data.draw(st.sampled_from([(a, b) for a, b in zip(ends, starts) if a < b]))
        start = data.draw(st.integers(a, b - 1))
        piece = (start, data.draw(st.integers(start + 1, b)), data.draw(PIECE_POWERS))
        grown = PowerTrace(trace.node_id, trace.interval_start, trace.interval_end,
                           tuple(sorted([*trace.pieces, piece])))
        assert variable_power_guarantee(grown, p, params, n)[1] >= radius
        more_p = data.draw(st.floats(p, 1.0))
        assert variable_power_guarantee(trace, more_p, params, n)[1] >= radius
        more_n = data.draw(st.integers(n, 10**6))
        assert variable_power_guarantee(trace, p, params, more_n)[1] <= radius


class TestWhpSlots:
    """The fixed budget, the variable-power threshold, coloring's round
    lengths and slow start's cap target come from `whp_slots`.  The
    expressions each call site used to write out, in their own operation
    order, are the oracle here."""

    @settings(max_examples=300, deadline=None)
    @given(
        c_whp=st.floats(1.01, 10.0),
        delta=st.floats(1.01, 4.0),
        n=st.integers(1, 10_000),
        max_degree=st.integers(0, 200),
        ratio=st.floats(1.0, 8.0),
        scale=st.floats(1e-3, 1.0),
    )
    def test_budgets_match_the_written_out_rule(self, c_whp, delta, n, max_degree, ratio,
                                                 scale):
        params = NetworkParams.exact(alpha=3.0, delta=delta, c_whp=c_whp)
        cap = region_probability_cap(params, ratio, n)
        degree = max(1, max_degree)
        p = cap / degree
        log_n, log_n2 = math.log(n), math.log(max(2, n))

        # fixed broadcast's budget and the variable-power threshold
        assert broadcast_budget(p, params, n, scale) == max(
            1, math.ceil(scale * 8.0 * c_whp / p * log_n)
        )
        threshold = scale * 8.0 * c_whp / p * log_n
        assert whp_slots(p, params, n, scale) == threshold
        slots = max(1, math.floor(threshold))
        for count in (slots, slots + 1):
            trace = PowerTrace(0, 0, count, ((0, count, 4.0),))
            level, _ = variable_power_guarantee(trace, p, params, n, scale)
            assert level == (1 if count > threshold else 0)

        # coloring's round lengths; their probabilities split the cap in half
        k = ColoringConstants.derive(params, cap, max_degree, ratio, n, scale)
        prob_std = cap / (2.0 * degree)
        prob_leader = cap / (18.0 * ratio**2)
        assert k.slots_std == max(1, math.ceil(scale * 8.0 * c_whp / prob_std * log_n2))
        assert k.slots_leader == max(
            1, math.ceil(scale * 8.0 * c_whp / prob_leader * log_n2)
        )
        assert 9.0 * ratio**2 * k.prob_leader + degree * k.prob_std <= cap * (1.0 + 1e-9)

        # slow start's cap target, as run_slow_start derives it
        assert broadcast_budget(cap / 16.0, params, max(2, n), scale) == max(
            1, math.ceil(scale * 8.0 * (16.0 / cap) * c_whp * log_n2)
        )

    def test_single_node_values(self):
        params = NetworkParams.exact(alpha=3.0, c_whp=2.0)
        assert whp_slots(0.5, params, 1, 1.0) == 0.0
        assert broadcast_budget(0.5, params, 1, 1.0) == 1
        # threshold 0: a single slot at a level certifies it
        trace = PowerTrace(0, 0, 1, ((0, 1, 8.0),))
        assert variable_power_guarantee(trace, 0.5, params, 1)[0] == 1
        # coloring and slow start floor ln n at ln 2
        k = ColoringConstants.derive(params, 1.0 / 120.0, 0, 1.0, 1)
        assert (k.slots_std, k.slots_leader) == (2662, 23956)
        net = build_network([Node(0, 0.0, 0.0, 1.0)], params)
        report = run_slow_start(net, [0])
        assert report.certificates["cap_target"] == 21294
        assert report.rows == [(0, 0, "slowstart", True, None, 31)]


class TestFacts:
    def test_zero_probability(self):
        assert product_probability_bounds_hold([0.0])

    def test_half_half_boundary(self):
        assert product_probability_bounds_hold([0.5, 0.5])

    def test_rejects_large_probability(self):
        with pytest.raises(ValueError):
            product_probability_bounds_hold([0.6])

    def test_growth_bound_example(self):
        # e^2 * 0 <= 1.5^4 <= e^2
        assert exponential_approx_bounds_hold(4, 2)

    def test_growth_bound_rejects_large_t(self):
        with pytest.raises(ValueError):
            exponential_approx_bounds_hold(2, 3)

    @given(
        ps=st.lists(st.floats(0.0, 0.5), min_size=0, max_size=20),
    )
    @settings(max_examples=300)
    def test_product_fact_random(self, ps):
        assert product_probability_bounds_hold(ps)

    @given(n=st.floats(1.0, 1e6), frac=st.floats(-1.0, 1.0))
    @settings(max_examples=300)
    def test_growth_fact_random(self, n, frac):
        assert exponential_approx_bounds_hold(n, frac * n)

    def test_facts_hold_on_ten_thousand_draws(self):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            k = int(rng.integers(0, 12))
            ps = rng.uniform(0.0, 0.5, size=k).tolist()
            assert product_probability_bounds_hold(ps)
            n = float(rng.uniform(1.0, 1e5))
            t = float(rng.uniform(-1.0, 1.0)) * n
            assert exponential_approx_bounds_hold(n, t)
