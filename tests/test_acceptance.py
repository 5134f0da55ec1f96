"""End-to-end acceptance suite.

Each test pins one headline guarantee at its stated tolerance, runs at full
protocol constants (scale = 1) unless noted, and prints a PASS line with the
measured quantities so a failed expectation is directly attributable.
"""

import math
import time

import numpy as np
import pytest

from sinrsim.analysis import (
    expected_far_interference,
    proximity_silence_probability,
    region_probability_cap,
)
from sinrsim.broadcast import PowerSchedule, broadcast_budget
from sinrsim.experiment import (
    halo_pair_count,
    run_coloring,
    run_fixed_broadcast,
    run_slow_start,
    run_variable_power,
)
from sinrsim.model import NetworkParams, Node, build_network, ring_index
from sinrsim.coloring import free_counter_value
from sinrsim.topology import clique_topology, line_topology, random_topology

from .conftest import (
    brute_free_counter,
    brute_longest_chain,
    brute_max_degree,
    brute_ring_index,
    random_small_network,
    reference_network_build,
)


def stamp(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS -- {detail}")


# -- 1: closed-form probability cap -------------------------------------------


def test_01_region_cap_golden_values():
    t0 = time.perf_counter()
    base = NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0)
    assert region_probability_cap(base, 1.0, 1) == pytest.approx(1 / 120, rel=1e-12)
    assert region_probability_cap(base, 1.0, 2) == pytest.approx(1 / 150, rel=1e-12)
    wide = NetworkParams.exact(alpha=3.0, beta=1.0, delta=5.0)
    assert region_probability_cap(wide, 1.0, 1) == pytest.approx(1 / 120, rel=1e-12)

    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        ratio = float(rng.uniform(1.0, 6.0))
        beta = float(rng.uniform(1.0, 4.0))
        delta = float(rng.uniform(1.05, 5.0))
        params = NetworkParams.exact(alpha=3.0, beta=beta, delta=delta)
        value = region_probability_cap(params, ratio, n)
        assert value <= region_probability_cap(params, ratio, max(1, n - 1)) * (1 + 1e-12)
        assert value >= region_probability_cap(params, ratio + 0.3, n) * (1 - 1e-12)
        harder = NetworkParams.exact(alpha=3.0, beta=beta + 0.5, delta=delta)
        assert region_probability_cap(harder, ratio, n) <= value * (1 + 1e-12)
        easier = NetworkParams.exact(alpha=3.0, beta=beta, delta=delta + 0.5)
        assert region_probability_cap(easier, ratio, n) >= value * (1 - 1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    stamp(1, f"golden values exact, monotone on 1000 draws, {elapsed:.2f}s")


# -- 2: interference certificates ----------------------------------------------


def test_02_interference_certificates():
    t0 = time.perf_counter()
    params = NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0)
    margin = (params.delta - 1.0) * params.noise_hi / 2.0
    rng = np.random.default_rng(77)
    sizes = [16, 32, 64]
    worst_interference = 0.0
    worst_silence = 1.0
    for k in range(200):
        n = sizes[k % 3]
        side = 1.30 * math.sqrt(n)
        net = random_topology(n, side, (1.0, 16.0), seed=int(rng.integers(1 << 30)),
                              params=params)
        assert net.range_ratio <= 4.0
        cap = region_probability_cap(params, net.range_ratio, n)
        probs = dict.fromkeys(net.ids, cap / max(1, net.max_degree))
        for v in net.ids:
            interference = expected_far_interference(net, probs, v, params.alpha_hi)
            silence = proximity_silence_probability(net, probs, v)
            worst_interference = max(worst_interference, interference)
            worst_silence = min(worst_silence, silence)
            assert interference <= margin
            assert silence >= 0.25
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    stamp(
        2,
        f"200 topologies: worst far-interference {worst_interference:.4g} <= {margin}, "
        f"worst proximity silence {worst_silence:.4f} >= 0.25, {elapsed:.1f}s",
    )


# -- 3: fixed-probability local broadcasting ------------------------------------


def test_03_fixed_probability_broadcast():
    t0 = time.perf_counter()
    params = NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0, c_whp=2.0)
    net = random_topology(64, 12.0, (1.0, 6.0), seed=11, params=params)
    assert net.range_ratio <= 2.0
    # the degree convention counts neighbors only; regions then hold at most
    # max_degree + 1 nodes, so check the ones that matter stay within budget
    cap = region_probability_cap(params, net.range_ratio, net.n)
    adjacency = reference_network_build(net)["adjacency"]
    region_sizes = [
        1 + int(np.sum(adjacency[i])) for i in range(net.n)
    ]
    assert max(region_sizes) <= net.max_degree

    seeds = list(range(100))
    report = run_fixed_broadcast(
        net, seeds, scale=1.0, monitor_limit=cap, instrument_node=0
    )
    by_seed: dict[int, bool] = {}
    for seed, _node, _proto, ok, _first, _budget in report.rows:
        by_seed[seed] = by_seed.get(seed, True) and ok
    good_trials = sum(by_seed.values())
    assert good_trials >= 99

    monitor_ok = [ok for name, ok, _ in report.verdicts if name == "region probability budget"]
    assert monitor_ok and monitor_ok[0]

    prob = report.certificates["prob"]
    freq = report.certificates["instrumented_freq"]
    slots = report.certificates["instrumented_slots"]
    floor = prob / 8.0
    sigma = math.sqrt(floor * (1.0 - floor) / slots)
    assert freq >= floor - 2.0 * sigma

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    stamp(
        3,
        f"{good_trials}/100 trials all-node success; per-slot success {freq:.3e} "
        f">= p/8 = {floor:.3e} (2-sigma {2*sigma:.1e}), {elapsed:.0f}s",
    )


# -- 4: slow start without degree knowledge -------------------------------------


SLOW_START_BUDGET_CONSTANT = 2048.0


def test_04_slow_start_safety_and_success():
    t0 = time.perf_counter()
    params = NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0, c_whp=2.0)

    trials_ok = 0
    clique = clique_topology(9, power=8.0, params=params)
    assert clique.max_degree == 8
    rep_clique = run_slow_start(
        clique, list(range(50)), scale=1.0,
        budget_constant=SLOW_START_BUDGET_CONSTANT,
    )
    rand = random_topology(64, 13.0, (1.0, 6.0), seed=23, params=params)
    assert rand.max_degree + 1 <= 16  # cap keeps saturated regions inside budget
    rep_rand = run_slow_start(
        rand, list(range(50)), scale=1.0,
        budget_constant=SLOW_START_BUDGET_CONSTANT,
    )

    for report, n in ((rep_clique, 9), (rep_rand, 64)):
        budget_ok = [ok for name, ok, _ in report.verdicts if name == "region probability budget"]
        assert budget_ok and budget_ok[0], "live region assertion fired"
        by_seed: dict[int, bool] = {}
        for seed, _node, _proto, ok, _first, _budget in report.rows:
            by_seed[seed] = by_seed.get(seed, True) and ok
        trials_ok += sum(by_seed.values())

    assert trials_ok >= 95
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    stamp(
        4,
        f"{trials_ok}/100 trials all-node success within the global budget; "
        f"0 region-budget violations; peaks {rep_clique.certificates['peak_region_sum']:.2e}/"
        f"{rep_rand.certificates['peak_region_sum']:.2e} vs caps "
        f"{rep_clique.certificates['region_cap']:.2e}/{rep_rand.certificates['region_cap']:.2e}, "
        f"{elapsed:.0f}s",
    )


# -- 5: variable transmission power ----------------------------------------------


def test_05_variable_power_guarantee():
    t0 = time.perf_counter()
    params = NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0, c_whp=2.0)
    net = random_topology(32, 8.0, (1.0, 4.0), seed=31, params=params)
    cap = region_probability_cap(params, net.range_ratio, net.n)
    prob = cap / max(1, net.max_degree)
    threshold = broadcast_budget(prob, params, net.n, 1.0)
    duration = math.ceil(1.5 * threshold)
    split = threshold // 2  # high level misses the threshold, low level clears it
    p_lo = float(net.powers.min())

    def schedule_for(node):
        low = max(p_lo, 0.75 * node.power)
        if low >= node.power:
            return PowerSchedule([(0, node.power)])
        return PowerSchedule([(0, node.power), (split, low)])

    report = run_variable_power(
        net, list(range(100)), schedule_for, duration=duration, scale=1.0
    )
    by_seed: dict[int, bool] = {}
    for row in report.rows:
        seed, ok = row[0], row[3]
        by_seed[seed] = by_seed.get(seed, True) and ok
    good = sum(by_seed.values())
    assert good >= 99
    radii = [row[7] for row in report.rows]
    assert all(r > 0 for r in radii)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    stamp(
        5,
        f"{good}/100 trials: every neighbor within the certified radius heard "
        f"the message (radii {min(radii):.2f}..{max(radii):.2f}), {elapsed:.0f}s",
    )


# -- 6: coloring correctness -------------------------------------------------------


def coloring_network():
    params = NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0, c_whp=1.5)
    net = random_topology(32, 9.0, (2.0, 4.0), seed=7, params=params)
    assert net.range_ratio <= 2.0
    return net


def test_06_coloring_valid_and_bounded():
    t0 = time.perf_counter()
    net = coloring_network()
    report = run_coloring(net, list(range(20)), scale=1.0)
    failed = [name for name, ok, _ in report.verdicts if not ok]
    assert not failed, f"verdicts failed: {failed}"
    colors = {row[2] for row in report.rows}
    ratio_sq = net.range_ratio**2
    bound = (math.ceil(9 * ratio_sq) + 1) + math.ceil(38 * ratio_sq) * (net.max_degree + 1)
    assert len(colors) <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    stamp(
        6,
        f"20/20 seeds valid; {len(colors)} distinct colors <= {bound}; "
        f"termination within {report.certificates['termination_budget']:.3g} slots, {elapsed:.0f}s",
    )


# -- 7: coloring under churn ---------------------------------------------------------


def test_07_coloring_under_churn():
    t0 = time.perf_counter()
    params = NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0, c_whp=1.5)
    net = random_topology(
        32, 9.0, (2.0, 4.0), seed=7, params=params, wake_window=150_000
    )
    report = run_coloring(net, list(range(20)), scale=1.0, forced_resignations=2)
    failed = [name for name, ok, _ in report.verdicts if not ok]
    assert not failed, f"verdicts failed: {failed}"
    resigned = sum(row[5] for row in report.rows)
    assert resigned >= 2 * 20  # the scripted resignations actually happened
    reuse_ok = [ok for name, ok, _ in report.verdicts if name == "color reuse table honored"]
    assert reuse_ok and reuse_ok[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    stamp(
        7,
        f"20/20 churn seeds valid under random wake-up and {resigned} resignations; "
        f"reuse tables honored, {elapsed:.0f}s",
    )


# -- 8: MIS ---------------------------------------------------------------------------


def test_08_mis():
    t0 = time.perf_counter()
    params = NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0, c_whp=1.5)
    # line family with power levels whose reach halo contains no pairwise
    # distance: every reception stays on a graph edge, which edge-domination
    # needs (see README on reception halos)
    weak = 2 * 1.2**3
    strong = 2 * 2.2**3
    ok_runs = 0
    for seed in range(50):
        net = line_topology(
            32, [weak, strong], seed=seed, jitter=0.01, params=params
        )
        assert halo_pair_count(net) == 0
        report = run_coloring(net, [seed], mis=True, scale=1.0)
        ok_runs += report.ok
    assert ok_runs == 50
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    stamp(8, f"50/50 MIS runs independent and dominating, {elapsed:.0f}s")


# -- 9: structural oracles ---------------------------------------------------------


def test_09_structural_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    params = NetworkParams.exact(alpha=3.0)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        net = random_small_network(rng, n, params)
        if net.max_degree != brute_max_degree(net):
            mismatches += 1
        if net.longest_chain != brute_longest_chain(net):
            mismatches += 1
        if abs(net.range_ratio - max(net.r_max) / min(net.r_max)) > 1e-12:
            mismatches += 1
        a, b = net.ids[0], net.ids[1]
        if ring_index(a, b, net) != brute_ring_index(net.dist(a, b), net.r_max_global):
            mismatches += 1
        ds = rng.integers(-40, 40, size=int(rng.integers(0, 6))).tolist()
        zeta = int(rng.integers(0, 8))
        if free_counter_value(ds, zeta) != brute_free_counter(ds, zeta):
            mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    stamp(9, f"500 instances, 0 oracle mismatches, {elapsed:.1f}s")


# -- 10: determinism -----------------------------------------------------------------


def test_10_determinism():
    t0 = time.perf_counter()
    params = NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0, c_whp=2.0)
    net = random_topology(16, 6.0, (1.0, 4.0), seed=3, params=params)
    a = run_fixed_broadcast(net, [42], scale=1.0).to_csv()
    b = run_fixed_broadcast(net, [42], scale=1.0).to_csv()
    assert a.encode() == b.encode()

    cnet = coloring_network()
    c = run_coloring(cnet, [5], scale=1.0).to_csv()
    d = run_coloring(cnet, [5], scale=1.0).to_csv()
    assert c.encode() == d.encode()
    elapsed = time.perf_counter() - t0
    stamp(10, f"byte-identical CSV rows on repeated seeds, {elapsed:.0f}s")
