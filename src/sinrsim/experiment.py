"""Experiment orchestration: seeded trials, live safety monitoring,
validator verdicts, CSV/report emission."""

from __future__ import annotations

import csv
import io
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .analysis import (
    _region_sums,
    expected_far_interference,
    proximity_silence_probability,
    region_probability_cap,
    variable_power_guarantee,
)
from .broadcast import (
    FixedProbBroadcaster,
    PowerSchedule,
    SlowStartBroadcaster,
    VariablePowerBroadcaster,
    broadcast_budget,
    verify_local_broadcast,
)
from .coloring import ColoringConstants, ColoringMachine, validate_coloring, validate_mis
from .engine import SimTrace, TraceConfig, run_simulation
from .model import Network
from .topology import load_topology


# ---------------------------------------------------------------------------
# live probability-budget monitor
# ---------------------------------------------------------------------------


class RegionBudgetMonitor:
    """Asserts, at every instant the probabilities change, that the summed
    transmission probability inside each broadcasting region stays within
    `limit` -- separately for even and odd slots, since the coloring
    protocol alternates message classes by slot parity."""

    def __init__(self, network: Network, limit: float, tol: float = 1e-9):
        self.network = network
        self.limit = limit
        self.tol = tol
        n = network.n
        self.containing: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            self.containing[i].append(i)
            for j in np.nonzero(network.adjacency[i])[0]:
                self.containing[int(j)].append(i)
        self.even = [0.0] * n
        self.odd = [0.0] * n
        self.sum_even = [0.0] * n
        self.sum_odd = [0.0] * n
        self.peak = 0.0
        self.violations: list[tuple[int, int, float]] = []

    def __call__(self, slot: int, updates: list[tuple[int, float, float]]) -> None:
        affected: set[int] = set()
        for node_id, even_p, odd_p in updates:
            i = self.network.index(node_id)
            de = even_p - self.even[i]
            do = odd_p - self.odd[i]
            self.even[i] = even_p
            self.odd[i] = odd_p
            for r in self.containing[i]:
                self.sum_even[r] += de
                self.sum_odd[r] += do
                affected.add(r)
        for r in affected:
            worst = max(self.sum_even[r], self.sum_odd[r])
            if worst > self.peak:
                self.peak = worst
            if worst > self.limit + self.tol:
                self.violations.append((slot, self.network.ids[r], worst))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    kind: str
    columns: tuple[str, ...]
    rows: list[tuple]
    verdicts: list[tuple[str, bool, str]]  # (name, passed, detail)
    certificates: dict[str, float] = field(default_factory=dict)
    wall_clock: float = 0.0

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.verdicts)

    def add_verdict(self, name: str, passed: bool, detail: str = "") -> None:
        self.verdicts.append((name, passed, detail))

    def to_csv(self, path: Optional[str] = None) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        text = buf.getvalue()
        if path:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return text


def report_summary(report: ExperimentReport) -> str:
    """Human-readable recap: success rates, budgets, certificate margins,
    verdicts."""
    lines = [f"== {report.kind} experiment =="]
    lines.append(f"rows: {len(report.rows)}")
    if report.kind in ("fixed", "slowstart", "varpower"):
        succ_col = report.columns.index("success")
        node_col = report.columns.index("node_id")
        slot_col = report.columns.index("first_success_slot")
        budget_col = report.columns.index("budget")
        total = len(report.rows)
        good = sum(1 for row in report.rows if row[succ_col])
        rate = 100.0 * good / total if total else 100.0
        lines.append(f"success {rate:.1f}% ({good}/{total} node-trials)")
        slots = [row[slot_col] for row in report.rows if row[slot_col] is not None]
        if slots:
            budgets = [row[budget_col] for row in report.rows]
            lines.append(
                f"mean slots-to-success {sum(slots) / len(slots):.0f}"
                f" vs budget {max(budgets)}"
            )
        failures = [row for row in report.rows if not row[succ_col]]
        if failures:
            lines.append(
                f"first failure: node {failures[0][node_col]} seed {failures[0][0]}"
            )
    if report.kind in ("coloring", "mis"):
        color_col = report.columns.index("final_color" if report.kind == "coloring" else "mis")
        colors = {row[color_col] for row in report.rows if row[color_col] is not None}
        lines.append(f"distinct colors used: {len(colors)}")
    for key, value in sorted(report.certificates.items()):
        lines.append(f"{key}: {value:.6g}")
    for name, passed, detail in report.verdicts:
        mark = "PASS" if passed else "FAIL"
        lines.append(f"[{mark}] {name}" + (f" -- {detail}" if detail else ""))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# broadcast experiments
# ---------------------------------------------------------------------------


def _cap_for(network: Network, n_hint: Optional[int]) -> tuple[float, int]:
    n_hint = n_hint or network.n
    return region_probability_cap(network.params, network.range_ratio, n_hint), n_hint


def halo_pair_count(network: Network) -> int:
    """Ordered pairs whose distance exceeds the sender's broadcasting range
    but not its raw physical reach.  Receptions across such pairs happen off
    the communication graph whenever interference is low; they are harmless
    for coloring but can break *edge*-domination of an MIS, so MIS
    experiments should run on topologies where this count is zero."""
    params = network.params
    reach = (network.powers / (params.noise_true * params.beta_true)) ** (
        1.0 / params.alpha_true
    )
    halo = (network.r_bcast[:, None] < network.distances) & (
        network.distances <= reach[:, None]
    )
    np.fill_diagonal(halo, False)
    return int(np.count_nonzero(halo))


_TRACE_OUTCOME_LIMIT = 100_000  # eventful slots kept for a --trace file


def _trace_config(trace_path, seed, first_seed):
    if trace_path and seed == first_seed:
        return TraceConfig(record_outcomes=True, outcome_limit=_TRACE_OUTCOME_LIMIT)
    return None


def _maybe_export(trace, trace_path, seed, first_seed):
    if trace_path and seed == first_seed:
        if trace.outcomes_truncated:
            warnings.warn(
                f"trace {trace_path} holds only the first {_TRACE_OUTCOME_LIMIT} "
                "eventful slots of the run",
                RuntimeWarning,
                stacklevel=2,
            )
        trace.export_jsonl(trace_path)


def run_fixed_broadcast(
    network: Network,
    seeds: Sequence[int],
    *,
    scale: Optional[float] = None,
    n_hint: Optional[int] = None,
    monitor_limit: Optional[float] = None,
    instrument_node: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> ExperimentReport:
    """Every node runs the fixed-probability broadcaster simultaneously.

    With `instrument_node` given, the certificates carry that node's
    empirical per-slot full-broadcast frequency aggregated over all trials
    ('instrumented_freq' over 'instrumented_slots').
    """
    t0 = time.perf_counter()
    params = network.params
    scale = params.scale if scale is None else scale
    cap, n_hint = _cap_for(network, n_hint)
    prob = cap / max(1, network.max_degree)
    budget = broadcast_budget(prob, params, n_hint, scale)
    wake_span = max(node.wake_slot for node in network.nodes)
    report = ExperimentReport(
        kind="fixed",
        columns=("seed", "node_id", "protocol", "success", "first_success_slot", "budget"),
        rows=[],
        verdicts=[],
        certificates={"region_cap": cap, "prob": prob},
    )
    monitor_failures = 0
    instrumented_hits = 0
    instrumented_slots = 0
    for seed in seeds:
        monitor = (
            RegionBudgetMonitor(network, monitor_limit) if monitor_limit else None
        )
        trace = run_simulation(
            network,
            lambda node, rng: FixedProbBroadcaster(node, rng, prob=prob, budget=budget),
            max_slots=wake_span + budget + 2,
            seed=seed,
            monitor=monitor,
            trace=_trace_config(trace_path, seed, seeds[0]),
        )
        _maybe_export(trace, trace_path, seed, seeds[0])
        if monitor and monitor.violations:
            monitor_failures += len(monitor.violations)
        if instrument_node is not None:
            instrumented_hits += trace.full_success_count[instrument_node]
            instrumented_slots += budget
        for node in network.nodes:
            window = (node.wake_slot, node.wake_slot + budget)
            ok = verify_local_broadcast(trace, network, node.id, window)
            report.rows.append(
                (seed, node.id, "fixed", ok, trace.first_full_success[node.id], budget)
            )
    succ_rows = sum(1 for row in report.rows if row[3])
    report.add_verdict(
        "all nodes broadcast within budget",
        succ_rows == len(report.rows),
        f"{succ_rows}/{len(report.rows)}",
    )
    if monitor_limit:
        report.add_verdict(
            "region probability budget",
            monitor_failures == 0,
            f"{monitor_failures} violations",
        )
    if instrument_node is not None and instrumented_slots:
        report.certificates["instrumented_freq"] = instrumented_hits / instrumented_slots
        report.certificates["instrumented_slots"] = float(instrumented_slots)
    report.wall_clock = time.perf_counter() - t0
    return report


def run_slow_start(
    network: Network,
    seeds: Sequence[int],
    *,
    scale: Optional[float] = None,
    n_hint: Optional[int] = None,
    budget_constant: float = 64.0,
    monitor: bool = True,
    trace_path: Optional[str] = None,
) -> ExperimentReport:
    """Slow-start broadcasters without degree knowledge; the region budget
    assertion runs live on every probability change."""
    t0 = time.perf_counter()
    params = network.params
    scale = params.scale if scale is None else scale
    cap, n_hint = _cap_for(network, n_hint)
    prob_cap = cap / 16.0
    log_n = math.log(max(2, n_hint))
    phase_len = max(1, math.ceil(scale * 4.0 * params.c_whp * log_n))
    cap_target = max(1, math.ceil(scale * 8.0 * (16.0 / cap) * params.c_whp * log_n))
    budget = max(
        1,
        math.ceil(
            scale
            * budget_constant
            * (network.max_degree + log_n)
            * network.range_ratio**2
            * log_n
        ),
    )
    wake_span = max(node.wake_slot for node in network.nodes)
    report = ExperimentReport(
        kind="slowstart",
        columns=("seed", "node_id", "protocol", "success", "first_success_slot", "budget"),
        rows=[],
        verdicts=[],
        certificates={"region_cap": cap, "prob_cap": prob_cap, "cap_target": cap_target},
    )
    total_violations = 0
    peak = 0.0
    for seed in seeds:
        budget_monitor = RegionBudgetMonitor(network, cap) if monitor else None
        trace = run_simulation(
            network,
            lambda node, rng: SlowStartBroadcaster(
                node,
                rng,
                prob_cap=prob_cap,
                n_hint=n_hint,
                phase_len=phase_len,
                cap_slots_target=cap_target,
                budget=budget,
            ),
            max_slots=wake_span + budget + 2,
            seed=seed,
            monitor=budget_monitor,
            trace=_trace_config(trace_path, seed, seeds[0]),
        )
        _maybe_export(trace, trace_path, seed, seeds[0])
        if budget_monitor:
            total_violations += len(budget_monitor.violations)
            peak = max(peak, budget_monitor.peak)
        for node in network.nodes:
            window = (node.wake_slot, node.wake_slot + budget)
            ok = verify_local_broadcast(trace, network, node.id, window)
            report.rows.append(
                (seed, node.id, "slowstart", ok, trace.first_full_success[node.id], budget)
            )
    succ_rows = sum(1 for row in report.rows if row[3])
    report.certificates["peak_region_sum"] = peak
    report.add_verdict(
        "all nodes broadcast within budget",
        succ_rows == len(report.rows),
        f"{succ_rows}/{len(report.rows)}",
    )
    if monitor:
        report.add_verdict(
            "region probability budget", total_violations == 0, f"{total_violations} violations"
        )
    report.wall_clock = time.perf_counter() - t0
    return report


def run_variable_power(
    network: Network,
    seeds: Sequence[int],
    schedule_for: Callable[[Any], PowerSchedule],
    *,
    duration: Optional[int] = None,
    scale: Optional[float] = None,
    n_hint: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> ExperimentReport:
    """Variable-power broadcasters; success is judged against the radius
    certified from each node's power profile."""
    t0 = time.perf_counter()
    params = network.params
    scale = params.scale if scale is None else scale
    cap, n_hint = _cap_for(network, n_hint)
    prob = cap / max(1, network.max_degree)
    threshold = broadcast_budget(prob, params, n_hint, scale)
    duration = duration or 2 * threshold
    bounds = (float(network.powers.min()), float(network.powers.max()))
    wake_span = max(node.wake_slot for node in network.nodes)
    report = ExperimentReport(
        kind="varpower",
        columns=(
            "seed", "node_id", "protocol", "success",
            "first_success_slot", "budget", "level", "radius",
        ),
        rows=[],
        verdicts=[],
        certificates={"region_cap": cap, "prob": prob, "threshold": float(threshold)},
    )
    for seed in seeds:
        trace = run_simulation(
            network,
            lambda node, rng: VariablePowerBroadcaster(
                node,
                rng,
                prob=prob,
                schedule=schedule_for(node),
                duration=duration,
                power_bounds=bounds,
            ),
            max_slots=wake_span + duration + 2,
            seed=seed,
            trace=_trace_config(trace_path, seed, seeds[0]),
        )
        _maybe_export(trace, trace_path, seed, seeds[0])
        for node in network.nodes:
            machine = trace.machines[node.id]
            level, radius = variable_power_guarantee(
                machine.power_trace(), prob, params, n_hint, scale
            )
            window = (node.wake_slot, node.wake_slot + duration)
            ok = verify_local_broadcast(trace, network, node.id, window, radius=radius)
            report.rows.append(
                (seed, node.id, "varpower", ok, trace.first_full_success[node.id],
                 duration, level, radius)
            )
    succ_rows = sum(1 for row in report.rows if row[3])
    report.add_verdict(
        "guaranteed radius reached every neighbor",
        succ_rows == len(report.rows),
        f"{succ_rows}/{len(report.rows)}",
    )
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# coloring / MIS experiments
# ---------------------------------------------------------------------------


def run_coloring(
    network: Network,
    seeds: Sequence[int],
    *,
    mis: bool = False,
    scale: Optional[float] = None,
    n_hint: Optional[int] = None,
    forced_resignations: int = 0,
    max_slots: Optional[int] = None,
    check_termination: bool = True,
    trace_path: Optional[str] = None,
) -> ExperimentReport:
    """Full protocol runs with live budget assertion and all validators."""
    t0 = time.perf_counter()
    params = network.params
    scale = params.scale if scale is None else scale
    cap, n_hint = _cap_for(network, n_hint)
    constants = ColoringConstants.derive(
        params, cap, network.max_degree, network.range_ratio, n_hint, scale
    )
    wake_span = max(node.wake_slot for node in network.nodes)
    static_wake = wake_span == 0 and forced_resignations == 0
    budget = constants.termination_budget(network.longest_chain)
    slots = max_slots or (2 * wake_span + 2 * budget + 16)
    prob_limit = (
        9.0 * network.range_ratio**2 * constants.prob_leader
        + constants.max_degree * constants.prob_std
    )

    kind = "mis" if mis else "coloring"
    columns = (
        ("seed", "node_id", "mis", "colored_at_slot", "competes_visited", "resigned_count")
        if mis
        else ("seed", "node_id", "final_color", "colored_at_slot",
              "competes_visited", "resigned_count")
    )
    report = ExperimentReport(
        kind=kind,
        columns=columns,
        rows=[],
        verdicts=[],
        certificates={
            "region_cap": cap,
            "prob_budget": prob_limit,
            "slots_std": float(constants.slots_std),
            "termination_budget": float(budget),
            "halo_pairs": float(halo_pair_count(network)),
        },
    )

    all_valid = True
    all_within = True
    all_leader_ok = True
    monitor_violations = 0
    floor_violations = 0
    density_ok = True
    competes_ok = True
    termination_ok = True
    reuse_ok = True
    peak = 0.0

    for seed in seeds:
        monitor = RegionBudgetMonitor(network, prob_limit)
        scripted = (
            _resignation_script(forced_resignations, constants, wake_span)
            if forced_resignations
            else None
        )
        trace = run_simulation(
            network,
            lambda node, rng: ColoringMachine(node, rng, constants, mis=mis),
            max_slots=slots,
            seed=seed,
            monitor=monitor,
            scripted=scripted,
            trace=_trace_config(trace_path, seed, seeds[0]),
        )
        _maybe_export(trace, trace_path, seed, seeds[0])
        monitor_violations += len(monitor.violations)
        peak = max(peak, monitor.peak)
        colors = {v: trace.machines[v].color for v in network.ids}
        if mis:
            members = {v: (None if c is None else c == 0) for v, c in colors.items()}
            verdict = validate_mis(network, members)
            all_valid &= verdict.ok
        else:
            verdict = validate_coloring(network, colors, constants)
            all_valid &= verdict.complete and verdict.valid
            all_within &= verdict.within_bound
            all_leader_ok &= verdict.leader_independent
            density_ok &= _leader_density_ok(network, colors, constants)
        for v in network.ids:
            machine = trace.machines[v]
            floor_violations += machine.floor_violations
            competes_ok &= machine.max_consecutive_competes <= constants.compete_span
            if static_wake and check_termination:
                termination_ok &= (
                    machine.colored_at is not None and machine.colored_at <= budget
                )
            value = colors[v] if not mis else (None if colors[v] is None else int(colors[v] == 0))
            report.rows.append(
                (seed, v, value, machine.colored_at,
                 machine.competes_visited, machine.resigned_count)
            )
        if forced_resignations:
            reuse_ok &= _reuse_consistent(trace, network)

    report.certificates["peak_region_sum"] = peak
    report.add_verdict("validator", all_valid)
    if not mis:
        report.add_verdict("color count within bound", all_within)
        report.add_verdict("leader independence", all_leader_ok)
        report.add_verdict("leader density", density_ok)
    report.add_verdict("region probability budget", monitor_violations == 0,
                       f"{monitor_violations} violations")
    report.add_verdict("counter floors", floor_violations == 0,
                       f"{floor_violations} violations")
    report.add_verdict("consecutive competes bounded", competes_ok)
    if static_wake and check_termination:
        report.add_verdict("termination within budget", termination_ok)
    if forced_resignations:
        report.add_verdict("color reuse table honored", reuse_ok)
    report.wall_clock = time.perf_counter() - t0
    return report


def _resignation_script(count: int, constants: ColoringConstants, wake_span: int):
    """Probe the network periodically and force `count` resignations of
    colored non-leader nodes; once done, cancel the remaining probes so the
    run can stop as soon as everyone has recovered."""

    state = {"resigned": 0, "victims": set()}
    # probes start once the first followers can plausibly be colored and
    # repeat on a short cadence until both resignations landed
    start = wake_span + 2 * (
        constants.learning_budget
        + constants.listen_slots
        + 4 * constants.slots_std
        + constants.max_degree * constants.slots_leader
    )
    interval = 2 * 4 * constants.slots_std
    probes = 2000

    def probe(machines, slot):
        if state["resigned"] >= count:
            return True
        for node_id in sorted(machines):
            m = machines[node_id]
            if (
                m.phase == "colored"
                and m.color is not None
                and m.color >= constants.leader_colors
                and node_id not in state["victims"]
            ):
                m.force_resign(slot)
                state["victims"].add(node_id)
                state["resigned"] += 1
                break
        return state["resigned"] >= count

    return [(start + k * interval, probe) for k in range(probes)]


def _reuse_consistent(trace: SimTrace, network: Network) -> bool:
    """Every color a leader handed out matches its reuse table, and
    re-requesting nodes got their original color back."""
    for v in network.ids:
        machine = trace.machines[v]
        serves: dict[int, set[int]] = {}
        for _slot, kind, data in machine.log:
            if kind == "serve":
                serves.setdefault(data["target"], set()).add(data["color"])
        for target, assigned in serves.items():
            if len(assigned) != 1:
                return False
            if machine.reuse.get(target) not in assigned:
                return False
    return True


def _leader_density_ok(network, colors, constants: ColoringConstants) -> bool:
    """Geometric density of the final leader set: at most ceil(9 ratio^2)
    other leaders within one maximum range, ceil(19 ratio^2) within two."""
    leaders = [
        v for v in network.ids
        if colors.get(v) is not None and colors[v] < constants.leader_colors
    ]
    ratio_sq = network.range_ratio**2
    lim1 = math.ceil(9.0 * ratio_sq)
    lim2 = math.ceil(19.0 * ratio_sq)
    for v in leaders:
        near = sum(
            1 for u in leaders
            if u != v and network.dist(v, u) <= network.r_max_global
        )
        near2 = sum(
            1 for u in leaders
            if u != v and network.dist(v, u) <= 2.0 * network.r_max_global
        )
        if near > lim1 or near2 > lim2:
            return False
    return True


# ---------------------------------------------------------------------------
# config-driven entry point
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """One experiment: a topology, a protocol, and the trial plan."""

    protocol: str  # fixed | slowstart | varpower | coloring | mis
    topology: Optional[str] = None  # path to a topology file
    network: Optional[Network] = None  # or an in-memory network
    seeds: Sequence[int] = (0,)
    scale: Optional[float] = None
    n_hint: Optional[int] = None
    csv_path: Optional[str] = None
    summary_path: Optional[str] = None
    trace_path: Optional[str] = None  # JSONL replay records, first seed only
    slow_start_budget_constant: float = 64.0
    varpower_high_fraction: float = 0.5
    forced_resignations: int = 0

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if self.scale is not None and not (0.0 < self.scale <= 1.0):
            raise ValueError("scale must lie in (0, 1]")
        if (self.topology is None) == (self.network is None):
            raise ValueError("give exactly one of topology path or network")
        if self.protocol not in ("fixed", "slowstart", "varpower", "coloring", "mis"):
            raise ValueError(f"unknown protocol {self.protocol!r}")


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute all trials, run the validators, and write the CSV and the
    text summary when paths are configured.  The caller turns `report.ok`
    into the process exit status."""
    network = config.network if config.network is not None else load_topology(config.topology)
    seeds = list(config.seeds)
    if config.protocol == "fixed":
        report = run_fixed_broadcast(
            network, seeds, scale=config.scale, n_hint=config.n_hint,
            trace_path=config.trace_path,
        )
    elif config.protocol == "slowstart":
        report = run_slow_start(
            network, seeds, scale=config.scale, n_hint=config.n_hint,
            budget_constant=config.slow_start_budget_constant,
            trace_path=config.trace_path,
        )
    elif config.protocol == "varpower":
        params = network.params
        scale = params.scale if config.scale is None else config.scale
        cap, n_hint = _cap_for(network, config.n_hint)
        prob = cap / max(1, network.max_degree)
        threshold = broadcast_budget(prob, params, n_hint, scale)
        duration = math.ceil(1.5 * threshold)
        split = max(1, int(config.varpower_high_fraction * threshold))
        floor_power = float(network.powers.min())

        def schedule_for(node):
            low = max(floor_power, 0.75 * node.power)
            if low >= node.power:
                return PowerSchedule([(0, node.power)])
            return PowerSchedule([(0, node.power), (split, low)])

        report = run_variable_power(
            network, seeds, schedule_for, duration=duration,
            scale=config.scale, n_hint=config.n_hint,
            trace_path=config.trace_path,
        )
    else:
        report = run_coloring(
            network, seeds, mis=config.protocol == "mis",
            scale=config.scale, n_hint=config.n_hint,
            forced_resignations=config.forced_resignations,
            trace_path=config.trace_path,
        )
    if config.csv_path:
        report.to_csv(config.csv_path)
    if config.summary_path:
        with open(config.summary_path, "w", encoding="utf-8") as fh:
            fh.write(report_summary(report) + "\n")
    return report


# ---------------------------------------------------------------------------
# analyze: certificate report for a topology
# ---------------------------------------------------------------------------


def analyze_network(network: Network, n_hint: Optional[int] = None) -> dict:
    """The closed-form certificates for the canonical assignment
    p = cap / max_degree: per-node proximity-silence probability, far
    interference against the margin, and per-region probability sums."""
    params = network.params
    cap, n_hint = _cap_for(network, n_hint)
    prob = cap / max(1, network.max_degree)
    probs = dict.fromkeys(network.ids, prob)
    margin = (params.delta - 1.0) * params.noise_hi / 2.0
    silence = {
        v: proximity_silence_probability(network, probs, v) for v in network.ids
    }
    # the certificate is stated for the worst-case exponent; the true-exponent
    # expectation is informational and the same numbers when the two coincide
    interference = {
        v: expected_far_interference(network, probs, v, params.alpha_hi)
        for v in network.ids
    }
    if params.alpha_true == params.alpha_hi:
        interference_true = dict(interference)
    else:
        interference_true = {
            v: expected_far_interference(network, probs, v, params.alpha_true)
            for v in network.ids
        }
    region_sums = dict(zip(network.ids, _region_sums(network, probs)))
    return {
        "n": network.n,
        "max_degree": network.max_degree,
        "range_ratio": network.range_ratio,
        "longest_chain": network.longest_chain,
        "halo_pairs": halo_pair_count(network),
        "region_cap": cap,
        "prob": prob,
        "region_sums": region_sums,
        "region_sum_max": max(region_sums.values()),
        "far_interference_margin": margin,
        "proximity_silence": silence,
        "far_interference": interference,
        "far_interference_true_alpha": interference_true,
        "silence_min": min(silence.values()),
        "interference_max": max(interference.values()),
    }


__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "RegionBudgetMonitor",
    "analyze_network",
    "halo_pair_count",
    "report_summary",
    "run_coloring",
    "run_experiment",
    "run_fixed_broadcast",
    "run_slow_start",
    "run_variable_power",
]
