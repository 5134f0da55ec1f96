"""Experiment orchestration: seeded trials, live safety monitoring,
validator verdicts, CSV/report emission."""

from __future__ import annotations

import csv
import io
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .analysis import (
    RegionBudgetMonitor,
    _far_interference,
    # analyze_network no longer calls this, so perfbench/run.py's wrapper
    # of it measures nothing (0 calls); the import only keeps that wrapper's
    # lookup by name working until the benchmark wraps _far_interference
    # instead (ROADMAP item 7)
    expected_far_interference,  # noqa: F401
    proximity_silence_probability,
    region_probability_cap,
    variable_power_guarantee,
)
from .broadcast import (
    FixedProbBroadcaster,
    SlowStartBroadcaster,
    broadcast_budget,
    verify_local_broadcast,
)
from .coloring import ColoringConstants, ColoringMachine, validate_coloring, validate_mis
from .engine import SimTrace, TraceConfig, run_simulation
from .model import Network, _is_number


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
# experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """One experiment: a network, a protocol, and the trial plan."""

    protocol: str  # fixed | slowstart | varpower | coloring | mis
    network: Network
    seeds: Sequence[int] = (0,)
    scale: Optional[float] = None
    csv_path: Optional[str] = None
    trace_path: Optional[str] = None  # JSONL replay records, first seed only
    slow_start_budget_constant: Optional[float] = None  # slowstart only; None: run_slow_start's default
    forced_resignations: int = 0

    def __post_init__(self) -> None:
        _check_inputs(self.protocol, self.seeds, self.scale,
                      self.slow_start_budget_constant, self.forced_resignations)


def _check_inputs(
    protocol: str,
    seeds: Sequence[int],
    scale: Optional[float],
    budget_constant: Optional[float] = None,
    resignations: int = 0,
) -> None:
    """The rules on an experiment's inputs, for :class:`ExperimentConfig`
    and each runner alike; the names are the config's fields."""
    if not seeds:
        raise ValueError("seeds must not be empty")
    for seed in seeds:
        if not (_is_number(seed, int, numbers.Integral) and seed >= 0):
            raise ValueError(f"seeds must be integers >= 0, got {seed!r}")
    if protocol not in ("fixed", "slowstart", "varpower", "coloring", "mis"):
        raise ValueError(f"unknown protocol {protocol!r}")
    # coloring alone has a resignation script (MIS colors are 0/1, so it
    # would find no non-leader to resign), slow start alone a budget constant
    churn = protocol == "coloring"
    slow = protocol == "slowstart"
    for name, value, ok, rule in (
        ("forced_resignations", resignations,
         _is_number(resignations, int, numbers.Integral)
         and (resignations >= 0 if churn else resignations == 0),
         "an integer >= 0" if churn else f"0 for protocol {protocol!r}"),
        ("slow_start_budget_constant", budget_constant,
         budget_constant is None
         or (slow and _is_number(budget_constant, float, numbers.Real)
             and 0.0 < budget_constant < math.inf),
         "finite and > 0" if slow else f"unset for protocol {protocol!r}"),
        ("scale", scale,
         scale is None or (_is_number(scale, float, numbers.Real) and 0.0 < scale <= 1.0),
         "in (0, 1]"),
    ):
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value!r}")


# ---------------------------------------------------------------------------
# broadcast experiments
# ---------------------------------------------------------------------------


def _cap_for(network: Network, scale: Optional[float] = None) -> tuple[float, float, float]:
    """The region cap, the fixed probability cap / max_degree that respects
    it when the degree is known, and `scale` defaulted from the network."""
    scale = network.params.scale if scale is None else scale
    cap = region_probability_cap(network.params, network.range_ratio, network.n)
    return cap, cap / max(1, network.max_degree), scale


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
    src, _dst, d = network.pairs_within(reach)
    return int(np.count_nonzero(network.r_bcast[src] < d))


_TRACE_OUTCOME_LIMIT = 100_000  # eventful slots kept for a --trace file


def _simulate(network, factory, max_slots, seed, *, limit=None, scripted=None, trace_path=None):
    """The seeded run every experiment makes: with `limit`, a live
    region-budget monitor asserts it; with `trace_path`, the outcomes (up to
    `_TRACE_OUTCOME_LIMIT` eventful slots) are exported there as JSONL.
    Returns the trace and the monitor, None without a limit."""
    monitor = RegionBudgetMonitor(network, limit) if limit else None
    config = (TraceConfig(record_outcomes=True, outcome_limit=_TRACE_OUTCOME_LIMIT)
              if trace_path else None)
    # looked up at call time and given `trace` by keyword: tests and the
    # benchmark's traced pass replace `run_simulation` in this module
    trace = run_simulation(
        network, factory, max_slots=max_slots, seed=seed, monitor=monitor,
        scripted=scripted, trace=config,
    )
    if trace_path:
        if trace.outcomes_truncated:
            warnings.warn(
                f"trace {trace_path} holds only the first {_TRACE_OUTCOME_LIMIT} "
                "eventful slots of the run",
                RuntimeWarning,
                stacklevel=3,
            )
        trace.export_jsonl(trace_path)
    return trace, monitor


def _broadcast_trials(
    network: Network,
    seeds: Sequence[int],
    kind: str,
    machine: Callable,
    budget: int,
    certificates: dict[str, float],
    *,
    monitor_limit: Optional[float] = None,
    guarantee: Optional[Callable] = None,
    trace_path: Optional[str] = None,
) -> ExperimentReport:
    """The trial loop every broadcast protocol shares.  Per seed, all nodes
    run `machine(node)`; each node's local broadcast is then judged
    over the `budget` slots after its wake-up, against its broadcasting
    range or, with `guarantee(machine) -> (level, radius)`, against the
    certified radius (the row then ends with level and radius).
    `monitor_limit` attaches a live region-budget monitor to every run."""
    wake_span = max(node.wake_slot for node in network.nodes)
    columns = ("seed", "node_id", "protocol", "success", "first_success_slot", "budget")
    columns += ("level", "radius") if guarantee else ()
    report = ExperimentReport(kind, columns, rows=[], verdicts=[], certificates=certificates)
    violations, peak = 0, 0.0
    for seed in seeds:
        trace, monitor = _simulate(
            network, machine, wake_span + budget + 2, seed, limit=monitor_limit,
            trace_path=trace_path if seed == seeds[0] else None,
        )
        if monitor:
            violations += len(monitor.violations)
            peak = max(peak, monitor.peak)
        for node in network.nodes:
            certified = guarantee(trace.machines[node.id]) if guarantee else ()
            window = (node.wake_slot, node.wake_slot + budget)
            ok = verify_local_broadcast(
                trace, network, node.id, window, radius=certified[1] if certified else None
            )
            report.rows.append(
                (seed, node.id, kind, ok, trace.first_full_success[node.id], budget, *certified)
            )
    good = sum(1 for row in report.rows if row[3])
    verdict = ("guaranteed radius reached every neighbor" if guarantee
               else "all nodes broadcast within budget")
    report.add_verdict(verdict, good == len(report.rows), f"{good}/{len(report.rows)}")
    if monitor_limit:
        report.certificates["peak_region_sum"] = peak
        report.add_verdict(
            "region probability budget", violations == 0, f"{violations} violations"
        )
    return report


def run_fixed_broadcast(
    network: Network,
    seeds: Sequence[int],
    *,
    scale: Optional[float] = None,
    trace_path: Optional[str] = None,
) -> ExperimentReport:
    """Every node runs the fixed-probability broadcaster simultaneously,
    with probability cap / max_degree for the known-degree budget."""
    _check_inputs("fixed", seeds, scale)
    cap, prob, scale = _cap_for(network, scale)
    budget = broadcast_budget(prob, network.params, network.n, scale)
    return _broadcast_trials(
        network, seeds, "fixed",
        lambda node: FixedProbBroadcaster(node, prob=prob, budget=budget),
        budget, {"region_cap": cap, "prob": prob}, trace_path=trace_path,
    )


def run_slow_start(
    network: Network,
    seeds: Sequence[int],
    *,
    scale: Optional[float] = None,
    budget_constant: Optional[float] = None,
    trace_path: Optional[str] = None,
) -> ExperimentReport:
    """Slow-start broadcasters without degree knowledge; the region budget
    assertion runs live on every probability change.  The budget is
    `budget_constant` (64 when None) times scale (max_degree + log n)
    range_ratio^2 log n slots."""
    _check_inputs("slowstart", seeds, scale, budget_constant)
    budget_constant = 64.0 if budget_constant is None else budget_constant
    params = network.params
    cap, _, scale = _cap_for(network, scale)
    prob_cap = cap / 16.0
    log_n = math.log(max(2, network.n))
    phase_len = max(1, math.ceil(scale * 4.0 * params.c_whp * log_n))
    cap_target = broadcast_budget(prob_cap, params, max(2, network.n), scale)
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
    return _broadcast_trials(
        network, seeds, "slowstart",
        lambda node: SlowStartBroadcaster(
            node, prob_cap=prob_cap, n=network.n, phase_len=phase_len,
            cap_slots_target=cap_target, budget=budget,
        ),
        budget, {"region_cap": cap, "prob_cap": prob_cap, "cap_target": cap_target},
        monitor_limit=cap, trace_path=trace_path,
    )


def run_variable_power(
    network: Network,
    seeds: Sequence[int],
    *,
    scale: Optional[float] = None,
    trace_path: Optional[str] = None,
) -> ExperimentReport:
    """Fixed-probability broadcasters with a power drop.  Each node sends
    at full power for half the broadcast threshold, then at 0.75 of it
    (never below the network's least power), for 1.5 thresholds in all;
    success is judged against the radius certified from each node's power
    profile."""
    _check_inputs("varpower", seeds, scale)
    cap, prob, scale = _cap_for(network, scale)
    threshold = broadcast_budget(prob, network.params, network.n, scale)
    duration = math.ceil(1.5 * threshold)
    split = max(1, threshold // 2)
    bounds = (float(network.powers.min()), float(network.powers.max()))

    def machine(node):
        low = max(bounds[0], 0.75 * node.power)
        pieces = [(0, node.power)] if low >= node.power else [(0, node.power), (split, low)]
        return FixedProbBroadcaster(
            node, prob=prob, budget=duration, pieces=pieces, power_bounds=bounds
        )

    return _broadcast_trials(
        network, seeds, "varpower", machine, duration,
        {"region_cap": cap, "prob": prob, "threshold": float(threshold)},
        guarantee=lambda m: variable_power_guarantee(
            m.power_trace(), prob, network.params, network.n, scale
        ),
        trace_path=trace_path,
    )


# ---------------------------------------------------------------------------
# coloring / MIS experiments
# ---------------------------------------------------------------------------


def run_coloring(
    network: Network,
    seeds: Sequence[int],
    *,
    mis: bool = False,
    scale: Optional[float] = None,
    forced_resignations: int = 0,
    trace_path: Optional[str] = None,
) -> ExperimentReport:
    """Full protocol runs with live budget assertion and all validators."""
    _check_inputs("mis" if mis else "coloring", seeds, scale, resignations=forced_resignations)
    cap, _, scale = _cap_for(network, scale)
    constants = ColoringConstants.derive(
        network.params, cap, network.max_degree, network.range_ratio, network.n, scale
    )
    wake_span = max(node.wake_slot for node in network.nodes)
    static_wake = wake_span == 0 and forced_resignations == 0
    budget = constants.termination_budget(network.longest_chain)
    slots = 2 * wake_span + 2 * budget + 16
    prob_limit = (
        9.0 * network.range_ratio**2 * constants.prob_leader
        + constants.max_degree * constants.prob_std
    )

    report = ExperimentReport(
        kind="mis" if mis else "coloring",
        columns=("seed", "node_id", "mis" if mis else "final_color", "colored_at_slot",
                 "competes_visited", "resigned_count"),
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

    # every verdict in report order; the two in `counts` pass on no violations
    counts = {"region probability budget": 0, "counter floors": 0}
    checks: dict[str, bool] = dict.fromkeys(
        ["validator"]
        + ([] if mis else ["color count within bound", "leader independence", "leader density"])
        + [*counts, "consecutive competes bounded"]
        + (["termination within budget"] if static_wake else [])
        + (["color reuse table honored"] if forced_resignations else []),
        True,
    )
    first_problem = ""  # the validator's, in the first seed it failed
    peak = 0.0
    for seed in seeds:
        trace, monitor = _simulate(
            network, lambda node: ColoringMachine(node, constants, mis=mis),
            slots, seed, limit=prob_limit,
            scripted=(_resignation_script(forced_resignations, constants, wake_span)
                      if forced_resignations else None),
            trace_path=trace_path if seed == seeds[0] else None,
        )
        counts["region probability budget"] += len(monitor.violations)
        peak = max(peak, monitor.peak)
        colors = {v: trace.machines[v].color for v in network.ids}
        if mis:
            # 1 for members: MIS members end with color 0
            values = {v: None if c is None else int(c == 0) for v, c in colors.items()}
            verdict = validate_mis(network, values)
            valid = verdict.ok
        else:
            values = colors
            verdict = validate_coloring(network, colors, constants)
            # missing colors and equal-colored links come first among
            # the problems; leader ones, after them, have their own verdict
            valid = verdict.valid
            checks["color count within bound"] &= verdict.within_bound
            checks["leader independence"] &= verdict.leader_independent
            checks["leader density"] &= _leader_density_ok(network, colors, constants)
        if not valid and not first_problem:
            first_problem = f"seed {seed}: {verdict.problems[0]}"
        checks["validator"] &= valid
        for v in network.ids:
            machine = trace.machines[v]
            counts["counter floors"] += machine.floor_violations
            checks["consecutive competes bounded"] &= (
                machine.max_consecutive_competes <= constants.compete_span
            )
            if static_wake:
                checks["termination within budget"] &= (
                    machine.colored_at is not None and machine.colored_at <= budget
                )
            report.rows.append(
                (seed, v, values[v], machine.colored_at,
                 machine.competes_visited, machine.resigned_count)
            )
        if forced_resignations:
            checks["color reuse table honored"] &= _reuse_consistent(trace, network)

    report.certificates["peak_region_sum"] = peak
    checks.update((name, count == 0) for name, count in counts.items())
    details = {name: f"{count} violations" for name, count in counts.items()}
    details["validator"] = first_problem
    for name, passed in checks.items():
        report.add_verdict(name, passed, details.get(name, ""))
    return report


def _resignation_script(count: int, constants: ColoringConstants, wake_span: int):
    """A scripted probe, ``(first slot, probe)``, forcing `count` resignations
    of colored non-leader nodes, at most one per call; it ends once they all
    landed, so the run can stop as soon as everyone has recovered."""

    victims: set[int] = set()
    calls = 0
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
        nonlocal calls
        calls += 1
        for node_id in sorted(machines):
            m = machines[node_id]
            if (
                m.phase == "colored"
                and m.color is not None
                and m.color >= constants.leader_colors
                and node_id not in victims
            ):
                m.force_resign(slot)
                victims.add(node_id)
                break
        return None if len(victims) >= count or calls >= probes else slot + interval

    return start, probe


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
    is_leader = np.array([
        (c := colors.get(v)) is not None and c < constants.leader_colors for v in network.ids
    ], dtype=bool)
    ratio_sq = network.range_ratio**2
    lim1 = math.ceil(9.0 * ratio_sq)
    lim2 = math.ceil(19.0 * ratio_sq)
    # one query: leaders reach out two maximum ranges, everyone else nowhere
    src, dst, d = network.pairs_within(np.where(is_leader, 2.0 * network.r_max_global, 0.0))
    lead = is_leader[src] & is_leader[dst]
    near2 = np.bincount(src[lead], minlength=network.n)
    near = np.bincount(src[lead & (d <= network.r_max_global)], minlength=network.n)
    return bool((near <= lim1).all() and (near2 <= lim2).all())


# ---------------------------------------------------------------------------
# config-driven entry point
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute all trials, run the validators, and write the CSV when a
    path is configured.  The caller turns `report.ok` into the process exit
    status."""
    network = config.network
    seeds = list(config.seeds)
    common = {"scale": config.scale, "trace_path": config.trace_path}
    if config.protocol == "fixed":
        report = run_fixed_broadcast(network, seeds, **common)
    elif config.protocol == "slowstart":
        report = run_slow_start(
            network, seeds, budget_constant=config.slow_start_budget_constant, **common
        )
    elif config.protocol == "varpower":
        report = run_variable_power(network, seeds, **common)
    else:
        report = run_coloring(
            network, seeds, mis=config.protocol == "mis",
            forced_resignations=config.forced_resignations, **common,
        )
    if config.csv_path:
        report.to_csv(config.csv_path)
    return report


# ---------------------------------------------------------------------------
# analyze: certificate report for a topology
# ---------------------------------------------------------------------------


def analyze_network(network: Network) -> dict:
    """The closed-form certificates for the canonical assignment
    p = cap / max_degree: per-node proximity-silence probability, far
    interference against the margin, and per-region probability sums."""
    params = network.params
    cap, prob, _ = _cap_for(network)
    probs = dict.fromkeys(network.ids, prob)
    p = np.full(network.n, prob)
    margin = (params.delta - 1.0) * params.noise_hi / 2.0
    silence = {
        v: proximity_silence_probability(network, probs, v) for v in network.ids
    }
    # the certificate is stated for the worst-case exponent; the true-exponent
    # expectation is informational and the same numbers when the two coincide
    interference = dict(
        zip(network.ids, _far_interference(network, p, network.ids, params.alpha_hi))
    )
    if params.alpha_true == params.alpha_hi:
        interference_true = dict(interference)
    else:
        interference_true = dict(
            zip(network.ids, _far_interference(network, p, network.ids, params.alpha_true))
        )
    monitor = RegionBudgetMonitor(network, math.inf)
    monitor(0, [(i, prob, prob) for i in range(network.n)])
    region_sums = dict(zip(network.ids, monitor.sum_even))
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
