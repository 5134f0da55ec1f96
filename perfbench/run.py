"""Outside-in benchmark for sinrsim.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload color32 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

The package is imported from ``src/`` of the checkout; nothing is installed.
Each workload runs fixed trials through public entry points
(``run_experiment`` once per seed, or ``analyze_network``) and checks every
trial against ``reference.json`` beside this file.  ``--seed`` only orders
the trials of a pass, so every run does identical work.

With ``--trace 0`` the run repeats whole passes over the workload's seeds
for about ``--seconds`` and reports the end-to-end metrics.  Their times are
scaled to a reference host speed (see `HostSpeed`), because the speed of a
shared host drifts by more than the metrics' bounds between runs.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics; the traced pass wraps, at runtime only, the public names
``sinrsim.experiment`` calls and keeps spans in memory until the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import heapq
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# relative tolerance for analyze400 certificate values: a reordered float
# sum may change the last bits, nothing more
CERT_REL_TOL = 1e-9
# multi-transmission slots per trial replayed through resolve_slot
ORACLE_SAMPLE = 16
# set-up is repeated at least this often and until this long, and the
# median build is reported
SETUP_MIN_BUILDS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_BUILDS = 2000
# host speed probe: event-loop steps per probe, seconds between probes, and
# the probe's time on the reference host (Intel Xeon 2-vCPU KVM guest,
# Python 3.11, in a quiet stretch)
PROBE_STEPS = 1500
PROBE_INTERVAL_S = 0.06
PROBE_REFERENCE_S = 3.2e-3


@dataclass(frozen=True)
class Workload:
    """One benchmark input set.  Simulation workloads share one topology
    across their run seeds; `analyze400` has no run seed, so its seeds are
    topology seeds."""

    n: int
    side: float
    power_range: tuple[float, float]
    topology_seed: Optional[int]  # None: each trial seed is a topology seed
    c_whp: float
    config: Optional[dict]  # ExperimentConfig fields; None runs analyze_network
    default: tuple[int, ...]
    heldout: tuple[int, ...]


WORKLOADS = {
    # acceptance-06 coloring: event-loop bookkeeping and protocol callbacks
    "color32": Workload(
        32, 9.0, (2.0, 4.0), 7, 1.5,
        {"protocol": "coloring", "scale": 1.0},
        default=(0, 1, 2), heldout=(3, 4, 5),
    ),
    # n=2000 fixed broadcast: many concurrent transmissions, big topology
    "bcast2k": Workload(
        2000, 12.0 * math.sqrt(2000 / 64), (1.0, 6.0), 11, 2.0,
        {"protocol": "fixed", "scale": 0.1},
        default=(0,), heldout=(1,),
    ),
    # acceptance-04 slow start: checkpoint/reception driven, busy monitor
    "slowstart64": Workload(
        64, 13.0, (1.0, 6.0), 23, 2.0,
        {"protocol": "slowstart", "scale": 1.0, "slow_start_budget_constant": 2048.0},
        default=tuple(range(10)), heldout=tuple(range(10, 20)),
    ),
    # certificate analysis, the only workload reaching sinrsim.analysis
    "analyze400": Workload(
        400, 30.0, (1.0, 6.0), None, 2.0, None,
        default=(11,), heldout=(12,),
    ),
}

CERT_KEYS = (
    "n", "max_degree", "range_ratio", "longest_chain", "halo_pairs", "region_cap",
    "prob", "region_sum_max", "far_interference_margin", "silence_min",
    "interference_max", "silence_sum", "interference_sum", "interference_true_sum",
)


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


def host_probe() -> float:
    """A fixed piece of work in the style of the simulator's event loop: a
    heap of events, dict traffic, float math and scalar draws from a NumPy
    generator.  It uses no sinrsim code, so it takes the same time on every
    commit."""
    rng = np.random.Generator(np.random.PCG64(12345))
    heap = [(i, i) for i in range(32)]
    counts: dict[int, int] = {}
    acc = 0.0
    for _ in range(PROBE_STEPS):
        slot, idx = heapq.heappop(heap)
        counts[idx] = counts.get(idx, 0) + 1
        acc += math.sqrt(slot + 1.0)
        heapq.heappush(heap, (slot + 1 + int(rng.random() * 16), idx))
    return acc


class HostSpeed:
    """Samples the host's speed while the benchmark measures.

    A shared host runs the same code up to 1.8 times slower for stretches of
    seconds to minutes.  While active, a SIGALRM timer runs `host_probe` in
    the main thread every `PROBE_INTERVAL_S`, in between the program's own
    bytecodes, and records how long it took.  `scaled` turns the wall time
    of an interval into seconds on the reference host: the probes' own time
    is taken out, and the rest is multiplied by the mean of
    ``PROBE_REFERENCE_S / probe`` over the probes that ran in it, which is
    the host's mean speed over the interval relative to the reference.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous: Any = None

    def _tick(self, _signum, _frame) -> None:
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        host_probe()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def probe_seconds(self, mark: int) -> float:
        """Time spent in probes since `mark`."""
        return sum(self.samples[mark:])

    def speed(self, mark: int) -> float:
        """Mean host speed since `mark`, relative to the reference host.  An
        interval too short for the timer is judged by one probe run now."""
        if self.mark() == mark:
            self.sample()
        return statistics.fmean(PROBE_REFERENCE_S / p for p in self.samples[mark:])


def import_sinrsim():
    """Import the package from this checkout's sources, never from an
    installed copy."""
    if not (SRC / "sinrsim" / "__init__.py").is_file():
        raise SetupError(f"no sinrsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sinrsim
    import sinrsim.experiment

    if Path(sinrsim.__file__).resolve().parent != (SRC / "sinrsim").resolve():
        raise SetupError(f"imported sinrsim from {sinrsim.__file__}, not from {SRC}")
    return sinrsim


def load_metric_specs() -> dict[str, dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


# ---------------------------------------------------------------------------
# inputs and trials
# ---------------------------------------------------------------------------


def build_inputs(sinr, wl: Workload, seeds: list[int]) -> dict[int, Any]:
    """The network each trial seed runs on."""
    params = sinr.NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0, c_whp=wl.c_whp)

    def build(topology_seed: int):
        return sinr.random_topology(
            wl.n, wl.side, wl.power_range, seed=topology_seed, params=params
        )

    if wl.topology_seed is not None:
        net = build(wl.topology_seed)
        return dict.fromkeys(seeds, net)
    return {seed: build(seed) for seed in seeds}


def timed_setup(sinr, wl: Workload, seeds: list[int],
                host: Optional[HostSpeed] = None) -> tuple[dict[int, Any], float]:
    """Build the inputs repeatedly; return the last build and the median
    build time, scaled to the reference host if `host` samples its speed."""
    times: list[float] = []
    nets: dict[int, Any] = {}
    start = host.mark() if host else 0
    elapsed = 0.0
    while len(times) < SETUP_MAX_BUILDS and (
        len(times) < SETUP_MIN_BUILDS or elapsed < SETUP_MIN_SECONDS
    ):
        nets = {}
        gc.collect()
        mark = host.mark() if host else 0
        t0 = time.perf_counter()
        nets = build_inputs(sinr, wl, seeds)
        wall = time.perf_counter() - t0
        elapsed += wall
        times.append(wall - host.probe_seconds(mark) if host else wall)
    build_s = statistics.median(times)
    return nets, build_s * host.speed(start) if host else build_s


def run_trial(sinr, wl: Workload, net, seed: int):
    """What a user runs for one trial: the report and its CSV, or the
    certificate dictionary."""
    if wl.config is None:
        return sinr.experiment.analyze_network(net)
    config = sinr.experiment.ExperimentConfig(network=net, seeds=(seed,), **wl.config)
    report = sinr.experiment.run_experiment(config)
    return report, report.to_csv()


def trial_result(wl: Workload, output) -> Any:
    """The value compared with the reference: a CSV digest or the
    certificate values."""
    if wl.config is None:
        values = {key: output[key] for key in CERT_KEYS if key in output}
        values["silence_sum"] = math.fsum(output["proximity_silence"].values())
        values["interference_sum"] = math.fsum(output["far_interference"].values())
        values["interference_true_sum"] = math.fsum(
            output["far_interference_true_alpha"].values()
        )
        return values
    _report, csv_text = output
    return hashlib.sha256(csv_text.encode("utf-8")).hexdigest()


def trial_failure(wl: Workload, output, result, expected) -> Optional[str]:
    """Why the trial failed, or None."""
    if wl.config is None:
        if output["silence_min"] < 0.25:
            return f"proximity silence {output['silence_min']} below 1/4"
        if output["interference_max"] > output["far_interference_margin"]:
            return "far interference exceeds the margin"
        for key in CERT_KEYS:
            if not math.isclose(result[key], expected[key], rel_tol=CERT_REL_TOL):
                return f"{key} = {result[key]!r}, reference {expected[key]!r}"
        return None
    report, _csv = output
    if not report.ok:
        bad = [name for name, passed, _ in report.verdicts if not passed]
        return f"verdicts failed: {bad}"
    if result != expected:
        return f"CSV sha256 {result} differs from reference {expected}"
    return None


@dataclass
class PassResult:
    seconds: float  # wall time of the trials
    scaled: Optional[float] = None  # the same, in reference-host seconds
    results: dict[int, Any] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)


def run_pass(sinr, wl, nets, seeds, reference, tracer: Optional["Tracer"] = None,
             host: Optional[HostSpeed] = None) -> PassResult:
    """One trial per seed, in the given order.  Only the trials are timed;
    with `host`, their time is also scaled to the reference host."""
    out = PassResult(seconds=0.0)
    mark = host.mark() if host else 0
    for seed in seeds:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = run_trial(sinr, wl, nets[seed], seed)
            else:
                output = tracer.trial(seed, run_trial, sinr, wl, nets[seed], seed)
        except Exception:  # noqa: BLE001 - a raising trial is a failed trial
            out.seconds += time.perf_counter() - t0
            out.failures[seed] = traceback.format_exc(limit=3)
            continue
        out.seconds += time.perf_counter() - t0
        result = trial_result(wl, output)
        out.results[seed] = result
        reason = trial_failure(wl, output, result, reference[str(seed)])
        if reason is not None:
            out.failures[seed] = reason
    if host:
        out.scaled = (out.seconds - host.probe_seconds(mark)) * host.speed(mark)
    return out


# ---------------------------------------------------------------------------
# tracing from outside the package
# ---------------------------------------------------------------------------


class Tracer:
    """Spans and per-trial call aggregates around calls into sinrsim.

    Coarse calls keep one span each (id, name, trial, parent, start, end);
    hot callbacks and the monitor are only aggregated per trial.  A call's
    self time is its duration minus the time of the wrapped calls nested in
    it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, Any, Optional[int], float, float]] = []
        self.totals: dict[Any, dict[str, list]] = {}  # trial -> name -> [calls, incl_s, self_s]
        self.current: Any = None
        self._stack: list[list] = []  # [name, start, child_s, span id or None]
        self._next_id = 0
        self._patched: list[tuple[Any, str, Any]] = []

    def call(self, name: str, keep_span: bool, fn: Callable, *args, **kwargs):
        span_id = None
        if keep_span:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            entry = self.totals.setdefault(self.current, {}).setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[2]
            if span_id is not None:
                parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
                self.spans.append((span_id, name, self.current, parent, frame[1], end))

    def trial(self, trial_id, fn: Callable, *args):
        """One trial as an `experiment` span; spans inside it carry its id."""
        self.current = trial_id
        try:
            return self.call("experiment", True, fn, *args)
        finally:
            self.current = None

    def patch(self, owner, attr: str, replacement: Callable) -> None:
        """Set owner.attr until `restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, keep_span: bool) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, keep_span, original, *args, **kwargs)

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summed(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) over all trials."""
        calls, incl, self_s = 0, 0.0, 0.0
        for per_trial in self.totals.values():
            entry = per_trial.get(name)
            if entry:
                calls += entry[0]
                incl += entry[1]
                self_s += entry[2]
        return calls, incl, self_s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, trial, parent, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "trial": trial,
                                     "parent": parent, "start": start, "end": end}) + "\n")
            for trial, per_name in self.totals.items():
                for name, (calls, incl, self_s) in sorted(per_name.items()):
                    fh.write(json.dumps({"aggregate": name, "trial": trial, "calls": calls,
                                         "incl_s": incl, "self_s": self_s}) + "\n")


class LayerCounts:
    """Counts taken in the traced pass.  Physical-layer counts come from
    outcomes recorded without a limit; sampled multi-transmission slots are
    replayed through the reference `resolve_slot`."""

    def __init__(self, sinr) -> None:
        self.sinr = sinr
        self.counts = dict.fromkeys(
            ("sim_slots", "eventful_slots", "transmissions", "single_tx_slots",
             "multi_tx_slots", "listeners_scanned", "receptions", "multi_tx_receptions",
             "oracle_checked", "oracle_mismatches", "monitor_updates"),
            0,
        )
        self.mismatched_trials: set = set()

    def add_run(self, network, sim, trial) -> None:
        c = self.counts
        c["sim_slots"] += sim.n_slots
        c["eventful_slots"] += sim.eventful_slots
        wake = np.array([node.wake_slot for node in network.nodes])
        sleep = np.array([
            math.inf if node.sleep_slot is None else node.sleep_slot for node in network.nodes
        ])
        multi = []
        for outcome in sim.outcomes:
            c["transmissions"] += len(outcome.transmissions)
            c["receptions"] += len(outcome.receptions)
            if len(outcome.transmissions) == 1:
                c["single_tx_slots"] += 1
                continue
            multi.append(outcome)
            awake = int(np.count_nonzero((wake <= outcome.slot) & (outcome.slot < sleep)))
            c["multi_tx_slots"] += 1
            c["listeners_scanned"] += awake - len(outcome.transmissions)
            c["multi_tx_receptions"] += len(outcome.receptions)
        step = max(1, len(multi) // ORACLE_SAMPLE)
        for outcome in multi[::step][:ORACLE_SAMPLE]:
            c["oracle_checked"] += 1
            if not self._oracle_agrees(network, outcome):
                c["oracle_mismatches"] += 1
                self.mismatched_trials.add(trial)

    def _oracle_agrees(self, network, outcome) -> bool:
        awake = {v for v in network.ids if network.awake_at(v, outcome.slot)}
        try:
            ref = self.sinr.resolve_slot(network, list(outcome.transmissions), awake=awake)
        except Exception:  # noqa: BLE001 - a raising oracle is a mismatch
            return False
        got = sorted((listener, tx.sender) for listener, tx in outcome.receptions)
        return got == sorted((listener, tx.sender) for listener, tx in ref.receptions)


def traced_pass(sinr, wl, nets, seeds, reference) -> tuple[PassResult, Tracer, LayerCounts]:
    """One pass with every layer boundary wrapped."""
    ex = sinr.experiment
    tracer = Tracer()
    layers = LayerCounts(sinr)
    for attr, name in (
        ("verify_local_broadcast", "validate.verify_local_broadcast"),
        ("validate_coloring", "validate.validate_coloring"),
        ("halo_pair_count", "validate.halo_pair_count"),
        ("expected_far_interference", "analysis.expected_far_interference"),
        ("proximity_silence_probability", "analysis.proximity_silence_probability"),
    ):
        tracer.wrap(ex, attr, name, keep_span=True)
    for cls in (sinr.FixedProbBroadcaster, sinr.SlowStartBroadcaster, sinr.ColoringMachine):
        module = cls.__module__.rsplit(".", 1)[-1]
        for method in ("wake", "poll", "on_receive", "on_transmit"):
            if method in cls.__dict__:
                tracer.wrap(cls, method, f"{module}.{method}", keep_span=False)

    monitor_call = ex.RegionBudgetMonitor.__call__

    def traced_monitor(monitor, slot, updates):
        layers.counts["monitor_updates"] += len(updates)
        return tracer.call("monitor", False, monitor_call, monitor, slot, updates)

    tracer.patch(ex.RegionBudgetMonitor, "__call__", traced_monitor)
    run_simulation = ex.run_simulation

    def traced_run_simulation(network, *args, trace=None, **kwargs):
        if trace is None:
            trace = sinr.TraceConfig(record_outcomes=True)
        sim = tracer.call("engine.run_simulation", True, run_simulation,
                          network, *args, trace=trace, **kwargs)
        tracer.call("trace.bookkeeping", False, layers.add_run, network, sim, tracer.current)
        return sim

    tracer.patch(ex, "run_simulation", traced_run_simulation)
    try:
        result = run_pass(sinr, wl, nets, seeds, reference, tracer)
    finally:
        tracer.restore()
    for trial in layers.mismatched_trials:
        result.failures.setdefault(trial, "physical resolution differs from resolve_slot")
    return result, tracer, layers


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, layers: LayerCounts, traced_s: float, untraced_s: float,
                  build_s: float, rss_mb: float) -> dict[str, float]:
    """Per-layer metrics.  Busy time is given as a share of the traced
    pass, so a layer a workload never reaches reads 0 as a share, not as a
    time; multiply by `trace.traced_pass_s` for seconds."""
    c = layers.counts

    def share(seconds: float) -> float:
        return seconds / traced_s

    _calls, sim_incl, sim_self = tracer.summed("engine.run_simulation")
    m: dict[str, float] = {
        "topology.build_s": build_s,
        "model.rss_after_build_mb": rss_mb,
        "engine.share": share(sim_incl),
        "engine.self_share": share(sim_self),
    }
    for key in ("sim_slots", "eventful_slots", "transmissions"):
        m[f"engine.{key}"] = c[key]
    for key in ("single_tx_slots", "multi_tx_slots", "listeners_scanned", "receptions",
                "multi_tx_receptions", "oracle_checked", "oracle_mismatches"):
        m[f"phy.{key}"] = c[key]
    m["phy.rx_per_scan"] = (
        c["multi_tx_receptions"] / c["listeners_scanned"] if c["listeners_scanned"] else 0.0
    )
    for module in ("broadcast", "coloring"):
        for method in ("wake", "poll", "on_receive", "on_transmit"):
            calls, _incl, self_s = tracer.summed(f"{module}.{method}")
            m[f"{module}.{method}.calls"] = calls
            m[f"{module}.{method}.share"] = share(self_s)
    calls, _incl, self_s = tracer.summed("monitor")
    m["monitor.calls"] = calls
    m["monitor.updates"] = c["monitor_updates"]
    m["monitor.share"] = share(self_s)
    for name in ("validate.verify_local_broadcast", "validate.validate_coloring",
                 "validate.halo_pair_count", "analysis.expected_far_interference",
                 "analysis.proximity_silence_probability"):
        calls, _incl, self_s = tracer.summed(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.share"] = share(self_s)
    m["experiment.self_share"] = share(tracer.summed("experiment")[2])
    m["trace.untraced_pass_s"] = untraced_s
    m["trace.traced_pass_s"] = traced_s
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    m["trace.spans"] = len(tracer.spans)
    return m


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def select_seeds(wl: Workload, spec: str, reference: dict) -> list[int]:
    if spec == "default":
        seeds = list(wl.default)
    elif spec == "heldout":
        seeds = list(wl.heldout)
    else:
        seeds = [int(part) for part in spec.split(",")]
    missing = [seed for seed in seeds if str(seed) not in reference]
    if missing:
        raise SetupError(f"no reference output for seeds {missing}")
    return seeds


def run_workload(args) -> int:
    sinr = import_sinrsim()
    specs = load_metric_specs()
    wl = WORKLOADS[args.workload]
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    seeds = select_seeds(wl, args.seeds, reference)
    random.Random(args.seed).shuffle(seeds)

    if args.trace:
        nets, build_s = timed_setup(sinr, wl, seeds)
        rss_after_build = peak_rss_mb()
        passes = [run_pass(sinr, wl, nets, seeds, reference)]
        traced, tracer, layers = traced_pass(sinr, wl, nets, seeds, reference)
        for seed, result in traced.results.items():
            if result != passes[0].results.get(seed):
                traced.failures.setdefault(seed, "traced output differs from untraced output")
        passes.append(traced)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        with HostSpeed() as host:
            nets, build_s = timed_setup(sinr, wl, seeds, host)
            passes = [run_pass(sinr, wl, nets, seeds, reference, host=host)]
            # whole passes while the next one still fits in the run
            while sum(p.seconds for p in passes) + passes[-1].seconds <= args.seconds:
                passes.append(run_pass(sinr, wl, nets, seeds, reference, host=host))
    attempted = len(seeds) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    if args.trace:
        metrics = layer_metrics(tracer, layers, traced.seconds, passes[0].seconds,
                                build_s, rss_after_build)
        wanted = specs["per_layer"]
    else:
        wanted = specs["end_to_end"]
        metrics = {
            "setup_s": build_s,
            "run_s": statistics.median(p.scaled for p in passes),
            "peak_rss_mb": peak_rss_mb(),
            "pass_frac": (attempted - failed) / attempted,
        }
    if set(metrics) != set(wanted):
        raise SetupError(f"metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json")
    print(f"workload {args.workload}: seeds {seeds}, {len(passes)} passes, "
          f"pass seconds {[round(p.seconds, 3) for p in passes]}")
    if not args.trace:
        print(f"host: {len(host.samples)} probes, mean speed {host.speed(0):.3f} of the "
              f"reference; scaled pass seconds {[round(p.scaled, 3) for p in passes]}")
    for p in passes:
        for seed, reason in sorted(p.failures.items()):
            print(f"FAILED seed {seed}: {reason}")
    for name, unit in wanted.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined: dict[str, dict] = {}
    attempted = failed = 0
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--seeds", args.seeds,
               "--reference", str(args.reference)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        status = max(status, proc.returncode)
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="orders the trials of a pass")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", default="default",
                        help="'default', 'heldout' or a comma list of seeds with a reference")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
