"""Command-line surface: generate, analyze, run-broadcast, run-coloring,
run-mis, report."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .experiment import (
    ExperimentConfig,
    analyze_network,
    report_summary,
    run_experiment,
)
from .topology import generate_topology, load_topology, save_topology


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every run-* command takes."""
    parser.add_argument("--topology", required=True)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--csv", help="write per-node rows to this file")
    parser.add_argument("--trace", help="write a JSONL replay trace (first seed only)")
    parser.add_argument("--seeds", type=int, default=1, help="number of seeded trials")
    parser.add_argument("--seed-base", type=int, default=0, help="first seed value")


def _seed_list(args) -> list[int]:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    return list(range(args.seed_base, args.seed_base + args.seeds))


def _with_wakeup(network, mode: str):
    """Apply `--async-wakeup random:WINDOW`: uniform wake slots per node."""
    if mode == "none":
        return network
    kind, _, text = mode.partition(":")
    try:
        window = int(text) if kind == "random" else -1
    except ValueError:
        window = -1
    if window < 0:
        raise ValueError(
            f"--async-wakeup expects 'none' or 'random:WINDOW' with a "
            f"non-negative integer WINDOW, got {mode!r}"
        )
    import numpy as np

    from .model import Node, build_network

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((window, 0xAA))))
    nodes = [
        Node(
            id=node.id, x=node.x, y=node.y, power=node.power,
            wake_slot=int(rng.integers(0, window + 1)),
            sleep_slot=node.sleep_slot,
        )
        for node in network.nodes
    ]
    return build_network(nodes, network.params)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sinrsim",
        description="SINR network simulator for arbitrary transmission powers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a topology file")
    gen.add_argument("--preset", required=True,
                     choices=["random", "uniform", "grid", "chain", "clique"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--n", type=int)
    gen.add_argument("--side", type=float)
    gen.add_argument("--power", type=float)
    gen.add_argument("--power-lo", type=float)
    gen.add_argument("--power-hi", type=float)
    gen.add_argument("--rows", type=int)
    gen.add_argument("--cols", type=int)
    gen.add_argument("--spacing", type=float)
    gen.add_argument("--power-ratio", type=float)

    ana = sub.add_parser("analyze", help="print interference certificates")
    ana.add_argument("--topology", required=True)

    rb = sub.add_parser("run-broadcast", help="run a local-broadcast experiment")
    rb.add_argument("--protocol", required=True, choices=["fixed", "slowstart", "varpower"])
    _add_run_flags(rb)
    rb.add_argument("--budget-constant", type=float,
                    default=ExperimentConfig.slow_start_budget_constant,
                    help="slow-start global budget constant (default %(default)s)")

    rc = sub.add_parser("run-coloring", help="run the coloring protocol")
    rm = sub.add_parser("run-mis", help="run the MIS protocol")
    for run in (rc, rm):
        _add_run_flags(run)
        run.add_argument("--async-wakeup", default="none",
                         help="none, or random:WINDOW for uniform wake slots over "
                              "[0, WINDOW] (overrides the wake slots of the topology file)")
    rc.add_argument("--forced-resignations", type=int, default=0)

    rep = sub.add_parser("report", help="summarize a rows CSV produced by a run")
    rep.add_argument("--csv", required=True)

    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except (ValueError, OSError) as exc:
        print(f"sinrsim: error: {exc}", file=sys.stderr)
        return 2


def _run_command(args: argparse.Namespace) -> int:
    if args.command == "generate":
        kwargs = {}
        for name in ("n", "side", "power", "rows", "cols", "spacing",
                     "power_lo", "power_hi", "power_ratio"):
            if getattr(args, name) is not None:
                kwargs[name] = getattr(args, name)
        network = generate_topology(args.preset, seed=args.seed, **kwargs)
        save_topology(network, args.output)
        print(
            f"wrote {args.output}: n={network.n} max_degree={network.max_degree} "
            f"range_ratio={network.range_ratio:.3f} longest_chain={network.longest_chain}"
        )
        return 0

    if args.command == "analyze":
        network = load_topology(args.topology)
        print(json.dumps(analyze_network(network), indent=2, sort_keys=True))
        return 0

    if args.command.startswith("run-"):
        fields = {
            "seeds": _seed_list(args),
            "scale": args.scale,
            "csv_path": args.csv,
            "trace_path": args.trace,
            "network": load_topology(args.topology),
        }
        if args.command == "run-broadcast":
            fields.update(
                protocol=args.protocol,
                slow_start_budget_constant=args.budget_constant,
            )
        else:
            fields.update(
                protocol="mis" if args.command == "run-mis" else "coloring",
                network=_with_wakeup(fields["network"], args.async_wakeup),
                forced_resignations=getattr(args, "forced_resignations", 0),
            )
        report = run_experiment(ExperimentConfig(**fields))
        print(report_summary(report))
        return 0 if report.ok else 1

    if args.command == "report":
        with open(args.csv, encoding="utf-8") as fh:
            header = fh.readline().strip()
            rows = fh.readlines()
        print(f"columns: {header}")
        print(f"rows: {len(rows)}")
        if "success" in header:
            cols = header.split(",")
            idx = cols.index("success")
            good = sum(1 for line in rows if line.strip().split(",")[idx] == "True")
            print(f"success {100.0 * good / max(1, len(rows)):.1f}%")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
