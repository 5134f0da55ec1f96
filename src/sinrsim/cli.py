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


def _add_seeds(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seeds", type=int, default=1, help="number of seeded trials")
    parser.add_argument("--seed-base", type=int, default=0, help="first seed value")


def _seed_list(args) -> list[int]:
    if args.seeds < 1:
        raise SystemExit("--seeds must be at least 1")
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
    rb.add_argument("--topology", required=True)
    rb.add_argument("--scale", type=float, default=None)
    rb.add_argument("--csv", help="write per-node rows to this file")
    rb.add_argument("--trace", help="write a JSONL replay trace (first seed only)")
    rb.add_argument("--budget-constant", type=float, default=64.0,
                    help="slow-start global budget constant")
    rb.add_argument("--high-power-frac", type=float, default=None,
                    help="varpower: fraction of the broadcast threshold spent at full "
                         "power before the power drop (default "
                         f"{ExperimentConfig.varpower_high_fraction})")
    _add_seeds(rb)

    rc = sub.add_parser("run-coloring", help="run the coloring protocol")
    rc.add_argument("--topology", required=True)
    rc.add_argument("--scale", type=float, default=None)
    rc.add_argument("--csv")
    rc.add_argument("--trace", help="write a JSONL replay trace (first seed only)")
    rc.add_argument("--async-wakeup", default="none",
                    help="none, or random:WINDOW for uniform wake slots over [0, WINDOW] "
                         "(overrides the wake slots of the topology file)")
    rc.add_argument("--forced-resignations", type=int, default=0)
    _add_seeds(rc)

    rm = sub.add_parser("run-mis", help="run the MIS protocol")
    rm.add_argument("--topology", required=True)
    rm.add_argument("--scale", type=float, default=None)
    rm.add_argument("--csv")
    rm.add_argument("--trace", help="write a JSONL replay trace (first seed only)")
    rm.add_argument("--async-wakeup", default="none")
    _add_seeds(rm)

    rep = sub.add_parser("report", help="summarize a rows CSV produced by a run")
    rep.add_argument("--csv", required=True)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"sinrsim: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        kwargs = {}
        for name in ("n", "side", "power", "rows", "cols", "spacing"):
            value = getattr(args, name)
            if value is not None:
                kwargs[name] = value
        if args.power_lo is not None:
            kwargs["power_lo"] = args.power_lo
        if args.power_hi is not None:
            kwargs["power_hi"] = args.power_hi
        if args.power_ratio is not None:
            kwargs["power_ratio"] = args.power_ratio
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

    if args.command == "run-broadcast":
        config = ExperimentConfig(
            protocol=args.protocol,
            topology=args.topology,
            seeds=_seed_list(args),
            scale=args.scale,
            csv_path=args.csv,
            trace_path=args.trace,
            slow_start_budget_constant=args.budget_constant,
            **(
                {}
                if args.high_power_frac is None
                else {"varpower_high_fraction": args.high_power_frac}
            ),
        )
        report = run_experiment(config)
        print(report_summary(report))
        return 0 if report.ok else 1

    if args.command in ("run-coloring", "run-mis"):
        network = _with_wakeup(load_topology(args.topology), args.async_wakeup)
        config = ExperimentConfig(
            protocol="mis" if args.command == "run-mis" else "coloring",
            network=network,
            seeds=_seed_list(args),
            scale=args.scale,
            csv_path=args.csv,
            trace_path=args.trace,
            forced_resignations=getattr(args, "forced_resignations", 0),
        )
        report = run_experiment(config)
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
