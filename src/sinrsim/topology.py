"""Topology presets and the on-disk topology format.

The file format is JSON with two top-level fields::

    {"params": {"alpha_lo": ..., "alpha_hi": ..., "alpha_true": ...,
                "beta_lo": ..., "beta_hi": ..., "beta_true": ...,
                "noise_lo": ..., "noise_hi": ..., "noise_true": ...,
                "delta": ..., "c_whp": ..., "scale": ...},
     "nodes": [{"id": 0, "x": 1.0, "y": 2.0, "power": 1.0,
                "wake_slot": 0, "sleep_slot": null}, ...]}

All numbers are decimal; lengths and powers are in abstract units.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .model import Network, NetworkParams, Node, broadcast_range, build_network

_PARAM_FIELDS = (
    "alpha_lo", "alpha_hi", "alpha_true",
    "beta_lo", "beta_hi", "beta_true",
    "noise_lo", "noise_hi", "noise_true",
    "delta", "c_whp", "scale",
)

# nodes closer than this fraction of the area side are resampled
_MIN_SEPARATION = 1e-6


def save_topology(network: Network, path: str) -> None:
    doc = {
        "params": {name: getattr(network.params, name) for name in _PARAM_FIELDS},
        "nodes": [
            {
                "id": node.id,
                "x": node.x,
                "y": node.y,
                "power": node.power,
                "wake_slot": node.wake_slot,
                **({"sleep_slot": node.sleep_slot} if node.sleep_slot is not None else {}),
            }
            for node in network.nodes
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_topology(path: str) -> Network:
    def refuse(constant: str):
        raise ValueError(f"topology file {path}: non-finite number {constant} is not allowed")

    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=refuse)
        except json.JSONDecodeError as exc:
            raise ValueError(f"topology file {path} is not valid JSON: {exc}") from exc
    try:
        params = NetworkParams(**{name: doc["params"][name] for name in _PARAM_FIELDS})
        nodes = [
            Node(
                id=entry["id"],
                x=entry["x"],
                y=entry["y"],
                power=entry["power"],
                wake_slot=entry.get("wake_slot", 0),
                sleep_slot=entry.get("sleep_slot"),
            )
            for entry in doc["nodes"]
        ]
    except KeyError as exc:
        raise ValueError(f"topology file {path} misses field {exc}") from exc
    return build_network(nodes, params)


def random_topology(
    n: int,
    side: float,
    power_range: tuple[float, float],
    seed: int,
    params: Optional[NetworkParams] = None,
    wake_window: int = 0,
) -> Network:
    """Nodes uniform over a square, powers uniform over `power_range`;
    optional uniform wake slots over [0, wake_window]."""
    if n < 1 or side <= 0.0:
        raise ValueError("need n >= 1 nodes and a positive area side")
    lo, hi = power_range
    if not (0.0 < lo <= hi):
        raise ValueError("power range must be positive and ordered")
    params = params or NetworkParams.exact()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x7090))))
    placed: list[tuple[float, float]] = []
    nodes: list[Node] = []
    limit = _MIN_SEPARATION * side
    for i in range(n):
        for _attempt in range(1000):
            x = rng.uniform(0.0, side)
            y = rng.uniform(0.0, side)
            if all(math.hypot(x - a, y - b) > limit for a, b in placed):
                break
        else:
            raise ValueError("could not place nodes with the minimum separation")
        placed.append((x, y))
        power = rng.uniform(lo, hi)
        wake = int(rng.integers(0, wake_window + 1)) if wake_window else 0
        nodes.append(Node(id=i, x=x, y=y, power=power, wake_slot=wake))
    return build_network(nodes, params)


def uniform_topology(
    n: int,
    side: float,
    power: float,
    seed: int,
    params: Optional[NetworkParams] = None,
) -> Network:
    """Random placement with one shared power: range ratio 1, no one-way
    links."""
    return random_topology(n, side, (power, power), seed, params)


def grid_topology(
    rows: int,
    cols: int,
    spacing: float,
    power: float,
    params: Optional[NetworkParams] = None,
) -> Network:
    if rows < 1 or cols < 1 or spacing <= 0.0:
        raise ValueError("grid needs positive dimensions and spacing")
    params = params or NetworkParams.exact()
    nodes = [
        Node(id=r * cols + c, x=c * spacing, y=r * spacing, power=power)
        for r in range(rows)
        for c in range(cols)
    ]
    return build_network(nodes, params)


def chain_topology(
    n: int,
    power_ratio: float,
    params: Optional[NetworkParams] = None,
    base_power: float = 64.0,
) -> Network:
    """Strictly descending powers along a line, spaced so each node reaches
    its successor but never the other way: the worst case that forces the
    longest possible chain of one-way links (length n-1).

    With a mild `power_ratio` a node may also reach nodes beyond its direct
    successor; those extra shortcuts point forward as well and leave the
    longest chain unchanged.
    """
    if n < 1:
        raise ValueError("need n >= 1 nodes")
    if not (0.0 < power_ratio < 1.0):
        raise ValueError("power ratio must lie strictly between 0 and 1")
    params = params or NetworkParams.exact()
    shrink = power_ratio ** (1.0 / params.alpha_lo)  # broadcast-range ratio per hop
    step_frac = (1.0 + shrink) / 2.0  # strictly between shrink and 1
    nodes = []
    x = 0.0
    power = base_power
    for i in range(n):
        nodes.append(Node(id=i, x=x, y=0.0, power=power))
        x += step_frac * broadcast_range(power, params)
        power *= power_ratio
    return build_network(nodes, params)


def line_topology(
    n: int,
    power_levels: "list[float]",
    seed: int = 0,
    spacing: float = 1.0,
    jitter: float = 0.0,
    params: Optional[NetworkParams] = None,
    wake_window: int = 0,
) -> Network:
    """Nodes along a line at integer multiples of `spacing`, powers cycling
    through or drawn from `power_levels` (per-seed assignment).

    Because consecutive distances are near-integers, the power levels can be
    chosen so that no pairwise distance falls between a node's broadcasting
    range and its raw physical reach, which keeps every reception on a
    graph edge.
    """
    if n < 1:
        raise ValueError("need n >= 1 nodes")
    if not power_levels:
        raise ValueError("need at least one power level")
    params = params or NetworkParams.exact()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x11ea))))
    nodes = []
    for i in range(n):
        off = rng.uniform(-jitter, jitter) if jitter else 0.0
        power = power_levels[int(rng.integers(0, len(power_levels)))]
        wake = int(rng.integers(0, wake_window + 1)) if wake_window else 0
        nodes.append(Node(id=i, x=i * spacing + off, y=0.0, power=power, wake_slot=wake))
    return build_network(nodes, params)


def clique_topology(
    n: int,
    power: float = 8.0,
    params: Optional[NetworkParams] = None,
) -> Network:
    """Equal-power nodes on a small circle, everyone inside everyone's
    broadcasting range."""
    if n < 1:
        raise ValueError("need n >= 1 nodes")
    params = params or NetworkParams.exact()
    radius = 0.4 * broadcast_range(power, params)
    nodes = [
        Node(
            id=i,
            x=radius * math.cos(2.0 * math.pi * i / n),
            y=radius * math.sin(2.0 * math.pi * i / n),
            power=power,
        )
        for i in range(n)
    ]
    return build_network(nodes, params)


def generate_topology(kind: str, seed: int = 0, **kwargs) -> Network:
    """String-dispatch used by the command line."""
    if kind == "random":
        return random_topology(
            n=int(kwargs.pop("n", 32)),
            side=float(kwargs.pop("side", 8.0)),
            power_range=(
                float(kwargs.pop("power_lo", 1.0)),
                float(kwargs.pop("power_hi", 4.0)),
            ),
            seed=seed,
            **kwargs,
        )
    if kind == "uniform":
        return uniform_topology(
            n=int(kwargs.pop("n", 32)),
            side=float(kwargs.pop("side", 8.0)),
            power=float(kwargs.pop("power", 2.0)),
            seed=seed,
            **kwargs,
        )
    if kind == "grid":
        return grid_topology(
            rows=int(kwargs.pop("rows", 4)),
            cols=int(kwargs.pop("cols", 4)),
            spacing=float(kwargs.pop("spacing", 1.0)),
            power=float(kwargs.pop("power", 2.0)),
            **kwargs,
        )
    if kind == "chain":
        return chain_topology(
            n=int(kwargs.pop("n", 5)),
            power_ratio=float(kwargs.pop("power_ratio", 0.2)),
            **kwargs,
        )
    if kind == "clique":
        return clique_topology(
            n=int(kwargs.pop("n", 9)),
            power=float(kwargs.pop("power", 8.0)),
            **kwargs,
        )
    raise ValueError(f"unknown topology preset {kind!r}")
