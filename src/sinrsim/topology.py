"""Topology presets and the on-disk topology format.

The file format is JSON with two top-level fields, ``params`` holding the
:class:`NetworkParams` fields and ``nodes`` a list of :class:`Node` records::

    {"params": {"alpha_lo": ..., "alpha_hi": ..., ..., "scale": ...},
     "nodes": [{"id": 0, "x": 1.0, "y": 2.0, "power": 1.0,
                "wake_slot": 0, "sleep_slot": 500}, ...]}

All numbers are decimal; lengths and powers are in abstract units.  Every
params field is required, and so is every node field without a default in
:class:`Node`; the others take that default (`sleep_slot` is written only
when set).  Keys other than these are refused, so a misspelt one cannot
silently fall back to its default.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, fields
from typing import Optional, Sequence

import numpy as np

from .model import (
    Network,
    NetworkParams,
    Node,
    _check_count,
    _check_positive,
    _is_number,
    broadcast_range,
    build_network,
)

_PARAM_FIELDS = tuple(f.name for f in fields(NetworkParams))
_NODE_FIELDS = tuple(f.name for f in fields(Node))
_NODE_REQUIRED = tuple(f.name for f in fields(Node) if f.default is MISSING)

# nodes closer than this fraction of the area side are resampled
_MIN_SEPARATION = 1e-6


def save_topology(network: Network, path: str) -> None:
    doc = {
        "params": asdict(network.params),
        "nodes": [
            {k: v for k, v in asdict(node).items() if k != "sleep_slot" or v is not None}
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
        if not (isinstance(doc, dict) and isinstance(doc["params"], dict)):
            raise ValueError(f"topology file {path}: params must be an object")
        entries = doc["nodes"]
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValueError(f"topology file {path}: nodes must be a list of objects")
        for where, entry, known in [
            ("params", doc["params"], _PARAM_FIELDS),
            *((f"node {e.get('id')!r}", e, _NODE_FIELDS) for e in entries),
        ]:
            unknown = sorted(set(entry) - set(known))
            if unknown:
                raise ValueError(
                    f"topology file {path}: {where} has unknown keys "
                    + ", ".join(map(repr, unknown))
                )
        params = NetworkParams(**{name: doc["params"][name] for name in _PARAM_FIELDS})
        nodes = []
        for entry in entries:
            missing = [name for name in _NODE_REQUIRED if name not in entry]
            if missing:
                raise KeyError(missing[0])
            nodes.append(Node(**entry))
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
    optional uniform wake slots over [0, wake_window].  A point closer
    than ``_MIN_SEPARATION * side`` to a placed one is drawn again."""
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    _check_positive("side", side)
    lo, hi = power_range
    if not all(_is_number(b, float, numbers.Real) and math.isfinite(b) for b in (lo, hi)):
        raise ValueError(f"power_range must hold finite numbers, got {power_range!r}")
    if not (0.0 < lo <= hi):
        raise ValueError(f"power_range must be positive and ordered, got {power_range!r}")
    _check_count("wake_window", wake_window, 0)
    params = params or NetworkParams.exact()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x7090))))
    limit = _MIN_SEPARATION * side
    # Placed points are hashed into square cells of side 2*limit, and a
    # candidate is compared only with its 3x3 cell neighbourhood.  A point
    # within the limit lies at most half a cell away on each axis; the
    # rounding of x / cell is far below the other half while the separation
    # fraction is far above machine epsilon, so the neighbourhood holds
    # every point a full scan would reject.  A zero limit (subnormal side)
    # rejects only coincident points, which share a cell of any size.
    cell = 2.0 * limit or side
    cells: dict[tuple[int, int], list[tuple[float, float]]] = {}
    nodes: list[Node] = []
    for i in range(n):
        for _attempt in range(1000):
            x = rng.uniform(0.0, side)
            y = rng.uniform(0.0, side)
            cx = math.floor(x / cell)
            cy = math.floor(y / cell)
            if all(
                math.hypot(x - a, y - b) > limit
                for gx in (cx - 1, cx, cx + 1)
                for gy in (cy - 1, cy, cy + 1)
                for a, b in cells.get((gx, gy), ())
            ):
                break
        else:
            raise ValueError("could not place nodes with the minimum separation")
        cells.setdefault((cx, cy), []).append((x, y))
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
    _check_positive("power", power)
    return random_topology(n, side, (power, power), seed, params)


def grid_topology(
    rows: int,
    cols: int,
    spacing: float,
    power: float,
    params: Optional[NetworkParams] = None,
) -> Network:
    _check_count("rows", rows, 1)
    _check_count("cols", cols, 1)
    _check_positive("spacing", spacing)
    _check_positive("power", power)
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
) -> Network:
    """Strictly descending powers along a line, spaced so each node reaches
    its successor but never the other way: the worst case that forces the
    longest possible chain of one-way links (length n-1).

    With a mild `power_ratio` a node may also reach nodes beyond its direct
    successor; those extra shortcuts point forward as well and leave the
    longest chain unchanged.
    """
    _check_count("n", n, 1)
    if not _is_number(power_ratio, float, numbers.Real) or not (0.0 < power_ratio < 1.0):
        raise ValueError(f"power_ratio must lie strictly between 0 and 1, got {power_ratio!r}")
    params = params or NetworkParams.exact()
    shrink = power_ratio ** (1.0 / params.alpha_lo)  # broadcast-range ratio per hop
    step_frac = (1.0 + shrink) / 2.0  # strictly between shrink and 1
    nodes = []
    x = 0.0
    power = 64.0  # the first node's; each next one has `power_ratio` times it
    for i in range(n):
        nodes.append(Node(id=i, x=x, y=0.0, power=power))
        x += step_frac * broadcast_range(power, params)
        power *= power_ratio
    return build_network(nodes, params)


def line_topology(
    n: int,
    power_levels: Sequence[float],
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
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    _check_positive("spacing", spacing)
    if not _is_number(jitter, float, numbers.Real) or not (0.0 <= jitter < math.inf):
        raise ValueError(f"jitter must be a finite number >= 0, got {jitter!r}")
    if len(power_levels) == 0:
        raise ValueError("power_levels must hold at least one power level, got none")
    for k, level in enumerate(power_levels):
        _check_positive(f"power_levels[{k}]", level)
    _check_count("wake_window", wake_window, 0)
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
    _check_count("n", n, 1)
    _check_positive("power", power)
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


# the flags each preset takes, with their defaults
_PRESET_FLAGS = {
    "random": {"n": 32, "side": 8.0, "power_lo": 1.0, "power_hi": 4.0},
    "uniform": {"n": 32, "side": 8.0, "power": 2.0},
    "grid": {"rows": 4, "cols": 4, "spacing": 1.0, "power": 2.0},
    "chain": {"n": 5, "power_ratio": 0.2},
    "clique": {"n": 9, "power": 8.0},
}


def generate_topology(kind: str, seed: int = 0, **kwargs) -> Network:
    """String-dispatch used by the command line."""
    if kind not in _PRESET_FLAGS:
        raise ValueError(f"unknown topology preset {kind!r}")
    defaults = _PRESET_FLAGS[kind]
    for name in kwargs:
        if name not in defaults:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"topology preset {kind!r} does not take {flag}")
    v = {**defaults, **kwargs}  # unchanged: the generators name a bad value
    if kind == "random":
        return random_topology(v["n"], v["side"], (v["power_lo"], v["power_hi"]), seed)
    if kind == "uniform":
        return uniform_topology(v["n"], v["side"], v["power"], seed)
    if kind == "grid":
        return grid_topology(v["rows"], v["cols"], v["spacing"], v["power"])
    if kind == "chain":
        return chain_topology(v["n"], v["power_ratio"])
    return clique_topology(v["n"], v["power"])
