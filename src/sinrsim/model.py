"""Static network model: node geometry, transmission powers, the derived
ranges, and the directed communication graph they induce.

Two ranges are derived per node from its power ``P`` and the parameter
bounds the nodes are assumed to know:

* maximum transmission range  ``(P / (noise_hi * beta_hi)) ** (1 / alpha_hi)``
  -- the distance reachable regardless of the actual in-range parameters,
  absent any interference;
* broadcasting range  ``(P / (delta * noise_hi * beta_hi)) ** (1 / alpha_lo)``
  -- the shorter distance at which delivery is still guaranteed with margin
  ``delta > 1`` against residual interference.

A directed communication link v -> u exists iff u lies within v's
broadcasting range.  Links that only hold in one direction are the source of
all the structural complications this package deals with.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import ModelViolationError


@dataclass(frozen=True)
class NetworkParams:
    """Physical constants: true values plus the upper/lower bounds that the
    nodes themselves are allowed to know."""

    alpha_lo: float
    alpha_hi: float
    alpha_true: float
    beta_lo: float
    beta_hi: float
    beta_true: float
    noise_lo: float
    noise_hi: float
    noise_true: float
    delta: float
    c_whp: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_number(value, float, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if not (self.alpha_lo <= self.alpha_true <= self.alpha_hi):
            raise ValueError("alpha bounds must bracket alpha_true")
        if not (self.beta_lo <= self.beta_true <= self.beta_hi):
            raise ValueError("beta bounds must bracket beta_true")
        if not (self.noise_lo <= self.noise_true <= self.noise_hi):
            raise ValueError("noise bounds must bracket noise_true")
        if self.alpha_lo <= 1.0:
            raise ValueError("alpha_lo must exceed 1")
        if self.beta_lo < 1.0:
            raise ValueError("beta_lo must be at least 1")
        if self.noise_lo <= 0.0:
            raise ValueError("noise_lo must be positive")
        if self.delta <= 1.0:
            raise ValueError("delta must exceed 1")
        if self.c_whp <= 1.0:
            raise ValueError("c_whp must exceed 1")
        if not (0.0 < self.scale <= 1.0):
            raise ValueError(f"scale must lie in (0, 1], got {self.scale!r}")

    @classmethod
    def exact(
        cls,
        *,
        alpha: float = 3.0,
        beta: float = 1.0,
        noise: float = 1.0,
        delta: float = 2.0,
        c_whp: float = 2.0,
        scale: float = 1.0,
    ) -> "NetworkParams":
        """Parameters whose known bounds coincide with the true values."""
        return cls(
            alpha_lo=alpha, alpha_hi=alpha, alpha_true=alpha,
            beta_lo=beta, beta_hi=beta, beta_true=beta,
            noise_lo=noise, noise_hi=noise, noise_true=noise,
            delta=delta, c_whp=c_whp, scale=scale,
        )


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float
    power: float
    wake_slot: int = 0
    sleep_slot: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("id", "wake_slot", "sleep_slot"):
            value = getattr(self, name)
            if value is None and name == "sleep_slot":
                continue
            if not _is_number(value, int, numbers.Integral):
                raise ValueError(f"node {self.id}: {name} must be an integer, got {value!r}")
        for name in ("x", "y", "power"):
            value = getattr(self, name)
            if not _is_number(value, float, numbers.Real):
                raise ValueError(f"node {self.id}: {name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"node {self.id}: {name} must be finite")
        if self.id < 0:
            raise ValueError(f"node {self.id}: id must be >= 0")
        if self.power <= 0.0:
            raise ValueError(f"node {self.id}: power must be positive")
        if self.wake_slot < 0:
            raise ValueError(f"node {self.id}: wake_slot must be >= 0")
        if self.sleep_slot is not None and self.sleep_slot <= self.wake_slot:
            raise ValueError(f"node {self.id}: sleep_slot must exceed wake_slot")


def _is_number(value: object, exact: type, kind: type) -> bool:
    """A `kind` number and no bool; an `exact` instance skips the slow ABC check."""
    return type(value) is exact or (isinstance(value, kind) and not isinstance(value, bool))


def _check_count(name: str, value, least: int) -> None:
    """Refuse `value` unless it is an integer, and no bool, of at least `least`."""
    if not _is_number(value, int, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_positive(name: str, value) -> None:
    """Refuse `value` unless it is a finite positive number, and no bool."""
    if not _is_number(value, float, numbers.Real) or not (0.0 < value < math.inf):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def _check_prob(name: str, value) -> None:
    """Refuse `value` unless it is a number in (0, 1], and no bool."""
    if not _is_number(value, float, numbers.Real) or not (0.0 < value <= 1.0):
        raise ValueError(f"{name} must be a probability in (0, 1], got {value!r}")


def max_transmission_range(power: float, params: NetworkParams) -> float:
    """Distance up to which a lone transmission at `power` is decodable no
    matter where the true parameters fall within their bounds."""
    if power <= 0.0:
        raise ValueError("power must be positive")
    return (power / (params.noise_hi * params.beta_hi)) ** (1.0 / params.alpha_hi)


def broadcast_range(power: float, params: NetworkParams) -> float:
    """Guaranteed-delivery distance once the margin factor `delta` is held
    back for interference; defines the communication graph."""
    if power <= 0.0:
        raise ValueError("power must be positive")
    return (power / (params.delta * params.noise_hi * params.beta_hi)) ** (
        1.0 / params.alpha_lo
    )


# relative slack below the beta*noise floor of the lone-reach candidate
# sets; it exceeds the rounding error of the SINR test, about (k+1)(1+beta)
# units of 2**-53 for k concurrent terms, for any k up to ~10**6 / beta
_REACH_SLACK = 1e-9

# cells per axis above which the grid coarsens, keeping cell keys in int64
_MAX_CELLS_PER_AXIS = 1 << 20

# networks up to this size take every node pair as a candidate pair: without
# this fork, the median `setup_s` rose from 1.18 to 1.29 ms on `color32` and
# from 1.93 to 2.05 ms on `slowstart64` (8 alternating pairs of perfbench/run.py
# runs, 2-vCPU x86-64 host)
_ALL_PAIRS_MAX_N = 128


class Network:
    """Immutable joint view of node placement, powers and derived structure.

    Nothing is stored per node pair.  Nodes are hashed into a uniform grid
    of square cells of side `r_max_global`; a radius query scans the cell
    columns its bounding box covers and keeps the nodes within the radius.
    The graph is held as ascending index arrays per node, and each distance
    is computed when asked for, with the floating-point operations a dense
    n x n matrix would use: ``sqrt(dx*dx + dy*dy)``.

    Construct through :func:`build_network`.  Safe to share read-only across
    concurrently running experiments; the only state added after
    construction is the lone-reach cache, whose entries are pure functions
    of their key; the engine reads lone reach from it alone.
    """

    def __init__(self, nodes: Sequence[Node], params: NetworkParams):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.params = params
        self.n = n = len(self.nodes)

        self._index = {node.id: i for i, node in enumerate(self.nodes)}
        self.ids = tuple(node.id for node in self.nodes)

        self.positions = np.array([[node.x, node.y] for node in self.nodes], dtype=float)
        self.powers = np.array([node.power for node in self.nodes], dtype=float)
        self._coords = self.positions.tolist()

        self.r_max = np.array(
            [max_transmission_range(p, params) for p in self.powers]
        )
        self.r_bcast = np.array([broadcast_range(p, params) for p in self.powers])
        bad = np.nonzero(self.r_bcast > self.r_max * (1.0 + 1e-12))[0]
        if bad.size:
            raise ValueError(
                f"broadcast range exceeds transmission range for node "
                f"{self.ids[bad[0]]}; parameter bounds too loose for this power"
            )

        self.r_max_global = float(self.r_max.max())
        self.r_min_global = float(self.r_max.min())
        self.range_ratio = self.r_max_global / self.r_min_global  # >= 1

        # the grid: cell (cx, cy) has key cx * rows + cy, and nodes are kept
        # sorted by key, so a run of rows within one column is one key range
        self._origin = self.positions.min(axis=0)
        self._x0, self._y0 = self._origin.tolist()
        span = float((self.positions.max(axis=0) - self._origin).max())
        self._cell = max(self.r_max_global, span / _MAX_CELLS_PER_AXIS)
        cells = self._cells(self.positions)
        self._last_cell = cells.max(axis=0)  # last occupied column and row
        self._last_col = int(self._last_cell[0])
        self._rows = int(self._last_cell[1]) + 1
        keys = cells[:, 0].astype(np.int64) * self._rows + cells[:, 1].astype(np.int64)
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]
        # list copies for `within`, which works in scalar Python
        self._order_list = self._order.tolist()
        self._key_list = self._keys.tolist()
        # added to every query radius: far above the rounding of a
        # coordinate difference, so a query box never misses a node
        self._pad = 1e-9 * float(np.abs(self.positions).max())

        src, dst, d = self.pairs_within(np.maximum(self.r_max, self.r_bcast))
        in_range = d <= self.r_max[src]
        self.max_degree = int(np.bincount(src[in_range], minlength=n).max())

        # edge v -> u iff dist(v, u) <= r_bcast(v); pairs come sorted by
        # (v, u), so both index arrays per node are ascending
        edge = d <= self.r_bcast[src]
        src, dst = src[edge], dst[edge]
        self._out_ptr = _row_pointers(src, n)
        self._out_nbr = dst
        by_dst = np.lexsort((src, dst))
        self._in_ptr = _row_pointers(dst[by_dst], n)
        self._in_nbr = src[by_dst]
        self._out_nbr.flags.writeable = False
        self._in_nbr.flags.writeable = False
        self.longest_chain = _longest_unidirectional_path(src, dst, n)

        self._reach: dict[tuple[int, float], tuple] = {}

    # -- lookups ---------------------------------------------------------

    def index(self, node_id: int) -> int:
        return self._index[node_id]

    def node(self, node_id: int) -> Node:
        return self.nodes[self._index[node_id]]

    def dist(self, a: int, b: int) -> float:
        xa, ya = self._coords[self._index[a]]
        xb, yb = self._coords[self._index[b]]
        dx = xa - xb
        dy = ya - yb
        return math.sqrt(dx * dx + dy * dy)

    def distance_row(self, i: int) -> np.ndarray:
        """The distance from the node at index `i` to every node, bit for
        bit the row a dense distance matrix would hold; 0 at `i` itself."""
        return self._pair_dist(i, slice(None))

    def within(self, i: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the nodes other than `i` at distance at most `radius`
        from node index `i`, ascending, and the distance to each.  Scalar
        Python arithmetic: one query visits a few dozen nodes, where NumPy's
        per-call cost would dominate, and IEEE ``-``, ``*``, ``+`` and
        ``sqrt`` round exactly as the array ufuncs do."""
        x, y = self._coords[i]
        r = radius + (1e-9 * radius + self._pad)
        cell, rows = self._cell, self._rows
        lx = max(math.floor((x - r - self._x0) / cell), 0)
        hx = min(math.floor((x + r - self._x0) / cell), self._last_col)
        ly = max(math.floor((y - r - self._y0) / cell), 0)
        hy = min(math.floor((y + r - self._y0) / cell), rows - 1)
        keys, order, coords = self._key_list, self._order_list, self._coords
        found = []
        for col in range(lx * rows, hx * rows + 1, rows):
            for j in order[bisect_left(keys, col + ly) : bisect_right(keys, col + hy)]:
                xj, yj = coords[j]
                dx = x - xj
                dy = y - yj
                d = math.sqrt(dx * dx + dy * dy)
                if d <= radius and j != i:
                    found.append((j, d))
        found.sort()
        return (
            np.array([j for j, _ in found], dtype=np.intp),
            np.array([d for _, d in found], dtype=float),
        )

    def lone_reach(
        self, i: int, power: float
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """A lone transmission of node index `i` at `power` under the true
        parameters: the listeners that decode it, by the engine's rule with
        one sender, ``signal >= beta * ((signal + noise) - signal)``; those
        whose signal clears the ``beta * noise`` floor lowered by
        `_REACH_SLACK`, a superset; the out-neighbours of `i`; and those of
        them outside the exact reach.  Tuples of node indices, each
        ascending; cached per (i, power)."""
        key = (i, power)
        entry = self._reach.get(key)
        if entry is None:
            params = self.params
            beta, noise = params.beta_true, params.noise_true
            low = beta * noise * (1.0 - _REACH_SLACK)
            radius = (power / low) ** (1.0 / params.alpha_true)
            idx, d = self.within(i, radius * (1.0 + 1e-6))
            signal = power / d**params.alpha_true
            exact = tuple(idx[signal >= beta * ((signal + noise) - signal)].tolist())
            slack = tuple(idx[signal >= low].tolist())
            out = tuple(self.out_indices(i).tolist())
            inside = set(exact)
            entry = (exact, slack, out, tuple(u for u in out if u not in inside))
            self._reach[key] = entry
        return entry

    def out_indices(self, i: int) -> np.ndarray:
        """Ascending indices of the out-neighbours of node index `i`."""
        return self._out_nbr[self._out_ptr[i] : self._out_ptr[i + 1]]

    def in_indices(self, i: int) -> np.ndarray:
        """Ascending indices of the in-neighbours of node index `i`."""
        return self._in_nbr[self._in_ptr[i] : self._in_ptr[i + 1]]

    def awake_at(self, node_id: int, slot: int) -> bool:
        node = self.node(node_id)
        return node.wake_slot <= slot and (
            node.sleep_slot is None or slot < node.sleep_slot
        )

    # -- grid ------------------------------------------------------------

    def _cells(self, points: np.ndarray) -> np.ndarray:
        """Grid cell (column, row) of each point; monotone in each
        coordinate."""
        return np.floor((points - self._origin) / self._cell)

    def pairs_within(self, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ordered pair (i, j), i != j, with dist(i, j) <= radii[i]:
        index arrays sorted by (i, j), and the distance of each pair.

        Node i scans the cell columns of its bounding box, clipped to the
        occupied grid; within one column its rows are one key range.  All
        (node, column) ranges are looked up and expanded at once.
        `within` is the scalar form.  Up to `_ALL_PAIRS_MAX_N` nodes every
        pair is a candidate instead, which sets up the small benchmark
        networks about 6-9% faster than the grid lookup."""
        n = self.n
        if n <= _ALL_PAIRS_MAX_N:
            src, dst = np.divmod(np.arange(n * n), n)  # sorted by (i, j)
            d = self._pair_dist(src, dst)
            keep = (d <= radii[src]) & (src != dst)
            return src[keep], dst[keep], d[keep]
        r = (radii + (1e-9 * radii + self._pad))[:, None]
        low = np.maximum(self._cells(self.positions - r), 0.0).astype(np.int64)
        high = np.minimum(self._cells(self.positions + r), self._last_cell).astype(np.int64)
        width = int((high[:, 0] - low[:, 0]).max()) + 1
        cols = low[:, :1] + np.arange(width)  # (node, column) pairs
        base = cols * self._rows
        lo = np.searchsorted(self._keys, (base + low[:, 1:]).ravel())
        hi = np.searchsorted(self._keys, (base + high[:, 1:]).ravel(), side="right")
        counts = np.where((cols <= high[:, :1]).ravel(), hi - lo, 0)
        # element k of the concatenated key ranges falls in the range of
        # some (node, column) pair r; its key position is lo[r] plus k's
        # offset from where that range starts in the concatenation
        shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        src = np.repeat(np.arange(n).repeat(width), counts)
        dst = self._order[np.arange(int(counts.sum())) + shift]
        d = self._pair_dist(src, dst)
        keep = (d <= radii[src]) & (src != dst)
        src, dst, d = src[keep], dst[keep], d[keep]
        order = np.lexsort((dst, src))
        return src[order], dst[order], d[order]

    def _pair_dist(self, src, dst) -> np.ndarray:
        """dist(src[k], dst[k]) for node indices (or one index) `src` and
        `dst`, as elementwise array ufuncs."""
        dx = self.positions[src, 0] - self.positions[dst, 0]
        dy = self.positions[src, 1] - self.positions[dst, 1]
        return np.sqrt(dx * dx + dy * dy)


def build_network(nodes: Sequence[Node], params: NetworkParams) -> Network:
    """Validate the node set and compute every derived quantity."""
    if not nodes:
        raise ValueError("node list must not be empty")
    seen: set[int] = set()
    for node in nodes:
        if node.id in seen:
            raise ValueError(f"duplicate node id {node.id}")
        seen.add(node.id)
    pos = {}
    for node in nodes:
        key = (node.x, node.y)
        if key in pos:
            raise ValueError(
                f"nodes {pos[key]} and {node.id} share position {key}; "
                "coincident nodes make the SINR undefined"
            )
        pos[key] = node.id
    return Network(nodes, params)


def _row_pointers(rows: np.ndarray, n: int) -> np.ndarray:
    """Start of each row's run in an ascending row-index array, plus the
    end: row r occupies [ptr[r], ptr[r + 1])."""
    return np.searchsorted(rows, np.arange(n + 1))


def _longest_unidirectional_path(src: np.ndarray, dst: np.ndarray, n: int) -> int:
    """Longest path (edge count) in the subgraph of strictly one-way links,
    via topological order + DP, over edges given as index arrays sorted by
    (src, dst).  The subgraph is a DAG because the broadcast range strictly
    decreases along every one-way link."""
    forward = src * n + dst  # ascending
    reverse = dst * n + src
    at = np.minimum(np.searchsorted(forward, reverse), max(forward.size - 1, 0))
    one_way = forward[at] != reverse if forward.size else np.zeros(0, dtype=bool)
    src, dst = src[one_way], dst[one_way]
    bounds = _row_pointers(src, n).tolist()
    targets = dst.tolist()
    indeg = np.bincount(dst, minlength=n).tolist()
    order = [i for i in range(n) if indeg[i] == 0]
    longest = [0] * n
    head = 0
    while head < len(order):
        i = order[head]
        head += 1
        for j in targets[bounds[i] : bounds[i + 1]]:
            longest[j] = max(longest[j], longest[i] + 1)
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != n:
        raise ModelViolationError(
            "cycle of strictly unidirectional links detected; the range "
            "monotonicity invariant is broken"
        )
    return max(longest)


def ring_index(center: int, other: int, network: Network) -> Optional[int]:
    """Classify `other` relative to `center` for the far-interference sum.

    Returns ``None`` when `other` sits inside the proximity region (closer
    than three global maximum ranges), otherwise the index ``i >= 2`` of the
    annulus ``[(i+1)*R, (i+2)*R]`` containing it, with boundary ties resolved
    to the smaller index.
    """
    if center == other:
        raise ValueError("center and other must differ")
    d = network.dist(center, other)
    r = network.r_max_global
    if d < 3.0 * r:
        return None
    return max(2, math.ceil(d / r) - 2)
