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
from dataclasses import dataclass, fields
from functools import cached_property
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
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
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
            raise ValueError("scale must lie in (0, 1]")

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
        for name in ("x", "y", "power"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"node {self.id}: {name} must be finite")
        for name in ("wake_slot", "sleep_slot"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise ValueError(f"node {self.id}: {name} must be an integer, got {value!r}")
        if self.power <= 0.0:
            raise ValueError(f"node {self.id}: power must be positive")
        if self.wake_slot < 0:
            raise ValueError(f"node {self.id}: wake_slot must be >= 0")
        if self.sleep_slot is not None and self.sleep_slot <= self.wake_slot:
            raise ValueError(f"node {self.id}: sleep_slot must exceed wake_slot")

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


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


class Network:
    """Immutable joint view of node placement, powers and derived structure.

    Construct through :func:`build_network`.  Safe to share read-only across
    concurrently running experiments.
    """

    def __init__(self, nodes: Sequence[Node], params: NetworkParams):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.params = params
        self.n = len(self.nodes)

        self._index = {node.id: i for i, node in enumerate(self.nodes)}
        self.ids = tuple(node.id for node in self.nodes)

        self.positions = np.array([[node.x, node.y] for node in self.nodes], dtype=float)
        self.powers = np.array([node.power for node in self.nodes], dtype=float)

        # dx*dx + dy*dy summed in place: bit-identical to the two-term sum
        # over an n x n x 2 difference array, without building that array
        x, y = self.positions[:, 0], self.positions[:, 1]
        dist = x[:, None] - x[None, :]
        dist *= dist
        dy = y[:, None] - y[None, :]
        dy *= dy
        dist += dy
        del dy
        self.distances = np.sqrt(dist, out=dist)

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

        # every node is within its own range (distance 0): drop it from the count
        in_range = np.count_nonzero(self.distances <= self.r_max[:, None], axis=1)
        self.max_degree = int(in_range.max()) - 1

        # adjacency: edge v -> u iff dist(v, u) <= r_bcast(v)
        self.adjacency = self.distances <= self.r_bcast[:, None]
        np.fill_diagonal(self.adjacency, False)
        self.out_edges = _edge_tuples(self.adjacency, self.ids)
        self.in_edges = _edge_tuples(self.adjacency.T, self.ids)

        self.bidirectional = self.adjacency & self.adjacency.T
        self.unidirectional = self.adjacency ^ self.bidirectional
        self.longest_chain = _longest_unidirectional_path(self.unidirectional)

    @cached_property
    def dist_alpha(self) -> np.ndarray:
        """Read-only ``distances ** alpha_true`` with an infinite diagonal,
        so that a gain ``power / dist_alpha`` is 0 at the sender itself;
        computed on first use."""
        dist_alpha = self.distances**self.params.alpha_true
        np.fill_diagonal(dist_alpha, math.inf)
        dist_alpha.flags.writeable = False
        return dist_alpha

    # -- lookups ---------------------------------------------------------

    def index(self, node_id: int) -> int:
        return self._index[node_id]

    def node(self, node_id: int) -> Node:
        return self.nodes[self._index[node_id]]

    def dist(self, a: int, b: int) -> float:
        return float(self.distances[self._index[a], self._index[b]])

    def out_neighbors(self, node_id: int) -> tuple[int, ...]:
        return self.out_edges[node_id]

    def in_neighbors(self, node_id: int) -> tuple[int, ...]:
        return self.in_edges[node_id]

    def awake_at(self, node_id: int, slot: int) -> bool:
        node = self.node(node_id)
        return node.wake_slot <= slot and (
            node.sleep_slot is None or slot < node.sleep_slot
        )


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


def _rows(matrix: np.ndarray) -> list[list[int]]:
    """The column indices set in each row of a boolean matrix, ascending."""
    # a flat scan: several times faster than a 2-D np.nonzero on a sparse matrix
    rows, cols = np.divmod(np.flatnonzero(matrix), matrix.shape[1])
    bounds = np.searchsorted(rows, np.arange(matrix.shape[0] + 1)).tolist()
    cols = cols.tolist()
    return [cols[a:b] for a, b in zip(bounds, bounds[1:])]


def _edge_tuples(matrix: np.ndarray, ids: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Node id -> ids of the columns set in its row, in index order."""
    return {ids[i]: tuple(ids[j] for j in row) for i, row in enumerate(_rows(matrix))}


def _longest_unidirectional_path(unidirectional: np.ndarray) -> int:
    """Longest path (edge count) in the subgraph of strictly one-way links,
    via topological order + DP.  The subgraph is a DAG because the broadcast
    range strictly decreases along every one-way link."""
    successors = _rows(unidirectional)
    n = len(successors)
    indeg = np.count_nonzero(unidirectional, axis=0).tolist()
    order = [i for i in range(n) if indeg[i] == 0]
    longest = [0] * n
    head = 0
    while head < len(order):
        i = order[head]
        head += 1
        for j in successors[i]:
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
