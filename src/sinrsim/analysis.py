"""Closed-form interference analysis.

The central object is a per-region cap on the sum of transmission
probabilities.  Whenever every broadcasting region keeps its probability sum
below that cap, two certificates hold for every node:

* the probability that its whole proximity region stays silent in a slot is
  at least 1/4, and
* the expected interference arriving from outside the proximity region is
  at most ``(delta - 1) * noise_hi / 2``.

Everything here is exact arithmetic over the model; no sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .model import Network, NetworkParams, broadcast_range


@lru_cache(maxsize=256)
def _power_law_partial_sum(exponent: float, n: int) -> float:
    """Sum of i**(-exponent) for i = 1..n, by direct summation."""
    return float(np.sum(np.arange(1, n + 1, dtype=float) ** (-exponent)))


def region_probability_cap(params: NetworkParams, range_ratio: float, n: int) -> float:
    """Largest per-region transmission-probability sum for which the far
    interference certificate goes through.

    ``min(delta - 1, 1) / (120 * beta_hi * ratio**2 * sum_{i<=n} i**(1-alpha_hi))``

    The numerator is capped at 1 so the value stays a probability budget even
    for very large margin factors.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if range_ratio < 1.0:
        raise ValueError("range ratio is at least 1 by definition")
    denom = (
        120.0
        * params.beta_hi
        * range_ratio**2
        * _power_law_partial_sum(params.alpha_hi - 1.0, n)
    )
    return min(params.delta - 1.0, 1.0) / denom


class RegionBudgetMonitor:
    """Asserts, at every instant the probabilities change, that the summed
    transmission probability inside each broadcasting region stays within
    `limit` -- separately for even and odd slots, since the coloring
    protocol alternates message classes by slot parity.  Updates name nodes
    by index; violations name the region's node by id."""

    def __init__(self, network: Network, limit: float):
        self.network = network
        self.limit = limit
        n = network.n
        # the regions containing node i: its own and its in-neighbours'
        self.containing = [sorted([i, *network.in_indices(i).tolist()]) for i in range(n)]
        self.even = [0.0] * n
        self.odd = [0.0] * n
        self.sum_even = [0.0] * n
        self.sum_odd = [0.0] * n
        self.peak = 0.0
        self.violations: list[tuple[int, int, float]] = []

    def __call__(self, slot: int, updates: list[tuple[int, float, float]]) -> None:
        affected: set[int] = set()
        for i, even_p, odd_p in updates:
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
            if worst > self.limit + 1e-9:  # 1e-9 absorbs the sums' rounding
                self.violations.append((slot, self.network.ids[r], worst))


# candidate receivers evaluated per NumPy block in expected_far_interference
_CANDIDATE_BLOCK = 128


def proximity_silence_probability(
    network: Network, probs: Mapping[int, float], node_id: int
) -> float:
    """Probability that nobody within three maximum ranges of `node_id`
    (itself excluded) transmits in one slot; exact product."""
    i = network.index(node_id)
    near = network.distance_row(i) < 3.0 * network.r_max_global
    near[i] = False
    result = 1.0
    for j in np.flatnonzero(near):
        other = network.ids[j]
        p = probs.get(other, 0.0)
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"probability for node {other} outside [0, 1]")
        result *= 1.0 - p
    return result


def expected_far_interference(
    network: Network,
    probs: Mapping[int, float],
    node_id: int,
    exponent: float,
) -> float:
    """Exact expected interference from every node outside the proximity
    region of `node_id`, measured at the worst receiver of its broadcasting
    region.

    Candidate receivers are the actual nodes inside the region plus, for each
    far node, the boundary point of the region nearest to it; over point sets
    this dominates every interior position.  Candidates are evaluated
    against all far nodes in blocks of rows; each row is summed on its own,
    as a one-dimensional ``np.sum`` would.
    """
    p = np.array([probs.get(v, 0.0) for v in network.ids], dtype=float)
    return _far_interference(network, p, [node_id], exponent)[0]


def _far_interference(
    network: Network, p: np.ndarray, node_ids: Sequence[int], exponent: float
) -> list[float]:
    """:func:`expected_far_interference` of each node in `node_ids` under
    one probability vector `p` in node index order.

    All nodes share two block buffers, written in place: fresh temporaries
    of a few hundred kB per block would each cost a page fault per 4 kB
    whenever the allocator maps them from fresh pages."""
    if exponent <= 1.0:
        raise ValueError("attenuation exponent must exceed 1")
    size = min(_CANDIDATE_BLOCK, network.n) * network.n
    buf, other = np.empty(size), np.empty(size)
    out = []
    for node_id in node_ids:
        i = network.index(node_id)
        row = network.distance_row(i)
        far = np.flatnonzero((row >= 3.0 * network.r_max_global) & (p > 0.0))
        if far.size == 0:
            out.append(0.0)
            continue

        center = network.positions[i]
        radius = float(network.r_bcast[i])
        inside = row <= radius
        inside[i] = False
        # nearest boundary point towards each far node; row[far] is the norm
        # of positions[far] - center
        boundary = center + radius * (network.positions[far] - center) / row[far, None]
        candidates = np.concatenate((network.positions[inside], boundary))
        cand_x, cand_y = candidates[:, 0, None], candidates[:, 1, None]

        far_x, far_y = network.positions[far, 0], network.positions[far, 1]
        weights = p[far] * network.powers[far]
        worst = 0.0
        for start in range(0, len(candidates), _CANDIDATE_BLOCK):
            rows = cand_x[start : start + _CANDIDATE_BLOCK]
            shape = (len(rows), far.size)
            d = np.subtract(far_x, rows, out=buf[: rows.size * far.size].reshape(shape))
            dy = np.subtract(
                far_y,
                cand_y[start : start + len(rows)],
                out=other[: rows.size * far.size].reshape(shape),
            )
            np.multiply(d, d, out=d)
            np.multiply(dy, dy, out=dy)
            np.add(d, dy, out=d)
            np.sqrt(d, out=d)
            np.power(d, exponent, out=d)
            np.divide(weights, d, out=d)
            worst = max(worst, float(d.sum(axis=1).max()))
        out.append(worst)
    return out


def whp_slots(prob: float, params: NetworkParams, n: int, scale: float) -> float:
    """Unrounded slot count ``scale * 8 * c_whp / prob * ln n``.  At
    scale = 1, a node transmitting with `prob` in each of that many slots has
    completed its local broadcast with probability at least 1 - n**(-c_whp);
    a scale below 1 voids that guarantee.  The fixed budget, the
    variable-power threshold, coloring's round lengths and slow start's cap
    target all come from it."""
    return scale * 8.0 * params.c_whp / prob * math.log(n)


# -- variable transmission power --------------------------------------------


@dataclass(frozen=True)
class PowerTrace:
    """Per-node record of which power was scheduled in each slot of an
    interval, as (start, end, power) pieces over [interval_start,
    interval_end).  Slots not covered by any piece count as power 0, as do
    slots where the node was not running its transmit lottery."""

    node_id: int
    interval_start: int
    interval_end: int
    pieces: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if self.interval_end <= self.interval_start:
            raise ValueError("empty power trace interval")
        prev = self.interval_start
        for start, end, power in self.pieces:
            if start < prev or end <= start or end > self.interval_end:
                raise ValueError("trace pieces must be disjoint, ordered and in range")
            if power < 0.0:
                raise ValueError("scheduled power must be non-negative")
            prev = end

    @property
    def total_slots(self) -> int:
        return self.interval_end - self.interval_start

    def levels(self) -> tuple[float, ...]:
        """Sorted distinct powers with the implicit level 0 prepended."""
        used = sorted({power for _, _, power in self.pieces if power > 0.0})
        return (0.0, *used)

    def slots_at_least(self) -> tuple[int, ...]:
        """For each level j, the number of slots scheduled at power >= that
        level; index 0 counts the whole interval."""
        levels = self.levels()
        counts = [0] * len(levels)
        counts[0] = self.total_slots
        for start, end, power in self.pieces:
            length = end - start
            for j in range(1, len(levels)):
                if power >= levels[j]:
                    counts[j] += length
        return tuple(counts)


def variable_power_guarantee(
    trace: PowerTrace,
    p: float,
    params: NetworkParams,
    n: int,
    scale: float = 1.0,
) -> tuple[int, float]:
    """Highest power level transmitted often enough to carry a full local
    broadcast, and the radius it guarantees.

    A level qualifies when its slot count exceeds :func:`whp_slots`.
    Returns ``(0, 0.0)`` when no positive level qualifies.
    """
    if p <= 0.0 or p > 1.0:
        raise ValueError("transmission probability must lie in (0, 1]")
    threshold = whp_slots(p, params, n, scale)
    levels = trace.levels()
    counts = trace.slots_at_least()
    best = 0
    for j in range(1, len(levels)):
        if counts[j] > threshold:
            best = j
    if best == 0:
        return (0, 0.0)
    return (best, broadcast_range(levels[best], params))

