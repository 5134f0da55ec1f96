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


# candidate receivers evaluated per NumPy block in _far_interference
_CANDIDATE_BLOCK = 128
# float32 elements per block of the screen, which the first buffer holds
# for any n: a block's product stays under the 4 * 65536 multiply-adds above
# which OpenBLAS splits a GEMM over threads (at n = 800, 2.05 s of wall
# clock on two threads against 1.24 s on one)
_SCREEN_BLOCK = 2**16

# Relative slack of the far-interference screen in `_far_interference`.  The
# screen sums each candidate's far interference in float32, in units of
# s = 3 * R_max: a far node lies D >= 1 from the node's centre and a
# candidate r <= 1/3 from it, so their distance d >= D - r >= 2/3, and
# (D + r) / (D - r) <= 2.  With u = 2**-24, float32's unit roundoff, each
# screened sum S is within a factor 1 +- E of the exact sum over the same
# float64 points, to first order, up to one factor common to the node:
#   - centre-relative coordinates, the division by s and the squared norms,
#     in float64, are off by a few 2**-53 of (D + r)**2: nothing here;
#   - d**2 is one float32 product of (-2c, 1, |c|**2) and (f, |f|**2, 1).
#     The casts of its inputs move it by at most u (D**2 + r**2 + 4Dr)
#     <= 1.5u (D + r)**2, and its 4-term sum, in any order, by at most
#     4u (D + r)**2.  Against d**2 >= (D - r)**2 that is 5.5u times
#     ((D + r) / (D - r))**2 <= 4: 22u.  (A coordinate too small to be a
#     normal float32 moves by under 2**-126: nothing against d >= 2/3);
#   - d**2 ** (-alpha/2) scales those 22u by alpha/2, 11 alpha u; the power
#     itself adds at most 4 ulps, 8u; and -alpha/2 rounded to float32 is off
#     by some e with |e| <= u alpha/2, which scales each term by
#     (d**2)**e.  For d**2 in [4/9, 2**32] (d <= 2**16 s), ln(d**2) lies
#     within 11.5 of the middle of its range, so each term is within
#     5.75 alpha u of the common factor (middle)**e;
#   - the weights, divided by their maximum, cast and multiplied: 2u;
#   - NumPy sums a row pairwise: a term passes at most 25 additions in a
#     leaf of 128 terms and one per halving above it, 40u for m <= 2**20
#     far nodes;
#   - underflow: a weight, power or product below 2**-126 is off by at most
#     2**-126 times 1.5**alpha + 2 <= 2**6.1 (alpha <= 10), so the m terms
#     by under m * 2**-119.9, at most u max(S) when max(S) >= m * 2**-95: u.
# So E <= (51 + 16.75 alpha) u, 9.0e-6 at alpha = 6, and the float64 sums of
# the exact pass are within (45 + 3 alpha) 2**-53 < 2**-40 of exact.  The
# candidate with the largest float64 sum then has S >= max(S) (1 - 2 (E +
# 2**-40)), which the slack keeps whenever 2 (E + 2**-40) <= _SCREEN_SLACK:
# at alpha = 6 that is 1.8e-5, under a fifth of the slack.  The screen runs
# only where this bound holds with a margin of 4, alpha <= 9.4, where the
# far nodes lie within 2**16 s of the centre and m <= 2**20, and where the
# screened maximum is finite and at least m * 2**-95; elsewhere every
# candidate is kept.
_SCREEN_SLACK = 1e-4


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
    this dominates every interior position.  A probability outside [0, 1],
    NaN included, is refused naming its node.  See :func:`_far_interference`
    for how the maximum is found.
    """
    p = np.array([probs.get(v, 0.0) for v in network.ids], dtype=float)
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if bad.size:
        raise ValueError(f"probability for node {network.ids[bad[0]]} outside [0, 1]")
    return _far_interference(network, p, [node_id], exponent)[0]


def _far_interference(
    network: Network, p: np.ndarray, node_ids: Sequence[int], exponent: float
) -> list[float]:
    """:func:`expected_far_interference` of each node in `node_ids` under
    one probability vector `p` in node index order.

    A float32 screen (:func:`_screen`) sums every candidate's far
    interference first; only the candidates within `_SCREEN_SLACK` of its
    maximum can hold the exact one, by the derivation at that constant.
    Those are evaluated in float64 against all far nodes in blocks of rows
    (:func:`_exact_max`), each row summed on its own as a one-dimensional
    ``np.sum`` would, so the maximum has the bits that evaluating every
    candidate gives.  Where the screen's bound does not hold, every
    candidate is evaluated.

    All nodes share two float64 block buffers, written in place, and the
    screen writes its float32 blocks into the first: fresh temporaries of a
    few hundred kB per block would each cost a page fault per 4 kB whenever
    the allocator maps them from fresh pages."""
    if exponent <= 1.0:
        raise ValueError("attenuation exponent must exceed 1")
    size = min(_CANDIDATE_BLOCK, network.n) * network.n
    buf, other = np.empty(size), np.empty(size)
    scale = 3.0 * network.r_max_global
    screens = (51.0 + 16.75 * exponent) * 2.0**-24 + 2.0**-40 <= _SCREEN_SLACK / 8.0
    out = []
    for node_id in node_ids:
        i = network.index(node_id)
        row = network.distance_row(i)
        far = np.flatnonzero((row >= scale) & (p > 0.0))
        if far.size == 0:
            out.append(0.0)
            continue

        center = network.positions[i]
        radius = float(network.r_bcast[i])
        inside = row <= radius
        inside[i] = False
        far_pos = network.positions[far]
        # nearest boundary point towards each far node; row[far] is the norm
        # of far_pos - center
        boundary = center + radius * (far_pos - center) / row[far, None]
        candidates = np.concatenate((network.positions[inside], boundary))
        weights = p[far] * network.powers[far]
        if screens and far.size <= 2**20 and row[far].max() + radius <= 2.0**16 * scale:
            sums = _screen(candidates, far_pos, weights, center, scale, exponent, buf)
            top = sums.max()
            if np.isfinite(top) and top >= far.size * 2.0**-95:
                candidates = candidates[sums >= np.float64(top) * (1.0 - _SCREEN_SLACK)]
        out.append(_exact_max(candidates, far_pos, weights, exponent, buf, other))
    return out


def _screen(
    candidates: np.ndarray,
    far_pos: np.ndarray,
    weights: np.ndarray,
    center: np.ndarray,
    scale: float,
    exponent: float,
    buf: np.ndarray,
) -> np.ndarray:
    """Each candidate's summed ``weights * d**-exponent`` in float32, up to
    one factor common to all of them: points relative to `center` in units
    of `scale` and weights divided by their maximum, in float64, then cast.
    A block's squared distances are one float32 product of the candidates'
    rows ``(-2x, -2y, 1, x**2 + y**2)`` with the far nodes' columns
    ``(x, y, x**2 + y**2, 1)``, written into `buf` viewed as float32."""
    cand = (candidates - center) / scale
    cand = np.column_stack((-2.0 * cand, np.ones(len(cand)), (cand**2).sum(axis=1)))
    far = (far_pos - center) / scale
    far = np.vstack((far.T, (far**2).sum(axis=1), np.ones(len(far))))
    cand, far = cand.astype(np.float32), far.astype(np.float32)
    weights = (weights / weights.max()).astype(np.float32)
    power = np.float32(-exponent / 2.0)
    buf = buf.view(np.float32)
    sums = np.empty(len(cand), dtype=np.float32)
    block = max(1, _SCREEN_BLOCK // len(weights))
    for start in range(0, len(cand), block):
        rows = cand[start : start + block]
        d = np.matmul(rows, far, out=buf[: len(rows) * len(weights)].reshape(len(rows), -1))
        np.power(d, power, out=d)
        np.multiply(d, weights, out=d)
        d.sum(axis=1, out=sums[start : start + len(rows)])
    return sums


def _exact_max(
    candidates: np.ndarray,
    far_pos: np.ndarray,
    weights: np.ndarray,
    exponent: float,
    buf: np.ndarray,
    other: np.ndarray,
) -> float:
    """The largest summed ``weights / d**exponent`` over `candidates`, in
    float64 blocks of rows written into the two buffers."""
    cand_x, cand_y = candidates[:, 0, None], candidates[:, 1, None]
    far_x, far_y = far_pos[:, 0], far_pos[:, 1]
    worst = 0.0
    for start in range(0, len(candidates), _CANDIDATE_BLOCK):
        rows = cand_x[start : start + _CANDIDATE_BLOCK]
        shape = (len(rows), far_x.size)
        d = np.subtract(far_x, rows, out=buf[: rows.size * far_x.size].reshape(shape))
        dy = np.subtract(
            far_y,
            cand_y[start : start + len(rows)],
            out=other[: rows.size * far_x.size].reshape(shape),
        )
        np.multiply(d, d, out=d)
        np.multiply(dy, dy, out=dy)
        np.add(d, dy, out=d)
        np.sqrt(d, out=d)
        np.power(d, exponent, out=d)
        np.divide(weights, d, out=d)
        worst = max(worst, float(d.sum(axis=1).max()))
    return worst


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

