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
# highest order of the far-field expansion in `_screen`
_MAX_ORDER = 32

# Relative slack of the far-interference screen in `_far_interference`.  With
# a candidate x and a far node y as complex numbers relative to the node's
# centre, in units of the nearest far node's distance,
#   |y - x|**-alpha = |y|**-alpha sum_{a,b >= 0} g_a g_b (x/y)**a conj(x/y)**b,
# g_a = (alpha/2)_a / a! > 0.  Far nodes lie at least 3 R_max from the centre
# and candidates within r_bcast <= R_max, so |x/y| <= rho <= 1/3.  Cut at
# a, b <= K, a term loses at most (1 - rho)**-alpha - P_K(rho)**2 times
# |y|**-alpha, P_K being the partial sum of g_a rho**a, and is at least
# (1 + rho)**-alpha |y|**-alpha.  With u = 2**-53 and f = (1 + rho) / (1 - rho),
# rounding adds, worst case in any order: 2 alpha f u + u from the coordinates
# and the weights; (1.5m + 33K + alpha + 11) u of the terms' magnitudes, at
# most f**alpha times the value, from |y|**-alpha, the powers (9u and 6u per
# order) and the two matrix products; (m + 3 alpha + 6) u in the exact pass.
# So each screened sum S is within 1 +- E of the exact one, up to a factor
# common to the node, with E <= remainder + (3m + 40K + 8 alpha + 24) u
# f**alpha; K is the least order with E <= _SCREEN_SLACK / 8, which needs
# f**alpha <= 2**40.  The candidate with the largest float64 sum has S >=
# max(S) (1 - 2E): kept, with a margin of 4 for second-order terms.  An
# underflowed operand is off by 2**-1074, magnified at most m f**alpha max(g_a)
# over under 2**17 paths: under u max(S) where max(S) >= m max(g_a) 2**-900.
# Where no K <= _MAX_ORDER fits, or max(S) is not finite or under that floor,
# every candidate is kept.
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

    A far-field expansion (:func:`_screen`) sums every candidate's far
    interference first; only the candidates within `_SCREEN_SLACK` of its
    maximum can hold the exact one, by the derivation at that constant.
    Those are evaluated in float64 against all far nodes in blocks of rows
    (:func:`_exact_max`), each row summed on its own as a one-dimensional
    ``np.sum`` would, so the maximum has the bits that evaluating every
    candidate gives.  Where the screen's bound does not hold, every
    candidate is evaluated.

    All nodes share the exact pass's two float64 block buffers, written in
    place: fresh temporaries of a few hundred kB per block would each cost a
    page fault per 4 kB whenever the allocator maps them from fresh pages."""
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
        far_pos = network.positions[far]
        # nearest boundary point towards each far node; row[far] is the norm
        # of far_pos - center
        boundary = center + radius * (far_pos - center) / row[far, None]
        candidates = np.concatenate((network.positions[inside], boundary))
        weights = p[far] * network.powers[far]
        sums = _screen(candidates, far_pos, weights, center, exponent)
        if sums is not None:
            candidates = candidates[sums >= sums.max() * (1.0 - _SCREEN_SLACK)]
        out.append(_exact_max(candidates, far_pos, weights, exponent, buf, other))
    return out


def _expansion(exponent: float, rho: float, m: int) -> tuple[np.ndarray, float] | None:
    """g_0..g_K for the least order K <= `_MAX_ORDER` whose error bound E,
    derived at `_SCREEN_SLACK`, stays within an eighth of it for offsets up
    to `rho` and `m` far nodes, and that E; None where no order does."""
    spread = (1.0 + rho) / (1.0 - rho)
    if exponent * math.log2(spread) > 40.0:
        return None
    order = np.arange(_MAX_ORDER + 1)
    g = np.cumprod(np.r_[1.0, (exponent / 2.0 + order[:-1]) / order[1:]])
    partial = np.cumsum(g * rho**order)
    remainder = (1.0 + rho) ** exponent * ((1.0 - rho) ** -exponent - partial**2)
    bound = remainder + (3 * m + 40 * order + 8.0 * exponent + 24) * 2.0**-53 * spread**exponent
    fits = np.flatnonzero(bound <= _SCREEN_SLACK / 8.0)
    return (g[: fits[0] + 1], float(bound[fits[0]])) if fits.size else None


def _screen(
    candidates: np.ndarray,
    far_pos: np.ndarray,
    weights: np.ndarray,
    center: np.ndarray,
    exponent: float,
) -> np.ndarray | None:
    """Each candidate's summed ``weights / d**exponent`` from the far-field
    expansion about `center` at the order :func:`_expansion` picks, in units
    where the nearest far node lies at 1 and the heaviest weighs 1; None
    where the bound does not hold.  The moments are one product of the far
    nodes' powers ``w |y|**-exponent y**-a`` with their conjugates, and each
    candidate's sum is ``Re(u M conj(u))``, ``u_a = g_a x**a``."""
    far = far_pos - center
    unit = np.hypot(far[:, 0], far[:, 1]).min()
    y = (far / unit).view(complex)[:, 0]
    x = ((candidates - center) / unit).view(complex)[:, 0]
    size = np.abs(y)
    expansion = _expansion(exponent, float(np.abs(x).max() / size.min()), len(y))
    if expansion is None:
        return None
    g = expansion[0]
    powers = _powers(1.0 / y, len(g))
    terms = weights / weights.max() * size**-exponent
    moments = (powers * terms) @ powers.conj().T
    u = _powers(x, len(g)) * g[:, None]
    sums = (moments.T @ u * u.conj()).real.sum(axis=0)
    top = sums.max()
    return sums if np.isfinite(top) and top >= len(y) * g.max() * 2.0**-900 else None


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """Rows ``z**0 .. z**(count - 1)``, each the previous times `z`."""
    out = np.ones((count, len(z)), dtype=complex)
    for a in range(1, count):
        np.multiply(out[a - 1], z, out=out[a])
    return out


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

