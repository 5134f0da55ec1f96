"""Local-broadcasting protocols as slot-stepped state machines.

Two machines cover the three knowledge regimes a node can be in:

* :class:`FixedProbBroadcaster` -- the maximum degree is known, so every
  node simply transmits with the safe fixed probability for a fixed budget.
  Given power pieces, it also runs the variable-power protocol: the power
  changes from slot to slot, and the achievable radius is certified
  afterwards from the power profile (:meth:`~FixedProbBroadcaster.power_trace`);
* :class:`SlowStartBroadcaster` -- the degree is unknown; the probability
  ramps up geometrically under a hard cap and backs off on every reception.

Success of a run is judged by :func:`verify_local_broadcast` against the
reception record of a simulation trace.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .analysis import PowerTrace, whp_slots
from .engine import ProtocolMachine, SimTrace
from .errors import ProtocolViolationError
from .model import Network, NetworkParams, Node


class Broadcast(NamedTuple):
    """The single opaque token a node tries to deliver to its neighbors."""

    origin: int


def broadcast_budget(prob: float, params: NetworkParams, n: int, scale: float) -> int:
    """:func:`~sinrsim.analysis.whp_slots` rounded up to a whole slot
    count of at least 1."""
    if not (0.0 < prob <= 1.0):
        raise ValueError("probability must lie in (0, 1]")
    return max(1, math.ceil(whp_slots(prob, params, n, scale)))


class FixedProbBroadcaster(ProtocolMachine):
    """Transmit with a fixed probability for a fixed number of slots.

    The power is piecewise constant over the slots since wake-up: each
    `(start, power)` piece applies until the next one, and the default is
    the node's own power throughout.  Every scheduled power must lie inside
    `power_bounds` when those are given.  It never reacts to a reception,
    so it defines no `on_receive` and the engine keeps no inbox for it.
    """

    def __init__(
        self,
        node: Node,
        *,
        prob: float,
        budget: int,
        pieces: Optional[Sequence[tuple[int, float]]] = None,
        power_bounds: Optional[tuple[float, float]] = None,
    ):
        super().__init__(node)
        if not (0.0 < prob <= 1.0):
            raise ValueError("probability must lie in (0, 1]")
        if budget < 1:
            raise ValueError("budget must be at least one slot")
        pieces = [(0, node.power)] if pieces is None else pieces
        starts = [s for s, _ in pieces]
        powers = [p for _, p in pieces]
        if not starts or starts[0] != 0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("pieces must start at 0 and strictly increase")
        if not all(p > 0.0 for p in powers):
            raise ValueError("scheduled powers must be positive")
        if power_bounds is not None and not (
            power_bounds[0] <= min(powers) and max(powers) <= power_bounds[1]
        ):
            raise ProtocolViolationError(
                f"node {node.id}: scheduled powers [{min(powers)}, {max(powers)}] "
                f"leave the declared global range {power_bounds}"
            )
        self.prob = prob
        self.budget = budget
        self.starts = starts
        self.powers = powers
        self.payload = Broadcast(node.id)
        self.start_slot: Optional[int] = None

    def wake(self, slot: int) -> None:
        self.start_slot = slot
        self.set_prob(0, self.prob)
        self.schedule(slot + self.budget)

    def poll(self, slot: int) -> None:
        self.set_prob(0, 0.0)
        self.done = True

    def on_transmit(self, slot: int, lane: int) -> tuple[Broadcast, float]:
        if self.done:
            raise ProtocolViolationError(f"node {self.node.id} stepped after completion")
        return self.payload, self.powers[bisect_right(self.starts, slot - self.start_slot) - 1]

    def power_trace(self) -> PowerTrace:
        """Profile of the scheduled powers over the budget, with the pieces
        clipped to it."""
        ends = self.starts[1:] + [self.budget]
        pieces = tuple(
            (start, min(end, self.budget), power)
            for start, end, power in zip(self.starts, ends, self.powers)
            if start < self.budget
        )
        return PowerTrace(
            node_id=self.node.id, interval_start=0, interval_end=self.budget, pieces=pieces
        )


class SlowStartBroadcaster(ProtocolMachine):
    """Geometric probability ramp for the unknown-degree regime.

    Starting from cap/n, with `n` the node's known estimate of the network
    size, the probability doubles at every phase boundary up to the hard
    cap, and is halved (floored at the start value) on every reception,
    which keeps regional probability mass bounded when neighborhoods get
    crowded.  The node is finished once it has spent `cap_slots_target`
    cumulative slots transmitting at the cap -- the budget that makes a
    broadcast at cap probability succeed whp -- or once the global `budget`
    runs out.
    """

    def __init__(
        self,
        node: Node,
        *,
        prob_cap: float,
        n: int,
        phase_len: int,
        cap_slots_target: int,
        budget: int,
    ):
        super().__init__(node)
        if not (0.0 < prob_cap <= 1.0):
            raise ValueError("probability cap must lie in (0, 1]")
        if phase_len < 1 or cap_slots_target < 1 or budget < 1:
            raise ValueError("phase length, cap target and budget must be positive")
        self.prob_cap = prob_cap
        self.prob_init = prob_cap / n
        self.phase_len = phase_len
        self.cap_slots_target = cap_slots_target
        self.budget = budget
        self.payload = Broadcast(node.id)

        self.p_cur = self.prob_init
        self.cap_slots = 0
        self._cap_since: Optional[int] = None
        self.start_slot: Optional[int] = None
        self.end_slot: Optional[int] = None

    # -- bookkeeping -------------------------------------------------------

    def _sync_cap(self, slot: int) -> None:
        if self._cap_since is not None:
            self.cap_slots += slot - self._cap_since
            self._cap_since = slot

    def _apply(self, slot: int, prob: float) -> None:
        self._sync_cap(slot)
        self.p_cur = prob
        if prob == self.prob_cap:
            if self._cap_since is None:
                self._cap_since = slot
        else:
            self._cap_since = None
        self.set_prob(0, prob)
        self._reschedule(slot)

    def _reschedule(self, slot: int) -> None:
        assert self.start_slot is not None and self.end_slot is not None
        candidates = [self.end_slot]
        if self.p_cur < self.prob_cap:
            # next absolute phase boundary; while at the cap doubling is a
            # no-op so those boundaries need no events
            phase = (slot - self.start_slot) // self.phase_len
            boundary = self.start_slot + (phase + 1) * self.phase_len
            candidates.append(boundary)
        if self._cap_since is not None:
            candidates.append(slot + (self.cap_slots_target - self.cap_slots))
        self.schedule(min(candidates))

    # -- engine callbacks ----------------------------------------------------

    def wake(self, slot: int) -> None:
        self.start_slot = slot
        self.end_slot = slot + self.budget
        self._apply(slot, self.p_cur)

    def poll(self, slot: int) -> None:
        """Stop at the end of the budget or of the cap time, or double at
        the next phase boundary, where a reception moves the checkpoint."""
        self._sync_cap(slot)
        if slot >= self.end_slot or self.cap_slots >= self.cap_slots_target:
            self._cap_since = None
            self.set_prob(0, 0.0)
            self.done = True
        else:
            self._apply(slot, min(self.prob_cap, 2.0 * self.p_cur))

    def on_receive(self, slot: int, sender: int, payload) -> None:
        if self.done:
            return
        self._apply(slot, max(self.prob_init, self.p_cur / 2.0))

    def on_transmit(self, slot: int, lane: int) -> tuple[Broadcast, float]:
        return self.payload, self.node.power


def verify_local_broadcast(
    trace: SimTrace,
    network: Network,
    sender: int,
    window: tuple[int, int],
    *,
    radius: Optional[float] = None,
) -> bool:
    """True iff every intended receiver of `sender` that stayed awake for
    the whole window got the message inside it.

    Intended receivers are the nodes within the sender's broadcasting range,
    or within `radius` when one is passed (the certified radius of a
    variable-power run).  Vacuously true when there are none.
    """
    if sender not in trace.machines:
        raise ValueError(f"unknown sender id {sender}")
    start, end = window
    if radius is None:
        receivers = network.out_edges[sender]
    else:
        row = network.distance_row(network.index(sender))
        receivers = [network.ids[j] for j in np.flatnonzero(row <= radius).tolist()]
    for other in receivers:
        if other == sender:
            continue
        node = network.node(other)
        if node.wake_slot > start or (node.sleep_slot is not None and node.sleep_slot < end):
            continue  # not awake throughout; outside the guarantee
        got = trace.first_rx[other].get(sender)
        if got is None or not (start <= got < end):
            return False
    return True
