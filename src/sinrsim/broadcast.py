"""Local-broadcasting protocols as slot-stepped state machines.

Three variants cover the knowledge regimes a node can be in:

* :class:`FixedProbBroadcaster` -- the maximum degree is known, so every
  node simply transmits with the safe fixed probability for a fixed budget;
* :class:`SlowStartBroadcaster` -- the degree is unknown; the probability
  ramps up geometrically under a hard cap and backs off on every reception;
* :class:`VariablePowerBroadcaster` -- the transmit power may change from
  slot to slot; the achievable radius is certified afterwards from the
  recorded power profile.

Success of a run is judged by :func:`verify_local_broadcast` against the
reception record of a simulation trace.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .analysis import PowerTrace
from .engine import ProtocolMachine, SimTrace
from .errors import ProtocolViolationError
from .model import Network, NetworkParams, Node


class Broadcast(NamedTuple):
    """The single opaque token a node tries to deliver to its neighbors."""

    origin: int


def broadcast_budget(prob: float, params: NetworkParams, n_hint: int, scale: float) -> int:
    """Slots needed so that transmitting with `prob` in each one succeeds
    with probability at least 1 - n**(-c_whp):  ceil(scale * 8c/p * ln n)."""
    if not (0.0 < prob <= 1.0):
        raise ValueError("probability must lie in (0, 1]")
    return max(1, math.ceil(scale * 8.0 * params.c_whp / prob * math.log(n_hint)))


class FixedProbBroadcaster(ProtocolMachine):
    """Transmit with a fixed probability for a fixed number of slots."""

    def __init__(
        self,
        node: Node,
        rng: np.random.Generator,
        *,
        prob: float,
        budget: int,
        payload: Optional[Broadcast] = None,
    ):
        super().__init__(node, rng)
        if not (0.0 < prob <= 1.0):
            raise ValueError("probability must lie in (0, 1]")
        if budget < 1:
            raise ValueError("budget must be at least one slot")
        self.wants_rx = False
        self.prob = prob
        self.budget = budget
        self.payload = payload if payload is not None else Broadcast(node.id)
        self.slots_elapsed = 0
        self.end_slot: Optional[int] = None

    def wake(self, slot: int) -> None:
        self.end_slot = slot + self.budget
        self.set_prob(0, self.prob)
        self.schedule(self.end_slot)

    def poll(self, slot: int) -> None:
        self.slots_elapsed = self.budget
        self.set_prob(0, 0.0)
        self.done = True

    def on_transmit(self, slot: int, lane: int) -> tuple[Broadcast, float]:
        if self.done:
            raise ProtocolViolationError(f"node {self.node.id} stepped after completion")
        return self.payload, self.node.power


class SlowStartBroadcaster(ProtocolMachine):
    """Geometric probability ramp for the unknown-degree regime.

    Starting from cap/n_hint the probability doubles at every phase
    boundary up to the hard cap, and is halved (floored at the start value)
    on every reception, which keeps regional probability mass bounded when
    neighborhoods get crowded.  The node is finished once it has spent
    `cap_slots_target` cumulative slots transmitting at the cap -- the
    budget that makes a broadcast at cap probability succeed whp -- or once
    the global `budget` runs out.
    """

    def __init__(
        self,
        node: Node,
        rng: np.random.Generator,
        *,
        prob_cap: float,
        n_hint: int,
        phase_len: int,
        cap_slots_target: int,
        budget: int,
        payload: Optional[Broadcast] = None,
    ):
        super().__init__(node, rng)
        if not (0.0 < prob_cap <= 1.0):
            raise ValueError("probability cap must lie in (0, 1]")
        if phase_len < 1 or cap_slots_target < 1 or budget < 1:
            raise ValueError("phase length, cap target and budget must be positive")
        self.prob_cap = prob_cap
        self.prob_init = prob_cap / n_hint
        self.phase_len = phase_len
        self.cap_slots_target = cap_slots_target
        self.budget = budget
        self.payload = payload if payload is not None else Broadcast(node.id)

        self.p_cur = self.prob_init
        self.received_this_phase = 0
        self._phase_idx = 0
        self.cap_slots = 0
        self._cap_since: Optional[int] = None
        self.start_slot: Optional[int] = None
        self.end_slot: Optional[int] = None
        self.completed_at_cap = False

    # -- bookkeeping -------------------------------------------------------

    def _phase_of(self, slot: int) -> int:
        return (slot - self.start_slot) // self.phase_len

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
            boundary = self.start_slot + (self._phase_of(slot) + 1) * self.phase_len
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
        self._sync_cap(slot)
        if slot >= self.end_slot or self.cap_slots >= self.cap_slots_target:
            self.completed_at_cap = self.cap_slots >= self.cap_slots_target
            self._cap_since = None
            self.set_prob(0, 0.0)
            self.done = True
            return
        if self._phase_of(slot) != self._phase_idx:
            self._phase_idx = self._phase_of(slot)
            self.received_this_phase = 0
            self._apply(slot, min(self.prob_cap, 2.0 * self.p_cur))
        else:
            self._reschedule(slot)

    def on_receive(self, slot: int, messages) -> None:
        if self.done:
            return
        if self._phase_of(slot) != self._phase_idx:
            self._phase_idx = self._phase_of(slot)
            self.received_this_phase = 0
        self.received_this_phase += len(messages)
        self._apply(slot, max(self.prob_init, self.p_cur / 2.0))

    def on_transmit(self, slot: int, lane: int) -> tuple[Broadcast, float]:
        return self.payload, self.node.power


class PowerSchedule:
    """Piecewise-constant transmit power over slots relative to wake-up;
    each (start, power) piece applies until the next one."""

    def __init__(self, pieces: Sequence[tuple[int, float]]):
        if not pieces:
            raise ValueError("schedule needs at least one piece")
        starts = [s for s, _ in pieces]
        if starts[0] != 0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("pieces must start at 0 and strictly increase")
        if any(p <= 0.0 for _, p in pieces):
            raise ValueError("scheduled powers must be positive")
        self.starts = starts
        self.powers = [p for _, p in pieces]

    def power_at(self, offset: int) -> float:
        return self.powers[bisect_right(self.starts, offset) - 1]

    def bounds(self) -> tuple[float, float]:
        return min(self.powers), max(self.powers)

    def trace_pieces(self, duration: int) -> tuple[tuple[int, int, float], ...]:
        out = []
        for k, start in enumerate(self.starts):
            if start >= duration:
                break
            end = self.starts[k + 1] if k + 1 < len(self.starts) else duration
            out.append((start, min(end, duration), self.powers[k]))
        return tuple(out)


class VariablePowerBroadcaster(ProtocolMachine):
    """Fixed transmission probability, per-slot power from a schedule."""

    def __init__(
        self,
        node: Node,
        rng: np.random.Generator,
        *,
        prob: float,
        schedule: PowerSchedule,
        duration: int,
        power_bounds: tuple[float, float],
        payload: Optional[Broadcast] = None,
    ):
        super().__init__(node, rng)
        if not (0.0 <= prob <= 1.0):
            raise ValueError("probability must lie in [0, 1]")
        if duration < 1:
            raise ValueError("duration must be positive")
        lo, hi = schedule.bounds()
        if lo < power_bounds[0] or hi > power_bounds[1]:
            raise ProtocolViolationError(
                f"node {node.id}: scheduled powers [{lo}, {hi}] leave the "
                f"declared global range {power_bounds}"
            )
        self.wants_rx = False
        self.prob = prob
        self.power_schedule = schedule
        self.duration = duration
        self.power_bounds = power_bounds
        self.payload = payload if payload is not None else Broadcast(node.id)
        self.start_slot: Optional[int] = None

    def wake(self, slot: int) -> None:
        self.start_slot = slot
        if self.prob > 0.0:
            self.set_prob(0, self.prob)
        self.schedule(slot + self.duration)

    def poll(self, slot: int) -> None:
        self.set_prob(0, 0.0)
        self.done = True

    def on_transmit(self, slot: int, lane: int) -> tuple[Broadcast, float]:
        power = self.power_schedule.power_at(slot - self.start_slot)
        lo, hi = self.power_bounds
        if not (lo <= power <= hi):
            raise ProtocolViolationError(
                f"node {self.node.id}: power {power} outside [{lo}, {hi}]"
            )
        return self.payload, power

    def power_trace(self) -> PowerTrace:
        """Profile of the scheduled powers over the transmission interval."""
        return PowerTrace(
            node_id=self.node.id,
            interval_start=0,
            interval_end=self.duration,
            pieces=self.power_schedule.trace_pieces(self.duration),
        )


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
