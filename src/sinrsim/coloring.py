"""Distributed node coloring (and its MIS reduction) under one-way links.

Every node walks the same state machine:

    learning -> wait -> compete(0) -+-> announce -> colored
                  ^        |        |
                  |        v        |
                  +---- request -> compete(j) -> compete(j+1) ...

*Learning* is a three-way handshake that tells a node which of its incoming
links are actually bidirectional.  A node may only enter the competitive
part while no *uncolored* node dominates it (reaches it without being
reachable back).  Leadership is decided in compete(0) by a counter race:
counters drift up once per eligible slot, competitors knock each other back
by announcing counter values, and whoever crosses the finish line first
announces a leader color.  Everyone else obtains a color interval from an
adjacent leader and verifies consecutive colors in further compete rounds.

Time accounting: every second slot (relative to wake-up) is reserved for
answering neighborhood-learning requests of late wakers, so all protocol
budgets below count *eligible* slots only and span twice as many wall
slots.  Counters are kept as lazy offsets against the eligible-slot count,
which lets the event-driven engine skip the long silent stretches.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Optional

from .broadcast import broadcast_budget
from .engine import ProtocolMachine
from .errors import ProtocolViolationError
from .model import Network, NetworkParams, Node

CORE, ANSWER = 0, 1

LEARNING = "learning"
WAIT = "wait"
COMPETE = "compete"
REQUEST = "request"
ANNOUNCE = "announce"
COLORED = "colored"


# -- messages ---------------------------------------------------------------


class LearnReq(NamedTuple):
    pass


class LearnReply(NamedTuple):
    target: int


class LearnAck(NamedTuple):
    target: int


class CounterMsg(NamedTuple):
    color: int
    value: int


class ColorMsg(NamedTuple):
    color: int
    fresh: bool = False  # True while the sender is still announcing


class RequestMsg(NamedTuple):
    leader: int


class AssignMsg(NamedTuple):
    target: int
    color: int


# -- protocol constants -------------------------------------------------------


@dataclass(frozen=True)
class ColoringConstants:
    """All slot budgets and probabilities of one protocol instantiation.

    Budgets are in eligible-slot units (half the wall slots, see module
    docstring).  Combinatorial counts derived from the squared range ratio
    use ceilings, which only loosens them.
    """

    prob_std: float
    prob_leader: float
    slots_std: int
    slots_leader: int
    leader_colors: int
    compete_span: int
    listen_slots: int
    request_budget: int
    learning_budget: int
    floor_leader_race: int
    floor_color_race: int
    max_degree: int

    @classmethod
    def derive(
        cls,
        params: NetworkParams,
        region_cap: float,
        max_degree: int,
        range_ratio: float,
        n: int,
        scale: Optional[float] = None,
    ) -> "ColoringConstants":
        scale = params.scale if scale is None else scale
        degree = max(1, max_degree)
        ratio_sq = range_ratio**2
        # `degree` nodes at prob_std and 9 ratio_sq leaders each take half the cap
        prob_std = region_cap / (2.0 * degree)
        prob_leader = region_cap / (18.0 * ratio_sq)
        slots_std = broadcast_budget(prob_std, params, max(2, n), scale)
        slots_leader = broadcast_budget(prob_leader, params, max(2, n), scale)
        span = math.ceil(38.0 * ratio_sq)
        listen = (span + 3) * slots_std
        return cls(
            prob_std=prob_std,
            prob_leader=prob_leader,
            slots_std=slots_std,
            slots_leader=slots_leader,
            leader_colors=math.ceil(9.0 * ratio_sq) + 1,
            compete_span=span,
            listen_slots=listen,
            request_budget=(span + 4) * slots_std + degree * slots_leader,
            learning_budget=(2 * degree + 1) * slots_std,
            floor_leader_race=-degree * slots_leader,
            floor_color_race=-span * slots_std,
            max_degree=degree,
        )

    def core_budget(self) -> int:
        """Worst-case eligible slots for one pass of the competitive part
        (compete(0), maximal consecutive competes, request, announce)."""
        compete0 = 3 * self.slots_std + self.max_degree * self.slots_leader
        competes = self.compete_span * (self.compete_span + 3) * self.slots_std
        request = self.request_budget
        announce = self.slots_leader + self.slots_std
        return compete0 + competes + request + announce

    def termination_budget(self, longest_chain: int) -> int:
        """Wall slots within which every node of a statically awake network
        must be colored: learning + initial listen + (chain + 1) passes of
        the competitive part, doubled for the answer-lane reservation."""
        ticks = (
            self.learning_budget
            + self.listen_slots
            + (longest_chain + 1) * self.core_budget()
        )
        return 2 * ticks


def free_counter_value(estimates, zeta: int) -> int:
    """Largest integer x <= 0 avoiding [d - zeta, d + zeta] for every
    estimate d."""
    x = 0
    while True:
        conflicts = [d for d in estimates if d - zeta <= x <= d + zeta]
        if not conflicts:
            return x
        x = min(d - zeta for d in conflicts) - 1


# -- the machine --------------------------------------------------------------


class ColoringMachine(ProtocolMachine):
    """One node's view of the coloring (or MIS) protocol."""

    LANES = 2

    def __init__(
        self,
        node: Node,
        constants: ColoringConstants,
        *,
        mis: bool = False,
    ):
        super().__init__(node)
        self.k = constants
        self.mis = mis

        self.phase = LEARNING
        self.color: Optional[int] = None
        self.colored_at: Optional[int] = None
        self._beacon: Optional[ColorMsg] = None  # the steady beacon while colored
        self.competes_visited = 0
        self.consecutive_competes = 0
        self.max_consecutive_competes = 0
        self.resigned_count = 0
        self.floor_violations = 0

        # link knowledge; both only grow, so the heard senders not (yet)
        # confirmed are kept apart for the dominance test
        self.heard_from: dict[int, int] = {}  # sender -> last slot heard
        self.confirmed_out: set[int] = set()  # nodes known to hear us
        self._unconfirmed: set[int] = set()  # heard_from keys - confirmed_out
        self.known_colored: dict[int, tuple[int, int]] = {}  # node -> (color, slot)
        self.taken_colors: dict[int, tuple[int, int]] = {}  # color -> (owner, slot)

        # one timer per lane: the core lane's next phase step and the end
        # of the answer window.  Every phase has two stages at most; each
        # phase entry resets the stage to 0 and arms the step.
        self._step_at: Optional[int] = None
        self._answer_at: Optional[int] = None
        self._stage = 0
        self._deadline = 0  # learning's and request's last step

        # compete bookkeeping (offsets against the eligible-slot count)
        self._compete_color = 0
        self._zeta = 0
        self._c_off = 0
        self._d_off: dict[int, int] = {}

        # request / colored bookkeeping
        self._request_leader: Optional[int] = None
        self._queue: deque[int] = deque()
        self._assign: Optional[AssignMsg] = None  # set for a service window
        self.reuse: dict[int, int] = {}  # requester -> color; only grows
        self._resign_pending = False

        # answer lane
        self._answers: deque[tuple[str, int]] = deque()
        self._answer_done: dict[tuple[str, int], int] = {}
        self._answer_current: Optional[tuple[str, int]] = None

    # -- eligible-slot arithmetic -----------------------------------------

    def _ticks(self, slot: int) -> int:
        """Core-eligible slots in [wake, slot)."""
        return (slot - self.node.wake_slot + 1) // 2

    def _after_ticks(self, anchor: int, ticks: int) -> int:
        """Earliest slot by which `ticks` more core-eligible slots passed."""
        return self.node.wake_slot + 2 * (self._ticks(anchor) + ticks) - 1

    # -- timers -------------------------------------------------------------

    def _resched(self) -> None:
        step, answer = self._step_at, self._answer_at
        if step is None or (answer is not None and answer < step):
            step = answer
        self.schedule(step)

    def _arm(self, slot: Optional[int]) -> None:
        """The next phase step falls on `slot` (None: no step)."""
        self._step_at = slot
        self._resched()

    def poll(self, slot: int) -> None:
        step = self._step_at is not None and self._step_at <= slot
        answer = self._answer_at is not None and self._answer_at <= slot
        if step:
            self._step_at = None
        if answer:
            self._answer_at = None
        self._resched()
        if answer:
            self._answer_window_done(slot)
        if step:
            self._phase_step(slot)

    # -- engine callbacks ----------------------------------------------------

    def wake(self, slot: int) -> None:
        self.configure_lane(CORE, 2, self.node.wake_slot % 2)
        self.configure_lane(ANSWER, 2, (self.node.wake_slot + 1) % 2)
        self.phase, self._stage = LEARNING, 0
        self.set_prob(CORE, self.k.prob_std)
        self._deadline = self._after_ticks(slot, self.k.learning_budget)
        self._arm(self._after_ticks(slot, self.k.slots_std))
        self.record(slot, "wake", None)

    def on_transmit(self, slot: int, lane: int) -> tuple[Any, float]:
        if lane == CORE and self.phase == COLORED:  # the steady beacon, most transmissions
            return self._beacon if self._assign is None else self._assign, self.node.power
        if lane == ANSWER:
            if self._answer_current is None:
                raise ProtocolViolationError(
                    f"node {self.node.id}: answer lane fired while idle"
                )
            kind, target = self._answer_current
            msg = LearnReply(target) if kind == "reply" else LearnAck(target)
        elif self.phase == LEARNING:
            msg = LearnReq()
        elif self.phase == COMPETE:
            msg = CounterMsg(self._compete_color, self._c_off + self._ticks(slot + 1))
        elif self.phase == REQUEST:
            msg = RequestMsg(self._request_leader)
        elif self.phase == ANNOUNCE:
            msg = ColorMsg(self.color, True)
        else:
            raise ProtocolViolationError(
                f"node {self.node.id}: core lane fired in phase {self.phase}"
            )
        return msg, self.node.power

    def on_receive(self, slot: int, sender: int, payload: Any) -> None:
        if sender not in self.heard_from and sender not in self.confirmed_out:
            self._unconfirmed.add(sender)
        self.heard_from[sender] = slot
        kind = type(payload)  # the common kinds first
        if kind is ColorMsg:
            self._saw_color(slot, sender, payload.color, payload.fresh)
        elif kind is CounterMsg:
            self._saw_counter(slot, sender, payload)
        elif kind is LearnReq:
            self._queue_answer(slot, "reply", sender)
        elif kind is LearnReply:
            if payload.target == self.node.id:
                self._confirm(sender)
                self._queue_answer(slot, "ack", sender)
        elif kind is LearnAck:
            if payload.target == self.node.id:
                self._confirm(sender)
        elif kind is RequestMsg:
            if payload.leader == self.node.id:
                self._saw_request(slot, sender)
        elif kind is AssignMsg:
            self._saw_assign(slot, sender, payload)
        if (
            self._unconfirmed
            and self.phase in (COMPETE, REQUEST, ANNOUNCE)
            and self._dominated(slot)
        ):
            self.record(slot, "dominated_abort", None)
            self._to_wait(slot)

    # -- knowledge ------------------------------------------------------------

    def _status_fresh(self, slot: int, stamped: int, color: int) -> bool:
        # leader colors are beaconed at the (slower) leader probability while
        # their holder serves requests, so their claims live a leader round
        ttl = self.k.slots_leader if color < self.k.leader_colors else self.k.slots_std
        return slot - stamped <= 2 * ttl

    def _color_of(self, slot: int, other: int) -> Optional[int]:
        entry = self.known_colored.get(other)
        if entry is not None and self._status_fresh(slot, entry[1], entry[0]):
            return entry[0]
        return None

    def _confirm(self, sender: int) -> None:
        self.confirmed_out.add(sender)
        self._unconfirmed.discard(sender)

    def _dominated(self, slot: int) -> bool:
        """An uncolored node reaches us that we cannot answer."""
        oldest = slot - 2 * self.k.request_budget  # earlier: presumed gone
        heard = self.heard_from
        for other in self._unconfirmed:
            if heard[other] >= oldest and self._color_of(slot, other) is None:
                return True
        return False

    def _free_leader_color(self, slot: int) -> int:
        for color in range(self.k.leader_colors):
            entry = self.taken_colors.get(color)
            if entry is None or not self._status_fresh(slot, entry[1], color):
                return color
        raise ProtocolViolationError(
            f"node {self.node.id}: no free leader color at slot {slot}"
        )

    # -- message reactions ----------------------------------------------------

    def _saw_color(self, slot: int, sender: int, color: int, fresh: bool) -> None:
        self.known_colored[sender] = (color, slot)
        self.taken_colors[color] = (sender, slot)
        if self.mis and color == 0 and self.phase in (WAIT, COMPETE, ANNOUNCE):
            self._decide(slot, 1)
            return
        if self.phase == COMPETE:
            if self._compete_color == 0 and not self.mis and color < self.k.leader_colors:
                if sender in self.confirmed_out:
                    self.record(slot, "lost_leadership", sender)
                    self._enter_request(slot, sender)
            elif self._compete_color > 0 and color == self._compete_color:
                self.record(slot, "lost_color", color)
                self._enter_compete(slot, color + 1, consecutive=True)
        elif self.phase == ANNOUNCE and color == self.color:
            self.record(slot, "announce_conflict", sender)
            self.color = None
            self._to_wait(slot)
        elif self.phase == COLORED and color == self.color:
            # Only a conflicting *announcement* forces resignation.  Steady
            # color beacons can also arrive from beyond the sender's
            # broadcasting range when interference happens to be low; those
            # senders are not graph neighbors, so yielding to them would
            # thrash (particularly in MIS mode, where only two colors
            # exist).  In coloring mode a steady-beacon conflict still
            # signals a genuinely broken coloring, so accept it as a
            # resignation trigger there.
            if fresh or not self.mis:
                if self._assign is not None:
                    self._resign_pending = True  # finish the assignment in flight
                else:
                    self._resign(slot)

    def _saw_counter(self, slot: int, sender: int, msg: CounterMsg) -> None:
        if self.phase != COMPETE or msg.color != self._compete_color:
            return
        ticks = self._ticks(slot + 1)
        self._d_off[sender] = msg.value - ticks
        if self._stage:  # racing
            mine = self._c_off + ticks
            if abs(mine - msg.value) <= self._zeta:
                fresh = free_counter_value(
                    [off + ticks for off in self._d_off.values()], self._zeta
                )
                self._check_floor(slot, fresh)
                self.record(slot, "reset", {"from": mine, "to": fresh, "by": sender})
                self._c_off = fresh - ticks
                self._set_win_timer(slot)

    def _saw_assign(self, slot: int, sender: int, msg: AssignMsg) -> None:
        # only colored leaders assign: keep the sender's color claim alive
        # through its long service windows, during which it pauses its own
        # color beacons
        entry = self.known_colored.get(sender)
        if entry is not None:
            self.known_colored[sender] = (entry[0], slot)
            owner = self.taken_colors.get(entry[0])
            if owner is not None and owner[0] == sender:
                self.taken_colors[entry[0]] = (sender, slot)
        if msg.target == self.node.id and self.phase == REQUEST:
            self.record(slot, "assigned", msg.color)
            self._enter_compete(slot, msg.color)

    def _saw_request(self, slot: int, sender: int) -> None:
        if self.phase not in (ANNOUNCE, COLORED):
            return
        if self.color is None or self.color >= self.k.leader_colors or self.mis:
            return
        serving = self._assign
        if (serving is None or sender != serving.target) and sender not in self._queue:
            self._queue.append(sender)
        if self.phase == COLORED and self._stage and serving is None:
            self._try_serve(slot)

    # -- phase transitions ------------------------------------------------------

    def _to_wait(self, slot: int, initial: bool = False) -> None:
        self.phase, self._stage = WAIT, 0
        self.done = False
        self.color = None
        self.colored_at = None
        self._assign = None
        self._resign_pending = False
        self.set_prob(CORE, 0.0)
        wait = self.k.listen_slots if initial else self.k.slots_std
        self._arm(self._after_ticks(slot, wait))

    def _wait_test(self, slot: int) -> None:
        if self.mis:
            for other in self.heard_from:
                if self._color_of(slot, other) == 0:
                    self._decide(slot, 1)
                    return
        if self._dominated(slot):
            self._arm(self._after_ticks(slot, self.k.slots_std))
            return
        if not self.mis:
            leaders = sorted(
                other
                for other in self.confirmed_out
                if other in self.heard_from
                and (c := self._color_of(slot, other)) is not None
                and c < self.k.leader_colors
            )
            if leaders:
                self._enter_request(slot, leaders[0])
                return
        self._enter_compete(slot, 0)

    def _enter_request(self, slot: int, leader: int) -> None:
        self.phase, self._stage = REQUEST, 0
        self._request_leader = leader
        self.record(slot, "request", leader)
        self.set_prob(CORE, self.k.prob_std)
        self._deadline = self._after_ticks(slot, self.k.request_budget)
        self._arm(self._after_ticks(slot, self.k.slots_std))

    def _enter_compete(self, slot: int, color: int, consecutive: bool = False) -> None:
        self.phase, self._stage = COMPETE, 0
        self._compete_color = color
        self._zeta = self.k.slots_leader if color == 0 else self.k.slots_std
        self._d_off = {}
        self.competes_visited += 1
        self.consecutive_competes = self.consecutive_competes + 1 if consecutive else 1
        self.max_consecutive_competes = max(
            self.max_consecutive_competes, self.consecutive_competes
        )
        self.record(slot, "compete", color)
        self.set_prob(CORE, 0.0)
        self._arm(self._after_ticks(slot, self.k.slots_std))

    def _start_race(self, slot: int) -> None:
        self._stage = 1
        ticks = self._ticks(slot + 1)
        start = free_counter_value(
            [off + ticks for off in self._d_off.values()], self._zeta
        )
        self._check_floor(slot, start)
        self._c_off = start - ticks
        self.set_prob(CORE, self.k.prob_std)
        self._set_win_timer(slot)

    def _check_floor(self, slot: int, value: int) -> None:
        floor = (
            self.k.floor_leader_race
            if self._compete_color == 0
            else self.k.floor_color_race
        )
        if value < floor:
            self.floor_violations += 1
            self.record(slot, "floor_violation", value)

    def _set_win_timer(self, slot: int) -> None:
        # earliest eligible slot whose pre-transmission counter value
        # exceeds the finish line
        need = self.k.slots_std + 1 - self._c_off
        win = self.node.wake_slot + 2 * (need - 1)
        self._arm(max(win, slot + 1))

    def _enter_announce(self, slot: int, color: int) -> None:
        self.phase, self._stage = ANNOUNCE, 0
        self.color = color
        self.record(slot, "announce", color)
        if color < self.k.leader_colors:
            self.set_prob(CORE, self.k.prob_leader)
            self._arm(self._after_ticks(slot, self.k.slots_leader))
        else:  # a follower announces in the second stage only
            self._stage = 1
            self.set_prob(CORE, self.k.prob_std)
            self._arm(self._after_ticks(slot, 2 * self.k.slots_std))

    def _enter_colored(self, slot: int) -> None:
        self.phase, self._stage = COLORED, 0
        self.colored_at = slot
        self._beacon = ColorMsg(self.color, False)
        self.done = True
        self.record(slot, "colored", self.color)
        self.set_prob(CORE, self.k.prob_std)
        if not self.mis and self.color < self.k.leader_colors:
            self._arm(self._after_ticks(slot, self.k.listen_slots))  # serving starts
        else:
            self._arm(None)

    def _decide(self, slot: int, color: int) -> None:
        """MIS shortcut: adopt a final color without announcing."""
        self.color = color
        self._enter_colored(slot)

    def _resign(self, slot: int) -> None:
        self.resigned_count += 1
        self.record(slot, "resign", self.color)
        self._queue.clear()
        self._to_wait(slot)

    def force_resign(self, slot: int) -> None:
        """Harness hook simulating a color conflict (churn experiments)."""
        if self.phase == COLORED:
            self._resign(slot)

    # -- phase steps ---------------------------------------------------------

    def _phase_step(self, slot: int) -> None:
        """The core lane's step, by phase and stage: learning and request
        send for a round (0) and then listen until `_deadline` (1); compete
        listens (0) and then races (1); announce beacons at the leader (0)
        and then at the standard probability (1); a serving leader listens
        (0) and then serves one requester per window (1)."""
        phase = self.phase
        if phase == WAIT:
            self._wait_test(slot)
        elif phase in (LEARNING, REQUEST) and not self._stage:
            # requests sent; keep listening until the deadline
            self._stage = 1
            self.set_prob(CORE, 0.0)
            self._arm(self._deadline)
        elif phase == LEARNING:
            self._learning_over(slot)
        elif phase == REQUEST:
            self.record(slot, "request_timeout", self._request_leader)
            self._to_wait(slot)
        elif phase == COMPETE:
            if not self._stage:
                self._start_race(slot)
            else:
                color = (
                    self._compete_color
                    if self._compete_color > 0
                    else (0 if self.mis else self._free_leader_color(slot))
                )
                self.record(slot, "won", color)
                self._enter_announce(slot, color)
        elif phase == ANNOUNCE:
            if not self._stage:
                self._stage = 1
                self.set_prob(CORE, self.k.prob_std)
                self._arm(self._after_ticks(slot, self.k.slots_std))
            else:
                self._enter_colored(slot)
        else:  # COLORED: the listen or a service window ended; serve on
            self._stage = 1
            self._assign = None
            if self._resign_pending:
                self._resign(slot)
            else:
                self._try_serve(slot)

    def _try_serve(self, slot: int) -> None:
        """Open a service window for the next requester, if one waits."""
        if self._queue:
            target = self._queue.popleft()
            span = self.k.compete_span
            color = self.reuse.setdefault(target, (len(self.reuse) + 1) * span)
            self._assign = AssignMsg(target, color)
            self.record(slot, "serve", {"target": target, "color": color})
            self.set_prob(CORE, self.k.prob_leader)
            self._arm(self._after_ticks(slot, self.k.slots_leader))
        else:
            self.set_prob(CORE, self.k.prob_std)

    def _learning_over(self, slot: int) -> None:
        self.record(
            slot,
            "learned",
            {
                "in": sorted(self.heard_from),
                "out": sorted(self.confirmed_out),
            },
        )
        self._to_wait(slot, initial=True)

    # -- answer lane ---------------------------------------------------------

    def _queue_answer(self, slot: int, kind: str, target: int) -> None:
        key = (kind, target)
        if key == self._answer_current or key in self._answers:
            return
        last = self._answer_done.get(key)
        if last is not None and slot - last <= 4 * self.k.slots_std:
            return  # answered this handshake already
        self._answers.append(key)
        if self._answer_current is None:
            self._next_answer(slot)

    def _next_answer(self, slot: int) -> None:
        if self._answers:
            self._answer_current = self._answers.popleft()
            self.set_prob(ANSWER, self.k.prob_std)
            # answer-lane slots are the core-lane slots shifted by one
            self._answer_at = self._after_ticks(slot - 1, self.k.slots_std) + 1
            self._resched()
        else:
            self._answer_current = None
            self.set_prob(ANSWER, 0.0)

    def _answer_window_done(self, slot: int) -> None:
        self._answer_done[self._answer_current] = slot
        self._next_answer(slot)


# -- validators ----------------------------------------------------------------


@dataclass
class ColoringVerdict:
    complete: bool
    valid: bool
    distinct_colors: int
    color_bound: int
    within_bound: bool
    leader_independent: bool
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.complete and self.valid and self.within_bound and self.leader_independent


def validate_coloring(
    network: Network,
    colors: Mapping[int, Optional[int]],
    constants: ColoringConstants,
) -> ColoringVerdict:
    """Check validity (no link between same-colored nodes, in either
    direction), the color-count budget, and leader independence."""
    problems: list[str] = []
    missing = [v for v in network.ids if colors.get(v) is None]
    complete = not missing
    if missing:
        problems.append(f"uncolored nodes: {missing[:8]}")

    ids = network.ids
    valid = True
    for i, v in enumerate(ids):
        for j in network.out_indices(i).tolist():
            u = ids[j]
            if colors.get(v) is not None and colors.get(v) == colors.get(u):
                valid = False
                problems.append(f"link {v}->{u} joins equal colors {colors[v]}")

    used = {c for c in colors.values() if c is not None}
    bound = constants.leader_colors + constants.compete_span * (constants.max_degree + 1)
    within = len(used) <= bound

    leader_ok = True
    leaders = [i for i, v in enumerate(ids) if (c := colors.get(v)) is not None and c < constants.leader_colors]
    is_leader = set(leaders)
    for i in leaders:
        # later leaders in index order that i links to and back
        for j in network.out_indices(i).tolist():
            if j > i and j in is_leader and i in network.out_indices(j):
                leader_ok = False
                problems.append(f"bidirectional leaders {ids[i]}, {ids[j]}")

    return ColoringVerdict(
        complete=complete,
        valid=valid and complete,
        distinct_colors=len(used),
        color_bound=bound,
        within_bound=within,
        leader_independent=leader_ok,
        problems=problems,
    )


@dataclass
class MisVerdict:
    complete: bool
    independent: bool
    dominating: bool
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.complete and self.independent and self.dominating


def validate_mis(network: Network, members: Mapping[int, Optional[bool]]) -> MisVerdict:
    """Independence: no communication link in either direction between two
    members.  Domination: every non-member hears some member (has an
    incoming link from one)."""
    problems: list[str] = []
    undecided = [v for v in network.ids if members.get(v) is None]
    complete = not undecided
    if undecided:
        problems.append(f"undecided nodes: {undecided[:8]}")

    ids = network.ids
    independent = True
    dominating = True
    for i, v in enumerate(ids):
        if members.get(v):
            for j in network.out_indices(i).tolist():
                if members.get(ids[j]):
                    independent = False
                    problems.append(f"linked members {v}, {ids[j]}")
        elif members.get(v) is not None:
            covered = any(members.get(ids[j]) for j in network.in_indices(i).tolist())
            if not covered:
                dominating = False
                problems.append(f"non-member {v} hears no member")

    return MisVerdict(
        complete=complete,
        independent=independent,
        dominating=dominating and complete,
        problems=problems,
    )
