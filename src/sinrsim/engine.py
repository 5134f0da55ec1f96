"""Slotted physical-layer resolution and the deterministic simulation loop.

The simulator is event-driven: between protocol events almost every slot is
silent, so rather than stepping each node once per slot, each node's
transmission lottery ("transmit with probability p in every eligible slot")
is sampled as a geometric gap to its next transmission.  By memorylessness
this is distributionally identical to the per-slot Bernoulli draw, and it
lets runs spanning tens of millions of slots finish in seconds.  Whenever a
node's regime changes (a wake-up, a reception, a scheduled phase
boundary), its pending gap is discarded and redrawn, which is again exact.
A transmission changes no regime: :meth:`ProtocolMachine.on_transmit` only
names the message and power, and the lane that fired is redrawn as is.

Determinism contract: a run is fully determined by (network, seed, config).
The engine draws each node's lottery from the node's own PCG64 stream,
seeded by (root seed, node id), so one node's behaviour never perturbs
another's randomness; nothing else draws from the streams.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ProtocolViolationError, SimulationAbort
from .model import Network, Node

__all__ = [
    "Transmission",
    "SlotOutcome",
    "SimTrace",
    "TraceConfig",
    "Lane",
    "ProtocolMachine",
    "sinr_check",
    "resolve_slot",
    "run_simulation",
    "node_rng",
]


# ---------------------------------------------------------------------------
# physical layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Transmission:
    sender: int
    slot: int
    power: float
    payload: Any


@dataclass(frozen=True, slots=True)
class SlotOutcome:
    slot: int
    transmissions: tuple[Transmission, ...]
    receptions: tuple[tuple[int, Transmission], ...]


def sinr_check(
    network: Network,
    sender: int,
    listener: int,
    interferers: Iterable[tuple[int, float]] = (),
    *,
    sender_power: Optional[float] = None,
) -> bool:
    """Decide a single reception using the *true* physical parameters.

    `interferers` are (node id, power) pairs transmitting simultaneously;
    neither the sender nor the listener may appear among them.  This and
    :func:`resolve_slot` are the reference physical model: the tests and
    perfbench/run.py replay the engine's slots against them.
    """
    if sender == listener:
        raise ValueError("sender cannot listen to itself")
    params = network.params
    alpha = params.alpha_true
    d = network.dist(sender, listener)
    if d <= 0.0:
        raise ValueError("zero distance makes the SINR undefined")
    power = network.node(sender).power if sender_power is None else sender_power
    signal = power / d**alpha
    interference = 0.0
    for other, other_power in interferers:
        if other == listener:
            raise ValueError("a listener cannot interfere with itself")
        d_other = network.dist(other, listener)
        if d_other <= 0.0:
            raise ValueError("zero distance makes the SINR undefined")
        interference += other_power / d_other**alpha
    return signal / (interference + params.noise_true) >= params.beta_true


def resolve_slot(
    network: Network,
    transmissions: Sequence[Transmission],
    *,
    awake: Optional[set[int]] = None,
) -> SlotOutcome:
    """Reference slot resolution: which transmissions are decoded by whom.

    Receivers are half-duplex (a transmitting node hears nothing), and if a
    contrived parameterization ever lets two transmissions pass the SINR test
    at one listener, neither is delivered, so at most one reception per
    listener per slot holds unconditionally.
    """
    if not transmissions:
        return SlotOutcome(slot=0, transmissions=(), receptions=())
    slot = transmissions[0].slot
    senders: set[int] = set()
    for tx in transmissions:
        if tx.slot != slot:
            raise ValueError("all transmissions must belong to one slot")
        if not network.awake_at(tx.sender, slot):
            raise ProtocolViolationError(
                f"node {tx.sender} transmitted at slot {slot} while not awake"
            )
        if tx.sender in senders:
            raise ProtocolViolationError(
                f"node {tx.sender} produced two transmissions in slot {slot}"
            )
        senders.add(tx.sender)

    if awake is None:
        awake = {v for v in network.ids if network.awake_at(v, slot)}

    receptions: list[tuple[int, Transmission]] = []
    for listener in network.ids:
        if listener in senders or listener not in awake:
            continue
        decoded: list[Transmission] = []
        for tx in transmissions:
            others = [
                (o.sender, o.power) for o in transmissions if o.sender != tx.sender
            ]
            if sinr_check(network, tx.sender, listener, others, sender_power=tx.power):
                decoded.append(tx)
        if len(decoded) == 1:
            receptions.append((listener, decoded[0]))
    return SlotOutcome(
        slot=slot, transmissions=tuple(transmissions), receptions=tuple(receptions)
    )


# ---------------------------------------------------------------------------
# protocol machine interface
# ---------------------------------------------------------------------------


class Lane:
    """One transmission process of a node: in every eligible slot (those
    congruent to `phase` modulo `period`) the node transmits with
    probability `prob`."""

    __slots__ = ("period", "phase", "prob")

    def __init__(self, period: int = 1, phase: int = 0, prob: float = 0.0):
        self.period = period
        self.phase = phase
        self.prob = prob


class ProtocolMachine:
    """Base class for per-node protocol state machines.

    Subclasses react to engine callbacks -- :meth:`wake`, :meth:`poll` (a
    slot they scheduled arrived) and :meth:`on_receive` -- and supply the
    message for each transmission the engine's lottery fires through
    :meth:`on_transmit`.  A listener decodes at most one transmission per
    slot, so :meth:`on_receive` gets one ``(sender id, payload)`` per call,
    at most one call per slot.  All behaviour is steered through lane
    probabilities, the scheduled slot and `done`; the engine takes care of
    when the lottery actually fires.

    Those three may change in :meth:`wake`, :meth:`poll`,
    :meth:`on_receive` and scripted actions only.  :meth:`on_transmit` is a
    query: it returns ``(payload, power)``, and a machine that changes its
    lanes, checkpoint or `done` inside it stops the run with a
    :class:`ProtocolViolationError` naming the node and slot.

    `LANES`, a class attribute, is the machine's number of lanes.  A class
    whose :meth:`on_receive` is this base class's gets no calls, and the
    engine keeps no inbox for it; its receptions still count in the trace.
    A machine holds protocol state only: the engine owns the node's random
    stream and draws the lottery from it.
    """

    LANES = 1

    def __init__(self, node: Node):
        self.node = node
        self.lanes = [Lane() for _ in range(self.LANES)]
        self.done = False
        self.log: list[tuple[int, str, Any]] = []
        self._checkpoint: Optional[int] = None
        self._dirty = False

    # -- engine-facing ----------------------------------------------------

    def wake(self, slot: int) -> None:
        pass

    def poll(self, slot: int) -> None:
        pass

    def on_receive(self, slot: int, sender: int, payload: Any) -> None:
        pass

    def on_transmit(self, slot: int, lane: int) -> tuple[Any, float]:
        raise NotImplementedError

    @property
    def next_checkpoint(self) -> Optional[int]:
        return self._checkpoint

    # -- subclass helpers --------------------------------------------------

    def set_prob(self, lane: int, prob: float) -> None:
        if self.lanes[lane].prob != prob:
            self.lanes[lane].prob = prob
            self._dirty = True

    def configure_lane(self, lane: int, period: int, phase: int) -> None:
        ln = self.lanes[lane]
        ln.period, ln.phase = period, phase
        self._dirty = True

    def schedule(self, slot: Optional[int]) -> None:
        self._checkpoint = slot

    def record(self, slot: int, kind: str, data: Any = None) -> None:
        self.log.append((slot, kind, data))


def node_rng(seed: int, node_id: int) -> np.random.Generator:
    """The per-node random stream, independent of every other node's."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, node_id))))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


@dataclass
class TraceConfig:
    record_outcomes: bool = False  # keep full per-slot transmissions + receptions
    outcome_limit: Optional[int] = None  # cap on recorded eventful slots


@dataclass
class SimTrace:
    seed: int
    n_slots: int
    completed: bool
    machines: dict[int, ProtocolMachine]
    first_rx: dict[int, dict[int, int]]  # listener -> sender -> slot of first reception
    tx_count: dict[int, int]
    full_success_count: dict[int, int]
    first_full_success: dict[int, Optional[int]]
    draws: dict[int, int]  # uniforms taken from each node's stream
    outcomes: Optional[list[SlotOutcome]] = None
    eventful_slots: int = 0
    outcomes_truncated: bool = False  # outcome_limit dropped records
    heap_pops: int = 0  # lane, checkpoint, wake, sleep and script entries taken off the heap
    stale_tx_entries: int = 0  # popped lane entries that were redrawn or whose node slept
    multi_tx_slots: int = 0  # eventful slots with more than one transmission

    def export_jsonl(self, path: str) -> None:
        """Line-delimited replay records; requires recorded outcomes."""
        if self.outcomes is None:
            raise ValueError("trace was run without outcome recording")
        with open(path, "w", encoding="utf-8") as fh:
            for outcome in self.outcomes:
                for tx in outcome.transmissions:
                    fh.write(
                        json.dumps(
                            {
                                "slot": outcome.slot,
                                "sender": tx.sender,
                                "kind": _payload_kind(tx.payload),
                            }
                        )
                        + "\n"
                    )
                for listener, tx in outcome.receptions:
                    fh.write(
                        json.dumps(
                            {
                                "slot": outcome.slot,
                                "sender": tx.sender,
                                "listener": listener,
                                "kind": _payload_kind(tx.payload),
                            }
                        )
                        + "\n"
                    )


def _payload_kind(payload: Any) -> str:
    if hasattr(payload, "_fields"):  # NamedTuple protocol messages
        return type(payload).__name__
    return str(payload)


# ---------------------------------------------------------------------------
# the event loop
# ---------------------------------------------------------------------------

# heap entries are (slot, kind, node index, lane); within a slot they pop in
# kind order, which is also the order the loop handles them in.  Receptions
# need no entry: the loop visits the slot after a reception by itself.
_WAKE, _SLEEP, _SCRIPT, _CHECK, _TX = range(5)

_SlotTx = tuple[int, float, Any]  # (node index, power, payload)
# Network.lone_reach: (exact reach, slack superset, out-neighbours, missing)
_LoneReach = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class _Core:
    """Physical-layer state of one run: awake and transmitting flags per
    node index.  Lone reach comes from the network's cache,
    :meth:`Network.lone_reach`, its only copy.  Interference only raises
    the SINR denominator, so a multi-transmission slot is decided over the
    listeners inside its senders' reach only."""

    def __init__(self, network: Network):
        self.network = network
        params = network.params
        self.beta = params.beta_true
        self.noise = params.noise_true
        self.awake = bytearray(network.n)
        self.sending = bytearray(network.n)
        # nodes whose awake flag is clear; an overcount only costs the
        # filtering that a count of 0 lets a lone transmission skip
        self.asleep = network.n

    def resolve(self, txs: list[_SlotTx]) -> tuple[list[Sequence[int]], list[_LoneReach]]:
        """Ascending indices of the awake, non-transmitting listeners that
        decode each transmission, under the same delivery rule as
        :func:`resolve_slot`, and each transmission's
        :meth:`Network.lone_reach` entry; the transmitters are flagged in
        `sending`.  The sequences are read-only; they may be cached reach
        sets.

        A multi-transmission slot has a few senders and candidates, so it
        is decided in Python floats around one array call, the path losses
        (:meth:`Network.path_loss`): the IEEE operations are those of a
        dense matrix evaluation, bit for bit."""
        reach = self.network.lone_reach
        if len(txs) == 1:
            idx, power, _ = txs[0]
            entry = reach(idx, power)
            exact = entry[0]
            if not self.asleep:
                return [exact], [entry]
            awake = self.awake
            return [[l for l in exact if awake[l]]], [entry]
        received: list[list[int]] = [[] for _ in txs]
        entries = [reach(idx, power) for idx, power, _ in txs]
        union: set[int] = set()
        for entry in entries:
            union.update(entry[1])
        awake, sending = self.awake, self.sending
        cand = sorted([l for l in union if awake[l] and not sending[l]])
        if not cand:
            return received, entries
        # gains of every sender, far ones included
        losses = self.network.path_loss([idx for idx, _, _ in txs], cand).tolist()
        gains = [[power / loss for loss in row] for (_, power, _), row in zip(txs, losses)]
        beta, noise = self.beta, self.noise
        for l, column in zip(cand, zip(*gains)):
            # the denominator adds up left to right, gains in transmission
            # order and then the noise
            total = 0.0
            for g in column:
                total += g
            total += noise
            hits = [t for t, g in enumerate(column) if g >= beta * (total - g)]
            if len(hits) == 1:
                received[hits[0]].append(l)
        return received, entries


def _parity_probs(machine: ProtocolMachine) -> tuple[float, float]:
    """Per-slot transmission probability on even/odd absolute slots.  A
    lane of odd period has eligible slots of both parities."""
    even = 1.0
    odd = 1.0
    for lane in machine.lanes:
        if lane.period % 2:
            even *= 1.0 - lane.prob
            odd *= 1.0 - lane.prob
        elif lane.phase % 2 == 0:
            even *= 1.0 - lane.prob
        else:
            odd *= 1.0 - lane.prob
    return 1.0 - even, 1.0 - odd


# uniforms per block: every node's block is held for the whole run, so a
# larger one costs memory at large n for little time saved per draw
_BLOCK = 8


class _Uniforms:
    """Every node's stream read ahead in blocks of `_BLOCK` uniforms, all
    blocks in one array of 8 bytes per value."""

    __slots__ = ("rngs", "values", "blocks", "taken", "refills")

    def __init__(self, rngs: list[np.random.Generator]):
        self.rngs = rngs
        self.blocks = np.empty((len(rngs), _BLOCK))
        self.values = memoryview(self.blocks.reshape(-1))  # reads Python floats
        self.taken = [_BLOCK] * len(rngs)  # values taken from each block
        self.refills = [0] * len(rngs)  # blocks read from each stream

    def draw(self, i: int) -> float:
        """Node index `i`'s next uniform."""
        k = self.taken[i]
        if k == _BLOCK:
            self.rngs[i].random(out=self.blocks[i])
            self.refills[i] += 1
            k = 0
        self.taken[i] = k + 1
        return self.values[i * _BLOCK + k]

    def counts(self) -> list[int]:
        """Uniforms taken from each stream so far."""
        return [(r - 1) * _BLOCK + k for r, k in zip(self.refills, self.taken)]


def _lane_slot(lane: Lane, uniforms: _Uniforms, i: int, from_slot: int) -> Optional[int]:
    """The next transmission slot of a lane of node index `i` from
    `from_slot` on, or None if it never fires: a geometric number of
    eligible slots is skipped."""
    prob = lane.prob
    if prob <= 0.0:
        return None
    gap = 0 if prob >= 1.0 else int(math.log1p(-uniforms.draw(i)) / math.log1p(-prob))
    period = lane.period
    slot = from_slot if period == 1 else from_slot + (lane.phase - from_slot) % period
    return slot + gap * period


def _draw_lanes(
    machine: ProtocolMachine,
    uniforms: _Uniforms,
    row: list[Optional[int]],
    i: int,
    from_slot: int,
    heap: list[tuple[int, int, int, int]],
) -> list[int]:
    """Draw the next transmission slot of every lane of machine i from
    `from_slot` on.  Lanes landing on `from_slot` itself are returned
    instead of pushed, for a caller still processing that slot."""
    immediate: list[int] = []
    for k, lane in enumerate(machine.lanes):
        slot = row[k] = _lane_slot(lane, uniforms, i, from_slot)
        if slot == from_slot:
            immediate.append(k)
        elif slot is not None:
            heapq.heappush(heap, (slot, _TX, i, k))
    return immediate


def _add(items: list | tuple[()], item: Any) -> list:
    """`items` with `item` appended; an empty tuple becomes a new list."""
    if items:
        items.append(item)
        return items
    return [item]


def run_simulation(
    network: Network,
    factory: Callable[[Node], ProtocolMachine],
    max_slots: int,
    seed: int,
    *,
    trace: Optional[TraceConfig] = None,
    monitor: Optional[Callable[[int, list[tuple[int, float, float]]], None]] = None,
    scripted: Optional[
        tuple[int, Callable[[dict[int, ProtocolMachine], int], Optional[int]]]
    ] = None,
) -> SimTrace:
    """Drive every node's protocol machine until all report completion or
    `max_slots` elapse.

    A reception resolved in slot t reaches its listener at the start of
    slot t+1 as one ``on_receive(t + 1, sender id, payload)`` call.
    `monitor`, when given, receives every change of the per-node
    transmission probabilities as (node index, probability on even slots,
    probability on odd slots) tuples -- exactly the instants at which any
    per-slot probability invariant could newly fail.  `scripted` is
    ``(first slot, action)``: ``action(machines by id, slot)`` injects an
    external event (such as a forced resignation) and returns the later
    slot of its next call, or None; the run cannot complete while a call
    before `max_slots` is pending.
    """
    if max_slots <= 0:
        raise ValueError("max_slots must be positive")
    trace = trace or TraceConfig()
    core = _Core(network)
    resolve = core.resolve
    n = network.n
    ids = network.ids

    machines = [factory(node) for node in network.nodes]
    by_id = dict(zip(ids, machines))

    next_tx: list[list[Optional[int]]] = [[None] * len(m.lanes) for m in machines]
    uniforms = _Uniforms([node_rng(seed, v) for v in ids])
    # an inbox for each machine whose class reads its receptions
    hears = [type(m).on_receive is not ProtocolMachine.on_receive for m in machines]
    synced_cp: list[Optional[int]] = [None] * n
    awake = core.awake  # flags per node index
    sending = core.sending  # this slot's transmitters
    done_seen = [False] * n
    n_live = 0  # nodes yet to wake, and awake nodes not done: the run waits for them

    heap: list[tuple[int, int, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    for i, node in enumerate(network.nodes):
        if node.wake_slot < max_slots:
            heap.append((node.wake_slot, _WAKE, i, 0))
            n_live += 1
            if node.sleep_slot is not None and node.sleep_slot < max_slots:
                heap.append((node.sleep_slot, _SLEEP, i, 0))

    first_slot, action = scripted or (max_slots, None)
    script_pending = first_slot < max_slots
    if script_pending:
        heap.append((first_slot, _SCRIPT, 0, 0))
    heapq.heapify(heap)

    pending_slot = -1
    pending: dict[int, tuple[int, Any]] = {}  # listener index -> (sender id, payload)
    pending_sorted = True  # filled by one transmission, so in listener order

    first_rx: dict[int, dict[int, int]] = {v: {} for v in ids}
    rx_rows = [first_rx[v] for v in ids]
    tx_counts = [0] * n
    full_counts = [0] * n
    first_full: list[Optional[int]] = [None] * n
    outcomes: Optional[list[SlotOutcome]] = [] if trace.record_outcomes else None
    truncated = False
    eventful = 0
    heap_pops = 0
    stale_tx = 0
    multi_tx = 0

    last_slot = -1
    completed = False
    cur = -1  # index of the machine whose callback is running, else -1
    none: tuple[int, ...] = ()  # a slot's list until it has an entry
    try:
        while True:
            # the next slot: the heap's first, or the one after a reception,
            # which has no heap entry of its own
            head = heap[0][0] if heap else max_slots
            s = pending_slot if 0 <= pending_slot < head else head
            if s >= max_slots:
                break
            last_slot = s

            # take the slot's entries off the heap; they pop in (kind, node,
            # lane) order, so both lists are ascending.  `rare` holds every
            # entry but a transmission's; a list stays `none` until it has
            # an entry.
            tx_cand: list[tuple[int, int]] | tuple[()] = none
            rare = touched = changed = none
            if head == s:
                tx_cand = []
                while True:
                    _, kind, idx, lane = heappop(heap)
                    heap_pops += 1
                    if kind == _TX:
                        tx_cand.append((idx, lane))
                    else:
                        rare = _add(rare, (kind, idx))
                    if not heap or heap[0][0] != s:
                        break

            # 1. deliver receptions resolved for the previous slot; only
            # the listeners whose lanes, checkpoint or `done` changed are
            # touched, since step 6 finds nothing to do for the others
            if pending_slot == s:
                touched = []
                for i in pending if pending_sorted else sorted(pending):
                    machine = machines[i]
                    if awake[i]:
                        sender_id, payload = pending[i]
                        cur = i
                        machine.on_receive(s, sender_id, payload)
                        cur = -1
                        if (
                            machine._dirty
                            or machine._checkpoint != synced_cp[i]
                            or machine.done != done_seen[i]
                        ):
                            touched.append(i)
                pending = {}
                pending_slot = -1

            touch_all = False
            if rare:
                touched = list(touched)
                polled = -1
                for kind, i in rare:
                    if kind == _WAKE:
                        # 2. wake-ups
                        awake[i] = True
                        core.asleep -= 1
                        cur = i
                        machines[i].wake(s)
                        cur = -1
                        touched.append(i)
                    elif kind == _SLEEP:
                        # 3. departures
                        if awake[i]:
                            awake[i] = False
                            core.asleep += 1
                            next_tx[i] = [None] * len(next_tx[i])
                            if not done_seen[i]:
                                done_seen[i] = True
                                n_live -= 1
                    elif kind == _SCRIPT:
                        # 4. the scripted external action (may touch any
                        # machine), and its next call
                        touch_all = True
                        nxt = action(by_id, s)
                        if nxt is not None and nxt <= s:
                            raise ValueError(f"scripted action at slot {s} returned slot {nxt}")
                        script_pending = nxt is not None and nxt < max_slots
                        if script_pending:
                            heappush(heap, (nxt, _SCRIPT, 0, 0))
                    elif i != polled:
                        # 5. scheduled polls, once per node, validated
                        # against the machine's current plan (a checkpoint
                        # may have been pushed more than once)
                        polled = i
                        machine = machines[i]
                        if awake[i] and machine._checkpoint == s:
                            machine._checkpoint = None
                            synced_cp[i] = None
                            cur = i
                            machine.poll(s)
                            cur = -1
                            touched.append(i)
                if touch_all:
                    touched = range(n)
                elif len(touched) > 1:
                    touched = sorted(set(touched))

            # 6. regime changes effective for this very slot, in node order
            # (the listeners alone are in order already)
            for i in touched:
                machine = machines[i]
                if machine._dirty:
                    machine._dirty = False
                    changed = _add(changed, i)
                    if awake[i]:
                        for k in _draw_lanes(machine, uniforms, next_tx[i], i, s, heap):
                            tx_cand = _add(tx_cand, (i, k))
                    else:
                        next_tx[i] = [None] * len(next_tx[i])
                if not awake[i]:
                    continue  # its wake-up or departure keeps its count
                cp = machine._checkpoint
                if cp != synced_cp[i]:
                    synced_cp[i] = cp
                    if cp is not None:
                        heappush(heap, (cp, _CHECK, i, 0))
                if machine.done:
                    if not done_seen[i]:
                        done_seen[i] = True
                        n_live -= 1
                elif done_seen[i]:
                    done_seen[i] = False
                    n_live += 1

            # 7. this slot's transmissions: lanes still due now, in (node,
            # lane) order; other entries are stale (redrawn, or node asleep).
            # The lane that fired is redrawn from the next slot at once: no
            # other lane of the node changed, and nothing else draws from
            # its stream before the next slot.
            txs: list[_SlotTx] | tuple[()] = none
            if tx_cand:
                txs = []
                if len(tx_cand) > 1:
                    tx_cand.sort()  # a repeated entry finds its lane already fired
                for i, k in tx_cand:
                    row = next_tx[i]
                    if row[k] != s or not awake[i]:
                        stale_tx += 1
                        continue
                    machine = machines[i]
                    cur = i
                    payload, power = machine.on_transmit(s, k)
                    cur = -1
                    if sending[i]:
                        raise ProtocolViolationError(
                            f"node {ids[i]} transmitted twice in slot {s}"
                        )
                    if (
                        machine._dirty
                        or machine._checkpoint != synced_cp[i]
                        or machine.done != done_seen[i]
                    ):
                        raise ProtocolViolationError(
                            f"node {ids[i]} changed its state inside on_transmit in slot {s}"
                        )
                    txs.append((i, power, payload))
                    sending[i] = True
                    slot = row[k] = _lane_slot(machine.lanes[k], uniforms, i, s + 1)
                    if slot is not None:
                        heappush(heap, (slot, _TX, i, k))

            # 8. physical resolution and delivery: statistics, the
            # listeners' receptions and the record
            if txs:
                received, entries = resolve(txs)
                eventful += 1
                lone = len(txs) == 1
                if not lone:
                    multi_tx += 1
                for (i, power, payload), rx, entry in zip(txs, received, entries):
                    sending[i] = False
                    tx_counts[i] += 1
                    # full success: every awake out-neighbour decoded; a
                    # lone transmission reaches every awake node of its
                    # exact reach, so only the out-neighbours outside it
                    # can miss it
                    if lone:
                        missing = entry[3]
                        full = not any(awake[u] for u in missing) if missing else True
                    else:
                        heard = set(rx)
                        full = all(u in heard or not awake[u] for u in entry[2])
                    if full:
                        full_counts[i] += 1
                        if first_full[i] is None:
                            first_full[i] = s
                    sender_id = ids[i]
                    message = (sender_id, payload)
                    for l in rx:
                        row_rx = rx_rows[l]
                        if sender_id not in row_rx:
                            row_rx[sender_id] = s
                        if hears[l]:
                            pending[l] = message
                if pending:
                    pending_sorted = lone
                    pending_slot = s + 1
                if outcomes is not None:
                    if trace.outcome_limit is not None and len(outcomes) >= trace.outcome_limit:
                        truncated = True
                    else:
                        records = [Transmission(ids[i], s, power, payload) for i, power, payload in txs]
                        pairs = [(l, t) for t, rx in enumerate(received) for l in rx]
                        if not lone:
                            pairs.sort()
                        outcomes.append(
                            SlotOutcome(
                                slot=s,
                                transmissions=tuple(records),
                                receptions=tuple((ids[l], records[t]) for l, t in pairs),
                            )
                        )

            if monitor is not None and changed:
                monitor(s, [(i, *_parity_probs(machines[i])) for i in changed])

            if n_live == 0 and not script_pending and pending_slot < 0:
                completed = True
                break
    except Exception as exc:
        if cur < 0 or isinstance(exc, SimulationAbort):
            raise
        raise SimulationAbort(ids[cur], s, exc) from exc

    return SimTrace(
        seed=seed,
        n_slots=(last_slot + 1) if completed else max_slots,
        completed=completed,
        machines=by_id,
        first_rx=first_rx,
        tx_count=dict(zip(ids, tx_counts)),
        full_success_count=dict(zip(ids, full_counts)),
        first_full_success=dict(zip(ids, first_full)),
        draws=dict(zip(ids, uniforms.counts())),
        outcomes=outcomes,
        eventful_slots=eventful,
        outcomes_truncated=truncated,
        heap_pops=heap_pops,
        stale_tx_entries=stale_tx,
        multi_tx_slots=multi_tx,
    )
