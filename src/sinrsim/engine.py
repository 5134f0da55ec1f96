"""Slotted physical-layer resolution and the deterministic simulation loop.

The simulator is event-driven: between protocol events almost every slot is
silent, so rather than stepping each node once per slot, each node's
transmission lottery ("transmit with probability p in every eligible slot")
is sampled as a geometric gap to its next transmission.  By memorylessness
this is distributionally identical to the per-slot Bernoulli draw, and it
lets runs spanning tens of millions of slots finish in seconds.  Whenever a
node's regime changes (a reception, a scheduled phase boundary, a
transmission of its own), its pending gap is discarded and redrawn, which is
again exact.

Determinism contract: a run is fully determined by (network, seed, config).
Every node draws from its own PCG64 stream seeded by (root seed, node id),
so one node's behaviour never perturbs another's randomness; the event loop
itself consumes no randomness.
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
    neither the sender nor the listener may appear among them.
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
    :meth:`on_transmit`.  All behaviour is steered through lane
    probabilities and the scheduled slot; the engine takes care of when the
    lottery actually fires.
    """

    LANES = 1

    def __init__(self, node: Node, rng: np.random.Generator):
        self.node = node
        self.rng = rng
        self.lanes = [Lane() for _ in range(self.LANES)]
        self.done = False
        self.wants_rx = True
        self.log: list[tuple[int, str, Any]] = []
        self._checkpoint: Optional[int] = None
        self._dirty = False

    # -- engine-facing ----------------------------------------------------

    def wake(self, slot: int) -> None:
        pass

    def poll(self, slot: int) -> None:
        pass

    def on_receive(self, slot: int, messages: list[tuple[int, Any]]) -> None:
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
    outcomes: Optional[list[SlotOutcome]] = None
    eventful_slots: int = 0
    outcomes_truncated: bool = False  # outcome_limit dropped records
    heap_pops: int = 0  # event-queue entries taken off the heap
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
# kind order, which is also the order the loop handles them in
_DELIVER, _WAKE, _SLEEP, _SCRIPT, _CHECK, _TX = range(6)

_SlotTx = tuple[int, float, Any]  # (node index, power, payload)
# a lone transmission's exact reach, slack reach, out-neighbours and the
# out-neighbours outside its exact reach, as node indices
_Reach = tuple[tuple[int, ...], np.ndarray, list[int], list[int]]


class _Core:
    """Physical-layer state of one run: awake and transmitting flags per
    node index, and each (sender, power)'s lone reach as plain sequences.
    Interference only raises the SINR denominator, so a multi-transmission
    slot is decided over the listeners inside its senders' reach only."""

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
        self._awake = np.frombuffer(self.awake, dtype=np.bool_)
        self._sending = np.frombuffer(self.sending, dtype=np.bool_)
        self._reach: dict[tuple[int, float], _Reach] = {}

    def reach(self, idx: int, power: float) -> _Reach:
        """For a lone transmission from `idx` at `power`: the listeners that
        decode it, the slack superset used to filter candidates, the
        sender's out-neighbours, and those of them outside the exact
        reach, all ascending.  The engine's one accessor of lone reach: it
        keeps, per run, plain-sequence views of `Network.lone_reach`."""
        key = (idx, power)
        entry = self._reach.get(key)
        if entry is None:
            exact, slack = self.network.lone_reach(idx, power)
            exact = tuple(exact.tolist())
            out = self.network.out_indices(idx).tolist()
            inside = set(exact)
            entry = (exact, slack, out, [u for u in out if u not in inside])
            self._reach[key] = entry
        return entry

    def resolve(self, txs: list[_SlotTx]) -> list[Sequence[int]]:
        """Ascending indices of the awake, non-transmitting listeners that
        decode each transmission, under the same delivery rule as
        :func:`resolve_slot`; the transmitters are flagged in `sending`.
        The sequences are read-only; they may be cached reach sets."""
        if len(txs) == 1:
            idx, power, _ = txs[0]
            exact = self.reach(idx, power)[0]
            if not self.asleep:
                return [exact]
            awake = self.awake
            return [[l for l in exact if awake[l]]]
        received: list[list[int]] = [[] for _ in txs]
        cand = np.concatenate([self.reach(idx, power)[1] for idx, power, _ in txs])
        cand.sort()
        keep = self._awake[cand] & ~self._sending[cand]
        keep[1:] &= cand[1:] != cand[:-1]  # each listener once
        cand = cand[keep]
        if cand.size == 0:
            return received
        # gains of every sender, far ones included, bit for bit as a dense
        # distance ** alpha matrix would give them
        gains = np.array([power for _, power, _ in txs])[:, None] / self.network.path_loss(
            [idx for idx, _, _ in txs], cand
        )
        # the denominator adds up left to right, gains in transmission order
        # and then the noise, as a scalar loop per listener would; an
        # accumulation is sequential by definition, where np.sum may add
        # pairwise and round differently
        total = np.add.accumulate(gains, axis=0)[-1] + self.noise
        hits = gains >= self.beta * (total - gains)
        single = np.count_nonzero(hits, axis=0) == 1
        winners = hits[:, single].argmax(axis=0)
        for l, t in zip(cand[single].tolist(), winners.tolist()):
            received[t].append(l)
        return received


def _parity_probs(machine: ProtocolMachine) -> tuple[float, float]:
    """Per-slot transmission probability on even/odd absolute slots."""
    even = 1.0
    odd = 1.0
    for lane in machine.lanes:
        if lane.period == 1:
            even *= 1.0 - lane.prob
            odd *= 1.0 - lane.prob
        elif lane.phase % 2 == 0:
            even *= 1.0 - lane.prob
        else:
            odd *= 1.0 - lane.prob
    return 1.0 - even, 1.0 - odd


def _draw_lanes(
    machine: ProtocolMachine,
    row: list[Optional[int]],
    i: int,
    from_slot: int,
    heap: list[tuple[int, int, int, int]],
    idle_only: bool,
) -> list[int]:
    """Draw the next transmission slot of machine i's lanes (only those with
    none pending if `idle_only`) from `from_slot` on: a geometric number of
    eligible slots is skipped.  Lanes landing on `from_slot` itself are
    returned instead of pushed, for a caller still processing that slot."""
    immediate: list[int] = []
    for k, lane in enumerate(machine.lanes):
        if idle_only and row[k] is not None:
            continue
        prob = lane.prob
        if prob <= 0.0:
            row[k] = None
            continue
        gap = 0 if prob >= 1.0 else int(math.log1p(-machine.rng.random()) / math.log1p(-prob))
        period = lane.period
        slot = from_slot if period == 1 else from_slot + (lane.phase - from_slot) % period
        slot += gap * period
        row[k] = slot
        if slot == from_slot:
            immediate.append(k)
        else:
            heapq.heappush(heap, (slot, _TX, i, k))
    return immediate


def run_simulation(
    network: Network,
    factory: Callable[[Node, np.random.Generator], ProtocolMachine],
    max_slots: int,
    seed: int,
    *,
    trace: Optional[TraceConfig] = None,
    monitor: Optional[Callable[[int, list[tuple[int, float, float]]], None]] = None,
    scripted: Optional[
        Sequence[tuple[int, Callable[[dict[int, ProtocolMachine], int], None]]]
    ] = None,
) -> SimTrace:
    """Drive every node's protocol machine until all report completion or
    `max_slots` elapse.

    Receptions resolved in slot t reach their listener's inbox at the start
    of slot t+1.  `monitor`, when given, receives every change of the
    per-node transmission probabilities as (node id, probability on even
    slots, probability on odd slots) tuples -- exactly the instants at which
    any per-slot probability invariant could newly fail.  `scripted` events
    inject external actions (such as forced resignations) at fixed slots.
    """
    if max_slots <= 0:
        raise ValueError("max_slots must be positive")
    trace = trace or TraceConfig()
    core = _Core(network)
    resolve = core.resolve
    reach = core.reach
    n = network.n
    ids = network.ids

    machines: list[ProtocolMachine] = []
    by_id: dict[int, ProtocolMachine] = {}
    for node in network.nodes:
        machine = factory(node, node_rng(seed, node.id))
        machines.append(machine)
        by_id[node.id] = machine

    next_tx: list[list[Optional[int]]] = [[None] * len(m.lanes) for m in machines]
    synced_cp: list[Optional[int]] = [None] * n
    awake = core.awake  # flags per node index
    sending = core.sending  # this slot's transmitters
    done_seen = [False] * n
    n_undone = 0
    n_prewake = 0

    heap: list[tuple[int, int, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    for i, node in enumerate(network.nodes):
        if node.wake_slot < max_slots:
            heap.append((node.wake_slot, _WAKE, i, 0))
            n_prewake += 1
            if node.sleep_slot is not None and node.sleep_slot < max_slots:
                heap.append((node.sleep_slot, _SLEEP, i, 0))

    scripts = sorted(scripted or [], key=lambda item: item[0])
    for k, (slot, _fn) in enumerate(scripts):
        if slot < max_slots:
            heap.append((slot, _SCRIPT, k, 0))
    heapq.heapify(heap)
    scripts_left = sum(1 for slot, _fn in scripts if slot < max_slots)
    scripts_cancelled = False

    pending_slot = -1
    pending: dict[int, list[tuple[int, Any]]] = {}  # listener index -> inbox
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
    s = -1
    cur = -1  # index of the machine whose callback is running, else -1
    try:
        while heap:
            s, kind, idx, lane = heap[0]
            if s >= max_slots:
                break
            last_slot = s

            # file the slot's events by kind; entries pop in (kind, node,
            # lane) order, so each list is already ascending
            wakes: list[int] = []
            sleeps: list[int] = []
            script_ids: list[int] = []
            polls: list[int] = []
            tx_cand: list[tuple[int, int]] = []
            while True:
                heappop(heap)
                heap_pops += 1
                if kind == _TX:
                    tx_cand.append((idx, lane))
                elif kind == _CHECK:
                    polls.append(idx)
                elif kind == _WAKE:
                    wakes.append(idx)
                elif kind == _SLEEP:
                    sleeps.append(idx)
                elif kind == _SCRIPT:
                    script_ids.append(idx)
                if not heap or heap[0][0] != s:
                    break
                _, kind, idx, lane = heap[0]
            n_cand = len(tx_cand)
            touched: list[int] = []
            touch_all = False

            # 1. deliver receptions resolved for this slot
            if pending_slot == s:
                for i in pending if pending_sorted else sorted(pending):
                    machine = machines[i]
                    if awake[i] and machine.wants_rx:
                        cur = i
                        machine.on_receive(s, pending[i])
                        cur = -1
                        touched.append(i)
                pending = {}
                pending_slot = -1

            # 2. wake-ups
            for i in wakes:
                awake[i] = True
                core.asleep -= 1
                n_prewake -= 1
                n_undone += 1
                cur = i
                machines[i].wake(s)
                cur = -1
                touched.append(i)

            # 3. departures
            for i in sleeps:
                if awake[i]:
                    awake[i] = False
                    core.asleep += 1
                    next_tx[i] = [None] * len(next_tx[i])
                    if not done_seen[i]:
                        done_seen[i] = True
                        n_undone -= 1

            # 4. scripted external actions (may touch any machine); an action
            # returning truthy cancels every script still pending
            if script_ids:
                for k in script_ids:
                    if scripts_cancelled:
                        continue
                    if scripts[k][1](by_id, s):
                        scripts_cancelled = True
                        scripts_left = 0
                    else:
                        scripts_left -= 1
                touch_all = True

            # 5. scheduled polls, validated against the machine's current
            # plan (a checkpoint may have been pushed more than once)
            if len(polls) > 1:
                polls = sorted(set(polls))
            for i in polls:
                machine = machines[i]
                if awake[i] and machine._checkpoint == s:
                    machine._checkpoint = None
                    synced_cp[i] = None
                    cur = i
                    machine.poll(s)
                    cur = -1
                    touched.append(i)

            # 6. regime changes effective for this very slot
            changed: list[int] = []
            if touch_all:
                touched = range(n)
            elif len(touched) > 1:
                touched = sorted(set(touched))
            for i in touched:
                machine = machines[i]
                if machine._dirty:
                    machine._dirty = False
                    changed.append(i)
                    if awake[i]:
                        for k in _draw_lanes(machine, next_tx[i], i, s, heap, False):
                            tx_cand.append((i, k))
                            n_cand += 1
                    else:
                        next_tx[i] = [None] * len(next_tx[i])
                if awake[i]:
                    cp = machine._checkpoint
                    if cp != synced_cp[i]:
                        synced_cp[i] = cp
                        if cp is not None:
                            heappush(heap, (cp, _CHECK, i, 0))
                if machine.done or not awake[i]:
                    if not done_seen[i]:
                        done_seen[i] = True
                        n_undone -= 1
                elif done_seen[i]:
                    done_seen[i] = False
                    n_undone += 1

            # 7. this slot's transmissions: lanes still due now, in (node,
            # lane) order; other entries are stale (redrawn, or node asleep)
            txs: list[_SlotTx] = []
            if n_cand:
                if n_cand > 1:
                    tx_cand.sort()  # a repeated entry finds its lane already fired
                for i, k in tx_cand:
                    row = next_tx[i]
                    if row[k] != s or not awake[i]:
                        continue
                    cur = i
                    out = machines[i].on_transmit(s, k)
                    cur = -1
                    payload, power = out
                    if sending[i]:
                        raise ProtocolViolationError(
                            f"node {ids[i]} transmitted twice in slot {s}"
                        )
                    txs.append((i, power, payload))
                    sending[i] = True
                    row[k] = None
                stale_tx += n_cand - len(txs)

            # 8. physical resolution and delivery: statistics, the
            # listeners' inboxes and the record
            if txs:
                received = resolve(txs)
                eventful += 1
                lone = len(txs) == 1
                if not lone:
                    multi_tx += 1
                for (i, power, payload), rx in zip(txs, received):
                    sending[i] = False
                    tx_counts[i] += 1
                    # full success: every awake out-neighbour decoded; a
                    # lone transmission reaches every awake node of its
                    # exact reach, so only the out-neighbours outside it
                    # can miss it
                    _exact, _slack, out_nbrs, missing = reach(i, power)
                    if lone:
                        full = not any(awake[u] for u in missing) if missing else True
                    else:
                        heard = set(rx)
                        full = all(u in heard or not awake[u] for u in out_nbrs)
                    if full:
                        full_counts[i] += 1
                        if first_full[i] is None:
                            first_full[i] = s
                    sender_id = ids[i]
                    for l in rx:
                        row_rx = rx_rows[l]
                        if sender_id not in row_rx:
                            row_rx[sender_id] = s
                        inbox = pending.get(l)
                        if inbox is None:
                            pending[l] = [(sender_id, payload)]
                        else:
                            inbox.append((sender_id, payload))
                if pending:
                    pending_sorted = lone
                    if pending_slot < 0:
                        heappush(heap, (s + 1, _DELIVER, 0, 0))
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

            # 9. regime changes caused by transmitting apply from the next slot
            for i, _p, _m in txs:
                machine = machines[i]
                dirty = machine._dirty
                if dirty:
                    machine._dirty = False
                    changed.append(i)
                for k in _draw_lanes(machine, next_tx[i], i, s + 1, heap, not dirty):
                    heappush(heap, (s + 1, _TX, i, k))
                cp = machine._checkpoint
                if cp != synced_cp[i]:
                    synced_cp[i] = cp
                    if cp is not None:
                        heappush(heap, (cp, _CHECK, i, 0))
                if machine.done:
                    if not done_seen[i]:
                        done_seen[i] = True
                        n_undone -= 1
                elif done_seen[i]:
                    done_seen[i] = False
                    n_undone += 1

            if monitor is not None and changed:
                if len(changed) > 1:
                    changed = sorted(set(changed))
                monitor(s, [(ids[i], *_parity_probs(machines[i])) for i in changed])

            if (
                n_undone == 0
                and n_prewake == 0
                and scripts_left == 0
                and pending_slot < 0
            ):
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
        outcomes=outcomes,
        eventful_slots=eventful,
        outcomes_truncated=truncated,
        heap_pops=heap_pops,
        stale_tx_entries=stale_tx,
        multi_tx_slots=multi_tx,
    )
