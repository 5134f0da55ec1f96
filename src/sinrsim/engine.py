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
A run of fixed broadcasters alone changes no regime after the wake-ups, so
it needs no event queue: every node's transmission slots are drawn up
front, sorted once and swept in order.

Determinism contract: a run is fully determined by (network, seed, config).
The engine draws each node's lottery from the node's own PCG64 stream,
seeded by (root seed, node id), so one node's behaviour never perturbs
another's randomness; nothing else draws from the streams.  The seeds of
all nodes are hashed in one array pass (:func:`_seed_words`), bit for bit
NumPy's ``SeedSequence((seed, node id))``.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .errors import ProtocolViolationError, SimulationAbort
from .model import Network, Node, _LoneReach, _check_count, _is_number, _is_positive
from .seeding import _generator, _seed_words

__all__ = [
    "Transmission",
    "SlotOutcome",
    "SimTrace",
    "TraceConfig",
    "Lane",
    "ProtocolMachine",
    "resolve_slot",
    "run_simulation",
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


def resolve_slot(
    network: Network,
    transmissions: Sequence[Transmission],
    *,
    awake: Optional[set[int]] = None,
) -> SlotOutcome:
    """Reference slot resolution: which transmissions are decoded by whom.

    A listener decodes transmission t when t alone among the slot's
    transmissions has ``g_t >= beta * (total - g_t)``: `g` is power over
    distance ** alpha, computed in array operations, and `total` adds the
    gains in transmission order, then the noise.  Every awake node that
    does not send is decided from one dense block of gains, bit for bit as
    the engine decides it, so the tests and perfbench/run.py replay the
    engine's slots against this.  Receivers are half-duplex: a sender
    hears nothing.
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
    ids = network.ids
    listeners = np.flatnonzero([v in awake and v not in senders for v in ids])
    src = np.array([network.index(tx.sender) for tx in transmissions], dtype=np.intp)
    params = network.params
    gains = np.array([tx.power for tx in transmissions])[:, None] / (
        network._pair_dist(src[:, None], listeners) ** params.alpha_true
    )
    total = np.zeros(listeners.size)
    for row in gains:
        total += row
    total += params.noise_true
    hits = gains >= params.beta_true * (total - gains)
    won = np.count_nonzero(hits, axis=0) == 1
    heard = zip(listeners[won].tolist(), hits[:, won].argmax(axis=0).tolist())
    receptions = tuple((ids[l], transmissions[t]) for l, t in heard)
    return SlotOutcome(slot, tuple(transmissions), receptions)


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

    # -- subclass helpers --------------------------------------------------

    def set_prob(self, lane: int, prob: float) -> None:
        if self.lanes[lane].prob != prob:
            if not _is_number(prob, float, numbers.Real) or not 0.0 <= prob <= 1.0:
                self._refuse(lane, f"probability must lie in [0, 1], got {prob!r}")
            self.lanes[lane].prob = prob
            self._dirty = True

    def configure_lane(self, lane: int, period: int, phase: int) -> None:
        if not _is_number(period, int, numbers.Integral) or period < 1:
            self._refuse(lane, f"period must be an integer >= 1, got {period!r}")
        if not _is_number(phase, int, numbers.Integral):
            self._refuse(lane, f"phase must be an integer, got {phase!r}")
        ln = self.lanes[lane]
        ln.period, ln.phase = period, phase
        self._dirty = True

    def schedule(self, slot: Optional[int]) -> None:
        self._checkpoint = slot

    def record(self, slot: int, kind: str, data: Any = None) -> None:
        self.log.append((slot, kind, data))

    def _refuse(self, lane: int, problem: str) -> None:
        raise ProtocolViolationError(f"node {self.node.id} lane {lane}: {problem}")


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


@dataclass
class TraceConfig:
    record_outcomes: bool = False  # keep full per-slot transmissions + receptions
    outcome_limit: Optional[int] = None  # cap on recorded eventful slots

    def __post_init__(self) -> None:
        if not isinstance(self.record_outcomes, bool):
            raise ValueError(f"record_outcomes must be a bool, got {self.record_outcomes!r}")
        limit = self.outcome_limit
        if limit is not None and not (_is_number(limit, int, numbers.Integral) and limit >= 0):
            raise ValueError(f"outcome_limit must be a non-negative integer or None, got {limit!r}")


@dataclass
class SimTrace:
    """What a run did, assembled for both engine paths by :func:`_ledger`.
    `heap_pops` describes the event loop; a run swept as a schedule (fixed
    broadcasters alone, see :func:`run_simulation`) pops no heap, so it is 0
    there.  The event loop drops a grown heap's dead entries without popping
    them (:func:`_compact`), and the count leaves those out: on slow start,
    whose heap fills with copies of each node's end-of-budget checkpoint, it
    is far lower than the entries the run pushed.  Each event-loop
    transmission is one popped lane entry, a lane that a redraw files for
    its own slot included; the other popped lane entries send nothing."""

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
    multi_tx_slots: int = 0  # eventful slots with more than one transmission

    def export_jsonl(self, path: str) -> None:
        """Line-delimited replay records; requires recorded outcomes."""
        if self.outcomes is None:
            raise ValueError("trace was run without outcome recording")
        with open(path, "w", encoding="utf-8") as fh:
            for outcome in self.outcomes:
                # transmissions, then receptions: only a reception names a listener
                for listener, tx in [*((None, tx) for tx in outcome.transmissions),
                                     *outcome.receptions]:
                    record = {"slot": outcome.slot, "sender": tx.sender}
                    if listener is not None:
                        record["listener"] = listener
                    record["kind"] = _payload_kind(tx.payload)
                    fh.write(json.dumps(record) + "\n")


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
# what `_decide` returns: the transmissions' listeners, flat, and where each one's start
_Decided = tuple[list[int], list[int]]
# what _ledger hands both engine paths: settle, tally, finish
_Ledger = tuple[Callable[..., None], Callable[..., None], Callable[..., SimTrace]]


def _decide(network: Network, txs: Sequence[_SlotTx],
            spans: Sequence[tuple[int, int]]) -> _Decided:
    """The listeners of `network` that decode each transmission of the
    slots ``txs[a:b]`` for ``(a, b)`` in `spans`, under the same delivery
    rule as :func:`resolve_slot`, as ``(heard, bounds)``: those of
    ``txs[t]`` are ``heard[bounds[t]:bounds[t + 1]]``, ascending.  Sleepers
    are decided too: whether a listener decodes does not depend on who
    else listens, so the ledger's `settle` and `tally` (:func:`_ledger`)
    drop those of each slot.

    Interference only raises the SINR denominator, so only a listener in
    the slack reach (:meth:`Network.lone_reach`) of a sender of its slot,
    and no sender itself, is a candidate.  Each (candidate, sender) pair's
    distance is elementwise ufuncs and its path loss one array ``**``, bit
    for bit a dense matrix's entry; a scalar ``**`` differs in the last
    ulp on about 5% of inputs.  The gains sit in a matrix of sender rank
    by candidate, zero past a slot's senders (adding 0.0 changes no sum),
    and each candidate's denominator adds up rank by rank, the gains in
    transmission order and then the noise, as a scalar loop per listener
    would."""
    n = network.n
    params = network.params
    picks = [t for a, b in spans for t in range(a, b)]
    keys = [txs[t][:2] for t in picks]  # (node index, power)
    slack = [entry[1] for entry in network._reaches(keys)]
    sizes = [len(row) for row in slack]
    width = np.array([b - a for a, b in spans], dtype=np.intp)  # senders per slot
    start = np.cumsum(width) - width  # each slot's first pick
    slot = np.repeat(np.arange(len(spans)), width)  # each pick's slot
    src = np.array([key[0] for key in keys], dtype=np.intp)
    # (slot, listener) keys of the candidates, ascending, each once and
    # none a sender of its slot; the slack tuples in one concatenation
    # (`np.unique` took ten times as long as this sort and mask)
    cand = np.sort(np.repeat(slot * n, sizes)
                   + np.fromiter(itertools.chain.from_iterable(slack), np.intp, sum(sizes)))
    own = np.sort(slot * n + src)
    keep = np.append(own, -1)[np.searchsorted(own, cand)] != cand
    keep[1:] &= cand[1:] != cand[:-1]
    cand = cand[keep]
    if not cand.size:
        return [], [0] * (len(txs) + 1)
    home, listener = np.divmod(cand, n)
    # the (candidate, sender) pairs, candidate by candidate, rank by rank
    rank_of = width[home]
    column = np.repeat(np.arange(cand.size), rank_of)
    rank = np.arange(column.size) - np.repeat(np.cumsum(rank_of) - rank_of, rank_of)
    pick = start[home][column] + rank
    gains = np.zeros((int(width.max()), cand.size))
    gains[rank, column] = np.array([key[1] for key in keys])[pick] / (
        network._pair_dist(src[pick], listener[column]) ** params.alpha_true
    )
    total = np.zeros(cand.size)
    for row in gains:
        total += row
    total += params.noise_true
    hits = gains >= params.beta_true * (total - gains)
    won = np.count_nonzero(hits, axis=0) == 1
    # each decoded listener's transmission, as a position in `txs`
    tx = np.array(picks)[start[home[won]] + hits[:, won].argmax(axis=0)]
    order = np.argsort(tx, kind="stable")
    return (listener[won][order].tolist(),
            np.searchsorted(tx[order], np.arange(len(txs) + 1)).tolist())


def _ledger(network: Network, hears: Sequence[bool], trace: TraceConfig) -> _Ledger:
    """Step 8 of a slot and the run's trace, which the event loop and the
    schedule sweep share.  In both, a node is awake at step 8 of slot s
    exactly when ``wake_slot <= s < sleep_slot``, so the ledger reads that
    from the nodes' own slots and keeps no awake state.  Every node is
    awake from the latest wake-up up to the earliest departure, and a slot
    in that window filters no listener.  A transmission is ``(node index,
    power, payload)``.  ``settle(slot, txs, pending)``, the event loop's
    step 8, settles one slot among the nodes awake in it: it counts the
    transmissions and their full successes, files first receptions, puts
    each reception of a listener in `hears` into `pending` (listener index
    -> (sender id, payload)) and records the outcome.  ``tally(slots, ends,
    txs)``, the schedule's, does the same in array passes for a chunk of
    slots in which nobody hears: slot ``slots[k]`` sends
    ``txs[ends[k - 1]:ends[k]]``, and one :func:`_decide` call resolves the
    chunk's slots with several transmissions.  The tests hold `tally` to
    `settle`; a run uses one of the two.  Each keeps its own statistics
    (one Python loop for both ran `bcast2k` 22% slower, 5/5 pairs; the
    event loop's slots handed to `tally` in chunks, `color32` 10%, 5/5),
    and both record a slot's outcome through `record`.  ``finish(seed,
    n_slots, completed, machines, draws, **loop_counters)`` returns the
    :class:`SimTrace`; `machines` and `draws` go by node index.

    Closures, not an object: as a method reading ``self``, `settle` ran
    `color32` 6.5% slower (6/6 pairs); closures kept on an object form a
    cycle, +0.45 MB `bcast2k` peak RSS (8/8).  Here and below, a pair is
    one perfbench/run.py run of each variant, on a 2-vCPU x86-64 host."""
    ids = network.ids
    n = network.n
    cached = network._reach
    woke = [node.wake_slot for node in network.nodes]
    gone = [math.inf if node.sleep_slot is None else node.sleep_slot for node in network.nodes]
    woke_at, gone_at = np.array(woke), np.array(gone)  # the same, for `tally`
    out_ptr, out_nbr = network._out_ptr, network._out_nbr
    # every node is awake in the slots from `all_up` to before `first_gone`
    all_up, first_gone = max(woke), min(gone)
    first_rx: dict[int, dict[int, int]] = {v: {} for v in ids}
    rx_rows = [first_rx[v] for v in ids]
    tx_counts = [0] * n
    full_counts = [0] * n
    tallied = np.zeros((2, n), np.int64)  # what `tally` counted: transmissions, full successes
    first_full: list[Optional[int]] = [None] * n
    known = np.zeros(0, np.int64)  # `tally`'s filed (listener, sender) keys, ascending
    outcomes: Optional[list[SlotOutcome]] = [] if trace.record_outcomes else None
    limit = trace.outcome_limit
    eventful = multi_tx = 0
    truncated = False

    def reaches(txs: Sequence[_SlotTx], at: Sequence[int]) -> list[_LoneReach]:
        """`Network._reaches` of the transmissions `txs`, sent in slots `at`;
        a power it refuses stops the run, naming the node and the slot."""
        try:
            return network._reaches([tx[:2] for tx in txs])
        except ProtocolViolationError as exc:
            t = next(t for t, (i, p, _) in enumerate(txs)
                     if (i, p) not in cached and not _is_positive(p))
            raise SimulationAbort(ids[txs[t][0]], int(at[t]), exc) from exc

    def record(s: int, txs: Sequence[_SlotTx], pairs: Sequence[tuple[int, int]]) -> None:
        """Record slot `s`, which sends `txs`, with its receptions `pairs`,
        each (listener index, position in `txs`); past `outcome_limit`
        slots, mark the trace truncated instead."""
        nonlocal truncated
        if limit is not None and len(outcomes) >= limit:
            truncated = True
            return
        records = [Transmission(ids[i], s, power, payload) for i, power, payload in txs]
        outcomes.append(SlotOutcome(s, tuple(records),
                                    tuple((ids[l], records[t]) for l, t in pairs)))

    def settle(s: int, txs: Sequence[_SlotTx], pending: dict[int, tuple[int, Any]]) -> None:
        nonlocal eventful, multi_tx
        eventful += 1
        lone = len(txs) == 1
        everyone = all_up <= s < first_gone
        if lone:
            # a lone transmission reaches the awake nodes of its exact reach;
            # the network's cache is read here, `reaches` fills a miss
            entry = cached.get(txs[0][:2]) or reaches(txs, (s,))[0]
            exact = entry[0]
            received: Sequence[Sequence[int]] = (
                (exact,) if everyone else ([l for l in exact if woke[l] <= s < gone[l]],)
            )
            entries: Sequence[_LoneReach] = (entry,)
        else:
            multi_tx += 1
            entries = reaches(txs, [s] * len(txs))
            heard, bounds = _decide(network, txs, ((0, len(txs)),))
            received = [heard[bounds[t]:bounds[t + 1]] for t in range(len(txs))]
            if not everyone:
                received = [[l for l in rx if woke[l] <= s < gone[l]] for rx in received]
        for (i, _power, payload), rx, entry in zip(txs, received, entries):
            tx_counts[i] += 1
            # full success: every awake out-neighbour decoded; a lone
            # transmission reaches every awake node of its exact reach, so
            # only the out-neighbours outside it can miss it
            if lone:
                missing = entry[3]
                full = not missing or not any(woke[u] <= s < gone[u] for u in missing)
            else:
                got = set(rx)
                full = all(u in got or not woke[u] <= s < gone[u] for u in entry[2])
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
        if outcomes is not None:
            pairs = [(l, t) for t, rx in enumerate(received) for l in rx]
            if not lone:
                pairs.sort()
            record(s, txs, pairs)

    def full_success(src: np.ndarray, at: np.ndarray, decoded: np.ndarray) -> np.ndarray:
        """Whether transmission t, by node index ``src[t]`` in slot
        ``at[t]``, reached every out-neighbour awake in its slot: `decoded`
        holds its receivers, asleep ones too, as ascending keys
        ``t * n + listener``."""
        first = out_ptr[src]
        degree = out_ptr[src + 1] - first
        out_t = np.repeat(np.arange(src.size), degree)
        out_u = out_nbr[np.arange(out_t.size) + np.repeat(first - (np.cumsum(degree) - degree),
                                                         degree)]
        wanted = out_t * n + out_u
        missed = np.append(decoded, -1)[np.searchsorted(decoded, wanted)] != wanted
        s = at[out_t]
        missed &= (woke_at[out_u] <= s) & (s < gone_at[out_u])
        return np.bincount(out_t[missed], minlength=src.size) == 0

    def tally(slots: Sequence[int], ends: Sequence[int], txs: Sequence[_SlotTx]) -> None:
        nonlocal eventful, multi_tx, known
        m = len(txs)
        last = np.asarray(ends)
        width = np.diff(last, prepend=0)
        first = last - width  # each slot's first transmission
        crowded = np.flatnonzero(width > 1)
        eventful += len(slots)
        multi_tx += crowded.size
        rank = np.repeat(np.arange(len(slots)), width)  # each transmission's slot in `slots`
        at = np.array(slots)[rank]
        src = np.fromiter([tx[0] for tx in txs], np.intp, m)
        lone = np.repeat(width == 1, width)
        # every decoded (transmission, listener) pair, in transmission order,
        # listeners ascending: the exact reach of a lone transmission, what
        # `_decide` found for the others, the chunk's reach built in one batch
        exact = [e[0] if alone else () for e, alone in zip(reaches(txs, at), lone.tolist())]
        heard, bounds = _decide(network, txs,
                                list(zip(first[crowded].tolist(), last[crowded].tolist())))
        rx_t = np.repeat(np.arange(m), np.fromiter(map(len, exact), np.intp, m) + np.diff(bounds))
        rx_l = np.empty(rx_t.size, np.intp)
        from_reach = lone[rx_t]
        rx_l[from_reach] = np.fromiter(itertools.chain.from_iterable(exact), np.intp)
        rx_l[~from_reach] = heard
        full = full_success(src, at, rx_t * n + rx_l)
        tallied[0] += np.bincount(src, minlength=n)
        winners, first_win = np.unique(src[full], return_index=True)
        fresh = tallied[1, winners] == 0
        for i, k in zip(winners[fresh].tolist(), rank[full][first_win[fresh]].tolist()):
            first_full[i] = slots[k]
        tallied[1] += np.bincount(src[full], minlength=n)
        # the receptions among the awake; the first of each (listener,
        # sender) pair that no earlier chunk filed, filed in time order, so
        # each listener's `first_rx` keeps the order `settle` gives
        s_rx = at[rx_t]
        up = (woke_at[rx_l] <= s_rx) & (s_rx < gone_at[rx_l])
        rx_t, rx_l = rx_t[up], rx_l[up]
        pairs, first_rx_at = np.unique(rx_l * n + src[rx_t], return_index=True)
        where = np.searchsorted(known, pairs)
        new = np.append(known, -1)[where] != pairs
        known = np.insert(known, where[new], pairs[new])
        filed = np.sort(first_rx_at[new])
        # each slot's own int object, shared as in `settle`: an int per
        # reception held 0.19 MB more on `bcast2k`
        for l, i, k in zip(rx_l[filed].tolist(), src[rx_t[filed]].tolist(),
                           rank[rx_t[filed]].tolist()):
            rx_rows[l][ids[i]] = slots[k]
        if outcomes is None:
            return
        # each slot's receptions in listener order, with the sender's place in the slot
        home = rank[rx_t]
        order = np.lexsort((rx_l, home))
        cut = np.searchsorted(home[order], np.arange(len(slots) + 1)).tolist()
        slot_rx = list(zip(rx_l[order].tolist(), (rx_t - first[home])[order].tolist()))
        for k, (s, a, b) in enumerate(zip(slots, first.tolist(), ends)):
            record(s, txs[a:b], slot_rx[cut[k]:cut[k + 1]])

    def finish(seed: int, n_slots: int, completed: bool, machines: Sequence[ProtocolMachine],
               draws: Sequence[int], **loop_counters: int) -> SimTrace:
        return SimTrace(
            seed=seed, n_slots=n_slots, completed=completed, machines=dict(zip(ids, machines)),
            first_rx=first_rx, tx_count=dict(zip(ids, (tallied[0] + tx_counts).tolist())),
            full_success_count=dict(zip(ids, (tallied[1] + full_counts).tolist())),
            first_full_success=dict(zip(ids, first_full)), draws=dict(zip(ids, draws)),
            outcomes=outcomes, eventful_slots=eventful, outcomes_truncated=truncated,
            multi_tx_slots=multi_tx, **loop_counters,
        )

    return settle, tally, finish


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


def _monitor_updates(
    machines: Sequence[ProtocolMachine], awake: bytearray, changed: list[int]
) -> list[tuple[int, float, float]]:
    """The monitor's view of the nodes in `changed`, in node order: an
    awake node's parity probabilities, and 0 for one that has left."""
    return [
        (i, *_parity_probs(machines[i])) if awake[i] else (i, 0.0, 0.0)
        for i in sorted(changed)
    ]


# uniforms per block; a larger one saves little time per draw
_BLOCK = 8


class _Stream:
    """A node's random stream, read ahead in blocks of `_BLOCK` uniforms."""

    __slots__ = ("rng", "block", "taken", "refills")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.block: list[float] = []
        self.taken = _BLOCK  # values taken from the block
        self.refills = 0  # blocks read

    def draw(self) -> float:
        """The stream's next uniform."""
        k = self.taken
        if k == _BLOCK:
            self.block = self.rng.random(_BLOCK).tolist()
            self.refills += 1
            k = 0
        self.taken = k + 1
        return self.block[k]

    def count(self) -> int:
        """Uniforms taken so far."""
        return (self.refills - 1) * _BLOCK + self.taken


def _gap(u: float, log_q: float) -> int:
    """The geometric number of eligible slots a lane of probability p < 1
    skips before it fires, from the uniform `u`; `log_q` is log1p(-p)."""
    return int(math.log1p(-u) / log_q)


def _lane_slot(lane: Lane, stream: _Stream, from_slot: int) -> Optional[int]:
    """The next transmission slot of a lane from `from_slot` on, or None if
    it never fires: a geometric number of eligible slots is skipped."""
    prob = lane.prob
    if prob <= 0.0:
        return None
    gap = 0 if prob >= 1.0 else _gap(stream.draw(), math.log1p(-prob))
    period = lane.period
    slot = from_slot if period == 1 else from_slot + (lane.phase - from_slot) % period
    return slot + gap * period


# the event loop compacts its heap once it outgrows twice its live entries
# and this floor, which `color32`'s heap (under 120 entries) never reaches
_COMPACT_FLOOR = 256


def _compact(
    heap: list[tuple[int, int, int, int]],
    next_tx: list[list[Optional[int]]],
    synced_cp: list[Optional[int]],
) -> None:
    """Keep the event loop's heap to its distinct live entries, in place.
    A lane entry is live while its slot is the lane's next transmission, a
    checkpoint entry while its slot is the node's filed checkpoint; wake,
    sleep and script entries always are.  A dead or repeated entry would
    only pop to be skipped (a poll checks the machine's checkpoint as it
    stands, and a checkpoint filed later gets an entry of its own), so the
    live ones pop in the same order and the run is the same."""
    heap[:] = {
        entry
        for entry in heap
        if entry[1] < _CHECK
        or (entry[1] == _TX and next_tx[entry[2]][entry[3]] == entry[0])
        or (entry[1] == _CHECK and synced_cp[entry[2]] == entry[0])
    }
    heapq.heapify(heap)


# the event loop's lists stay its empty `none` until they get an entry: a new list
# per slot ran `color32` 3% slower (5/6 pairs), +0.25 MB peak RSS (6/6) (see _ledger)
def _add(items: list | tuple[()], item: Any) -> list:
    """`items` with `item` appended; an empty tuple becomes a new list."""
    if items:
        items.append(item)
        return items
    return [item]


def _backward(node_id: int, cp: int, s: int) -> ProtocolViolationError:
    return ProtocolViolationError(f"node {node_id} filed checkpoint {cp} in slot {s}, not after it")


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
    before `max_slots` is pending.  Each slot runs once, in order: a
    checkpoint newly filed at or before the current slot is refused.

    A run without a script whose machines are all exactly
    :class:`~sinrsim.broadcast.FixedProbBroadcaster` with `prob` < 1 never
    reacts to what it hears, so it is swept as an open-loop schedule with
    no heap (:func:`_run_schedule`); the trace is the one the event loop gives.
    """
    _check_count("max_slots", max_slots, 1)
    _check_count("seed", seed, 0)
    machines = [factory(node) for node in network.nodes]
    # an inbox for each machine whose class reads its receptions
    hears = [type(m).on_receive is not ProtocolMachine.on_receive for m in machines]
    ledger = _ledger(network, hears, trace or TraceConfig())
    from .broadcast import FixedProbBroadcaster  # broadcast.py imports this module

    if scripted is None and all(type(m) is FixedProbBroadcaster and m.prob < 1.0 for m in machines):
        return _run_schedule(network, machines, max_slots, seed, ledger, monitor)
    settle, _tally, finish = ledger
    n = network.n
    ids = network.ids
    by_id = dict(zip(ids, machines))
    awake = bytearray(n)  # for steps 5 and 6 and the monitor; step 8 reads the nodes' slots

    next_tx: list[list[Optional[int]]] = [[None] * len(m.lanes) for m in machines]
    streams = [_Stream(_generator(words)) for words in _seed_words(seed, ids)]
    synced_cp: list[Optional[int]] = [None] * n
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

    heap_pops = 0
    compact_at = _COMPACT_FLOOR

    last_slot = -1
    completed = False
    cur = -1  # index of the machine whose callback is running, else -1
    none: tuple[int, ...] = ()  # a slot's list until it has an entry
    try:
        while True:
            # the next slot: the heap's first, or the one after a reception,
            # which has no heap entry of its own.  Each of the slot's heap
            # entries pops at its own step below, a lane entry at step 7
            head = heap[0][0] if heap else max_slots
            s = pending_slot if 0 <= pending_slot < head else head
            if s >= max_slots:
                break
            last_slot = s
            due = (s, _TX)  # entries below it are the slot's other kinds
            touched = changed = none

            # 1. deliver receptions resolved for the previous slot, whose
            # listeners stay awake until step 3 at least; only those whose
            # lanes, checkpoint or `done` changed are touched (step 6 skips the rest)
            if pending_slot == s:
                touched = []
                for i in pending if pending_sorted else sorted(pending):
                    machine = machines[i]
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

            # 2-5. the slot's wake, departure, script and checkpoint
            # entries, which pop in that kind order, nodes ascending
            if heap and heap[0] < due:
                touched = list(touched)
                touch_all = False
                polled = -1
                while heap and heap[0] < due:
                    _, kind, i, _ = heappop(heap)
                    heap_pops += 1
                    if kind == _WAKE:
                        # 2. wake-ups
                        awake[i] = True
                        cur = i
                        machines[i].wake(s)
                        cur = -1
                        touched.append(i)
                    elif kind == _SLEEP:
                        # 3. departures: the lanes stop, reported as 0
                        awake[i] = False
                        next_tx[i] = [None] * len(next_tx[i])
                        changed = _add(changed, i)
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
            # (the listeners alone are in order already).  An asleep node
            # keeps `_dirty`: lanes set before its wake-up are drawn there,
            # and its wake-up or departure keeps its count.  A lane redrawn
            # onto this slot pops at step 7 like any other
            for i in touched:
                if not awake[i]:
                    continue
                machine = machines[i]
                if machine._dirty:
                    machine._dirty = False
                    changed = _add(changed, i)
                    row, stream = next_tx[i], streams[i]
                    for k, lane in enumerate(machine.lanes):
                        slot = row[k] = _lane_slot(lane, stream, s)
                        if slot is not None:
                            heappush(heap, (slot, _TX, i, k))
                cp = machine._checkpoint
                if cp != synced_cp[i]:
                    synced_cp[i] = cp
                    if cp is not None:
                        if cp <= s:
                            raise _backward(ids[i], cp, s)
                        heappush(heap, (cp, _CHECK, i, 0))
                if machine.done:
                    if not done_seen[i]:
                        done_seen[i] = True
                        n_live -= 1
                elif done_seen[i]:
                    done_seen[i] = False
                    n_live += 1

            # 7. this slot's transmissions: its lane entries pop in (node,
            # lane) order, so a node's are adjacent, and each sends if its
            # lane is still due now (it is stale after a redraw or a
            # departure, or repeated).  The lane that fired is redrawn from
            # the next slot at once: no other lane of the node changed, and
            # nothing else draws from its stream before the next slot.
            txs: list[_SlotTx] | tuple[()] = [] if heap and heap[0][0] == s else none
            while heap and heap[0][0] == s:
                _, _, i, k = heappop(heap)
                heap_pops += 1
                row = next_tx[i]
                if row[k] != s:
                    continue
                machine = machines[i]
                cur = i
                payload, power = machine.on_transmit(s, k)
                cur = -1
                if txs and txs[-1][0] == i:
                    raise ProtocolViolationError(f"node {ids[i]} transmitted twice in slot {s}")
                if (
                    machine._dirty
                    or machine._checkpoint != synced_cp[i]
                    or machine.done != done_seen[i]
                ):
                    raise ProtocolViolationError(
                        f"node {ids[i]} changed its state inside on_transmit in slot {s}"
                    )
                txs.append((i, power, payload))
                # `_lane_slot` from s + 1, inline (three calls per
                # transmission otherwise).  The lane fired at s, an
                # eligible slot, so its next eligible one is s + period,
                # and its prob is > 0: a change would have been redrawn
                ln = machine.lanes[k]
                prob = ln.prob
                gap = (0 if prob >= 1.0
                       else int(math.log1p(-streams[i].draw()) / math.log1p(-prob)))
                slot = row[k] = s + (gap + 1) * ln.period
                heappush(heap, (slot, _TX, i, k))

            # 8. physical resolution and delivery: statistics, the
            # listeners' receptions and the record (shared with the schedule)
            if txs:
                settle(s, txs, pending)
                if pending:
                    pending_sorted = len(txs) == 1
                    pending_slot = s + 1

            if monitor is not None and changed:
                monitor(s, _monitor_updates(machines, awake, changed))

            if len(heap) > compact_at:
                _compact(heap, next_tx, synced_cp)
                compact_at = max(_COMPACT_FLOOR, 2 * len(heap))

            if n_live == 0 and not script_pending and pending_slot < 0:
                completed = True
                break
    except Exception as exc:
        if cur < 0 or isinstance(exc, SimulationAbort):
            raise
        raise SimulationAbort(ids[cur], s, exc) from exc

    return finish(seed, last_slot + 1 if completed else max_slots, completed, machines,
                  [st.count() for st in streams], heap_pops=heap_pops)


# multi-transmission slots the schedule settles per `tally` call.  Its
# pending lists and `tally`'s arrays grow with the chunk: the `bcast2k` run's
# tracemalloc peak is 4.1 MB at 128, 4.7 MB at 256 and 7.8 MB at 1024, and at
# 128 a `_decide` call's fixed cost (about 60 us) is under half a microsecond per slot.
# Held for one chunk, the (node, power, payload) tuples add 3 young
# collections to the run's 24 and no measurable collector time
_CHUNK = 128


def _run_schedule(
    network: Network,
    machines: list[ProtocolMachine],
    max_slots: int,
    seed: int,
    ledger: _Ledger,
    monitor: Optional[Callable[[int, list[tuple[int, float, float]]], None]],
) -> SimTrace:
    """:func:`run_simulation` for a run of fixed broadcasters alone, as an
    open-loop schedule.  Such a machine never hears, and the one lane and
    the checkpoint that its `wake` sets hold until its `poll` there ends
    its run: so each node's transmission slots follow from its wake-up, its
    departure, that plan and its own stream.  They are the gaps the event
    loop would draw (:func:`_gap`), up to the first of the checkpoint, the
    departure and `max_slots`.  Every event is one integer
    ``(slot * 5 + kind) * n + node index``; sorted, the integers come in
    the event loop's (slot, kind, node) order, and one sweep over them
    calls each machine's `on_transmit` and `poll` in the event loop's slots
    and gives the same run, with the same node streams (:class:`_Stream`).
    Nothing a slot resolves feeds back, so the sweep holds the slots until
    `_CHUNK` of them have several transmissions, then settles the held
    slots with one `tally` call (:func:`_ledger`), the event loop's
    per-slot `settle` in array passes; `tally` reads who
    is awake in a slot from the nodes' slots, so a held slot needs no
    replayed wake-ups.  The plans are read in (wake slot, node)
    order, each after every `wake` of its slot, so a bad plan or a `wake`
    that raises is named as the event loop would name it."""
    nodes = network.nodes
    n = network.n
    ids = network.ids
    _settle, tally, finish = ledger
    timeline: list[int] = []
    draws = [0] * n
    last = -1  # the slot the last node stops in: its poll or departure
    seed_words = _seed_words(seed, ids)
    cur = s = -1
    try:
        order = sorted(range(n), key=lambda i: nodes[i].wake_slot)
        for woke, group in itertools.groupby(order, key=lambda i: nodes[i].wake_slot):
            if woke >= max_slots:
                break
            group = list(group)
            s = woke
            # every wake of the slot before any plan is read, as in the event
            # loop's steps 2 and 6
            for i in group:
                cur = i
                machines[i].wake(s)
                cur = -1
                timeline.append((s * 5 + _WAKE) * n + i)
            for i in group:
                node, machine = nodes[i], machines[i]
                s = woke
                (lane,) = machine.lanes
                end = machine._checkpoint
                if end is None:
                    end = max_slots  # never polled in the run
                elif end <= s:
                    raise _backward(ids[i], end, s)
                # no gap to draw: run_simulation takes these to the event loop
                if lane.prob >= 1.0:
                    raise ProtocolViolationError(
                        f"node {ids[i]}: its wake in slot {s} set probability 1"
                    )
                gone = node.sleep_slot
                if gone is not None and gone < max_slots:
                    timeline.append((gone * 5 + _SLEEP) * n + i)
                if gone is not None and gone <= end:
                    end = gone  # gone before its poll: never done
                elif end < max_slots:
                    timeline.append((end * 5 + _CHECK) * n + i)
                last = max(last, end)
                stop = min(end, max_slots)
                prob, period = lane.prob, lane.period
                s += (lane.phase - s) % period  # the first eligible slot
                if prob <= 0.0:
                    continue
                # `_lane_slot`'s gaps inline (a call each: `bcast2k` 4.5% slower, 8/8 pairs,
                # see _ledger), from one stream at a time, dropped after its node's plan
                stream = _Stream(_generator(seed_words[i]))
                log_q = math.log1p(-prob)
                while True:
                    s += _gap(stream.draw(), log_q) * period
                    if s >= stop:
                        break
                    timeline.append((s * 5 + _TX) * n + i)
                    s += period
                draws[i] = stream.count()
        timeline.sort()
        # the sweep ends where the event loop's run does, after the slot the
        # last node stops in (a later departure is never reached) or at
        # `max_slots`; a key in the slot after settles the last one
        completed = 0 <= last < max_slots
        n_slots = last + 1 if completed else max_slots
        timeline.append(n_slots * 5 * n)

        transmit = [m.on_transmit for m in machines]
        # the pending slots, settled a chunk at a time: their transmissions
        # (flat), and each eventful slot with where its transmissions end.
        # `live` follows the sweep, for the monitor
        txs: list[_SlotTx] = []
        slots: list[int] = []
        ends: list[int] = []
        live = bytearray(n)
        changed: list[int] = []
        slot = -1
        mark = 0  # where the current slot's transmissions start
        crowded = 0  # pending slots with several transmissions
        for key in timeline:
            q, i = divmod(key, n)
            s, kind = divmod(q, 5)
            if s != slot:
                size = len(txs)
                if size > mark:
                    slots.append(slot)
                    ends.append(size)
                    crowded += size > mark + 1
                    mark = size
                if crowded == _CHUNK or s >= n_slots:
                    if slots:
                        tally(slots, ends, txs)
                    txs, slots, ends = [], [], []
                    mark = crowded = 0
                # kept here: acceptance 03 and the reference comparisons monitor every
                # run, so neither would run the schedule if monitored runs took the loop
                if changed:
                    if monitor is not None:
                        monitor(slot, _monitor_updates(machines, live, changed))
                    changed = []
                if s >= n_slots:
                    break
                slot = s
            if kind == _TX:
                cur = i
                payload, power = transmit[i](s, 0)
                cur = -1
                txs.append((i, power, payload))
                continue
            machine = machines[i]
            if kind == _WAKE:
                live[i] = True
            elif kind == _SLEEP:
                live[i] = False
                changed.append(i)  # its lanes, reported as 0
            else:
                machine._checkpoint = None
                cur = i
                machine.poll(s)
                cur = -1
                if machine.lanes[0].prob > 0.0 or machine._checkpoint is not None or not machine.done:
                    raise ProtocolViolationError(
                        f"node {ids[i]}: its poll in slot {s} did not end its open-loop plan"
                    )
            if machine._dirty:  # as in step 6 of the event loop
                machine._dirty = False
                changed.append(i)
    except Exception as exc:
        if cur < 0 or isinstance(exc, SimulationAbort):
            raise
        raise SimulationAbort(ids[cur], s, exc) from exc

    return finish(seed, n_slots, completed, machines, draws)
