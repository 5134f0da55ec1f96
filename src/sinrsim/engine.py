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
import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ProtocolViolationError, SimulationAbort
from .model import Network, Node, _check_count, _is_number

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


# ---------------------------------------------------------------------------
# stream seeding
# ---------------------------------------------------------------------------

# the constants of NumPy's SeedSequence hash (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_STATE = 4  # the uint64 words PCG64 seeds itself from


def _seed_words(seed: int, ids: Sequence[int]) -> np.ndarray:
    """Row k is ``np.random.SeedSequence((seed, ids[k])).generate_state(4,
    np.uint64)``, the words PCG64 seeds node ``ids[k]``'s stream from.

    SeedSequence reads each integer as its 32-bit words, lowest first (0 is
    one word), and hashes their concatenation.  How the hash mixes depends
    on the number of words, so ids are grouped by it, and each group is
    hashed at once on `uint32` columns, one per word position.  Array
    arithmetic wraps modulo 2**32 as NumPy's C code does, and warns of no
    overflow."""
    seed = operator.index(seed)
    values = [operator.index(v) for v in ids]
    for name, least in (("seed", seed), ("node id", min(values, default=0))):
        if least < 0:
            raise ValueError(f"{name} must be >= 0, got {least}")
    head = [seed >> 32 * j & _MASK32 for j in range(_word_count(seed))]
    groups: dict[int, list[int]] = {}
    for k, v in enumerate(values):
        groups.setdefault(_word_count(v), []).append(k)
    state = np.empty((len(values), 2 * _STATE), "<u4")
    for length, rows in groups.items():
        members = [values[k] for k in rows]
        entropy = [np.full(len(rows), w, np.uint32) for w in head] + [
            np.array([v >> 32 * j & _MASK32 for v in members], np.uint32)
            for j in range(length)
        ]
        state[rows] = np.stack(_hash_state(entropy), axis=1)
    # little-endian word pairs, as generate_state joins them
    return state.view("<u8").astype(np.uint64, copy=False)


def _word_count(value: int) -> int:
    """The number of 32-bit words SeedSequence reads `value` as; 0 is one."""
    return (value.bit_length() + 31) // 32 or 1


def _hash_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's pool mixing of the `entropy` word columns, then
    `generate_state`'s output hash of eight 32-bit words.  The hash
    constants advance the same way whatever the data, so they are Python
    integers."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = []
    hash_const = _INIT_B
    for i in range(2 * _STATE):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out.append(value ^ (value >> 16))
    return out


class _SeedState(ISeedSequence):
    """A seed sequence that hands PCG64 precomputed words, one row of
    :func:`_seed_words`: PCG64 runs its own seeding from them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        if n_words != _STATE or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {_STATE} uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    """The PCG64 stream seeded from one row of :func:`_seed_words`."""
    return np.random.Generator(np.random.PCG64(_SeedState(words)))


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
    The loop counters describe the event loop; a run swept as a schedule
    (fixed broadcasters alone, see :func:`run_simulation`) pops no heap, so
    its `heap_pops` and `stale_tx_entries` are 0."""

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

    def resolve(self, txs: list[_SlotTx]) -> tuple[list[list[int]], list[_LoneReach]]:
        """For a slot with several transmissions, the ascending indices of
        the awake listeners outside `sending` that decode each one, under
        the same delivery rule as :func:`resolve_slot`, and each
        transmission's :meth:`Network.lone_reach` entry.  The transmitters
        must be flagged in `sending`.

        Such a slot has a few senders and candidates, so it is decided in
        Python floats around one array call, the path losses
        (:meth:`Network.path_loss`): the IEEE operations are those of a
        dense matrix evaluation, bit for bit."""
        reach = self.network.lone_reach
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


def _ledger(
    network: Network, core: _Core, hears: Sequence[bool], trace: TraceConfig
) -> tuple[Callable[[int, list[_SlotTx], dict[int, tuple[int, Any]]], None], Callable[..., SimTrace]]:
    """Step 8 of a slot and the run's trace, which the event loop and the
    schedule sweep share: ``settle(slot, txs, pending)`` resolves the
    slot's transmissions, counts them and their full successes, files first
    receptions, puts each reception of a listener in `hears` into `pending`
    (listener index -> (sender id, payload)) and records the outcome.  The
    senders must be flagged in ``core.sending``; `settle` clears the flags.
    ``finish(seed, n_slots, completed, machines, draws, **loop_counters)``
    returns the :class:`SimTrace`; `machines` and `draws` go by node index.

    Closures, apart from `_Core`: as a method reading ``self``, `settle` ran
    `color32` 6.5% slower (6/6 pairs); closures kept on `_Core` form a cycle,
    +0.45 MB `bcast2k` peak RSS (8/8).  Here and below, a pair is one
    perfbench/run.py run of each variant, on a 2-vCPU x86-64 host."""
    ids = network.ids
    n = network.n
    reach = network.lone_reach
    resolve = core.resolve
    awake, sending = core.awake, core.sending
    first_rx: dict[int, dict[int, int]] = {v: {} for v in ids}
    rx_rows = [first_rx[v] for v in ids]
    tx_counts = [0] * n
    full_counts = [0] * n
    first_full: list[Optional[int]] = [None] * n
    outcomes: Optional[list[SlotOutcome]] = [] if trace.record_outcomes else None
    limit = trace.outcome_limit
    eventful = multi_tx = 0
    truncated = False

    def settle(s: int, txs: list[_SlotTx], pending: dict[int, tuple[int, Any]]) -> None:
        nonlocal eventful, multi_tx, truncated
        eventful += 1
        lone = len(txs) == 1
        if lone:
            # a lone transmission reaches the awake nodes of its exact reach
            entry = reach(txs[0][0], txs[0][1])
            exact = entry[0]
            received: Sequence[Sequence[int]] = (
                (exact,) if not core.asleep else ([l for l in exact if awake[l]],)
            )
            entries: Sequence[_LoneReach] = (entry,)
        else:
            multi_tx += 1
            received, entries = resolve(txs)
        for (i, power, payload), rx, entry in zip(txs, received, entries):
            sending[i] = False
            tx_counts[i] += 1
            # full success: every awake out-neighbour decoded; a lone
            # transmission reaches every awake node of its exact reach, so
            # only the out-neighbours outside it can miss it
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
        if outcomes is not None:
            if limit is not None and len(outcomes) >= limit:
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

    def finish(seed: int, n_slots: int, completed: bool, machines: Sequence[ProtocolMachine],
               draws: Sequence[int], **loop_counters: int) -> SimTrace:
        return SimTrace(
            seed=seed, n_slots=n_slots, completed=completed, machines=dict(zip(ids, machines)),
            first_rx=first_rx, tx_count=dict(zip(ids, tx_counts)),
            full_success_count=dict(zip(ids, full_counts)),
            first_full_success=dict(zip(ids, first_full)), draws=dict(zip(ids, draws)),
            outcomes=outcomes, eventful_slots=eventful, outcomes_truncated=truncated,
            multi_tx_slots=multi_tx, **loop_counters,
        )

    return settle, finish


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


# the event loop's lists stay its empty `none` until they get an entry: a new list
# per slot ran `color32` 3% slower (5/6 pairs), +0.25 MB peak RSS (6/6) (see _ledger)
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

    A run without a script whose machines are all exactly
    :class:`~sinrsim.broadcast.FixedProbBroadcaster` never reacts to what
    it hears, so it is swept as an open-loop schedule with no heap
    (:func:`_run_schedule`); the trace is the one the event loop gives.
    """
    _check_count("max_slots", max_slots, 1)
    _check_count("seed", seed, 0)
    machines = [factory(node) for node in network.nodes]
    core = _Core(network)
    # an inbox for each machine whose class reads its receptions
    hears = [type(m).on_receive is not ProtocolMachine.on_receive for m in machines]
    settle, finish = _ledger(network, core, hears, trace or TraceConfig())
    from .broadcast import FixedProbBroadcaster  # broadcast.py imports this module

    if scripted is None and all(type(m) is FixedProbBroadcaster for m in machines):
        return _run_schedule(network, machines, max_slots, seed, core, settle, finish, monitor)
    n = network.n
    ids = network.ids
    by_id = dict(zip(ids, machines))

    next_tx: list[list[Optional[int]]] = [[None] * len(m.lanes) for m in machines]
    streams = [_Stream(_generator(words)) for words in _seed_words(seed, ids)]
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

    heap_pops = 0
    stale_tx = 0

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
                        # 3. departures: the lanes stop, reported as 0
                        if awake[i]:
                            awake[i] = False
                            core.asleep += 1
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
            # and its wake-up or departure keeps its count
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
                        if slot == s:
                            tx_cand = _add(tx_cand, (i, k))
                        elif slot is not None:
                            heappush(heap, (slot, _TX, i, k))
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
                    slot = row[k] = _lane_slot(machine.lanes[k], streams[i], s + 1)
                    if slot is not None:
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

            if n_live == 0 and not script_pending and pending_slot < 0:
                completed = True
                break
    except Exception as exc:
        if cur < 0 or isinstance(exc, SimulationAbort):
            raise
        raise SimulationAbort(ids[cur], s, exc) from exc

    return finish(seed, last_slot + 1 if completed else max_slots, completed, machines,
                  [st.count() for st in streams], heap_pops=heap_pops, stale_tx_entries=stale_tx)


def _run_schedule(
    network: Network,
    machines: list[ProtocolMachine],
    max_slots: int,
    seed: int,
    core: _Core,
    settle: Callable[[int, list[_SlotTx], dict[int, tuple[int, Any]]], None],
    finish: Callable[..., SimTrace],
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
    and gives the same run through the same step 8 (`settle`, from
    :func:`_ledger`), with the same node streams (:class:`_Stream`)."""
    n = network.n
    ids = network.ids
    awake, sending = core.awake, core.sending
    timeline: list[int] = []
    draws = [0] * n
    last = -1  # the slot the last node stops in: its poll or departure
    seed_words = _seed_words(seed, ids)
    cur = s = -1
    try:
        for i, (node, machine) in enumerate(zip(network.nodes, machines)):
            s = node.wake_slot
            if s >= max_slots:
                continue
            cur = i
            machine.wake(s)
            cur = -1
            timeline.append((s * 5 + _WAKE) * n + i)
            (lane,) = machine.lanes
            end = machine._checkpoint
            if end is None:
                end = max_slots  # never polled in the run
            leave = node.sleep_slot
            if leave is not None and leave < max_slots:
                timeline.append((leave * 5 + _SLEEP) * n + i)
            if leave is not None and leave <= end:
                end = leave  # gone before its poll: never done
            elif end < max_slots:
                timeline.append((end * 5 + _CHECK) * n + i)
            last = max(last, end)
            stop = min(end, max_slots)
            prob, period = lane.prob, lane.period
            s += (lane.phase - s) % period  # the first eligible slot
            if prob <= 0.0:
                continue
            if prob >= 1.0:  # every eligible slot, and no draw
                step = 5 * period * n
                timeline.extend(range((s * 5 + _TX) * n + i, (stop * 5 + _TX) * n + i, step))
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
        pending: dict[int, tuple[int, Any]] = {}  # stays empty: nobody hears
        txs: list[_SlotTx] = []
        changed: list[int] = []
        slot = -1
        for key in timeline:
            q, i = divmod(key, n)
            s, kind = divmod(q, 5)
            if s != slot:
                if txs:
                    settle(slot, txs, pending)
                    txs = []
                # kept here: acceptance 03 and the reference comparisons monitor every
                # run, so neither would run the schedule if monitored runs took the loop
                if changed:
                    if monitor is not None:
                        monitor(slot, _monitor_updates(machines, awake, changed))
                    changed = []
                if s >= n_slots:
                    break
                slot = s
            if kind == _TX:
                cur = i
                payload, power = transmit[i](s, 0)
                cur = -1
                sending[i] = True
                txs.append((i, power, payload))
                continue
            machine = machines[i]
            if kind == _WAKE:
                awake[i] = True
                core.asleep -= 1
            elif kind == _SLEEP:
                awake[i] = False
                core.asleep += 1
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
