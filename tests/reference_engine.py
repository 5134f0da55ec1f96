"""Reference event loop: the straightforward per-slot engine that
`sinrsim.engine.run_simulation` must agree with, kept as a test oracle.

Every slot's events are collected into sets and sorted, each protocol
callback runs under its own error guard, and a slot's receptions travel as
(listener, transmission) pairs from resolution to per-listener inbox lists,
each of which must hold exactly one message when it is delivered.  It
consumes the same per-node random streams in the same order as the engine,
one uniform per geometric gap, so on any input both give identical traces,
draw counts, machine logs and monitor updates.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterable, Optional

import numpy as np

from sinrsim.engine import (
    ProtocolMachine,
    SimTrace,
    SlotOutcome,
    TraceConfig,
    Transmission,
    resolve_slot,
)
from sinrsim.errors import ProtocolViolationError, SimulationAbort
from sinrsim.model import Network, Node

from .conftest import reference_network_build


def _first_eligible(slot: int, period: int, phase: int) -> int:
    if period == 1:
        return slot
    return slot + (phase - slot) % period



_DELIVER, _WAKE, _SLEEP, _SCRIPT, _CHECK, _TX = range(6)

_SlotTx = tuple[int, float, Any]  # (node index, power, payload)


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _RefCore:
    """Physical-layer state of one run: the dense distance**alpha matrix of
    the network oracle and lone-transmission reach bitmasks per (sender,
    power).  A slot with several transmissions is resolved by
    :func:`resolve_slot` over the awake listeners."""

    def __init__(self, network: Network):
        self.network = network
        params = network.params
        self.beta = params.beta_true
        self.noise = params.noise_true
        dense = reference_network_build(network)
        # an infinite diagonal makes a gain power / dist_alpha 0 at the sender
        self.dist_alpha = dense["distances"] ** params.alpha_true
        np.fill_diagonal(self.dist_alpha, math.inf)
        self._reach_cache: dict[tuple[int, float], int] = {}
        self.out_mask = [_mask_of(row) for row in dense["adjacency"]]

    def reach(self, idx: int, power: float) -> int:
        """Listeners that decode a lone transmission from `idx` at `power`,
        by the SINR rule with one sender, ``g >= beta * ((g + noise) - g)``."""
        key = (idx, power)
        mask = self._reach_cache.get(key)
        if mask is None:
            signal = power / self.dist_alpha[idx]  # 0 at the sender itself
            mask = _mask_of(signal >= self.beta * ((signal + self.noise) - signal))
            self._reach_cache[key] = mask
        return mask

    def resolve(self, s: int, listeners: int, txs: list[_SlotTx]) -> list[tuple[int, int]]:
        """(listener idx, tx index) pairs of slot `s`, among the listeners
        in the bitmask `listeners`."""
        if not txs or listeners == 0:
            return []
        if len(txs) == 1:
            idx, power, _ = txs[0]
            return [(l, 0) for l in _bits(self.reach(idx, power) & listeners)]
        ids = self.network.ids
        records = [Transmission(ids[i], s, power, payload) for i, power, payload in txs]
        outcome = resolve_slot(self.network, records, awake={ids[l] for l in _bits(listeners)})
        index = {tx.sender: t for t, tx in enumerate(records)}
        return [(self.network.index(l), index[tx.sender]) for l, tx in outcome.receptions]


def _mask_of(row: np.ndarray) -> int:
    """Bitmask (bit j = row[j]) of a boolean vector."""
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _parity_probs(machine: ProtocolMachine) -> tuple[float, float]:
    """Per-slot transmission probability on even/odd absolute slots."""
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


def reference_run_simulation(
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

    Receptions resolved in slot t reach their listener's inbox at the start
    of slot t+1.  `monitor`, when given, receives every change of the
    per-node transmission probabilities as (node index, probability on
    even slots, probability on odd slots) tuples -- exactly the instants at which
    any per-slot probability invariant could newly fail.  `scripted` is a
    ``(first slot, action)`` pair; the action returns the slot of its next
    call, or None.
    """
    if max_slots <= 0:
        raise ValueError("max_slots must be positive")
    trace = trace or TraceConfig()
    core = _RefCore(network)
    n = network.n

    machines: list[ProtocolMachine] = []
    by_id: dict[int, ProtocolMachine] = {}
    for node in network.nodes:
        machine = factory(node)
        machines.append(machine)
        by_id[node.id] = machine
    # straight from NumPy, which also checks the engine's batch seeding
    rngs = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, node.id))))
        for node in network.nodes
    ]
    draws = [0] * n  # uniforms taken from each stream
    # a machine whose class leaves on_receive to the base class hears nothing
    hears = [type(m).on_receive is not ProtocolMachine.on_receive for m in machines]

    def gap(i: int, prob: float) -> int:
        """Eligible slots node index i skips before its next transmission;
        a prob below 1 takes one uniform from its stream."""
        if prob >= 1.0:
            return 0
        draws[i] += 1
        return int(math.log1p(-rngs[i].random()) / math.log1p(-prob))

    next_tx: list[list[Optional[int]]] = [[None] * len(m.lanes) for m in machines]
    synced_cp: list[Optional[int]] = [None] * n
    awake = [False] * n
    awake_mask = 0
    done_seen = [False] * n
    n_undone = 0
    n_prewake = 0

    heap: list[tuple[int, int, int, int, int]] = []
    seq = 0

    def push(slot: int, kind: int, idx: int = 0, lane: int = 0) -> None:
        nonlocal seq
        heapq.heappush(heap, (slot, seq, kind, idx, lane))
        seq += 1

    for i, node in enumerate(network.nodes):
        if node.wake_slot < max_slots:
            push(node.wake_slot, _WAKE, i)
            n_prewake += 1
            if node.sleep_slot is not None and node.sleep_slot < max_slots:
                push(node.sleep_slot, _SLEEP, i)

    action = None
    script_pending = False
    if scripted is not None:
        first_slot, action = scripted
        if first_slot < max_slots:
            push(first_slot, _SCRIPT)
            script_pending = True

    pending_slot = -1
    pending: dict[int, list[tuple[int, Any]]] = {}

    first_rx: dict[int, dict[int, int]] = {v: {} for v in network.ids}
    tx_count = dict.fromkeys(network.ids, 0)
    full_success = dict.fromkeys(network.ids, 0)
    first_full: dict[int, Optional[int]] = dict.fromkeys(network.ids)
    outcomes: Optional[list[SlotOutcome]] = [] if trace.record_outcomes else None
    truncated = False
    eventful = 0

    def guarded(machine: ProtocolMachine, slot: int, call: Callable[[], Any]) -> Any:
        try:
            return call()
        except SimulationAbort:
            raise
        except Exception as exc:  # noqa: BLE001 - attach node/slot context
            raise SimulationAbort(machine.node.id, slot, exc) from exc

    def resample(i: int, from_slot: int, defer_at: Optional[int]) -> list[int]:
        """Redraw every lane of machine i starting at `from_slot`.  Entries
        landing exactly on `defer_at` are returned instead of pushed (the
        caller is still processing that slot)."""
        machine = machines[i]
        immediate: list[int] = []
        for k, lane in enumerate(machine.lanes):
            if lane.prob <= 0.0:
                next_tx[i][k] = None
                continue
            slot = _first_eligible(from_slot, lane.period, lane.phase) + gap(i, lane.prob) * lane.period
            next_tx[i][k] = slot
            if slot == defer_at:
                immediate.append(k)
            else:
                push(slot, _TX, i, k)
        return immediate

    def sync_checkpoint(i: int, now: int) -> None:
        """File machine i's checkpoint if it changed; each slot runs once,
        so a new one must lie after `now`."""
        if not awake[i]:
            return
        cp = machines[i].next_checkpoint
        if cp != synced_cp[i]:
            synced_cp[i] = cp
            if cp is not None:
                if cp <= now:
                    raise ProtocolViolationError(
                        f"node {network.ids[i]} filed checkpoint {cp} in slot {now}, not after it"
                    )
                push(cp, _CHECK, i)

    def track_done(i: int) -> None:
        nonlocal n_undone
        flag = machines[i].done or not awake[i]
        if flag and not done_seen[i]:
            done_seen[i] = True
            n_undone -= 1
        elif not flag and done_seen[i]:
            done_seen[i] = False
            n_undone += 1

    def deliver_stats(
        tx_slot: int, now: int, txs: list[_SlotTx], resolved: list[tuple[int, int]]
    ) -> None:
        nonlocal pending_slot, eventful, truncated
        eventful += 1
        got: dict[int, list[tuple[int, Any]]] = {}
        rx_masks = [0] * len(txs)
        for l, t in resolved:
            sender_id = network.ids[txs[t][0]]
            listener_id = network.ids[l]
            if hears[l]:
                got.setdefault(l, []).append((sender_id, txs[t][2]))
            rx_masks[t] |= 1 << l
            row = first_rx[listener_id]
            if sender_id not in row:
                row[sender_id] = tx_slot
        current_awake = awake_mask
        for t, (sender_idx, _power, _payload) in enumerate(txs):
            sender_id = network.ids[sender_idx]
            tx_count[sender_id] += 1
            needed = core.out_mask[sender_idx] & current_awake
            if needed & ~rx_masks[t] == 0:
                full_success[sender_id] += 1
                if first_full[sender_id] is None:
                    first_full[sender_id] = tx_slot
        if got:
            for l, msgs in got.items():
                pending.setdefault(l, []).extend(msgs)
            if pending_slot < 0:
                push(now + 1, _DELIVER)
            pending_slot = now + 1
        if outcomes is None:
            return
        if trace.outcome_limit is not None and len(outcomes) >= trace.outcome_limit:
            truncated = True
        else:
            records = [
                Transmission(network.ids[i], tx_slot, power, payload)
                for i, power, payload in txs
            ]
            outcomes.append(
                SlotOutcome(
                    slot=tx_slot,
                    transmissions=tuple(records),
                    receptions=tuple(
                        (network.ids[l], records[t]) for l, t in resolved
                    ),
                )
            )

    last_slot = -1
    completed = False

    while heap:
        s = heap[0][0]
        if s >= max_slots:
            break
        last_slot = s

        bucket: list[tuple[int, int, int, int, int]] = []
        while heap and heap[0][0] == s:
            bucket.append(heapq.heappop(heap))

        touched: set[int] = set()
        wakes: set[int] = set()
        sleeps: set[int] = set()
        polls: set[int] = set()
        script_due = False
        tx_candidates: list[tuple[int, int]] = []
        for _, _, kind, idx, lane in bucket:
            if kind == _WAKE:
                wakes.add(idx)
            elif kind == _SLEEP:
                sleeps.add(idx)
            elif kind == _SCRIPT:
                script_due = True
            elif kind == _CHECK:
                polls.add(idx)
            elif kind == _TX:
                tx_candidates.append((idx, lane))

        # 1. deliver receptions resolved for this slot
        if pending_slot == s:
            for i in sorted(pending):
                msgs = pending[i]
                if len(msgs) != 1:  # one decoded transmission per listener and slot
                    raise AssertionError(f"listener index {i} holds {msgs} at slot {s}")
                machine = machines[i]
                if awake[i]:
                    sender, payload = msgs[0]
                    guarded(
                        machine, s,
                        lambda m=machine, x=sender, y=payload: m.on_receive(s, x, y),
                    )
                    touched.add(i)
            pending = {}
            pending_slot = -1

        # 2. wake-ups
        for i in sorted(wakes):
            awake[i] = True
            awake_mask |= 1 << i
            n_prewake -= 1
            n_undone += 1
            machine = machines[i]
            guarded(machine, s, lambda m=machine: m.wake(s))
            touched.add(i)

        # 3. departures: the lanes stop, and the monitor hears they are 0
        changed_probs: set[int] = set()
        for i in sorted(sleeps):
            if awake[i]:
                awake[i] = False
                awake_mask &= ~(1 << i)
                for k in range(len(machines[i].lanes)):
                    next_tx[i][k] = None
                track_done(i)
                changed_probs.add(i)

        # 4. the scripted external action (may touch any machine) and the
        # slot of its next call
        if script_due:
            nxt = action(by_id, s)
            if nxt is not None and nxt <= s:
                raise ValueError(f"scripted action at slot {s} returned slot {nxt}")
            script_pending = nxt is not None and nxt < max_slots
            if script_pending:
                push(nxt, _SCRIPT)
            touched.update(range(n))

        # 5. scheduled polls, validated against the machine's current plan
        for i in sorted(polls):
            machine = machines[i]
            if awake[i] and machine.next_checkpoint == s:
                machine.schedule(None)
                synced_cp[i] = None
                guarded(machine, s, lambda m=machine: m.poll(s))
                touched.add(i)

        # 6. regime changes effective for this very slot; an asleep
        # machine keeps its changes until its wake-up
        for i in sorted(touched):
            machine = machines[i]
            if machine._dirty and awake[i]:
                machine._dirty = False
                changed_probs.add(i)
                for k in resample(i, s, defer_at=s):
                    tx_candidates.append((i, k))
            sync_checkpoint(i, s)
            if awake[i]:  # a sleeping node is counted by its wake-up or departure
                track_done(i)

        # 7. this slot's transmissions
        txs: list[_SlotTx] = []
        tx_mask = 0
        firing = sorted({(i, k) for i, k in tx_candidates if awake[i] and next_tx[i][k] == s})
        fired: list[int] = []
        for i, k in firing:
            machine = machines[i]
            payload, power = guarded(
                machine, s, lambda m=machine, kk=k: m.on_transmit(s, kk)
            )
            if (1 << i) & tx_mask:
                raise ProtocolViolationError(
                    f"node {machine.node.id} transmitted twice in slot {s}"
                )
            txs.append((i, power, payload))
            tx_mask |= 1 << i
            next_tx[i][k] = None
            fired.append(i)

        # 8. physical resolution
        if txs:
            resolved = core.resolve(s, awake_mask & ~tx_mask, txs)
            deliver_stats(s, s, txs, resolved)

        # 9. regime changes caused by transmitting apply from the next slot
        for i in sorted(set(fired)):
            machine = machines[i]
            if machine._dirty:
                machine._dirty = False
                changed_probs.add(i)
                resample(i, s + 1, defer_at=None)
            else:
                for k2, lane in enumerate(machine.lanes):
                    if next_tx[i][k2] is None and lane.prob > 0.0:
                        slot2 = (
                            _first_eligible(s + 1, lane.period, lane.phase)
                            + gap(i, lane.prob) * lane.period
                        )
                        next_tx[i][k2] = slot2
                        push(slot2, _TX, i, k2)
            sync_checkpoint(i, s)
            track_done(i)

        if monitor is not None and changed_probs:
            updates = []
            for i in sorted(changed_probs):
                even, odd = _parity_probs(machines[i]) if awake[i] else (0.0, 0.0)
                updates.append((i, even, odd))
            monitor(s, updates)

        if (
            n_undone == 0
            and n_prewake == 0
            and not script_pending
            and pending_slot < 0
        ):
            completed = True
            break

    return SimTrace(
        seed=seed,
        n_slots=(last_slot + 1) if completed else max_slots,
        completed=completed,
        machines=by_id,
        first_rx=first_rx,
        tx_count=tx_count,
        full_success_count=full_success,
        first_full_success=first_full,
        draws=dict(zip(network.ids, draws)),
        outcomes=outcomes,
        eventful_slots=eventful,
        outcomes_truncated=truncated,
    )
