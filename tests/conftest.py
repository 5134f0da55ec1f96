"""Shared helpers: brute-force oracles and a minimal single-machine driver."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from sinrsim import topology
from sinrsim.errors import ModelViolationError
from sinrsim.model import Network, NetworkParams, Node, build_network


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def brute_random_topology(
    n: int,
    side: float,
    power_range: tuple[float, float],
    seed: int,
    params=None,
    wake_window: int = 0,
) -> Network:
    """`random_topology` with the full pairwise separation scan: every
    candidate is tested against every placed point.  Reads
    `topology._MIN_SEPARATION` at call time, so tests can raise it."""
    if n < 1 or side <= 0.0:
        raise ValueError("need n >= 1 nodes and a positive area side")
    lo, hi = power_range
    if not (0.0 < lo <= hi):
        raise ValueError("power range must be positive and ordered")
    params = params or NetworkParams.exact()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x7090))))
    placed: list[tuple[float, float]] = []
    nodes: list[Node] = []
    limit = topology._MIN_SEPARATION * side
    for i in range(n):
        for _attempt in range(1000):
            x = rng.uniform(0.0, side)
            y = rng.uniform(0.0, side)
            if all(math.hypot(x - a, y - b) > limit for a, b in placed):
                break
        else:
            raise ValueError("could not place nodes with the minimum separation")
        placed.append((x, y))
        power = rng.uniform(lo, hi)
        wake = int(rng.integers(0, wake_window + 1)) if wake_window else 0
        nodes.append(Node(id=i, x=x, y=y, power=power, wake_slot=wake))
    return build_network(nodes, params)


def reference_network_build(network: Network) -> dict:
    """The derived structure of `network` recomputed the dense way: the
    n x n x 2 difference kernel, per-row and per-column `np.nonzero` edge
    tuples, the masked in-range degree count and the longest one-way chain
    by topological order over dense matrix rows."""
    n = network.n
    diff = network.positions[:, None, :] - network.positions[None, :, :]
    distances = np.sqrt((diff * diff).sum(axis=2))
    off_diag = ~np.eye(n, dtype=bool)
    in_range = (distances <= network.r_max[:, None]) & off_diag
    adjacency = (distances <= network.r_bcast[:, None]) & off_diag
    ids = network.ids
    out_edges = {
        ids[i]: tuple(ids[j] for j in np.nonzero(adjacency[i])[0]) for i in range(n)
    }
    in_edges = {
        ids[i]: tuple(ids[j] for j in np.nonzero(adjacency[:, i])[0]) for i in range(n)
    }
    unidirectional = adjacency & ~adjacency.T

    indeg = unidirectional.sum(axis=0).astype(int)
    order = [i for i in range(n) if indeg[i] == 0]
    longest = [0] * n
    head = 0
    while head < len(order):
        i = order[head]
        head += 1
        for j in np.nonzero(unidirectional[i])[0]:
            j = int(j)
            longest[j] = max(longest[j], longest[i] + 1)
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != n:
        raise ModelViolationError("cycle of strictly unidirectional links detected")

    return {
        "distances": distances,
        "adjacency": adjacency,
        "bidirectional": adjacency & adjacency.T,
        "unidirectional": unidirectional,
        "out_edges": out_edges,
        "in_edges": in_edges,
        "max_degree": int(in_range.sum(axis=1).max()) if n > 1 else 0,
        "longest_chain": max(longest) if longest else 0,
    }


def brute_max_degree(network: Network) -> int:
    """Pairwise-distance count of nodes inside each transmission range."""
    best = 0
    for i in range(network.n):
        count = 0
        for j in range(network.n):
            if i == j:
                continue
            d = math.dist(
                (network.nodes[i].x, network.nodes[i].y),
                (network.nodes[j].x, network.nodes[j].y),
            )
            if d <= network.r_max[i]:
                count += 1
        best = max(best, count)
    return best


def brute_longest_chain(network: Network) -> int:
    """Exhaustive DFS over all simple paths in the one-way-link subgraph."""
    unidirectional = reference_network_build(network)["unidirectional"]
    edges = {
        v: [network.ids[j] for j in np.nonzero(unidirectional[network.index(v)])[0]]
        for v in network.ids
    }

    def dfs(v, seen):
        best = 0
        for u in edges[v]:
            if u not in seen:
                best = max(best, 1 + dfs(u, seen | {u}))
        return best

    return max(dfs(v, {v}) for v in network.ids)


def brute_halo_pair_count(network: Network) -> int:
    """Ordered pairs beyond the sender's broadcasting range but within its
    true-parameter reach, counted pair by pair."""
    params = network.params
    reach = (network.powers / (params.noise_true * params.beta_true)) ** (
        1.0 / params.alpha_true
    )
    distances = reference_network_build(network)["distances"]
    count = 0
    for i in range(network.n):
        for j in range(network.n):
            if i != j and network.r_bcast[i] < distances[i, j] <= reach[i]:
                count += 1
    return count


def brute_leader_density_ok(network: Network, colors, leader_colors: int) -> bool:
    """The leader density verdict, one radius query per leader: at most
    ceil(9 ratio^2) other leaders within one maximum range, ceil(19
    ratio^2) within two."""
    leaders = [v for v in network.ids if colors.get(v) is not None and colors[v] < leader_colors]
    ratio_sq = network.range_ratio**2
    lim1 = math.ceil(9.0 * ratio_sq)
    lim2 = math.ceil(19.0 * ratio_sq)
    is_leader = np.zeros(network.n, dtype=bool)
    is_leader[[network.index(v) for v in leaders]] = True
    for v in leaders:
        others, d = network.within(network.index(v), 2.0 * network.r_max_global)
        lead = is_leader[others]
        near = int(np.count_nonzero(d[lead] <= network.r_max_global))
        near2 = int(np.count_nonzero(lead))
        if near > lim1 or near2 > lim2:
            return False
    return True


def brute_region_sums(network: Network, probs) -> list[float]:
    """Per node, in index order, the probability mass inside its
    broadcasting region: the node itself first, then its out-neighbours in
    index order, 0 for nodes absent from `probs`."""
    sums = []
    for node in network.nodes:
        total = probs.get(node.id, 0.0)
        for other in network.out_edges[node.id]:
            total += probs.get(other, 0.0)
        sums.append(total)
    return sums


def brute_proximity_silence_probability(network: Network, probs, node_id: int) -> float:
    """Product of (1 - p) over every node closer than three maximum ranges,
    node by node in index order."""
    i = network.index(node_id)
    limit = 3.0 * network.r_max_global
    distances = reference_network_build(network)["distances"]
    result = 1.0
    for j, other in enumerate(network.nodes):
        if j == i:
            continue
        if distances[i, j] < limit:
            p = probs.get(other.id, 0.0)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability for node {other.id} outside [0, 1]")
            result *= 1.0 - p
    return result


def brute_expected_far_interference(network: Network, probs, node_id: int, exponent: float) -> float:
    """Far interference at each candidate receiver of the broadcasting
    region, one receiver at a time; the maximum."""
    if exponent <= 1.0:
        raise ValueError("attenuation exponent must exceed 1")
    i = network.index(node_id)
    limit = 3.0 * network.r_max_global
    distances = reference_network_build(network)["distances"]
    far = [
        j
        for j in range(network.n)
        if j != i and distances[i, j] >= limit and probs.get(network.ids[j], 0.0) > 0.0
    ]
    if not far:
        return 0.0

    center = network.positions[i]
    radius = float(network.r_bcast[i])
    candidates = [
        network.positions[j]
        for j in range(network.n)
        if j != i and distances[i, j] <= radius
    ]
    for j in far:
        direction = network.positions[j] - center
        candidates.append(center + radius * direction / np.linalg.norm(direction))

    far_pos = network.positions[far]
    weights = np.array(
        [probs[network.ids[j]] * network.powers[j] for j in far], dtype=float
    )
    worst = 0.0
    for u in candidates:
        d = np.linalg.norm(far_pos - u, axis=1)
        worst = max(worst, float(np.sum(weights / d**exponent)))
    return worst


def brute_ring_index(d: float, r: float):
    """Smallest ring index whose annulus contains distance d."""
    if d < 3.0 * r:
        return None
    i = 2
    while not ((i + 1) * r <= d <= (i + 2) * r):
        i += 1
    return i


def brute_free_counter(estimates, zeta: int) -> int:
    """Scan x = 0, -1, -2, ... for the first value outside all intervals."""
    x = 0
    while any(d - zeta <= x <= d + zeta for d in estimates):
        x -= 1
    return x


def brute_mis_verdict(network: Network, members: set[int]) -> tuple[bool, bool]:
    independent = True
    dominating = True
    for v in network.ids:
        if v in members:
            for u in network.out_edges[v]:
                if u in members:
                    independent = False
        else:
            if not any(u in members for u in network.in_edges[v]):
                dominating = False
    return independent, dominating


def full_scan_dominated(machine, slot: int) -> bool:
    """`ColoringMachine._dominated` as a scan of all of `heard_from`: some
    sender that is not confirmed, was heard within the staleness window and
    holds no fresh color."""
    for other, heard in machine.heard_from.items():
        if other in machine.confirmed_out:
            continue
        if slot - heard > 2 * machine.k.request_budget:
            continue  # presumed gone (asleep or dead)
        if machine._color_of(slot, other) is None:
            return True
    return False


# ---------------------------------------------------------------------------
# single-machine driver (engine stand-in for transition unit tests)
# ---------------------------------------------------------------------------


def drive_machine(machine, *, until: int, inbox=()) -> None:
    """Honors wake, scheduled polls and scripted receptions for one machine
    in isolation; the transmission lottery itself never fires.  As in the
    engine, a slot delivers at most one reception, in one `on_receive`
    call."""
    queue = sorted(inbox, key=lambda entry: entry[0])  # (slot, sender, message)
    slots = [entry[0] for entry in queue]
    if len(set(slots)) < len(slots):
        raise ValueError(f"two receptions scheduled in one slot: {slots}")
    machine.wake(machine.node.wake_slot)
    pos = 0
    slot = machine.node.wake_slot
    while slot <= until:
        cp = machine.next_checkpoint
        nxt_inbox = queue[pos][0] if pos < len(queue) else None
        candidates = [s for s in (cp, nxt_inbox) if s is not None and s <= until]
        if not candidates:
            return
        slot = min(candidates)
        if nxt_inbox == slot:
            machine.on_receive(*queue[pos])
            pos += 1
        if machine.next_checkpoint == slot:
            machine.schedule(None)
            machine.poll(slot)


# ---------------------------------------------------------------------------
# topology snippets
# ---------------------------------------------------------------------------


@pytest.fixture
def exact_params():
    return NetworkParams.exact(alpha=3.0, beta=1.0, noise=1.0, delta=2.0, c_whp=2.0)


def pair_network(
    params: NetworkParams, d: float = 1.0, p0: float = 8.0, p1: float = 8.0, **node_kw
) -> Network:
    return build_network(
        [Node(0, 0.0, 0.0, p0, **node_kw), Node(1, d, 0.0, p1, **node_kw)], params
    )


def random_small_network(rng: np.random.Generator, n: int, params: NetworkParams) -> Network:
    side = math.sqrt(n) * 1.6
    nodes = []
    for i in range(n):
        nodes.append(
            Node(
                id=i,
                x=float(rng.uniform(0, side)),
                y=float(rng.uniform(0, side)),
                power=float(rng.uniform(1.0, 8.0)),
            )
        )
    return build_network(nodes, params)
