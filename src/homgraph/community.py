"""Community detection on call graphs and modularity scoring.

Both detectors run on the simple undirected projection of the directed
call graph; edge direction is preserved elsewhere for triad analysis.
Runs are deterministic given (graph, seed): visiting order is a seeded
permutation and every tie breaks toward the smallest candidate id.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import CallGraph

# Stop a multilevel run once an aggregation pass improves Q by less than this.
Q_IMPROVEMENT_TOL = 1e-7
# Safety cap for label propagation, which has no quality function to monitor.
MAX_LABEL_SWEEPS = 100

MULTILEVEL = "multilevel"


class ModularityUndefinedError(ValueError):
    """Modularity is undefined for graphs with no edges."""


@dataclass(frozen=True, eq=False)
class CommunityPartition:
    """Per-position community labels with their modularity score.

    ``labels[i]`` is the community of the graph's position ``i``; community
    ids are dense from 0, numbered by smallest member. ``ids`` is the
    graph's own id tuple. ``q_trace`` records modularity after each
    multilevel aggregation pass (empty for other detectors).
    """

    labels: np.ndarray  # int, one per position
    ids: tuple[int, ...] = field(repr=False)
    community_count: int
    modularity_q: float
    q_trace: tuple[float, ...] = ()

    def communities(self) -> list[frozenset[int]]:
        """Member id sets indexed by community id."""
        groups: dict[int, set[int]] = {}
        for nid, comm in zip(self.ids, self.labels.tolist()):
            groups.setdefault(comm, set()).add(nid)
        return [frozenset(groups[c]) for c in sorted(groups)]


def modularity(graph: CallGraph, partition: CommunityPartition) -> float:
    """Modularity Q of ``partition`` on the undirected projection.

    Q = sum over communities c of (m_c / m - (d_c / 2m)^2), with m the
    undirected edge count, m_c the intra-community edges, and d_c the total
    degree of community c. Communities are summed in order of first
    appearance over the sorted undirected edges.
    """
    if partition.ids != graph.ids:
        raise ValueError(f"partition does not cover graph {graph.app_id!r} exactly")
    if not graph.pair_count:
        raise ModularityUndefinedError(
            f"graph {graph.app_id!r} has no edges; modularity is undefined"
        )
    return _q(graph, partition.labels)


def _q(graph: CallGraph, labels: np.ndarray) -> float:
    """Modularity of per-position community labels, each in [0, node count),
    on a graph with edges. Communities are summed in order of first
    appearance over the sorted undirected edges; every term is
    integer-valued, so only that order can touch the last bit."""
    upper = graph.rows < graph.indices
    ends = labels[np.column_stack([graph.rows[upper], graph.indices[upper]]).ravel()]
    cu, cv = ends[0::2], ends[1::2]
    intra = np.bincount(cu[cu == cv], minlength=len(labels))
    degree = np.bincount(labels[graph.rows], minlength=len(labels))
    first = np.full(len(labels), len(ends))
    np.minimum.at(first, ends, np.arange(len(ends)))
    order = np.argsort(first)[:np.count_nonzero(first < len(ends))]
    m = graph.pair_count
    two_m = 2.0 * m
    q = 0.0
    for e_c, d_c in zip(intra[order].tolist(), degree[order].tolist()):
        q += e_c / m - (d_c / two_m) ** 2
    return q


def _dense_partition(
    graph: CallGraph, labels: list[int] | np.ndarray, q_trace: tuple[float, ...] = ()
) -> CommunityPartition:
    """Relabel per-position community labels densely from 0, ordered by
    smallest member (positions ascend with ids). A multilevel run's Q is
    its last pass's; other labels are scored here."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    dense = rank[inverse]
    q = q_trace[-1] if q_trace else (_q(graph, dense) if graph.pair_count else 0.0)
    return CommunityPartition(dense, graph.ids, len(first), q, q_trace)


def detect_multilevel(graph: CallGraph, seed: int = 0) -> CommunityPartition:
    """Louvain-style two-phase modularity optimization.

    Alternates local moving (a node queue in seed-permuted order, only
    strictly improving moves, ties to the smallest community id, a mover's
    neighbours requeued) with graph aggregation until a pass improves Q by
    at most ``Q_IMPROVEMENT_TOL``. Each pass is scored by ``_q`` on the
    partition it induces on ``graph``, as ``modularity`` scores it, so the
    last ``q_trace`` entry is the partition's Q bit for bit.
    """
    n = graph.node_count
    if not graph.pair_count:
        return _dense_partition(graph, np.arange(n))

    # Aggregated-graph state; weights are per unordered pair, self-loops once.
    adj = [dict.fromkeys(nbrs, 1.0) for nbrs in graph.neighbours()]
    self_loop = [0.0] * n
    total_w = float(graph.pair_count)

    membership = np.arange(n)  # original node index -> current community label
    rng = random.Random(seed)
    q_trace: list[float] = []
    prev_q = _q(graph, membership)

    while True:
        comm = _local_moving(adj, self_loop, total_w, rng)
        adj, self_loop, relabel = _aggregate(adj, self_loop, comm)
        membership = np.array([relabel[c] for c in comm])[membership]
        q = _q(graph, membership)
        if not q >= prev_q - 1e-9:
            raise RuntimeError(f"local moving decreased modularity from {prev_q} to {q}")
        q_trace.append(q)
        if q - prev_q <= Q_IMPROVEMENT_TOL:
            break
        prev_q = q

    return _dense_partition(graph, membership, tuple(q_trace))


def _local_moving(
    adj: list[dict[int, float]],
    self_loop: list[float],
    total_w: float,
    rng: random.Random,
) -> list[int]:
    """One Louvain local-moving phase; returns the community label per node.

    Nodes are evaluated from a FIFO queue that starts with every node in one
    seeded order (Traag, Waltman & van Eck 2019). A node moves only on a
    strict improvement over staying, ties going to the smallest community
    id. After a move, every neighbour not already queued joins the back of
    the queue, whatever its community; the phase ends when the queue is
    empty.
    """
    n = len(adj)
    strength = [sum(adj[i].values()) + 2.0 * self_loop[i] for i in range(n)]
    comm = list(range(n))
    comm_tot = strength[:]
    order = list(range(n))
    rng.shuffle(order)
    two_w = 2.0 * total_w
    queue = deque(order)
    queued = [True] * n

    while queue:
        i = queue.popleft()
        queued[i] = False
        k_i = strength[i]
        old = comm[i]
        weights: dict[int, float] = {}
        for j, w in adj[i].items():
            c = comm[j]
            weights[c] = weights.get(c, 0.0) + w
        comm_tot[old] -= k_i
        stay_gain = weights.get(old, 0.0) - comm_tot[old] * k_i / two_w
        # Moves need a strict improvement over staying; equal-gain
        # candidate communities tie-break to the smallest id.
        best_comm = old
        best_gain = stay_gain
        for c, w in weights.items():
            if c == old:
                continue
            gain = w - comm_tot[c] * k_i / two_w
            if gain > best_gain + 1e-12 or (
                best_comm != old and abs(gain - best_gain) <= 1e-12 and c < best_comm
            ):
                best_gain = gain
                best_comm = c
        comm_tot[best_comm] += k_i
        if best_comm != old:
            comm[i] = best_comm
            for j in adj[i]:
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)
    return comm


def _aggregate(
    adj: list[dict[int, float]],
    self_loop: list[float],
    comm: list[int],
) -> tuple[list[dict[int, float]], list[float], dict[int, int]]:
    """Collapse communities into super-nodes, summing edge weights."""
    labels = sorted(set(comm))
    relabel = {c: i for i, c in enumerate(labels)}
    size = len(labels)
    new_adj: list[dict[int, float]] = [{} for _ in range(size)]
    new_loop = [0.0] * size
    for i, nbrs in enumerate(adj):
        ci = relabel[comm[i]]
        new_loop[ci] += self_loop[i]
        for j, w in nbrs.items():
            if j < i:
                continue
            cj = relabel[comm[j]]
            if ci == cj:
                new_loop[ci] += w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return new_adj, new_loop, relabel


def detect_label_propagation(graph: CallGraph, seed: int = 0) -> CommunityPartition:
    """Asynchronous label propagation on the undirected projection.

    No analysis path runs it: it is the baseline that Louvain's modularity
    is tested against, and the benchmark times it. Each node adopts its
    most frequent neighbor label (ties to the smallest label); sweeps run
    in seed-permuted order until a fixpoint or ``MAX_LABEL_SWEEPS`` sweeps.
    """
    neighbours = graph.neighbours()
    labels = list(range(len(neighbours)))  # by position: the smallest label is the smallest id
    order = labels[:]
    rng = random.Random(seed)

    for _ in range(MAX_LABEL_SWEEPS):
        rng.shuffle(order)
        changed = False
        for i in order:
            nbrs = neighbours[i]
            if not nbrs:
                continue
            counts: dict[int, int] = {}
            for j in nbrs:
                lab = labels[j]
                counts[lab] = counts.get(lab, 0) + 1
            top = max(counts.values())
            best = min(lab for lab, c in counts.items() if c == top)
            if best != labels[i]:
                labels[i] = best
                changed = True
        if not changed:
            break
    return _dense_partition(graph, labels)
