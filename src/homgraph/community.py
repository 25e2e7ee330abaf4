"""Community detection on call graphs and modularity scoring.

Both detectors run on the simple undirected projection of the directed
call graph; edge direction is preserved elsewhere for triad analysis.
Runs are deterministic given (graph, seed): sweep order is a seeded
permutation and every tie breaks toward the smallest candidate id.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Iterable

from .model import CallGraph

# Stop a multilevel run once an aggregation pass improves Q by less than this.
Q_IMPROVEMENT_TOL = 1e-7
# Safety cap for label propagation, which has no quality function to monitor.
MAX_LABEL_SWEEPS = 100

MULTILEVEL = "multilevel"
LABEL_PROPAGATION = "label_propagation"
ALGORITHMS = (MULTILEVEL, LABEL_PROPAGATION)


class ModularityUndefinedError(ValueError):
    """Modularity is undefined for graphs with no edges."""


@dataclass(frozen=True)
class CommunityPartition:
    """Node -> community assignment with its modularity score.

    Community ids are dense from 0, numbered by smallest member node id.
    ``q_trace`` records modularity after each multilevel aggregation pass
    (empty for other detectors).
    """

    assignment: dict[int, int]
    community_count: int
    modularity_q: float
    q_trace: tuple[float, ...] = field(default=(), compare=False)

    def communities(self) -> list[frozenset[int]]:
        """Member sets indexed by community id."""
        groups: dict[int, set[int]] = {}
        for node, comm in self.assignment.items():
            groups.setdefault(comm, set()).add(node)
        return [frozenset(groups[c]) for c in sorted(groups)]


@dataclass(frozen=True)
class AlgorithmComparison:
    algorithm: str
    mean_q: float
    mean_runtime_seconds: float
    graph_count: int


def modularity(graph: CallGraph, partition: CommunityPartition) -> float:
    """Modularity Q of ``partition`` on the undirected projection.

    Q = sum over communities c of (m_c / m - (d_c / 2m)^2), with m the
    undirected edge count, m_c the intra-community edges, and d_c the total
    degree of community c.
    """
    assignment = partition.assignment
    missing = graph.node_ids - assignment.keys()
    if missing or len(assignment) != graph.node_count:
        raise ValueError(f"partition does not cover graph {graph.app_id!r} exactly")
    edges = graph.undirected_edges
    m = len(edges)
    if m == 0:
        raise ModularityUndefinedError(
            f"graph {graph.app_id!r} has no edges; modularity is undefined"
        )
    intra: dict[int, int] = {}
    degree: dict[int, int] = {}
    for u, v in edges:
        cu, cv = assignment[u], assignment[v]
        degree[cu] = degree.get(cu, 0) + 1
        degree[cv] = degree.get(cv, 0) + 1
        if cu == cv:
            intra[cu] = intra.get(cu, 0) + 1
    q = 0.0
    two_m = 2.0 * m
    for comm, d_c in degree.items():
        q += intra.get(comm, 0) / m - (d_c / two_m) ** 2
    return q


def _dense_partition(
    graph: CallGraph, membership: dict[int, int], q_trace: tuple[float, ...] = ()
) -> CommunityPartition:
    """Relabel communities densely from 0, ordered by smallest member id."""
    smallest: dict[int, int] = {}
    for node in sorted(membership):
        comm = membership[node]
        smallest.setdefault(comm, node)
    order = sorted(smallest, key=lambda c: smallest[c])
    relabel = {old: new for new, old in enumerate(order)}
    assignment = {node: relabel[comm] for node, comm in membership.items()}
    if graph.undirected_edges:
        part = CommunityPartition(assignment, len(order), 0.0, q_trace)
        q = modularity(graph, part)
    else:
        q = 0.0
    return CommunityPartition(assignment, len(order), q, q_trace)


def detect_multilevel(graph: CallGraph, seed: int = 0) -> CommunityPartition:
    """Louvain-style two-phase modularity optimization.

    Alternates local moving (seed-permuted sweep order, ties to the smallest
    community id, only strictly improving moves, nodes with unchanged inputs
    skipped) with graph aggregation until a pass improves Q by at most
    ``Q_IMPROVEMENT_TOL``. A pass's Q is read off the level it aggregated to.
    """
    node_ids = sorted(graph.node_ids)
    if not graph.undirected_edges:
        return _dense_partition(graph, {nid: nid for nid in node_ids})

    index = {nid: i for i, nid in enumerate(node_ids)}
    n = len(node_ids)
    # Aggregated-graph state; weights are per unordered pair, self-loops once.
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    self_loop = [0.0] * n
    for u, v in graph.undirected_edges:
        iu, iv = index[u], index[v]
        adj[iu][iv] = adj[iu].get(iv, 0.0) + 1.0
        adj[iv][iu] = adj[iv].get(iu, 0.0) + 1.0
    total_w = float(len(graph.undirected_edges))

    membership = list(range(n))  # original node index -> current community label
    rng = random.Random(seed)
    q_trace: list[float] = []
    prev_q = _level_q(adj, self_loop, total_w, range(n))

    while True:
        comm = _local_moving(adj, self_loop, total_w, rng)
        adj, self_loop, relabel = _aggregate(adj, self_loop, comm)
        for i in range(n):
            membership[i] = relabel[comm[membership[i]]]
        q = _level_q(adj, self_loop, total_w, [relabel[c] for c in dict.fromkeys(comm)])
        if not q >= prev_q - 1e-9:
            raise RuntimeError(f"local moving decreased modularity from {prev_q} to {q}")
        q_trace.append(q)
        if q - prev_q <= Q_IMPROVEMENT_TOL:
            break
        prev_q = q

    final = {nid: membership[index[nid]] for nid in node_ids}
    part = _dense_partition(graph, final, tuple(q_trace))
    if not abs(part.modularity_q - q_trace[-1]) < 1e-9:
        raise RuntimeError(f"final Q {part.modularity_q} is not the last pass's {q_trace[-1]}")
    return part


def _local_moving(
    adj: list[dict[int, float]],
    self_loop: list[float],
    total_w: float,
    rng: random.Random,
) -> list[int]:
    """One Louvain local-moving phase; returns the community label per node.

    Sweeps visit every node in one seeded order until a sweep moves none,
    but a node is re-evaluated only if the total of its own community or of
    a neighbour's community has changed since its last evaluation. A move
    stamps both communities it touches, so a neighbour that moved, or the
    node itself, is always seen. Otherwise the node would rebuild the same
    ``weights`` and stay: weights are edge counts, so the totals are
    integer-valued and staying is an exact no-op. The labels therefore equal
    those of a full re-evaluation on every sweep.
    """
    n = len(adj)
    strength = [sum(adj[i].values()) + 2.0 * self_loop[i] for i in range(n)]
    comm = list(range(n))
    comm_tot = strength[:]
    order = list(range(n))
    rng.shuffle(order)
    two_w = 2.0 * total_w
    clock = 0  # number of moves so far
    changed = [0] * n  # community -> clock of its last total change
    seen = [-1] * n  # node -> clock at its last evaluation

    moved = True
    while moved:
        moved = False
        for i in order:
            last = seen[i]
            old = comm[i]
            if changed[old] <= last:
                for j in adj[i]:
                    if changed[comm[j]] > last:
                        break
                else:
                    continue
            seen[i] = clock
            k_i = strength[i]
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
                clock += 1
                changed[old] = changed[best_comm] = clock
                comm[i] = best_comm
                moved = True
    return comm


def _level_q(
    adj: list[dict[int, float]],
    self_loop: list[float],
    total_w: float,
    order: Iterable[int],
) -> float:
    """Modularity of the partition whose communities are this level's nodes.

    Each node's self-loop is its community's internal weight and its
    strength the community's degree; both are integer-valued, so only the
    order of the outer sum, given by ``order``, can touch the last bit.
    """
    q = 0.0
    two_w = 2.0 * total_w
    for c in order:
        strength = sum(adj[c].values()) + 2.0 * self_loop[c]
        q += self_loop[c] / total_w - (strength / two_w) ** 2
    return q


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

    Each node adopts its most frequent neighbor label (ties to the smallest
    label); sweeps run in seed-permuted order until a fixpoint or
    ``MAX_LABEL_SWEEPS`` sweeps.
    """
    neighbors = graph.undirected_neighbors
    labels = {nid: nid for nid in graph.node_ids}
    order = sorted(graph.node_ids)
    rng = random.Random(seed)

    for _ in range(MAX_LABEL_SWEEPS):
        rng.shuffle(order)
        changed = False
        for nid in order:
            nbrs = neighbors[nid]
            if not nbrs:
                continue
            counts: dict[int, int] = {}
            for m in nbrs:
                lab = labels[m]
                counts[lab] = counts.get(lab, 0) + 1
            top = max(counts.values())
            best = min(lab for lab, c in counts.items() if c == top)
            if best != labels[nid]:
                labels[nid] = best
                changed = True
        if not changed:
            break
    return _dense_partition(graph, labels)


_DETECTORS = {
    MULTILEVEL: detect_multilevel,
    LABEL_PROPAGATION: detect_label_propagation,
}


def detect(graph: CallGraph, algorithm: str, seed: int = 0) -> CommunityPartition:
    try:
        detector = _DETECTORS[algorithm]
    except KeyError:
        raise ValueError(f"unknown community algorithm {algorithm!r}") from None
    return detector(graph, seed)


def compare_algorithms(
    graphs: list[CallGraph], seed: int = 0
) -> tuple[AlgorithmComparison, ...]:
    """Run both detectors over a corpus; mean Q and mean wall-clock runtime."""
    if not graphs:
        raise ValueError("compare_algorithms needs at least one graph")
    rows = []
    for name in ALGORITHMS:
        detector = _DETECTORS[name]
        total_q = 0.0
        total_t = 0.0
        for g in graphs:
            start = time.perf_counter()
            part = detector(g, seed)
            total_t += time.perf_counter() - start
            total_q += part.modularity_q
        rows.append(
            AlgorithmComparison(
                algorithm=name,
                mean_q=total_q / len(graphs),
                mean_runtime_seconds=total_t / len(graphs),
                graph_count=len(graphs),
            )
        )
    return tuple(rows)
