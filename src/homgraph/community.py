"""Community detection on call graphs and modularity scoring.

Both detectors run on the simple undirected projection of the directed
call graph; edge direction is preserved elsewhere for triad analysis.
Runs are deterministic given (graph, seed): visiting order is a seeded
permutation and every tie breaks toward the smallest candidate id.
Louvain holds every level as the graph holds level 0, a CSR of unit arcs
(a pair of weight w is w arcs in each endpoint's row), so no level holds
more arcs than the graph. Its weights, totals and gains are exact integers,
and it stops after the first pass that moves no node.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import CallGraph

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
    on a graph with edges."""
    ends = labels[_scan(graph)]
    cu, cv = ends[0::2], ends[1::2]
    intra = np.bincount(cu[cu == cv], minlength=len(labels))
    degree = np.bincount(labels[graph.rows], minlength=len(labels))
    return _q_sum(intra, degree, ends, graph.pair_count)


def _scan(graph: CallGraph) -> np.ndarray:
    """The positions at both ends of each undirected edge, edges sorted."""
    upper = graph.rows < graph.indices
    return np.column_stack([graph.rows[upper], graph.indices[upper]]).ravel()


def _q_sum(intra: np.ndarray, degree: np.ndarray, ends: np.ndarray, m: int) -> float:
    """Q from integer intra pairs e_c and degrees d_c indexed by community:
    e_c / m - (d_c / 2m)^2 summed in order of first appearance in ``ends``
    (the community at each ``_scan`` end). Only that order can touch the last
    bit, so ``modularity`` and every Louvain pass agree bit for bit. Terms are
    IEEE basic operations on ints below 2**53, the square a product (``** 2``
    calls the C library's ``pow``, which need not round correctly), and
    ``np.cumsum`` adds them left to right: ``0.0 + t0 + ...``, as no term is
    -0.0. ``np.sum`` (pairwise) and ``math.fsum`` can change the last bit."""
    first = np.full(len(intra), len(ends))
    np.minimum.at(first, ends, np.arange(len(ends)))
    order = np.argsort(first)[:np.count_nonzero(first < len(ends))]
    share = degree[order] / (2.0 * m)
    return float(np.cumsum(intra[order] / m - share * share)[-1])


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
    neighbours requeued) with graph aggregation on unit-arc levels with
    integer self-loops and strengths. It stops after the first pass that
    keeps the level's node count, exactly the first that moves no node (a
    node only joins a community with members, so a first move empties a
    singleton for good); at most n passes run. Each pass is scored from the
    level it builds, whose self-loops and strengths are its communities'
    intra pairs and degrees on ``graph``, summed in ``modularity``'s order,
    so the last ``q_trace`` entry is the partition's Q bit for bit.
    """
    n, m = graph.node_count, graph.pair_count
    if not m:
        return _dense_partition(graph, np.arange(n))

    indptr, indices = graph.indptr, graph.indices
    self_loop = np.zeros(n, np.int64)  # per level node, each self-loop pair once
    strength = np.diff(indptr) + 2 * self_loop

    membership = np.arange(n)  # original node index -> current level node
    scan = _scan(graph)
    rng = random.Random(seed)
    q_trace: list[float] = []
    prev_q = _q_sum(self_loop, strength, scan, m)

    while True:
        comm = _local_moving(_csr_rows(indptr, indices), strength.tolist(), m, rng)
        indptr, indices, self_loop, super_node = _aggregate(indptr, indices, self_loop, comm)
        membership = super_node[membership]
        strength = np.diff(indptr) + 2 * self_loop
        q = _q_sum(self_loop, strength, membership[scan], m)
        if not q >= prev_q - 1e-9:
            raise RuntimeError(f"local moving decreased modularity from {prev_q} to {q}")
        q_trace.append(q)
        if len(self_loop) == len(super_node):
            break
        prev_q = q

    return _dense_partition(graph, membership, tuple(q_trace))


def _csr_rows(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """Each row ``indices[indptr[i]:indptr[i + 1]]`` of a CSR, as a list."""
    flat = indices.tolist()
    ptr = indptr.tolist()
    return [flat[i:j] for i, j in zip(ptr, ptr[1:])]


def _local_moving(neighbours: list[list[int]], strength: list[int], total_w: int,
                  rng: random.Random) -> list[int]:
    """One Louvain local-moving phase on a level's unit-arc rows, integer
    node strengths (arcs plus twice the self-loop) and the graph's pair
    count m (``total_w``); returns each node's label.

    Nodes are evaluated from a FIFO queue that starts with every node in one
    seeded order (Traag, Waltman & van Eck 2019). A node moves only on a
    strict improvement over staying, ties going to the smallest community
    id. After a move, every neighbour not already queued joins the back of
    the queue, whatever its community; the phase ends when the queue is
    empty.

    Moving node i of strength k into community c (strength tot without i,
    w arcs from i) changes Q by (w - tot * k / 2m) / m. The phase compares
    G = 2m * w - tot * k, 2m^2 times that change and an exact integer, so a
    tie is an exact equality. A float rule comparing w - tot * k / 2m
    (distinct values at least 1 / 2m apart) within 1e-12 picks the same
    moves only while its rounding stays below 1e-12.
    """
    n = len(neighbours)
    comm = list(range(n))
    comm_tot = strength[:]
    order = list(range(n))
    rng.shuffle(order)
    two_w = 2 * total_w
    queue = deque(order)
    queued = [True] * n

    while queue:
        i = queue.popleft()
        queued[i] = False
        k_i = strength[i]
        old = comm[i]
        weights: dict[int, int] = {}  # community -> 2m times i's arcs into it
        for j in neighbours[i]:
            c = comm[j]
            weights[c] = weights.get(c, 0) + two_w
        comm_tot[old] -= k_i
        best_comm = old
        best_gain = weights.get(old, 0) - comm_tot[old] * k_i
        for c, w in weights.items():  # old itself never beats staying
            gain = w - comm_tot[c] * k_i
            if gain > best_gain or (gain == best_gain and best_comm != old and c < best_comm):
                best_gain = gain
                best_comm = c
        comm_tot[best_comm] += k_i
        if best_comm != old:
            comm[i] = best_comm
            for j in neighbours[i]:
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)
    return comm


def _aggregate(indptr: np.ndarray, indices: np.ndarray, self_loop: np.ndarray,
               comm: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse communities into super-nodes numbered by ascending label: the
    next unit-arc level (indptr, indices, self-loops) and each node's super-node.
    Rows list partners in the order a scan of the upper arcs first meets them."""
    labels, super_node = np.unique(comm, return_inverse=True)
    size = len(labels)
    rows = np.repeat(np.arange(len(comm)), np.diff(indptr))
    upper = rows < indices
    ci, cj = super_node[rows[upper]], super_node[indices[upper]]
    inner = ci == cj
    new_loop = np.zeros(size, self_loop.dtype)  # a weighted bincount would be float64
    np.add.at(new_loop, super_node, self_loop)
    new_loop += np.bincount(ci[inner], minlength=size)
    ci, cj = ci[~inner], cj[~inner]
    # Both directions of each arc, in scan order; first sightings order the rows.
    keys, first, weight = np.unique(np.column_stack([ci * size + cj, cj * size + ci]).ravel(),
                                    return_index=True, return_counts=True)
    row, col = np.divmod(keys, size)
    order = np.lexsort((first, row))
    weight = weight[order]
    new_indptr = np.searchsorted(np.repeat(row[order], weight), np.arange(size + 1))
    return new_indptr, np.repeat(col[order], weight), new_loop, super_node


def detect_label_propagation(graph: CallGraph, seed: int = 0) -> CommunityPartition:
    """Asynchronous label propagation on the undirected projection.

    No analysis path runs it: it is the baseline that Louvain's modularity
    is tested against, and the benchmark times it. Each node adopts its
    most frequent neighbor label (ties to the smallest label); sweeps run
    in seed-permuted order until a fixpoint or ``MAX_LABEL_SWEEPS`` sweeps.
    """
    neighbours = _csr_rows(graph.indptr, graph.indices)
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
