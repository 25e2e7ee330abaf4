"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the production code paths: triads are classified
from dyad structure instead of the code table, coupling is recomputed with
exact fractions over an explicit edge scan, reachability uses a plain BFS,
and Louvain local moving re-evaluates every node on every sweep until none
moves, the quality reference for production's node queue. Everything
here is slow and only suitable for test sizes. Catalog hits are plain
substring tests, a Louvain level's community totals and Q are recomputed
from every edge of the level, and a second census classifies every
connected triple one at a time with the production code table. Graphs are
normalized in plain passes over nodes and edges rather than while parsing,
and every neighbour set is built here from ``graph.edges``, never read from
production's CSR index arrays, except level 0 of ``dict_level_multilevel``:
that Louvain holds each level as per-node weight dicts, starting from
``graph.neighbours()``, and is the identity reference for production's
unit-arc levels and integer gains. Production passes node positions and
masks between stages; the id conversions tests need to state expectations
in ids live here too, as plain lookups over ``graph.ids``.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import replace
from fractions import Fraction

import numpy as np

from homgraph.community import (
    Q_IMPROVEMENT_TOL,
    CommunityPartition,
    _dense_partition,
    _q,
)
from homgraph.features import _TRICODES, SELECTED_TRIADS, TRIAD_NAMES
from homgraph.model import CallGraph, GraphFormatError, SensitiveApiCatalog

# The production code table, read as one triad name per 6-bit code.
_CODE_TO_NAME = {code: TRIAD_NAMES[cls - 1] for code, cls in enumerate(_TRICODES)}


def normalize(doc: dict) -> CallGraph:
    """The normalized graph of a well-typed wire-format document, in plain
    passes.

    Sorts nodes by id (a missing flag is False), drops self-loops, collapses
    duplicate directed edges and sorts them, then checks every endpoint. The
    reference for the graphs ``parse_graph`` builds with bulk checks.
    """
    nodes = sorted(doc["nodes"], key=lambda n: n["id"])
    ids = [n["id"] for n in nodes]
    known = set(ids)
    edges = sorted({(u, v) for u, v in doc.get("edges", []) if u != v})
    for u, v in edges:
        if u not in known or v not in known:
            raise GraphFormatError(
                f"graph {doc['app_id']!r}: edge ({u}, {v}) references unknown node"
            )
    return CallGraph.from_edges(doc["app_id"], ids, [n["name"] for n in nodes],
                                [n.get("sensitive", False) for n in nodes], edges,
                                doc.get("label"))


def document(graph: CallGraph) -> dict:
    """The wire-format document of ``graph``, read through its object views."""
    return {
        "app_id": graph.app_id,
        "label": graph.ground_truth,
        "nodes": [{"id": n.id, "name": n.name, "sensitive": n.sensitive} for n in graph.nodes],
        "edges": [list(e) for e in graph.edges],
    }


def with_sparse_ids(graph: CallGraph, seed: int = 0) -> tuple[CallGraph, dict[int, int]]:
    """``graph`` with every id replaced by a distinct sparse id, in shuffled
    order and one of them at least 2**63, and the old id -> new id map.
    Names, flags, arcs and label carry over, so positions stop being ids."""
    rng = random.Random(seed)
    new = rng.sample(range(1, 10**9), graph.node_count)
    if new:
        new[rng.randrange(len(new))] = 2**63 + rng.randrange(10**6)
    remap = dict(zip(graph.ids, new))
    doc = document(graph)
    doc["nodes"] = [dict(n, id=remap[n["id"]]) for n in doc["nodes"]]
    doc["edges"] = [[remap[u], remap[v]] for u, v in doc["edges"]]
    return normalize(doc), remap


def mask_of(graph: CallGraph, ids) -> np.ndarray:
    """Boolean position mask of the node ``ids``, every one in ``graph``."""
    wanted = set(ids)
    assert wanted <= set(graph.ids), sorted(wanted - set(graph.ids))[:5]
    return np.array([nid in wanted for nid in graph.ids], bool)


def id_set(graph: CallGraph, nodes) -> frozenset[int]:
    """Ids of a boolean position mask, or of a sequence of positions."""
    nodes = np.asarray(nodes)
    if nodes.dtype == bool:
        nodes = np.flatnonzero(nodes)
    return frozenset(graph.ids[i] for i in nodes.tolist())


def sensitive_ids(graph: CallGraph) -> frozenset[int]:
    """Ids of the flagged nodes, read through ``graph.nodes``."""
    return frozenset(n.id for n in graph.nodes if n.sensitive)


def partition_of(graph: CallGraph, assignment: dict[int, int],
                 modularity_q: float = 0.0) -> CommunityPartition:
    """The partition of an id -> community mapping that covers ``graph``,
    communities renumbered from 0 in the order of their given numbers."""
    rank = {c: k for k, c in enumerate(sorted(set(assignment.values())))}
    labels = np.array([rank[assignment[nid]] for nid in graph.ids], np.int64)
    return CommunityPartition(labels, graph.ids, len(rank), modularity_q)


def outcome_key(outcome) -> tuple:
    """A ``PartitionOutcome`` as plain comparable values."""
    return (outcome.benign_nodes.tolist(), outcome.suspicious_subgraph, outcome.threshold,
            [(sc.nodes.tolist(), sc.coupling, sc.verdict)
             for sc in outcome.sensitive_communities])


def succ_pred(graph: CallGraph) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """Successor and predecessor sets of every node, from ``graph.edges``."""
    succ: dict[int, set[int]] = {n.id: set() for n in graph.nodes}
    pred: dict[int, set[int]] = {n.id: set() for n in graph.nodes}
    for u, v in graph.edges:
        if u != v:
            succ[u].add(v)
            pred[v].add(u)
    return succ, pred


def undirected_neighbors(graph: CallGraph) -> dict[int, set[int]]:
    """Neighbour sets of the simple undirected projection."""
    succ, pred = succ_pred(graph)
    return {nid: succ[nid] | pred[nid] for nid in succ}


def undirected_edges(graph: CallGraph) -> list[tuple[int, int]]:
    """Sorted pairs (u, v), u < v, of the simple undirected projection."""
    return sorted({(min(u, v), max(u, v)) for u, v in graph.edges if u != v})


def tricode(succ: dict[int, set[int]], v: int, u: int, w: int) -> int:
    """The 6-bit edge pattern of a node triple in the code table's layout:
    (v,u):1 (u,v):2 (v,w):4 (w,v):8 (u,w):16 (w,u):32."""
    arcs = ((v, u), (u, v), (v, w), (w, v), (u, w), (w, u))
    return sum(1 << bit for bit, (x, y) in enumerate(arcs) if y in succ[x])


def classify_triple(succ: dict[int, set[int]], a: int, b: int, c: int) -> str:
    """Canonical triad type of one node triple, derived from dyad states."""
    dyads = []
    mutual = []
    asym = []  # directed arcs (u, v) of asymmetric dyads
    for x, y in ((a, b), (a, c), (b, c)):
        xy = y in succ[x]
        yx = x in succ[y]
        if xy and yx:
            mutual.append((x, y))
        elif xy:
            asym.append((x, y))
        elif yx:
            asym.append((y, x))
        dyads.append((xy, yx))
    m, a_count = len(mutual), len(asym)
    n_count = 3 - m - a_count

    if (m, a_count, n_count) == (0, 0, 3):
        return "003"
    if (m, a_count, n_count) == (0, 1, 2):
        return "012"
    if (m, a_count, n_count) == (1, 0, 2):
        return "102"
    if (m, a_count, n_count) == (0, 2, 1):
        (u1, v1), (u2, v2) = asym
        if u1 == u2:
            return "021D"
        if v1 == v2:
            return "021U"
        return "021C"
    if (m, a_count, n_count) == (1, 1, 1):
        pair = set(mutual[0])
        u, v = asym[0]
        return "111D" if v in pair else "111U"
    if (m, a_count, n_count) == (0, 3, 0):
        out_degrees = {}
        for u, v in asym:
            out_degrees[u] = out_degrees.get(u, 0) + 1
        if all(d == 1 for d in out_degrees.values()) and len(out_degrees) == 3:
            return "030C"
        return "030T"
    if (m, a_count, n_count) == (2, 0, 1):
        return "201"
    if (m, a_count, n_count) == (1, 2, 0):
        pair = set(mutual[0])
        (third,) = {a, b, c} - pair
        from_third = sum(1 for u, v in asym if u == third)
        if from_third == 2:
            return "120D"
        if from_third == 0:
            return "120U"
        return "120C"
    if (m, a_count, n_count) == (2, 1, 0):
        return "210"
    return "300"


def brute_census(graph: CallGraph, catalog: SensitiveApiCatalog | None = None):
    """All-triples census: (totals, edgeless count, per-api sensitive counts)."""
    succ, _ = succ_pred(graph)
    totals = {name: 0 for name in TRIAD_NAMES}
    sensitive: dict[tuple[int, str], int] = {}
    api_matches = _substring_hits(graph, catalog)
    edgeless = 0
    for a, b, c in itertools.combinations(sorted(n.id for n in graph.nodes), 3):
        name = classify_triple(succ, a, b, c)
        if name == "003":
            edgeless += 1
            continue
        totals[name] += 1
        if name in SELECTED_TRIADS and api_matches:
            apis = set()
            for member in (a, b, c):
                apis.update(api_matches.get(member, ()))
            for api in apis:
                key = (api, name)
                sensitive[key] = sensitive.get(key, 0) + 1
    return totals, edgeless, sensitive


def walk_census(graph: CallGraph, catalog: SensitiveApiCatalog | None = None):
    """Census by classifying every connected triple once (Batagelj & Mrvar
    2001): (totals, edgeless count, per-api sensitive counts).

    A reference for the production census, which counts instead of
    walking. From each edge (v, u) with v first, it classifies every third
    node adjacent to v or u, once per triple, with the production code
    table, and counts the triples whose only edge is (v, u) in bulk.
    """
    nodes = [n.id for n in graph.nodes]
    n = len(nodes)
    succ, pred = succ_pred(graph)
    position = {nid: i for i, nid in enumerate(nodes)}
    api_matches = _substring_hits(graph, catalog)

    totals = {name: 0 for name in TRIAD_NAMES}
    sensitive: dict[tuple[int, str], int] = {}
    for v in nodes:
        vnbrs = pred[v] | succ[v]
        for u in vnbrs:
            if position[u] <= position[v]:
                continue
            third = (vnbrs | succ[u] | pred[u]) - {u, v}
            if u in succ[v] and v in succ[u]:
                totals["102"] += n - len(third) - 2
            else:
                totals["012"] += n - len(third) - 2
            for w in third:
                if position[u] < position[w] or (
                    position[v] < position[w] < position[u]
                    and w not in vnbrs
                ):
                    name = _CODE_TO_NAME[tricode(succ, v, u, w)]
                    totals[name] += 1
                    if name in SELECTED_TRIADS and api_matches:
                        apis: set[int] = set()
                        for member in (v, u, w):
                            apis.update(api_matches.get(member, ()))
                        for api in apis:
                            key = (api, name)
                            sensitive[key] = sensitive.get(key, 0) + 1
    edgeless = n * (n - 1) * (n - 2) // 6 - sum(totals.values())
    return totals, edgeless, sensitive


def contained_entries(name: str, catalog: SensitiveApiCatalog) -> tuple[int, ...]:
    """Indices of the catalog entries inside ``name``, one ``in`` test each."""
    return tuple(i for i, entry in enumerate(catalog.entries) if entry in name)


def flag_from_catalog(graph: CallGraph, catalog: SensitiveApiCatalog) -> CallGraph:
    """``graph`` with every node flagged exactly when its name contains a
    catalog entry, by plain substring tests."""
    flags = np.array([bool(contained_entries(name, catalog)) for name in graph.names], bool)
    return replace(graph, sensitive=flags)


def _substring_hits(graph: CallGraph, catalog: SensitiveApiCatalog | None) -> dict[int, tuple[int, ...]]:
    """Catalog entries inside each node's name, by plain substring tests."""
    if catalog is None:
        return {}
    hits = {node.id: contained_entries(node.name, catalog) for node in graph.nodes}
    return {nid: found for nid, found in hits.items() if found}


def brute_coupling(graph: CallGraph, part_a, part_b):
    """Exact-fraction coupling by direct scan of the undirected edge set."""
    set_a, set_b = set(part_a), set(part_b)
    e_a = e_b = s = 0
    seen = set()
    for u, v in graph.edges:
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        in_a = (u in set_a) + (v in set_a)
        in_b = (u in set_b) + (v in set_b)
        if in_a == 2:
            e_a += 1
        elif in_b == 2:
            e_b += 1
        elif in_a == 1 and in_b == 1:
            s += 1
    if s == 0:
        return e_a, e_b, s, Fraction(0)
    n_a, n_b = len(set_a), len(set_b)
    total_nodes = n_a + n_b
    chance = 2 * Fraction(n_a, total_nodes) * Fraction(n_b, total_nodes)
    return e_a, e_b, s, Fraction(s, e_a + e_b + s) / chance


def brute_reverse_reach(graph: CallGraph, sources, hops: int) -> set[int]:
    """BFS over reversed edges, capped at ``hops`` steps."""
    _, preds = succ_pred(graph)
    reached = set(sources)
    frontier = set(sources)
    for _ in range(hops):
        frontier = {p for node in frontier for p in preds[node]} - reached
        reached |= frontier
    return reached


def full_sweep_local_moving(
    neighbours: list[list[int]],
    strength: list[float],
    total_w: float,
    rng: random.Random,
) -> list[int]:
    """Louvain local moving that re-evaluates every node on every sweep
    until a sweep moves none (Blondel et al. 2008).

    The quality reference for the queue in ``community._local_moving``: the
    same unit-arc level, the same seeded order, drawn with the same single
    shuffle, and the same move rule (in float arithmetic, ties within
    1e-12), but it ends only at a fixpoint where no node can strictly improve.
    """
    n = len(neighbours)
    comm = list(range(n))
    comm_tot = strength[:]
    order = list(range(n))
    rng.shuffle(order)
    two_w = 2.0 * total_w

    moved = True
    while moved:
        moved = False
        for i in order:
            k_i = strength[i]
            old = comm[i]
            weights: dict[int, float] = {}
            for j in neighbours[i]:
                c = comm[j]
                weights[c] = weights.get(c, 0.0) + 1.0
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
                moved = True
    return comm


def level_totals(
    neighbours: list[list[int]],
    strength: list[float],
    comm: list[int],
) -> tuple[dict[int, float], dict[int, float]]:
    """Internal weight and degree of each community of one unit-arc Louvain
    level, by arc scan, keyed in order of first appearance in ``comm``.
    A node's self-loop weight is half of its strength beyond its arcs."""
    intra: dict[int, float] = {}
    deg: dict[int, float] = {}
    for i, nbrs in enumerate(neighbours):
        c = comm[i]
        deg[c] = deg.get(c, 0.0) + strength[i]
        intra[c] = intra.get(c, 0.0) + (strength[i] - len(nbrs)) / 2
        for j in nbrs:
            if j > i and comm[j] == c:
                intra[c] += 1.0
    return intra, deg


def weighted_q(
    neighbours: list[list[int]],
    strength: list[float],
    comm: list[int],
    total_w: float,
) -> float:
    """Modularity of a labeling on one unit-arc Louvain level, by arc scan.

    Aggregation keeps each community's internal weight and degree, so this
    equals the Q of the partition the labeling induces on the original
    graph, up to the order of the sum (communities here are summed in order
    of first appearance in ``comm``).
    """
    intra, deg = level_totals(neighbours, strength, comm)
    q = 0.0
    two_w = 2.0 * total_w
    for c, d in deg.items():
        q += intra[c] / total_w - (d / two_w) ** 2
    return q


def dict_level_multilevel(graph: CallGraph, seed: int = 0) -> CommunityPartition:
    """Louvain with every level held as one weight dict per node: the
    identity reference for ``community.detect_multilevel``, which holds
    levels as unit-arc CSRs.

    Each node's dict lists its neighbours in the order aggregation first
    met them, with one float weight per pair; the local move and its queue
    are the production routine's, but gains are floats and ties are judged
    within 1e-12. Passes are scored by an edge scan, the production ``_q``,
    and relabelled with ``_dense_partition``.
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
        comm = _dict_local_moving(adj, self_loop, total_w, rng)
        adj, self_loop, relabel = _dict_aggregate(adj, self_loop, comm)
        membership = np.array([relabel[c] for c in comm])[membership]
        q = _q(graph, membership)
        if not q >= prev_q - 1e-9:
            raise RuntimeError(f"local moving decreased modularity from {prev_q} to {q}")
        q_trace.append(q)
        if q - prev_q <= Q_IMPROVEMENT_TOL:
            break
        prev_q = q

    return _dense_partition(graph, membership, tuple(q_trace))


def _dict_local_moving(
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


def _dict_aggregate(
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
