"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the production code paths: triads are classified
from dyad structure instead of the code table, coupling is recomputed with
exact fractions over an explicit edge scan, reachability uses a plain BFS,
and Louvain local moving re-evaluates every node on every sweep. Everything
here is slow and only suitable for test sizes. Catalog hits are plain
substring tests, and Louvain's per-pass Q is recomputed from every edge of
the level.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from homgraph.features import SELECTED_TRIADS
from homgraph.model import CallGraph, SensitiveApiCatalog


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
    succ = graph.out_neighbors
    totals = {name: 0 for name in (
        "003", "012", "102", "021D", "021U", "021C", "111D", "111U",
        "030T", "030C", "201", "120D", "120U", "120C", "210", "300",
    )}
    sensitive: dict[tuple[int, str], int] = {}
    api_matches = {}
    if catalog is not None:
        for node in graph.nodes:
            hits = [i for i, entry in enumerate(catalog.entries) if entry in node.name]
            if hits:
                api_matches[node.id] = hits
    edgeless = 0
    for a, b, c in itertools.combinations(sorted(graph.node_ids), 3):
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


def brute_coupling(graph: CallGraph, part_a, part_b, denominator: str = "total"):
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
    den = e_a + e_b + s if denominator == "total" else e_a + e_b
    if s == 0 or den == 0:
        return e_a, e_b, s, Fraction(0)
    n_a, n_b = len(set_a), len(set_b)
    total_nodes = n_a + n_b
    chance = 2 * Fraction(n_a, total_nodes) * Fraction(n_b, total_nodes)
    return e_a, e_b, s, Fraction(s, den) / chance


def brute_reverse_reach(graph: CallGraph, sources, hops: int) -> set[int]:
    """BFS over reversed edges, capped at ``hops`` steps."""
    preds: dict[int, set[int]] = {n.id: set() for n in graph.nodes}
    for u, v in graph.edges:
        preds[v].add(u)
    reached = set(sources)
    frontier = set(sources)
    for _ in range(hops):
        frontier = {p for node in frontier for p in preds[node]} - reached
        reached |= frontier
    return reached


def full_sweep_local_moving(
    adj: list[dict[int, float]],
    self_loop: list[float],
    total_w: float,
    rng: random.Random,
) -> list[int]:
    """Louvain local moving that re-evaluates every node on every sweep.

    The reference for ``community._local_moving``: same seeded order, same
    gains and tie-breaks, but no skipping of nodes whose inputs are unchanged.
    """
    n = len(adj)
    strength = [sum(adj[i].values()) + 2.0 * self_loop[i] for i in range(n)]
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
                moved = True
    return comm


def weighted_q(
    adj: list[dict[int, float]],
    self_loop: list[float],
    comm: list[int],
    total_w: float,
) -> float:
    """Modularity of a labeling on one weighted Louvain level, by edge scan.

    The reference for the per-pass Q that ``community.detect_multilevel``
    reads off the aggregated level: communities are summed in order of first
    appearance in ``comm``.
    """
    intra: dict[int, float] = {}
    deg: dict[int, float] = {}
    for i, nbrs in enumerate(adj):
        c = comm[i]
        deg[c] = deg.get(c, 0.0) + sum(nbrs.values()) + 2.0 * self_loop[i]
        intra[c] = intra.get(c, 0.0) + self_loop[i]
        for j, w in nbrs.items():
            if j > i and comm[j] == c:
                intra[c] = intra.get(c, 0.0) + w
    q = 0.0
    two_w = 2.0 * total_w
    for c, d in deg.items():
        q += intra.get(c, 0.0) / total_w - (d / two_w) ** 2
    return q
