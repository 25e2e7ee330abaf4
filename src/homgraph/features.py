"""Feature extraction from the suspicious subgraph.

Each graph gives one row of two blocks, concatenated:

* presence: one 0/1 entry per catalog API, set when any subgraph node
  matches that entry;
* triad ratios: for each catalog API and each of six selected directed
  triad types, the fraction of triads of that type containing a node that
  matches the API.

Unordered node triples are classified into the 16 canonical directed triad
types. The six selected types, in fixed feature order, are (edge sets on
nodes A, B, C):

    021D  B->A, B->C          021U  A->B, C->B      021C  A->B, B->C
    111U  A<->B, B->C         030T  A->B, C->B, A->C
    120U  A->B, C->B, A<->C

The census counts rather than classifies (Moody 1998, "Matrix methods for
calculating the triad census"): each node's out-only, in-only and mutual
neighbour counts give every wedge type, and degree sums give the one-edge
types. Only triangles are listed (Chiba & Nishizeki 1985); each one is
classified and corrects the wedge and one-edge counts it was included in.
Edgeless triples are the remainder. The per-API counts walk only the
connected triples of the nodes that match the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .homophily import PartitionOutcome
from .model import CallGraph, SensitiveApiCatalog, matching_entries

TRIAD_NAMES = (
    "003", "012", "102", "021D", "021U", "021C", "111D", "111U",
    "030T", "030C", "201", "120D", "120U", "120C", "210", "300",
)

# Batagelj-Mrvar code table: the 6-bit edge pattern of a node triple
# (v,u):1 (u,v):2 (v,w):4 (w,v):8 (u,w):16 (w,u):32 indexes the canonical
# triad type, 1-based into TRIAD_NAMES.
_TRICODES = (
    1, 2, 2, 3, 2, 4, 6, 8, 2, 6, 5, 7, 3, 8, 7, 11, 2, 6, 4, 8, 5, 9,
    9, 13, 6, 10, 9, 14, 7, 14, 12, 15, 2, 5, 6, 7, 6, 9, 10, 14, 4, 9,
    9, 12, 8, 13, 14, 15, 3, 7, 8, 11, 7, 12, 14, 15, 8, 14, 13, 15,
    11, 15, 15, 16,
)
_CODE_TO_NAME = {code: TRIAD_NAMES[cls - 1] for code, cls in enumerate(_TRICODES)}

SELECTED_TRIADS = ("021D", "021U", "021C", "111U", "030T", "120U")
_SELECTED_INDEX = {name: i for i, name in enumerate(SELECTED_TRIADS)}


@dataclass(frozen=True)
class TriadCensus:
    """Directed triad counts for one graph.

    ``total_counts`` classifies every triple with at least one edge among
    its dyads; the "003" slot therefore stays 0 and edgeless triples are
    reported in ``edgeless_triples``. ``sensitive_counts`` maps
    (catalog index, selected type) to the number of triads of that type
    containing a node matching that catalog entry (each triad once), and
    ``matched_entries`` the catalog indices that some node matches, ascending.
    """

    total_counts: dict[str, int]
    sensitive_counts: dict[tuple[int, str], int]
    edgeless_triples: int
    node_count: int
    matched_entries: tuple[int, ...]


def _catalog_hits(graph: CallGraph, catalog: SensitiveApiCatalog) -> dict[int, tuple[int, ...]]:
    """Catalog entries matched by each node of ``graph`` that matches any,
    keyed by the node's adjacency position."""
    position = graph.adjacency.position
    hits = {position[n.id]: matching_entries(n.name, catalog) for n in graph.nodes}
    return {i: found for i, found in hits.items() if found}


def triad_census(
    subgraph: CallGraph, catalog: SensitiveApiCatalog | None = None
) -> TriadCensus:
    """Classify every node triple of a normalized directed graph, by counting.

    ``catalog`` drives the per-API sensitive counts and the matched entries;
    without it only the type totals are populated. Open and one-edge triads
    follow from degrees (Moody 1998) once the triangles are known, and only
    the triangles are listed.
    """
    api_matches = _catalog_hits(subgraph, catalog) if catalog is not None else {}
    adjacency = subgraph.adjacency
    n = len(adjacency.ids)
    codes = iter(adjacency.dyads.tolist())  # each zip below takes one row's codes
    links = [dict(zip(nbrs, codes)) for nbrs in adjacency.neighbours()]

    # Wedges, open or closed, by the dyads of their two arms: a node with a
    # out-only, b in-only and m mutual neighbours centres a*b 021C wedges,
    # m*b 111D wedges, and so on. An edge (u, v) leaves n - d_u - d_v third
    # nodes adjacent to neither end, plus one per triangle on it. No sum
    # exceeds n * 2E, so int64 is exact.
    a, b, m = (np.bincount(adjacency.rows[adjacency.dyads == code], minlength=n)
               for code in (1, 2, 3))
    d = a + b + m
    totals = dict.fromkeys(TRIAD_NAMES, 0)
    for name, count in (
        ("021D", a @ (a - 1) // 2), ("021U", b @ (b - 1) // 2), ("021C", a @ b),
        ("111D", m @ b), ("111U", m @ a), ("201", m @ (m - 1) // 2),
        ("012", n * (d - m).sum() // 2 - d @ (d - m)), ("102", n * m.sum() // 2 - d @ m),
    ):
        totals[name] = int(count)

    # Each triangle once, from its two smallest positions. An intersection
    # walks the smaller side, so listing costs O(arboricity * edges)
    # (Chiba & Nishizeki 1985).
    closed = [0] * 64
    for u, nu in enumerate(links):
        for v in nu:
            if v > u:
                for w in nu.keys() & links[v].keys():
                    if w > v:
                        closed[_tricode(links, u, v, w)] += 1
    for code, count in enumerate(closed):
        if count:
            totals[_CODE_TO_NAME[code]] += count
            # Dropping one dyad's two bits leaves the wedge at the opposite
            # corner; that dyad's edge also gains the triangle's third node.
            for dyad in (3, 12, 48):
                totals[_CODE_TO_NAME[code & ~dyad]] -= count
                totals["102" if code & dyad == dyad else "012"] += count

    return TriadCensus(
        total_counts=totals,
        sensitive_counts=_sensitive_counts(links, api_matches),
        edgeless_triples=n * (n - 1) * (n - 2) // 6 - sum(totals.values()),
        node_count=n,
        matched_entries=tuple(sorted({i for found in api_matches.values() for i in found})),
    )


def _sensitive_counts(
    links: list[dict[int, int]], api_matches: dict[int, tuple[int, ...]]
) -> dict[tuple[int, str], int]:
    """Selected triads per catalog entry, from the connected triples of the
    matching nodes only; ``api_matches`` is keyed by position.

    A triple holding several nodes that match one entry counts for it once,
    at the first of them walked (ascending position); the first node walked
    for an entry has nothing to test.
    """
    sensitive: dict[tuple[int, str], int] = {}
    walked: dict[int, set[int]] = {}  # entry -> its matching nodes walked so far
    for x in sorted(api_matches):
        apis = api_matches[x]
        arms = list(links[x])
        beyond = {*arms, x}
        for i, y in enumerate(arms):
            # x centres (x, y, z) for each later arm z, and ends it for each
            # z adjacent to y but not to x.
            for z in [*arms[i + 1:], *(links[y].keys() - beyond)]:
                name = _CODE_TO_NAME[_tricode(links, x, y, z)]
                if name in _SELECTED_INDEX:
                    for api in apis:
                        earlier = walked.get(api)
                        if earlier and (y in earlier or z in earlier):
                            continue
                        key = (api, name)
                        sensitive[key] = sensitive.get(key, 0) + 1
        for api in apis:
            walked.setdefault(api, set()).add(x)
    return sensitive


def _tricode(links: list[dict[int, int]], v: int, u: int, w: int) -> int:
    """The 6-bit pattern of positions (v, u, w): the dyad codes of (v, u),
    (v, w) and (u, w) in bits 0-1, 2-3 and 4-5."""
    lv = links[v]
    return lv.get(u, 0) | lv.get(w, 0) << 2 | links[u].get(w, 0) << 4


def ratio_features(census: TriadCensus, catalog: SensitiveApiCatalog) -> np.ndarray:
    """Sensitive-triad ratios, catalog-major over the six selected types.

    ratio(api, t) = sensitive_counts(api, t) / total_counts(t); a cell
    without sensitive triads stays 0.
    """
    width = len(SELECTED_TRIADS)
    vec = np.zeros(len(catalog) * width, dtype=np.float64)
    for (api, name), count in census.sensitive_counts.items():
        vec[api * width + _SELECTED_INDEX[name]] = count / census.total_counts[name]
    return vec


def featurize(outcome: PartitionOutcome, catalog: SensitiveApiCatalog) -> np.ndarray:
    """Feature row of a partition outcome's suspicious subgraph: the presence
    block, one 0/1 entry per catalog entry, then the ratio block, for
    7 * |catalog| values. Each node is matched against the catalog once."""
    census = triad_census(outcome.suspicious_subgraph, catalog)
    presence = np.zeros(len(catalog), dtype=np.float64)
    presence[list(census.matched_entries)] = 1.0
    return np.concatenate([presence, ratio_features(census, catalog)])


def feature_names(catalog: SensitiveApiCatalog) -> list[str]:
    """Column names in vector order: presence[i] then ratio[i][type]."""
    names = [f"presence[{i}]" for i in range(len(catalog))]
    for i in range(len(catalog)):
        names.extend(f"ratio[{i}][{t}]" for t in SELECTED_TRIADS)
    return names
