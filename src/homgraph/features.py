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
Edgeless triples are the remainder. The per-API counts use the same wedge
formulas and triangle correction: the wedges of the matching nodes, plus the
wedges each neighbour loses without its arms into them, then the triangles
through any matching node.
"""

from __future__ import annotations

from collections import Counter, defaultdict
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
_WEDGE_TYPES = ("021D", "021U", "021C", "111D", "111U", "201")
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


def triad_census(
    subgraph: CallGraph, catalog: SensitiveApiCatalog | None = None
) -> TriadCensus:
    """Classify every node triple of a normalized directed graph, by counting.

    ``catalog`` drives the per-API sensitive counts and the matched entries;
    without it only the type totals are populated. Open and one-edge triads
    follow from degrees (Moody 1998) once the triangles are known, and only
    the triangles are listed.
    """
    adjacency = subgraph.adjacency
    n = len(adjacency.ids)
    hits = ([matching_entries(name, catalog) for name in subgraph.names]  # per position
            if catalog is not None else [()] * n)
    members: dict[int, set[int]] = {}  # positions matching each entry
    for x, entries in enumerate(hits):
        for api in entries:
            members.setdefault(api, set()).add(x)
    codes = iter(adjacency.dyads.tolist())  # each zip below takes one row's codes
    links = [dict(zip(nbrs, codes)) for nbrs in adjacency.neighbours()]

    # A node's out-only, in-only and mutual neighbour counts give its wedges.
    # An edge (u, v) leaves n - d_u - d_v third nodes adjacent to neither
    # end, plus one per triangle on it. No sum exceeds n * 2E, so int64 is
    # exact.
    a, b, m = (np.bincount(adjacency.rows[adjacency.dyads == code], minlength=n)
               for code in (1, 2, 3))
    d = a + b + m
    totals = dict.fromkeys(TRIAD_NAMES, 0)
    totals.update((name, int(count.sum())) for name, count in zip(_WEDGE_TYPES, _wedges(a, b, m)))
    totals["012"] = int(n * (d - m).sum() // 2 - d @ (d - m))
    totals["102"] = int(n * m.sum() // 2 - d @ m)

    # Each triangle once, from its two smallest positions, and once more for
    # every entry that one of its nodes matches. An intersection walks the
    # smaller side, so listing costs O(arboricity * edges) (Chiba &
    # Nishizeki 1985).
    closed: Counter[int] = Counter()  # triangles by code
    entry_closed: defaultdict[int, Counter[int]] = defaultdict(Counter)
    for u, nu in enumerate(links):
        for v in nu:
            if v > u:
                for w in nu.keys() & links[v].keys():
                    if w > v:
                        code = _tricode(links, u, v, w)
                        closed[code] += 1
                        if hits[u] or hits[v] or hits[w]:
                            for api in {*hits[u], *hits[v], *hits[w]}:
                                entry_closed[api][code] += 1
    _close(totals, closed)
    for code, count in closed.items():
        for dyad in (3, 12, 48):  # each edge of a triangle gains its third node
            totals["102" if code & dyad == dyad else "012"] += count

    sensitive: dict[tuple[int, str], int] = {}
    degrees = a.tolist(), b.tolist(), m.tolist()
    for api, nodes in members.items():
        counts = _entry_wedges(links, degrees, nodes)
        _close(counts, entry_closed.get(api, {}))
        sensitive.update(((api, t), counts[t]) for t in SELECTED_TRIADS if counts[t])
    return TriadCensus(
        total_counts=totals,
        sensitive_counts=sensitive,
        edgeless_triples=n * (n - 1) * (n - 2) // 6 - sum(totals.values()),
        node_count=n,
        matched_entries=tuple(sorted(members)),
    )


def _wedges(a, b, m) -> tuple:
    """Wedges, open or closed, centred at a node with ``a`` out-only, ``b``
    in-only and ``m`` mutual neighbours, by open type in ``_WEDGE_TYPES``
    order; on ints or elementwise on arrays."""
    return a * (a - 1) // 2, b * (b - 1) // 2, a * b, m * b, m * a, m * (m - 1) // 2


def _close(counts: dict[str, int], closed: dict[int, int]) -> None:
    """Count each triangle, given by code, as its closed type instead of the
    three wedges at its corners: dropping one dyad's two bits leaves the
    wedge at the opposite corner."""
    for code, count in closed.items():
        counts[_CODE_TO_NAME[code]] += count
        for dyad in (3, 12, 48):
            counts[_CODE_TO_NAME[code & ~dyad]] -= count


def _entry_wedges(links: list[dict[int, int]], degrees: tuple, nodes: set[int]) -> dict[str, int]:
    """Triad counts with every wedge holding one of ``nodes``, in O(sum of
    their degrees): all wedges centred on them, and at each other neighbour
    y those that lose an arm when y's arms into ``nodes`` go."""
    a, b, m = degrees
    gained = [_wedges(a[x], b[x], m[x]) for x in nodes]
    lost = []
    arms: dict[int, list[int]] = {}  # y -> its arms by dyad code from the far end
    for x in nodes:
        for y, code in links[x].items():
            if y not in nodes:
                arms.setdefault(y, [0, 0, 0, 0])[code] += 1
    for y, (_, ins, outs, mutual) in arms.items():  # x -> y is in-only at y
        gained.append(_wedges(a[y], b[y], m[y]))
        lost.append(_wedges(a[y] - outs, b[y] - ins, m[y] - mutual))
    counts = dict.fromkeys(TRIAD_NAMES, 0)
    for rows, sign in ((gained, 1), (lost, -1)):
        for name, column in zip(_WEDGE_TYPES, zip(*rows)):
            counts[name] += sign * sum(column)
    return counts


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
