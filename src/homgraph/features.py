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
types. Only triangles are listed, as arrays on the graph's CSR index: with
nodes ranked by (degree, position), each node's pairs of higher-ranked
("forward") neighbours are its wedges, and a lookup in the sorted CSR keys
closes them, so each triangle is found once, from its lowest node (Schank &
Wagner 2005; Latapy 2008). A closing table turns the triangles, tallied by
code, into corrections to the wedge and one-edge counts. Edgeless triples
are the remainder. The per-API counts use the same wedge formulas and table:
the wedges of the matching nodes, plus the wedges each neighbour loses
without its arms into them, then the triangles through any matching node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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

SELECTED_TRIADS = ("021D", "021U", "021C", "111U", "030T", "120U")
_SELECTED_INDEX = {name: i for i, name in enumerate(SELECTED_TRIADS)}
_WEDGE_CHUNK = 1 << 14  # wedges built and closed at once

# Columns of count vectors over TRIAD_NAMES; the wedge types in _wedges' order.
_SELECTED_COLUMNS = [TRIAD_NAMES.index(name) for name in SELECTED_TRIADS]
_WEDGE_COLUMNS = [TRIAD_NAMES.index(name)
                  for name in ("021D", "021U", "021C", "111D", "111U", "201")]

# The closing rule, one row per triangle's dyad code: the triangle counts as
# its closed type instead of the wedges at its corners (dropping a dyad's two
# bits leaves the opposite corner's wedge), and each edge gains its third
# node, in column 2 ("102") if mutual, else 1 ("012").
_CODES, _TYPE = np.arange(64), np.subtract(_TRICODES, 1)
_ONE_HOT = np.eye(len(TRIAD_NAMES), dtype=np.int64)
_CLOSING = _ONE_HOT[_TYPE] + sum(
    _ONE_HOT[np.where(_CODES & dyad == dyad, 2, 1)] - _ONE_HOT[_TYPE[_CODES & ~dyad]]
    for dyad in (3, 12, 48))


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
    n = subgraph.node_count
    hits = ([matching_entries(name, catalog) for name in subgraph.names]  # per position
            if catalog is not None else [()] * n)
    # Position x matches hit_entries[hit_start[x]:][:hit_count[x]].
    hit_count = np.fromiter(map(len, hits), np.int64, n)
    hit_entries = np.fromiter(chain.from_iterable(hits), np.int64, int(hit_count.sum()))
    hit_start = np.cumsum(hit_count) - hit_count
    matched = sorted(set(chain.from_iterable(hits)))
    width = len(catalog) if matched else 0

    # A node's out-only, in-only and mutual neighbour counts give its wedges.
    # An edge (u, v) leaves n - d_u - d_v third nodes adjacent to neither
    # end, plus one per triangle on it. No sum exceeds n * 2E, so int64 is
    # exact.
    a, b, m = (np.bincount(subgraph.rows[subgraph.dyads == code], minlength=n)
               for code in (1, 2, 3))
    d = a + b + m
    totals = np.zeros(len(TRIAD_NAMES), np.int64)
    totals[_WEDGE_COLUMNS] = np.sum(_wedges(a, b, m), axis=1)
    totals[TRIAD_NAMES.index("012")] = n * (d - m).sum() // 2 - d @ (d - m)
    totals[TRIAD_NAMES.index("102")] = n * m.sum() // 2 - d @ m

    # Each triangle once by code, and once more for every entry that one of
    # its nodes matches.
    closed = np.zeros(64, np.int64)
    entry_closed = np.zeros((width, 64), np.int64)
    dyads = subgraph.dyads
    for uv, uw, vw in _triangles(subgraph, d):
        code = dyads[uv] | dyads[uw] << 2 | dyads[vw] << 4
        closed += np.bincount(code, minlength=64)
        if width:  # corners: every triangle's u, then its v, then its w
            corners = np.concatenate([subgraph.rows[uv], subgraph.indices[uv],
                                      subgraph.indices[uw]])
            corner, at = _slices(hit_start[corners], hit_count[corners])
            # Each (triangle, entry) pair once, even when two corners match.
            pairs = np.sort(corner % len(code) * width + hit_entries[at])
            triangle, entry = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], width)
            entry_closed += np.bincount(entry * 64 + code[triangle],
                                        minlength=width * 64).reshape(width, 64)
    totals += closed @ _CLOSING

    # One row per matched entry, read only in the selected columns: not "012" or "102".
    members = np.sort(hit_entries * n + np.repeat(np.arange(n), hit_count))
    counts = entry_closed[matched] @ _CLOSING
    counts[:, _WEDGE_COLUMNS] += _entry_wedges(subgraph, (a, b, m), members, width)[matched]
    counts = counts[:, _SELECTED_COLUMNS]
    row, column = np.nonzero(counts)
    return TriadCensus(
        total_counts=dict(zip(TRIAD_NAMES, totals.tolist())),
        sensitive_counts={(matched[r], SELECTED_TRIADS[c]): count for r, c, count
                          in zip(row.tolist(), column.tolist(), counts[row, column].tolist())},
        edgeless_triples=n * (n - 1) * (n - 2) // 6 - int(totals.sum()),
        matched_entries=tuple(matched),
    )


def _triangles(graph: CallGraph, degree: np.ndarray):
    """Yield each triangle once, as the index entries (u, v), (u, w) and
    (v, w), in arrays per chunk of ``_WEDGE_CHUNK`` wedges.

    Each pair points from its end of lower (degree, position) rank, so u is
    the triangle's lowest node; each pair (v, w) of u's forward neighbours
    is a wedge, closed when v * n + w is among the sorted CSR keys. No node
    has more than sqrt(2E) forward neighbours, so there are O(E^1.5) wedges
    (Schank & Wagner 2005; Latapy 2008).
    """
    n = graph.node_count
    rows, indices = graph.rows, graph.indices
    rank = np.empty(n, np.int64)
    rank[np.argsort(degree, kind="stable")] = np.arange(n)
    forward = np.flatnonzero(rank[rows] < rank[indices])
    # A row's forward entries lie together; each is the second arm of a
    # wedge with every one before it, so second arm w has its wedges up to
    # ends[w] and first arm forward[wedge - ends[w] + w].
    ends = np.cumsum(np.arange(len(forward)) - np.searchsorted(rows[forward], rows[forward]))
    total = int(ends[-1]) if len(ends) else 0
    keys = rows * n + indices
    for start in range(0, total, _WEDGE_CHUNK):
        wedge = np.arange(start, min(start + _WEDGE_CHUNK, total))
        w = np.searchsorted(ends, wedge, side="right")
        uv, uw = forward[wedge - ends[w] + w], forward[w]
        wanted = indices[uv] * n + indices[uw]
        vw = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        found = keys[vw] == wanted
        yield uv[found], uw[found], vw[found]


def _slices(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and index of each element of the slices ``starts[k]`` to
    ``starts[k] + lengths[k]``, laid end to end."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner, starts[owner] + np.arange(len(owner)) - (np.cumsum(lengths) - lengths)[owner]


def _wedges(a, b, m) -> tuple:
    """Wedges, open or closed, centred at a node with ``a`` out-only, ``b``
    in-only and ``m`` mutual neighbours, by open type in ``_WEDGE_COLUMNS``
    order; on ints or elementwise on arrays."""
    return a * (a - 1) // 2, b * (b - 1) // 2, a * b, m * b, m * a, m * (m - 1) // 2


def _entry_wedges(graph: CallGraph, degrees: tuple, members: np.ndarray,
                  width: int) -> np.ndarray:
    """Per entry, by type in ``_WEDGE_COLUMNS`` order, the wedges holding one
    of its nodes: all wedges centred on them, and at each other neighbour y
    those that lose an arm when y's arms into them go. ``members`` holds the
    keys entry * n + position, ascending; their CSR slices are the arms, so
    this costs O(sum of the members' degrees)."""
    n = graph.node_count
    a, b, m = degrees
    entry, x = np.divmod(members, n)
    owner, arm = _slices(graph.indptr[x], np.diff(graph.indptr)[x])
    ends = entry[owner] * n + graph.indices[arm]
    outside = ~np.isin(ends, members)
    far, group = np.unique(ends[outside], return_inverse=True)
    # x -> y is in-only at y: arms by dyad code from the far end.
    _, ins, outs, mutual = np.bincount(group * 4 + graph.dyads[arm[outside]],
                                       minlength=4 * len(far)).reshape(-1, 4).T
    y = far % n
    counts = np.zeros((width, len(_WEDGE_COLUMNS)), np.int64)
    np.add.at(counts, entry, np.column_stack(_wedges(a[x], b[x], m[x])))
    np.add.at(counts, far // n, np.column_stack(_wedges(a[y], b[y], m[y]))
              - np.column_stack(_wedges(a[y] - outs, b[y] - ins, m[y] - mutual)))
    return counts


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
