"""Call-graph data model, wire format, and sensitive-API catalog.

A call graph is a directed graph whose nodes are functions (platform API
calls or user-defined methods) and whose edges are caller -> callee
relations. Graphs are normalized when they are made: self-loops dropped,
duplicate directed edges collapsed, nodes ordered by ascending id.

A ``CallGraph`` is arrays over node positions (ascending id): ids, names,
flags and the index, built once per graph: a CSR of the simple undirected
projection with each pair's direction as a dyad code. ``edge_count`` counts
directed arcs, ``pair_count`` undirected pairs. Every analysis stage reads
these arrays; ``nodes`` and ``edges`` are read-only views. ``parse_graph``
checks in bulk passes, and only when one fails does a locating loop name
the first bad ``nodes[i]`` or ``edges[i]``.

Wire format: one JSON document per app with fields ``app_id`` (string),
``label`` (optional, "benign" | "malware"), ``nodes`` (array of
``{"id": int, "name": str, "sensitive": optional bool}``), and ``edges``
(array of ``[caller_id, callee_id]`` pairs).

Catalog file: plain text, one API signature per line, ``#`` comments
ignored, order significant (it fixes feature-vector dimension order).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from itertools import chain, compress, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

BENIGN = "benign"
MALWARE = "malware"
LABELS = (BENIGN, MALWARE)

DEFAULT_CATALOG_RESOURCE = "default_catalog.txt"


class InputError(Exception):
    """Invalid user-supplied input. The CLI maps this to exit code 2."""


class GraphFormatError(InputError):
    """Malformed or inconsistent call-graph document."""


class CatalogError(InputError):
    """Malformed sensitive-API catalog."""


@dataclass(frozen=True)
class FunctionNode:
    """One function, as ``CallGraph.nodes`` shows it. ``name`` is a method
    signature ``package.Class.method``, maybe with a descriptor suffix (``()V``)."""

    id: int
    name: str
    sensitive: bool = False


@dataclass(frozen=True, eq=False)
class CallGraph:
    """Immutable, normalized directed call graph, as arrays over positions.

    Position ``i`` holds node ``ids[i]`` (ascending), named ``names[i]`` and
    flagged ``sensitive[i]``. Only positions enter the index and pass between
    analysis stages, so ids of any size work. The index is a CSR of the
    simple undirected projection: position ``i``'s neighbours are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending; ``rows`` holds each
    entry's position, so every pair appears once from each end. ``dyads``
    codes entry (i, j): 1 = only i -> j, 2 = only j -> i, 3 = mutual.
    ``replace`` of names or flags shares the index arrays. Induced subgraphs
    may be empty; graphs read from the wire format have a node.
    """

    app_id: str
    ids: tuple[int, ...]
    names: tuple[str, ...]
    sensitive: np.ndarray  # bool, one per position
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    dyads: np.ndarray = field(repr=False)
    ground_truth: str | None = None

    @classmethod
    def from_edges(cls, app_id: str, ids, names, sensitive, edges,
                   ground_truth: str | None = None) -> CallGraph:
        """The graph whose node ``ids[k]`` (distinct) is named ``names[k]`` and
        flagged ``sensitive[k]``, with an arc per (caller, callee) id pair of
        ``edges``; an endpoint that is not a node raises ``KeyError``."""
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids = tuple(map(ids.__getitem__, order))
        position = dict(zip(ids, range(len(ids))))
        n = len(ids)
        ends = np.fromiter(map(position.__getitem__, chain.from_iterable(edges)),
                           np.int64, 2 * len(edges)).reshape(-1, 2)
        src, dst = ends[ends[:, 0] != ends[:, 1]].T
        # Arc i -> j sets bit 1 of entry (i, j) and bit 2 of entry (j, i).
        keys, entry = np.unique(np.concatenate([src * n + dst, dst * n + src]),
                                return_inverse=True)
        dyads = np.zeros(len(keys), np.uint8)
        dyads[entry[:len(src)]] |= 1
        dyads[entry[len(src):]] |= 2
        rows, indices = np.divmod(keys, max(n, 1))
        return cls(app_id, ids, tuple(map(names.__getitem__, order)),
                   np.fromiter(map(sensitive.__getitem__, order), bool, n),
                   np.searchsorted(rows, np.arange(n + 1)), indices, rows, dyads, ground_truth)

    @property
    def node_count(self) -> int:
        return len(self.names)

    @property
    def edge_count(self) -> int:
        """Directed arcs."""
        return len(self.arcs)

    @property
    def pair_count(self) -> int:
        """Edges of the undirected projection."""
        return len(self.indices) // 2

    @cached_property
    def arcs(self) -> np.ndarray:
        """(caller, callee) position rows, sorted: the entries with bit 1."""
        calls = (self.dyads & 1) != 0
        return np.column_stack([self.rows[calls], self.indices[calls]])

    @cached_property
    def nodes(self) -> tuple[FunctionNode, ...]:
        """Read-only view of the nodes as objects; no analysis stage reads it."""
        return tuple(map(FunctionNode, self.ids, self.names, self.sensitive.tolist()))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Read-only view of the arcs as id pairs; no analysis stage reads it."""
        return tuple((self.ids[u], self.ids[v]) for u, v in self.arcs.tolist())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CallGraph) and (
            (self.app_id, self.ground_truth, self.ids, self.names)
            == (other.app_id, other.ground_truth, other.ids, other.names)
            and np.array_equal(self.sensitive, other.sensitive)
            and np.array_equal(self.arcs, other.arcs))


@dataclass(frozen=True)
class SensitiveApiCatalog:
    """Ordered list of sensitive-API signatures.

    Order is significant: entry i defines feature dimension i.
    """

    entries: tuple[str, ...]
    source: str = field(default="<memory>", compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise CatalogError(f"catalog {self.source!r} has no entries")
        for i, entry in enumerate(self.entries):
            if entry != entry.strip() or not entry:
                raise CatalogError(
                    f"catalog {self.source!r} entry {i} is blank or not trimmed"
                )

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def pattern(self) -> re.Pattern[str]:
        """One alternation of every entry, escaped: it finds a name that
        contains any entry. Compiled on first use, not when loading."""
        return re.compile("|".join(map(re.escape, self.entries)))

    @cached_property
    def entry_finder(self) -> tuple[re.Pattern[str], dict[str, tuple[int, ...]]]:
        """A lookahead alternation, longest entries first, that matches at
        every position where an entry starts and captures the longest such
        entry; and, for each entry, the indices of the entries it starts
        with (itself included). Built on first use, not when loading."""
        index = {entry: i for i, entry in enumerate(self.entries)}
        longest_first = sorted(self.entries, key=len, reverse=True)
        finder = re.compile("(?=(" + "|".join(map(re.escape, longest_first)) + "))")
        prefixes = {
            entry: tuple(index[entry[:k]] for k in range(1, len(entry) + 1) if entry[:k] in index)
            for entry in self.entries
        }
        return finder, prefixes


def matching_entries(node_name: str, catalog: SensitiveApiCatalog) -> tuple[int, ...]:
    """Indices of all catalog entries occurring inside the name.

    Substring matching tolerates descriptor suffixes emitted by call-graph
    extractors (``...getDeviceId()V`` still matches ``...getDeviceId``).
    Entries are trimmed, so a name's outer whitespace never matters. A node
    is sensitive exactly when this is non-empty, that is when
    ``catalog.pattern`` finds the name.
    """
    if catalog.pattern.search(node_name) is None:
        return ()
    # Every entry that starts where another one does is a prefix of the
    # longest of them, so the longest at each position names them all.
    finder, prefixes = catalog.entry_finder
    return tuple(sorted({i for hit in finder.finditer(node_name) for i in prefixes[hit[1]]}))


def load_catalog(path: str | Path | None = None) -> SensitiveApiCatalog:
    """Load a catalog file, or the packaged desk catalog when ``path`` is None."""
    if path is None:
        text = (
            resources.files("homgraph")
            .joinpath("data", DEFAULT_CATALOG_RESOURCE)
            .read_text(encoding="utf-8")
        )
        return parse_catalog(text, source=f"<builtin:{DEFAULT_CATALOG_RESOURCE}>")
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    return parse_catalog(text, source=str(path))


def parse_catalog(text: str, source: str = "<memory>") -> SensitiveApiCatalog:
    entries: dict[str, None] = {}  # a set that keeps file order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in entries:
            raise CatalogError(f"{source}:{lineno}: duplicate catalog entry {line!r}")
        entries[line] = None
    return SensitiveApiCatalog(entries=tuple(entries), source=source)


def apply_catalog(graph: CallGraph, catalog: SensitiveApiCatalog) -> CallGraph:
    """Recompute every node's sensitivity flag from ``catalog``: a node is
    sensitive exactly when ``catalog.pattern`` finds its name. Only the flags
    change; the result shares ``graph``'s index."""
    flags = np.fromiter(map(bool, map(catalog.pattern.search, graph.names)), bool,
                        graph.node_count)
    return replace(graph, sensitive=flags)


def induced_subgraph(graph: CallGraph, mask) -> CallGraph:
    """Subgraph on the positions where the boolean ``mask`` is set, keeping
    exactly the edges internal to them: the parent's index entries between
    kept positions, renumbered."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (graph.node_count,):
        raise ValueError(f"mask must be {graph.node_count} booleans, "
                         f"got {mask.dtype} of shape {mask.shape}")
    kept = mask.tolist()
    ids = tuple(compress(graph.ids, kept))
    renumber = np.cumsum(mask) - 1
    inside = mask[graph.rows] & mask[graph.indices]
    rows = renumber[graph.rows[inside]]
    return CallGraph(graph.app_id, ids, tuple(compress(graph.names, kept)),
                     graph.sensitive[mask], np.searchsorted(rows, np.arange(len(ids) + 1)),
                     renumber[graph.indices[inside]], rows, graph.dyads[inside],
                     graph.ground_truth)


def parse_graph(data: str | bytes, source: str = "<memory>") -> CallGraph:
    """Parse one wire-format document into its normalized graph, keeping the
    document's sensitivity flags."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise GraphFormatError(f"{source}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{source}: document root must be an object")

    app_id = doc.get("app_id")
    if not isinstance(app_id, str) or not app_id:
        raise GraphFormatError(f"{source}: 'app_id' must be a non-empty string")
    label = doc.get("label")
    if label is not None and label not in LABELS:
        raise GraphFormatError(f"{source}: 'label' must be one of {LABELS}, got {label!r}")

    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise GraphFormatError(f"{source}: 'nodes' must be a non-empty array")
    # Bulk checks. JSON decoding gives exact types, so ``type(x) is int``
    # takes every integer but no boolean.
    if set(map(type, raw_nodes)) != {dict}:
        _raise_first_error(raw_nodes, [], source)
    ids = list(map(dict.get, raw_nodes, repeat("id")))
    names = list(map(dict.get, raw_nodes, repeat("name")))
    flags = list(map(dict.get, raw_nodes, repeat("sensitive"), repeat(False)))
    if not (set(map(type, ids)) == {int} and min(ids) >= 0 and len(set(ids)) == len(ids)
            and set(map(type, names)) == {str} and set(map(type, flags)) == {bool}):
        _raise_first_error(raw_nodes, [], source)
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphFormatError(f"{source}: 'edges' must be an array")
    if not (set(map(type, raw_edges)) <= {list} and set(map(len, raw_edges)) <= {2}
            and set(map(type, chain.from_iterable(raw_edges))) <= {int}):
        _raise_first_error(raw_nodes, raw_edges, source)
    try:
        return CallGraph.from_edges(app_id, ids, names, flags, raw_edges, label)
    except KeyError:  # an endpoint that is not a node
        _raise_first_error(raw_nodes, raw_edges, source)


def _raise_first_error(raw_nodes: list, raw_edges: list, source: str) -> NoReturn:
    """Raise the located error of the first bad node, or else of the first
    bad edge, once a bulk check has failed."""
    seen: set[int] = set()
    for i, rn in enumerate(raw_nodes):
        where = f"{source}: nodes[{i}]"
        if type(rn) is not dict:
            raise GraphFormatError(f"{where}: must be an object")
        nid = rn.get("id")
        if type(nid) is not int or nid < 0:
            raise GraphFormatError(f"{where}: 'id' must be a non-negative integer")
        if nid in seen:
            raise GraphFormatError(f"{where}: duplicate node id {nid}")
        seen.add(nid)
        if type(rn.get("name")) is not str:
            raise GraphFormatError(f"{where}: 'name' must be a string")
        if type(rn.get("sensitive", False)) is not bool:
            raise GraphFormatError(f"{where}: 'sensitive' must be a boolean")
    for i, re_ in enumerate(raw_edges):
        if not (type(re_) is list and len(re_) == 2
                and type(re_[0]) is int and type(re_[1]) is int):
            raise GraphFormatError(f"{source}: edges[{i}]: must be an "
                                   "[caller_id, callee_id] int pair")
        if re_[0] not in seen or re_[1] not in seen:
            raise GraphFormatError(f"{source}: edges[{i}]: dangling endpoint in {tuple(re_)}")
    raise AssertionError(f"{source}: a bulk check failed on a valid document")


def serialize_graph(graph: CallGraph) -> str:
    """Deterministic wire-format serialization, in stored order: nodes by
    ascending id, then the sorted arcs."""
    doc: dict = {"app_id": graph.app_id}
    if graph.ground_truth is not None:
        doc["label"] = graph.ground_truth
    ids = graph.ids
    doc["nodes"] = [{"id": nid, "name": name, "sensitive": flag}
                    for nid, name, flag in zip(ids, graph.names, graph.sensitive.tolist())]
    doc["edges"] = [[ids[u], ids[v]] for u, v in graph.arcs.tolist()]
    return json.dumps(doc, separators=(",", ":")) + "\n"


def load_graph(path: str | Path, catalog: SensitiveApiCatalog | None = None) -> CallGraph:
    """Parse a graph file; with ``catalog``, flags then come from
    :func:`apply_catalog`, otherwise the document's flags are kept."""
    path = Path(path)
    try:
        data = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read graph {path}: {exc}") from exc
    graph = parse_graph(data, source=str(path))
    return graph if catalog is None else apply_catalog(graph, catalog)
