"""Call-graph data model, wire format, and sensitive-API catalog.

A call graph is a directed graph whose nodes are functions (platform API
calls or user-defined methods) and whose edges are caller -> callee
relations. Graphs are normalized before analysis: self-loops dropped,
duplicate directed edges collapsed, nodes ordered by ascending id.

Every analysis stage reads a graph through one index, ``CallGraph.adjacency``:
a CSR of the simple undirected projection over dense node positions, with
each pair's direction as a dyad code. Communities and coupling read the
projection; malicious callers and the triad census read the codes.

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
from itertools import chain
from operator import attrgetter
from pathlib import Path

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
    """One function in a call graph.

    ``name`` is a canonical method signature of the form
    ``package.Class.method``, possibly carrying an extractor-emitted
    descriptor suffix such as ``()V``.
    """

    id: int
    name: str
    sensitive: bool = False


@dataclass(frozen=True)
class CallGraph:
    """Immutable directed call graph.

    In a normalized graph, as :func:`parse_graph` and the generator build
    it, ``nodes`` are ordered by ascending id and ``edges`` are sorted,
    de-duplicated and free of self-loops. Induced subgraphs may be empty;
    graphs read from the wire format are required to have at least one node.
    """

    app_id: str
    nodes: tuple[FunctionNode, ...]
    edges: tuple[tuple[int, int], ...]
    ground_truth: str | None = None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def node_ids(self) -> frozenset[int]:
        return frozenset(n.id for n in self.nodes)

    @cached_property
    def sensitive_ids(self) -> frozenset[int]:
        return frozenset(n.id for n in self.nodes if n.sensitive)

    @cached_property
    def adjacency(self) -> Adjacency:
        """The index every analysis stage reads, built on first use. Self-loops
        are dropped; repeated or reversed edges merge into one pair."""
        ids = tuple(sorted(n.id for n in self.nodes))
        position = {nid: i for i, nid in enumerate(ids)}
        n = len(ids)
        ends = np.fromiter(map(position.__getitem__, chain.from_iterable(self.edges)),
                           np.int64, 2 * len(self.edges)).reshape(-1, 2)
        src, dst = ends[ends[:, 0] != ends[:, 1]].T
        # Edge i -> j sets bit 1 of entry (i, j) and bit 2 of entry (j, i).
        keys, entry = np.unique(np.concatenate([src * n + dst, dst * n + src]),
                                return_inverse=True)
        dyads = np.zeros(len(keys), np.uint8)
        dyads[entry[:len(src)]] |= 1
        dyads[entry[len(src):]] |= 2
        rows, indices = np.divmod(keys, max(n, 1))
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return Adjacency(ids, position, indptr, indices, rows, dyads)


@dataclass(frozen=True, eq=False)
class Adjacency:
    """The simple undirected projection of a call graph as a CSR.

    Nodes get positions in ascending id order; only positions enter the
    arrays, so ids of any size work. Position ``i``'s neighbours are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending; ``rows`` holds each
    entry's position, so every pair appears once from each end. ``dyads``
    codes entry (i, j): 1 = only i -> j, 2 = only j -> i, 3 = mutual.
    """

    ids: tuple[int, ...]
    position: dict[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    dyads: np.ndarray

    @property
    def edge_count(self) -> int:
        """Edges of the undirected projection."""
        return len(self.indices) // 2

    def neighbours(self) -> list[list[int]]:
        """Each position's neighbour positions, ascending."""
        flat = self.indices.tolist()
        ptr = self.indptr.tolist()
        return [flat[i:j] for i, j in zip(ptr, ptr[1:])]


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
    sensitive exactly when ``catalog.pattern`` finds its name. A node whose
    flag does not change is kept as the same object."""
    search = catalog.pattern.search
    nodes = []
    for n in graph.nodes:
        sensitive = search(n.name) is not None
        nodes.append(n if n.sensitive == sensitive else FunctionNode(n.id, n.name, sensitive))
    return replace(graph, nodes=tuple(nodes))


def induced_subgraph(graph: CallGraph, node_ids) -> CallGraph:
    """Subgraph on ``node_ids`` keeping exactly the edges internal to the set."""
    keep = set(node_ids)
    unknown = keep - graph.node_ids
    if unknown:
        raise ValueError(f"node ids not in graph: {sorted(unknown)[:5]}")
    nodes = tuple(n for n in graph.nodes if n.id in keep)
    edges = tuple((u, v) for u, v in graph.edges if u in keep and v in keep)
    return replace(graph, nodes=nodes, edges=edges)


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
    # Build the normalized graph directly, de-duplicating edges as they are
    # read. JSON decoding gives
    # exact types, so ``type(x) is int`` takes every integer but no boolean.
    nodes: list[FunctionNode] = []
    seen_ids: set[int] = set()
    for i, rn in enumerate(raw_nodes):
        where = f"{source}: nodes[{i}]"
        if type(rn) is not dict:
            raise GraphFormatError(f"{where}: must be an object")
        nid = rn.get("id")
        if type(nid) is not int or nid < 0:
            raise GraphFormatError(f"{where}: 'id' must be a non-negative integer")
        if nid in seen_ids:
            raise GraphFormatError(f"{where}: duplicate node id {nid}")
        seen_ids.add(nid)
        name = rn.get("name")
        if type(name) is not str:
            raise GraphFormatError(f"{where}: 'name' must be a string")
        sensitive = rn.get("sensitive", False)
        if type(sensitive) is not bool:
            raise GraphFormatError(f"{where}: 'sensitive' must be a boolean")
        nodes.append(FunctionNode(id=nid, name=name, sensitive=sensitive))
    nodes.sort(key=attrgetter("id"))

    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphFormatError(f"{source}: 'edges' must be an array")
    edges: set[tuple[int, int]] = set()
    for i, re_ in enumerate(raw_edges):
        if not (
            type(re_) is list and len(re_) == 2
            and type(re_[0]) is int and type(re_[1]) is int
        ):
            raise GraphFormatError(
                f"{source}: edges[{i}]: must be an [caller_id, callee_id] int pair"
            )
        u, v = re_
        if u not in seen_ids or v not in seen_ids:
            raise GraphFormatError(f"{source}: edges[{i}]: dangling endpoint in ({u}, {v})")
        if u != v:
            edges.add((u, v))

    return CallGraph(
        app_id=app_id, nodes=tuple(nodes), edges=tuple(sorted(edges)), ground_truth=label
    )


def serialize_graph(graph: CallGraph) -> str:
    """Deterministic wire-format serialization (stable field and entry order)."""
    doc: dict = {"app_id": graph.app_id}
    if graph.ground_truth is not None:
        doc["label"] = graph.ground_truth
    doc["nodes"] = [
        {"id": n.id, "name": n.name, "sensitive": n.sensitive}
        for n in sorted(graph.nodes, key=lambda n: n.id)
    ]
    doc["edges"] = [list(e) for e in sorted(graph.edges)]
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
