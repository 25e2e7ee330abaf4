"""Call-graph data model, wire format, and sensitive-API catalog.

A call graph is a directed graph whose nodes are functions (platform API
calls or user-defined methods) and whose edges are caller -> callee
relations. Graphs are normalized before analysis: self-loops dropped,
duplicate directed edges collapsed, nodes ordered by ascending id.

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
from operator import attrgetter
from pathlib import Path

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

    ``nodes`` are ordered by ascending id and ``edges`` are sorted and
    de-duplicated once the graph has passed through :func:`normalize`.
    Induced subgraphs may be empty; graphs read from the wire format are
    required to have at least one node.
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
    def nodes_by_id(self) -> dict[int, FunctionNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def sensitive_ids(self) -> frozenset[int]:
        return frozenset(n.id for n in self.nodes if n.sensitive)

    @cached_property
    def out_neighbors(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {n.id: set() for n in self.nodes}
        for u, v in self.edges:
            adj[u].add(v)
        return adj

    @cached_property
    def in_neighbors(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {n.id: set() for n in self.nodes}
        for u, v in self.edges:
            adj[v].add(u)
        return adj

    @cached_property
    def undirected_neighbors(self) -> dict[int, set[int]]:
        """Simple undirected projection: each unordered pair appears once."""
        adj: dict[int, set[int]] = {n.id: set() for n in self.nodes}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @cached_property
    def undirected_edges(self) -> tuple[tuple[int, int], ...]:
        pairs = {(u, v) if u < v else (v, u) for u, v in self.edges}
        return tuple(sorted(pairs))


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
        seen: set[str] = set()
        for i, entry in enumerate(self.entries):
            if entry != entry.strip() or not entry:
                raise CatalogError(
                    f"catalog {self.source!r} entry {i} is blank or not trimmed"
                )
            if entry in seen:
                raise CatalogError(
                    f"catalog {self.source!r} has duplicate entry {entry!r}"
                )
            seen.add(entry)

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def pattern(self) -> re.Pattern[str]:
        """One alternation of every entry, escaped: it finds a name that
        contains any entry. Compiled on first use, not when loading."""
        return re.compile("|".join(map(re.escape, self.entries)))


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
    return tuple(i for i, entry in enumerate(catalog.entries) if entry in node_name)


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
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    return parse_catalog(text, source=str(path))


def parse_catalog(text: str, source: str = "<memory>") -> SensitiveApiCatalog:
    entries: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in entries:
            raise CatalogError(f"{source}:{lineno}: duplicate catalog entry {line!r}")
        entries.append(line)
    return SensitiveApiCatalog(entries=tuple(entries), source=source)


def normalize(graph: CallGraph) -> CallGraph:
    """Return the analysis-ready form of ``graph``.

    Drops self-loops, collapses duplicate directed edges, sorts nodes by id
    and edges lexicographically. Idempotent.
    """
    nodes = tuple(sorted(graph.nodes, key=lambda n: n.id))
    ids = {n.id for n in nodes}
    edges = tuple(sorted({(u, v) for u, v in graph.edges if u != v}))
    for u, v in edges:
        if u not in ids or v not in ids:
            raise GraphFormatError(
                f"graph {graph.app_id!r}: edge ({u}, {v}) references unknown node"
            )
    return replace(graph, nodes=nodes, edges=edges)


def apply_catalog(graph: CallGraph, catalog: SensitiveApiCatalog) -> CallGraph:
    """Recompute every node's sensitivity flag from ``catalog``."""
    nodes = tuple(
        replace(n, sensitive=bool(matching_entries(n.name, catalog))) for n in graph.nodes
    )
    return replace(graph, nodes=nodes)


def induced_subgraph(graph: CallGraph, node_ids) -> CallGraph:
    """Subgraph on ``node_ids`` keeping exactly the edges internal to the set."""
    keep = set(node_ids)
    unknown = keep - graph.node_ids
    if unknown:
        raise ValueError(f"node ids not in graph: {sorted(unknown)[:5]}")
    nodes = tuple(n for n in graph.nodes if n.id in keep)
    edges = tuple((u, v) for u, v in graph.edges if u in keep and v in keep)
    return replace(graph, nodes=nodes, edges=edges)


def parse_graph(
    data: str | bytes, catalog: SensitiveApiCatalog | None = None, source: str = "<memory>"
) -> CallGraph:
    """Parse one wire-format document into its normalized graph.

    When ``catalog`` is given, sensitivity flags are recomputed from it;
    otherwise flags pre-set in the document are kept. The result equals
    :func:`normalize` (then :func:`apply_catalog`) of the document as read.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
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
    # Build the normalized graph directly: flag each node from the catalog as
    # it is made and de-duplicate edges as they are read. JSON decoding gives
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
        if catalog is not None:
            sensitive = catalog.pattern.search(name) is not None
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
    path = Path(path)
    try:
        data = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphFormatError(f"cannot read graph {path}: {exc}") from exc
    return parse_graph(data, catalog=catalog, source=str(path))
