"""End-to-end orchestration shared by the CLI subcommands.

Per-graph analysis takes a coupling threshold and a seed; the defaults are
the best-performing configuration (threshold 3). Communities always come
from multilevel detection. The catalog is loaded by the caller, and
classifier settings (k, folds) go straight to ``classify``. Corpus runs
stream: each graph is parsed, detected, coupled once for every threshold
and featurized once per distinct suspicious union, and only its
``GraphAnalysis`` is kept before the next file is read. Results come out
stably sorted by app_id.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import community, homophily
from .classify import LabeledSample
from .features import featurize
from .model import CallGraph, InputError, SensitiveApiCatalog, load_graph

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class GraphAnalysis:
    """What is kept of one graph: features at the configured threshold, then
    at each sweep threshold, and the partition report unless left out."""

    app_id: str
    label: str | None
    vectors: tuple[np.ndarray, ...]
    report: dict | None


def analyze_graph(
    graph: CallGraph,
    catalog: SensitiveApiCatalog,
    threshold: float = 3.0,
    seed: int = 0,
    sweep: Sequence[float] = (),
    report: bool = True,
) -> GraphAnalysis:
    """Multilevel detection, one coupling pass, and features at ``threshold``
    and then at each ``sweep`` threshold."""
    partition = community.detect_multilevel(graph, seed)
    outcome = homophily.partition_suspicious(graph, partition, threshold)
    outcomes = (outcome, *homophily.at_thresholds(graph, outcome, sweep))
    # Outcomes with the same suspicious union share its subgraph object.
    features: dict[int, np.ndarray] = {}
    for o in outcomes:
        if id(o.suspicious_subgraph) not in features:
            features[id(o.suspicious_subgraph)] = featurize(o, catalog)
    return GraphAnalysis(
        app_id=graph.app_id,
        label=graph.ground_truth,
        vectors=tuple(features[id(o.suspicious_subgraph)] for o in outcomes),
        report=partition_report(graph, partition, outcome) if report else None,
    )


def analyze_corpus(
    graphs: Iterable[CallGraph],
    catalog: SensitiveApiCatalog,
    threshold: float = 3.0,
    seed: int = 0,
    sweep: Sequence[float] = (),
    reports: bool = True,
) -> list[GraphAnalysis]:
    """Analyze graphs one at a time; results stably sorted by app_id.

    Only its ``GraphAnalysis`` outlives a graph, so a lazy source such as
    :func:`read_graphs` holds one graph in memory at a time. A graph with
    invalid input is logged and skipped so one bad graph cannot sink a
    corpus run; any other error is a fault and propagates.
    """
    results: list[GraphAnalysis] = []
    for graph in graphs:
        try:
            results.append(analyze_graph(graph, catalog, threshold, seed, sweep, reports))
        except InputError as exc:
            logger.warning("skipping graph %r: %s", graph.app_id, exc)
        del graph  # not kept alive while the next one loads
    results.sort(key=lambda a: a.app_id)
    return results


def read_graphs(
    paths: Iterable[str | Path], catalog: SensitiveApiCatalog | None = None
) -> Iterator[CallGraph]:
    """Parse graph documents from files and/or directories of ``*.json``
    lazily, in order. Unreadable or malformed documents are logged and
    skipped; reading fails at the end only if nothing could be read.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(p for p in path.glob("*.json") if p.name != "manifest.json"))
        else:
            files.append(path)
    read = 0
    for path in files:
        try:
            graph = load_graph(path, catalog)
        except InputError as exc:
            logger.warning("skipping %s: %s", path, exc)
            continue
        read += 1
        yield graph
        del graph  # not kept alive while the next one loads
    if not read:
        raise InputError(f"no readable graph documents among {len(files)} file(s)")


def load_corpus(
    paths: Iterable[str | Path], catalog: SensitiveApiCatalog | None = None
) -> list[CallGraph]:
    """Every graph :func:`read_graphs` yields, in memory, sorted by app_id."""
    return sorted(read_graphs(paths, catalog), key=lambda g: g.app_id)


def samples_by_threshold(analyses: Sequence[GraphAnalysis]) -> list[list[LabeledSample]]:
    """One dataset per threshold, in ``GraphAnalysis.vectors`` order; an
    unlabeled graph is logged and left out of every one."""
    for a in analyses:
        if a.label is None:
            logger.warning("graph %r has no label; excluded from dataset", a.app_id)
    labeled = [a for a in analyses if a.label is not None]
    slots = len(analyses[0].vectors) if analyses else 1
    return [[LabeledSample(a.app_id, a.label, a.vectors[i]) for a in labeled]
            for i in range(slots)]


def partition_report(graph: CallGraph, partition: community.CommunityPartition,
                     outcome: homophily.PartitionOutcome) -> dict:
    """JSON-ready partition report for one analyzed graph."""
    return {
        "app_id": graph.app_id,
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "community_count": partition.community_count,
        "modularity_q": partition.modularity_q,
        "threshold": outcome.threshold,
        "benign_node_count": len(outcome.benign_nodes),
        "sensitive_communities": [
            {
                "size": len(sc.nodes),
                "nodes": sorted(sc.nodes),
                "coupling": _coupling_dict(sc.coupling),
                "verdict": sc.verdict,
            }
            for sc in outcome.sensitive_communities
        ],
        "suspicious_nodes": list(outcome.suspicious_subgraph.ids),
        "suspicious_edge_count": outcome.suspicious_subgraph.edge_count,
    }


def _coupling_dict(report: homophily.CouplingReport) -> dict:
    return {
        "n_a": report.n_a,
        "n_b": report.n_b,
        "e_a": report.e_a,
        "e_b": report.e_b,
        "s": report.s,
        "c": report.c,
        # Coupling has one denominator; the key stays so report bytes do not change.
        "denominator": "total",
    }


def covertness_report_dict(graph: CallGraph, report: homophily.CovertnessReport) -> dict:
    return {
        "app_id": graph.app_id,
        "node_count": graph.node_count,
        "malicious_node_count": len(report.malicious_nodes),
        "malicious_nodes": sorted(report.malicious_nodes),
        "proportion": report.proportion,
        "coupling": _coupling_dict(report.coupling_normal_malicious),
        "category": report.category,
        "covert_candidate": report.covert_candidate,
    }
