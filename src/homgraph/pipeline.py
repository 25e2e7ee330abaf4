"""End-to-end orchestration shared by the CLI subcommands.

One ``PipelineConfig`` carries every tunable; its defaults are the
best-performing configuration (threshold 3, multilevel detection, 1NN,
10 folds). Corpus runs analyze graphs one after another, in the calling
thread, and emit results in app_id order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import community, homophily
from .classify import LabeledSample
from .features import FeatureVector, featurize
from .homophily import PartitionOutcome
from .model import (
    CallGraph,
    InputError,
    SensitiveApiCatalog,
    load_catalog,
    load_graph,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the analysis pipeline; defaults match the reference setup."""

    catalog_path: str | None = None
    threshold: float = 3.0
    community_algorithm: str = community.MULTILEVEL
    knn_k: int = 1
    folds: int = 10
    seed: int = 0
    coupling_denominator: str = homophily.DENOMINATOR_TOTAL
    hops: int = 1

    def catalog(self) -> SensitiveApiCatalog:
        return load_catalog(self.catalog_path)


@dataclass(frozen=True, eq=False)
class GraphAnalysis:
    """Everything the pipeline derives from one graph."""

    graph: CallGraph
    partition: community.CommunityPartition
    outcome: PartitionOutcome
    features: FeatureVector


def analyze_graph(
    graph: CallGraph, catalog: SensitiveApiCatalog, config: PipelineConfig
) -> GraphAnalysis:
    """Community detection, suspicious partition, and features for one graph."""
    partition = community.detect(graph, config.community_algorithm, config.seed)
    outcome = homophily.partition_suspicious(
        graph, partition, config.threshold, config.coupling_denominator
    )
    return GraphAnalysis(
        graph=graph,
        partition=partition,
        outcome=outcome,
        features=featurize(outcome, catalog),
    )


def analyze_corpus(
    graphs: Sequence[CallGraph],
    catalog: SensitiveApiCatalog,
    config: PipelineConfig,
) -> list[GraphAnalysis]:
    """Analyze graphs in order; results sorted by app_id.

    A graph with invalid input is logged and skipped so one bad graph cannot
    sink a corpus run; any other error is a fault and propagates.
    """
    results: list[GraphAnalysis] = []
    for graph in graphs:
        try:
            results.append(analyze_graph(graph, catalog, config))
        except InputError as exc:
            logger.warning("skipping graph %r: %s", graph.app_id, exc)
    results.sort(key=lambda a: a.graph.app_id)
    return results


def load_corpus(
    paths: Iterable[str | Path], catalog: SensitiveApiCatalog | None = None
) -> list[CallGraph]:
    """Load graph documents from files and/or directories of ``*.json``.

    Unreadable or malformed documents are logged and skipped; loading fails
    only when nothing at all could be read.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(p for p in path.glob("*.json") if p.name != "manifest.json"))
        else:
            files.append(path)
    graphs: list[CallGraph] = []
    for path in files:
        try:
            graphs.append(load_graph(path, catalog))
        except InputError as exc:
            logger.warning("skipping %s: %s", path, exc)
    if not graphs:
        raise InputError(f"no readable graph documents among {len(files)} file(s)")
    graphs.sort(key=lambda g: g.app_id)
    return graphs


def samples_from_analyses(analyses: Sequence[GraphAnalysis]) -> list[LabeledSample]:
    samples = []
    for a in analyses:
        if a.graph.ground_truth is None:
            logger.warning("graph %r has no label; excluded from dataset", a.graph.app_id)
            continue
        samples.append(
            LabeledSample(a.graph.app_id, a.graph.ground_truth, a.features.as_array())
        )
    return samples


def partition_report(analysis: GraphAnalysis) -> dict:
    """JSON-ready partition report for one analyzed graph."""
    outcome = analysis.outcome
    return {
        "app_id": analysis.graph.app_id,
        "nodes": analysis.graph.node_count,
        "edges": analysis.graph.edge_count,
        "community_count": analysis.partition.community_count,
        "modularity_q": analysis.partition.modularity_q,
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
        "suspicious_nodes": sorted(outcome.suspicious_subgraph.node_ids),
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
        "denominator": report.denominator,
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
