"""Call-graph community and homophily analytics for covert-malware triage."""

from .classify import (
    ConfusionCounts,
    CrossValidationReport,
    LabeledSample,
    MetricsReport,
    cross_validate,
    metrics,
    threshold_sweep,
)
from .community import (
    CommunityPartition,
    detect_label_propagation,
    detect_multilevel,
    modularity,
)
from .features import (
    SELECTED_TRIADS,
    TriadCensus,
    featurize,
    ratio_features,
    triad_census,
)
from .generate import PlantedTruth, SyntheticSpec, generate_corpus
from .homophily import (
    CouplingReport,
    CovertnessReport,
    PartitionOutcome,
    coupling,
    covertness,
    malicious_part,
    partition_suspicious,
)
from .model import (
    CallGraph,
    FunctionNode,
    SensitiveApiCatalog,
    load_catalog,
    load_graph,
    matching_entries,
    parse_graph,
    serialize_graph,
)
from .pipeline import GraphAnalysis, analyze_corpus, analyze_graph

__version__ = "0.1.0"

__all__ = [
    "CallGraph",
    "CommunityPartition",
    "ConfusionCounts",
    "CouplingReport",
    "CovertnessReport",
    "CrossValidationReport",
    "FunctionNode",
    "GraphAnalysis",
    "LabeledSample",
    "MetricsReport",
    "PartitionOutcome",
    "PlantedTruth",
    "SELECTED_TRIADS",
    "SensitiveApiCatalog",
    "SyntheticSpec",
    "TriadCensus",
    "analyze_corpus",
    "analyze_graph",
    "coupling",
    "covertness",
    "cross_validate",
    "detect_label_propagation",
    "detect_multilevel",
    "featurize",
    "generate_corpus",
    "load_catalog",
    "load_graph",
    "malicious_part",
    "matching_entries",
    "metrics",
    "modularity",
    "parse_graph",
    "partition_suspicious",
    "ratio_features",
    "serialize_graph",
    "threshold_sweep",
    "triad_census",
]
