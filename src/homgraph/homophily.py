"""Homophily analysis: coupling, suspicious-subgraph assembly, covertness.

Coupling between two disjoint node masks compares the observed fraction of
cross edges against the chance expectation 2*p*q for independently colored
endpoints. Low coupling (at or below the threshold) marks a sensitive
community as suspicious; high coupling means the sensitive code is wired
into the rest of the app like any benign module.

All edge counting happens on the simple undirected projection, restricted
to the union of the two parts; edges touching outside nodes are ignored.
The observed fraction divides the cross edges by every edge of the two
parts, within either part or across (the worked 5/18 example).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .community import CommunityPartition
from .model import CallGraph, InputError, induced_subgraph

FILTERED_BENIGN = "filtered_benign"
SUSPICIOUS = "suspicious"

# Candidate covert malware: malicious part below 2% of nodes and coupling
# with the normal part between 1 and 5 inclusive.
COVERT_PROPORTION_LIMIT = 0.02
COVERT_COUPLING_BAND = (1.0, 5.0)

PROPORTION_CATEGORIES = ("[0,1%)", "[1,2%)", "[2,3%)", "[3,4%)", "[4,5%)", ">=5%")


class CovertnessError(InputError):
    """Graph cannot be covertness-analyzed (no sensitive nodes, or nothing else)."""


@dataclass(frozen=True)
class CouplingReport:
    """Edge and node counts behind one coupling value.

    ``c`` is the quotient of the observed cross-edge fraction and the
    chance expectation ``2*p*q``; 0 when there are no cross edges.
    """

    n_a: int
    n_b: int
    e_a: int
    e_b: int
    s: int
    c: float

    @property
    def total_edges(self) -> int:
        return self.e_a + self.e_b + self.s

    @property
    def cross_fraction(self) -> float:
        den = self.total_edges
        return self.s / den if den else 0.0

    @property
    def chance_expectation(self) -> float:
        n = self.n_a + self.n_b
        if n == 0 or self.n_a == 0 or self.n_b == 0:
            return 0.0
        return 2.0 * (self.n_a / n) * (self.n_b / n)


@dataclass(frozen=True, eq=False)
class SensitiveCommunity:
    """One community containing sensitive API nodes, with its verdict."""

    nodes: np.ndarray  # ascending positions
    coupling: CouplingReport
    verdict: str


@dataclass(frozen=True, eq=False)
class PartitionOutcome:
    """Result of splitting a partitioned graph into benign and suspicious parts."""

    benign_nodes: np.ndarray  # ascending positions
    sensitive_communities: tuple[SensitiveCommunity, ...]
    suspicious_subgraph: CallGraph
    threshold: float


@dataclass(frozen=True, eq=False)
class CovertnessReport:
    """Proportion and coupling profile of a graph's malicious part."""

    malicious_nodes: np.ndarray  # ascending positions
    proportion: float
    coupling_normal_malicious: CouplingReport
    category: str
    covert_candidate: bool


def coupling_from_counts(n_a: int, n_b: int, e_a: int, e_b: int, s: int) -> CouplingReport:
    """Coupling value from raw counts; the arithmetic core of :func:`coupling`."""
    if n_a <= 0 or n_b <= 0:
        raise ValueError("both parts must be non-empty")
    if min(e_a, e_b, s) < 0:
        raise ValueError("edge counts must be non-negative")
    report = CouplingReport(n_a, n_b, e_a, e_b, s, 0.0)
    if s == 0:
        return report
    c = (s / report.total_edges) / report.chance_expectation
    return CouplingReport(n_a, n_b, e_a, e_b, s, c)


def coupling(graph: CallGraph, part_a: np.ndarray, part_b: np.ndarray) -> CouplingReport:
    """Coupling between two disjoint, non-empty boolean masks over the
    positions of ``graph``.

    Counts undirected edges of the subgraph induced on ``part_a | part_b``:
    ``e_a`` within a, ``e_b`` within b, ``s`` across. Edges with an endpoint
    outside both parts are ignored.
    """
    if any(p.dtype != bool or p.shape != (graph.node_count,) for p in (part_a, part_b)):
        raise ValueError(f"coupling parts must be masks of {graph.node_count} booleans")
    if (part_a & part_b).any():
        raise ValueError("coupling parts must be disjoint")
    group = np.full(graph.node_count, -2)
    group[part_b] = -1
    group[part_a] = 0
    (e_a,), e_b, (s,) = _edge_counts(graph, group, 1)
    return coupling_from_counts(int(np.count_nonzero(part_a)), int(np.count_nonzero(part_b)),
                                e_a, e_b, s)


def _edge_counts(
    graph: CallGraph, group: np.ndarray, groups: int
) -> tuple[list[int], int, list[int]]:
    """Coupling counts of groups ``0..groups-1`` against group -1, in one
    edge scan, given each position's group (-2 for none).

    Returns per-group ``e_a`` and ``s`` lists and the shared ``e_b``. Edges
    joining two groups, or touching a node in none of the parts, are ignored.
    """
    upper = graph.rows < graph.indices
    a, b = group[graph.rows[upper]], group[graph.indices[upper]]
    same = a[a == b]
    # The group end of each edge with exactly one end in part -1.
    cross = np.where(a == -1, b, a)[(a == -1) != (b == -1)]
    e_a = np.bincount(same[same >= 0], minlength=groups)
    s = np.bincount(cross[cross >= 0], minlength=groups)
    return e_a.tolist(), int(np.count_nonzero(same == -1)), s.tolist()


def partition_suspicious(
    graph: CallGraph, partition: CommunityPartition, threshold: float
) -> PartitionOutcome:
    """Split communities into a benign union and verdict-tagged sensitive ones.

    Communities without sensitive nodes merge into the benign community.
    Each sensitive community is coupled against the benign community alone
    (edges between two sensitive communities do not enter either pair's
    counts); one edge scan counts every pair. Coupling strictly above
    ``threshold`` filters the community as benign; at or below it stays
    suspicious. With no benign community every sensitive community is
    suspicious and its coupling is recorded as 0. :func:`at_thresholds`
    judges the result again at other thresholds without a new scan.
    """
    labels = partition.labels
    if labels.shape != (graph.node_count,):
        raise ValueError("partition does not cover graph exactly")
    # Ascending ids of the communities with a flagged member. (np.unique would
    # do, but its first call imports numpy.ma, about 1 MB per process.)
    sensitive = np.flatnonzero(np.bincount(labels[graph.sensitive], minlength=len(labels)))
    group_of = np.full(len(labels), -1)  # -1 for the benign community
    group_of[sensitive] = np.arange(len(sensitive))
    group = group_of[labels]
    e_a, e_b, s = _edge_counts(graph, group, len(sensitive))
    # Positions by group, each ascending: the benign part, then every group.
    order = np.argsort(group, kind="stable")
    benign, *members = np.split(order, np.searchsorted(group[order], np.arange(len(sensitive))))

    coupled = []
    for k, nodes in enumerate(members):
        if len(benign):
            report = coupling_from_counts(len(nodes), len(benign), e_a[k], e_b, s[k])
        else:
            report = CouplingReport(len(nodes), 0, 0, 0, 0, 0.0)
        coupled.append((nodes, report))
    return _judge(graph, benign, coupled, threshold, {})


def at_thresholds(
    graph: CallGraph, outcome: PartitionOutcome, thresholds: Iterable[float]
) -> tuple[PartitionOutcome, ...]:
    """``outcome`` judged again at each threshold, without a new edge scan.

    Coupling does not depend on the threshold, so each result equals
    :func:`partition_suspicious` at that threshold on the graph and
    partition that gave ``outcome``. Thresholds that leave the same
    communities suspicious share one suspicious-subgraph object, which is
    ``outcome``'s own when its verdicts are unchanged.
    """
    communities = outcome.sensitive_communities
    subgraphs = {tuple(sc.verdict for sc in communities): outcome.suspicious_subgraph}
    coupled = [(sc.nodes, sc.coupling) for sc in communities]
    return tuple(_judge(graph, outcome.benign_nodes, coupled, t, subgraphs) for t in thresholds)


def _judge(graph: CallGraph, benign: np.ndarray, coupled: list, threshold: float,
           subgraphs: dict) -> PartitionOutcome:
    """The outcome at ``threshold`` of (positions, coupling) pairs. ``subgraphs``
    holds the suspicious subgraph of each verdict tuple built so far."""
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold!r}")
    communities = tuple(
        SensitiveCommunity(members, report,
                           FILTERED_BENIGN if report.c > threshold else SUSPICIOUS)
        for members, report in coupled
    )
    key = tuple(sc.verdict for sc in communities)
    if key not in subgraphs:
        union = np.zeros(graph.node_count, bool)
        for sc in communities:
            if sc.verdict == SUSPICIOUS:
                union[sc.nodes] = True
        subgraphs[key] = induced_subgraph(graph, union)
    return PartitionOutcome(benign, communities, subgraphs[key], threshold)


def malicious_part(graph: CallGraph, hops: int = 1) -> np.ndarray:
    """Mask of the sensitive nodes plus their callers within ``hops``
    reverse-edge steps."""
    if hops < 0:
        raise ValueError("hops must be non-negative")
    part = graph.sensitive.copy()
    called = (graph.dyads & 2) != 0  # entry (i, j) has the code-2 bit: j calls i
    for _ in range(hops):
        grown = part.copy()
        grown[graph.indices[called & part[graph.rows]]] = True
        if (grown == part).all():
            break
        part = grown
    return part


def proportion_category(proportion: float) -> str:
    """Bucket a malicious-node proportion into the six reporting categories."""
    if not 0.0 <= proportion <= 1.0:
        raise ValueError("proportion must be in [0, 1]")
    bucket = int(proportion * 100.0)
    if bucket >= 5:
        return PROPORTION_CATEGORIES[5]
    return PROPORTION_CATEGORIES[bucket]


def is_covert_candidate(proportion: float, c: float) -> bool:
    low, high = COVERT_COUPLING_BAND
    return proportion < COVERT_PROPORTION_LIMIT and low <= c <= high


def covertness(graph: CallGraph, hops: int = 1) -> CovertnessReport:
    """Proportion, coupling, and covert-candidate verdict for one graph.

    The malicious part is the sensitive nodes plus callers within ``hops``
    steps; the normal part is everything else.
    """
    malicious = malicious_part(graph, hops)
    count = int(np.count_nonzero(malicious))
    if not count:
        raise CovertnessError(f"graph {graph.app_id!r} has no sensitive nodes")
    if count == graph.node_count:
        raise CovertnessError(
            f"graph {graph.app_id!r}: malicious part covers every node"
        )
    proportion = count / graph.node_count
    report = coupling(graph, ~malicious, malicious)
    return CovertnessReport(
        malicious_nodes=np.flatnonzero(malicious),
        proportion=proportion,
        coupling_normal_malicious=report,
        category=proportion_category(proportion),
        covert_candidate=is_covert_candidate(proportion, report.c),
    )
