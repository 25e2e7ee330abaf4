from collections import Counter

import pytest

from homgraph import generate
from homgraph.community import detect_multilevel
from homgraph.generate import (
    InfeasibleSpecError,
    SyntheticSpec,
    _cross_edges,
    corpus_members,
    generate_corpus,
)
from homgraph.homophily import (
    FILTERED_BENIGN,
    SUSPICIOUS,
    coupling,
    coupling_from_counts,
    partition_suspicious,
)
from homgraph.model import BENIGN, MALWARE, load_catalog, matching_entries, serialize_graph

from oracles import mask_of, sensitive_ids


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


@pytest.fixture(scope="module")
def small_corpus(catalog):
    return generate_corpus(SyntheticSpec(), 5, 5, catalog)


class TestGenerateCorpus:
    def test_empty_counts(self, catalog):
        assert generate_corpus(SyntheticSpec(), 0, 0, catalog) == []

    def test_one_and_one(self, catalog):
        corpus = generate_corpus(SyntheticSpec(), 1, 1, catalog)
        assert len(corpus) == 2
        labels = [t.label for _, t in corpus]
        assert labels == [BENIGN, MALWARE]
        covert_graph, covert_truth = corpus[1]
        share = len(covert_truth.planted_nodes) / covert_graph.node_count
        assert share < 0.02

    def test_seed_determinism(self, catalog):
        a = generate_corpus(SyntheticSpec(seed=9), 2, 2, catalog)
        b = generate_corpus(SyntheticSpec(seed=9), 2, 2, catalog)
        assert [serialize_graph(g) for g, _ in a] == [serialize_graph(g) for g, _ in b]
        assert [t for _, t in a] == [t for _, t in b]

    def test_different_seeds_differ(self, catalog):
        a = generate_corpus(SyntheticSpec(seed=1), 1, 1, catalog)
        b = generate_corpus(SyntheticSpec(seed=2), 1, 1, catalog)
        assert serialize_graph(a[0][0]) != serialize_graph(b[0][0])

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(),
        # p > 0.5 takes the enumerate-and-sample branch for every block
        SyntheticSpec(node_count=120, community_count=12, intra_edge_prob=0.6,
                      inter_edge_prob=0.02, planted_coupling_target=0.8,
                      benign_coupling_target=1.0, seed=4),
    ], ids=["default", "dense"])
    def test_cross_edges_follow_from_spec(self, catalog, spec):
        for graph, truth in generate_corpus(spec, 2, 2, catalog):
            planted = truth.planted_nodes
            ends = Counter((u in planted) + (v in planted) for u, v in graph.edges)
            counted = coupling_from_counts(len(planted), graph.node_count - len(planted),
                                           ends[2], ends[0], ends[1]).c
            assert _cross_edges(spec, truth.label) == (ends[1], counted)
            assert truth.planted_coupling == counted

    def test_corpus_members_checks_every_label_before_generating(self, catalog,
                                                                monkeypatch):
        def generate_graph(*args):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(generate, "generate_graph", generate_graph)
        with pytest.raises(InfeasibleSpecError, match="20360 cross edges"):
            generate_corpus(SyntheticSpec(planted_coupling_target=30), 1, 1, catalog)
        with pytest.raises(InfeasibleSpecError, match="20360 cross edges"):
            corpus_members(SyntheticSpec(planted_coupling_target=30), 1, 1, catalog)
        assert corpus_members(SyntheticSpec(planted_coupling_target=30), 1, 0,
                              catalog) == [(BENIGN, 0)]

    def test_labels_and_ids(self, small_corpus):
        for graph, truth in small_corpus:
            assert graph.app_id == truth.app_id
            assert graph.ground_truth == truth.label
            assert graph.app_id.startswith(truth.label)

    def test_planted_truth_consistency(self, small_corpus, catalog):
        for graph, truth in small_corpus:
            planted_sensitive = truth.planted_nodes & sensitive_ids(graph)
            assert planted_sensitive, "planted community must hold sensitive nodes"
            assert sensitive_ids(graph) <= truth.planted_nodes
            for node in graph.nodes:
                assert node.sensitive == bool(matching_entries(node.name, catalog))

    def test_sensitive_names_follow_api_indices(self, small_corpus, catalog):
        for graph, truth in small_corpus:
            by_id = {n.id: n for n in graph.nodes}
            names = {by_id[n].name for n in sensitive_ids(graph)}
            expected = {catalog.entries[i] for i in truth.api_indices}
            assert {n.rstrip("()") for n in names} == expected

    def test_normalized_output(self, small_corpus):
        for graph, _ in small_corpus:
            assert [n.id for n in graph.nodes] == sorted(graph.ids)
            assert graph.edges == tuple(sorted(set(graph.edges)))
            assert all(u != v for u, v in graph.edges)


class TestCouplingBands:
    def test_covert_band_on_100_graphs(self, catalog):
        corpus = generate_corpus(SyntheticSpec(), 0, 100, catalog)
        for graph, truth in corpus:
            planted = mask_of(graph, truth.planted_nodes)
            report = coupling(graph, planted, ~planted)
            assert 1.0 < report.c <= 3.0
            assert report.c == pytest.approx(truth.planted_coupling, abs=1e-12)

    def test_benign_band(self, catalog):
        corpus = generate_corpus(SyntheticSpec(), 20, 0, catalog)
        for graph, truth in corpus:
            planted = mask_of(graph, truth.planted_nodes)
            report = coupling(graph, planted, ~planted)
            assert report.c > 3.0
            assert report.c == pytest.approx(truth.planted_coupling, abs=1e-12)

    def test_benign_remainder_has_no_sensitive_nodes(self, small_corpus):
        for graph, truth in small_corpus:
            outside = sensitive_ids(graph) - truth.planted_nodes
            assert not outside

    def test_default_pipeline_verdicts_match_planted_truth(self, catalog):
        corpus = generate_corpus(SyntheticSpec(), 8, 8, catalog)
        for graph, truth in corpus:
            partition = detect_multilevel(graph, seed=0)
            outcome = partition_suspicious(graph, partition, threshold=3.0)
            verdicts = {sc.verdict for sc in outcome.sensitive_communities}
            if truth.label == BENIGN:
                assert verdicts == {FILTERED_BENIGN}
                assert outcome.suspicious_subgraph.node_count == 0
            else:
                assert verdicts == {SUSPICIOUS}
                susp = set(outcome.suspicious_subgraph.ids)
                assert len(susp & truth.planted_nodes) >= 10

    def test_covert_presence_features_flag_planted_apis(self, catalog):
        from homgraph.features import featurize

        corpus = generate_corpus(SyntheticSpec(), 0, 4, catalog)
        for graph, truth in corpus:
            partition = detect_multilevel(graph, seed=0)
            outcome = partition_suspicious(graph, partition, threshold=3.0)
            presence = featurize(outcome, catalog)[:len(catalog)]
            for api in truth.api_indices:
                assert presence[api] == 1.0
            others = set(range(len(catalog))) - set(truth.api_indices)
            for api in others:
                assert presence[api] == 0.0


class TestInfeasibleSpecs:
    def test_planted_too_large(self, catalog):
        spec = SyntheticSpec(node_count=10, planted_sensitive_community_size=20)
        with pytest.raises(InfeasibleSpecError):
            generate_corpus(spec, 0, 1, catalog)

    def test_planted_too_small(self, catalog):
        spec = SyntheticSpec(planted_sensitive_community_size=2)
        with pytest.raises(InfeasibleSpecError):
            generate_corpus(spec, 1, 0, catalog)

    def test_negative_counts(self, catalog):
        with pytest.raises(InfeasibleSpecError):
            generate_corpus(SyntheticSpec(), -1, 0, catalog)

    def test_probability_out_of_range(self, catalog):
        with pytest.raises(InfeasibleSpecError):
            generate_corpus(SyntheticSpec(intra_edge_prob=1.5), 1, 0, catalog)

    def test_api_count_needs_gateway(self, catalog):
        spec = SyntheticSpec(
            planted_sensitive_community_size=5, sensitive_api_count=5
        )
        with pytest.raises(InfeasibleSpecError, match="gateway"):
            generate_corpus(spec, 0, 1, catalog)

    def test_unreachable_coupling_target(self, catalog):
        spec = SyntheticSpec(benign_coupling_target=1e9)
        with pytest.raises(InfeasibleSpecError, match="unreachable"):
            generate_corpus(spec, 1, 0, catalog)
