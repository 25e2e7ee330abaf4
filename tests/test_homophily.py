import math
import random
from dataclasses import replace

import numpy as np
import pytest

from homgraph.features import SELECTED_TRIADS, featurize
from homgraph.homophily import (
    FILTERED_BENIGN,
    SUSPICIOUS,
    CovertnessError,
    at_thresholds,
    coupling,
    coupling_from_counts,
    covertness,
    is_covert_candidate,
    malicious_part,
    partition_suspicious,
    proportion_category,
)

from homgraph.model import SensitiveApiCatalog, apply_catalog, induced_subgraph
from homgraph.pipeline import analyze_graph, covertness_report_dict, partition_report

from conftest import make_graph, random_digraph
from oracles import (
    brute_census,
    brute_coupling,
    brute_reverse_reach,
    id_set,
    mask_of,
    outcome_key,
    partition_of,
    sensitive_ids,
    undirected_edges,
    undirected_neighbors,
    with_sparse_ids,
)


def classroom_graph():
    """18 nodes split 12:6 with e_a=9, e_b=4, s=5 (the worked 5/18 example)."""
    edges = [(i, i + 1) for i in range(9)]                      # 9 inside part A
    edges += [(12, 13), (13, 14), (14, 15), (15, 16)]           # 4 inside part B
    edges += [(9, 12), (10, 13), (11, 14), (0, 15), (1, 16)]    # 5 across
    return make_graph(18, edges)


class TestCoupling:
    def test_classroom_counts_exact(self):
        report = coupling_from_counts(12, 6, 9, 4, 5)
        assert report.cross_fraction == pytest.approx(5 / 18, abs=1e-12)
        assert report.chance_expectation == pytest.approx(8 / 18, abs=1e-12)
        assert report.c == pytest.approx(0.625, abs=1e-9)

    def test_classroom_realized_graph(self):
        g = classroom_graph()
        report = coupling(g, mask_of(g, range(12)), mask_of(g, range(12, 18)))
        assert (report.n_a, report.n_b) == (12, 6)
        assert report.e_a + report.e_b == 13
        assert report.s == 5
        assert report.c == pytest.approx(0.625, abs=1e-9)

    def test_no_cross_edges_means_zero(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        assert coupling(g, mask_of(g, {0, 1}), mask_of(g, {2, 3})).c == 0.0

    def test_outside_edges_ignored(self):
        g = make_graph(5, [(0, 1), (2, 3), (0, 4), (2, 4), (4, 4)])
        report = coupling(g, mask_of(g, {0, 1}), mask_of(g, {2, 3}))
        assert (report.e_a, report.e_b, report.s) == (1, 1, 0)

    def test_empty_part_rejected(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="non-empty"):
            coupling(g, mask_of(g, ()), mask_of(g, {1}))
        with pytest.raises(ValueError, match="non-negative"):
            coupling_from_counts(2, 2, 1, -1, 0)

    def test_overlap_rejected(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="disjoint"):
            coupling(g, mask_of(g, {0, 1}), mask_of(g, {1, 2}))

    def test_unknown_nodes_rejected(self):
        # Parts are masks over the graph's positions: a mask that reaches a
        # position the graph lacks, or is no mask, is rejected.
        g = make_graph(3, [(0, 1)])
        beyond = np.zeros(10, bool)
        beyond[9] = True
        with pytest.raises(ValueError, match="masks of 3 booleans"):
            coupling(g, mask_of(g, {0}), beyond)
        with pytest.raises(ValueError, match="masks of 3 booleans"):
            coupling(g, np.array([0, 1, 2]), mask_of(g, {2}))

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(99)
        for case in range(200):
            g = random_digraph(rng, 40, rng.uniform(0.02, 0.25))
            if case % 2:
                g, _ = with_sparse_ids(g, case)
            nodes = sorted(g.ids)
            rng.shuffle(nodes)
            cut = rng.randint(1, 39)
            part_a, part_b = set(nodes[:cut]), set(nodes[cut:])
            report = coupling(g, mask_of(g, part_a), mask_of(g, part_b))
            e_a, e_b, s, expected = brute_coupling(g, part_a, part_b)
            assert (report.e_a, report.e_b, report.s) == (e_a, e_b, s)
            assert report.c == pytest.approx(float(expected), abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(31)
        for _ in range(1000):
            n = rng.randint(2, 25)
            g = random_digraph(rng, n, 0.3)
            nodes = sorted(g.ids)
            rng.shuffle(nodes)
            cut = rng.randint(1, n - 1)
            a, b = mask_of(g, nodes[:cut]), mask_of(g, nodes[cut:])
            assert coupling(g, a, b).c == pytest.approx(coupling(g, b, a).c, abs=1e-12)

    def test_relabel_invariance(self):
        g = make_graph(6, [(0, 1), (1, 2), (3, 4), (2, 3), (0, 5)])
        shifted = make_graph(
            6, [(5 - u, 5 - v) for u, v in [(0, 1), (1, 2), (3, 4), (2, 3), (0, 5)]]
        )
        c1 = coupling(g, mask_of(g, {0, 1, 2}), mask_of(g, {3, 4, 5})).c
        c2 = coupling(shifted, mask_of(shifted, {5, 4, 3}), mask_of(shifted, {2, 1, 0})).c
        assert c1 == pytest.approx(c2, abs=1e-12)

    def test_chance_expectation_bounded(self):
        rng = random.Random(55)
        for _ in range(200):
            n_a, n_b = rng.randint(1, 50), rng.randint(1, 50)
            report = coupling_from_counts(n_a, n_b, rng.randint(0, 40),
                                          rng.randint(0, 40), rng.randint(0, 40))
            assert report.chance_expectation <= 0.5 + 1e-12
            assert report.cross_fraction <= 1.0 + 1e-12
            assert report.c >= 0.0

    def test_count_properties(self):
        # e_a + e_b + s is the union's edge count; swapping the parts swaps
        # e_a and e_b and keeps c; c is 0 exactly when s is 0.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.data())
        def counts(data):
            n = data.draw(st.integers(2, 14))
            arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            g = make_graph(n, data.draw(st.lists(arc, max_size=60)))
            side = ["a", "b", *data.draw(st.lists(st.sampled_from("abx"),
                                                   min_size=n - 2, max_size=n - 2))]
            a = np.array([p == "a" for p in side])
            b = np.array([p == "b" for p in side])
            union_edges = len(undirected_edges(induced_subgraph(g, a | b)))
            ab = coupling(g, a, b)
            ba = coupling(g, b, a)
            assert ab.e_a + ab.e_b + ab.s == union_edges
            assert (ba.e_a, ba.e_b, ba.s) == (ab.e_b, ab.e_a, ab.s)
            assert ba.c == pytest.approx(ab.c, rel=1e-12, abs=0.0)
            assert (ab.c == 0.0) == (ab.s == 0)

        counts()


def seven_community_graph():
    """Fig-7-shaped setup: benign communities 1-4, sensitive 5-7.

    Community 6 is wired heavily into the benign union (coupling above 3);
    communities 5 and 7 only lightly (coupling below 3).
    """
    # benign union: communities 1-4, ten nodes each, a path inside each
    assignment = {}
    edges = []
    nid = 0
    comm_nodes = {}
    for comm in range(4):
        members = list(range(nid, nid + 10))
        comm_nodes[comm] = members
        nid += 10
        for a, b in zip(members, members[1:]):
            edges.append((a, b))
        assignment.update({m: comm for m in members})
    # sensitive communities 4, 5, 6 (paper's 5, 6, 7): triangles
    for comm in range(4, 7):
        members = list(range(nid, nid + 3))
        comm_nodes[comm] = members
        nid += 3
        edges += [(members[0], members[1]), (members[1], members[2]),
                  (members[0], members[2])]
        assignment.update({m: comm for m in members})
    benign = [m for c in range(4) for m in comm_nodes[c]]
    edges.append((comm_nodes[4][0], benign[0]))            # community 5: 1 cross edge
    for i in range(30):                                    # community 6: 30 cross edges
        edges.append((comm_nodes[5][i % 3], benign[i]))
    edges.append((comm_nodes[6][0], benign[5]))            # community 7: 1 cross edge
    edges.append((comm_nodes[4][1], comm_nodes[5][1]))     # sensitive-to-sensitive edge
    sensitive = [comm_nodes[4][0], comm_nodes[5][0], comm_nodes[6][0]]
    g = make_graph(nid, edges, sensitive=sensitive)
    return g, partition_of(g, assignment), comm_nodes


class TestPartitionSuspicious:
    def test_seven_community_scenario(self):
        g, partition, comm_nodes = seven_community_graph()
        outcome = partition_suspicious(g, partition, threshold=3.0)
        assert len(outcome.sensitive_communities) == 3
        by_nodes = {id_set(g, sc.nodes): sc for sc in outcome.sensitive_communities}
        five = by_nodes[frozenset(comm_nodes[4])]
        six = by_nodes[frozenset(comm_nodes[5])]
        seven = by_nodes[frozenset(comm_nodes[6])]
        assert six.coupling.c > 3.0 and six.verdict == FILTERED_BENIGN
        assert five.coupling.c <= 3.0 and five.verdict == SUSPICIOUS
        assert seven.coupling.c <= 3.0 and seven.verdict == SUSPICIOUS
        expected_nodes = set(comm_nodes[4]) | set(comm_nodes[6])
        assert set(outcome.suspicious_subgraph.ids) == expected_nodes
        expected_edges = tuple(
            (u, v) for u, v in g.edges if u in expected_nodes and v in expected_nodes
        )
        assert outcome.suspicious_subgraph.edges == expected_edges

    def test_cross_sensitive_edges_excluded_from_pair_counts(self):
        g, partition, comm_nodes = seven_community_graph()
        outcome = partition_suspicious(g, partition, threshold=3.0)
        five = next(
            sc for sc in outcome.sensitive_communities
            if id_set(g, sc.nodes) == frozenset(comm_nodes[4])
        )
        # community 5 has 3 internal edges, 1 edge to benign, and 1 edge to
        # community 6, which must not appear anywhere in its report
        assert five.coupling.e_a == 3
        assert five.coupling.s == 1

    def test_no_sensitive_nodes(self):
        g = make_graph(6, [(0, 1), (2, 3), (4, 5)])
        partition = partition_of(g, {i: i // 2 for i in range(6)})
        outcome = partition_suspicious(g, partition, threshold=3.0)
        assert outcome.sensitive_communities == ()
        assert outcome.suspicious_subgraph.node_count == 0
        assert id_set(g, outcome.benign_nodes) == frozenset(range(6))

    def test_huge_threshold_keeps_everything_suspicious(self):
        g, partition, comm_nodes = seven_community_graph()
        outcome = partition_suspicious(g, partition, threshold=1e9)
        assert all(sc.verdict == SUSPICIOUS for sc in outcome.sensitive_communities)

    def test_boundary_equality_stays_suspicious(self):
        # parts {0,1} vs benign {2,3}: e_a=1, e_b=1, s=2 -> c = (2/4)/(1/2) = 1
        g = make_graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)], sensitive=[0])
        partition = partition_of(g, {0: 0, 1: 0, 2: 1, 3: 1})
        outcome = partition_suspicious(g, partition, threshold=1.0)
        sc = outcome.sensitive_communities[0]
        assert sc.coupling.c == pytest.approx(1.0, abs=1e-12)
        assert sc.verdict == SUSPICIOUS

    def test_empty_benign_community(self):
        g = make_graph(4, [(0, 1), (2, 3), (1, 2)], sensitive=[0, 2])
        partition = partition_of(g, {0: 0, 1: 0, 2: 1, 3: 1})
        outcome = partition_suspicious(g, partition, threshold=3.0)
        assert len(outcome.benign_nodes) == 0
        assert all(sc.verdict == SUSPICIOUS for sc in outcome.sensitive_communities)
        assert all(sc.coupling.c == 0.0 for sc in outcome.sensitive_communities)
        assert set(outcome.suspicious_subgraph.ids) == {0, 1, 2, 3}

    def test_partition_of_all_nodes(self):
        g, partition, _ = seven_community_graph()
        outcome = partition_suspicious(g, partition, threshold=3.0)
        union = id_set(g, outcome.benign_nodes)
        for sc in outcome.sensitive_communities:
            assert not (union & id_set(g, sc.nodes))
            union |= id_set(g, sc.nodes)
        assert union == set(g.ids)
        dropped = replace(partition, labels=partition.labels[:-1])
        with pytest.raises(ValueError, match="does not cover"):
            partition_suspicious(g, dropped, threshold=3.0)

    def test_threshold_must_be_positive(self):
        g, partition, _ = seven_community_graph()
        with pytest.raises(ValueError):
            partition_suspicious(g, partition, threshold=0.0)
        outcome = partition_suspicious(g, partition, threshold=3.0)
        with pytest.raises(ValueError):
            at_thresholds(g, outcome, [1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_threshold_must_be_finite(self, bad, desk_catalog):
        # A NaN threshold would leave every community suspicious and reach
        # the partition report as the non-JSON token NaN.
        g, partition, _ = seven_community_graph()
        with pytest.raises(ValueError, match="finite"):
            partition_suspicious(g, partition, bad)
        outcome = partition_suspicious(g, partition, threshold=3.0)
        with pytest.raises(ValueError, match="finite"):
            at_thresholds(g, outcome, [1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            analyze_graph(g, desk_catalog, bad)


# Entries of different lengths, some inside others, so one name can hit several.
SCATTER_CATALOG = SensitiveApiCatalog(entries=(
    "api.Net.send", "api.Net.sendAll", "api.Loc.get", "api.Tel.id",
    "cam.open", "api.Loc.getLast", "Sms.send",
))


def scattered_case(seed, benign_communities=8, sparse=False):
    """Graph and partition with 55+ sensitive communities, mostly one or two nodes.

    Benign communities hold ten nodes each. Random directed edges run
    everywhere, including between sensitive communities, except to the
    isolated nodes, which form their own (benign and sensitive) communities.
    With ``sparse``, the same case on sparse shuffled ids.
    """
    rng = random.Random(seed)
    groups = [[False] * 10 for _ in range(benign_communities)]
    groups += [[True] * rng.choice((1, 1, 2)) for _ in range(55)]
    isolated = [[True]] * 3 + ([[False]] * 3 if benign_communities else [])
    names, assignment, live = {}, {}, []
    nid = 0
    for comm, group in enumerate(groups + isolated):
        for is_sensitive in group:
            if is_sensitive:
                entry = rng.choice(SCATTER_CATALOG.entries)
                names[nid] = rng.choice((f"{entry}()", f"lib.{entry}()V", f"x.{entry}"))
            else:
                names[nid] = f"com.app.C{nid}.f{nid}"
            assignment[nid] = comm
            if comm < len(groups):
                live.append(nid)
            nid += 1
    edges = [(u, v) for u in live for v in live if u != v and rng.random() < 0.04]
    graph = apply_catalog(make_graph(nid, edges, names=names), SCATTER_CATALOG)
    if sparse:
        graph, remap = with_sparse_ids(graph, seed)
        assignment = {remap[v]: comm for v, comm in assignment.items()}
    return graph, partition_of(graph, assignment)


# (seed, benign communities, sparse ids), with the ids of the dense cases kept.
SCATTERED = [pytest.param(seed, benign, False, id=f"{seed}-{benign}")
             for seed, benign in ((3, 8), (17, 8), (5, 0))]
SCATTERED += [pytest.param(3, 8, True, id="sparse-3-8"),
              pytest.param(5, 0, True, id="sparse-5-0")]


def expected_features(subgraph, catalog):
    """Presence and ratio blocks rebuilt from the brute-force census."""
    presence = [
        float(any(entry in n.name.strip() for n in subgraph.nodes))
        for entry in catalog.entries
    ]
    totals, _, sensitive = brute_census(subgraph, catalog)
    ratios = []
    for api in range(len(catalog)):
        for name in SELECTED_TRIADS:
            count = sensitive.get((api, name), 0)
            ratios.append(count / totals[name] if totals[name] else 0.0)
    return presence, ratios


class TestOnePassPartition:
    """partition_suspicious couples all communities in one edge scan; check
    every report against the per-pair oracle on scattered sensitive code."""

    @pytest.mark.parametrize("seed,sparse", [
        pytest.param(3, False, id="3"), pytest.param(17, False, id="17"),
        pytest.param(2024, False, id="2024"), pytest.param(17, True, id="sparse-17")])
    def test_every_coupling_matches_oracle(self, seed, sparse):
        graph, partition = scattered_case(seed, sparse=sparse)
        outcome = partition_suspicious(graph, partition, 1.0)
        communities = outcome.sensitive_communities
        assert len(communities) >= 50
        members = [id_set(graph, sc.nodes) for sc in communities]
        flagged = sensitive_ids(graph)
        assert members == [m for m in partition.communities() if m & flagged]
        benign = id_set(graph, outcome.benign_nodes)
        label = {n: k for k, m in enumerate(members) for n in m}
        assert any(
            u in label and v in label and label[u] != label[v] for u, v in graph.edges
        ), "the case must hold edges between sensitive communities"
        neighbors = undirected_neighbors(graph)
        assert any(not neighbors[n] for n in benign)
        assert any(not neighbors[n] for n in label)
        suspicious = set()
        for sc, nodes in zip(communities, members):
            e_a, e_b, s, c = brute_coupling(graph, nodes, benign)
            report = sc.coupling
            assert (report.n_a, report.n_b) == (len(nodes), len(benign))
            assert (report.e_a, report.e_b, report.s) == (e_a, e_b, s)
            assert report.c == pytest.approx(float(c), rel=1e-12, abs=1e-12)
            assert report == coupling(graph, mask_of(graph, nodes), mask_of(graph, benign))
            assert sc.verdict == (FILTERED_BENIGN if report.c > 1.0 else SUSPICIOUS)
            if sc.verdict == SUSPICIOUS:
                suspicious |= nodes
        assert set(outcome.suspicious_subgraph.ids) == suspicious
        assert 0 < len(suspicious) < len(label)
        doc = partition_report(graph, partition, outcome)
        assert [c["nodes"] for c in doc["sensitive_communities"]] == list(map(sorted, members))
        assert doc["suspicious_nodes"] == sorted(suspicious)

    def test_no_benign_part(self):
        for sparse in (False, True):
            graph, partition = scattered_case(5, benign_communities=0, sparse=sparse)
            outcome = partition_suspicious(graph, partition, 3.0)
            assert len(outcome.benign_nodes) == 0
            assert len(outcome.sensitive_communities) >= 50
            for sc in outcome.sensitive_communities:
                assert brute_coupling(graph, id_set(graph, sc.nodes), ())[3] == 0
                assert sc.coupling.c == 0.0 and sc.coupling.n_b == 0
                assert sc.verdict == SUSPICIOUS
            assert outcome.suspicious_subgraph.ids == graph.ids

    @pytest.mark.parametrize("seed,benign,sparse", SCATTERED)
    def test_featurize_matches_brute_census(self, seed, benign, sparse):
        graph, partition = scattered_case(seed, benign, sparse)
        outcome = partition_suspicious(graph, partition, 1.0)
        subgraph = outcome.suspicious_subgraph
        assert sensitive_ids(subgraph)
        presence, ratios = expected_features(subgraph, SCATTER_CATALOG)
        row = featurize(outcome, SCATTER_CATALOG)
        assert row[:len(SCATTER_CATALOG)].tolist() == presence
        assert row[len(SCATTER_CATALOG):].tolist() == pytest.approx(ratios, abs=1e-12)


class TestAtThresholds:
    """at_thresholds judges one coupling pass at other thresholds; each
    result must equal a fresh partition_suspicious run."""

    @pytest.mark.parametrize("seed,benign,sparse", SCATTERED)
    def test_equals_partition_suspicious(self, seed, benign, sparse):
        graph, partition = scattered_case(seed, benign, sparse)
        base = partition_suspicious(graph, partition, 3.0)
        communities = base.sensitive_communities
        assert len(communities) >= 50
        positive = sorted({sc.coupling.c for sc in communities if sc.coupling.c > 0})
        assert bool(positive) == bool(benign)
        exact = positive[len(positive) // 2] if positive else 1.0
        thresholds = [0.25, 1.0, math.nextafter(exact, 0.0), exact, 3.0, 5.0, 1e9]
        outcomes = at_thresholds(graph, base, thresholds)
        for threshold, outcome in zip(thresholds, outcomes):
            fresh = partition_suspicious(graph, partition, threshold)
            assert outcome_key(outcome) == outcome_key(fresh)
        if positive:
            # Coupling strictly above the threshold filters: c itself keeps it.
            k = next(i for i, sc in enumerate(communities) if sc.coupling.c == exact)
            below, at = outcomes[2], outcomes[3]
            assert below.sensitive_communities[k].verdict == FILTERED_BENIGN
            assert at.sensitive_communities[k].verdict == SUSPICIOUS
        # One suspicious subgraph per distinct union, shared with the base.
        for first in (base, *outcomes):
            for second in outcomes:
                same = [sc.verdict for sc in first.sensitive_communities] == [
                    sc.verdict for sc in second.sensitive_communities]
                assert (first.suspicious_subgraph is second.suspicious_subgraph) == same

    def test_no_thresholds(self):
        graph, partition = scattered_case(3)
        assert at_thresholds(graph, partition_suspicious(graph, partition, 3.0), []) == ()


class TestMaliciousPart:
    def test_chain_one_hop(self):
        g = make_graph(3, [(0, 1), (1, 2)], sensitive=[2])
        assert malicious_part(g, hops=1).tolist() == [False, True, True]

    def test_chain_two_hops(self):
        g = make_graph(3, [(0, 1), (1, 2)], sensitive=[2])
        assert malicious_part(g, hops=2).tolist() == [True, True, True]

    def test_star_of_callers(self):
        edges = [(i, 5) for i in range(5)]
        g = make_graph(7, edges + [(6, 0)], sensitive=[5])
        part = malicious_part(g, hops=1)
        assert id_set(g, part) == {0, 1, 2, 3, 4, 5}
        assert part.sum() == 6

    def test_zero_hops_is_sensitive_set(self):
        g = make_graph(3, [(0, 1), (1, 2)], sensitive=[2])
        assert malicious_part(g, hops=0).tolist() == [False, False, True]

    def test_matches_bfs_oracle(self):
        rng = random.Random(4)
        for case in range(50):
            g = random_digraph(rng, rng.randint(4, 40), 0.12, sensitive_count=2)
            if case % 2:
                g, _ = with_sparse_ids(g, case)
            hops = rng.randint(0, 3)
            assert id_set(g, malicious_part(g, hops)) == brute_reverse_reach(
                g, sensitive_ids(g), hops
            )

    def test_negative_hops_rejected(self):
        g = make_graph(2, [(0, 1)], sensitive=[1])
        with pytest.raises(ValueError):
            malicious_part(g, hops=-1)


def motivating_graph():
    """918 nodes, one sensitive callee with 10 direct callers (11 malicious)."""
    edges = [(i, i + 1) for i in range(906)]                 # normal path 0..906
    edges += [(907 + i, 917) for i in range(10)]             # 10 callers -> api
    edges += [(i, 907 + (i % 10)) for i in range(46)]        # 46 cross edges
    return make_graph(918, edges, sensitive=[917])


class TestCovertness:
    def test_motivating_example_proportion(self):
        report = covertness(motivating_graph(), hops=1)
        assert len(report.malicious_nodes) == 11
        assert report.proportion == pytest.approx(11 / 918, abs=1e-12)
        assert abs(report.proportion - 0.012) < 1e-3
        assert report.category == "[1,2%)"
        assert report.covert_candidate

    def test_coupling_field_matches_oracle(self):
        dense = motivating_graph()
        for g in (dense, with_sparse_ids(dense)[0]):
            report = covertness(g, hops=1)
            malicious = brute_reverse_reach(g, sensitive_ids(g), 1)
            assert id_set(g, report.malicious_nodes) == malicious
            assert covertness_report_dict(g, report)["malicious_nodes"] == sorted(malicious)
            _, _, s, expected = brute_coupling(g, set(g.ids) - malicious, malicious)
            assert report.coupling_normal_malicious.s == s
            assert report.coupling_normal_malicious.c == pytest.approx(
                float(expected), abs=1e-12
            )

    def test_band_logic(self):
        assert not is_covert_candidate(0.03, 2.0)    # proportion band fails
        assert not is_covert_candidate(0.015, 0.4)   # coupling below 1
        assert not is_covert_candidate(0.015, 5.5)   # coupling above 5
        assert is_covert_candidate(0.015, 1.0)       # inclusive boundaries
        assert is_covert_candidate(0.0199, 5.0)

    def test_no_sensitive_nodes_rejected(self):
        with pytest.raises(CovertnessError, match="no sensitive"):
            covertness(make_graph(3, [(0, 1)]), hops=1)

    def test_malicious_part_covering_graph_rejected(self):
        g = make_graph(2, [(0, 1)], sensitive=[1])
        with pytest.raises(CovertnessError, match="every node"):
            covertness(g, hops=1)

    def test_categories(self):
        assert proportion_category(0.0) == "[0,1%)"
        assert proportion_category(0.0099) == "[0,1%)"
        assert proportion_category(0.01) == "[1,2%)"
        assert proportion_category(0.025) == "[2,3%)"
        assert proportion_category(0.035) == "[3,4%)"
        assert proportion_category(0.045) == "[4,5%)"
        assert proportion_category(0.05) == ">=5%"
        assert proportion_category(0.9) == ">=5%"
        with pytest.raises(ValueError):
            proportion_category(1.5)
