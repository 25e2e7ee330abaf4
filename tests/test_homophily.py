import math
import random

import pytest

from homgraph.community import CommunityPartition
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
from homgraph.pipeline import analyze_graph

from conftest import make_graph, random_digraph
from oracles import (
    brute_census,
    brute_coupling,
    brute_reverse_reach,
    undirected_edges,
    undirected_neighbors,
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
        report = coupling(g, set(range(12)), set(range(12, 18)))
        assert (report.n_a, report.n_b) == (12, 6)
        assert report.e_a + report.e_b == 13
        assert report.s == 5
        assert report.c == pytest.approx(0.625, abs=1e-9)

    def test_no_cross_edges_means_zero(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        assert coupling(g, {0, 1}, {2, 3}).c == 0.0

    def test_outside_edges_ignored(self):
        g = make_graph(5, [(0, 1), (2, 3), (0, 4), (2, 4), (4, 4)])
        report = coupling(g, {0, 1}, {2, 3})
        assert (report.e_a, report.e_b, report.s) == (1, 1, 0)

    def test_empty_part_rejected(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="non-empty"):
            coupling(g, set(), {1})
        with pytest.raises(ValueError, match="non-negative"):
            coupling_from_counts(2, 2, 1, -1, 0)

    def test_overlap_rejected(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="disjoint"):
            coupling(g, {0, 1}, {1, 2})

    def test_unknown_nodes_rejected(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="not in graph"):
            coupling(g, {0}, {9})

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(200):
            g = random_digraph(rng, 40, rng.uniform(0.02, 0.25))
            nodes = sorted(g.node_ids)
            rng.shuffle(nodes)
            cut = rng.randint(1, 39)
            part_a, part_b = set(nodes[:cut]), set(nodes[cut:])
            report = coupling(g, part_a, part_b)
            e_a, e_b, s, expected = brute_coupling(g, part_a, part_b)
            assert (report.e_a, report.e_b, report.s) == (e_a, e_b, s)
            assert report.c == pytest.approx(float(expected), abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(31)
        for _ in range(1000):
            n = rng.randint(2, 25)
            g = random_digraph(rng, n, 0.3)
            nodes = sorted(g.node_ids)
            rng.shuffle(nodes)
            cut = rng.randint(1, n - 1)
            a, b = set(nodes[:cut]), set(nodes[cut:])
            assert coupling(g, a, b).c == pytest.approx(coupling(g, b, a).c, abs=1e-12)

    def test_relabel_invariance(self):
        g = make_graph(6, [(0, 1), (1, 2), (3, 4), (2, 3), (0, 5)])
        shifted = make_graph(
            6, [(5 - u, 5 - v) for u, v in [(0, 1), (1, 2), (3, 4), (2, 3), (0, 5)]]
        )
        c1 = coupling(g, {0, 1, 2}, {3, 4, 5}).c
        c2 = coupling(shifted, {5, 4, 3}, {2, 1, 0}).c
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
            a = {i for i, p in enumerate(side) if p == "a"}
            b = {i for i, p in enumerate(side) if p == "b"}
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
    partition = CommunityPartition(assignment=assignment, community_count=7,
                                   modularity_q=0.0)
    return g, partition, comm_nodes


class TestPartitionSuspicious:
    def test_seven_community_scenario(self):
        g, partition, comm_nodes = seven_community_graph()
        outcome = partition_suspicious(g, partition, threshold=3.0)
        assert len(outcome.sensitive_communities) == 3
        by_nodes = {sc.nodes: sc for sc in outcome.sensitive_communities}
        five = by_nodes[frozenset(comm_nodes[4])]
        six = by_nodes[frozenset(comm_nodes[5])]
        seven = by_nodes[frozenset(comm_nodes[6])]
        assert six.coupling.c > 3.0 and six.verdict == FILTERED_BENIGN
        assert five.coupling.c <= 3.0 and five.verdict == SUSPICIOUS
        assert seven.coupling.c <= 3.0 and seven.verdict == SUSPICIOUS
        expected_nodes = set(comm_nodes[4]) | set(comm_nodes[6])
        assert set(outcome.suspicious_subgraph.node_ids) == expected_nodes
        expected_edges = tuple(
            (u, v) for u, v in g.edges if u in expected_nodes and v in expected_nodes
        )
        assert outcome.suspicious_subgraph.edges == expected_edges

    def test_cross_sensitive_edges_excluded_from_pair_counts(self):
        g, partition, comm_nodes = seven_community_graph()
        outcome = partition_suspicious(g, partition, threshold=3.0)
        five = next(
            sc for sc in outcome.sensitive_communities
            if sc.nodes == frozenset(comm_nodes[4])
        )
        # community 5 has 3 internal edges, 1 edge to benign, and 1 edge to
        # community 6, which must not appear anywhere in its report
        assert five.coupling.e_a == 3
        assert five.coupling.s == 1

    def test_no_sensitive_nodes(self):
        g = make_graph(6, [(0, 1), (2, 3), (4, 5)])
        partition = CommunityPartition({i: i // 2 for i in range(6)}, 3, 0.0)
        outcome = partition_suspicious(g, partition, threshold=3.0)
        assert outcome.sensitive_communities == ()
        assert outcome.suspicious_subgraph.node_count == 0
        assert outcome.benign_nodes == frozenset(range(6))

    def test_huge_threshold_keeps_everything_suspicious(self):
        g, partition, comm_nodes = seven_community_graph()
        outcome = partition_suspicious(g, partition, threshold=1e9)
        assert all(sc.verdict == SUSPICIOUS for sc in outcome.sensitive_communities)

    def test_boundary_equality_stays_suspicious(self):
        # parts {0,1} vs benign {2,3}: e_a=1, e_b=1, s=2 -> c = (2/4)/(1/2) = 1
        g = make_graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)], sensitive=[0])
        partition = CommunityPartition({0: 0, 1: 0, 2: 1, 3: 1}, 2, 0.0)
        outcome = partition_suspicious(g, partition, threshold=1.0)
        sc = outcome.sensitive_communities[0]
        assert sc.coupling.c == pytest.approx(1.0, abs=1e-12)
        assert sc.verdict == SUSPICIOUS

    def test_empty_benign_community(self):
        g = make_graph(4, [(0, 1), (2, 3), (1, 2)], sensitive=[0, 2])
        partition = CommunityPartition({0: 0, 1: 0, 2: 1, 3: 1}, 2, 0.0)
        outcome = partition_suspicious(g, partition, threshold=3.0)
        assert outcome.benign_nodes == frozenset()
        assert all(sc.verdict == SUSPICIOUS for sc in outcome.sensitive_communities)
        assert all(sc.coupling.c == 0.0 for sc in outcome.sensitive_communities)
        assert set(outcome.suspicious_subgraph.node_ids) == {0, 1, 2, 3}

    def test_partition_of_all_nodes(self):
        g, partition, _ = seven_community_graph()
        outcome = partition_suspicious(g, partition, threshold=3.0)
        union = set(outcome.benign_nodes)
        for sc in outcome.sensitive_communities:
            assert not (union & sc.nodes)
            union |= sc.nodes
        assert union == set(g.node_ids)
        dropped = dict(partition.assignment)
        dropped.popitem()
        with pytest.raises(ValueError, match="does not cover"):
            partition_suspicious(g, CommunityPartition(dropped, partition.community_count,
                                                       0.0), threshold=3.0)

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


def scattered_case(seed, benign_communities=8):
    """Graph and partition with 55+ sensitive communities, mostly one or two nodes.

    Benign communities hold ten nodes each. Random directed edges run
    everywhere, including between sensitive communities, except to the
    isolated nodes, which form their own (benign and sensitive) communities.
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
    return graph, CommunityPartition(assignment, len(groups) + len(isolated), 0.0)


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

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_every_coupling_matches_oracle(self, seed):
        graph, partition = scattered_case(seed)
        outcome = partition_suspicious(graph, partition, 1.0)
        communities = outcome.sensitive_communities
        assert len(communities) >= 50
        label = {n: k for k, sc in enumerate(communities) for n in sc.nodes}
        assert any(
            u in label and v in label and label[u] != label[v] for u, v in graph.edges
        ), "the case must hold edges between sensitive communities"
        neighbors = undirected_neighbors(graph)
        assert any(not neighbors[n] for n in outcome.benign_nodes)
        assert any(not neighbors[n] for n in label)
        suspicious = set()
        for sc in communities:
            e_a, e_b, s, c = brute_coupling(graph, sc.nodes, outcome.benign_nodes)
            report = sc.coupling
            assert (report.n_a, report.n_b) == (len(sc.nodes), len(outcome.benign_nodes))
            assert (report.e_a, report.e_b, report.s) == (e_a, e_b, s)
            assert report.c == pytest.approx(float(c), rel=1e-12, abs=1e-12)
            assert report == coupling(graph, sc.nodes, outcome.benign_nodes)
            assert sc.verdict == (FILTERED_BENIGN if report.c > 1.0 else SUSPICIOUS)
            if sc.verdict == SUSPICIOUS:
                suspicious |= sc.nodes
        assert outcome.suspicious_subgraph.node_ids == suspicious
        assert 0 < len(suspicious) < len(label)

    def test_no_benign_part(self):
        graph, partition = scattered_case(5, benign_communities=0)
        outcome = partition_suspicious(graph, partition, 3.0)
        assert not outcome.benign_nodes
        assert len(outcome.sensitive_communities) >= 50
        for sc in outcome.sensitive_communities:
            assert brute_coupling(graph, sc.nodes, ())[3] == 0
            assert sc.coupling.c == 0.0 and sc.coupling.n_b == 0
            assert sc.verdict == SUSPICIOUS
        assert outcome.suspicious_subgraph.node_ids == graph.node_ids

    @pytest.mark.parametrize("seed,benign", [(3, 8), (17, 8), (5, 0)])
    def test_featurize_matches_brute_census(self, seed, benign):
        graph, partition = scattered_case(seed, benign_communities=benign)
        outcome = partition_suspicious(graph, partition, 1.0)
        subgraph = outcome.suspicious_subgraph
        assert subgraph.sensitive_ids
        presence, ratios = expected_features(subgraph, SCATTER_CATALOG)
        row = featurize(outcome, SCATTER_CATALOG)
        assert row[:len(SCATTER_CATALOG)].tolist() == presence
        assert row[len(SCATTER_CATALOG):].tolist() == pytest.approx(ratios, abs=1e-12)


class TestAtThresholds:
    """at_thresholds judges one coupling pass at other thresholds; each
    result must equal a fresh partition_suspicious run."""

    @pytest.mark.parametrize("seed,benign", [(3, 8), (17, 8), (5, 0)])
    def test_equals_partition_suspicious(self, seed, benign):
        graph, partition = scattered_case(seed, benign_communities=benign)
        base = partition_suspicious(graph, partition, 3.0)
        communities = base.sensitive_communities
        assert len(communities) >= 50
        positive = sorted({sc.coupling.c for sc in communities if sc.coupling.c > 0})
        assert bool(positive) == bool(benign)
        exact = positive[len(positive) // 2] if positive else 1.0
        thresholds = [0.25, 1.0, math.nextafter(exact, 0.0), exact, 3.0, 5.0, 1e9]
        outcomes = at_thresholds(graph, base, thresholds)
        for threshold, outcome in zip(thresholds, outcomes):
            assert outcome == partition_suspicious(graph, partition, threshold)
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
        assert malicious_part(g, hops=1) == {1, 2}

    def test_chain_two_hops(self):
        g = make_graph(3, [(0, 1), (1, 2)], sensitive=[2])
        assert malicious_part(g, hops=2) == {0, 1, 2}

    def test_star_of_callers(self):
        edges = [(i, 5) for i in range(5)]
        g = make_graph(7, edges + [(6, 0)], sensitive=[5])
        part = malicious_part(g, hops=1)
        assert part == {0, 1, 2, 3, 4, 5}
        assert len(part) == 6

    def test_zero_hops_is_sensitive_set(self):
        g = make_graph(3, [(0, 1), (1, 2)], sensitive=[2])
        assert malicious_part(g, hops=0) == {2}

    def test_matches_bfs_oracle(self):
        rng = random.Random(4)
        for _ in range(50):
            g = random_digraph(rng, rng.randint(4, 40), 0.12, sensitive_count=2)
            hops = rng.randint(0, 3)
            assert malicious_part(g, hops) == brute_reverse_reach(
                g, g.sensitive_ids, hops
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
        g = motivating_graph()
        report = covertness(g, hops=1)
        normal = g.node_ids - report.malicious_nodes
        _, _, s, expected = brute_coupling(g, normal, report.malicious_nodes)
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
