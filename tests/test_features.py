import random

import numpy as np
import pytest

from homgraph import features
from homgraph.features import (
    SELECTED_TRIADS,
    TRIAD_NAMES,
    feature_names,
    featurize,
    ratio_features,
    triad_census,
)
from homgraph.homophily import PartitionOutcome
from homgraph.model import CallGraph, SensitiveApiCatalog

from conftest import make_graph
from oracles import brute_census, contained_entries, undirected_neighbors, walk_census


def dyad_edges(rng, n, edge_prob, mutual_prob):
    """Random arcs on nodes 0..n-1: each pair is linked with ``edge_prob``,
    and a linked pair is mutual with ``mutual_prob``."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v) if rng.random() < 0.5 else (v, u))
                if rng.random() < mutual_prob:
                    edges.append(edges[-1][::-1])
    return edges


def dense_block_graph():
    """A sparse graph of 240 nodes holding a directed block on nodes 0-59:
    each block pair is linked with probability 0.5, a third of links
    mutual, which closes about 4,300 triangles. A dozen block nodes match
    the nested entries "api5" and "api56", or "api6"; so do a few outside."""
    rng = random.Random(60)
    edges = dyad_edges(rng, 60, 0.5, 0.3) + dyad_edges(rng, 240, 0.01, 0.3)
    names = {j: f"fn{j}" for j in range(240)}
    for j in (*rng.sample(range(60), 12), *rng.sample(range(60, 240), 4)):
        names[j] = rng.choice(("wrapped.api5.call", "api6()", "x.api56.y")) + str(j)
    return make_graph(240, edges, names=names)


def outcome_for(graph, threshold=3.0):
    return PartitionOutcome(
        benign_nodes=np.arange(0),
        sensitive_communities=(),
        suspicious_subgraph=graph,
        threshold=threshold,
    )


# Wedge chunk sizes: one wedge, a size that splits rows, and the default.
CHUNKS = pytest.mark.parametrize("chunk", [1, 7, features._WEDGE_CHUNK],
                                 ids=lambda chunk: f"chunk{chunk}")


class TestTriadDefinitions:
    # edge sets per selected code on the triple {A=0, B=1, C=2}
    CASES = {
        "021D": [(1, 0), (1, 2)],
        "021U": [(0, 1), (2, 1)],
        "021C": [(0, 1), (1, 2)],
        "111U": [(0, 1), (1, 0), (1, 2)],
        "030T": [(0, 1), (2, 1), (0, 2)],
        "120U": [(0, 1), (2, 1), (0, 2), (2, 0)],
    }

    @pytest.mark.parametrize("code", SELECTED_TRIADS)
    def test_selected_edge_sets(self, code):
        census = triad_census(make_graph(3, self.CASES[code]))
        assert census.total_counts[code] == 1
        for other in SELECTED_TRIADS:
            if other != code:
                assert census.total_counts[other] == 0

    @pytest.mark.parametrize(
        "code,edges",
        [
            ("012", [(0, 1)]),
            ("102", [(0, 1), (1, 0)]),
            ("111D", [(0, 1), (1, 0), (2, 1)]),
            ("030C", [(0, 1), (1, 2), (2, 0)]),
            ("201", [(0, 1), (1, 0), (1, 2), (2, 1)]),
            ("120D", [(1, 0), (1, 2), (0, 2), (2, 0)]),
            ("120C", [(0, 1), (1, 2), (0, 2), (2, 0)]),
            ("210", [(0, 1), (1, 2), (2, 1), (0, 2), (2, 0)]),
            ("300", [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]),
        ],
    )
    def test_remaining_types(self, code, edges):
        census = triad_census(make_graph(3, edges))
        assert census.total_counts[code] == 1
        assert sum(census.total_counts.values()) == 1


class TestCensus:
    def test_two_node_graph_all_zero(self):
        census = triad_census(make_graph(2, [(0, 1)]))
        assert all(v == 0 for v in census.total_counts.values())
        assert census.edgeless_triples == 0

    def test_single_chain(self):
        census = triad_census(make_graph(3, [(0, 1), (1, 2)]))
        assert census.total_counts["021C"] == 1
        for code in SELECTED_TRIADS:
            if code != "021C":
                assert census.total_counts[code] == 0

    @CHUNKS
    def test_matches_brute_force_on_random_digraphs(self, monkeypatch, chunk):
        # "api56" nests "api5", so a node can match two entries; several
        # nodes share each entry, often within two hops of each other, so a
        # triad can hold two nodes matching one entry. Graphs run from 0 to
        # 30 nodes, with isolated nodes and no, some or only mutual dyads.
        monkeypatch.setattr(features, "_WEDGE_CHUNK", chunk)
        catalog = SensitiveApiCatalog(entries=("api5", "api6", "api56"))
        names = ("fn", "wrapped.api5.call", "api6()", "x.api56.y")
        rng = random.Random(12)
        covered = {"nested": 0, "near pair": 0, "mutual": 0, "isolated": 0}
        for i in range(240):
            n = i % 4 if i < 12 else rng.randint(3, 30)
            mutual_prob = (0.0, 0.3, 1.0)[i % 3]
            node_names = {j: rng.choice(names) + str(j) for j in range(n)}
            g = make_graph(n, dyad_edges(rng, n, 0.15, mutual_prob), names=node_names)

            census = triad_census(g, catalog)
            assert census.matched_entries == tuple(sorted(
                {i for n in g.nodes for i in contained_entries(n.name, catalog)}))
            for totals, edgeless, sensitive in (
                walk_census(g, catalog), brute_census(g, catalog)
            ):
                assert census.total_counts == totals
                assert census.edgeless_triples == edgeless
                assert census.sensitive_counts == sensitive
            n_triples = n * (n - 1) * (n - 2) // 6
            assert sum(census.total_counts.values()) + census.edgeless_triples == n_triples

            hits = {j: {e for e in catalog.entries if e in name} for j, name in node_names.items()}
            covered["nested"] += any(len(found) == 2 for found in hits.values())
            neighbors = undirected_neighbors(g)
            covered["near pair"] += any(
                hits[x] & hits[z]
                for x in range(n) for y in neighbors[x]
                for z in neighbors[y] | {y} if z > x
            )
            covered["mutual"] += census.total_counts["102"] > 0
            covered["isolated"] += any(not nbrs for nbrs in neighbors.values())
        assert min(covered.values()) >= 20, covered

    @CHUNKS
    def test_matches_walk_oracle_on_hub_graphs(self, monkeypatch, chunk):
        # Graphs of 40 to 293 nodes in which node 0 is a hub called by most
        # other nodes, about one in ten mutually. The hub matches the nested
        # entries "api5" and "api56"; two or three of its callers match
        # "api6", so they lie within two hops of each other, and a few more
        # nodes match entries at random, some of them next to the hub. Last
        # comes a dense block with thousands of triangles.
        monkeypatch.setattr(features, "_WEDGE_CHUNK", chunk)
        catalog = SensitiveApiCatalog(entries=("api5", "api6", "api56"))
        rng = random.Random(19)
        graphs, big_hubs = [], 0
        for i in range(24):
            n = 40 + 11 * i
            callers = rng.sample(range(1, n), n - 1 - rng.randint(0, n // 10))
            edges = [(c, 0) for c in callers] + [(0, c) for c in callers if rng.random() < 0.1]
            edges += dyad_edges(rng, n, 2.5 / n, 0.3)
            names = {j: rng.choice(("fn", "fn", "fn", "wrapped.api5.call", "x.api56.y")) + str(j)
                     for j in range(n)}
            names[0] = "x.api56.y"
            for c in rng.sample(callers, rng.randint(2, 3)):
                names[c] = f"api6({c})"
            graphs.append(make_graph(n, edges, names=names))
            big_hubs += len(callers) >= 200
        assert big_hubs >= 5

        for g in (*graphs, dense_block_graph()):
            census = triad_census(g, catalog)
            totals, edgeless, sensitive = walk_census(g, catalog)
            assert census.total_counts == totals
            assert census.edgeless_triples == edgeless
            assert census.sensitive_counts == sensitive
        closed_types = ("030T", "030C", "120D", "120U", "120C", "210", "300")
        assert sum(census.total_counts[t] for t in closed_types) == 4371
        assert len(census.sensitive_counts) == 3 * len(SELECTED_TRIADS)

    def test_hub_classifies_only_triangles(self, monkeypatch):
        # A sensitive hub with 3,000 one-call wrapper callers; each wrapper
        # is called by one of 40 callers, and every other caller also calls
        # the hub, closing 1,500 triangles. Only those are listed. In degree
        # order each wrapper holds the graph's only wedges, 3,000 in all; in
        # position order the hub would hold about 4.6 million.
        wrappers, callers = range(1, 3001), range(3001, 3041)
        edges = [(w, 0) for w in wrappers] + [(callers[w % 40], w) for w in wrappers]
        edges += [(c, 0) for c in callers[::2]]
        names = {j: "api5()" if j == 0 else f"fn{j}" for j in range(3041)}
        g = make_graph(3041, edges, names=names)
        chunks = []
        real = features._triangles
        monkeypatch.setattr(features, "_WEDGE_CHUNK", 1000)
        monkeypatch.setattr(features, "_triangles", lambda *args: [
            chunks.append(len(chunk[0])) or chunk for chunk in real(*args)])

        census = triad_census(g, SensitiveApiCatalog(entries=("api5",)))
        assert len(chunks) == 3
        assert sum(chunks) == census.total_counts["030T"] == 1500
        # Each triangle closes one of the hub's in-wedges and one wrapper's chain.
        in_wedges = 3020 * 3019 // 2 - 1500
        assert census.sensitive_counts == {
            (0, "021U"): in_wedges, (0, "021C"): 1500, (0, "030T"): 1500}
        assert census.total_counts["021U"] == in_wedges

    def test_relabel_invariance(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (3, 1)]
        g = make_graph(4, edges)
        relabeled = make_graph(4, [(3 - u, 3 - v) for u, v in edges])
        assert (
            triad_census(g).total_counts == triad_census(relabeled).total_counts
        )

    def test_sensitive_counts_bounded_by_totals(self, tiny_catalog):
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randint(4, 20)
            names = {j: (f"api{5 + j % 2}.x" if j < 3 else f"fn{j}") for j in range(n)}
            g = make_graph(n, [
                (u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.25
            ], names=names)
            census = triad_census(g, tiny_catalog)
            for (api, code), count in census.sensitive_counts.items():
                assert count <= census.total_counts[code]

    def test_all_16_names_present(self):
        census = triad_census(make_graph(3, [(0, 1)]))
        assert set(census.total_counts) == set(TRIAD_NAMES)


class TestNetworkxCensus:
    def test_totals_equal_networkx_triadic_census(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(31)
        graphs = []
        for i in range(120):
            n = rng.randint(0, 25)
            graphs.append(make_graph(n, dyad_edges(rng, n, rng.uniform(0.05, 0.4),
                                                   (0.0, 0.3, 1.0)[i % 3])))
        for g in (*graphs, dense_block_graph()):
            digraph = nx.DiGraph()
            digraph.add_nodes_from(range(len(g.nodes)))
            digraph.add_edges_from(g.edges)
            expected = nx.triadic_census(digraph)
            census = triad_census(g)
            assert census.edgeless_triples == expected.pop("003")
            assert census.total_counts == {**expected, "003": 0}


# Six nodes realizing the worked feature-extraction example: selected-type
# totals (021D, 021U, 021C, 111U, 030T, 120U) = (2, 0, 3, 0, 1, 0), four
# sensitive triads (two 021D, one 021C, one 030T), and the first API in
# exactly one of the three 021C triads.
FIG_EDGES = [(1, 3), (1, 5), (2, 0), (2, 4), (3, 2), (3, 5)]
FIG_NAMES = {0: "f1", 1: "f2", 2: "f3", 3: "f4", 4: "api5.call", 5: "api6.call"}


def fig_graph():
    return make_graph(6, FIG_EDGES, sensitive=[4, 5], names=FIG_NAMES)


class TestWorkedExample:
    def test_totals_verified_by_oracle(self, tiny_catalog):
        g = fig_graph()
        totals, _, sensitive = brute_census(g, tiny_catalog)
        assert tuple(totals[t] for t in SELECTED_TRIADS) == (2, 0, 3, 0, 1, 0)
        assert sensitive[(0, "021C")] == 1
        census = triad_census(g, tiny_catalog)
        assert census.total_counts == totals
        assert census.sensitive_counts == sensitive

    def test_api5_021c_ratio_is_one_third(self, tiny_catalog):
        census = triad_census(fig_graph(), tiny_catalog)
        ratios = ratio_features(census, tiny_catalog)
        idx = 0 * len(SELECTED_TRIADS) + SELECTED_TRIADS.index("021C")
        assert ratios[idx] == pytest.approx(1 / 3, abs=0)

    def test_four_sensitive_triads(self, tiny_catalog):
        g = fig_graph()
        _, _, sensitive = brute_census(g, tiny_catalog)
        by_type = {}
        for (_, code), count in sensitive.items():
            by_type[code] = by_type.get(code, 0) + count
        assert by_type == {"021D": 2, "021C": 1, "030T": 1}


class TestRatioFeatures:
    def test_zero_totals_zero_vector(self, tiny_catalog):
        census = triad_census(make_graph(2, [(0, 1)]), tiny_catalog)
        assert not ratio_features(census, tiny_catalog).any()

    def test_all_entries_in_unit_interval(self, tiny_catalog):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(3, 25)
            names = {j: (f"api{5 + j % 2}.x" if j < 2 else f"fn{j}") for j in range(n)}
            g = make_graph(n, [
                (u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.3
            ], names=names)
            vec = ratio_features(triad_census(g, tiny_catalog), tiny_catalog)
            assert ((vec >= 0.0) & (vec <= 1.0)).all()


class TestPresence:
    def test_empty_subgraph_all_zero(self, desk_catalog):
        empty = CallGraph.from_edges("x", (), (), (), ())
        vec = featurize(outcome_for(empty), desk_catalog)[:10]
        assert vec.shape == (10,) and not vec.any()

    def test_single_match_sets_single_entry(self, desk_catalog):
        names = {0: desk_catalog.entries[0] + "()V", 1: "com.x.Y.z"}
        g = make_graph(2, [(0, 1)], names=names)
        vec = featurize(outcome_for(g), desk_catalog)[:10]
        assert vec[0] == 1.0 and vec[1:].sum() == 0

    def test_entries_binary(self, tiny_catalog):
        g = make_graph(3, [(0, 1)], names={0: "api5", 1: "api5 again", 2: "api6"})
        vec = featurize(outcome_for(g), tiny_catalog)[:2]
        assert set(vec.tolist()) <= {0.0, 1.0}
        assert vec.tolist() == [1.0, 1.0]


class TestFeaturize:
    def test_dimension_426_catalog(self):
        catalog = SensitiveApiCatalog(entries=tuple(f"api.pkg.Cls{i}.m{i}" for i in range(426)))
        row = featurize(outcome_for(make_graph(3, [(0, 1)])), catalog)
        assert row.shape == (2982,) and row.dtype == np.float64

    def test_dimension_desk_catalog(self, desk_catalog):
        row = featurize(outcome_for(make_graph(3, [(0, 1)])), desk_catalog)
        assert len(row) == 70

    def test_empty_subgraph_zero_vector(self, desk_catalog):
        empty = CallGraph.from_edges("x", (), (), (), ())
        row = featurize(outcome_for(empty), desk_catalog)
        assert len(row) == 70 and not row.any()

    def test_pure_function(self, tiny_catalog):
        g = fig_graph()
        a = featurize(outcome_for(g), tiny_catalog)
        b = featurize(outcome_for(g), tiny_catalog)
        assert np.array_equal(a, b)

    def test_vector_order_presence_then_ratios(self, tiny_catalog):
        g = fig_graph()
        row = featurize(outcome_for(g), tiny_catalog)
        census = triad_census(g, tiny_catalog)
        assert census.matched_entries == (0, 1)
        assert row[:2].tolist() == [1.0, 1.0]
        assert np.array_equal(row[2:], ratio_features(census, tiny_catalog))

    def test_feature_names_order(self, tiny_catalog):
        names = feature_names(tiny_catalog)
        assert names[:2] == ["presence[0]", "presence[1]"]
        assert names[2] == "ratio[0][021D]"
        assert names[7] == "ratio[0][120U]"
        assert names[8] == "ratio[1][021D]"
        assert len(names) == 14
