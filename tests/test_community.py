import random

import pytest

from homgraph import community, generate
from homgraph.community import (
    AlgorithmComparison,
    CommunityPartition,
    ModularityUndefinedError,
    compare_algorithms,
    detect_label_propagation,
    detect_multilevel,
    modularity,
)
from homgraph.model import load_catalog

from conftest import barbell, make_graph, random_digraph, triangle_ring
from oracles import full_sweep_local_moving, weighted_q

BARBELL_Q = 12 / 13 - 0.5  # m=13, two cliques: m_c=6, d_c=13 each


def partition_of(graph, mapping):
    return CommunityPartition(
        assignment=mapping, community_count=len(set(mapping.values())), modularity_q=0.0
    )


class TestModularity:
    def test_single_community_is_zero(self):
        g = barbell()
        q = modularity(g, partition_of(g, {n.id: 0 for n in g.nodes}))
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_barbell_hand_value(self):
        g = barbell()
        split = {i: (0 if i < 4 else 1) for i in range(8)}
        assert modularity(g, partition_of(g, split)) == pytest.approx(BARBELL_Q, abs=1e-12)

    def test_triangle_singletons(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        q = modularity(g, partition_of(g, {0: 0, 1: 1, 2: 2}))
        assert q == pytest.approx(-1 / 3, abs=1e-12)

    def test_edgeless_graph_undefined(self):
        g = make_graph(4, [])
        with pytest.raises(ModularityUndefinedError):
            modularity(g, partition_of(g, {i: i for i in range(4)}))

    def test_relabel_invariance(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_digraph(rng, rng.randint(4, 40), 0.2)
            if not g.undirected_edges:
                continue
            mapping = {n.id: rng.randrange(5) for n in g.nodes}
            q1 = modularity(g, partition_of(g, mapping))
            shift = {c: 1000 - 7 * c for c in set(mapping.values())}
            q2 = modularity(g, partition_of(g, {k: shift[v] for k, v in mapping.items()}))
            assert q1 == pytest.approx(q2, abs=1e-12)

    def test_partition_must_cover_graph(self):
        g = barbell()
        with pytest.raises(ValueError, match="cover"):
            modularity(g, partition_of(g, {0: 0}))


class TestMultilevel:
    def test_barbell_recovers_cliques(self):
        part = detect_multilevel(barbell(), seed=0)
        assert part.community_count == 2
        assert len({part.assignment[i] for i in range(4)}) == 1
        assert len({part.assignment[i] for i in range(4, 8)}) == 1
        assert part.modularity_q == pytest.approx(BARBELL_Q, abs=1e-9)

    def test_edgeless_graph_singletons(self):
        part = detect_multilevel(make_graph(5, []), seed=0)
        assert part.community_count == 5
        assert part.modularity_q == 0.0

    def test_triangle_ring_keeps_triangles(self):
        g = triangle_ring(8)
        part = detect_multilevel(g, seed=0)
        assert part.community_count == 8
        expected = {frozenset({3 * t, 3 * t + 1, 3 * t + 2}) for t in range(8)}
        assert set(part.communities()) == expected
        # merging any adjacent triangle pair must not improve Q
        base_q = part.modularity_q
        for t in range(8):
            merged = dict(part.assignment)
            target = part.assignment[3 * t]
            for member in (3 * ((t + 1) % 8), 3 * ((t + 1) % 8) + 1, 3 * ((t + 1) % 8) + 2):
                merged[member] = target
            q_merged = modularity(g, partition_of(g, merged))
            assert q_merged <= base_q + 1e-12

    def test_determinism(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_digraph(rng, 40, 0.1)
            a = detect_multilevel(g, seed=5)
            b = detect_multilevel(g, seed=5)
            assert a.assignment == b.assignment

    def test_q_trace_non_decreasing_and_q_recomputed(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(5, 50), rng.uniform(0.05, 0.3))
            part = detect_multilevel(g, seed=1)
            assert sorted(part.assignment) == sorted(g.node_ids)
            for earlier, later in zip(part.q_trace, part.q_trace[1:]):
                assert later >= earlier - 1e-9
            if g.undirected_edges:
                assert part.modularity_q == pytest.approx(
                    modularity(g, part), abs=1e-9
                )

    def test_decreasing_local_move_is_internal_error(self, monkeypatch):
        # A path split into alternating communities has no internal edge, so
        # its Q is below the singletons' Q; the check must survive python -O.
        def alternate(adj, self_loop, total_w, rng):
            return [i % 2 for i in range(len(adj))]

        monkeypatch.setattr(community, "_local_moving", alternate)
        with pytest.raises(RuntimeError, match="decreased modularity"):
            detect_multilevel(make_graph(4, [(0, 1), (1, 2), (2, 3)]))

    def test_community_ids_dense_from_zero(self):
        part = detect_multilevel(barbell(), seed=3)
        assert set(part.assignment.values()) == set(range(part.community_count))

    def test_karate_club_benchmark(self):
        # Zachary karate club; near-optimal modularity is ~0.4198
        edges = [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
            (0, 10), (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21),
            (0, 31), (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19),
            (1, 21), (1, 30), (2, 3), (2, 7), (2, 8), (2, 9), (2, 13),
            (2, 27), (2, 28), (2, 32), (3, 7), (3, 12), (3, 13), (4, 6),
            (4, 10), (5, 6), (5, 10), (5, 16), (6, 16), (8, 30), (8, 32),
            (8, 33), (9, 33), (13, 33), (14, 32), (14, 33), (15, 32),
            (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33),
            (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32),
            (23, 33), (24, 25), (24, 27), (24, 31), (25, 31), (26, 29),
            (26, 33), (27, 33), (28, 31), (28, 33), (29, 32), (29, 33),
            (30, 32), (30, 33), (31, 32), (31, 33), (32, 33),
        ]
        g = make_graph(34, edges, app_id="karate")
        part = detect_multilevel(g, seed=0)
        assert part.community_count == 4
        assert part.modularity_q >= 0.40


def random_weighted_level(rng):
    """adj/self_loop state with integer weights, self-loops and isolated nodes.

    Neighbours are inserted in shuffled order, as aggregation leaves them.
    """
    n = rng.randint(1, 80)
    p = rng.choice((0.03, 0.08, 0.2, 0.5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    rng.shuffle(pairs)
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for u, v in pairs:
        adj[u][v] = adj[v][u] = float(rng.randint(1, 5))
    self_loop = [float(rng.randint(1, 4)) if rng.random() < 0.2 else 0.0 for _ in range(n)]
    return adj, self_loop


def copy_rng(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


class TestLocalMovingSkip:
    """Skipping nodes with unchanged inputs must not change a single label."""

    def test_equals_full_sweep_on_random_weighted_levels(self):
        cases = aggregated = 0
        for case in range(240):
            rng = random.Random(case)
            adj, self_loop = random_weighted_level(rng)
            upper = sum(w for i, nbrs in enumerate(adj) for j, w in nbrs.items() if j > i)
            total_w = upper + sum(self_loop)
            if total_w == 0:
                continue
            cases += 1
            sweep_rng = random.Random(case)
            while True:
                reference_rng = copy_rng(sweep_rng)
                comm = community._local_moving(adj, self_loop, total_w, sweep_rng)
                assert comm == full_sweep_local_moving(adj, self_loop, total_w, reference_rng)
                assert sweep_rng.getstate() == reference_rng.getstate()
                if len(set(comm)) == len(adj):
                    break
                adj, self_loop, _ = community._aggregate(adj, self_loop, comm)
                aggregated += 1
        assert cases >= 200 and aggregated >= 200

    def test_equals_full_sweep_inside_detect_multilevel(self, monkeypatch):
        production = community._local_moving
        levels_with_self_loops = 0

        def checked(adj, self_loop, total_w, rng):
            nonlocal levels_with_self_loops
            reference_rng = copy_rng(rng)
            comm = production(adj, self_loop, total_w, rng)
            assert comm == full_sweep_local_moving(adj, self_loop, total_w, reference_rng)
            levels_with_self_loops += any(self_loop)
            return comm

        monkeypatch.setattr(community, "_local_moving", checked)
        rng = random.Random(31)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(5, 80), rng.uniform(0.02, 0.3))
            detect_multilevel(g, seed=rng.randrange(1000))
        assert levels_with_self_loops >= 100


class TestPassQ:
    """A pass's Q, read off the aggregated level, equals an edge scan bit for bit."""

    def test_q_trace_equals_edge_scan_on_every_level(self, monkeypatch):
        production = community._local_moving
        expected: list[float] = []

        def recorded(adj, self_loop, total_w, rng):
            comm = production(adj, self_loop, total_w, rng)
            expected.append(weighted_q(adj, self_loop, comm, total_w))
            return comm

        monkeypatch.setattr(community, "_local_moving", recorded)
        rng = random.Random(37)
        multi_level = 0
        for _ in range(120):
            g = random_digraph(rng, rng.randint(5, 80), rng.uniform(0.02, 0.3))
            expected.clear()
            part = detect_multilevel(g, seed=rng.randrange(1000))
            assert list(part.q_trace) == expected
            multi_level += len(expected) > 1
        assert multi_level >= 100

    def test_level_q_equals_edge_scan_on_random_weighted_levels(self):
        for case in range(240):
            rng = random.Random(case)
            adj, self_loop = random_weighted_level(rng)
            upper = sum(w for i, nbrs in enumerate(adj) for j, w in nbrs.items() if j > i)
            total_w = upper + sum(self_loop)
            if total_w == 0:
                continue
            n = len(adj)
            singletons = community._level_q(adj, self_loop, total_w, range(n))
            assert singletons == weighted_q(adj, self_loop, list(range(n)), total_w)
            comm = [rng.randrange(max(1, n // 3)) for _ in range(n)]
            new_adj, new_loop, relabel = community._aggregate(adj, self_loop, comm)
            order = [relabel[c] for c in dict.fromkeys(comm)]
            assert community._level_q(new_adj, new_loop, total_w, order) == weighted_q(
                adj, self_loop, comm, total_w
            )


class TestNetworkxModularity:
    def test_q_equals_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(41)
        graphs = [random_digraph(rng, rng.randint(5, 60), rng.uniform(0.05, 0.3))
                  for _ in range(100)]
        corpus = generate.generate_corpus(generate.SyntheticSpec(), 10, 10, load_catalog())
        graphs += [g for g, _ in corpus]
        for g in graphs:
            part = detect_multilevel(g)
            undirected = nx.Graph()
            undirected.add_nodes_from(g.node_ids)
            undirected.add_edges_from(g.undirected_edges)
            expected = nx.community.modularity(undirected, part.communities())
            assert part.modularity_q == pytest.approx(expected, abs=1e-9)


class TestLabelPropagation:
    def test_barbell_two_cliques(self):
        g = barbell()
        part = detect_label_propagation(g, seed=1)
        assert part.community_count == 2
        assert len({part.assignment[i] for i in range(4)}) == 1
        assert len({part.assignment[i] for i in range(4, 8)}) == 1
        # fixpoint: under the final labeling every node already holds its
        # most frequent neighbor label (ties to smallest)
        labels = part.assignment
        for nid, nbrs in g.undirected_neighbors.items():
            counts = {}
            for m in nbrs:
                counts[labels[m]] = counts.get(labels[m], 0) + 1
            top = max(counts.values())
            assert labels[nid] == min(l for l, c in counts.items() if c == top)

    def test_complete_graph_single_community(self):
        edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        part = detect_label_propagation(make_graph(5, edges), seed=0)
        assert part.community_count == 1

    def test_edgeless_graph_singletons(self):
        part = detect_label_propagation(make_graph(6, []), seed=0)
        assert part.community_count == 6
        assert part.modularity_q == 0.0

    def test_determinism(self):
        rng = random.Random(17)
        for _ in range(10):
            g = random_digraph(rng, 30, 0.15)
            assert (
                detect_label_propagation(g, seed=9).assignment
                == detect_label_propagation(g, seed=9).assignment
            )

    def test_partition_covers_and_q_matches(self):
        rng = random.Random(29)
        for _ in range(30):
            g = random_digraph(rng, rng.randint(3, 40), 0.15)
            part = detect_label_propagation(g, seed=2)
            assert sorted(part.assignment) == sorted(g.node_ids)
            if g.undirected_edges:
                assert part.modularity_q == pytest.approx(modularity(g, part), abs=1e-9)


class TestCompareAlgorithms:
    def test_single_edgeless_graph(self):
        rows = compare_algorithms([make_graph(4, [])], seed=0)
        assert [r.algorithm for r in rows] == ["multilevel", "label_propagation"]
        assert all(r.mean_q == 0.0 for r in rows)

    def test_clique_ring_corpus_q_range(self):
        rings = [triangle_ring(k) for k in range(4, 14)]
        rows = compare_algorithms(rings, seed=0)
        for row in rows:
            assert 0.3 <= row.mean_q <= 0.95
            assert row.mean_runtime_seconds >= 0.0

    def test_multilevel_beats_label_propagation_on_structured_corpus(self):
        catalog = load_catalog()
        spec = generate.SyntheticSpec(
            node_count=412, community_count=16, planted_sensitive_community_size=12
        )
        corpus = generate.generate_corpus(spec, 0, 100, catalog)
        rows = {r.algorithm: r for r in compare_algorithms([g for g, _ in corpus], seed=0)}
        assert rows["multilevel"].mean_q >= rows["label_propagation"].mean_q

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            compare_algorithms([], seed=0)

    def test_row_shape(self):
        rows = compare_algorithms([barbell()], seed=0)
        assert isinstance(rows[0], AlgorithmComparison)
        assert rows[0].graph_count == 1
