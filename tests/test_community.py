import random

import numpy as np
import pytest

from homgraph import community, generate
from homgraph.community import (
    CommunityPartition,
    ModularityUndefinedError,
    detect_label_propagation,
    detect_multilevel,
    modularity,
)
from homgraph.homophily import partition_suspicious
from homgraph.model import load_catalog

from conftest import barbell, make_graph, random_digraph, triangle_ring
from oracles import (
    full_sweep_local_moving,
    level_totals,
    partition_of,
    undirected_edges,
    undirected_neighbors,
    weighted_q,
    with_sparse_ids,
)

BARBELL_Q = 12 / 13 - 0.5  # m=13, two cliques: m_c=6, d_c=13 each


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
        for case in range(30):
            g = random_digraph(rng, rng.randint(4, 40), 0.2)
            if case % 2:
                g, _ = with_sparse_ids(g, case)
            if not undirected_edges(g):
                continue
            mapping = {n.id: rng.randrange(5) for n in g.nodes}
            q1 = modularity(g, partition_of(g, mapping))
            shift = {c: 1000 - 7 * c for c in set(mapping.values())}
            q2 = modularity(g, partition_of(g, {k: shift[v] for k, v in mapping.items()}))
            assert q1 == pytest.approx(q2, abs=1e-12)

    def test_partition_must_cover_graph(self):
        g = barbell()
        with pytest.raises(ValueError, match="cover"):
            modularity(g, CommunityPartition(np.zeros(1, np.int64), (0,), 1, 0.0))


class TestMultilevel:
    def test_barbell_recovers_cliques(self):
        part = detect_multilevel(barbell(), seed=0)
        assert part.community_count == 2
        assert part.communities() == [frozenset(range(4)), frozenset(range(4, 8))]
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
            merged = dict(zip(g.ids, part.labels.tolist()))
            target = merged[3 * t]
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
            assert np.array_equal(a.labels, b.labels)

    def test_q_trace_non_decreasing_and_q_recomputed(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(5, 50), rng.uniform(0.05, 0.3))
            part = detect_multilevel(g, seed=1)
            assert part.ids is g.ids and part.labels.shape == (g.node_count,)
            for earlier, later in zip(part.q_trace, part.q_trace[1:]):
                assert later >= earlier - 1e-9
            if undirected_edges(g):
                assert part.q_trace[-1] == part.modularity_q == modularity(g, part)

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
        assert set(part.labels.tolist()) == set(range(part.community_count))

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


def checked_level(local_moving, adj, self_loop, total_w, rng):
    """Run ``local_moving`` on one level and check it against a twin run and
    the exact routine: the same labels and rng state from a copied rng, one
    shuffle drawn as the exact routine draws it, and no lower Q than the
    singleton labelling."""
    twin, reference_rng = copy_rng(rng), copy_rng(rng)
    comm = local_moving(adj, self_loop, total_w, rng)
    assert comm == local_moving(adj, self_loop, total_w, twin)
    full_sweep_local_moving(adj, self_loop, total_w, reference_rng)
    assert rng.getstate() == twin.getstate() == reference_rng.getstate()
    singletons = list(range(len(adj)))
    assert weighted_q(adj, self_loop, comm, total_w) >= weighted_q(
        adj, self_loop, singletons, total_w)
    return comm


class TestLocalMovingQueue:
    """The queue is deterministic given (level, rng state), draws the same
    random numbers as the exact routine, and never ends below the singleton
    labelling's Q."""

    def test_random_weighted_levels(self):
        cases = aggregated = levels_with_self_loops = 0
        for case in range(240):
            rng = random.Random(case)
            adj, self_loop = random_weighted_level(rng)
            upper = sum(w for i, nbrs in enumerate(adj) for j, w in nbrs.items() if j > i)
            total_w = upper + sum(self_loop)
            if total_w == 0:
                continue
            cases += 1
            level_rng = random.Random(case)
            while True:
                comm = checked_level(community._local_moving, adj, self_loop, total_w,
                                     level_rng)
                levels_with_self_loops += any(self_loop)
                if len(set(comm)) == len(adj):
                    break
                adj, self_loop, _ = community._aggregate(adj, self_loop, comm)
                aggregated += 1
        assert cases >= 200 and aggregated >= 200 and levels_with_self_loops >= 100

    def test_inside_detect_multilevel(self, monkeypatch):
        production = community._local_moving
        levels_with_self_loops = 0

        def checked(adj, self_loop, total_w, rng):
            nonlocal levels_with_self_loops
            levels_with_self_loops += any(self_loop)
            return checked_level(production, adj, self_loop, total_w, rng)

        monkeypatch.setattr(community, "_local_moving", checked)
        rng = random.Random(31)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(5, 80), rng.uniform(0.02, 0.3))
            detect_multilevel(g, seed=rng.randrange(1000))
        assert levels_with_self_loops >= 100


DETECT_SEEDS = range(5)


@pytest.fixture(scope="module")
def generated_corpora():
    """Two 20+20 generator corpora (generator seeds 0 and 1)."""
    catalog = load_catalog()
    return [[g for g, _ in generate.generate_corpus(generate.SyntheticSpec(seed=s), 20, 20,
                                                    catalog)]
            for s in (0, 1)]


def partitions(corpus):
    """``detect_multilevel`` on every graph of ``corpus``, per detect seed."""
    return [[detect_multilevel(g, seed) for g in corpus] for seed in DETECT_SEEDS]


@pytest.fixture(scope="module")
def queue_partitions(generated_corpora):
    return [partitions(corpus) for corpus in generated_corpora]


def connected(members, neighbours):
    """Whether ``members`` induce a connected subgraph, by depth-first search."""
    start = min(members)
    reached, stack = {start}, [start]
    while stack:
        for m in neighbours[stack.pop()] & members - reached:
            reached.add(m)
            stack.append(m)
    return reached == members


def mean_qs(per_seed):
    return [sum(p.modularity_q for p in parts) / len(parts) for parts in per_seed]


class TestQueueQuality:
    """The queue against the exact routine, and Leiden's connectivity
    guarantee, on generated corpora."""

    def test_mean_q_within_exact_seed_spread(self, generated_corpora, queue_partitions,
                                             monkeypatch):
        monkeypatch.setattr(community, "_local_moving", full_sweep_local_moving)
        for corpus, queue in zip(generated_corpora, queue_partitions):
            queue_qs, exact_qs = mean_qs(queue), mean_qs(partitions(corpus))
            spread = max(exact_qs) - min(exact_qs)
            assert spread > 0
            assert sum(queue_qs) / len(queue_qs) >= sum(exact_qs) / len(exact_qs) - spread

    def test_every_community_connected(self, generated_corpora, queue_partitions):
        checked = 0
        for corpus, per_seed in zip(generated_corpora, queue_partitions):
            neighbours = [undirected_neighbors(g) for g in corpus]
            for parts in per_seed:
                for g, nbrs, part in zip(corpus, neighbours, parts):
                    for members in part.communities():
                        assert connected(members, nbrs), (g.app_id, sorted(members))
                        checked += 1
        assert checked >= 1000


class TestPassQ:
    """Each pass's Q is ``modularity`` of the partition it induces, bit for bit."""

    def test_q_trace_equals_edge_scan_on_every_level(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        production = community._aggregate
        memberships: list[list[int]] = []  # per pass: position -> level node
        level_qs: list[float] = []

        def recorded(adj, self_loop, comm):
            new_adj, new_loop, relabel = production(adj, self_loop, comm)
            previous = memberships[-1] if memberships else range(len(comm))
            memberships.append([relabel[comm[node]] for node in previous])
            upper = sum(w for i, nbrs in enumerate(adj) for j, w in nbrs.items() if j > i)
            level_qs.append(weighted_q(adj, self_loop, comm, upper + sum(self_loop)))
            return new_adj, new_loop, relabel

        monkeypatch.setattr(community, "_aggregate", recorded)
        rng = random.Random(37)
        multi_level = 0
        for _ in range(120):
            g = random_digraph(rng, rng.randint(5, 80), rng.uniform(0.02, 0.3))
            memberships.clear()
            level_qs.clear()
            part = detect_multilevel(g, seed=rng.randrange(1000))
            assert len(part.q_trace) == len(memberships)
            undirected = nx.Graph()
            undirected.add_nodes_from(g.ids)
            undirected.add_edges_from(undirected_edges(g))
            for q, membership, level_q in zip(part.q_trace, memberships, level_qs):
                induced = partition_of(g, dict(zip(g.ids, membership)))
                assert q == modularity(g, induced)
                assert q == pytest.approx(level_q, abs=1e-12)
                expected = nx.community.modularity(undirected, induced.communities())
                assert q == pytest.approx(expected, abs=1e-12)
            multi_level += len(memberships) > 1
        assert multi_level >= 100

    def test_aggregate_keeps_internal_weight_and_degree(self):
        for case in range(240):
            rng = random.Random(case)
            adj, self_loop = random_weighted_level(rng)
            n = len(adj)
            comm = [rng.randrange(max(1, n // 3)) for _ in range(n)]
            new_adj, new_loop, relabel = community._aggregate(adj, self_loop, comm)
            assert sorted(relabel.values()) == list(range(len(new_adj)))
            intra, degree = level_totals(adj, self_loop, comm)
            for c, k in relabel.items():
                assert k not in new_adj[k]
                assert new_loop[k] == intra[c]
                assert sum(new_adj[k].values()) + 2.0 * new_loop[k] == degree[c]


class TestNetworkxModularity:
    def test_q_equals_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(41)
        graphs = [random_digraph(rng, rng.randint(5, 60), rng.uniform(0.05, 0.3))
                  for _ in range(100)]
        corpus = generate.generate_corpus(generate.SyntheticSpec(), 10, 10, load_catalog())
        graphs += [g for g, _ in corpus]
        graphs += [with_sparse_ids(g, k)[0] for k, g in enumerate(graphs[:40])]
        for g in graphs:
            part = detect_multilevel(g)
            undirected = nx.Graph()
            undirected.add_nodes_from(n.id for n in g.nodes)
            undirected.add_edges_from(undirected_edges(g))
            expected = nx.community.modularity(undirected, part.communities())
            assert part.modularity_q == pytest.approx(expected, abs=1e-9)
            if undirected_edges(g):
                assert modularity(g, part) == part.modularity_q


class TestLabelPropagation:
    def test_barbell_two_cliques(self):
        g = barbell()
        part = detect_label_propagation(g, seed=1)
        assert part.community_count == 2
        assert part.communities() == [frozenset(range(4)), frozenset(range(4, 8))]
        # fixpoint: under the final labeling every node already holds its
        # most frequent neighbor label (ties to smallest)
        labels = dict(zip(g.ids, part.labels.tolist()))
        for nid, nbrs in undirected_neighbors(g).items():
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
            assert np.array_equal(detect_label_propagation(g, seed=9).labels,
                                  detect_label_propagation(g, seed=9).labels)

    def test_partition_covers_and_q_matches(self):
        rng = random.Random(29)
        for _ in range(30):
            g = random_digraph(rng, rng.randint(3, 40), 0.15)
            part = detect_label_propagation(g, seed=2)
            assert part.ids is g.ids and part.labels.shape == (g.node_count,)
            if undirected_edges(g):
                assert part.modularity_q == pytest.approx(modularity(g, part), abs=1e-9)


def mean_q(detect, graphs):
    return sum(detect(g, 0).modularity_q for g in graphs) / len(graphs)


class TestCompareAlgorithms:
    """Louvain against label propagation, the baseline it must match."""

    def test_single_edgeless_graph(self):
        g = make_graph(4, [])
        assert [detect(g, 0).modularity_q
                for detect in (detect_multilevel, detect_label_propagation)] == [0.0, 0.0]

    def test_clique_ring_corpus_q_range(self):
        rings = [triangle_ring(k) for k in range(4, 14)]
        for detect in (detect_multilevel, detect_label_propagation):
            assert 0.3 <= mean_q(detect, rings) <= 0.95

    def test_multilevel_beats_label_propagation_on_structured_corpus(self):
        catalog = load_catalog()
        spec = generate.SyntheticSpec(
            node_count=412, community_count=16, planted_sensitive_community_size=12
        )
        graphs = [g for g, _ in generate.generate_corpus(spec, 0, 100, catalog)]
        assert mean_q(detect_multilevel, graphs) >= mean_q(detect_label_propagation, graphs)


class TestPartitionCover:
    def test_every_node_in_exactly_one_community(self):
        # Both detectors, and the benign/sensitive split built on them.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.data())
        def cover(data):
            n = data.draw(st.integers(1, 30))
            arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            sensitive = data.draw(st.sets(st.integers(0, n - 1)))
            g = make_graph(n, data.draw(st.lists(arc, max_size=90)), sensitive=sensitive)
            seed = data.draw(st.integers(0, 2**16))
            for detect in (detect_multilevel, detect_label_propagation):
                part = detect(g, seed)
                groups = part.communities()
                assert part.labels.shape == (n,)
                assert len(groups) == part.community_count
                assert sum(map(len, groups)) == n
                assert frozenset().union(*groups) == frozenset(g.ids)
                outcome = partition_suspicious(g, part, 3.0)
                parts = [outcome.benign_nodes, *(sc.nodes for sc in outcome.sensitive_communities)]
                assert sorted(np.concatenate(parts).tolist()) == list(range(n))

        cover()
