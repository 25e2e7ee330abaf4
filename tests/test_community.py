import math
import random

import numpy as np
import pytest

from homgraph import community, generate
from homgraph.community import (
    CommunityPartition,
    ModularityUndefinedError,
    _csr_rows,
    detect_label_propagation,
    detect_multilevel,
    modularity,
)
from homgraph.homophily import partition_suspicious
from homgraph.model import load_catalog

from conftest import barbell, make_graph, random_digraph, triangle_ring
from oracles import (
    dict_level_multilevel,
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
        def alternate(neighbours, strength, total_w, rng):
            return [i % 2 for i in range(len(neighbours))]

        monkeypatch.setattr(community, "_local_moving", alternate)
        with pytest.raises(RuntimeError, match="decreased modularity"):
            detect_multilevel(make_graph(4, [(0, 1), (1, 2), (2, 3)]))

    def test_stops_only_after_a_pass_that_moves_no_node(self, monkeypatch):
        # A hub 0 joined to 1..3,999, plus (1, 2): m = 4,000. Merging 1 into
        # the hub gains (1 - 3,999 * 2 / 8,000) / 4,000 = 6.25e-8 of Q, below
        # the 1e-7 a float stop rule would allow. The run must go on, and the
        # second pass's merge of 2 gains far more.
        calls = []

        def merge_position_1(neighbours, strength, total_w, rng):
            calls.append(len(neighbours))
            comm = list(range(len(neighbours)))
            if len(calls) <= 2:
                comm[1] = 0
            return comm

        monkeypatch.setattr(community, "_local_moving", merge_position_1)
        n = 4000
        g = make_graph(n, [(0, v) for v in range(1, n)] + [(1, 2)])
        part = detect_multilevel(g)
        assert calls == [4000, 3999, 3998]
        assert part.community_count == 3998
        assert part.communities()[0] == frozenset({0, 1, 2})
        singletons_q = community._q(g, np.arange(n))
        assert part.q_trace[0] - singletons_q == pytest.approx(6.25e-8, rel=1e-6)
        assert part.q_trace[1] - part.q_trace[0] > 1e-4
        assert part.q_trace[2] == part.q_trace[1] == part.modularity_q == modularity(g, part)

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
    """A unit-arc level (indptr, indices, self_loop) with integer weights,
    self-loops and isolated nodes.

    A pair of weight w is w arcs in each endpoint's row. Pairs are inserted
    in shuffled order, as aggregation leaves them.
    """
    n = rng.randint(1, 80)
    p = rng.choice((0.03, 0.08, 0.2, 0.5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    rng.shuffle(pairs)
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        w = rng.randint(1, 5)
        rows[u] += [v] * w
        rows[v] += [u] * w
    self_loop = [float(rng.randint(1, 4)) if rng.random() < 0.2 else 0.0 for _ in range(n)]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return indptr, np.array([j for row in rows for j in row], np.int64), np.array(self_loop)


def level_lists(indptr, indices, self_loop):
    """What local moving reads of a unit-arc level: each node's row as a list,
    and its strength (arc count plus twice its self-loop)."""
    return _csr_rows(indptr, indices), (np.diff(indptr) + 2.0 * self_loop).tolist()


def copy_rng(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def checked_level(local_moving, neighbours, strength, total_w, rng):
    """Run ``local_moving`` on one level and check it against a twin run and
    the exact routine: the same labels and rng state from a copied rng, one
    shuffle drawn as the exact routine draws it, and no lower Q than the
    singleton labelling."""
    twin, reference_rng = copy_rng(rng), copy_rng(rng)
    comm = local_moving(neighbours, strength, total_w, rng)
    assert comm == local_moving(neighbours, strength, total_w, twin)
    full_sweep_local_moving(neighbours, strength, total_w, reference_rng)
    assert rng.getstate() == twin.getstate() == reference_rng.getstate()
    singletons = list(range(len(neighbours)))
    assert weighted_q(neighbours, strength, comm, total_w) >= weighted_q(
        neighbours, strength, singletons, total_w)
    return comm


class TestLocalMovingQueue:
    """The queue is deterministic given (level, rng state), draws the same
    random numbers as the exact routine, and never ends below the singleton
    labelling's Q."""

    def test_random_weighted_levels(self):
        cases = aggregated = levels_with_self_loops = 0
        for case in range(240):
            rng = random.Random(case)
            indptr, indices, self_loop = random_weighted_level(rng)
            neighbours, strength = level_lists(indptr, indices, self_loop)
            total_w = sum(strength) / 2
            if total_w == 0:
                continue
            cases += 1
            level_rng = random.Random(case)
            while True:
                comm = checked_level(community._local_moving, neighbours, strength, total_w,
                                     level_rng)
                levels_with_self_loops += any(self_loop)
                if len(set(comm)) == len(neighbours):
                    break
                indptr, indices, self_loop, _ = community._aggregate(indptr, indices,
                                                                     self_loop, comm)
                neighbours, strength = level_lists(indptr, indices, self_loop)
                aggregated += 1
        assert cases >= 200 and aggregated >= 200 and levels_with_self_loops >= 100

    def test_inside_detect_multilevel(self, monkeypatch):
        production = community._local_moving
        levels_with_self_loops = 0

        def checked(neighbours, strength, total_w, rng):
            nonlocal levels_with_self_loops
            levels_with_self_loops += any(k != len(nbrs) for nbrs, k in zip(neighbours, strength))
            return checked_level(production, neighbours, strength, total_w, rng)

        monkeypatch.setattr(community, "_local_moving", checked)
        rng = random.Random(31)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(5, 80), rng.uniform(0.02, 0.3))
            detect_multilevel(g, seed=rng.randrange(1000))
        assert levels_with_self_loops >= 100


class IdOrder:
    """An rng stand-in whose shuffle keeps order: local moving then evaluates
    nodes in id order."""

    def shuffle(self, order):
        pass


def hand_level(n, pairs, self_loops, scale):
    """A unit-arc level from ``(u, v, w)`` pairs, each row listing partners
    in pair order, with every weight and self-loop times ``scale``: the
    rows, integer strengths and pair total that local moving reads."""
    rows = [[] for _ in range(n)]
    for u, v, w in pairs:
        rows[u] += [v] * (w * scale)
        rows[v] += [u] * (w * scale)
    strength = [len(row) + 2 * loop * scale for row, loop in zip(rows, self_loops)]
    return rows, strength, sum(strength) // 2


# A scale past 2**13 repeats a partner more than 2**13 times in a row. Gains
# then reach a few thousand, where float rounding exceeds 1e-12: at 8196 the
# float rule of oracles.full_sweep_local_moving misjudges the tie below.
SCALES = (1, 8196)


class TestExactTies:
    """Gains compare as the exact integers G = 2m * w - tot * k."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_equal_candidates_go_to_the_smallest_id(self, scale):
        # Strengths 4, 3 and 13, m = 10: node 0 gains G = 20 * 1 - 3 * 4 = 8
        # into node 1 and 20 * 3 - 13 * 4 = 8 into node 2. It joins node 1
        # whichever enters its gain dict first, and no later move pays.
        for pairs in ([(0, 1, 1), (0, 2, 3)], [(0, 2, 3), (0, 1, 1)]):
            rows, strength, total_w = hand_level(3, pairs, [0, 1, 5], scale)
            assert community._local_moving(rows, strength, total_w, IdOrder()) == [1, 1, 2]

    @pytest.mark.parametrize("scale", SCALES)
    def test_gain_equal_to_staying_does_not_move(self, scale):
        # Strengths 3, 6 and 9, m = 9: every candidate's G is 18 * w - tot * k
        # = 0, as is staying alone, so no node moves.
        rows, strength, total_w = hand_level(3, [(0, 1, 1), (1, 2, 3)], [1, 1, 3], scale)
        assert community._local_moving(rows, strength, total_w, IdOrder()) == [0, 1, 2]


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


class TestQSum:
    def test_squares_by_product(self):
        # (d_c / 2m)^2 is a product, which IEEE rounds correctly on every
        # platform. ``** 2`` calls the C library's pow, which on some hosts
        # rounds about 1 in 1,000 of these squares the other way.
        rng = random.Random(0)
        shares = []
        for _ in range(20_000):
            m = rng.randint(1, 10**6)
            shares.append((rng.randint(1, 2 * m), m))
        misrounded = [(d, m) for d, m in shares
                      if (d / (2.0 * m)) ** 2 != (d / (2.0 * m)) * (d / (2.0 * m))]
        # One community with no intra pairs: Q is minus the square itself.
        for d, m in misrounded + shares[:200]:
            share = d / (2.0 * m)
            q = community._q_sum(np.array([0]), np.array([d]), np.array([0]), m)
            assert q == -(share * share)

    def test_sums_left_to_right_in_order_of_first_appearance(self):
        # Q's terms summed one by one from 0.0, as a Python loop adds them.
        # np.sum adds pairwise and math.fsum exactly; on most of these cases
        # either gives another last bit.
        rng = random.Random(38)
        pairwise = exact = 0
        for _ in range(300):
            k = rng.randint(2, 400)
            m = rng.randint(k, 10**6)
            degree = np.array([rng.randint(0, 2 * m // k) for _ in range(k)])
            intra = np.array([rng.randint(0, d // 2) for d in degree.tolist()])
            ends = np.arange(k)
            if rng.random() < 0.5:  # first appearance need not follow the index
                ends = np.array(rng.sample(range(k), k) * 2)
            terms = []
            for c in dict.fromkeys(ends.tolist()):
                share = int(degree[c]) / (2.0 * m)
                terms.append(int(intra[c]) / m - share * share)
            q = 0.0
            for term in terms:
                q += term
            assert community._q_sum(intra, degree, ends, m) == q
            pairwise += float(np.sum(terms)) != q
            exact += math.fsum(terms) != q
        assert pairwise > 100 and exact > 100


class TestPassQ:
    """Each pass's Q is ``modularity`` of the partition it induces, bit for bit."""

    def test_q_trace_equals_edge_scan_on_every_level(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        production = community._aggregate
        memberships: list[list[int]] = []  # per pass: position -> level node
        level_qs: list[float] = []

        def recorded(indptr, indices, self_loop, comm):
            aggregated = production(indptr, indices, self_loop, comm)
            super_node = aggregated[-1].tolist()
            previous = memberships[-1] if memberships else range(len(comm))
            memberships.append([super_node[node] for node in previous])
            neighbours, strength = level_lists(indptr, indices, self_loop)
            level_qs.append(weighted_q(neighbours, strength, comm, sum(strength) / 2))
            return aggregated

        monkeypatch.setattr(community, "_aggregate", recorded)
        rng = random.Random(37)
        cases = []
        for _ in range(120):
            g = random_digraph(rng, rng.randint(5, 80), rng.uniform(0.02, 0.3))
            cases.append((g, rng.randrange(1000)))
        # Graphs with isolated nodes, and the same graphs with sparse ids.
        for k, (g, seed) in enumerate(random_graphs(200, 59)):
            cases += [(g, seed), (with_sparse_ids(g, k)[0], seed)]
        multi_level = with_isolated = 0
        for g, seed in cases:
            memberships.clear()
            level_qs.clear()
            part = detect_multilevel(g, seed=seed)
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
            with_isolated += bool((np.diff(g.indptr) == 0).any())
        assert multi_level >= 100 and with_isolated >= 200

    def test_aggregate_keeps_internal_weight_and_degree(self):
        for case in range(240):
            rng = random.Random(case)
            indptr, indices, self_loop = random_weighted_level(rng)
            n = len(self_loop)
            comm = [rng.randrange(max(1, n // 3)) for _ in range(n)]
            new_ptr, new_indices, new_loop, super_node = community._aggregate(
                indptr, indices, self_loop, comm)
            relabel = dict(zip(comm, super_node.tolist()))
            assert super_node.tolist() == [relabel[c] for c in comm]
            assert sorted(relabel.values()) == list(range(len(new_loop)))
            new_rows = _csr_rows(new_ptr, new_indices)
            intra, degree = level_totals(*level_lists(indptr, indices, self_loop), comm)
            for c, k in relabel.items():
                assert k not in new_rows[k]
                assert new_loop[k] == intra[c]
                assert len(new_rows[k]) + 2.0 * new_loop[k] == degree[c]


def random_graphs(count, seed):
    """``count`` (graph, detect seed) cases: random digraphs of 5-120 nodes at
    arc probability 0.02-0.3 whose last 0-3 nodes are isolated, with detect
    seeds 0-2 in turn."""
    rng = random.Random(seed)
    for case in range(count):
        n, isolated = rng.randint(5, 120), rng.randint(0, 3)
        p = rng.uniform(0.02, 0.3)
        edges = [(u, v) for u in range(n - isolated) for v in range(n - isolated)
                 if u != v and rng.random() < p]
        yield make_graph(n, edges), case % 3


def planted_groups(groups, size, p_in, p_out, seed=0):
    """A random digraph of ``groups`` blocks of ``size`` nodes: an arc with
    probability ``p_in`` inside a block and ``p_out`` between blocks, so
    the aggregated levels carry heavy pair weights."""
    rng = random.Random(seed)
    n = groups * size
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < (p_in if u // size == v // size else p_out)]
    return make_graph(n, edges, app_id=f"planted-{groups}x{size}")


@pytest.fixture(scope="module")
def planted():
    return [planted_groups(20, 30, 0.9, 0.1), planted_groups(40, 25, 0.8, 0.05)]


def assert_dict_level_identity(graph, seed, part=None):
    """``part`` (by default ``detect_multilevel(graph, seed)``) equals the
    dict-level Louvain's partition in labels, Q trace, Q and count."""
    part = part or detect_multilevel(graph, seed)
    expected = dict_level_multilevel(graph, seed)
    assert np.array_equal(part.labels, expected.labels), (graph.app_id, seed)
    assert part.q_trace == expected.q_trace
    assert part.modularity_q == expected.modularity_q
    assert part.community_count == expected.community_count


class TestDictLevelIdentity:
    """Unit-arc levels give the dict-level Louvain's partitions bit for bit:
    each candidate community enters the gain dict in the same order, and
    every weight sum is an exact integer."""

    def test_random_digraphs(self):
        cases = with_isolated = multi_level = 0
        for g, seed in random_graphs(1200, 43):
            part = detect_multilevel(g, seed)
            assert_dict_level_identity(g, seed, part)
            cases += 1
            with_isolated += bool((np.diff(g.indptr) == 0).any())
            multi_level += len(part.q_trace) > 1
        assert cases == 1200 and with_isolated >= 600 and multi_level >= 600

    def test_generated_corpora(self, generated_corpora, queue_partitions):
        for corpus, per_seed in zip(generated_corpora, queue_partitions):
            for seed, parts in zip(DETECT_SEEDS, per_seed):
                for g, part in zip(corpus, parts):
                    assert_dict_level_identity(g, seed, part)

    def test_sparse_ids(self, generated_corpora):
        graphs = [g for g, _ in random_graphs(100, 47)] + generated_corpora[0][:6]
        for k, g in enumerate(graphs):
            sparse, _ = with_sparse_ids(g, k)
            assert max(sparse.ids) >= 2**63
            assert_dict_level_identity(sparse, k % 3)

    def test_planted_groups(self, planted):
        for g in planted:
            for seed in (0, 1):
                assert_dict_level_identity(g, seed)


class TestLevelCost:
    """A unit-arc level costs no more than level 0: aggregation keeps the
    total weight, so arcs plus twice the self-loops stay 2 x pair_count.
    Every level is integer: self-loops, strengths and the pair total."""

    def test_no_level_holds_more_arcs_than_the_graph(self, monkeypatch, planted):
        production, moving = community._aggregate, community._local_moving
        levels = []
        strengths = []

        def recorded(indptr, indices, self_loop, comm):
            aggregated = production(indptr, indices, self_loop, comm)
            levels.extend([(indptr, indices, self_loop), aggregated[:3]])
            return aggregated

        def recorded_moving(neighbours, strength, total_w, rng):
            strengths.append((strength, total_w))
            return moving(neighbours, strength, total_w, rng)

        monkeypatch.setattr(community, "_aggregate", recorded)
        monkeypatch.setattr(community, "_local_moving", recorded_moving)
        checked = 0
        for g in [g for g, _ in random_graphs(300, 53)] + planted:
            levels.clear()
            strengths.clear()
            detect_multilevel(g)
            for indptr, indices, self_loop in levels:
                assert indptr[0] == 0 and indptr[-1] == len(indices)
                assert len(indices) + 2 * self_loop.sum() == 2 * g.pair_count
                assert len(indices) <= 2 * g.pair_count
                assert np.issubdtype(self_loop.dtype, np.integer)
                checked += 1
            for strength, total_w in strengths:
                assert all(type(k) is int for k in strength)
                assert type(total_w) is int and sum(strength) == 2 * total_w
        assert checked >= 600


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
