"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass. The shared 200+200 synthetic corpus is built once per session. Two
more tests pin the paper's claims on it and on a small corpus: the
suspicious subgraph earns its place against the whole graph, and a payload
coupled above the threshold evades detection.
"""

import json
import random
import time

import pytest

from homgraph import classify, community, generate, pipeline
from homgraph.cli import main
from homgraph.features import SELECTED_TRIADS, featurize, ratio_features, triad_census
from homgraph.homophily import DEFAULT_THRESHOLD, PartitionOutcome, coupling_from_counts
from homgraph.model import SensitiveApiCatalog, load_catalog

from conftest import barbell, make_graph, random_digraph
from oracles import brute_census, partition_of
from test_features import FIG_EDGES, FIG_NAMES


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


@pytest.fixture(scope="module")
def corpus(catalog):
    return generate.generate_corpus(generate.SyntheticSpec(), 200, 200, catalog)


# Criterion 7's sweep; the analyses carry one feature vector per threshold,
# the default's first.
SWEEP = (1.0, 2.0, 3.0, 4.0, 5.0, 1e9)
THRESHOLDS = (DEFAULT_THRESHOLD, *SWEEP)


@pytest.fixture(scope="module")
def analyses(corpus, catalog):
    start = time.perf_counter()
    results = pipeline.analyze_corpus([g for g, _ in corpus], catalog, THRESHOLDS)
    return results, time.perf_counter() - start


def test_criterion_1_classroom_coupling():
    start = time.perf_counter()
    rep = coupling_from_counts(12, 6, 9, 4, 5)
    elapsed = time.perf_counter() - start
    ok = (
        abs(rep.cross_fraction - 5 / 18) <= 1e-12
        and abs(rep.chance_expectation - 8 / 18) <= 1e-12
        and abs(rep.c - 0.625) <= 1e-9
        and elapsed < 0.1
    )
    report(1, "classroom coupling 5/18 vs 8/18 gives c = 0.625", ok,
           f"c={rep.c!r}, {elapsed * 1000:.2f} ms")


def test_criterion_2_feature_dimensions(catalog):
    big = SensitiveApiCatalog(entries=tuple(f"api.pkg.C{i}.m{i}" for i in range(426)))
    g = make_graph(3, [(0, 1)])
    outcome = PartitionOutcome(frozenset(), (), g, 3.0)
    dim_big = len(featurize(outcome, big))
    dim_desk = len(featurize(outcome, catalog))
    ok = dim_big == 2982 and dim_desk == 70
    report(2, "426-entry catalog gives 2,982 dims; 10-entry gives 70", ok,
           f"{dim_big} and {dim_desk}")


def test_criterion_3_worked_ratio_example():
    catalog = SensitiveApiCatalog(entries=("api5", "api6"))
    g = make_graph(6, FIG_EDGES, sensitive=[4, 5], names=FIG_NAMES)
    totals, _, sensitive = brute_census(g, catalog)
    construction_ok = (
        tuple(totals[t] for t in SELECTED_TRIADS) == (2, 0, 3, 0, 1, 0)
        and sensitive[(0, "021C")] == 1
    )
    census = triad_census(g, catalog)
    ratios = ratio_features(census, catalog)
    idx = SELECTED_TRIADS.index("021C")
    ok = construction_ok and ratios[idx] == 1 / 3
    report(3, "six-node worked example: (API 5, 021C) feature is exactly 1/3", ok,
           f"ratio={ratios[idx]!r}")


def test_criterion_4_census_oracle_equivalence():
    rng = random.Random(2024)
    start = time.perf_counter()
    checked = 0
    ok = True
    catalog = SensitiveApiCatalog(entries=("api5", "api6"))
    for i in range(200):
        n = rng.randint(3, 30)
        names = {j: f"fn{j}" for j in range(n)}
        for j in rng.sample(range(n), k=min(n, 2)):
            names[j] = f"x.api{5 + j % 2}.y"
        g = make_graph(
            n,
            [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < rng.choice([0.05, 0.15, 0.3])],
            names=names,
        )
        census = triad_census(g, catalog)
        totals, edgeless, sensitive = brute_census(g, catalog)
        n_triples = n * (n - 1) * (n - 2) // 6
        if (
            census.total_counts != totals
            or census.edgeless_triples != edgeless
            or census.sensitive_counts != sensitive
            or sum(census.total_counts.values()) + census.edgeless_triples != n_triples
        ):
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == 200 and elapsed < 10.0
    report(4, "production census equals brute force on 200 digraphs", ok,
           f"{checked} graphs, {elapsed:.1f} s")


def test_criterion_5_modularity_and_louvain():
    g = barbell()
    split = partition_of(g, {i: (0 if i < 4 else 1) for i in range(8)})
    q_hand = community.modularity(g, split)
    detected = community.detect_multilevel(g, seed=0)
    recovers = detected.community_count == 2 and (
        {frozenset(range(4)), frozenset(range(4, 8))} == set(detected.communities())
    )
    monotone = True
    rng = random.Random(5)
    for _ in range(100):
        h = random_digraph(rng, rng.randint(6, 60), rng.uniform(0.05, 0.3))
        trace = community.detect_multilevel(h, seed=1).q_trace
        if any(b < a - 1e-9 for a, b in zip(trace, trace[1:])):
            monotone = False
            break
    ok = abs(q_hand - (12 / 13 - 0.5)) <= 1e-9 and recovers and monotone
    report(5, "barbell Q = 12/13 - 1/2, split recovered, Q non-decreasing", ok,
           f"Q={q_hand!r}")


def test_criterion_6_end_to_end_detection(corpus, analyses, catalog):
    results, analyze_seconds = analyses
    start = time.perf_counter()
    samples = pipeline.samples_by_threshold(results, len(THRESHOLDS))[0]
    cv = classify.cross_validate(samples, folds=10, k=1, seed=0)
    elapsed = analyze_seconds + (time.perf_counter() - start)
    ok = (
        len(samples) == 400
        and cv.macro.fnr <= 0.05
        and cv.macro.fpr <= 0.05
        and elapsed < 300.0
    )
    report(6, "200+200 corpus: FNR and FPR at most 0.05 with defaults", ok,
           f"FNR={cv.macro.fnr:.4f}, FPR={cv.macro.fpr:.4f}, {elapsed:.0f} s")


# Whole-graph FNR minus pipeline FNR on 200+200 corpora (10 folds, 1NN)
# was 0.33, 0.275, 0.27, 0.375, 0.25, 0.32, 0.285 and 0.335 for generator
# seeds 0-7: mean 0.305, standard deviation 0.042. The margin sits three
# deviations below the mean.
ABLATION_MARGIN = 0.18


def test_suspicious_subgraph_beats_whole_graph(corpus, analyses, catalog):
    # The paper's central claim: features of the low-coupling subgraph
    # detect covert payloads that the same features of the whole app miss.
    results, _ = analyses
    pipeline_cv = classify.cross_validate(
        pipeline.samples_by_threshold(results, len(THRESHOLDS))[0], folds=10, k=1, seed=0)
    whole = [
        classify.LabeledSample(graph.app_id, graph.ground_truth,
                               featurize(PartitionOutcome(frozenset(), (), graph, 3.0), catalog))
        for graph, _ in corpus
    ]
    whole_cv = classify.cross_validate(whole, folds=10, k=1, seed=0)
    gap = whole_cv.macro.fnr - pipeline_cv.macro.fnr
    assert gap > ABLATION_MARGIN, (pipeline_cv.macro.fnr, whole_cv.macro.fnr)


def test_payload_coupled_above_threshold_evades(catalog):
    # What the method cannot see, by design: a payload wired to the benign
    # code more tightly than the threshold is filtered as benign, so its
    # suspicious subgraph is empty and its row is a benign graph's all-zero
    # row. The same seed with the default target is detected in full.
    for target, expected_fnr in ((2.0, 0.0), (5.0, 1.0)):
        spec = generate.SyntheticSpec(seed=7, planted_coupling_target=target)
        corpus = generate.generate_corpus(spec, 10, 10, catalog)
        results = pipeline.analyze_corpus([g for g, _ in corpus], catalog)
        covert = [a for a in results if a.label == "malware"]
        if target > 3.0:
            assert all(not json.loads(a.report)["suspicious_nodes"] for a in covert)
            assert all(not a.vectors[0].any() for a in results)
        cv = classify.cross_validate(pipeline.samples_by_threshold(results, 1)[0],
                                     folds=5, k=1, seed=0)
        assert cv.macro.fnr == expected_fnr, target


def test_criterion_7_threshold_sweep_shape(analyses, catalog):
    results, _ = analyses
    _, *datasets = pipeline.samples_by_threshold(results, len(THRESHOLDS))
    rows = classify.threshold_sweep(SWEEP, datasets)
    five = [r for r in rows if r.threshold != 1e9]
    f_at_3 = next(r.report.macro.f_measure for r in rows if r.threshold == 3.0)
    f_extreme = next(r.report.macro.f_measure for r in rows if r.threshold == 1e9)
    ok = len(five) == 5 and f_at_3 >= f_extreme
    report(7, "sweep emits 5 rows and F(tau=3) >= F(tau=1e9)", ok,
           f"F3={f_at_3:.3f}, Fext={f_extreme:.3f}")


def test_criterion_8_suspicious_recovery(corpus, analyses):
    results, _ = analyses
    by_id = {a.app_id: a for a in results}
    scores = []
    for graph, truth in corpus:
        if truth.label != "malware" or len(scores) >= 100:
            continue
        susp = set(json.loads(by_id[graph.app_id].report)["suspicious_nodes"])
        planted = set(truth.planted_nodes)
        union = susp | planted
        scores.append(len(susp & planted) / len(union) if union else 0.0)
    mean = sum(scores) / len(scores)
    ok = len(scores) == 100 and mean >= 0.9
    report(8, "mean Jaccard(suspicious, planted) over 100 covert graphs >= 0.9",
           ok, f"mean={mean:.3f}")


def test_criterion_9_cli_determinism(tmp_path):
    def run(*argv):
        assert main(list(argv)) == 0

    def tree(root):
        return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    outputs = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        corpus = base / "corpus"
        run("gen", "--benign", "3", "--covert", "3", "--seed", "11",
            "--out", str(corpus))
        covert = corpus / "malware-0000.json"
        run("partition", str(covert), "--out", str(base / "partition.json"))
        run("covertness", str(covert), "--out", str(base / "covertness.json"))
        run("analyze", str(corpus), "--out", str(base / "analysis"))
        run("eval", str(corpus), "--folds", "3", "--sweep", "1,3",
            "--out", str(base / "eval.json"))
        outputs.append(tree(base))
    ok = outputs[0] == outputs[1]
    report(9, "every CLI subcommand reruns byte-identically", ok,
           f"{len(outputs[0])} files compared")


def test_criterion_10_large_graph_latency(catalog):
    spec = generate.SyntheticSpec(
        node_count=5612,
        community_count=224,
        intra_edge_prob=0.18,
        inter_edge_prob=0.0001,
        planted_sensitive_community_size=12,
    )
    graph, _ = generate.generate_corpus(spec, 0, 1, catalog)[0]
    size_ok = 5000 <= graph.node_count <= 6200 and 11000 <= graph.edge_count <= 13500
    start = time.perf_counter()
    analysis = pipeline.analyze_graph(graph, catalog)
    elapsed = time.perf_counter() - start
    ok = size_ok and elapsed <= 5.0 and analysis.vectors[0].shape == (70,)
    report(10, "analyze on a ~5,600-node / ~12,100-edge graph within 5 s", ok,
           f"{graph.node_count} nodes, {graph.edge_count} edges, {elapsed:.2f} s")
