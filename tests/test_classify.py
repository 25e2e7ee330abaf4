import logging
import math
import random
from dataclasses import astuple, replace

import numpy as np
import pytest

from homgraph.classify import (
    ConfusionCounts,
    DatasetError,
    LabeledSample,
    _mean,
    cross_validate,
    metrics,
    stratified_folds,
    threshold_sweep,
)
from homgraph.model import BENIGN, MALWARE, load_catalog
from homgraph import generate, pipeline


def sample(app_id, label, *coords):
    return LabeledSample(app_id, label, np.array(coords, dtype=np.float64))


def two_points(benign=2, malware=2):
    """Benign samples at the origin and malware at (10, 10).

    Samples of one class are identical, so no fold assignment changes what a
    held-out sample sees: its own class at distance 0, the other class far.
    """
    return ([sample(f"b{i}", BENIGN, 0.0, 0.0) for i in range(benign)]
            + [sample(f"m{i}", MALWARE, 10.0, 10.0) for i in range(malware)])


def tetrahedron(first_label):
    """Two samples per class at the corners of a regular tetrahedron.

    Every pair of corners is at squared distance 8, so under ``folds=2`` each
    held-out sample ties between its two training rows, one per class, at a
    distance above 0. ``first_label``'s samples are listed first.
    """
    other = MALWARE if first_label == BENIGN else BENIGN
    corners = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    labels = [first_label, first_label, other, other]
    return [sample(f"{label}{i}", label, *corner)
            for i, (label, corner) in enumerate(zip(labels, corners))]


def tied_dataset(first_label):
    """Two samples per class, all at one point, ``first_label``'s listed first.

    Under ``folds=2`` each fold trains on one sample of each class, in list
    order, and every distance ties at 0.
    """
    other = MALWARE if first_label == BENIGN else BENIGN
    return [sample(f"{label}{i}", label, 0.0, 0.0)
            for label in (first_label, other) for i in range(2)]


class TestKnnPredict:
    """The kNN rule, through ``cross_validate`` on datasets whose every fold
    assignment gives the same counts."""

    def test_exact_training_point(self):
        # Each held-out sample sits on a training row of its own class.
        report = cross_validate(two_points(), folds=2, k=1, seed=0)
        assert report.micro_counts == ConfusionCounts(tp=2, tn=2, fp=0, fn=0)

    def test_three_neighbor_vote(self):
        # Each fold trains on one benign and two malware rows. Three
        # neighbours outvote a held-out benign sample's benign twin; one does not.
        data = two_points(malware=4)
        report = cross_validate(data, folds=2, k=3, seed=0)
        assert report.micro_counts == ConfusionCounts(tp=4, tn=0, fp=2, fn=0)
        report = cross_validate(data, folds=2, k=1, seed=0)
        assert report.micro_counts == ConfusionCounts(tp=4, tn=2, fp=0, fn=0)

    def test_distance_tie_breaks_by_insertion_order(self):
        # Every held-out sample takes the label of the first training sample,
        # whether the tie is at distance 0 or above it.
        for data in (tied_dataset, tetrahedron):
            report = cross_validate(data(BENIGN), folds=2, k=1, seed=0)
            assert report.micro_counts == ConfusionCounts(tp=0, tn=2, fp=0, fn=2)
            report = cross_validate(data(MALWARE), folds=2, k=1, seed=0)
            assert report.micro_counts == ConfusionCounts(tp=2, tn=0, fp=2, fn=0)

    def test_vote_tie_breaks_toward_malware(self):
        # One neighbour of each class: malware, whichever is nearer or
        # listed first.
        tied = [make(first) for make in (tied_dataset, tetrahedron)
                for first in (BENIGN, MALWARE)]
        for data in (two_points(), *tied):
            report = cross_validate(data, folds=2, k=2, seed=0)
            assert report.micro_counts == ConfusionCounts(tp=2, tn=0, fp=2, fn=0)

    def test_empty_training_set(self):
        with pytest.raises(DatasetError, match="need both classes"):
            cross_validate([], folds=2, k=1, seed=0)

    def test_k_out_of_range(self):
        # k < 1 would vote among no training rows, or among all but the -k
        # farthest; k above the smallest training fold is TestCrossValidate's.
        data = cloud_dataset(per_class=4)
        assert cross_validate(data, folds=2, k=1, seed=0).macro.accuracy == 1.0
        for k in (0, -3):
            with pytest.raises(DatasetError, match=f"k must be at least 1, got {k}"):
                cross_validate(data, folds=2, k=k, seed=0)
            with pytest.raises(DatasetError, match=f"k must be at least 1, got {k}"):
                threshold_sweep([1.0], [data], k=k, folds=2)

    def test_dimension_mismatch(self):
        # A wider malware row among two-value rows, as the query or in training.
        data = [*tied_dataset(BENIGN), sample("wide", MALWARE, 0.0, 0.0, 0.0)]
        with pytest.raises(DatasetError, match="dimension"):
            cross_validate(data, folds=2, k=1, seed=0)


class TestMetrics:
    def test_perfect_classifier(self):
        report = metrics(ConfusionCounts(tp=1, tn=1, fp=0, fn=0))
        assert (report.tpr, report.fnr, report.fpr) == (1.0, 0.0, 0.0)
        assert report.accuracy == 1.0 and report.f_measure == 1.0

    def test_all_misses(self):
        report = metrics(ConfusionCounts(tp=0, fn=1))
        assert report.tpr == 0.0 and report.fnr == 1.0

    def test_scaled_reference_row(self):
        report = metrics(ConfusionCounts(tp=968, fn=32, tn=958, fp=42))
        assert report.fnr == pytest.approx(0.032, abs=1e-12)
        assert report.fpr == pytest.approx(0.042, abs=1e-12)
        assert report.tpr == pytest.approx(0.968, abs=1e-12)

    def test_zero_over_zero_reported_as_zero(self):
        report = metrics(ConfusionCounts())
        assert report == metrics(ConfusionCounts(0, 0, 0, 0))
        for value in vars(report).values():
            assert value == 0.0

    def test_identities_on_random_counts(self):
        rng = random.Random(8)
        for _ in range(1000):
            counts = ConfusionCounts(
                tp=rng.randint(0, 50), tn=rng.randint(0, 50),
                fp=rng.randint(0, 50), fn=rng.randint(0, 50),
            )
            report = metrics(counts)
            if counts.tp + counts.fn > 0:
                assert report.tpr + report.fnr == pytest.approx(1.0, abs=1e-12)
            if counts.tn + counts.fp > 0:
                assert report.tnr + report.fpr == pytest.approx(1.0, abs=1e-12)
            p, r = report.precision, report.recall
            if p + r > 0:
                assert report.f_measure == pytest.approx(2 * p * r / (p + r), abs=1e-12)
            else:
                assert report.f_measure == 0.0
            assert all(0.0 <= v <= 1.0 for v in vars(report).values())


def left_to_right_mean(values):
    total = 0.0
    for value in values:
        total = total + value
    return total / len(values)


def cloud_dataset(per_class=20, dim=3, spread=0.1, gap=10.0, seed=0):
    rng = random.Random(seed)
    data = []
    for i in range(per_class):
        data.append(sample(f"b{i}", BENIGN,
                           *(rng.gauss(0, spread) for _ in range(dim))))
        data.append(sample(f"m{i}", MALWARE,
                           *(rng.gauss(gap, spread) for _ in range(dim))))
    return data


class TestCrossValidate:
    def test_separable_clouds_perfect_accuracy(self):
        report = cross_validate(cloud_dataset(), folds=10, k=1, seed=0)
        assert report.macro.accuracy == 1.0
        assert report.micro_counts.total == 40

    def test_deterministic_given_seed(self):
        data = cloud_dataset(seed=3)
        a = cross_validate(data, folds=10, k=1, seed=42)
        b = cross_validate(data, folds=10, k=1, seed=42)
        assert a == b

    def test_fold_partition_exact(self):
        data = cloud_dataset(per_class=17)
        folds = stratified_folds(data, 5, seed=1)
        assert len(folds) == len(data)
        assert set(folds) == set(range(5))

    def test_stratification_within_one_sample(self):
        data = cloud_dataset(per_class=23)
        folds = 7
        assignment = stratified_folds(data, folds, seed=5)
        for label in (BENIGN, MALWARE):
            per_fold = [0] * folds
            for s, f in zip(data, assignment):
                if s.label == label:
                    per_fold[f] += 1
            assert max(per_fold) - min(per_fold) <= 1

    def test_class_too_small(self):
        data = cloud_dataset(per_class=3)
        with pytest.raises(DatasetError, match="needs >="):
            cross_validate(data, folds=10, k=1, seed=0)

    def test_single_class_rejected(self):
        data = [sample(f"b{i}", BENIGN, i) for i in range(20)]
        with pytest.raises(DatasetError, match="both classes"):
            cross_validate(data, folds=2, k=1, seed=0)

    def test_dimension_mismatch_rejected(self):
        data = cloud_dataset(per_class=5)
        data.append(sample("odd", BENIGN, 1.0))
        with pytest.raises(DatasetError, match="dimension"):
            cross_validate(data, folds=2, k=1, seed=0)

    def test_k_above_smallest_training_fold_rejected(self):
        # 11 per class in 5 folds: the largest fold holds 6, so 16 train.
        data = cloud_dataset(per_class=11)
        assert cross_validate(data, folds=5, k=16, seed=0).micro_counts.total == 22
        message = "k=17 exceeds the smallest training fold of 16 samples"
        with pytest.raises(DatasetError, match=message):
            cross_validate(data, folds=5, k=17, seed=0)
        with pytest.raises(DatasetError, match=message):
            threshold_sweep([1.0], [data], k=17, folds=5)

    def test_macro_is_mean_of_fold_rates(self):
        # Fold rates sum left to right from 0.0, as ``sum`` did before CPython
        # 3.12: not compensated (``sum`` from 3.12, ``math.fsum``) and not
        # pairwise (``np.mean``). The overlapping clouds give fold rates on
        # which those orders disagree.
        assert _mean([0.1] * 10) == 0.09999999999999999  # compensated: 0.1
        cases = [(cloud_dataset(per_class=15), 5, 3, 2),
                 (cloud_dataset(per_class=30, spread=1.0, gap=1.0, seed=5), 10, 3, 5)]
        for data, folds, k, seed in cases:
            report = cross_validate(data, folds, k, seed)
            columns = list(zip(*(astuple(metrics(c)) for c in report.fold_counts)))
            expected = [left_to_right_mean(c) for c in columns]
            assert list(astuple(report.macro)) == expected
        assert expected != [math.fsum(c) / len(c) for c in columns]
        assert expected != [float(np.mean(c)) for c in columns]


@pytest.fixture(scope="module")
def small_corpus():
    catalog = load_catalog()
    spec = generate.SyntheticSpec()
    corpus = generate.generate_corpus(spec, 12, 12, catalog)
    return [g for g, _ in corpus], catalog


class TestThresholdSweep:
    def test_empty_threshold_list(self):
        assert threshold_sweep([], []) == ()
        with pytest.raises(ValueError, match="1 thresholds but 0 datasets"):
            threshold_sweep([1.0], [])

    def test_row_per_threshold(self, small_corpus):
        graphs, catalog = small_corpus
        analyses = pipeline.analyze_corpus(graphs, catalog, (1.0, 3.0))
        datasets = pipeline.samples_by_threshold(analyses, 2)
        rows = threshold_sweep([1.0, 3.0], datasets, folds=4)
        assert [r.threshold for r in rows] == [1.0, 3.0]
        assert all(r.sample_count == 24 for r in rows)
        assert [r.report for r in rows] == [cross_validate(d, 4, 1, 0) for d in datasets]

    def test_unlabeled_graph_skipped_not_fatal(self, small_corpus, caplog):
        graphs, catalog = small_corpus
        broken = replace(graphs[0], app_id="broken", ground_truth=None)
        analyses = pipeline.analyze_corpus([broken, *graphs], catalog, (3.0,))
        with caplog.at_level(logging.WARNING):
            dataset, = pipeline.samples_by_threshold(analyses, 1)
        rows = threshold_sweep([3.0], [dataset], folds=4)
        assert rows[0].sample_count == 24
        assert any("broken" in rec.getMessage() for rec in caplog.records)
