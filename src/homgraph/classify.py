"""kNN classification, confusion metrics, and the cross-validation harness.

Distance is Euclidean. Distance ties resolve by training-set insertion
order; vote ties resolve toward malware, since a missed malicious sample
costs more than a false alarm. Fold assignment is stratified by label from
a seeded shuffle, so identical seeds reproduce identical reports. Macro
rates average the fold rates left to right from 0.0, as ``sum`` did before
CPython 3.12, so their bits do not depend on the CPython minor version.
"""

from __future__ import annotations

import random
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .model import LABELS, MALWARE, InputError


class DatasetError(InputError):
    """Dataset cannot support the requested evaluation."""


@dataclass(frozen=True, eq=False)
class LabeledSample:
    app_id: str
    label: str
    vector: np.ndarray

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise DatasetError(f"sample {self.app_id!r} has label {self.label!r}")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    tpr: float
    fnr: float
    tnr: float
    fpr: float
    accuracy: float
    precision: float
    recall: float
    f_measure: float


@dataclass(frozen=True)
class CrossValidationReport:
    """Macro rates (mean of per-fold rates) plus pooled counts per fold."""

    macro: MetricsReport
    micro_counts: ConfusionCounts
    fold_counts: tuple[ConfusionCounts, ...]


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    report: CrossValidationReport
    sample_count: int


def metrics(counts: ConfusionCounts) -> MetricsReport:
    """All eight confusion-derived rates; any 0/0 ratio is reported as 0."""

    def ratio(num: int, den: int) -> float:
        return num / den if den > 0 else 0.0

    tpr = ratio(counts.tp, counts.tp + counts.fn)
    fnr = ratio(counts.fn, counts.tp + counts.fn)
    tnr = ratio(counts.tn, counts.tn + counts.fp)
    fpr = ratio(counts.fp, counts.tn + counts.fp)
    accuracy = ratio(counts.tp + counts.tn, counts.total)
    precision = ratio(counts.tp, counts.tp + counts.fp)
    recall = tpr
    f_den = precision + recall
    f_measure = 2.0 * precision * recall / f_den if f_den > 0 else 0.0
    return MetricsReport(tpr, fnr, tnr, fpr, accuracy, precision, recall, f_measure)


def _mean(values: Sequence[float]) -> float:
    """Sum left to right from 0.0, then divide. ``sum`` did this before
    CPython 3.12; from 3.12 it compensates float sums."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def stratified_folds(
    dataset: Sequence[LabeledSample], folds: int, seed: int
) -> list[int]:
    """Fold index per sample; per-fold class counts stay within one sample."""
    if folds < 2:
        raise DatasetError("folds must be at least 2")
    assignment = [0] * len(dataset)
    rng = random.Random(seed)
    for label in LABELS:
        indices = [i for i, s in enumerate(dataset) if s.label == label]
        if 0 < len(indices) < folds:
            raise DatasetError(
                f"class {label!r} has {len(indices)} samples; needs >= {folds}"
            )
        rng.shuffle(indices)
        for pos, idx in enumerate(indices):
            assignment[idx] = pos % folds
    return assignment


def cross_validate(
    dataset: Sequence[LabeledSample], folds: int, k: int, seed: int
) -> CrossValidationReport:
    """Stratified k-fold evaluation with macro-averaged rates."""
    if k < 1:
        raise DatasetError(f"k must be at least 1, got {k}")
    if len({s.vector.shape[0] for s in dataset}) > 1:
        raise DatasetError("all samples must share one vector dimension")
    present = {s.label for s in dataset}
    if present != set(LABELS):
        raise DatasetError(f"need both classes, got {sorted(present)}")
    fold_of = np.array(stratified_folds(dataset, folds, seed))
    smallest_train = len(dataset) - int(np.bincount(fold_of).max())
    if k > smallest_train:
        raise DatasetError(
            f"k={k} exceeds the smallest training fold of {smallest_train} samples"
        )

    malware = np.array([s.label == MALWARE for s in dataset])
    fold_counts = []
    for fold in range(folds):
        train = np.flatnonzero(fold_of != fold)
        test = np.flatnonzero(fold_of == fold)
        # A fresh stack per fold, in row order: numpy does not promise a row's
        # distance bits wherever the row sits in memory.
        matrix = np.stack([dataset[i].vector for i in train])
        matrix = matrix.astype(np.float64, copy=False)
        flagged = []
        for i in test:
            diff = matrix - dataset[i].vector
            order = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")
            flagged.append(2 * np.count_nonzero(malware[train[order[:k]]]) >= k)
        tn, fp, fn, tp = np.bincount(2 * malware[test] + flagged, minlength=4).tolist()
        fold_counts.append(ConfusionCounts(tp, tn, fp, fn))

    macro = MetricsReport(*map(_mean, zip(*(astuple(metrics(c)) for c in fold_counts))))
    micro = ConfusionCounts(*map(sum, zip(*map(astuple, fold_counts))))
    return CrossValidationReport(macro, micro, tuple(fold_counts))


def threshold_sweep(
    thresholds: Sequence[float],
    datasets: Sequence[Sequence[LabeledSample]],
    *,
    k: int = 1,
    folds: int = 10,
    seed: int = 0,
) -> tuple[SweepRow, ...]:
    """Cross-validate the dataset of each threshold, in order.

    ``datasets[i]`` holds the samples featurized at ``thresholds[i]``; the
    pipeline builds them all from one coupling pass per graph.
    """
    if len(thresholds) != len(datasets):
        raise ValueError(f"{len(thresholds)} thresholds but {len(datasets)} datasets")
    return tuple(
        SweepRow(threshold, cross_validate(samples, folds, k, seed), len(samples))
        for threshold, samples in zip(thresholds, datasets)
    )
