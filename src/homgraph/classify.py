"""kNN classification, confusion metrics, and the cross-validation harness.

Distance is Euclidean. Distance ties resolve by training-set insertion
order; vote ties resolve toward malware, since a missed malicious sample
costs more than a false alarm. Fold assignment is stratified by label from
a seeded shuffle, so identical seeds reproduce identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import BENIGN, LABELS, MALWARE, InputError


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

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp,
            self.tn + other.tn,
            self.fp + other.fp,
            self.fn + other.fn,
        )


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


def _nearest_labels(
    matrix: np.ndarray, labels: Sequence[str], query: np.ndarray, k: int
) -> list[str]:
    diff = matrix - query
    dist2 = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(dist2, kind="stable")[:k]
    return [labels[i] for i in order]


def _vote(nearest: Sequence[str]) -> str:
    malicious = sum(1 for lab in nearest if lab == MALWARE)
    return MALWARE if 2 * malicious >= len(nearest) else BENIGN


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
    fold_of = stratified_folds(dataset, folds, seed)
    smallest_train = len(dataset) - int(np.bincount(fold_of).max())
    if k > smallest_train:
        raise DatasetError(
            f"k={k} exceeds the smallest training fold of {smallest_train} samples"
        )

    fold_counts: list[ConfusionCounts] = []
    for fold in range(folds):
        train = [s for s, f in zip(dataset, fold_of) if f != fold]
        test = [s for s, f in zip(dataset, fold_of) if f == fold]
        matrix = np.stack([s.vector for s in train]).astype(np.float64, copy=False)
        labels = [s.label for s in train]
        tp = tn = fp = fn = 0
        for sample in test:
            predicted = _vote(_nearest_labels(matrix, labels, sample.vector, k))
            if sample.label == MALWARE:
                if predicted == MALWARE:
                    tp += 1
                else:
                    fn += 1
            else:
                if predicted == BENIGN:
                    tn += 1
                else:
                    fp += 1
        fold_counts.append(ConfusionCounts(tp, tn, fp, fn))

    fold_reports = [metrics(c) for c in fold_counts]
    macro = MetricsReport(
        *(
            sum(getattr(r, name) for r in fold_reports) / folds
            for name in (
                "tpr", "fnr", "tnr", "fpr",
                "accuracy", "precision", "recall", "f_measure",
            )
        )
    )
    micro = ConfusionCounts()
    for c in fold_counts:
        micro = micro + c
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
