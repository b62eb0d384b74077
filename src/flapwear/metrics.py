"""Evaluation metrics for the staged classifiers.

Confusion matrices with per-class precision/recall/F1, accuracy and
macro-F1, confidence statistics over correct vs. incorrect predictions,
and ROC curves with trapezoidal AUC. Confusion counts
(``ConfusionMatrix.from_indices``) and the ROC sweep
(``roc_from_scores``) work on whole arrays of samples; means and the AUC
are summed in Python floats. Zero-denominator metrics are encoded as
None ("n/a" in reports) rather than raised mid-report.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyInput, ValidationError
from .taxonomy import STAGE_CLASSES, StageId


class MetricsError(ValidationError):
    pass


class IndexOutOfRange(MetricsError):
    pass


class EmptyMatrix(MetricsError):
    pass


class UndefinedClassMetric(MetricsError):
    pass


class DegenerateInput(MetricsError):
    """ROC needs at least one positive and one negative sample."""


# round_report quantizes in decimal's default 28-digit context, and a
# report value can be 1.0, which takes 28 digits at 27 decimals.
MAX_DECIMALS = 27


def round_report(x: float, decimals: int = 3) -> float:
    """Round half away from zero, matching report table formatting."""
    q = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


@dataclass
class ConfusionMatrix:
    """Truth-vs-prediction counts; rows = true class, cols = predicted."""

    stage: StageId
    counts: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        n = len(STAGE_CLASSES[self.stage])
        if not self.counts:
            self.counts = [[0] * n for _ in range(n)]
        if len(self.counts) != n or any(len(row) != n for row in self.counts):
            raise IndexOutOfRange(f"matrix for {self.stage.value} must be {n}x{n}")
        if any(c < 0 for row in self.counts for c in row):
            raise IndexOutOfRange("counts must be non-negative")

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    @property
    def class_names(self) -> tuple[str, ...]:
        return STAGE_CLASSES[self.stage]

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @classmethod
    def from_indices(
        cls, stage: StageId, truth: np.ndarray, predicted: np.ndarray
    ) -> "ConfusionMatrix":
        """Counts of (truth, predicted) class-index pairs, one pair per sample."""
        n = len(STAGE_CLASSES[stage])
        truth, predicted = np.asarray(truth), np.asarray(predicted)
        inside = (truth >= 0) & (truth < n) & (predicted >= 0) & (predicted < n)
        if not inside.all():
            i = int(np.argmin(inside))
            raise IndexOutOfRange(f"indices ({truth[i]}, {predicted[i]}) outside 0..{n - 1}")
        counts = np.bincount(truth * n + predicted, minlength=n * n).reshape(n, n)
        return cls(stage, counts.tolist())


@dataclass(frozen=True)
class ClassMetrics:
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]


def class_metrics(cm: ConfusionMatrix, cls: int) -> ClassMetrics:
    """Precision, recall and F1 for one class; None when undefined."""
    if not 0 <= cls < cm.n_classes:
        raise IndexOutOfRange(f"class {cls} outside 0..{cm.n_classes - 1}")
    tp = cm.counts[cls][cls]
    col = sum(cm.counts[i][cls] for i in range(cm.n_classes))
    row = sum(cm.counts[cls])
    precision = tp / col if col else None
    recall = tp / row if row else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return ClassMetrics(precision, recall, f1)


def accuracy(cm: ConfusionMatrix) -> float:
    total = cm.total()
    if total == 0:
        raise EmptyMatrix("matrix has no counts")
    return sum(cm.counts[i][i] for i in range(cm.n_classes)) / total


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class F1, from unrounded precision/recall."""
    f1s = []
    for cls in range(cm.n_classes):
        m = class_metrics(cm, cls)
        if m.f1 is None:
            raise UndefinedClassMetric(f"F1 undefined for class {cm.class_names[cls]}")
        f1s.append(m.f1)
    return sum(f1s) / len(f1s)


@dataclass(frozen=True)
class RocCurve:
    stage: StageId
    positive_class: int
    points: tuple[tuple[float, float], ...]
    auc: float


def roc_curve(
    samples: Sequence[tuple[float, bool]],
    stage: StageId = StageId.USAGE,
    positive_class: int = 0,
) -> RocCurve:
    """ROC of (positive-class score, is_positive) samples; see roc_from_scores."""
    scores = np.array([score for score, _ in samples], dtype=float)
    positive = np.array([bool(pos) for _, pos in samples], dtype=bool)
    return roc_from_scores(scores, positive, stage, positive_class)


def roc_from_scores(
    scores: np.ndarray,
    positive: np.ndarray,
    stage: StageId = StageId.USAGE,
    positive_class: int = 0,
) -> RocCurve:
    """Threshold sweep over descending unique scores.

    scores[i] is sample i's positive-class score and positive[i] whether
    it is positive. Equal scores are processed as one step; AUC is the
    trapezoidal area under the resulting (FPR, TPR) polyline.
    """
    n_pos = int(np.count_nonzero(positive))
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInput("need at least one positive and one negative sample")

    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    tp = np.cumsum(positive[order])
    fp = np.arange(1, len(ordered) + 1) - tp
    step_ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))
    fpr, tpr = (fp[step_ends] / n_neg).tolist(), (tp[step_ends] / n_pos).tolist()
    points = [(0.0, 0.0), *zip(fpr, tpr)]
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))

    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return RocCurve(stage, positive_class, tuple(points), auc)


def pairwise_auc(samples: Sequence[tuple[float, bool]]) -> float:
    """AUC as P(score_pos > score_neg) + 0.5 * P(equal), by brute force.

    Independent O(n^2) cross-check of the trapezoidal ROC area.
    """
    pos = [s for s, p in samples if p]
    neg = [s for s, p in samples if not p]
    if not pos or not neg:
        raise DegenerateInput("need at least one positive and one negative sample")
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


@dataclass(frozen=True)
class ConfidenceStats:
    mean_all: float
    mean_false: Optional[float]
    count_all: int
    count_false: int


def confidence_stats(results: Sequence[tuple[float, bool]]) -> ConfidenceStats:
    """Mean confidence over all samples and over misclassified ones.

    results are (confidence, is_correct) pairs; mean_false is None when
    every prediction was correct.
    """
    if not results:
        raise EmptyInput("no results")
    false_confs = [conf for conf, correct in results if not correct]
    mean_all = sum(conf for conf, _ in results) / len(results)
    mean_false = sum(false_confs) / len(false_confs) if false_confs else None
    return ConfidenceStats(mean_all, mean_false, len(results), len(false_confs))


def matrix_summary(cm: ConfusionMatrix, decimals: int = 3) -> dict:
    """Machine-readable metric record for one stage."""
    per_class = {}
    for cls, name in enumerate(cm.class_names):
        m = class_metrics(cm, cls)
        per_class[name] = {
            "precision": None if m.precision is None else round_report(m.precision, decimals),
            "recall": None if m.recall is None else round_report(m.recall, decimals),
            "f1": None if m.f1 is None else round_report(m.f1, decimals),
        }
    try:
        mf1 = round_report(macro_f1(cm), decimals)
    except UndefinedClassMetric:
        mf1 = None
    return {
        "stage": cm.stage.value,
        "counts": [list(row) for row in cm.counts],
        "accuracy": round_report(accuracy(cm), decimals),
        "macro_f1": mf1,
        "per_class": per_class,
    }


def write_confusion_csv(cm: ConfusionMatrix, path: str | Path, decimals: int = 3) -> None:
    """Human-readable confusion table with per-class metric columns."""

    def fmt(v: Optional[float]) -> str:
        return "n/a" if v is None else f"{round_report(v, decimals):.{decimals}f}"

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\pred", *cm.class_names, "precision", "recall", "f1"])
        for cls, name in enumerate(cm.class_names):
            m = class_metrics(cm, cls)
            writer.writerow(
                [name, *cm.counts[cls], fmt(m.precision), fmt(m.recall), fmt(m.f1)]
            )

