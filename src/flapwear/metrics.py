"""Evaluation metrics for the staged classifiers.

Confusion matrices with per-class precision/recall/F1, accuracy and
macro-F1, mean confidence over all and over misclassified samples, and
ROC curves with trapezoidal AUC. Confusion counts, the confidence means
and the ROC sweep work on whole arrays of samples; means and the AUC are
summed in Python floats. ``matrix_summary`` and ``confidence_stats``
return a stage's rounded ``summary.json`` records, ``evaluate_report``
the whole record and each stage's CSV writers. Zero-denominator metrics
are encoded as None ("n/a" in reports) rather than raised.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import partial
from typing import Optional, Sequence, TextIO

import numpy as np

from .errors import EmptyInput, ValidationError
from .predictions import PredictionTable
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
    counts: list[list[int]]

    def __post_init__(self):
        n = len(STAGE_CLASSES[self.stage])
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
    points: tuple[tuple[float, float], ...]
    auc: float


def roc_curve(samples: Sequence[tuple[float, bool]]) -> RocCurve:
    """ROC of (positive-class score, is_positive) samples; see roc_from_scores."""
    scores = np.array([score for score, _ in samples], dtype=float)
    positive = np.array([bool(pos) for _, pos in samples], dtype=bool)
    return roc_from_scores(scores, positive)


def roc_from_scores(scores: np.ndarray, positive: np.ndarray) -> RocCurve:
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
    return RocCurve(tuple(points), auc)


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


def confidence_stats(confidence: np.ndarray, correct: np.ndarray, decimals: int = 3) -> dict:
    """Machine-readable confidence record for one stage, its means rounded.

    confidence[i] is sample i's winning probability and correct[i] whether its
    prediction was right; mean_false, over the wrong ones, is None when none is.
    """
    confidence, correct = np.asarray(confidence, dtype=float), np.asarray(correct, dtype=bool)
    if not len(confidence):
        raise EmptyInput("no results")
    false_confs = confidence[~correct].tolist()
    mean_false = sum(false_confs) / len(false_confs) if false_confs else None
    return {
        "mean_all": round_report(sum(confidence.tolist()) / len(confidence), decimals),
        "mean_false": None if mean_false is None else round_report(mean_false, decimals),
        "count_all": len(confidence),
        "count_false": len(false_confs),
    }


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


def write_confusion_csv(summary: dict, fh: TextIO, decimals: int = 3) -> None:
    """A stage's matrix_summary record as a confusion table CSV, each value to decimals digits."""
    writer = csv.writer(fh)
    writer.writerow(["true\\pred", *summary["per_class"], "precision", "recall", "f1"])
    for (name, m), row in zip(summary["per_class"].items(), summary["counts"]):
        cells = (m["precision"], m["recall"], m["f1"])
        writer.writerow([name, *row, *("n/a" if v is None else f"{v:.{decimals}f}" for v in cells)])


def write_roc_csv(rows: Sequence[tuple[str, float, float]], fh: TextIO) -> None:
    """A stage's ROC points as (class, fpr, tpr) rows under a header, to a CSV text file."""
    writer = csv.writer(fh)
    writer.writerow(["class", "fpr", "tpr"])
    writer.writerows(rows)


def evaluate_report(tables: PredictionTable, decimals: int = 3) -> tuple[dict, dict]:
    """evaluate's summary.json record, and the writer of each stage's CSV file by its name.

    Stages go in StageId order, each scored on its labeled samples; its
    confusion file comes before its ROC file, and a file with nothing to
    write maps to None. A class with no positive or no negative sample
    has an AUC of None and a warning. No labeled sample is a ValidationError.
    """
    labeled = {stage: table.truth >= 0 for stage, table in tables.items()}
    if not any(mask.any() for mask in labeled.values()):
        raise ValidationError("file contains no labeled samples")
    summary, writers = {"stages": {}, "warnings": []}, {}
    for stage, table in tables.items():
        confusion, roc = f"{stage.value}_confusion.csv", f"{stage.value}_roc.csv"
        if not labeled[stage].any():
            writers.update({confusion: None, roc: None})
            continue
        probs = table.probs[labeled[stage]]
        truth = table.truth[labeled[stage]].astype(np.intp)
        predicted = probs.argmax(axis=1)
        cm = ConfusionMatrix.from_indices(stage, truth, predicted)
        stage_summary = matrix_summary(cm, decimals)
        stage_summary["confidence"] = confidence_stats(
            probs.max(axis=1), predicted == truth, decimals
        )
        roc_rows, auc_by_class = [], {}
        for cls, name in enumerate(cm.class_names):
            try:
                curve = roc_from_scores(probs[:, cls], truth == cls)
            except DegenerateInput as exc:
                summary["warnings"].append(f"{stage.value}/{name}: ROC skipped ({exc})")
                auc_by_class[name] = None
                continue
            auc_by_class[name] = round_report(curve.auc, decimals)
            roc_rows.extend((name, fpr, tpr) for fpr, tpr in curve.points)
        stage_summary["auc"] = auc_by_class
        writers[confusion] = partial(write_confusion_csv, stage_summary, decimals=decimals)
        writers[roc] = partial(write_roc_csv, roc_rows) if roc_rows else None
        summary["stages"][stage.value] = stage_summary
    return summary, writers
