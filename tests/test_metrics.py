import io
import random

import numpy as np
import pytest

from flapwear.errors import ValidationError
from flapwear.metrics import (
    ConfusionMatrix,
    DegenerateInput,
    EmptyInput,
    EmptyMatrix,
    IndexOutOfRange,
    UndefinedClassMetric,
    accuracy,
    class_metrics,
    confidence_stats,
    evaluate_report,
    macro_f1,
    matrix_summary,
    pairwise_auc,
    roc_curve,
    round_report,
)
from flapwear.predictions import StageId, StageTable
from flapwear.taxonomy import STAGE_CLASSES

from conftest import (
    CONCAVE_MATRIX,
    CONVEX_MATRIX,
    PROFILE_MATRIX,
    TEAR_MATRIX,
    USAGE_MATRIX,
)


def matrix_to_pairs(counts):
    pairs = []
    for truth, row in enumerate(counts):
        for pred, count in enumerate(row):
            pairs.extend([(truth, pred)] * count)
    return pairs


def from_pairs(stage, pairs):
    truth, predicted = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return ConfusionMatrix.from_indices(stage, truth, predicted)


class TestAccumulate:
    """Counting (truth, predicted) index pairs into a matrix (ConfusionMatrix.from_indices)."""

    def test_single_increment(self):
        cm = from_pairs(StageId.USAGE, [(0, 0)])
        assert cm.counts == [[1, 0], [0, 0]]

    def test_usage_test_set_replay(self):
        cm = from_pairs(StageId.USAGE, matrix_to_pairs(USAGE_MATRIX))
        assert cm.counts == USAGE_MATRIX

    def test_tear_test_set_replay(self):
        cm = from_pairs(StageId.TEAR, matrix_to_pairs(TEAR_MATRIX))
        assert cm.counts == TEAR_MATRIX

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange, match=r"indices \(2, 0\) outside 0..1"):
            from_pairs(StageId.USAGE, [(0, 0), (2, 0)])


class TestClassMetrics:
    def test_usage_new_class(self):
        cm = ConfusionMatrix(StageId.USAGE, USAGE_MATRIX)
        m = class_metrics(cm, 0)
        assert m.precision == pytest.approx(0.960, abs=5e-4)
        assert m.recall == pytest.approx(0.996, abs=5e-4)
        assert m.f1 == pytest.approx(0.978, abs=5e-4)

    def test_profile_convex_class(self):
        cm = ConfusionMatrix(StageId.PROFILE, PROFILE_MATRIX)
        m = class_metrics(cm, 2)
        assert m.precision == pytest.approx(0.905, abs=5e-4)
        assert m.recall == pytest.approx(0.985, abs=5e-4)
        assert m.f1 == pytest.approx(0.943, abs=5e-4)

    def test_empty_class_is_undefined_not_raised(self):
        cm = ConfusionMatrix(StageId.USAGE, [[5, 0], [0, 0]])
        m = class_metrics(cm, 1)
        assert m.precision is None
        assert m.recall is None
        assert m.f1 is None

    def test_f1_between_precision_and_recall(self):
        for counts, stage in [
            (USAGE_MATRIX, StageId.USAGE),
            (PROFILE_MATRIX, StageId.PROFILE),
            (TEAR_MATRIX, StageId.TEAR),
        ]:
            cm = ConfusionMatrix(stage, counts)
            for cls in range(cm.n_classes):
                m = class_metrics(cm, cls)
                assert min(m.precision, m.recall) <= m.f1 <= max(m.precision, m.recall)
                assert m.f1 == pytest.approx(
                    2 * m.precision * m.recall / (m.precision + m.recall)
                )


class TestAccuracyAndMacroF1:
    @pytest.mark.parametrize(
        "counts,stage,expected_acc,expected_f1",
        [
            (USAGE_MATRIX, StageId.USAGE, 0.986, 0.983),
            (PROFILE_MATRIX, StageId.PROFILE, 0.954, 0.954),
            (TEAR_MATRIX, StageId.TEAR, 0.938, 0.935),
            (CONCAVE_MATRIX, StageId.CONCAVE_SEVERITY, 0.993, 0.993),
            (CONVEX_MATRIX, StageId.CONVEX_SEVERITY, 0.950, 0.948),
        ],
    )
    def test_published_tables(self, counts, stage, expected_acc, expected_f1):
        cm = ConfusionMatrix(stage, counts)
        assert accuracy(cm) == pytest.approx(expected_acc, abs=1e-3)
        assert macro_f1(cm) == pytest.approx(expected_f1, abs=1e-3)

    def test_usage_exact_fraction(self):
        cm = ConfusionMatrix(StageId.USAGE, USAGE_MATRIX)
        assert accuracy(cm) == 1479 / 1500

    def test_concave_exact_fraction(self):
        cm = ConfusionMatrix(StageId.CONCAVE_SEVERITY, CONCAVE_MATRIX)
        assert accuracy(cm) == 437 / 440

    def test_diagonal_matrix(self):
        assert accuracy(ConfusionMatrix(StageId.USAGE, [[10, 0], [0, 10]])) == 1.0

    def test_zero_diagonal_matrix(self):
        assert accuracy(ConfusionMatrix(StageId.USAGE, [[0, 4], [6, 0]])) == 0.0

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            accuracy(ConfusionMatrix(StageId.USAGE, [[0, 0], [0, 0]]))

    def test_macro_f1_undefined_class(self):
        with pytest.raises(UndefinedClassMetric):
            macro_f1(ConfusionMatrix(StageId.USAGE, [[5, 0], [0, 0]]))


class TestRoc:
    def test_perfect_separation(self):
        curve = roc_curve([(0.9, True), (0.8, True), (0.3, False), (0.1, False)])
        assert curve.auc == 1.0

    def test_interleaved_scores(self):
        # brute-force pair count: 3 of 4 positive/negative pairs won
        samples = [(0.9, True), (0.8, False), (0.7, True), (0.6, False)]
        curve = roc_curve(samples)
        assert curve.auc == pytest.approx(0.75)
        assert pairwise_auc(samples) == pytest.approx(0.75)

    def test_constant_scores(self):
        curve = roc_curve([(0.5, True), (0.5, False), (0.5, True)])
        assert curve.auc == pytest.approx(0.5)
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))

    def test_endpoints_and_monotonicity(self):
        rng = random.Random(11)
        samples = [(rng.random(), rng.random() < 0.4) for _ in range(50)]
        if not any(p for _, p in samples):
            samples[0] = (samples[0][0], True)
        curve = roc_curve(samples)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        for (x0, y0), (x1, y1) in zip(curve.points, curve.points[1:]):
            assert x1 >= x0 and y1 >= y0

    def test_trapezoid_equals_pairwise(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 120)
            samples = [
                (rng.choice([rng.random(), round(rng.random(), 1)]), rng.random() < 0.5)
                for _ in range(n)
            ]
            if not any(p for _, p in samples):
                samples[0] = (samples[0][0], True)
            if all(p for _, p in samples):
                samples[0] = (samples[0][0], False)
            assert roc_curve(samples).auc == pytest.approx(
                pairwise_auc(samples), abs=1e-12
            )

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            roc_curve([(0.9, True), (0.7, True)])


class TestConfidenceStats:
    def test_all_correct(self):
        stats = confidence_stats(np.array([0.9, 0.95]), np.array([True, True]))
        assert stats == {"mean_all": 0.925, "mean_false": None, "count_all": 2, "count_false": 0}

    def test_mixed(self):
        stats = confidence_stats(np.array([0.6, 0.9]), np.array([False, True]))
        assert stats == {"mean_all": 0.75, "mean_false": 0.6, "count_all": 2, "count_false": 1}

    def test_empty(self):
        with pytest.raises(EmptyInput):
            confidence_stats(np.array([]), np.array([], dtype=bool))

    def test_one_wrong_sample_at_one_decimal(self):
        # 0.65 rounds half away from zero, as every report value does.
        stats = confidence_stats(np.array([0.65]), np.array([False]), decimals=1)
        assert stats == {"mean_all": 0.7, "mean_false": 0.7, "count_all": 1, "count_false": 1}


class TestReporting:
    def test_round_half_away_from_zero(self):
        assert round_report(0.9825, 3) == 0.983
        assert round_report(0.0005, 3) == 0.001
        assert round_report(0.95449, 3) == 0.954

    def test_matrix_summary_prints_na_for_undefined(self):
        summary = matrix_summary(ConfusionMatrix(StageId.USAGE, [[5, 0], [0, 0]]))
        assert summary["per_class"]["used"]["precision"] is None
        assert summary["macro_f1"] is None
        assert summary["accuracy"] == 1.0

    def test_confusion_csv(self, tmp_path):
        from flapwear.metrics import write_confusion_csv

        cm = ConfusionMatrix(StageId.USAGE, USAGE_MATRIX)
        path = tmp_path / "usage_confusion.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_confusion_csv(matrix_summary(cm), fh)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "true\\pred,new,used,precision,recall,f1"
        assert lines[1] == "new,458,2,0.960,0.996,0.978"
        assert lines[2] == "used,19,1021,0.998,0.982,0.990"


def stage_tables(samples):
    """Every stage's table, in StageId order, from {stage: [(probs, truth index or -1)]}."""
    tables = {}
    for stage in StageId:
        rows = samples.get(stage, [])
        k = len(STAGE_CLASSES[stage])
        tables[stage] = StageTable(
            stage,
            np.array([probs for probs, _ in rows], dtype=np.float64).reshape(-1, k),
            None,
            None,
            np.arange(1, len(rows) + 1, dtype=np.int64),
            np.array([truth for _, truth in rows], dtype=np.int8),
        )
    return tables


def written(write) -> str:
    fh = io.StringIO(newline="")
    write(fh)
    return fh.getvalue()


DEGENERATE = "ROC skipped (need at least one positive and one negative sample)"
# Usage: one new wheel and three used ones, one of them taken for new, and one
# unlabeled record. Tear: two no_tear wheels, one taken for with_tear, so
# neither class has both a positive and a negative sample.
TWO_STAGES = {
    StageId.USAGE: [
        ([0.65, 0.35], 0), ([0.2, 0.8], 1), ([0.7, 0.3], 1), ([0.15, 0.85], 1), ([0.5, 0.5], -1),
    ],
    StageId.TEAR: [([0.3, 0.7], 1), ([0.6, 0.4], 1)],
}


class TestEvaluateReport:
    def test_two_stages_by_hand(self):
        summary, writers = evaluate_report(stage_tables(TWO_STAGES))
        assert summary == {
            "stages": {
                "usage": {
                    "stage": "usage",
                    "counts": [[1, 0], [1, 2]],
                    "accuracy": 0.75,
                    "macro_f1": 0.733,  # (2/3 + 4/5) / 2
                    "per_class": {
                        "new": {"precision": 0.5, "recall": 1.0, "f1": 0.667},
                        "used": {"precision": 1.0, "recall": 0.667, "f1": 0.8},
                    },
                    "confidence": {
                        "mean_all": 0.75, "mean_false": 0.7, "count_all": 4, "count_false": 1,
                    },
                    # Each class's one odd sample beats two of the other three.
                    "auc": {"new": 0.667, "used": 0.667},
                },
                "tear": {
                    "stage": "tear",
                    "counts": [[0, 0], [1, 1]],
                    "accuracy": 0.5,
                    "macro_f1": None,
                    "per_class": {
                        "with_tear": {"precision": 0.0, "recall": None, "f1": None},
                        "no_tear": {"precision": 1.0, "recall": 0.5, "f1": 0.667},
                    },
                    "confidence": {
                        "mean_all": 0.65, "mean_false": 0.6, "count_all": 2, "count_false": 1,
                    },
                    "auc": {"with_tear": None, "no_tear": None},
                },
            },
            "warnings": [f"tear/with_tear: {DEGENERATE}", f"tear/no_tear: {DEGENERATE}"],
        }
        assert written(writers["usage_confusion.csv"]).splitlines() == [
            "true\\pred,new,used,precision,recall,f1",
            "new,1,0,0.500,1.000,0.667",
            "used,1,2,1.000,0.667,0.800",
        ]
        roc = written(writers["usage_roc.csv"]).splitlines()
        assert roc[:2] == ["class,fpr,tpr", "new,0.0,0.0"]
        # No class of tear has a curve, so its ROC file is removed.
        assert writers["tear_roc.csv"] is None

    def test_a_stage_without_truth_has_no_files(self):
        unlabeled = {StageId.CONCAVE_SEVERITY: [([0.4, 0.6], -1), ([0.9, 0.1], -1)]}
        summary, writers = evaluate_report(stage_tables({**TWO_STAGES, **unlabeled}))
        assert "concave_severity" not in summary["stages"]
        for stage in (StageId.PROFILE, StageId.CONCAVE_SEVERITY, StageId.CONVEX_SEVERITY):
            assert writers[f"{stage.value}_confusion.csv"] is None
            assert writers[f"{stage.value}_roc.csv"] is None

    def test_a_class_without_positives_is_skipped_with_a_warning(self):
        # No profile record is convex in truth; the other two classes keep their curves.
        profile = [([0.6, 0.3, 0.1], 0), ([0.2, 0.5, 0.3], 1), ([0.1, 0.4, 0.5], 1)]
        summary, writers = evaluate_report(stage_tables({StageId.PROFILE: profile}), decimals=5)
        assert summary["warnings"] == [f"profile/convex: {DEGENERATE}"]
        assert summary["stages"]["profile"]["auc"] == {
            "rectangular": 1.0, "concave": 1.0, "convex": None,
        }
        rows = written(writers["profile_roc.csv"]).splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"rectangular", "concave"}

    def test_no_truth_at_all_is_a_validation_error(self):
        unlabeled = {s: [(probs, -1) for probs, _ in rows] for s, rows in TWO_STAGES.items()}
        with pytest.raises(ValidationError) as info:
            evaluate_report(stage_tables(unlabeled))
        assert str(info.value) == "file contains no labeled samples"

    def test_writers_come_in_stage_order_confusion_first(self):
        _, writers = evaluate_report(stage_tables(TWO_STAGES))
        assert list(writers) == [
            f"{stage.value}_{kind}.csv" for stage in StageId for kind in ("confusion", "roc")
        ]
