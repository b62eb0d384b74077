import random

import numpy as np
import pytest

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
    macro_f1,
    matrix_summary,
    pairwise_auc,
    roc_curve,
    round_report,
)
from flapwear.predictions import StageId

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
            accuracy(ConfusionMatrix(StageId.USAGE))

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
        stats = confidence_stats([(0.9, True), (0.95, True)])
        assert stats.mean_all == pytest.approx(0.925)
        assert stats.mean_false is None
        assert stats.count_false == 0

    def test_mixed(self):
        stats = confidence_stats([(0.6, False), (0.9, True)])
        assert stats.mean_all == pytest.approx(0.75)
        assert stats.mean_false == pytest.approx(0.6)
        assert (stats.count_all, stats.count_false) == (2, 1)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            confidence_stats([])


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
        write_confusion_csv(cm, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "true\\pred,new,used,precision,recall,f1"
        assert lines[1] == "new,458,2,0.960,0.996,0.978"
        assert lines[2] == "used,19,1021,0.998,0.982,0.990"
