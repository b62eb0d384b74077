import tracemalloc

import pytest

from flapwear.errors import ConfigError
from flapwear.predictions import StageId
from flapwear.propagation import (
    CorrectionLedger,
    LedgerInconsistent,
    StageAccuracies,
    accuracy_interval,
    corrected_accuracy,
    path_accuracy,
    propagation_report,
)
from flapwear.simulate import oracle_branch_trials
from flapwear.synth import BadRow
from flapwear.taxonomy import BRANCH_STAGES, STAGE_CLASSES, FlapProfile

from conftest import STAGE_ACCURACIES

PAPER_ACC = StageAccuracies(
    j_usage=STAGE_ACCURACIES["usage"],
    j_tear=STAGE_ACCURACIES["tear"],
    j_profile=STAGE_ACCURACIES["profile"],
    j_concave=STAGE_ACCURACIES["concave"],
    j_convex=STAGE_ACCURACIES["convex"],
)

PAPER_LEDGER = CorrectionLedger(
    total_runs=360,
    total_errors=45,
    threshold_caught={StageId.USAGE: (11, 10), StageId.TEAR: (11, 9)},
    conflict_caught=4,
)


class TestPathAccuracy:
    def test_rectangular_path(self):
        assert path_accuracy(PAPER_ACC, FlapProfile.RECTANGULAR) == pytest.approx(
            0.882, abs=1e-3
        )

    def test_concave_path(self):
        assert path_accuracy(PAPER_ACC, FlapProfile.CONCAVE) == pytest.approx(
            0.876, abs=1e-3
        )

    def test_convex_path(self):
        assert path_accuracy(PAPER_ACC, FlapProfile.CONVEX) == pytest.approx(
            0.838, abs=1e-3
        )

    def test_monotone_and_bounded_by_factors(self):
        bumped = StageAccuracies(0.99, 0.938, 0.954, 0.993, 0.950)
        for branch in FlapProfile:
            assert path_accuracy(bumped, branch) >= path_accuracy(PAPER_ACC, branch)
            assert path_accuracy(PAPER_ACC, branch) <= min(
                PAPER_ACC.j_usage, PAPER_ACC.j_tear, PAPER_ACC.j_profile
            )

    def test_accuracies_validated(self):
        with pytest.raises(ValueError):
            StageAccuracies(1.2, 0.9, 0.9)


class TestAccuracyInterval:
    def test_published_interval(self):
        low, high = accuracy_interval(PAPER_ACC)
        assert low == pytest.approx(0.838, abs=1e-3)
        assert high == pytest.approx(0.882, abs=1e-3)

    def test_perfect_stages(self):
        assert accuracy_interval(StageAccuracies(1.0, 1.0, 1.0, 1.0, 1.0)) == (1.0, 1.0)

    def test_zero_usage_absorbs(self):
        assert accuracy_interval(StageAccuracies(0.0, 0.9, 0.9, 0.9, 0.9)) == (0.0, 0.0)


class TestCorrectedAccuracy:
    def test_published_bounds(self):
        low, high = corrected_accuracy(PAPER_LEDGER)
        assert low == pytest.approx(0.936, abs=1e-3)
        assert high == pytest.approx(0.947, abs=1e-3)

    def test_no_errors_means_perfect(self):
        ledger = CorrectionLedger(total_runs=100, total_errors=0, conflict_caught=0)
        assert corrected_accuracy(ledger) == (1.0, 1.0)

    def test_no_catches_reduces_to_raw_accuracy(self):
        ledger = CorrectionLedger(total_runs=200, total_errors=20)
        low, high = corrected_accuracy(ledger)
        assert low == high == pytest.approx(0.9)

    def test_low_never_exceeds_high(self):
        low, high = corrected_accuracy(PAPER_LEDGER)
        assert low <= high
        raw = 1 - PAPER_LEDGER.total_errors / PAPER_LEDGER.total_runs
        assert raw <= low and high <= 1.0

    def test_overlapping_conflicts_collapse_to_low(self):
        ledger = CorrectionLedger(
            total_runs=360,
            total_errors=45,
            threshold_caught={StageId.USAGE: (11, 10), StageId.TEAR: (11, 9)},
            conflict_caught=4,
            conflicts_overlap_thresholds=True,
        )
        low, high = corrected_accuracy(ledger)
        assert low == high == pytest.approx(337 / 360)

    def test_inconsistent_ledger_rejected(self):
        with pytest.raises(LedgerInconsistent):
            CorrectionLedger(
                total_runs=100,
                total_errors=5,
                threshold_caught={StageId.USAGE: (10, 0)},
            )
        with pytest.raises(LedgerInconsistent):
            CorrectionLedger(total_runs=0, total_errors=0)


def accuracy_matrices(acc):
    """Confusion matrices whose every truth row is right with its stage's accuracy.

    With these the oracle makes each stage simply right or wrong, the
    model behind the analytic path product.
    """
    matrices = {}
    for stage in StageId:
        n = len(STAGE_CLASSES[stage])
        right = acc.of(stage)
        wrong = (1.0 - right) / (n - 1)
        matrices[stage] = [[right if i == j else wrong for j in range(n)] for i in range(n)]
    return matrices


def simulated_accuracy(acc, branch, n_trials, seed):
    trial = oracle_branch_trials(accuracy_matrices(acc), branch, n_trials, seed)
    return trial["measured_accuracy"]


class TestMonteCarlo:
    def test_all_perfect_stages(self):
        acc = StageAccuracies(1.0, 1.0, 1.0, 1.0, 1.0)
        for branch in FlapProfile:
            assert simulated_accuracy(acc, branch, 1000, seed=0) == 1.0

    def test_matches_analytic_mix_weighted_mean(self):
        analytic = sum(
            path_accuracy(PAPER_ACC, branch) / 3 for branch in FlapProfile
        )
        measured = sum(
            simulated_accuracy(PAPER_ACC, branch, 3 * 10**5, seed=5 + i) / 3
            for i, branch in enumerate(FlapProfile)
        )
        assert measured == pytest.approx(analytic, abs=3e-3)

    def test_single_weak_stage_binomial(self):
        acc = StageAccuracies(0.5, 1.0, 1.0)
        assert accuracy_matrices(acc)[StageId.USAGE] == [[0.5, 0.5], [0.5, 0.5]]
        measured = simulated_accuracy(acc, FlapProfile.RECTANGULAR, 10**6, seed=9)
        assert measured == pytest.approx(0.5, abs=2e-3)

    def test_interval_brackets_simulation(self):
        low, high = accuracy_interval(PAPER_ACC)
        for branch in FlapProfile:
            measured = simulated_accuracy(PAPER_ACC, branch, 10**5, seed=2)
            # allow 4 sigma of binomial noise outside the bracket
            sigma = (high * (1 - high) / 10**5) ** 0.5
            assert low - 4 * sigma <= measured <= high + 4 * sigma

    def test_bad_mix(self):
        matrices = accuracy_matrices(PAPER_ACC)
        with pytest.raises(ConfigError, match="simulation size must be >= 1"):
            oracle_branch_trials(matrices, FlapProfile.RECTANGULAR, 0, seed=0)
        matrices[StageId.USAGE] = [[0, 0], [1, 1]]
        with pytest.raises(BadRow):
            oracle_branch_trials(matrices, FlapProfile.RECTANGULAR, 10, seed=0)
        # Negative and non-finite counts, which no truth distribution is drawn from.
        for bad in (-1, float("nan"), float("inf")):
            matrices[StageId.USAGE] = [[bad, bad], [2, 2]]
            with pytest.raises(BadRow, match="finite and >= 0"):
                oracle_branch_trials(matrices, FlapProfile.RECTANGULAR, 10, seed=0)

    def test_returns_accuracies_only(self):
        trial = oracle_branch_trials(accuracy_matrices(PAPER_ACC), FlapProfile.CONCAVE, 100, 3)
        assert set(trial) == {"branch", "n_trials", "measured_accuracy", "stage_accuracy"}
        assert list(trial["stage_accuracy"]) == [
            stage.value for stage in BRANCH_STAGES[FlapProfile.CONCAVE]
        ]
        assert all(type(v) is float for v in trial["stage_accuracy"].values())
        assert type(trial["measured_accuracy"]) is float

    def test_peak_memory_per_trial(self, all_matrices):
        # Measured at 54.5 B/trial; gathering each trial's CDF row and keeping
        # every stage's per-trial arrays took 87.5.
        n_trials = 200_000
        tracemalloc.start()
        try:
            oracle_branch_trials(all_matrices, FlapProfile.CONCAVE, n_trials, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_trials <= 72

    def test_deterministic_per_seed(self):
        a = simulated_accuracy(PAPER_ACC, FlapProfile.CONCAVE, 10**4, seed=17)
        b = simulated_accuracy(PAPER_ACC, FlapProfile.CONCAVE, 10**4, seed=17)
        assert a == b


def test_propagation_report_contents():
    report = propagation_report(PAPER_ACC, PAPER_LEDGER)
    assert report["path_accuracy"] == {
        "rectangular": 0.882,
        "concave": 0.876,
        "convex": 0.838,
    }
    assert report["interval"] == [0.838, 0.882]
    assert report["corrected_accuracy"] == [0.936, 0.947]
