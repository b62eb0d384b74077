import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from flapwear import simulate
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
from flapwear.simulate import (
    BadRow,
    matrices_to_accuracies,
    oracle_branch_trials,
    row_probabilities,
    run_oracle_batch,
    truth_marginals,
)
from flapwear.taxonomy import BRANCH_STAGES, STAGE_CLASSES, FlapProfile

import scalar_oracle
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

    @pytest.mark.parametrize("branch", list(FlapProfile))
    def test_missing_matrix_is_a_bad_row(self, branch):
        with pytest.raises(BadRow, match="^oracle matrix for usage is missing$"):
            oracle_branch_trials({}, branch, 10, 0)
        matrices = accuracy_matrices(PAPER_ACC)
        last = BRANCH_STAGES[branch][-1]
        del matrices[last]
        with pytest.raises(BadRow, match=f"^oracle matrix for {last.value} is missing$"):
            oracle_branch_trials(matrices, branch, 10, 0)

    @pytest.mark.parametrize("branch", list(FlapProfile), ids=lambda b: b.value)
    @pytest.mark.parametrize(
        "law, message",
        [
            ((0.4, 0.89, 0.03), r"mean must be in \(1/2, 1\), got 0.4"),
            ((0.97, 0.89, -1.0), "spread must be finite and >= 0, got -1.0"),
            ((0.97, 0.89, float("nan")), "spread must be finite and >= 0, got nan"),
        ],
        ids=["mean-0.4", "spread-minus-1", "spread-nan"],
    )
    def test_bad_confidence_law_is_a_bad_row_before_any_draw(
        self, all_matrices, monkeypatch, branch, law, message
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made before the law was checked")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(BadRow, match=message):
            oracle_branch_trials(all_matrices, branch, 10, 0, law)

    @pytest.mark.parametrize(
        "convex, message",
        [
            (None, "^oracle matrix for convex_severity is missing$"),
            ([[0, 0], [0, 220]], "^oracle matrix for convex_severity: .* empty truth row$"),
        ],
        ids=["missing", "all-zero-row"],
    )
    def test_oracle_batch_checks_every_matrix_before_any_draw(
        self, all_matrices, monkeypatch, convex, message
    ):
        # convex_severity is the last stage checked and only the last branch samples it.
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made before every matrix was checked")

        del all_matrices[StageId.CONVEX_SEVERITY]
        if convex is not None:
            all_matrices[StageId.CONVEX_SEVERITY] = convex
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(BadRow, match=message):
            run_oracle_batch(all_matrices, 10, 0)

    def test_one_fault_has_one_message(self, all_matrices):
        # The branch replay and the batch check a stage by the same rule, word for word.
        all_matrices[StageId.USAGE] = [[0, 0], [104, 1349]]
        message = "^oracle matrix for usage: confusion matrix has an empty truth row$"
        for branch in FlapProfile:
            with pytest.raises(BadRow, match=message):
                oracle_branch_trials(all_matrices, branch, 10, 0)
        with pytest.raises(BadRow, match=message):
            run_oracle_batch(all_matrices, 10, 0)

    def test_returns_accuracies_only(self):
        trial = oracle_branch_trials(accuracy_matrices(PAPER_ACC), FlapProfile.CONCAVE, 100, 3)
        assert set(trial) == {"branch", "n_trials", "measured_accuracy", "stage_accuracy"}
        assert list(trial["stage_accuracy"]) == [
            stage.value for stage in BRANCH_STAGES[FlapProfile.CONCAVE]
        ]
        assert all(type(v) is float for v in trial["stage_accuracy"].values())
        assert type(trial["measured_accuracy"]) is float

    def test_peak_memory_per_trial(self, all_matrices):
        # Measured at 4.7 B/trial, all of it fixed blocks: no array grows with n.
        # Gathering each trial's CDF row and keeping every stage's per-trial arrays
        # took 87.5.
        n_trials = 200_000
        tracemalloc.start()
        try:
            oracle_branch_trials(all_matrices, FlapProfile.CONCAVE, n_trials, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_trials <= 72

    @pytest.mark.parametrize("branch", list(FlapProfile), ids=lambda b: b.value)
    def test_peak_memory_is_one_block_of_draws(self, all_matrices, branch):
        # About 0.9 MiB on every branch: one ORACLE_BLOCK of draws and a walk's
        # buffer of normals, never both at once, as the walk ends before scoring.
        tracemalloc.start()
        try:
            oracle_branch_trials(all_matrices, branch, 10**6, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_batch_peak_memory_is_that_of_one_branch(self, all_matrices):
        # About 1.8 MiB: a block of draws on each thread, or one thread's block and
        # the other's buffer of normals. Walks pass generators, never arrays.
        tracemalloc.start()
        try:
            run_oracle_batch(all_matrices, 10**6, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_batch_peak_memory_does_not_grow_with_n(self, all_matrices):
        # No array holds a value per trial: four times the trials peak at the same
        # blocks, about 1.8 MiB. One byte per trial would add 3 MB.
        run_oracle_batch(all_matrices, 1000, 0)  # numpy loads numpy.random on first use
        peaks = []
        for n_trials in (10**6, 4 * 10**6):
            tracemalloc.start()
            try:
                run_oracle_batch(all_matrices, n_trials, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**19

    def test_deterministic_per_seed(self):
        a = simulated_accuracy(PAPER_ACC, FlapProfile.CONCAVE, 10**4, seed=17)
        b = simulated_accuracy(PAPER_ACC, FlapProfile.CONCAVE, 10**4, seed=17)
        assert a == b


def bounded(call):
    """call() on a daemon thread joined for at most 60 s; its result, or its exception raised here.

    A replay that deadlocks then fails the join within a minute instead of
    hanging the run, and its helper, a daemon too, does not hold up exit.
    """
    outcome = []

    def run():
        try:
            outcome.append((True, call()))
        except BaseException as exc:
            outcome.append((False, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "the replay did not end within 60 s"
    ((returned, value),) = outcome
    if not returned:
        raise value
    return value


class TestSkipNormalsThread:
    """The replay's helper thread: chain walks and scoring shared with the caller."""

    def test_each_replay_call_starts_one_thread(self, all_matrices, monkeypatch):
        started, start = [], threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        run_oracle_batch(all_matrices, 1000, 0)
        assert len(started) == 1
        oracle_branch_trials(all_matrices, FlapProfile.CONCAVE, 1000, 0)
        assert len(started) == 2

    def test_a_size_over_the_limit_is_refused_before_any_draw(self, all_matrices, monkeypatch):
        # The size rule, the seed and the matrices are checked before this refusal.
        def no_draws(*args, **kwargs):
            raise AssertionError("a thread or a generator was made before the size was refused")

        monkeypatch.setattr(threading.Thread, "start", no_draws)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(simulate, "_skip_normals", no_draws)
        n = simulate._MAX_ORACLE_TRIALS + 1
        message = f"^simulation size {n} is too large: at most {n - 1}$"
        with pytest.raises(ConfigError, match=message):
            run_oracle_batch(all_matrices, n, 0)
        with pytest.raises(ConfigError, match=message):
            oracle_branch_trials(all_matrices, FlapProfile.CONCAVE, n, 0)
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            run_oracle_batch(all_matrices, n, -1)
        del all_matrices[StageId.USAGE]
        with pytest.raises(BadRow, match="^oracle matrix for usage is missing$"):
            run_oracle_batch(all_matrices, n, 0)

    def test_a_size_at_the_limit_is_replayed(self, all_matrices, monkeypatch):
        # It reaches the walks, which fail at once here rather than run for a day.
        def no_walk(*args):
            raise MemoryError("no walk")

        monkeypatch.setattr(simulate, "_walk", no_walk)
        with pytest.raises(MemoryError, match="no walk"):
            bounded(lambda: run_oracle_batch(all_matrices, simulate._MAX_ORACLE_TRIALS, 0))

    def test_helper_exception_on_a_later_branch_is_raised_in_the_caller(
        self, all_matrices, monkeypatch
    ):
        # Either thread may walk the stage whose normals fail, a later one than
        # the first branch's. The walk the other thread had begun may end, but
        # no walk draws a normal once the stop is set.
        skip_normals, calls, lock = simulate._skip_normals, [], threading.Lock()
        moved_after_stop = []

        def fourth_fails(rng, n, stop):
            with lock:
                calls.append(True)
                fails = len(calls) == 4
            if fails:
                raise MemoryError("no room for the normals")
            stopped, state = stop.is_set(), rng.bit_generator.state
            skip_normals(rng, n, stop)
            if stopped:
                moved_after_stop.append(rng.bit_generator.state != state)

        monkeypatch.setattr(simulate, "_skip_normals", fourth_fails)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="no room for the normals"):
            bounded(lambda: run_oracle_batch(all_matrices, 4 * simulate.ORACLE_BLOCK, 0))
        assert len(calls) >= 4
        assert not any(moved_after_stop)
        assert threading.active_count() == threads

    def test_helper_stops_within_a_block_when_scoring_raises(self, all_matrices, monkeypatch):
        # The last chain's walk waits until the first chain is being scored, so
        # scoring fails while the other thread is part way through that walk; once
        # the stop is set, the walk begins at most the one block it had checked
        # the stop for.
        walk, skip_normals = simulate._walk, simulate._skip_normals
        scoring, walking = threading.Event(), threading.Event()
        begun_after_stop = []

        class CountingNormals:
            def __init__(self, rng, stop):
                self.rng, self.stop = rng, stop

            def standard_normal(self, *args, **kwargs):
                if scoring.is_set():
                    begun_after_stop.append(self.stop.is_set())
                    walking.set()
                return self.rng.standard_normal(*args, **kwargs)

        def last_walk_waits(seed, *args):
            if seed == 2:  # the third chain of a batch at seed 0
                assert scoring.wait(timeout=60)
            return walk(seed, *args)

        def counting_skip(rng, n, stop):
            skip_normals(CountingNormals(rng, stop), n, stop)

        def broken_hits(*args):
            scoring.set()
            assert walking.wait(timeout=60)
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(simulate, "_walk", last_walk_waits)
        monkeypatch.setattr(simulate, "_skip_normals", counting_skip)
        monkeypatch.setattr(simulate, "hits", broken_hits)
        threads = threading.active_count()
        n_trials = 32 * simulate.ORACLE_BLOCK
        with pytest.raises(RuntimeError, match="scoring failed"):
            bounded(lambda: run_oracle_batch(all_matrices, n_trials, 0))
        assert threading.active_count() == threads
        assert sum(begun_after_stop) <= 1
        assert len(begun_after_stop) < 32  # the walk's first stage was cut short

    def test_helper_exception_is_raised_in_the_caller(self, all_matrices, monkeypatch):
        def no_room(*args):
            raise MemoryError("no room for the normals")

        monkeypatch.setattr(simulate, "_skip_normals", no_room)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="no room for the normals"):
            bounded(lambda: oracle_branch_trials(all_matrices, FlapProfile.CONCAVE, 1000, 0))
        assert threading.active_count() == threads

    def test_helper_is_joined_when_scoring_raises(self, all_matrices, monkeypatch):
        # Scoring fails on the calling thread while the helper scores another
        # chain and outlasts the failed block; the call still waits for it.
        hits, caller = simulate.hits, []
        helper_scoring, finished = threading.Event(), []

        def caller_fails_helper_is_slow(*args):
            if threading.current_thread() is caller[0]:
                assert helper_scoring.wait(timeout=60)
                raise RuntimeError("scoring failed")
            if not helper_scoring.is_set():
                helper_scoring.set()
                time.sleep(0.2)
                finished.append(True)
            return hits(*args)

        def batch():
            caller.append(threading.current_thread())
            return run_oracle_batch(all_matrices, 1000, 0)

        monkeypatch.setattr(simulate, "hits", caller_fails_helper_is_slow)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="scoring failed"):
            bounded(batch)
        assert finished == [True]
        assert threading.active_count() == threads

    def test_interrupt_of_the_caller_stops_and_joins_the_helper(self, all_matrices, monkeypatch):
        # A KeyboardInterrupt on the calling thread, while the helper is part way
        # through a walk, sets the stop: the walk begins at most one more block,
        # the helper is joined and the interrupt reaches the caller.
        walk, hits, skip_normals = simulate._walk, simulate.hits, simulate._skip_normals
        caller, helper_walking, begun_after_stop = [], threading.Event(), []

        class CountingNormals:
            def __init__(self, rng, stop):
                self.rng, self.stop = rng, stop

            def standard_normal(self, *args, **kwargs):
                begun_after_stop.append(self.stop.is_set())
                helper_walking.set()
                return self.rng.standard_normal(*args, **kwargs)

        def counting_skip(rng, n, stop):
            skip_normals(CountingNormals(rng, stop), n, stop)

        def interrupted(original):
            # The caller's first walk or scoring, whichever it reaches first.
            def call(*args):
                if threading.current_thread() is caller[0]:
                    assert helper_walking.wait(timeout=60)
                    raise KeyboardInterrupt
                return original(*args)

            return call

        def batch():
            caller.append(threading.current_thread())
            return run_oracle_batch(all_matrices, 32 * simulate.ORACLE_BLOCK, 0)

        monkeypatch.setattr(simulate, "_walk", interrupted(walk))
        monkeypatch.setattr(simulate, "hits", interrupted(hits))
        monkeypatch.setattr(simulate, "_skip_normals", counting_skip)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            bounded(batch)
        assert threading.active_count() == threads
        assert sum(begun_after_stop) <= 1
        assert len(begun_after_stop) < 3 * 32  # the helper's walk was cut short

    def test_concurrent_batches_match_serial_ones(self, all_matrices):
        # No buffer or generator is shared between calls: two at once each
        # return what one alone does, and what the kept array loop does, with
        # threads switched far more often than by default. Each thread of a
        # replay scores whole chains, six blocks a stage, popped from one queue
        # with the chains' walks; a chain scored before its walk ended, or a
        # cursor shared by the two threads, would show. The threads are daemons,
        # as their replays' helpers then are, so a replay that never ends fails
        # the timed join, not the interpreter's exit.
        n_trials = 5 * simulate.ORACLE_BLOCK + 3
        start = threading.Barrier(2, timeout=60)
        results = [None, None]

        def replay(i):
            start.wait()
            results[i] = run_oracle_batch(all_matrices, n_trials, i + 1)

        threads = [threading.Thread(target=replay, args=(i,), daemon=True) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [run_oracle_batch(all_matrices, n_trials, seed) for seed in (1, 2)]
        for seed, result in zip((1, 2), results):
            for i, branch in enumerate(FlapProfile):
                got = dict(result["branches"][branch.value])
                got.pop("analytic_accuracy")
                want = scalar_oracle.oracle_branch_trials(all_matrices, branch, n_trials, seed + i)
                want.pop("stage_results")
                assert got == want


COUNTS_MESSAGE = "confusion counts must be a matrix of numbers, each finite and >= 0"


class TestOneReading:
    """Each confusion matrix is read once, by one checked conversion, whoever asks."""

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([[-1, 2], [3, 4]], COUNTS_MESSAGE),
            ([[float("nan"), 2], [3, 4]], COUNTS_MESSAGE),
            ([[float("inf"), 2], [3, 4]], COUNTS_MESSAGE),
            ([[1, 2], [3]], COUNTS_MESSAGE),
            ([[True, 2], [3, 4]], COUNTS_MESSAGE),
            ([[0, 0], [3, 4]], "confusion matrix has an empty truth row"),
            ([[1e308, 1e308], [19, 1021]], "confusion counts overflow when summed"),
        ],
        ids=["negative", "nan", "inf", "ragged", "bool", "all-zero-row", "overflowing-sum"],
    )
    def test_every_helper_refuses_what_row_probabilities_refuses(self, counts, message):
        for read in (row_probabilities, truth_marginals):
            with pytest.raises(BadRow) as refused:
                read(counts)
            assert str(refused.value) == message
        matrices = {s: [[1] * len(c)] * len(c) for s, c in STAGE_CLASSES.items()}
        matrices[StageId.USAGE] = counts
        with pytest.raises(BadRow) as refused:
            matrices_to_accuracies(matrices)
        assert str(refused.value) == f"oracle matrix for usage: {message}"

    def test_accuracies_of_a_missing_matrix_is_a_bad_row(self, all_matrices):
        del all_matrices[StageId.TEAR]
        with pytest.raises(BadRow, match="^oracle matrix for tear is missing$"):
            matrices_to_accuracies(all_matrices)

    def test_each_matrix_is_read_once_per_call(self, all_matrices, monkeypatch):
        reads = []
        read_counts = simulate._read_counts

        def counted(counts):
            reads.append(counts)
            return read_counts(counts)

        monkeypatch.setattr(simulate, "_read_counts", counted)
        run_oracle_batch(all_matrices, 10, 0)
        assert len(reads) == 5
        for branch in FlapProfile:
            reads.clear()
            oracle_branch_trials(all_matrices, branch, 10, 0)
            assert [id(r) for r in reads] == [id(all_matrices[s]) for s in BRANCH_STAGES[branch]]

    @pytest.mark.parametrize(
        "n, seed, message",
        [(0, 0, "simulation size must be >= 1"), (10, -1, "seed must be >= 0, got -1")],
        ids=["size", "seed"],
    )
    def test_size_and_seed_are_checked_before_the_matrices(self, n, seed, message):
        # The batch checks in the order the branch replay and the synthetic batch do.
        with pytest.raises(ConfigError, match=message):
            run_oracle_batch({}, n, seed)
        with pytest.raises(ConfigError, match=message):
            oracle_branch_trials({}, FlapProfile.CONVEX, n, seed)


def test_propagation_report_contents():
    report = propagation_report(PAPER_ACC, PAPER_LEDGER)
    assert report["path_accuracy"] == {
        "rectangular": 0.882,
        "concave": 0.876,
        "convex": 0.838,
    }
    assert report["interval"] == [0.838, 0.882]
    assert report["corrected_accuracy"] == [0.936, 0.947]
