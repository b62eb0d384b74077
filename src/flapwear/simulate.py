"""Desk-scale validation runs: synthetic wheels and calibrated oracles.

Two ways to exercise the full hierarchy without real images: generate
synthetic wheels and push them through the rule-based classifiers, or
replay stochastic oracles calibrated to published confusion matrices.
Both report measured accuracies next to the analytic path products so
the propagation model can be checked side by side.
"""

from __future__ import annotations

import numpy as np

from .engine import EngineConfig, RunDecisions, RunResult, decide_runs
from .errors import ConfigError, is_finite, is_number
from .predictions import VectorError, first_invalid_row
from .propagation import ACCURACY_NAMES, StageAccuracies, path_accuracy
from .synth import (
    BadRow,
    WheelSpec,
    check_oracle_inputs,
    sample_oracle_predictions,
    score_wheels,
)
from .taxonomy import (
    BRANCH_STAGES,
    CONSISTENT_OUTCOMES,
    STAGE_CLASSES,
    FlapProfile,
    StageId,
    TearState,
    WearOutcome,
)

DEFAULT_CONFIDENCE_LAW = (0.97, 0.89, 0.03)
# Wheels observed and scored together; bounds the block's working arrays.
SYNTH_BLOCK = 256


def spec_for_outcome(
    outcome: WearOutcome, rng: np.random.Generator, noise_sigma: float = 0.0
) -> WheelSpec:
    """Randomized wheel spec realizing a given outcome.

    Geometry parameters are sampled within ranges where the rule-based
    classifiers resolve the wear state at zero noise.
    """
    n_flaps = int(rng.integers(12, 33))
    torn: frozenset[int] = frozenset()
    if outcome.tear is TearState.WITH_TEAR:
        n_torn = int(rng.integers(1, 4))
        torn = frozenset(int(i) for i in rng.choice(n_flaps, n_torn, replace=False))
    depth = float(rng.uniform(0.08, 0.4))
    return WheelSpec(
        usage=outcome.usage,
        profile=outcome.profile,
        severity=outcome.severity,
        n_flaps=n_flaps,
        torn_flaps=torn,
        profile_depth=depth,
        noise_sigma=noise_sigma,
    )


def check_simulation_size(n) -> None:
    """The one rule for a simulation's size; a ConfigError unless it holds.

    The size is an integer, not a bool, at least 1 and small enough that
    numpy can index its per-unit arrays (a size past that limit is
    refused here, not left to fail an allocation).
    """
    if not (is_number(n) and isinstance(n, int)):
        raise ConfigError(f"simulation size must be an integer, got {n!r}")
    if n < 1:
        raise ConfigError("simulation size must be >= 1")
    if n > np.iinfo(np.intp).max // 64:
        raise ConfigError(f"simulation size {n} is too large")


def _stage_arrays(n: int) -> dict[StageId, np.ndarray]:
    """Zeroed per-stage (n, k) arrays, as decide_runs takes them."""
    return {stage: np.zeros((n, len(classes))) for stage, classes in STAGE_CLASSES.items()}


def _decide_checked(vectors, config: EngineConfig | None) -> RunDecisions:
    """Check each stage's rows once, then decide them; a REJECT_RUN refusal raises."""
    for rows in vectors.values():
        invalid = first_invalid_row(rows)
        if invalid is not None:
            raise VectorError(invalid[1])
    decisions = decide_runs(vectors, config)
    if decisions.rejected_row >= 0:
        raise decisions.rejection()
    return decisions


def classify_spec(spec: WheelSpec, seed: int, config: EngineConfig | None = None) -> RunResult:
    """Generate an observation for the spec and run the hierarchy on it (a block of one wheel)."""
    vectors = _stage_arrays(1)
    score_wheels([spec], [seed], vectors)
    return next(_decide_checked(vectors, config).rows())


def run_synthetic_batch(
    n: int,
    seed: int,
    noise_sigma: float = 0.0,
    config: EngineConfig | None = None,
) -> dict:
    """Round-robin over the 11 outcomes; measures hierarchy accuracy.

    Specs and wheel seeds are drawn one wheel at a time from the batch
    RNG; the wheels are observed and scored SYNTH_BLOCK at a time into
    per-stage arrays, both severity stages for every wheel, so level 3
    is judged on whichever branch the profile decision takes. Each
    stage's rows are then checked once, and the hierarchy decides them
    in one batch.
    """
    check_simulation_size(n)
    rng = np.random.default_rng(seed)
    vectors = _stage_arrays(n)
    expected = np.resize([o.id for o in CONSISTENT_OUTCOMES], n)  # wheel k: outcome k mod 11
    for start in range(0, n, SYNTH_BLOCK):
        rows = slice(start, min(n, start + SYNTH_BLOCK))
        specs, seeds = [], []
        for k in range(rows.start, rows.stop):
            outcome = CONSISTENT_OUTCOMES[k % len(CONSISTENT_OUTCOMES)]
            specs.append(spec_for_outcome(outcome, rng, noise_sigma))
            seeds.append(int(rng.integers(0, 2**31)))
        score_wheels(specs, seeds, {stage: v[rows] for stage, v in vectors.items()})

    decisions = _decide_checked(vectors, config)
    hit = decisions.outcome_id == expected
    correct = np.bincount(expected[hit], minlength=len(CONSISTENT_OUTCOMES) + 1).tolist()
    total = np.bincount(expected, minlength=len(CONSISTENT_OUTCOMES) + 1).tolist()
    return {
        "mode": "synth",
        "n": n,
        "noise_sigma": float(noise_sigma),  # finite: every wheel's WheelSpec checked it
        "hierarchy_accuracy": int(np.count_nonzero(hit)) / n,
        "per_outcome": {
            str(o.id): {"correct": correct[o.id], "total": total[o.id]}
            for o in CONSISTENT_OUTCOMES
            if total[o.id]
        },
    }


def row_probabilities(counts: list[list[int]]) -> np.ndarray:
    """Confusion-row distributions P(pred | truth); the one statement of valid counts.

    counts is a matrix of numbers, each finite and >= 0, whose row totals
    and total are finite, with no all-zero row; anything else is a BadRow.
    """
    cells = np.array(counts, dtype=object)  # ragged rows stay lists: a 1-D array
    if cells.ndim != 2 or not all(is_finite(c) and c >= 0 for c in cells.flat):
        raise BadRow("confusion counts must be a matrix of numbers, each finite and >= 0")
    counts_arr = cells.astype(float)
    with np.errstate(over="ignore"):  # an overflowing sum is refused below, not warned about
        totals = counts_arr.sum(axis=1, keepdims=True)
        sums_finite = np.isfinite(totals).all() and np.isfinite(counts_arr.sum())
    if not sums_finite:
        raise BadRow("confusion counts overflow when summed")
    if np.any(totals == 0):
        raise BadRow("confusion matrix has an empty truth row")
    return counts_arr / totals


def truth_marginals(counts: list[list[int]]) -> np.ndarray:
    """Truth-class distribution from confusion-matrix row totals."""
    counts_arr = np.asarray(counts, dtype=float)
    totals = counts_arr.sum(axis=1)
    return totals / totals.sum()


def matrices_to_accuracies(matrices: dict[StageId, list[list[int]]]) -> StageAccuracies:
    def acc(stage: StageId) -> float:
        counts_arr = np.asarray(matrices[stage], dtype=float)
        return float(np.trace(counts_arr) / counts_arr.sum())

    return StageAccuracies.from_names({name: acc(s) for s, name in ACCURACY_NAMES.items()})


def _draw_classes(p: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n classes drawn from distribution p: rng.choice(len(p), size=n, p=p), draw for draw.

    The same uniforms and normalised CDF, with a class counting the CDF
    values at or below its uniform one column at a time; the last value
    is 1.0 and never counts.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    classes = np.zeros(n, dtype=np.intp)
    for edge in cdf[:-1]:
        classes += u >= edge
    return classes


def oracle_branch_trials(
    matrices: dict[StageId, list[list[int]]],
    branch: FlapProfile,
    n_trials: int,
    seed: int,
    confidence_law: tuple[float, float, float] = DEFAULT_CONFIDENCE_LAW,
) -> dict:
    """Replay one branch through oracles calibrated to confusion matrices.

    Per trial and stage, the truth class is drawn from the matrix's
    truth marginals and the prediction from the truth's confusion row,
    so each stage errs at exactly the matrix's overall error rate. A
    trial is correct when every stage on the branch is. Each stage's
    correct trials are counted as soon as they are drawn; no per-trial
    array outlives its stage, and the sampled confidences are dropped
    (their draws still advance the stream).
    """
    check_simulation_size(n_trials)
    rng = np.random.default_rng(seed)
    stage_accuracy = {}
    all_correct = np.ones(n_trials, dtype=bool)
    for stage in BRANCH_STAGES[branch]:
        counts = matrices[stage]
        rows = row_probabilities(counts)
        truths = _draw_classes(truth_marginals(counts), n_trials, rng)
        preds, _ = sample_oracle_predictions(stage, truths, rows, confidence_law, rng)
        correct = preds == truths
        all_correct &= correct
        stage_accuracy[stage.value] = int(np.count_nonzero(correct)) / n_trials

    return {
        "branch": branch.value,
        "n_trials": n_trials,
        "measured_accuracy": int(np.count_nonzero(all_correct)) / n_trials,
        "stage_accuracy": stage_accuracy,
    }


def run_oracle_batch(
    matrices: dict[StageId, list[list[int]]],
    n_trials: int,
    seed: int,
    confidence_law: tuple[float, float, float] = DEFAULT_CONFIDENCE_LAW,
) -> dict:
    """All three branches against their analytic path accuracies.

    Before any draw, every stage's matrix must be present and pass
    row_probabilities, and its rows and the law check_oracle_inputs; the
    first failure is a BadRow.
    """
    for stage in StageId:
        if stage not in matrices:
            raise BadRow(f"oracle matrix for {stage.value} is missing")
        try:
            rows = row_probabilities(matrices[stage])
        except BadRow as exc:
            raise BadRow(f"oracle matrix for {stage.value}: {exc}") from exc
        check_oracle_inputs(stage, rows, confidence_law)
    acc = matrices_to_accuracies(matrices)
    branches = {}
    for i, branch in enumerate(FlapProfile):
        trial = oracle_branch_trials(matrices, branch, n_trials, seed + i, confidence_law)
        trial["analytic_accuracy"] = path_accuracy(acc, branch)
        branches[branch.value] = trial
    return {
        "mode": "oracle",
        "n_trials_per_branch": n_trials,
        "stage_accuracies": acc.by_name(),
        "branches": branches,
    }
