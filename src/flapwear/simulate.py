"""Desk-scale validation runs: synthetic wheels and calibrated oracles.

Two ways to exercise the full hierarchy without real images: generate
synthetic wheels and push them through the rule-based classifiers, or
replay stochastic oracles calibrated to published confusion matrices.
Both report measured accuracies next to the analytic path products so
the propagation model can be checked side by side.
"""

from __future__ import annotations

import numpy as np

from .engine import EngineConfig, RunInput, RunResult, classify_run, decide_runs
from .errors import ValidationError
from .predictions import ProbabilityVector, VectorError, first_invalid_row
from .propagation import ACCURACY_NAMES, StageAccuracies, path_accuracy
from .synth import (
    BadRow,
    InvalidSpec,
    WheelSpec,
    generate_observation,
    observation_vectors,
    sample_oracle_predictions,
)
from .taxonomy import (
    BRANCH_STAGES,
    CONSISTENT_OUTCOMES,
    SEVERITY_STAGE,
    STAGE_CLASSES,
    FlapProfile,
    StageId,
    TearState,
    WearOutcome,
)

DEFAULT_CONFIDENCE_LAW = (0.97, 0.89, 0.03)


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


def classify_spec(spec: WheelSpec, seed: int, config: EngineConfig | None = None) -> RunResult:
    """Generate an observation for the spec and run the hierarchy on it."""
    rows = observation_vectors(generate_observation(spec, seed))
    run = RunInput("synthetic", {stage: ProbabilityVector(stage, row) for stage, row in rows.items()})
    return classify_run(run, config)


def run_synthetic_batch(
    n: int,
    seed: int,
    noise_sigma: float = 0.0,
    config: EngineConfig | None = None,
) -> dict:
    """Round-robin over the 11 outcomes; measures hierarchy accuracy.

    The wheels are generated one by one, their vectors kept as per-stage
    arrays; each stage's filled rows are checked once, and the hierarchy
    decides them in one batch.
    """
    if n < 1:
        raise InvalidSpec("batch size must be >= 1")
    rng = np.random.default_rng(seed)
    vectors = {stage: np.zeros((n, len(classes))) for stage, classes in STAGE_CLASSES.items()}
    present = {stage: np.zeros(n, dtype=bool) for stage in SEVERITY_STAGE.values()}
    expected = np.empty(n, dtype=np.int64)
    for k in range(n):
        outcome = CONSISTENT_OUTCOMES[k % len(CONSISTENT_OUTCOMES)]
        spec = spec_for_outcome(outcome, rng, noise_sigma)
        observation = generate_observation(spec, seed=int(rng.integers(0, 2**31)))
        for stage, row in observation_vectors(observation).items():
            vectors[stage][k] = row
            if stage in present:
                present[stage][k] = True
        expected[k] = outcome.id
    for stage, rows in vectors.items():
        invalid = first_invalid_row(rows[present[stage]] if stage in present else rows)
        if invalid is not None:
            raise VectorError(invalid[1])

    decisions = decide_runs(vectors, present, config)
    if decisions.rejected_row >= 0:
        raise decisions.rejection()
    hit = decisions.outcome_id == expected
    correct = np.bincount(expected[hit], minlength=len(CONSISTENT_OUTCOMES) + 1).tolist()
    total = np.bincount(expected, minlength=len(CONSISTENT_OUTCOMES) + 1).tolist()
    return {
        "mode": "synth",
        "n": n,
        "noise_sigma": noise_sigma,
        "hierarchy_accuracy": int(np.count_nonzero(hit)) / n,
        "per_outcome": {
            str(o.id): {"correct": correct[o.id], "total": total[o.id]}
            for o in CONSISTENT_OUTCOMES
            if total[o.id]
        },
    }


def row_probabilities(counts: list[list[int]]) -> np.ndarray:
    """Confusion-row distributions P(pred | truth)."""
    counts_arr = np.asarray(counts, dtype=float)
    totals = counts_arr.sum(axis=1, keepdims=True)
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
    trial is correct when every stage on the branch is.
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    stage_results: dict[StageId, dict[str, np.ndarray]] = {}
    all_correct = np.ones(n_trials, dtype=bool)
    for stage in BRANCH_STAGES[branch]:
        counts = matrices[stage]
        rows = row_probabilities(counts)
        truths = rng.choice(len(rows), size=n_trials, p=truth_marginals(counts))
        preds, confs = sample_oracle_predictions(stage, truths, rows, confidence_law, rng)
        correct = preds == truths
        all_correct &= correct
        stage_results[stage] = {"correct": correct, "confidence": confs}

    measured = float(np.count_nonzero(all_correct)) / n_trials
    return {
        "branch": branch.value,
        "n_trials": n_trials,
        "measured_accuracy": measured,
        "stage_accuracy": {
            stage.value: float(np.mean(res["correct"]))
            for stage, res in stage_results.items()
        },
        "stage_results": stage_results,
    }


def run_oracle_batch(
    matrices: dict[StageId, list[list[int]]],
    n_trials: int,
    seed: int,
    confidence_law: tuple[float, float, float] = DEFAULT_CONFIDENCE_LAW,
) -> dict:
    """All three branches against their analytic path accuracies."""
    acc = matrices_to_accuracies(matrices)
    branches = {}
    for i, branch in enumerate(FlapProfile):
        trial = oracle_branch_trials(matrices, branch, n_trials, seed + i, confidence_law)
        trial.pop("stage_results")
        trial["analytic_accuracy"] = path_accuracy(acc, branch)
        branches[branch.value] = trial
    return {
        "mode": "oracle",
        "n_trials_per_branch": n_trials,
        "stage_accuracies": acc.by_name(),
        "branches": branches,
    }
