"""Desk-scale validation runs: synthetic wheels and calibrated oracles.

Two ways to exercise the full hierarchy without real images: generate
synthetic wheels and push them through the rule-based classifiers, or
replay stochastic oracles calibrated to published confusion matrices.
Both report measured accuracies next to the analytic path products so
the propagation model can be checked side by side. The oracle lives here
whole: the rules its matrices and law must meet, its per-trial sampler,
the hit cells that score a trial without a predicted class, and the
replay.
"""

from __future__ import annotations

import contextlib
import copy
import threading
from typing import Iterable

import numpy as np

from .engine import EngineConfig, RunDecisions, RunResult, decide_runs
from .errors import ConfigError, ValidationError, is_finite, is_integer, is_number
from .predictions import VectorError, first_invalid_row
from .propagation import ACCURACY_NAMES, StageAccuracies, path_accuracy
from .synth import Wheels, WheelSpec, check_noise_sigma, score_block, wheel_columns
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
# Oracle trials drawn and scored together; bounds each stage's working arrays.
ORACLE_BLOCK = 1 << 16


class BadRow(ValidationError):
    pass


def _draw_wheel(outcome: WearOutcome, rng: np.random.Generator) -> tuple[int, list[int], float]:
    """A random wheel realizing outcome: its flap count, torn flap indices and depth.

    The one statement of the draw, from rng in this order: the flap
    count, integers(12, 33); for a torn outcome the number torn,
    integers(1, 4), and which, choice(n_flaps, n_torn, replace=False);
    then the depth, uniform(0.08, 0.4). These ranges are ones where the
    rule-based classifiers resolve the wear state at zero noise.
    """
    n_flaps = int(rng.integers(12, 33))
    torn: list[int] = []
    if outcome.tear is TearState.WITH_TEAR:
        torn = rng.choice(n_flaps, int(rng.integers(1, 4)), replace=False).tolist()
    return n_flaps, torn, float(rng.uniform(0.08, 0.4))


def spec_for_outcome(
    outcome: WearOutcome, rng: np.random.Generator, noise_sigma: float = 0.0
) -> WheelSpec:
    """Randomized wheel spec realizing a given outcome, drawn as _draw_wheel draws it."""
    n_flaps, torn, depth = _draw_wheel(outcome, rng)
    return WheelSpec(
        usage=outcome.usage,
        profile=outcome.profile,
        severity=outcome.severity,
        n_flaps=n_flaps,
        torn_flaps=frozenset(torn),
        profile_depth=depth,
        noise_sigma=noise_sigma,
    )


def check_simulation_size(n) -> int:
    """The one rule for a simulation's size: n as an int, or a ConfigError.

    The size is an integer (errors.is_integer), at least 1 and small
    enough that numpy can index its per-unit arrays (a size past that
    limit is refused here, not left to fail an allocation).
    """
    if not is_integer(n):
        raise ConfigError(f"simulation size must be an integer, got {n!r}")
    if n < 1:
        raise ConfigError("simulation size must be >= 1")
    if n > np.iinfo(np.intp).max // 64:
        raise ConfigError(f"simulation size {n} is too large")
    return int(n)


def check_seed(seed) -> int:
    """The one rule for a simulation's seed, an integer >= 0: seed as an int, or a ConfigError."""
    if not is_integer(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return int(seed)


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
    score_block(wheel_columns([spec], [seed]), vectors)
    return next(_decide_checked(vectors, config).rows())


def run_synthetic_batch(
    n: int,
    seed: int,
    noise_sigma: float = 0.0,
    config: EngineConfig | None = None,
) -> dict:
    """Round-robin over the 11 outcomes; measures hierarchy accuracy.

    noise_sigma is checked once, by check_noise_sigma. Wheels are drawn
    SYNTH_BLOCK at a time, one wheel after another from the batch RNG:
    _draw_wheel, then the wheel's seed, integers(0, 2**31). Each block
    goes into columns (outcome, flap count, torn flags, depth, seed) and
    is observed and scored into per-stage arrays, both severity stages
    for every wheel, so level 3 is judged on whichever branch the
    profile decision takes. Each stage's rows are then checked once, and
    the hierarchy decides them in one batch.
    """
    n, seed = check_simulation_size(n), check_seed(seed)
    check_noise_sigma(noise_sigma)
    rng = np.random.default_rng(seed)
    vectors = _stage_arrays(n)
    outcome = np.resize(np.arange(len(CONSISTENT_OUTCOMES)), n)  # wheel k: outcome k mod 11
    expected = np.array([o.id for o in CONSISTENT_OUTCOMES])[outcome]
    for start in range(0, n, SYNTH_BLOCK):
        rows = slice(start, min(n, start + SYNTH_BLOCK))
        n_flaps, depth, seeds, torn_rows, torn_flaps = [], [], [], [], []
        for j, index in enumerate(outcome[rows].tolist()):
            flaps, torn, wheel_depth = _draw_wheel(CONSISTENT_OUTCOMES[index], rng)
            n_flaps.append(flaps)
            depth.append(wheel_depth)
            torn_rows += [j] * len(torn)
            torn_flaps += torn
            seeds.append(int(rng.integers(0, 2**31)))
        torn_mask = np.zeros((len(n_flaps), max(n_flaps)), dtype=bool)
        torn_mask[torn_rows, torn_flaps] = True
        sigma = np.full(len(seeds), float(noise_sigma))
        wheels = Wheels(outcome[rows], np.array(n_flaps), torn_mask, np.array(depth), seeds, sigma)
        score_block(wheels, {stage: v[rows] for stage, v in vectors.items()})

    decisions = _decide_checked(vectors, config)
    hit = decisions.outcome_id == expected
    correct = np.bincount(expected[hit], minlength=len(CONSISTENT_OUTCOMES) + 1).tolist()
    total = np.bincount(expected, minlength=len(CONSISTENT_OUTCOMES) + 1).tolist()
    return {
        "mode": "synth",
        "n": n,
        "noise_sigma": float(noise_sigma),  # finite: check_noise_sigma refused any other
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


def check_oracle_inputs(
    stage: StageId, row_probs, confidence_law
) -> tuple[np.ndarray, tuple[float, float, float]]:
    """The oracle's rows and law for a stage of k classes, as floats; else a BadRow.

    row_probs must be k x k, each row a probability distribution. The law
    (mean_correct, mean_false, spread) must be three numbers, each mean in
    (1/k, 1) and the spread finite and >= 0.
    """
    n_classes = len(STAGE_CLASSES[stage])
    rows = np.asarray(row_probs, dtype=float)
    if rows.shape != (n_classes, n_classes):
        raise BadRow(f"{stage.value} rows must be {n_classes}x{n_classes}, got shape {rows.shape}")
    if not np.all(rows >= 0) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-9):
        raise BadRow("each confusion row must be a probability distribution")
    law = tuple(confidence_law) if isinstance(confidence_law, (list, tuple)) else ()
    if len(law) != 3 or not all(is_number(x) for x in law):
        raise BadRow(f"confidence_law must be three numbers, got {confidence_law!r}")
    mean_correct, mean_false, spread = law
    for mean in (mean_correct, mean_false):
        if not 1.0 / n_classes < mean < 1.0:  # false for NaN too
            raise BadRow(f"confidence_law mean must be in (1/{n_classes}, 1), got {mean}")
    if not (is_finite(spread) and spread >= 0):  # -0.0 is a spread of 0
        raise BadRow(f"confidence_law spread must be finite and >= 0, got {spread}")
    return rows, (float(mean_correct), float(mean_false), float(spread))


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


def hit_cells(row_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each truth class's CDF cell: where its uniform lands when the sampler is right.

    sample_oracle_predictions predicts class t for truth t exactly when
    the trial's uniform u has lo[t] < u <= hi[t], with lo[t] = cdf[t, t-1]
    (-inf for t = 0) and hi[t] = cdf[t, t] (+inf for the last class), cdf
    being the cumsum of row_probs along each row. Its predicted class is
    the count of a row's first k-1 CDF values below u, and a cumsum of
    non-negative floats never decreases, so that count is t just when
    the values below u are the first t. row_probs are rows as
    check_oracle_inputs returns them.
    """
    cdf = np.cumsum(row_probs, axis=1)
    lo = np.concatenate(([-np.inf], cdf.diagonal(-1)))
    hi = np.concatenate((cdf.diagonal()[:-1], [np.inf]))
    return lo, hi


def hits(cells: tuple[np.ndarray, np.ndarray], truths: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Whether the sampler would predict each trial's truth from its uniform u.

    cells are hit_cells(row_probs); a trial is a hit when lo[t] < u <= hi[t]
    for its truth t. Two gathers, and no predicted class is built.
    """
    lo, hi = cells
    return (u > lo.take(truths)) & (u <= hi.take(truths))


def sample_oracle_predictions(
    stage: StageId,
    truths: np.ndarray,
    row_probs: np.ndarray,
    confidence_law: tuple[float, float, float],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized oracle core: sampled predicted classes and confidences.

    truths are class indices in [0, k); any other index is a BadRow.
    row_probs[c] is the confusion-row distribution over predictions for
    true class c. A trial's predicted class is the number of its row's
    first k-1 CDF values below its uniform draw, one column at a time,
    so it is below k even when a row's sum ends just under 1. Confidences
    are one standard normal draw per trial, scaled by spread around
    mean_correct or mean_false depending on correctness (the draws and
    roundings of rng.normal(means, spread)) and clamped to
    (1/n_classes, 1]. Of rng, only random and standard_normal are used.
    hit_cells states when the predicted class is the truth.
    """
    row_probs, (mean_correct, mean_false, spread) = check_oracle_inputs(
        stage, row_probs, confidence_law
    )
    n_classes = len(row_probs)

    truths = np.asarray(truths)
    if len(truths) and not (0 <= truths.min() and truths.max() < n_classes):
        raise BadRow(f"{stage.value} truth classes must be in [0, {n_classes})")
    u = rng.random(len(truths))
    cdf = np.cumsum(row_probs, axis=1)
    preds = np.zeros(len(truths), dtype=np.intp)
    for j in range(n_classes - 1):
        preds += u > cdf[:, j].take(truths)

    confs = rng.standard_normal(len(truths), out=u)  # u is spent; reuse its buffer
    with np.errstate(over="ignore"):  # a huge spread overflows to +-inf, which the clip bounds
        confs *= spread
    confs += np.where(preds == truths, mean_correct, mean_false)
    return preds, np.clip(confs, 1.0 / n_classes + 1e-9, 1.0, out=confs)


def _draw_classes(p: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n classes drawn from distribution p: rng.choice(len(p), size=n, p=p), draw for draw.

    The same uniforms and normalised CDF, with a class counting the CDF
    values at or below its uniform one column at a time, in bytes (p has
    fewer than 256 classes); the last value is 1.0 and never counts.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    classes = np.zeros(n, dtype=np.uint8)
    for edge in cdf[:-1]:
        classes += (u >= edge).view(np.uint8)
    return classes.astype(np.intp)


def _cursor(rng: np.random.Generator, skip: int) -> np.random.Generator:
    """A generator yielding what rng yields after rng.random(skip); rng itself does not move."""
    return np.random.Generator(copy.deepcopy(rng.bit_generator).advance(skip))


@contextlib.contextmanager
def _beside(fn, *args):
    """Run fn(*args) on one helper thread while the with-block runs.

    The helper is joined when the block ends, however it ends. If the
    block ended normally and fn raised, fn's exception is raised here.
    """
    raised = []

    def run():
        try:
            fn(*args)
        except BaseException as exc:  # raised in the caller, not printed by the thread
            raised.append(exc)

    helper = threading.Thread(target=run)
    helper.start()
    try:
        yield
    finally:
        helper.join()
    if raised:
        raise raised.pop()


def _stage_oracles(
    matrices: dict[StageId, list[list[int]]], stages: Iterable[StageId], confidence_law
) -> dict:
    """Each stage's (truth marginals, hit cells); the one check of an oracle's inputs.

    Stage by stage, in order: its matrix must be present and pass
    row_probabilities, whose message then gets the prefix "oracle matrix
    for <stage>: ", and its rows and the law check_oracle_inputs. The
    first failure is a BadRow.
    """
    oracles = {}
    for stage in stages:
        if stage not in matrices:
            raise BadRow(f"oracle matrix for {stage.value} is missing")
        try:
            rows = row_probabilities(matrices[stage])
        except BadRow as exc:
            raise BadRow(f"oracle matrix for {stage.value}: {exc}") from exc
        rows, _ = check_oracle_inputs(stage, rows, confidence_law)
        oracles[stage] = (truth_marginals(matrices[stage]), hit_cells(rows))
    return oracles


def _skip_normals(rng: np.random.Generator, n: int) -> None:
    """Move rng past n standard normals, drawn into one buffer ORACLE_BLOCK at a time."""
    buffer = np.empty(min(n, ORACLE_BLOCK))
    for start in range(0, n, ORACLE_BLOCK):
        size = min(n - start, ORACLE_BLOCK)
        rng.standard_normal(size, out=buffer[:size])


def _score_stage(oracle, rng, predictions, all_correct: np.ndarray) -> int:
    """Draw and score one stage's trials ORACLE_BLOCK at a time; the count of hits.

    Truths come from rng and prediction uniforms from predictions; each
    trial's all-correct flag is cleared where it misses.
    """
    marginals, cells = oracle
    n_trials = len(all_correct)
    n_correct = 0
    for start in range(0, n_trials, ORACLE_BLOCK):
        block = slice(start, min(n_trials, start + ORACLE_BLOCK))
        size = block.stop - block.start
        truths = _draw_classes(marginals, size, rng)
        correct = hits(cells, truths, predictions.random(size))
        all_correct[block] &= correct
        n_correct += int(np.count_nonzero(correct))
    return n_correct


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
    trial is correct when every stage on the branch is. Before any draw,
    _stage_oracles checks the branch's stages.

    Each stage is drawn and scored ORACLE_BLOCK trials at a time, from
    the same stream as one draw of all n: its n truth uniforms, then n
    prediction uniforms, then n standard normals, after which the next
    stage starts. Truths come from the stage's generator and prediction
    uniforms from a copy advanced by n. A trial's prediction is right
    when its uniform falls in its truth's cell (hits), so no
    predicted class is built. The normals would set the trials'
    confidences, which no report reads; they are drawn only to reach the
    next stage's start, so the last stage draws none. They come from a
    copy advanced by 2n, taken before the stage draws anything, and are
    drawn on one helper thread while this thread scores the stage's
    uniforms; numpy releases the GIL for both, so on two cores they
    overlap. The next stage starts from that copy once the helper is
    joined, which it is on every path; an exception it raised is raised
    here. At most two threads run, and nothing sets their number.
    Memory is one byte per trial, the trials' running all-correct flags,
    plus this thread's block and the helper's normals buffer.
    """
    n_trials, seed = check_simulation_size(n_trials), check_seed(seed)
    stages = BRANCH_STAGES[branch]
    oracles = _stage_oracles(matrices, stages, confidence_law)
    rng = np.random.default_rng(seed)
    stage_accuracy = {}
    all_correct = np.ones(n_trials, dtype=bool)
    for stage, oracle in oracles.items():
        predictions = _cursor(rng, n_trials)
        if stage is stages[-1]:
            n_correct = _score_stage(oracle, rng, predictions, all_correct)
        else:
            next_stage = _cursor(rng, 2 * n_trials)
            with _beside(_skip_normals, next_stage, n_trials):
                n_correct = _score_stage(oracle, rng, predictions, all_correct)
            rng = next_stage
        stage_accuracy[stage.value] = n_correct / n_trials

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

    Before any draw, _stage_oracles checks all five stages.
    """
    _stage_oracles(matrices, StageId, confidence_law)
    n_trials, seed = check_simulation_size(n_trials), check_seed(seed)
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
