"""Desk-scale validation runs: synthetic wheels and calibrated oracles.

Two ways to exercise the full hierarchy without real images: generate
synthetic wheels and push them through the rule-based classifiers, or
replay stochastic oracles calibrated to published confusion matrices.
The synthetic run reports the hierarchy's accuracy and, per outcome,
its wheels and correct verdicts. The oracle replay reports each
branch's measured accuracy next to its analytic path product, so the
propagation model can be checked side by side. The oracle lives here
whole: the rules its matrices and law must meet, its per-trial sampler,
the hit cells that score a trial without a predicted class, and the
replay.
"""

from __future__ import annotations

import copy
import threading
from collections import deque
from typing import Iterable

import numpy as np

from .engine import EngineConfig, RunDecisions, RunResult, decide_runs
from .errors import ConfigError, check_seed, is_finite, is_integer, is_number
from .predictions import VectorError, first_invalid_row
from .propagation import ACCURACY_NAMES, StageAccuracies, path_accuracy, propagation_report
from .synth import (
    Wheels,
    WheelSpec,
    _NumpyWords,
    check_noise_sigma,
    score_block,
    wheel_columns,
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
# Oracle trials drawn and scored together; bounds each stage's working arrays.
ORACLE_BLOCK = 1 << 16
# The most trials per branch the oracle replays; 2**40 already take about a day to replay.
_MAX_ORACLE_TRIALS = 1 << 40


class BadRow(ConfigError):
    """A fault in an oracle input: its counts, rows, law or truth classes."""


def _draw_wheel(
    outcome: WearOutcome, rng: np.random.Generator | _NumpyWords
) -> tuple[int, list[int], float]:
    """A random wheel realizing outcome: its flap count, torn flap indices and depth.

    The one statement of the draw, from rng in this order, each draw an
    integers or random call: the flap count n, integers(12, 33); for a
    torn outcome the number torn k, integers(1, 4), then which flaps by
    Floyd's sample, integers(0, j + 1) for j = n - k, ..., n - 1 (a value
    already taken is replaced by j), then a Fisher-Yates pass,
    integers(0, i + 1) for i = k - 1, ..., 1, each swapping places i and
    its draw; then the depth, 0.08 + (0.4 - 0.08) * random(). Draw for
    draw, that is what choice(n, k, replace=False) takes for a
    population of at most 10,000 (n is at most 32) and what
    uniform(0.08, 0.4) takes, so the torn list and the depth are theirs
    and so is the state rng is left in. rng is a Generator or, for the
    batch's stream, a synth._NumpyWords, which draws what a Generator on
    its bit generator would. These ranges are ones where the rule-based
    classifiers resolve the wear state at zero noise.
    """
    n_flaps = int(rng.integers(12, 33))
    torn: list[int] = []
    if outcome.tear is TearState.WITH_TEAR:
        n_torn = int(rng.integers(1, 4))
        for j in range(n_flaps - n_torn, n_flaps):
            v = int(rng.integers(0, j + 1))
            torn.append(j if v in torn else v)
        for i in range(n_torn - 1, 0, -1):
            v = int(rng.integers(0, i + 1))
            torn[i], torn[v] = torn[v], torn[i]
    return n_flaps, torn, 0.08 + (0.4 - 0.08) * rng.random()


def spec_for_outcome(
    outcome: WearOutcome, rng: np.random.Generator | _NumpyWords, noise_sigma: float = 0.0
) -> WheelSpec:
    """Randomized wheel spec realizing a given outcome, drawn from rng as _draw_wheel draws it."""
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
    SYNTH_BLOCK at a time, one wheel after another from the batch's
    stream, each draw an integers or random call: _draw_wheel (the flap
    count, for a torn wheel the number torn and Floyd's sample of which,
    then the depth), then the wheel's seed, integers(0, 2**31). The
    stream is a synth._NumpyWords on default_rng(seed)'s bit generator:
    numpy makes its words, and it draws what that Generator would, call
    for call. Draw for draw these are the choice(..., replace=False)
    and uniform calls _draw_wheel states they replace. Each block goes
    into columns (outcome, flap count, torn flags, depth, seed) and is
    observed (synth.observe_block), each wheel drawing what
    default_rng(its seed) would, from PCG64 states stepped for the whole
    block as uint64 columns. It is scored into per-stage arrays, both
    severity stages for every wheel, so level 3 is judged on whichever
    branch the profile decision takes. Each stage's rows are then
    checked once, and the hierarchy decides them in one batch.
    """
    n, seed = check_simulation_size(n), check_seed(seed)
    check_noise_sigma(noise_sigma)
    rng = _NumpyWords(np.random.default_rng(seed).bit_generator)
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


def _read_counts(counts) -> tuple[np.ndarray, np.ndarray, float]:
    """A confusion matrix's rows, truth marginals and accuracy; the one statement of valid counts.

    counts is a matrix of numbers, each finite and >= 0, whose row totals
    and total are finite, with no all-zero row; anything else is a BadRow.
    All three come from one float array: rows P(pred | truth) are counts
    over row totals, marginals row totals over their sum, accuracy trace
    over total.
    """
    cells = np.array(counts, dtype=object)  # ragged rows stay lists: a 1-D array
    if cells.ndim != 2 or not all(is_finite(c) and c >= 0 for c in cells.flat):
        raise BadRow("confusion counts must be a matrix of numbers, each finite and >= 0")
    counts_arr = cells.astype(float)
    with np.errstate(over="ignore"):  # an overflowing sum is refused below, not warned about
        totals = counts_arr.sum(axis=1)
        total = counts_arr.sum()
        sums_finite = np.isfinite(totals).all() and np.isfinite(total)
    if not sums_finite:
        raise BadRow("confusion counts overflow when summed")
    if np.any(totals == 0):
        raise BadRow("confusion matrix has an empty truth row")
    return counts_arr / totals[:, None], totals / totals.sum(), float(np.trace(counts_arr) / total)


def row_probabilities(counts: list[list[int]]) -> np.ndarray:
    """Confusion-row distributions P(pred | truth), as _read_counts reads them."""
    return _read_counts(counts)[0]


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
    """Truth-class distribution from confusion-matrix row totals, as _read_counts reads it."""
    return _read_counts(counts)[1]


def _read_stage(matrices: dict[StageId, list[list[int]]], stage: StageId):
    """_read_counts of stage's matrix; a missing or invalid one is a BadRow naming the stage."""
    if stage not in matrices:
        raise BadRow(f"oracle matrix for {stage.value} is missing")
    try:
        return _read_counts(matrices[stage])
    except BadRow as exc:
        raise BadRow(f"oracle matrix for {stage.value}: {exc}") from exc


def matrices_to_accuracies(matrices: dict[StageId, list[list[int]]]) -> StageAccuracies:
    """Each stage's accuracy, trace over total, as _read_stage reads its matrix."""
    acc = {name: _read_stage(matrices, s)[2] for s, name in ACCURACY_NAMES.items()}
    return StageAccuracies.from_names(acc)


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
    for its truth t. The truth is tested class by class, so nothing is
    gathered and no predicted class is built. u is in [0, 1), so the open
    ends, lo[0] = -inf and hi[k-1] = +inf, are not tested.
    """
    lo, hi = cells
    last = len(lo) - 1
    hit = np.zeros(len(truths), dtype=bool)
    for c in range(len(lo)):
        in_cell = truths == c
        if c > 0:
            in_cell &= u > lo[c]
        if c < last:
            in_cell &= u <= hi[c]
        hit |= in_cell
    return hit


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


def _draw_classes(cdf: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n classes as uint8, drawn as rng.choice(len(p), size=n, p=p) draws them.

    cdf is choice's CDF, p.cumsum() over its last value; a class counts the
    CDF values at or below its uniform one column at a time, in bytes (p
    has fewer than 256 classes). The last value is 1.0 and never counts.
    """
    u = rng.random(n)
    classes = np.zeros(n, dtype=np.uint8)
    for edge in cdf[:-1]:
        classes += (u >= edge).view(np.uint8)
    return classes


def _cursor(rng: np.random.Generator, skip: int) -> np.random.Generator:
    """A generator yielding what rng yields after rng.random(skip); rng itself does not move."""
    return np.random.Generator(copy.deepcopy(rng.bit_generator).advance(skip))


def _stage_oracles(
    matrices: dict[StageId, list[list[int]]], stages: Iterable[StageId], confidence_law
) -> dict:
    """Each stage's (truth CDF, hit cells, accuracy); the one check of an oracle's inputs.

    Stage by stage, in order: _read_stage reads its matrix once, then
    check_oracle_inputs checks its rows and the law; the first failure is
    a BadRow. The truth CDF is normalised once, as _draw_classes takes it.
    """
    oracles = {}
    for stage in stages:
        rows, marginals, accuracy = _read_stage(matrices, stage)
        rows, _ = check_oracle_inputs(stage, rows, confidence_law)
        cdf = marginals.cumsum()
        cdf /= cdf[-1]
        oracles[stage] = (cdf, hit_cells(rows), accuracy)
    return oracles


def _skip_normals(rng: np.random.Generator, n: int, stop: threading.Event) -> None:
    """Move rng past n standard normals, drawn into one buffer ORACLE_BLOCK at a time.

    stop is tested before each block; once it is set, rng is left part way.
    """
    buffer = np.empty(min(n, ORACLE_BLOCK))
    for start in range(0, n, ORACLE_BLOCK):
        if stop.is_set():
            return
        rng.standard_normal(out=buffer[: n - start])


def _walk(seed: int, n_stages: int, n: int, stop: threading.Event) -> list[np.random.Generator]:
    """The generator each of a chain's n_stages stages starts from, the first default_rng(seed).

    A stage's successor starts where its 2n uniforms and n normals end: a
    cursor 2n past its start, moved past the normals (_skip_normals). Once
    stop is set the walk ends, with fewer starts than stages.
    """
    starts = [np.random.default_rng(seed)]
    while len(starts) < n_stages and not stop.is_set():
        start = _cursor(starts[-1], 2 * n)
        _skip_normals(start, n, stop)
        starts.append(start)
    return starts


def _score(oracles: dict, branch: FlapProfile, starts: list, n: int, stop: threading.Event):
    """branch's trial record: the branch, n, measured and per-stage accuracy; None once stopped.

    The chain is scored ORACLE_BLOCK trials at a time, stop tested before
    each block: stage s draws truths from starts[s], which it moves, and
    prediction uniforms from a cursor n further on. The stages' hits are
    ANDed within a block and counted, so no array outlives its block.
    """
    stages = BRANCH_STAGES[branch]
    draws = [(oracles[stage][:2], start, _cursor(start, n)) for stage, start in zip(stages, starts)]
    stage_hits, n_correct = [0] * len(stages), 0
    for lo in range(0, n, ORACLE_BLOCK):
        if stop.is_set():
            return None
        size = min(n - lo, ORACLE_BLOCK)
        all_correct = np.ones(size, dtype=bool)
        for s, ((cdf, cells), truths, predictions) in enumerate(draws):
            correct = hits(cells, _draw_classes(cdf, size, truths), predictions.random(size))
            stage_hits[s] += int(np.count_nonzero(correct))
            all_correct &= correct
        n_correct += int(np.count_nonzero(all_correct))
    return {
        "branch": branch.value,
        "n_trials": n,
        "measured_accuracy": n_correct / n,
        "stage_accuracy": {stage.value: h / n for stage, h in zip(stages, stage_hits)},
    }


def _replay(oracles: dict, chains: list[tuple[FlapProfile, int]], n_trials: int) -> list[dict]:
    """Each (branch, seed) chain's trial record, as _score makes it.

    oracles are _stage_oracles for the chains' stages. A size above
    _MAX_ORACLE_TRIALS is refused before any draw. This thread and one
    helper pop tasks from one deque: each chain's walk, then each chain's
    scoring, which waits for its walk's event; a walk waited for is done
    or under way. Numpy releases the GIL for the draws, so the threads
    overlap. On an exception on either thread or an interrupt of this one,
    the stop is set and every event woken, so each thread ends within a
    block; the helper is joined on every path, then the first exception
    raised. At most two threads run, and nothing sets their number.
    Memory is a block of draws per thread and a buffer of normals.
    """
    if n_trials > _MAX_ORACLE_TRIALS:
        raise ConfigError(f"simulation size {n_trials} is too large: at most {_MAX_ORACLE_TRIALS}")
    stop, walked = threading.Event(), [threading.Event() for _ in chains]
    starts, trials, errors = [None] * len(chains), [None] * len(chains), []

    def walk(c: int) -> None:
        starts[c] = _walk(chains[c][1], len(BRANCH_STAGES[chains[c][0]]), n_trials, stop)
        walked[c].set()

    def score(c: int) -> None:
        walked[c].wait()
        trials[c] = _score(oracles, chains[c][0], starts[c], n_trials, stop)

    tasks = deque([(task, c) for task in (walk, score) for c in range(len(chains))])

    def halt() -> None:
        stop.set()
        for event in walked:
            event.set()

    def work() -> None:
        try:
            while not stop.is_set():
                try:
                    task, c = tasks.popleft()
                except IndexError:  # every task is taken
                    return
                task(c)
        except BaseException as exc:  # raised once the helper is joined, not printed by it
            errors.append(exc)
            halt()

    helper = threading.Thread(target=work)
    helper.start()
    try:
        work()
        helper.join()
    finally:
        halt()
        helper.join()
    if errors:
        raise errors[0]
    return trials


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
    stage starts. A trial's prediction is right when its uniform falls in
    its truth's cell (hits), so no predicted class is built. The normals
    would set the trials' confidences, which no report reads; they are
    drawn only to reach the next stage's start, so the last stage draws
    none. _replay runs the branch: its threads, memory and error paths
    are stated there.
    """
    n_trials, seed = check_simulation_size(n_trials), check_seed(seed)
    oracles = _stage_oracles(matrices, BRANCH_STAGES[branch], confidence_law)
    (trial,) = _replay(oracles, [(branch, seed)], n_trials)
    return trial


def run_oracle_batch(
    matrices: dict[StageId, list[list[int]]],
    n_trials: int,
    seed: int,
    confidence_law: tuple[float, float, float] = DEFAULT_CONFIDENCE_LAW,
    decimals: int = 3,
) -> dict:
    """Each branch against its analytic path accuracy, and the propagation report at decimals.

    The size and the seed, then all five stages, by _stage_oracles' one
    reading, are checked before any draw; the accuracies are that
    reading's. Branch i is replayed as oracle_branch_trials replays it
    with seed + i; all three are one _replay, so one helper serves them.
    """
    n_trials, seed = check_simulation_size(n_trials), check_seed(seed)
    oracles = _stage_oracles(matrices, StageId, confidence_law)
    acc = StageAccuracies.from_names({name: oracles[s][2] for s, name in ACCURACY_NAMES.items()})
    chains = [(branch, seed + i) for i, branch in enumerate(FlapProfile)]
    branches = {}
    for (branch, _), trial in zip(chains, _replay(oracles, chains, n_trials)):
        trial["analytic_accuracy"] = path_accuracy(acc, branch)
        branches[branch.value] = trial
    return {
        "mode": "oracle",
        "n_trials_per_branch": n_trials,
        "stage_accuracies": acc.by_name(),
        "branches": branches,
        "propagation": propagation_report(acc, decimals=decimals),
    }
