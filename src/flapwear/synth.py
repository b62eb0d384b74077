"""Synthetic flap-wheel observations with known ground truth.

Generates 1-D radial profile contours and axial gap patterns for a
block of wheel specs, plus rule-based feature classifiers that turn a
block's observations into probability rows (one (b, k) array per stage,
in its class order, which the batch driver checks a stage at a time),
and a vectorized stochastic oracle that imitates upstream models with a
given confusion behavior.
Together they close the loop around the hierarchy engine without images
or trained networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .taxonomy import (
    SEVERITY_STAGE,
    STAGE_CLASSES,
    FlapProfile,
    Severity,
    StageId,
    TearState,
    UsageState,
)

PROFILE_SAMPLES = 64
BASE_RADIUS = 0.85
EDGE_FRACTION = 0.05

# Fraction of the circumference occupied by flaps; the rest is gaps.
FLAP_ARC_FRACTION = 0.7
# Torn flaps widen their gap by this factor range over the nominal gap.
TORN_GAP_RANGE = (1.5, 3.0)
# Relative jitter of untorn gaps ("the gaps always vary slightly").
GAP_JITTER = 0.10

# A max/median gap ratio at or above this leans toward a tear verdict;
# the logistic center sits below it so the boundary itself still trips.
TEAR_RATIO_BOUNDARY = 1.5
_TEAR_LOGISTIC_CENTER = 1.35
_TEAR_LOGISTIC_SLOPE = 10.0

# Affected-width fraction separating partial from complete profiling.
SEVERITY_BOUNDARY = 0.75
_SEVERITY_SLOPE = 8.0

_PROFILE_SCORE_GAIN = 30.0

# Sample positions across the flap width, shared by every contour.
_W = np.linspace(0.0, 1.0, PROFILE_SAMPLES)
# Sign of the bump on the base radius: concave flaps are depressed, convex ones bulge.
_BUMP_DIRECTION = {FlapProfile.RECTANGULAR: 0.0, FlapProfile.CONCAVE: -1.0, FlapProfile.CONVEX: 1.0}
# Total gap angle around the wheel, shared out among its flaps.
_GAP_ARC = (1.0 - FLAP_ARC_FRACTION) * 2.0 * math.pi


class InvalidSpec(ValidationError):
    pass


class BadRow(ValidationError):
    pass


@dataclass(frozen=True)
class WheelSpec:
    """Ground-truth description of one synthetic flap wheel."""

    usage: UsageState
    profile: FlapProfile
    severity: Optional[Severity] = None
    n_flaps: int = 24
    torn_flaps: frozenset[int] = frozenset()
    profile_depth: float = 0.2
    noise_sigma: float = 0.0
    fringe: Optional[bool] = None  # default derived from usage

    def __post_init__(self):
        if self.n_flaps < 8:
            raise InvalidSpec("n_flaps must be >= 8")
        if any(not 0 <= i < self.n_flaps for i in self.torn_flaps):
            raise InvalidSpec("torn flap index outside 0..n_flaps-1")
        if not 0.0 <= self.profile_depth <= 0.5:
            raise InvalidSpec("profile_depth must be in [0, 0.5]")
        if not 0.0 <= self.noise_sigma < math.inf:  # false for NaN too
            raise InvalidSpec(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        shaped = self.profile in SEVERITY_STAGE
        if shaped and self.severity is None:
            raise InvalidSpec(f"{self.profile.value} profile requires a severity")
        if not shaped and self.severity is not None:
            raise InvalidSpec("rectangular profile must not carry a severity")
        if self.usage is UsageState.NEW:
            if self.profile is not FlapProfile.RECTANGULAR:
                raise InvalidSpec("a new wheel has a rectangular flap shape")
            if self.torn_flaps:
                raise InvalidSpec("a new wheel has no torn flaps")
            if self.fringe is False:
                raise InvalidSpec("a new wheel carries its textile fringes")

    @property
    def has_fringe(self) -> bool:
        if self.fringe is not None:
            return self.fringe
        return self.usage is UsageState.NEW

    @property
    def tear(self) -> TearState:
        return TearState.WITH_TEAR if self.torn_flaps else TearState.NO_TEAR


def _severity_span(spec: WheelSpec, rng: np.random.Generator) -> tuple[float, float]:
    if spec.severity is Severity.FULLY:
        span = rng.uniform(0.90, 1.0)
        start = (1.0 - span) / 2.0
    else:
        span = rng.uniform(0.30, 0.60)
        start = rng.uniform(0.0, 1.0 - span)
    return start, start + span


def observe_wheels(
    specs: Sequence[WheelSpec], seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic synthetic observations of a block of wheels.

    Row j is wheel specs[j], drawn from default_rng(seeds[j]): its
    radial contour, a (b, PROFILE_SAMPLES) array, and its axial gaps, a
    (b, max n_flaps) array whose row j is meaningful up to
    specs[j].n_flaps. The contour is a constant base radius with a smooth
    bump of depth profile_depth (depression for concave, bulge for
    convex) over the severity span; gaussian noise_sigma perturbs the
    samples. Torn flaps widen their gap well past the nominal jitter.
    Each wheel draws its severity span, noise row, gap jitter and torn
    widths (in sorted flap order) one after the other; the arithmetic on
    the draws is done for the whole block.
    """
    b = len(specs)
    n_flaps = np.array([spec.n_flaps for spec in specs])
    lo, hi = np.zeros(b), np.ones(b)
    noise = np.zeros((b, PROFILE_SAMPLES))
    jitter = np.zeros((b, n_flaps.max()))
    torn = np.zeros((b, n_flaps.max()))  # width factor of each torn flap, 0 elsewhere
    for j, (spec, seed) in enumerate(zip(specs, seeds)):
        rng = np.random.default_rng(seed)
        if spec.profile is not FlapProfile.RECTANGULAR:
            lo[j], hi[j] = _severity_span(spec, rng)
        if spec.noise_sigma > 0:
            noise[j] = rng.normal(0.0, spec.noise_sigma, PROFILE_SAMPLES)
            jitter[j, : spec.n_flaps] = rng.uniform(-GAP_JITTER, GAP_JITTER, spec.n_flaps)
        for i in sorted(spec.torn_flaps):
            torn[j, i] = rng.uniform(*TORN_GAP_RANGE)

    direction = np.array([_BUMP_DIRECTION[spec.profile] for spec in specs])
    depth = np.array([spec.profile_depth for spec in specs])
    inside = (_W >= lo[:, None]) & (_W <= hi[:, None]) & (direction != 0.0)[:, None]
    t = (_W - lo[:, None]) / (hi - lo)[:, None]
    bump = depth[:, None] * np.sin(math.pi * t)
    radial = BASE_RADIUS + np.where(inside, direction[:, None] * bump, 0.0) + noise
    radial = np.clip(radial, 1e-6, 1.0)

    nominal = _GAP_ARC / n_flaps
    gaps = nominal[:, None] * np.where(torn > 0.0, torn, 1.0 + jitter)
    return radial, gaps


def _logistic_rows(z: np.ndarray) -> np.ndarray:
    """(1 / (1 + exp(z)), its complement) per row; math.exp on each element."""
    p = 1.0 / (1.0 + np.array([math.exp(x) for x in z.tolist()]))
    return np.column_stack([p, 1.0 - p])


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row softmax: math.exp on each element, each row summed left to right."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    exps = np.array([math.exp(x) for x in shifted.ravel().tolist()]).reshape(scores.shape)
    total = np.zeros(len(exps))
    for j in range(exps.shape[1]):
        total += exps[:, j]
    return exps / total[:, None]


def profile_rows(radial: np.ndarray) -> np.ndarray:
    """Profile rows scored from each contour's central deviation.

    The sign of the largest interior deviation from the edge mean picks
    concave (negative) vs convex (positive); near-zero deviation leaves
    rectangular maximal.
    """
    k = max(2, int(round(EDGE_FRACTION * radial.shape[1])))
    edge_mean = np.mean(np.concatenate([radial[:, :k], radial[:, -k:]], axis=1), axis=1)
    interior = radial[:, k:-k] - edge_mean[:, None]
    deviation = interior[np.arange(len(radial)), np.abs(interior).argmax(axis=1)]
    scores = np.column_stack([
        1.0 - _PROFILE_SCORE_GAIN * np.abs(deviation),  # rectangular
        -_PROFILE_SCORE_GAIN * deviation,               # concave
        _PROFILE_SCORE_GAIN * deviation,                # convex
    ])
    return _softmax_rows(scores)


def severity_rows(radial: np.ndarray, branch: FlapProfile) -> np.ndarray:
    """Full vs partial profiling rows, scored from the affected-width fraction.

    The baseline radius is the extreme opposite to the deformation (max
    for concave, min for convex), so a deformation that touches the flap
    edge cannot bias it. A sample counts as affected when it deviates
    from the baseline by more than a tenth of the peak deviation. The
    score is a logistic in the affected fraction centered on the
    partial/complete boundary, so inputs near the boundary come out
    genuinely uncertain.
    """
    if branch not in SEVERITY_STAGE:
        raise InvalidSpec("severity is only defined for concave/convex branches")
    baseline = radial.max(axis=1) if branch is FlapProfile.CONCAVE else radial.min(axis=1)
    deviation = np.abs(radial - baseline[:, None])
    affected = deviation > 0.1 * deviation.max(axis=1, keepdims=True)
    fraction = np.count_nonzero(affected, axis=1) / radial.shape[1]
    return _logistic_rows(-_SEVERITY_SLOPE * (fraction - SEVERITY_BOUNDARY))


def tear_rows(gaps: np.ndarray, n_flaps: np.ndarray) -> np.ndarray:
    """Tear rows scored from each wheel's max-to-median gap ratio.

    Row j's gaps are gaps[j, :n_flaps[j]]; the median is taken over the
    wheels of one flap count at a time.
    """
    ratio = np.empty(len(gaps))
    for count in np.unique(n_flaps).tolist():
        rows = n_flaps == count
        wheel_gaps = gaps[rows, :count]
        ratio[rows] = wheel_gaps.max(axis=1) / np.median(wheel_gaps, axis=1)
    return _logistic_rows(-_TEAR_LOGISTIC_SLOPE * (ratio - _TEAR_LOGISTIC_CENTER))


def usage_rows(radial: np.ndarray, fringe: np.ndarray) -> np.ndarray:
    """New vs used rows scored from the fringe marker.

    Contour roughness softens the confidence, mimicking how noisy
    images lower the upstream model's certainty.
    """
    roughness = np.std(np.diff(radial, axis=1), axis=1)
    conf = np.minimum(0.98, np.maximum(0.60, 0.98 - 3.0 * roughness))
    rows = np.column_stack([conf, 1.0 - conf])
    return np.where(fringe[:, None], rows, rows[:, ::-1])


def score_wheels(
    specs: Sequence[WheelSpec], seeds: Sequence[int], vectors: Mapping[StageId, np.ndarray]
) -> None:
    """Observe a block of wheels and write every stage's rows in place.

    vectors[stage] is the block's (b, k) slice of the per-stage arrays
    decide_runs takes. Every wheel is scored on both severity stages,
    whatever its true profile, as a deployed pipeline scores the branch
    the engine routes it to.
    """
    radial, gaps = observe_wheels(specs, seeds)
    vectors[StageId.USAGE][:] = usage_rows(radial, np.array([spec.has_fringe for spec in specs]))
    vectors[StageId.PROFILE][:] = profile_rows(radial)
    vectors[StageId.TEAR][:] = tear_rows(gaps, np.array([spec.n_flaps for spec in specs]))
    for profile, stage in SEVERITY_STAGE.items():
        vectors[stage][:] = severity_rows(radial, profile)


def sample_oracle_predictions(
    stage: StageId,
    truths: np.ndarray,
    row_probs: np.ndarray,
    confidence_law: tuple[float, float, float],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized oracle core: sampled predicted classes and confidences.

    truths are class indices; row_probs[c] is the confusion-row
    distribution over predictions for true class c. A trial's predicted
    class is the number of its row's first k-1 CDF values below its
    uniform draw, one column at a time, so it is below k even when a
    row's sum ends just under 1. Confidences are one standard normal
    draw per trial, scaled by spread around mean_correct or mean_false
    depending on correctness (the draws and roundings of
    rng.normal(means, spread)) and clamped to (1/n_classes, 1].
    """
    n_classes = len(STAGE_CLASSES[stage])
    row_probs = np.asarray(row_probs, dtype=float)
    if row_probs.shape != (n_classes, n_classes):
        raise BadRow(f"row matrix must be {n_classes}x{n_classes}")
    if not np.all(row_probs >= 0) or np.any(np.abs(row_probs.sum(axis=1) - 1.0) > 1e-9):
        raise BadRow("each confusion row must be a probability distribution")

    mean_correct, mean_false, spread = confidence_law
    lo = 1.0 / n_classes
    for m in (mean_correct, mean_false):
        if not lo < m < 1.0:
            raise BadRow(f"confidence mean {m} outside (1/{n_classes}, 1)")
    if not 0.0 <= spread < math.inf:  # false for NaN too; -0.0 is a spread of 0
        raise BadRow(f"confidence spread {spread} must be finite and >= 0")

    truths = np.asarray(truths)
    u = rng.random(len(truths))
    cdf = np.cumsum(row_probs, axis=1)
    preds = np.zeros(len(truths), dtype=np.intp)
    for j in range(n_classes - 1):
        preds += u > cdf[:, j].take(truths)

    confs = rng.standard_normal(len(truths), out=u)  # u is spent; reuse its buffer
    confs *= spread
    confs += np.where(preds == truths, mean_correct, mean_false)
    return preds, np.clip(confs, lo + 1e-9, 1.0, out=confs)

