"""Synthetic flap-wheel observations with known ground truth.

Generates 1-D radial profile contours and axial gap patterns from a
wheel spec, plus rule-based feature classifiers that turn those
observations into probability rows (tuples of floats in their stage's
class order, which the batch driver checks a stage at a time), and a
vectorized stochastic oracle that imitates upstream models with a given
confusion behavior.
Together they close the loop around the hierarchy engine without images
or trained networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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


@dataclass(frozen=True)
class RadialProfile:
    samples: tuple[float, ...]
    fringe: bool


@dataclass(frozen=True)
class AxialGapPattern:
    gap_angles: tuple[float, ...]


@dataclass(frozen=True)
class SyntheticObservation:
    spec: WheelSpec
    radial: RadialProfile
    axial: AxialGapPattern


def _severity_span(spec: WheelSpec, rng: np.random.Generator) -> tuple[float, float]:
    if spec.severity is Severity.FULLY:
        span = rng.uniform(0.90, 1.0)
        start = (1.0 - span) / 2.0
    else:
        span = rng.uniform(0.30, 0.60)
        start = rng.uniform(0.0, 1.0 - span)
    return start, start + span


def generate_observation(spec: WheelSpec, seed: int) -> SyntheticObservation:
    """Deterministic synthetic observation for a wheel spec.

    The radial contour is a constant base radius with a smooth bump of
    depth profile_depth (depression for concave, bulge for convex) over
    the severity span; gaussian noise_sigma perturbs the samples. Torn
    flaps widen their axial gap well past the nominal jitter.
    """
    rng = np.random.default_rng(seed)
    w = np.linspace(0.0, 1.0, PROFILE_SAMPLES)
    r = np.full(PROFILE_SAMPLES, BASE_RADIUS)

    if spec.profile is not FlapProfile.RECTANGULAR:
        lo, hi = _severity_span(spec, rng)
        inside = (w >= lo) & (w <= hi)
        t = (w[inside] - lo) / (hi - lo)
        bump = spec.profile_depth * np.sin(math.pi * t)
        if spec.profile is FlapProfile.CONCAVE:
            r[inside] -= bump
        else:
            r[inside] += bump

    if spec.noise_sigma > 0:
        r = r + rng.normal(0.0, spec.noise_sigma, PROFILE_SAMPLES)
    r = np.clip(r, 1e-6, 1.0)
    radial = RadialProfile(tuple(float(x) for x in r), spec.has_fringe)

    gap_nominal = (1.0 - FLAP_ARC_FRACTION) * 2.0 * math.pi / spec.n_flaps
    gaps = np.full(spec.n_flaps, gap_nominal)
    if spec.noise_sigma > 0:
        gaps *= 1.0 + rng.uniform(-GAP_JITTER, GAP_JITTER, spec.n_flaps)
    for i in sorted(spec.torn_flaps):
        gaps[i] = gap_nominal * rng.uniform(*TORN_GAP_RANGE)
    axial = AxialGapPattern(tuple(float(g) for g in gaps))

    return SyntheticObservation(spec, radial, axial)


def _softmax(scores: Sequence[float]) -> tuple[float, ...]:
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    total = sum(exps)
    return tuple(e / total for e in exps)


def _edge_stats(samples: np.ndarray) -> tuple[float, float]:
    """(edge mean, signed interior extremum relative to edge mean)."""
    k = max(2, int(round(EDGE_FRACTION * len(samples))))
    edge_mean = float(np.mean(np.concatenate([samples[:k], samples[-k:]])))
    interior = samples[k:-k] - edge_mean
    idx = int(np.argmax(np.abs(interior)))
    return edge_mean, float(interior[idx])


def profile_feature_classifier(radial: RadialProfile) -> tuple[float, ...]:
    """Score the flap profile from the contour's central deviation.

    The sign of the largest interior deviation from the edge mean picks
    concave (negative) vs convex (positive); near-zero deviation leaves
    rectangular maximal.
    """
    samples = np.asarray(radial.samples)
    _, deviation = _edge_stats(samples)
    scores = (
        1.0 - _PROFILE_SCORE_GAIN * abs(deviation),  # rectangular
        -_PROFILE_SCORE_GAIN * deviation,            # concave
        _PROFILE_SCORE_GAIN * deviation,             # convex
    )
    return _softmax(scores)


def severity_feature_classifier(radial: RadialProfile, branch: FlapProfile) -> tuple[float, ...]:
    """Score full vs partial profiling from the affected-width fraction.

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

    samples = np.asarray(radial.samples)
    baseline = float(np.max(samples) if branch is FlapProfile.CONCAVE else np.min(samples))
    peak = float(np.max(np.abs(samples - baseline)))
    if peak == 0.0:
        affected_fraction = 0.0
    else:
        affected = np.abs(samples - baseline) > 0.1 * peak
        affected_fraction = float(np.count_nonzero(affected)) / len(samples)

    p_fully = 1.0 / (1.0 + math.exp(-_SEVERITY_SLOPE * (affected_fraction - SEVERITY_BOUNDARY)))
    return (p_fully, 1.0 - p_fully)


def tear_feature_classifier(axial: AxialGapPattern) -> tuple[float, ...]:
    """Score tear presence from the max-to-median gap ratio."""
    gaps = np.asarray(axial.gap_angles)
    ratio = float(np.max(gaps) / np.median(gaps))
    p_tear = 1.0 / (1.0 + math.exp(-_TEAR_LOGISTIC_SLOPE * (ratio - _TEAR_LOGISTIC_CENTER)))
    return (p_tear, 1.0 - p_tear)


def usage_feature_classifier(radial: RadialProfile) -> tuple[float, ...]:
    """Score new vs used from the fringe marker.

    Contour roughness softens the confidence, mimicking how noisy
    images lower the upstream model's certainty.
    """
    samples = np.asarray(radial.samples)
    roughness = float(np.std(np.diff(samples)))
    conf = min(0.98, max(0.60, 0.98 - 3.0 * roughness))
    return (conf, 1.0 - conf) if radial.fringe else (1.0 - conf, conf)


def observation_vectors(obs: SyntheticObservation) -> dict[StageId, tuple[float, ...]]:
    """Stage -> probability row, for every stage the rule-based classifiers score on one wheel."""
    vectors = {
        StageId.USAGE: usage_feature_classifier(obs.radial),
        StageId.PROFILE: profile_feature_classifier(obs.radial),
        StageId.TEAR: tear_feature_classifier(obs.axial),
    }
    severity_stage = SEVERITY_STAGE.get(obs.spec.profile)
    if severity_stage is not None:
        vectors[severity_stage] = severity_feature_classifier(obs.radial, obs.spec.profile)
    return vectors


def sample_oracle_predictions(
    stage: StageId,
    truths: np.ndarray,
    row_probs: np.ndarray,
    confidence_law: tuple[float, float, float],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized oracle core: sampled predicted classes and confidences.

    truths are class indices; row_probs[c] is the confusion-row
    distribution over predictions for true class c. Confidences are
    drawn around mean_correct or mean_false depending on correctness and
    clamped to (1/n_classes, 1].
    """
    n_classes = len(STAGE_CLASSES[stage])
    row_probs = np.asarray(row_probs, dtype=float)
    if row_probs.shape != (n_classes, n_classes):
        raise BadRow(f"row matrix must be {n_classes}x{n_classes}")
    if np.any(row_probs < 0) or np.any(np.abs(row_probs.sum(axis=1) - 1.0) > 1e-9):
        raise BadRow("each confusion row must be a probability distribution")

    mean_correct, mean_false, spread = confidence_law
    lo = 1.0 / n_classes
    for m in (mean_correct, mean_false):
        if not lo < m < 1.0:
            raise BadRow(f"confidence mean {m} outside (1/{n_classes}, 1)")

    truths = np.asarray(truths)
    u = rng.random(len(truths))
    cdf = np.cumsum(row_probs, axis=1)
    preds = (u[:, None] > cdf[truths]).sum(axis=1)

    means = np.where(preds == truths, mean_correct, mean_false)
    confs = rng.normal(means, spread)
    return preds, np.clip(confs, lo + 1e-9, 1.0)

