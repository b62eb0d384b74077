"""Synthetic flap-wheel observations with known ground truth.

Generates 1-D radial profile contours and axial gap patterns for a
block of wheels held as columns (``Wheels``), plus rule-based feature
classifiers that turn a block's observations into probability rows (one
(b, k) array per stage, in its class order, which the batch driver
checks a stage at a time). ``WheelSpec`` describes one wheel, and
``wheel_columns`` turns a list of them into a block. Together they
close the loop around the hierarchy engine without images or trained
networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ValidationError, is_finite, is_integer, is_number
from .taxonomy import (
    CONSISTENT_OUTCOMES,
    SEVERITY_STAGE,
    FlapProfile,
    Severity,
    StageId,
    TaxonomyError,
    TearState,
    UsageState,
    WearOutcome,
    outcome_from_parts,
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

# PCG64's multiplier, which it seeds and steps with; SeedSequence hashes in 32-bit words.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1

# Sample positions across the flap width, shared by every contour.
_W = np.linspace(0.0, 1.0, PROFILE_SAMPLES)
# Sign of the bump on the base radius: concave flaps are depressed, convex ones bulge.
_BUMP_DIRECTION = {FlapProfile.RECTANGULAR: 0.0, FlapProfile.CONCAVE: -1.0, FlapProfile.CONVEX: 1.0}
# Total gap angle around the wheel, shared out among its flaps.
_GAP_ARC = (1.0 - FLAP_ARC_FRACTION) * 2.0 * math.pi
# Per position in CONSISTENT_OUTCOMES: bump sign, full severity, new wheel.
_OUTCOME_DIRECTION = np.array([_BUMP_DIRECTION[o.profile] for o in CONSISTENT_OUTCOMES])
_OUTCOME_FULLY = np.array([o.severity is Severity.FULLY for o in CONSISTENT_OUTCOMES])
_OUTCOME_NEW = np.array([o.usage is UsageState.NEW for o in CONSISTENT_OUTCOMES])


class InvalidSpec(ValidationError):
    pass


def check_noise_sigma(noise_sigma) -> None:
    """The one rule for a noise level: finite and >= 0; else an InvalidSpec."""
    if not (is_finite(noise_sigma) and noise_sigma >= 0):
        raise InvalidSpec(f"noise_sigma must be finite and >= 0, got {noise_sigma}")


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
        if not is_integer(self.n_flaps):
            raise InvalidSpec(f"n_flaps must be an integer, got {self.n_flaps!r}")
        if self.n_flaps < 8:
            raise InvalidSpec("n_flaps must be >= 8")
        for i in self.torn_flaps:
            if not is_integer(i):
                raise InvalidSpec(f"torn flap index must be an integer, got {i!r}")
            if not 0 <= i < self.n_flaps:
                raise InvalidSpec("torn flap index outside 0..n_flaps-1")
        if not (is_number(self.profile_depth) and 0.0 <= self.profile_depth <= 0.5):
            raise InvalidSpec(
                f"profile_depth must be a number in [0, 0.5], got {self.profile_depth!r}"
            )
        check_noise_sigma(self.noise_sigma)
        try:
            self.outcome  # looked up for its refusal of an inconsistent combination
        except TaxonomyError as exc:
            raise InvalidSpec(str(exc)) from exc
        if self.usage is UsageState.NEW and self.fringe is False:
            raise InvalidSpec("a new wheel carries its textile fringes")

    @property
    def has_fringe(self) -> bool:
        if self.fringe is not None:
            return self.fringe
        return self.usage is UsageState.NEW

    @property
    def tear(self) -> TearState:
        return TearState.WITH_TEAR if self.torn_flaps else TearState.NO_TEAR

    @property
    def outcome(self) -> WearOutcome:
        return outcome_from_parts(self.usage, self.profile, self.tear, self.severity)


class Wheels(NamedTuple):
    """A block of b wheels as columns; row j of each is wheel j.

    outcome holds positions in CONSISTENT_OUTCOMES, which fix each
    wheel's profile and severity; torn[j, i] is whether flap i of wheel
    j is torn, and its width is the block's largest flap count. Wheel j
    draws the stream default_rng(seeds[j]) would give, its state derived
    for the whole block; a seed is an integer in [0, 2**128), not a bool.
    noise_sigma holds each wheel's noise level; fringe None means a wheel
    carries its fringes exactly when it is new, as in WheelSpec.
    """

    outcome: np.ndarray
    n_flaps: np.ndarray
    torn: np.ndarray
    depth: np.ndarray
    seeds: Sequence[int]
    noise_sigma: np.ndarray
    fringe: Optional[np.ndarray] = None


def wheel_columns(specs: Sequence[WheelSpec], seeds: Sequence[int]) -> Wheels:
    """The block of specs[j], each observed from seeds[j], as columns."""
    for seed in seeds:
        if not (is_integer(seed) and 0 <= seed < 2**128):
            raise InvalidSpec(f"wheel seed must be an integer in [0, 2**128), got {seed!r}")
    n_flaps = np.array([spec.n_flaps for spec in specs])
    torn = np.zeros((len(specs), n_flaps.max()), dtype=bool)
    for j, spec in enumerate(specs):
        torn[j, list(spec.torn_flaps)] = True
    return Wheels(
        outcome=np.array([CONSISTENT_OUTCOMES.index(spec.outcome) for spec in specs]),
        n_flaps=n_flaps,
        torn=torn,
        depth=np.array([spec.profile_depth for spec in specs], dtype=float),
        seeds=list(seeds),
        noise_sigma=np.array([spec.noise_sigma for spec in specs], dtype=float),
        fringe=np.array([spec.has_fringe for spec in specs]),
    )


class _PCG64Stream:
    """numpy's PCG64 in Python ints: a Generator's values and state, draw for draw.

    Its fields are those of PCG64's state dict; it starts from a state and
    increment with no half-word buffered. A 64-bit draw steps state =
    state * _PCG64_MULT + inc mod 2**128 and returns XSL-RR of the new
    state: its 64-bit halves xored, rotated right by its top 6 bits.
    random() is a 64-bit draw >> 11, times 2**-53. integers(low, high) is
    numpy's 32-bit Lemire rule on n = high - low: n = 1 draws nothing;
    else m = u * n, for u the buffered half-word (uinteger, if has_uint32)
    or else the lower half of a 64-bit draw whose upper half it buffers,
    is redrawn while m mod 2**32 < (2**32 - n) mod n and gives low +
    (m >> 32). numpy draws any other n by its 64-bit path: a ValueError.
    """

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, state: int, inc: int):
        self.state, self.inc, self.has_uint32, self.uinteger = state, inc, 0, 0

    def handoff(self, rng: Optional[np.random.Generator] = None) -> np.random.Generator:
        """rng, or a new Generator on PCG64, set to this stream's state; then draw from it alone."""
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self.state, "inc": self.inc},
            "has_uint32": self.has_uint32,
            "uinteger": self.uinteger,
        }
        return rng

    def _next64(self) -> int:
        state = self.state = (self.state * _PCG64_MULT + self.inc) & _MASK128
        # Rotating the 64-bit word right is shifting right two copies of it side by side.
        return ((state >> 64 ^ state) & _MASK64) * (2**64 + 1) >> (state >> 122) & _MASK64

    def random(self, size: Optional[int] = None) -> float | list[float]:
        """A float in [0, 1), or a list of size of them, as Generator.random draws them."""
        if size is None:
            return (self._next64() >> 11) * 2.0**-53
        return [self.random() for _ in range(size)]

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), as Generator.integers for 1 <= high - low <= 2**32."""
        n = high - low
        if not 1 <= n <= 2**32:
            raise ValueError(f"high - low must be in [1, 2**32], got {low}, {high}")
        while n > 1:
            if self.has_uint32:
                self.has_uint32, m = 0, self.uinteger * n
            else:
                word = self._next64()
                self.has_uint32, self.uinteger, m = 1, word >> 32, (word & _MASK32) * n
            if m & _MASK32 >= (2**32 - n) % n:
                return low + (m >> 32)
        return low


def _wheel_streams(seeds: Sequence[int]) -> Iterator[_PCG64Stream]:
    """For each seed in turn, a _PCG64Stream that starts as default_rng(seed).

    default_rng(s) seeds PCG64 from SeedSequence(s), which hashes the four
    32-bit words of s (s < 2**128) into a pool of four, mixes the pool and
    hashes it out into eight words. Its constants (numpy's INIT_A, MULT_A,
    MIX_MULT_L, MIX_MULT_R, INIT_B, MULT_B) advance alike for every seed,
    so the block is hashed at once on uint64 columns kept to 32 bits;
    PCG64 then takes its two seeding steps mod 2**128 per seed.
    """
    def hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
        def hashmix(value: np.ndarray) -> np.ndarray:
            nonlocal const
            value = value ^ const
            const = const * mult & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16
        return hashmix

    words = np.frombuffer(b"".join(int(seed).to_bytes(16, "little") for seed in seeds), "<u4")
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in words.reshape(-1, 4).T.astype(np.uint64)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    hashmix = hasher(0x8B51F9DD, 0x58F38DED)
    out = [hashmix(pool[i % 4]) for i in range(8)]
    halves = np.column_stack([out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]).tolist()
    for hi, lo, inc_hi, inc_lo in halves:
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        yield _PCG64Stream(((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128, inc)


def _severity_span(fully: bool, rng: np.random.Generator | _PCG64Stream) -> tuple[float, float]:
    """A shaped wheel's severity span (lo, hi), drawn by random() calls on its stream, rng.

    Fully worn: the span, 0.90 + (1.0 - 0.90) * random(), centred.
    Partly worn: the span, 0.30 + (0.60 - 0.30) * random(), then its
    start, (1.0 - span) * random(). Draw for draw and bit for bit these
    are uniform(0.90, 1.0), uniform(0.30, 0.60) and uniform(0.0, 1.0 -
    span), which compute low + (high - low) * random().
    """
    if fully:
        span = 0.90 + (1.0 - 0.90) * rng.random()
        start = (1.0 - span) / 2.0
    else:
        span = 0.30 + (0.60 - 0.30) * rng.random()
        start = (1.0 - span) * rng.random()
    return start, start + span


def observe_block(wheels: Wheels) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic synthetic observations of a block of wheels.

    Row j is wheel j: its radial contour, a (b, PROFILE_SAMPLES) array,
    and its axial gaps, a (b, max n_flaps) array whose row j is
    meaningful up to n_flaps[j]. The contour is a constant base radius
    with a smooth bump of depth (depression for concave, bulge for
    convex) over the severity span; gaussian noise_sigma perturbs the
    samples. Torn flaps widen their gap well past the nominal jitter.
    Each wheel draws from the stream default_rng(seeds[j]) would give, in
    this order: a shaped wheel its severity span (_severity_span); a
    noisy one its noise row, normal(0, noise_sigma, PROFILE_SAMPLES),
    then its gap jitter, -GAP_JITTER + 2 * GAP_JITTER * random(n_flaps);
    a torn one its torn widths in flap order, lo + (hi - lo) *
    random(n_torn) over TORN_GAP_RANGE. Draw for draw and bit for bit
    each random() form is the uniform(low, high, size) it replaces,
    which computes low + (high - low) * random(). Only a wheel that
    draws (a shaped one, a torn one or one with noise) gets a stream, a
    _PCG64Stream from _wheel_streams, derived for all such wheels of the
    block at once; after its span, a noisy wheel hands it off to one
    Generator for the block. The arithmetic on the draws is done for the
    whole block.
    """
    b, width = wheels.torn.shape
    direction = _OUTCOME_DIRECTION[wheels.outcome]
    shaped = direction != 0.0
    sigma = wheels.noise_sigma
    n_torn = np.count_nonzero(wheels.torn, axis=1)
    lo, hi = np.zeros(b), np.ones(b)
    noise = np.zeros((b, PROFILE_SAMPLES))
    jitter = np.zeros((b, width))
    widths = []  # each torn flap's random() draw, wheel by wheel in flap order
    is_shaped, fully = shaped.tolist(), _OUTCOME_FULLY[wheels.outcome].tolist()
    n_flaps, sigmas, torn_counts = wheels.n_flaps.tolist(), sigma.tolist(), n_torn.tolist()
    drawing = np.flatnonzero(shaped | (n_torn > 0) | (sigma > 0)).tolist()
    handoff = None  # the block's one Generator, made for its first noisy wheel
    for j, rng in zip(drawing, _wheel_streams([wheels.seeds[j] for j in drawing])):
        if is_shaped[j]:
            lo[j], hi[j] = _severity_span(fully[j], rng)
        if sigmas[j] > 0:
            rng = handoff = rng.handoff(handoff)
            noise[j] = rng.normal(0.0, sigmas[j], PROFILE_SAMPLES)
            jitter[j, : n_flaps[j]] = -GAP_JITTER + 2 * GAP_JITTER * rng.random(n_flaps[j])
        if torn_counts[j]:
            widths.extend(rng.random(torn_counts[j]))
    torn, (torn_lo, torn_hi) = np.zeros((b, width)), TORN_GAP_RANGE
    torn[wheels.torn] = torn_lo + (torn_hi - torn_lo) * np.array(widths)  # in row-major order

    inside = (_W >= lo[:, None]) & (_W <= hi[:, None]) & shaped[:, None]
    t = (_W - lo[:, None]) / (hi - lo)[:, None]
    bump = wheels.depth[:, None] * np.sin(math.pi * t)
    radial = BASE_RADIUS + np.where(inside, direction[:, None] * bump, 0.0) + noise
    radial = np.clip(radial, 1e-6, 1.0)

    nominal = _GAP_ARC / wheels.n_flaps
    gaps = nominal[:, None] * np.where(wheels.torn, torn, 1.0 + jitter)
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

    Row j's gaps are gaps[j, :n_flaps[j]]; the wheels of one flap count
    are sorted together, and an even count's median is the mean of its
    middle two, (a + b) / 2, as np.median takes it.
    """
    ratio = np.empty(len(gaps))
    for count in np.flatnonzero(np.bincount(n_flaps)).tolist():
        rows = n_flaps == count
        wheel_gaps = np.sort(gaps[rows, :count], axis=1)
        median = wheel_gaps[:, count // 2]
        if count % 2 == 0:
            median = (wheel_gaps[:, count // 2 - 1] + median) / 2
        ratio[rows] = wheel_gaps[:, -1] / median
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


def score_block(wheels: Wheels, vectors: Mapping[StageId, np.ndarray]) -> None:
    """Observe a block of wheels and write every stage's rows in place.

    vectors[stage] is the block's (b, k) slice of the per-stage arrays
    decide_runs takes. Every wheel is scored on both severity stages,
    whatever its true profile, as a deployed pipeline scores the branch
    the engine routes it to.
    """
    radial, gaps = observe_block(wheels)
    fringe = _OUTCOME_NEW[wheels.outcome] if wheels.fringe is None else wheels.fringe
    vectors[StageId.USAGE][:] = usage_rows(radial, fringe)
    vectors[StageId.PROFILE][:] = profile_rows(radial)
    vectors[StageId.TEAR][:] = tear_rows(gaps, wheels.n_flaps)
    for profile, stage in SEVERITY_STAGE.items():
        vectors[stage][:] = severity_rows(radial, profile)
