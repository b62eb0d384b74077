"""Synthetic flap-wheel observations with known ground truth.

Generates 1-D radial profile contours and axial gap patterns for a
block of wheels held as columns (``Wheels``), plus rule-based feature
classifiers that turn a block's observations into probability rows (one
(b, k) array per stage, in its class order, which the batch driver
checks a stage at a time). ``WheelSpec`` describes one wheel, and
``wheel_columns`` turns a list of them into a block. Each wheel draws
what default_rng(its seed) would; a block's PCG64 streams are seeded
and stepped together, each 128-bit state and increment held as uint64
columns of high and low words, so no wheel has a stream object of its
own. Together they close the loop around the hierarchy engine without
images or trained networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

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
_MASK32 = 2**32 - 1
# The column step's operands, each an np.uint64 (numpy 1.24 promotes a Python int by its
# value): the multiplier's 64-bit words, its low word's 32-bit halves, masks and shifts.
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & 2**64 - 1)
_MULT_LO_HI, _MULT_LO_LO = np.uint64(_PCG64_MULT >> 32 & _MASK32), np.uint64(_PCG64_MULT & _MASK32)
_LOW32 = np.uint64(_MASK32)
_U1, _U11, _U16, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 16, 32, 58, 63, 64))
# 64-bit words a _NumpyWords stream takes from numpy at a time.
_WORD_BLOCK = 256

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
    draws the stream default_rng(seeds[j]) would give, as row j of PCG64
    state columns seeded and stepped for the whole block; a seed is an
    integer in [0, 2**128), not a bool.
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
    """The block of specs[j], each observed from seeds[j], as columns; at least one wheel."""
    if len(specs) != len(seeds):
        raise InvalidSpec(
            f"a block takes one seed per wheel, got {len(specs)} specs and {len(seeds)} seeds"
        )
    if not specs:
        raise InvalidSpec("a block takes at least one wheel")
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


class _NumpyWords:
    """Generator.random() and .integers on a numpy bit generator's 64-bit words, call for call.

    random() is a 64-bit word >> 11, times 2**-53. integers(low, high) is
    numpy's 32-bit Lemire rule on n = high - low: n = 1 draws nothing;
    else m = u * n, for u the buffered half-word (uinteger, if has_uint32)
    or else the lower half of a 64-bit word whose upper half it buffers,
    is redrawn while m mod 2**32 < (2**32 - n) mod n and gives low +
    (m >> 32). numpy draws any other n by its 64-bit path: a ValueError.
    The words are bit_generator.random_raw's, taken _WORD_BLOCK at a time
    and drawn in order, so the stream draws what a Generator on that bit
    generator would; the half-word buffer is the stream's own. The bit
    generator runs up to a block ahead of the draws, so nothing else may
    draw from it. One batch of wheels draws thousands of words, which
    numpy makes faster than Python ints step PCG64.
    """

    __slots__ = ("has_uint32", "uinteger", "_bits", "_words")

    def __init__(self, bit_generator: np.random.BitGenerator):
        self.has_uint32, self.uinteger = 0, 0
        self._bits, self._words = bit_generator, []

    def _next64(self) -> int:
        if not self._words:
            self._words = self._bits.random_raw(_WORD_BLOCK).tolist()[::-1]
        return self._words.pop()

    def random(self) -> float:
        """A float in [0, 1), as Generator.random() draws it."""
        return (self._next64() >> 11) * 2.0**-53

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


# A 128-bit PCG64 value as uint64 columns: (high words, low words).
_Columns = tuple[np.ndarray, np.ndarray]


def _pcg64_step(state: _Columns, inc: _Columns) -> _Columns:
    """PCG64's LCG step on columns: state * _PCG64_MULT + inc mod 2**128.

    The high word of the low words' product is summed from the products
    of their 32-bit halves; every other product and sum wraps mod 2**64.
    """
    hi, lo = state
    lo_hi, lo_lo = lo >> _U32, lo & _LOW32
    cross_a, cross_b = lo_lo * _MULT_LO_HI, lo_hi * _MULT_LO_LO
    carry = ((lo_lo * _MULT_LO_LO >> _U32) + (cross_a & _LOW32) + (cross_b & _LOW32)) >> _U32
    high = lo_hi * _MULT_LO_HI + (cross_a >> _U32) + (cross_b >> _U32) + carry
    hi = high + hi * _MULT_LO + lo * _MULT_HI + inc[0]
    lo = lo * _MULT_LO + inc[1]
    return hi + (lo < inc[1]).astype(np.uint64), lo


def _xsl_rr(state: _Columns) -> np.ndarray:
    """PCG64's XSL-RR word of each state: its halves xored, rotated right by its top 6 bits."""
    word, rotation = state[0] ^ state[1], state[0] >> _U58
    return word >> rotation | word << ((_U64 - rotation) & _U63)


def _hash_consts(const: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's hash constant before and after each of its calls, as (calls, 1) columns."""
    consts = [const]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], np.uint64)[:, None], np.array(consts[1:], np.uint64)[:, None]


# SeedSequence's constants (numpy's INIT_A and MULT_A for the 16 hashes into and across
# its pool, INIT_B and MULT_B for the 8 out of it, MIX_MULT_L and MIX_MULT_R), and the
# rows of the pool each source row is mixed into.
_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_OTHER_ROWS = np.array([[dst for dst in range(4) if dst != src] for src in range(4)])


def _hashmix(value: np.ndarray, consts: tuple[np.ndarray, np.ndarray], calls: slice) -> np.ndarray:
    """SeedSequence's hashmix of value, row i with the constants of call calls.start + i."""
    value = (value ^ consts[0][calls]) * consts[1][calls] & _LOW32
    return value ^ value >> _U16


def _wheel_streams(seeds: Sequence[int]) -> tuple[_Columns, _Columns]:
    """PCG64's (state, inc) columns; row j is as default_rng(seeds[j]) starts.

    default_rng(s) seeds PCG64 from SeedSequence(s), which hashes the four
    32-bit words of s (s < 2**128) into a pool of four, mixes the pool and
    hashes it out into eight words. Its constants advance alike for every
    seed, so the block is hashed at once on uint64 columns kept to 32
    bits: the pool as four rows, each source row's three hashes into the
    other rows as one (3, b) step, and the eight words out as one. They
    make a 128-bit initstate and initseq, and PCG64 takes its two seeding
    steps on the columns too: inc = 2 * initseq + 1, then state = (inc +
    initstate) * _PCG64_MULT + inc, both mod 2**128.
    """
    words = np.frombuffer(b"".join(int(seed).to_bytes(16, "little") for seed in seeds), "<u4")
    pool = _hashmix(words.reshape(-1, 4).T.astype(np.uint64), _HASH_A, slice(0, 4))
    for src, others in enumerate(_OTHER_ROWS):
        hashed = _hashmix(pool[src], _HASH_A, slice(4 + 3 * src, 7 + 3 * src))
        mixed = (_MIX_L * pool[others] - _MIX_R * hashed) & _LOW32
        pool[others] = mixed ^ mixed >> _U16
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B, slice(0, 8))
    init_hi, init_lo, seq_hi, seq_lo = out[0::2] | out[1::2] << _U32
    inc = seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1
    lo = inc[1] + init_lo
    return _pcg64_step((inc[0] + init_hi + (lo < init_lo).astype(np.uint64), lo), inc), inc


def _row(columns: _Columns, j: int) -> int:
    """The 128-bit value row j of columns holds."""
    return int(columns[0][j]) << 64 | int(columns[1][j])


def _handoff(
    state: int, inc: int, rng: Optional[np.random.Generator] = None
) -> np.random.Generator:
    """rng, or a new Generator on PCG64, set to PCG64's (state, inc) with no half-word buffered."""
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def observe_block(wheels: Wheels) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic synthetic observations of a block of wheels.

    Row j is wheel j: its radial contour, a (b, PROFILE_SAMPLES) array,
    and its axial gaps, a (b, max n_flaps) array whose row j is
    meaningful up to n_flaps[j]. The contour is a constant base radius
    with a smooth bump of depth (depression for concave, bulge for
    convex) over the severity span; gaussian noise_sigma perturbs the
    samples. Torn flaps widen their gap well past the nominal jitter.
    Each wheel draws from the stream default_rng(seeds[j]) would give, in
    this order: a shaped wheel its severity span; a noisy one its noise
    row, normal(0, noise_sigma, PROFILE_SAMPLES), then its gap jitter,
    -GAP_JITTER + 2 * GAP_JITTER * random(n_flaps); a torn one its torn
    widths in flap order, lo + (hi - lo) * random(n_torn) over
    TORN_GAP_RANGE. A fully worn wheel's span is 0.90 + (1.0 - 0.90) *
    random(), centred; a partly worn one's is 0.30 + (0.60 - 0.30) *
    random(), then its start (1.0 - span) * random(). Draw for draw and
    bit for bit each random() form is the uniform(low, high, size) it
    replaces, which computes low + (high - low) * random().

    Only a wheel that draws (a shaped one, a torn one or one with noise)
    is seeded, on the block's PCG64 columns (_wheel_streams). Every
    such wheel's stream is stepped at once into a (wheels, max words)
    word matrix, one random() a word, from which the spans and the torn
    widths of the wheels without noise are computed on arrays. A noisy
    wheel hands off its column state after its span words to the block's
    one Generator, made for its first noisy wheel, and draws the rest
    from it.
    """
    b, width = wheels.torn.shape
    direction = _OUTCOME_DIRECTION[wheels.outcome]
    shaped, fully = direction != 0.0, _OUTCOME_FULLY[wheels.outcome]
    sigma = wheels.noise_sigma
    n_torn = np.count_nonzero(wheels.torn, axis=1)
    drawing = np.flatnonzero(shaped | (n_torn > 0) | (sigma > 0))
    # The words a wheel reads from its column stream: its span's, then its torn widths'
    # (a noisy wheel's are stepped too, then drawn again from its Generator).
    span_words = np.where(shaped, np.where(fully, 1, 2), 0)
    count = int((span_words + n_torn).max())

    state, inc = _wheel_streams([wheels.seeds[j] for j in drawing.tolist()])
    states, words = [state], np.empty((len(drawing), count), dtype=np.uint64)
    for k in range(count):
        state = _pcg64_step(state, inc)
        states.append(state)
        words[:, k] = _xsl_rr(state)
    uniform = np.zeros((b, max(count, 2)))  # a partly worn wheel reads two words
    uniform[drawing, :count] = (words >> _U11) * 2.0**-53

    first_word, second_word = uniform[:, 0], uniform[:, 1]
    span = np.where(fully, 0.90 + (1.0 - 0.90) * first_word, 0.30 + (0.60 - 0.30) * first_word)
    start = np.where(fully, (1.0 - span) / 2.0, (1.0 - span) * second_word)
    lo, hi = np.where(shaped, start, 0.0), np.where(shaped, start + span, 1.0)

    # Each torn flap's random(), wheel by wheel in flap order (row-major, as the mask
    # is indexed): the word after its wheel's span words and earlier torn flaps.
    torn_rows = np.nonzero(wheels.torn)[0]
    first = np.cumsum(n_torn) - n_torn  # each wheel's first torn flap in that order
    word = span_words[torn_rows] + np.arange(len(torn_rows)) - first[torn_rows]
    widths = uniform[torn_rows, word]
    noise = np.zeros((b, PROFILE_SAMPLES))
    jitter = np.zeros((b, width))
    handoff = None  # the block's one Generator, made for its first noisy wheel
    n_flaps, spans, sigmas = wheels.n_flaps.tolist(), span_words.tolist(), sigma.tolist()
    for p in np.flatnonzero(sigma[drawing] > 0).tolist():
        j = int(drawing[p])
        rng = handoff = _handoff(_row(states[spans[j]], p), _row(inc, p), handoff)
        noise[j] = rng.normal(0.0, sigmas[j], PROFILE_SAMPLES)
        jitter[j, : n_flaps[j]] = -GAP_JITTER + 2 * GAP_JITTER * rng.random(n_flaps[j])
        widths[first[j] : first[j] + n_torn[j]] = rng.random(n_torn[j])
    torn, (torn_lo, torn_hi) = np.zeros((b, width)), TORN_GAP_RANGE
    torn[wheels.torn] = torn_lo + (torn_hi - torn_lo) * widths

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

    Row j's gaps are gaps[j, :n_flaps[j]], each finite (observe_block's).
    Every gap past a row's count is set to +inf, so one sort of the block
    puts each row's own gaps first, in order; its median and maximum are
    taken from them by index, and an even count's median is the mean of
    its middle two, (a + b) / 2, as np.median takes it.
    """
    past = np.arange(gaps.shape[1]) >= n_flaps[:, None]
    wheel_gaps = np.sort(np.where(past, np.inf, gaps), axis=1)
    rows = np.arange(len(gaps))
    upper = wheel_gaps[rows, n_flaps // 2]
    lower = wheel_gaps[rows, (n_flaps - 1) // 2]  # upper itself for an odd count
    median = np.where(n_flaps % 2 == 0, (lower + upper) / 2, upper)
    ratio = wheel_gaps[rows, n_flaps - 1] / median
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
