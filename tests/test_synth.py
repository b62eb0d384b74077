import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flapwear import predictions, simulate, synth
from flapwear.engine import DEFAULT_THRESHOLDS
from flapwear.errors import ConfigError
from flapwear.predictions import ProbabilityVector, StageId
from flapwear.simulate import BadRow, sample_oracle_predictions
from flapwear.synth import (
    TEAR_RATIO_BOUNDARY,
    InvalidSpec,
    WheelSpec,
    observe_block,
    profile_rows,
    score_block,
    severity_rows,
    tear_rows,
    usage_rows,
    wheel_columns,
)
from flapwear.taxonomy import (
    CONSISTENT_OUTCOMES,
    SEVERITY_STAGE,
    STAGE_CLASSES,
    FlapProfile,
    Severity,
    TearState,
    UsageState,
)

import scalar_oracle
from conftest import ALL_MATRICES


def spec(**kwargs):
    defaults = dict(usage=UsageState.USED, profile=FlapProfile.RECTANGULAR)
    defaults.update(kwargs)
    return WheelSpec(**defaults)


# Worn rectangular wheel that kept its fringes: the dominant error mode of
# usage detection, where leftover fringes make a used wheel look new.
ADVERSARIAL_FRINGE = WheelSpec(
    usage=UsageState.USED, profile=FlapProfile.RECTANGULAR, fringe=True
)


class TestWheelSpec:
    def test_new_must_be_rectangular(self):
        with pytest.raises(InvalidSpec):
            WheelSpec(UsageState.NEW, FlapProfile.CONCAVE, Severity.FULLY)

    def test_new_must_be_untorn(self):
        with pytest.raises(InvalidSpec):
            WheelSpec(UsageState.NEW, FlapProfile.RECTANGULAR, torn_flaps=frozenset({0}))

    def test_severity_presence_rule(self):
        with pytest.raises(InvalidSpec):
            spec(profile=FlapProfile.CONVEX)
        with pytest.raises(InvalidSpec):
            spec(severity=Severity.FULLY)

    def test_accepts_exactly_the_consistent_outcomes(self):
        consistent = {o.parts() for o in CONSISTENT_OUTCOMES}
        for parts in itertools.product(UsageState, FlapProfile, TearState, (None, *Severity)):
            usage, profile, tear, severity = parts
            torn = frozenset({0}) if tear is TearState.WITH_TEAR else frozenset()
            if parts in consistent:
                assert WheelSpec(usage, profile, severity, torn_flaps=torn).tear is tear
            else:
                with pytest.raises(InvalidSpec):
                    WheelSpec(usage, profile, severity, torn_flaps=torn)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(n_flaps=12.5), "n_flaps must be an integer, got 12.5"),
            (dict(n_flaps=True), "n_flaps must be an integer, got True"),
            (dict(torn_flaps=frozenset({1.5})), "torn flap index must be an integer, got 1.5"),
            (dict(torn_flaps=frozenset({True})), "torn flap index must be an integer, got True"),
        ],
        ids=["fractional-count", "bool-count", "fractional-index", "bool-index"],
    )
    def test_flap_fields_must_be_integers(self, fields, message):
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            spec(**fields)

    @pytest.mark.parametrize("depth", [False, "0.2", 0.51, -0.1, float("nan")])
    def test_profile_depth_must_be_a_number_in_range(self, depth):
        message = f"profile_depth must be a number in [0, 0.5], got {depth!r}"
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            spec(profile_depth=depth)

    def test_numpy_integer_flap_fields_are_integers(self):
        wheel = spec(n_flaps=np.int64(12), torn_flaps=frozenset({np.int64(3)}))
        assert simulate.classify_spec(wheel, seed=1).outcome.id == 3

    def test_new_has_fringe_by_default(self):
        assert WheelSpec(UsageState.NEW, FlapProfile.RECTANGULAR).has_fringe
        assert not spec().has_fringe

    def test_adversarial_preset_is_used_with_fringe(self):
        adv = ADVERSARIAL_FRINGE
        assert adv.usage is UsageState.USED
        assert adv.has_fringe


def observe(wheel, seed):
    """One wheel's contour and its gaps, from a block of one."""
    radial, gaps = observe_block(wheel_columns([wheel], [seed]))
    return radial[0], gaps[0, : wheel.n_flaps]


class TestGenerator:
    def test_rectangular_zero_noise_is_constant(self):
        samples, _ = observe(spec(), seed=4)
        assert len(set(samples.tolist())) == 1

    def test_fully_concave_depth(self):
        samples, _ = observe(
            spec(profile=FlapProfile.CONCAVE, severity=Severity.FULLY, profile_depth=0.2),
            seed=4,
        )
        assert samples.min() == pytest.approx(samples.max() - 0.2, abs=1e-3)
        center = np.argmin(samples) / (len(samples) - 1)
        assert 0.4 <= center <= 0.6

    def test_convex_bulges(self):
        samples, _ = observe(
            spec(profile=FlapProfile.CONVEX, severity=Severity.FULLY, profile_depth=0.1),
            seed=4,
        )
        assert samples.max() == pytest.approx(samples.min() + 0.1, abs=1e-3)

    def test_torn_gap_exceeds_all_untorn_gaps(self):
        _, gaps = observe(spec(torn_flaps=frozenset({3})), seed=4)
        torn = gaps[3]
        assert all(torn > g for i, g in enumerate(gaps) if i != 3)

    def test_radii_stay_in_unit_interval(self):
        samples, _ = observe(
            spec(profile=FlapProfile.CONVEX, severity=Severity.FULLY,
                 profile_depth=0.5, noise_sigma=0.05),
            seed=8,
        )
        assert all(0 < r <= 1 for r in samples)

    def test_deterministic_per_seed(self):
        s = spec(profile=FlapProfile.CONCAVE, severity=Severity.PARTIALLY, noise_sigma=0.01)
        for a, b in zip(observe(s, 7), observe(s, 7)):
            assert np.array_equal(a, b)
        for a, b in zip(observe(s, 7), observe(s, 8)):
            assert not np.array_equal(a, b)


class TestProfileClassifier:
    def test_constant_profile_is_rectangular(self):
        (row,) = profile_rows(np.full((1, 64), 0.85))
        ProbabilityVector(StageId.PROFILE, row)
        assert np.argmax(row) == 0

    def test_central_depression_is_concave(self):
        samples, _ = observe(
            spec(profile=FlapProfile.CONCAVE, severity=Severity.FULLY, profile_depth=0.2),
            seed=1,
        )
        assert np.argmax(profile_rows(samples[None])[0]) == 1

    def test_central_bulge_is_convex(self):
        samples, _ = observe(
            spec(profile=FlapProfile.CONVEX, severity=Severity.FULLY, profile_depth=0.2),
            seed=1,
        )
        assert np.argmax(profile_rows(samples[None])[0]) == 2


class TestSeverityClassifier:
    def _bump_profile(self, span, depth=0.2, n=64):
        w = np.linspace(0, 1, n)
        lo = (1 - span) / 2
        r = np.full(n, 0.85)
        inside = (w >= lo) & (w <= lo + span)
        t = (w[inside] - lo) / span
        r[inside] -= depth * np.sin(np.pi * t)
        return r[None]

    def test_wide_span_is_fully(self):
        (row,) = severity_rows(self._bump_profile(0.95), FlapProfile.CONCAVE)
        assert np.argmax(row) == 0
        # A wheel is scored on both severity stages, each by its own branch's rule.
        vectors = {stage: np.zeros((1, len(c))) for stage, c in STAGE_CLASSES.items()}
        wheel = spec(profile=FlapProfile.CONCAVE, severity=Severity.FULLY)
        score_block(wheel_columns([wheel], [1]), vectors)
        radial, _ = observe_block(wheel_columns([wheel], [1]))
        for branch, stage in SEVERITY_STAGE.items():
            assert vectors[stage].tolist() == severity_rows(radial, branch).tolist()
        assert np.argmax(vectors[StageId.CONCAVE_SEVERITY][0]) == 0

    def test_narrow_span_is_partially(self):
        (row,) = severity_rows(self._bump_profile(0.40), FlapProfile.CONCAVE)
        assert np.argmax(row) == 1

    def test_boundary_is_uncertain(self):
        # step profile with exactly 75% of samples affected
        n = 64
        r = np.full(n, 0.85)
        r[: int(0.75 * n)] -= 0.2
        (row,) = severity_rows(r[None], FlapProfile.CONCAVE)
        assert abs(row[0] - 0.5) <= 0.05

    def test_rectangular_branch_rejected(self):
        with pytest.raises(InvalidSpec):
            severity_rows(self._bump_profile(0.5), FlapProfile.RECTANGULAR)


class TestTearClassifier:
    def test_uniform_gaps_no_tear(self):
        (row,) = tear_rows(np.full((1, 20), 0.1), np.array([20]))
        assert np.argmax(row) == 1

    def test_tripled_gap_with_tear(self):
        gaps = np.full((1, 20), 0.1)
        gaps[0, 5] = 0.3
        (row,) = tear_rows(gaps, np.array([20]))
        assert np.argmax(row) == 0

    def test_jitter_alone_does_not_trigger(self):
        rng = np.random.default_rng(0)
        gaps = 0.1 * (1 + rng.uniform(-0.1, 0.1, (1, 24)))
        (row,) = tear_rows(gaps, np.array([24]))
        assert np.argmax(row) == 1

    def test_gaps_past_a_wheels_flap_count_are_ignored(self):
        gaps = np.full((2, 24), 0.1)
        gaps[0, 20:] = 0.5  # past the first wheel's 20 flaps
        rows = tear_rows(gaps, np.array([20, 24]))
        assert rows[0].tolist() == tear_rows(np.full((1, 20), 0.1), np.array([20]))[0].tolist()
        assert np.argmax(rows[1]) == 1

    def test_gap_ratio_at_the_boundary_trips_the_tear_verdict(self):
        gaps = np.ones((1, 20))
        gaps[0, 5] = TEAR_RATIO_BOUNDARY  # max / median is the boundary exactly
        (row,) = tear_rows(gaps, np.array([20]))
        with_tear = row[STAGE_CLASSES[StageId.TEAR].index(TearState.WITH_TEAR.value)]
        assert with_tear > 0.5
        assert with_tear > DEFAULT_THRESHOLDS[StageId.TEAR]  # 0.818 against the 0.79 gate


def per_count_tear_rows(gaps, n_flaps):
    """tear_rows as one sort per distinct flap count: the rule the one-sort form replaced."""
    ratio = np.empty(len(gaps))
    for count in np.flatnonzero(np.bincount(n_flaps)).tolist():
        rows = n_flaps == count
        wheel_gaps = np.sort(gaps[rows, :count], axis=1)
        median = wheel_gaps[:, count // 2]
        if count % 2 == 0:
            median = (wheel_gaps[:, count // 2 - 1] + median) / 2
        ratio[rows] = wheel_gaps[:, -1] / median
    return synth._logistic_rows(
        -synth._TEAR_LOGISTIC_SLOPE * (ratio - synth._TEAR_LOGISTIC_CENTER)
    )


@st.composite
def gap_blocks(draw):
    """A block of wheels' gaps: odd and even flap counts, torn and untorn, junk past each count."""
    counts = draw(st.lists(st.integers(8, 40), min_size=1, max_size=10))
    width = max(counts) + draw(st.integers(0, 3))
    junk = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0, 0.05])
    gaps = np.empty((len(counts), width))
    for j, count in enumerate(counts):
        factors = draw(st.lists(st.floats(0.9, 1.1), min_size=count, max_size=count))
        for i in draw(st.sets(st.integers(0, count - 1), max_size=3)):  # torn flaps
            factors[i] = draw(st.floats(1.5, 3.0))
        gaps[j, :count] = synth._GAP_ARC / count * np.array(factors)
        gaps[j, count:] = draw(st.lists(junk, min_size=width - count, max_size=width - count))
    return gaps, np.array(counts)


@given(block=gap_blocks())
@example(block=(np.array([[1.0] * 8 + [np.nan], [1.0] * 8 + [2.0]]), np.array([8, 9])))
def test_tear_rows_match_one_sort_per_flap_count(block):
    gaps, n_flaps = block
    assert np.array_equal(tear_rows(gaps, n_flaps), per_count_tear_rows(gaps, n_flaps))


class TestUsageClassifier:
    def _usage(self, wheel):
        samples, _ = observe(wheel, 3)
        return usage_rows(samples[None], np.array([wheel.has_fringe]))[0]

    def test_fringe_scores_new(self):
        assert np.argmax(self._usage(WheelSpec(UsageState.NEW, FlapProfile.RECTANGULAR))) == 0

    def test_no_fringe_scores_used(self):
        assert np.argmax(self._usage(spec())) == 1

    def test_adversarial_fringe_misclassified_as_new(self):
        assert np.argmax(self._usage(ADVERSARIAL_FRINGE)) == 0


def test_synthetic_batch_checks_rows_without_building_vectors(monkeypatch):
    built = []
    original = ProbabilityVector.__post_init__
    monkeypatch.setattr(
        ProbabilityVector, "__post_init__", lambda self: built.append(original(self))
    )
    checked = []
    monkeypatch.setattr(
        simulate, "first_invalid_row",
        lambda rows: checked.append(rows.shape) or predictions.first_invalid_row(rows),
    )
    report = simulate.run_synthetic_batch(22, seed=3)
    assert report["hierarchy_accuracy"] == 1.0
    assert built == []
    # One check per stage, over every wheel: each is scored on both severity stages.
    assert checked == [(22, 2), (22, 3), (22, 2), (22, 2), (22, 2)]
    # The one-run path is a batch of one wheel, a rectangular one.
    simulate.classify_spec(spec(), seed=3)
    assert built == []
    assert checked[5:] == [(1, 2), (1, 3), (1, 2), (1, 2), (1, 2)]


def test_synthetic_batch_scores_in_blocks(monkeypatch):
    blocks = []
    monkeypatch.setattr(
        simulate, "score_block",
        lambda wheels, vectors: blocks.append(len(wheels.n_flaps))
        or score_block(wheels, vectors),
    )
    simulate.run_synthetic_batch(2 * simulate.SYNTH_BLOCK + 1, seed=3)
    assert blocks == [simulate.SYNTH_BLOCK, simulate.SYNTH_BLOCK, 1]


@pytest.mark.parametrize("noise_sigma, made", [(0.0, 1 + 18), (0.05, 1 + 22)])
def test_synthetic_batch_makes_a_generator_only_for_a_wheel_that_draws(
    monkeypatch, noise_sigma, made
):
    seeded, generators, positioned, handed = [], [], [], []
    default_rng, generator = np.random.default_rng, np.random.Generator
    wheel_streams, handoff = synth._wheel_streams, synth._handoff
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: seeded.append(seed) or default_rng(seed)
    )
    monkeypatch.setattr(
        np.random, "Generator", lambda bits: generators.append(bits) or generator(bits)
    )
    monkeypatch.setattr(
        synth, "_wheel_streams", lambda block: positioned.extend(block) or wheel_streams(block)
    )
    monkeypatch.setattr(
        synth, "_handoff",
        lambda state, inc, rng: handed.append((state, inc)) or handoff(state, inc, rng),
    )
    simulate.run_synthetic_batch(22, seed=3, noise_sigma=noise_sigma)
    # The batch's own generator, the one default_rng call, then a column
    # stream per wheel but, at zero noise, the untorn rectangular ones
    # (outcomes 1 and 2, twice each), whose seeds are drawn all the same.
    assert seeded == [3]
    assert len(seeded) + len(positioned) == made
    # Only a noisy wheel hands its column state off, once, to the block's one Generator.
    assert len(handed) == (len(positioned) if noise_sigma else 0)
    assert len(set(handed)) == len(handed)
    assert len(generators) == (1 if noise_sigma else 0)


MASK64, MASK128 = 2**64 - 1, 2**128 - 1


def pcg64_next(state, inc):
    """PCG64 in Python ints: the next state, state * MULT + inc mod 2**128, and its word."""
    state = (state * synth._PCG64_MULT + inc) & MASK128
    return state, xsl_rr(state)


def xsl_rr(state):
    """PCG64's output: the state's 64-bit halves xored, rotated right by its top 6 bits."""
    # Rotating the 64-bit word right is shifting right two copies of it side by side.
    return ((state >> 64 ^ state) & MASK64) * (2**64 + 1) >> (state >> 122) & MASK64


def columns(values):
    """128-bit ints as the (high words, low words) uint64 columns synth steps."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & MASK64 for v in values], dtype=np.uint64),
    )


def values(cols):
    """The 128-bit ints that (high words, low words) columns hold."""
    return [hi << 64 | lo for hi, lo in zip(cols[0].tolist(), cols[1].tolist(), strict=True)]


WORDS_128 = st.integers(0, 2**128 - 1)


@given(block=st.lists(st.tuples(WORDS_128, WORDS_128), min_size=1, max_size=40))
@example(block=[(0, 1)])
@example(block=[(2**128 - 1, 2**128 - 1)])
@example(block=[(2**122 - 1, 1), (0, 2**128 - 1), (2**128 - 1, 1)])  # the first rotates by 0
@example(block=[(k * 0x9E3779B97F4A7C15F39CC0605CEDC835 % 2**128, 2 * k + 1) for k in range(300)])
def test_column_step_and_output_are_the_python_int_rule(block):
    states, incs = [state for state, _ in block], [inc for _, inc in block]
    state = synth._pcg64_step(columns(states), columns(incs))
    assert values(state) == [pcg64_next(s, i)[0] for s, i in block]
    assert synth._xsl_rr(columns(states)).tolist() == [xsl_rr(s) for s in states]
    assert all(col.dtype == np.uint64 for col in state)


class PCG64Stream(synth._NumpyWords):
    """_NumpyWords' random() and integers on PCG64 stepped in Python ints (pcg64_next)."""

    __slots__ = ("state", "inc")

    def __init__(self, state, inc):
        self.state, self.inc, self.has_uint32, self.uinteger = state, inc, 0, 0

    def _next64(self):
        self.state, word = pcg64_next(self.state, self.inc)
        return word

    def bit_generator_state(self):
        """The state a Generator drawing as this stream would report."""
        return {
            "bit_generator": "PCG64",
            "state": {"state": self.state, "inc": self.inc},
            "has_uint32": self.has_uint32,
            "uinteger": self.uinteger,
        }


@given(seeds=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=5))
@example(seeds=[0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1])
def test_wheel_streams_start_as_default_rng(seeds):
    state, inc = synth._wheel_streams(seeds)
    expected = [np.random.default_rng(seed) for seed in seeds]
    # After k words, each row is default_rng(seed)'s state after k random() calls.
    for k in range(4):
        rows = [{"state": s, "inc": i} for s, i in zip(values(state), values(inc), strict=True)]
        assert rows == [rng.bit_generator.state["state"] for rng in expected], k
        state = synth._pcg64_step(state, inc)
        words = synth._xsl_rr(state)
        assert ((words >> 11) * 2.0**-53).tolist() == [rng.random() for rng in expected]
    for j, want in enumerate(expected):
        rng = synth._handoff(values(state)[j], values(inc)[j])
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.uniform(0.3, 0.6) == want.uniform(0.3, 0.6)
        assert rng.normal(0.0, 0.05, 3).tolist() == want.normal(0.0, 0.05, 3).tolist()
        assert rng.uniform(-0.1, 0.1, 5).tolist() == want.uniform(-0.1, 0.1, 5).tolist()


def test_block_whose_drawing_wheels_need_no_column_word():
    # Rectangular, untorn and noisy: each is seeded on the columns, steps
    # no word and hands its first state off.
    wheels = [spec(noise_sigma=0.05), spec(noise_sigma=0.3, n_flaps=9), spec()]
    seeds = [5, 2**128 - 1, 7]
    radial, gaps = observe_block(wheel_columns(wheels, seeds))
    for j, (wheel, seed) in enumerate(zip(wheels, seeds, strict=True)):
        obs = scalar_oracle.generate_observation(wheel, seed)
        assert np.array_equal(radial[j], obs.radial.samples)
        assert np.array_equal(gaps[j, : wheel.n_flaps], obs.gap_angles)
    assert len(set(radial[0].tolist())) > 1
    assert len(set(radial[2].tolist())) == 1


# Every range synth draws (flap count, number torn, Floyd's and Fisher-Yates'
# picks, wheel seed), the edges high - low = 1 and 2**32, and one whose
# Lemire rule redraws a quarter of the time.
STREAM_RANGES = [(12, 33), (1, 4), *((0, j + 1) for j in range(32)), (0, 2**31)]
STREAM_RANGES += [(7, 8), (0, 2**32), (-5, 2**32 - 5), (0, 3 * 2**30)]
# One of each of those, and the random() calls synth makes.
STREAM_CALLS = [("integers", *r) for r in STREAM_RANGES] + [("random",)] * 12


@pytest.mark.parametrize(
    "seed", [0, 1, 2**64 - 1, 2**64, 2**64 + 1, 2**128 - 1, 2**200, *range(2, 202)]
)
def test_pcg64_stream_is_generator_draw_for_draw(seed):
    rng = np.random.default_rng(seed)
    stream = PCG64Stream(**rng.bit_generator.state["state"])
    calls = list(STREAM_CALLS)
    random.Random(seed).shuffle(calls)
    for name, *args in calls:
        got, want = getattr(stream, name)(*args), getattr(rng, name)(*args)
        assert got == want, (name, args)
        # The whole state: PCG64's words and the buffered 32-bit half-word.
        assert stream.bit_generator_state() == rng.bit_generator.state


@pytest.mark.parametrize("block", [1, 3, synth._WORD_BLOCK])
@pytest.mark.parametrize("seed", [0, 1, 2**64, 2**128 - 1, 2**200])
def test_numpy_words_stream_is_generator_draw_for_draw(monkeypatch, seed, block):
    # Eight rounds of the call mix take about 400 words: many blocks of 1
    # or 3, and past the first block at the module's own size.
    monkeypatch.setattr(synth, "_WORD_BLOCK", block)
    rng = np.random.default_rng(seed)
    stream = synth._NumpyWords(np.random.default_rng(seed).bit_generator)
    calls = STREAM_CALLS * 8
    random.Random(seed).shuffle(calls)
    for name, *args in calls:
        got, want = getattr(stream, name)(*args), getattr(rng, name)(*args)
        assert got == want, (name, args)
        # The buffered 32-bit half-word; the words come from numpy, ahead of the draws.
        state = rng.bit_generator.state
        assert (stream.has_uint32, stream.uinteger) == (state["has_uint32"], state["uinteger"])


@pytest.mark.parametrize("low, high", [(3, 3), (4, 3), (0, 2**32 + 1), (-1, 2**32)])
def test_pcg64_stream_refuses_ranges_outside_32_bits(low, high):
    stream = PCG64Stream(**np.random.default_rng(0).bit_generator.state["state"])
    with pytest.raises(ValueError, match=r"high - low must be in \[1, 2\*\*32\]"):
        stream.integers(low, high)
    assert stream.bit_generator_state() == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "3", True, None])
def test_wheel_seed_must_be_an_integer_in_range(seed):
    message = f"wheel seed must be an integer in [0, 2**128), got {seed!r}"
    for call in (
        lambda: wheel_columns([spec(), spec()], [0, seed]),
        lambda: simulate.classify_spec(spec(), seed),
    ):
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            call()


@pytest.mark.parametrize(
    "specs, seeds, message",
    [
        ([spec(), spec()], [0], "a block takes one seed per wheel, got 2 specs and 1 seeds"),
        ([spec()], [0, 1], "a block takes one seed per wheel, got 1 specs and 2 seeds"),
        ([], [], "a block takes at least one wheel"),
    ],
    ids=["too-few-seeds", "extra-seed", "empty-block"],
)
def test_block_takes_one_seed_per_wheel_and_a_wheel(specs, seeds, message):
    with pytest.raises(InvalidSpec, match=re.escape(message)):
        wheel_columns(specs, seeds)


def test_numpy_integer_seed_is_its_value():
    wheel = spec(profile=FlapProfile.CONCAVE, severity=Severity.FULLY)
    radial, _ = observe_block(wheel_columns([wheel, wheel], [np.uint64(2**64 - 1), 2**64 - 1]))
    assert radial[0].tolist() == radial[1].tolist()


@pytest.mark.parametrize(
    "n, message",
    [
        (0, "simulation size must be >= 1"),
        (2.5, "simulation size must be an integer, got 2.5"),
        (True, "simulation size must be an integer, got True"),
        ("11", "simulation size must be an integer, got '11'"),
        (10**30, f"simulation size {10**30} is too large"),
    ],
)
def test_both_simulations_share_one_size_rule(n, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        simulate.run_synthetic_batch(n, seed=0)
    with pytest.raises(ConfigError, match=re.escape(message)):
        simulate.oracle_branch_trials(ALL_MATRICES, FlapProfile.CONCAVE, n, seed=0)


TOOL_IDS = [f"tool-{t}" for t in range(10)]


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
        (True, "seed must be an integer, got True"),
        (None, "seed must be an integer, got None"),
    ],
)
def test_both_simulations_share_one_seed_rule(seed, message):
    for call in (
        lambda: simulate.run_synthetic_batch(11, seed),
        lambda: simulate.oracle_branch_trials(ALL_MATRICES, FlapProfile.CONCAVE, 100, seed),
        lambda: simulate.run_oracle_batch(ALL_MATRICES, 100, seed),
        lambda: predictions.split_by_tool(TOOL_IDS, (0.5, 0.3, 0.2), seed),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            call()


def test_numpy_integer_seed_splits_as_its_value():
    split = predictions.split_by_tool(TOOL_IDS, (0.5, 0.3, 0.2), np.int64(7))
    assert split == predictions.split_by_tool(TOOL_IDS, (0.5, 0.3, 0.2), 7)


def test_numpy_integer_size_and_seed_are_their_values():
    branch = FlapProfile.CONCAVE
    for report, want in (
        (simulate.run_synthetic_batch(np.int64(11), 0), simulate.run_synthetic_batch(11, 0)),
        (
            simulate.oracle_branch_trials(ALL_MATRICES, branch, np.int64(100), np.int64(1)),
            simulate.oracle_branch_trials(ALL_MATRICES, branch, 100, 1),
        ),
    ):
        assert json.dumps(report) == json.dumps(want)


class TestStochasticOracle:
    def test_one_hot_row_always_correct(self):
        rng = np.random.default_rng(0)
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        preds, confs = sample_oracle_predictions(
            StageId.USAGE, np.ones(50, dtype=int), rows, (0.97, 0.89, 0.03), rng
        )
        assert np.all(preds == 1)
        assert np.all((confs > 0.5) & (confs <= 1.0))

    def test_used_row_error_rate(self):
        # truth row (19/1040, 1021/1040); binomial 4-sigma band around 0.0183
        rng = np.random.default_rng(12)
        n = 10**5
        row = np.tile([19 / 1040, 1021 / 1040], (2, 1))
        preds, _ = sample_oracle_predictions(
            StageId.USAGE, np.ones(n, dtype=int), row, (0.97, 0.89, 0.03), rng
        )
        error_rate = np.mean(preds != 1)
        assert error_rate == pytest.approx(19 / 1040, abs=0.0017)

    def test_confidence_law_means(self):
        rng = np.random.default_rng(5)
        n = 10**5
        row = np.tile([0.95, 0.05], (2, 1))
        preds, confs = sample_oracle_predictions(
            StageId.USAGE, np.zeros(n, dtype=int), row, (0.97, 0.89, 0.03), rng
        )
        correct = preds == 0
        assert np.mean(confs[correct]) == pytest.approx(0.97, abs=0.01)
        assert np.mean(confs[~correct]) == pytest.approx(0.89, abs=0.01)

    def test_oracle_calibration_total_variation(self):
        rng = np.random.default_rng(21)
        n = 10**5
        target = np.array([0.1, 0.6, 0.3])
        row = np.tile(target, (3, 1))
        preds, _ = sample_oracle_predictions(
            StageId.PROFILE, np.zeros(n, dtype=int), row, (0.9, 0.6, 0.03), rng
        )
        empirical = np.bincount(preds, minlength=3) / n
        assert 0.5 * np.abs(empirical - target).sum() < 0.01

    def test_row_summing_just_under_one_never_yields_class_k(self):
        class LastUniform:
            """Every uniform is the largest float below 1.0; every normal draw is 0."""

            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

            def standard_normal(self, n, out):
                out[:] = 0.0
                return out

        # Within the 1e-9 sum tolerance, but its CDF ends below the uniform.
        rows = np.tile([0.5, 0.5 - 1e-10], (2, 1))
        preds, confs = sample_oracle_predictions(
            StageId.USAGE, np.array([0, 1, 1]), rows, (0.97, 0.89, 0.03), LastUniform()
        )
        assert preds.tolist() == [1, 1, 1]
        assert confs.tolist() == [0.89, 0.97, 0.97]

    @pytest.mark.parametrize("truth", [-1, 2, np.iinfo(np.intp).min])
    def test_truth_outside_the_stage_rejected(self, truth):
        # take() would wrap -1 round to the last class and raise IndexError for 2.
        with pytest.raises(BadRow, match=r"usage truth classes must be in \[0, 2\)"):
            sample_oracle_predictions(
                StageId.USAGE,
                np.array([0, truth, 1]),
                [[0.5, 0.5], [0.5, 0.5]],
                (0.97, 0.89, 0.03),
                np.random.default_rng(0),
            )

    def test_bad_row_rejected(self):
        rng = np.random.default_rng(0)
        truths = np.zeros(1, dtype=int)
        with pytest.raises(BadRow):
            sample_oracle_predictions(
                StageId.USAGE, truths, [[0.7, 0.2], [0.7, 0.2]], (0.97, 0.89, 0.03), rng
            )
        with pytest.raises(BadRow):
            sample_oracle_predictions(
                StageId.USAGE, truths, [[0.5, 0.5], [0.5, 0.5]], (0.4, 0.89, 0.03), rng
            )
        with pytest.raises(BadRow):
            sample_oracle_predictions(
                StageId.USAGE, truths, [[np.nan, np.nan], [0.5, 0.5]], (0.97, 0.89, 0.03), rng
            )
        for spread in (-1e-300, np.nan, np.inf):
            with pytest.raises(BadRow, match="spread"):
                sample_oracle_predictions(
                    StageId.USAGE, truths, [[0.5, 0.5], [0.5, 0.5]], (0.97, 0.89, spread), rng
                )
