import re

import numpy as np
import pytest

from flapwear import predictions, simulate
from flapwear.engine import DEFAULT_THRESHOLDS
from flapwear.errors import ConfigError
from flapwear.predictions import ProbabilityVector, StageId
from flapwear.synth import (
    TEAR_RATIO_BOUNDARY,
    BadRow,
    InvalidSpec,
    WheelSpec,
    observe_wheels,
    profile_rows,
    sample_oracle_predictions,
    score_wheels,
    severity_rows,
    tear_rows,
    usage_rows,
)
from flapwear.taxonomy import (
    SEVERITY_STAGE,
    STAGE_CLASSES,
    FlapProfile,
    Severity,
    TearState,
    UsageState,
)

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

    def test_new_has_fringe_by_default(self):
        assert WheelSpec(UsageState.NEW, FlapProfile.RECTANGULAR).has_fringe
        assert not spec().has_fringe

    def test_adversarial_preset_is_used_with_fringe(self):
        adv = ADVERSARIAL_FRINGE
        assert adv.usage is UsageState.USED
        assert adv.has_fringe


def observe(wheel, seed):
    """One wheel's contour and its gaps, from a block of one."""
    radial, gaps = observe_wheels([wheel], [seed])
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
        score_wheels([wheel], [1], vectors)
        radial, _ = observe_wheels([wheel], [1])
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
        simulate, "score_wheels",
        lambda specs, seeds, vectors: blocks.append(len(specs))
        or score_wheels(specs, seeds, vectors),
    )
    simulate.run_synthetic_batch(2 * simulate.SYNTH_BLOCK + 1, seed=3)
    assert blocks == [simulate.SYNTH_BLOCK, simulate.SYNTH_BLOCK, 1]


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
