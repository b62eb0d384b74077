import numpy as np
import pytest

from flapwear import predictions, simulate
from flapwear.predictions import ProbabilityVector, StageId
from flapwear.synth import (
    AxialGapPattern,
    BadRow,
    InvalidSpec,
    RadialProfile,
    WheelSpec,
    generate_observation,
    observation_vectors,
    profile_feature_classifier,
    sample_oracle_predictions,
    severity_feature_classifier,
    tear_feature_classifier,
    usage_feature_classifier,
)
from flapwear.taxonomy import FlapProfile, Severity, UsageState


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


class TestGenerator:
    def test_rectangular_zero_noise_is_constant(self):
        obs = generate_observation(spec(), seed=4)
        assert len(set(obs.radial.samples)) == 1

    def test_fully_concave_depth(self):
        obs = generate_observation(
            spec(profile=FlapProfile.CONCAVE, severity=Severity.FULLY, profile_depth=0.2),
            seed=4,
        )
        samples = np.asarray(obs.radial.samples)
        assert samples.min() == pytest.approx(samples.max() - 0.2, abs=1e-3)
        center = np.argmin(samples) / (len(samples) - 1)
        assert 0.4 <= center <= 0.6

    def test_convex_bulges(self):
        obs = generate_observation(
            spec(profile=FlapProfile.CONVEX, severity=Severity.FULLY, profile_depth=0.1),
            seed=4,
        )
        samples = np.asarray(obs.radial.samples)
        assert samples.max() == pytest.approx(samples.min() + 0.1, abs=1e-3)

    def test_torn_gap_exceeds_all_untorn_gaps(self):
        obs = generate_observation(spec(torn_flaps=frozenset({3})), seed=4)
        gaps = obs.axial.gap_angles
        torn = gaps[3]
        assert all(torn > g for i, g in enumerate(gaps) if i != 3)

    def test_radii_stay_in_unit_interval(self):
        obs = generate_observation(
            spec(profile=FlapProfile.CONVEX, severity=Severity.FULLY,
                 profile_depth=0.5, noise_sigma=0.05),
            seed=8,
        )
        assert all(0 < r <= 1 for r in obs.radial.samples)

    def test_deterministic_per_seed(self):
        s = spec(profile=FlapProfile.CONCAVE, severity=Severity.PARTIALLY, noise_sigma=0.01)
        assert generate_observation(s, 7) == generate_observation(s, 7)
        assert generate_observation(s, 7) != generate_observation(s, 8)


class TestProfileClassifier:
    def test_constant_profile_is_rectangular(self):
        radial = RadialProfile((0.85,) * 64, fringe=False)
        row = profile_feature_classifier(radial)
        ProbabilityVector(StageId.PROFILE, row)
        assert np.argmax(row) == 0

    def test_central_depression_is_concave(self):
        obs = generate_observation(
            spec(profile=FlapProfile.CONCAVE, severity=Severity.FULLY, profile_depth=0.2),
            seed=1,
        )
        assert np.argmax(profile_feature_classifier(obs.radial)) == 1

    def test_central_bulge_is_convex(self):
        obs = generate_observation(
            spec(profile=FlapProfile.CONVEX, severity=Severity.FULLY, profile_depth=0.2),
            seed=1,
        )
        assert np.argmax(profile_feature_classifier(obs.radial)) == 2


class TestSeverityClassifier:
    def _bump_profile(self, span, depth=0.2, n=64):
        w = np.linspace(0, 1, n)
        lo = (1 - span) / 2
        r = np.full(n, 0.85)
        inside = (w >= lo) & (w <= lo + span)
        t = (w[inside] - lo) / span
        r[inside] -= depth * np.sin(np.pi * t)
        return RadialProfile(tuple(r), fringe=False)

    def test_wide_span_is_fully(self):
        row = severity_feature_classifier(self._bump_profile(0.95), FlapProfile.CONCAVE)
        assert np.argmax(row) == 0
        # A wheel's severity row is filed under its branch's stage.
        obs = generate_observation(spec(profile=FlapProfile.CONCAVE, severity=Severity.FULLY), 1)
        assert list(observation_vectors(obs)) == [
            StageId.USAGE, StageId.PROFILE, StageId.TEAR, StageId.CONCAVE_SEVERITY
        ]

    def test_narrow_span_is_partially(self):
        row = severity_feature_classifier(self._bump_profile(0.40), FlapProfile.CONCAVE)
        assert np.argmax(row) == 1

    def test_boundary_is_uncertain(self):
        # step profile with exactly 75% of samples affected
        n = 64
        r = np.full(n, 0.85)
        r[: int(0.75 * n)] -= 0.2
        row = severity_feature_classifier(RadialProfile(tuple(r), False), FlapProfile.CONCAVE)
        assert abs(row[0] - 0.5) <= 0.05

    def test_rectangular_branch_rejected(self):
        with pytest.raises(InvalidSpec):
            severity_feature_classifier(self._bump_profile(0.5), FlapProfile.RECTANGULAR)


class TestTearClassifier:
    def test_uniform_gaps_no_tear(self):
        row = tear_feature_classifier(AxialGapPattern((0.1,) * 20))
        assert np.argmax(row) == 1

    def test_tripled_gap_with_tear(self):
        gaps = [0.1] * 20
        gaps[5] = 0.3
        row = tear_feature_classifier(AxialGapPattern(tuple(gaps)))
        assert np.argmax(row) == 0

    def test_jitter_alone_does_not_trigger(self):
        rng = np.random.default_rng(0)
        gaps = 0.1 * (1 + rng.uniform(-0.1, 0.1, 24))
        row = tear_feature_classifier(AxialGapPattern(tuple(gaps)))
        assert np.argmax(row) == 1


class TestUsageClassifier:
    def test_fringe_scores_new(self):
        obs = generate_observation(WheelSpec(UsageState.NEW, FlapProfile.RECTANGULAR), 3)
        assert np.argmax(usage_feature_classifier(obs.radial)) == 0

    def test_no_fringe_scores_used(self):
        obs = generate_observation(spec(), 3)
        assert np.argmax(usage_feature_classifier(obs.radial)) == 1

    def test_adversarial_fringe_misclassified_as_new(self):
        obs = generate_observation(ADVERSARIAL_FRINGE, 3)
        assert np.argmax(usage_feature_classifier(obs.radial)) == 0


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
    # One check per stage, over the wheels whose row was filled: 8 concave, 8 convex.
    assert checked == [(22, 2), (22, 3), (22, 2), (8, 2), (8, 2)]
    simulate.classify_spec(spec(), seed=3)  # the one-run path builds its RunInput's vectors
    assert len(built) == 3


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
