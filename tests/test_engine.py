import pytest

from flapwear.engine import (
    ConflictPolicy,
    EngineConfig,
    EngineError,
    FlagType,
    MissingSeverityInput,
    MixedTools,
    RunInput,
    TooFewRuns,
    classify_run,
    ensemble_classify,
    needs_reevaluation,
)
from flapwear.predictions import ProbabilityVector, StageId
from flapwear.taxonomy import ConflictKind


def run_input(usage, profile, tear, concave=None, convex=None, tool="t1"):
    probs = {
        StageId.USAGE: usage,
        StageId.PROFILE: profile,
        StageId.TEAR: tear,
        StageId.CONCAVE_SEVERITY: concave,
        StageId.CONVEX_SEVERITY: convex,
    }
    return RunInput(
        tool, {stage: ProbabilityVector(stage, tuple(p)) for stage, p in probs.items() if p}
    )


class TestRunInput:
    USAGE = ProbabilityVector(StageId.USAGE, (0.02, 0.98))
    PROFILE = ProbabilityVector(StageId.PROFILE, (0.9, 0.05, 0.05))
    TEAR = ProbabilityVector(StageId.TEAR, (0.2, 0.8))

    def test_tear_vector_filed_as_usage_rejected(self):
        with pytest.raises(EngineError, match="tear vector filed as usage"):
            RunInput("t1", {StageId.USAGE: self.TEAR, StageId.PROFILE: self.PROFILE,
                            StageId.TEAR: self.TEAR})

    def test_profile_vector_filed_as_usage_rejected(self):
        with pytest.raises(EngineError, match="profile vector filed as usage"):
            RunInput("t1", {StageId.USAGE: self.PROFILE, StageId.PROFILE: self.PROFILE,
                            StageId.TEAR: self.TEAR})

    def test_run_without_tear_rejected(self):
        with pytest.raises(EngineError, match="run has no tear vector"):
            RunInput("t1", {StageId.USAGE: self.USAGE, StageId.PROFILE: self.PROFILE})


NO_THRESHOLDS = EngineConfig(thresholds={})


class TestClassifyRun:
    def test_used_concave_partially_is_outcome_4(self):
        result = classify_run(
            run_input([0.02, 0.98], [0.1, 0.85, 0.05], [0.2, 0.8], concave=[0.3, 0.7]),
            NO_THRESHOLDS,
        )
        assert result.verdict == "outcome"
        assert result.outcome.id == 4
        assert StageId.CONCAVE_SEVERITY in result.stage_decisions
        assert not result.flags

    def test_new_with_tear_is_conflicted(self):
        result = classify_run(
            run_input([0.95, 0.05], [0.9, 0.05, 0.05], [0.97, 0.03]), NO_THRESHOLDS
        )
        assert result.verdict == "conflicted"
        assert result.outcome is None
        assert result.conflicts == (ConflictKind.NEW_WITH_TEAR,)
        assert any(f.type is FlagType.CONFLICT for f in result.flags)

    def test_low_confidence_flag_below_usage_threshold(self):
        config = EngineConfig(thresholds={StageId.USAGE: 0.91})
        result = classify_run(
            run_input([0.90, 0.10], [0.9, 0.05, 0.05], [0.03, 0.97]), config
        )
        assert result.outcome.id == 1
        flags = {f.label() for f in result.flags}
        assert flags == {"low_confidence:usage"}

    def test_default_thresholds_gate_usage_and_tear_only(self):
        config = EngineConfig()
        assert config.thresholds == {StageId.USAGE: 0.91, StageId.TEAR: 0.79}
        result = classify_run(
            # profile confidence 0.4 is low, but profile is ungated by default
            run_input([0.05, 0.95], [0.4, 0.35, 0.25], [0.22, 0.78]),
            config,
        )
        assert {f.label() for f in result.flags} == {"low_confidence:tear"}

    def test_rectangular_skips_level_3(self):
        result = classify_run(
            run_input([0.05, 0.95], [0.8, 0.1, 0.1], [0.1, 0.9],
                      concave=[0.5, 0.5], convex=[0.5, 0.5]),
            NO_THRESHOLDS,
        )
        assert result.outcome.id == 2
        assert StageId.CONCAVE_SEVERITY not in result.stage_decisions
        assert StageId.CONVEX_SEVERITY not in result.stage_decisions

    def test_branch_exclusivity(self):
        result = classify_run(
            run_input([0.05, 0.95], [0.1, 0.1, 0.8], [0.1, 0.9],
                      concave=[0.5, 0.5], convex=[0.9, 0.1]),
            NO_THRESHOLDS,
        )
        assert StageId.CONVEX_SEVERITY in result.stage_decisions
        assert StageId.CONCAVE_SEVERITY not in result.stage_decisions
        assert result.outcome.id == 10

    def test_missing_severity_flag_only(self):
        result = classify_run(
            run_input([0.05, 0.95], [0.1, 0.85, 0.05], [0.2, 0.8]), NO_THRESHOLDS
        )
        assert result.verdict == "incomplete"
        assert result.outcome is None
        assert {f.type for f in result.flags} == {FlagType.MISSING_SEVERITY_INPUT}

    def test_missing_severity_reject_run_raises(self):
        config = EngineConfig(thresholds={}, conflict_policy=ConflictPolicy.REJECT_RUN)
        with pytest.raises(MissingSeverityInput):
            classify_run(run_input([0.05, 0.95], [0.1, 0.85, 0.05], [0.2, 0.8]), config)

    def test_reject_run_suppresses_level3_after_conflict(self):
        conflicted = run_input(
            [0.95, 0.05], [0.1, 0.85, 0.05], [0.2, 0.8], concave=[0.6, 0.4]
        )
        flag_only = classify_run(conflicted, NO_THRESHOLDS)
        assert StageId.CONCAVE_SEVERITY in flag_only.stage_decisions
        rejecting = classify_run(
            conflicted, EngineConfig(thresholds={}, conflict_policy=ConflictPolicy.REJECT_RUN)
        )
        assert rejecting.verdict == "conflicted"
        assert StageId.CONCAVE_SEVERITY not in rejecting.stage_decisions

    def test_determinism(self):
        run = run_input([0.3, 0.7], [0.2, 0.5, 0.3], [0.6, 0.4], concave=[0.55, 0.45])
        config = EngineConfig()
        assert classify_run(run, config) == classify_run(run, config)

    def test_lowering_threshold_never_adds_flags(self):
        run = run_input([0.85, 0.15], [0.9, 0.05, 0.05], [0.1, 0.9])
        for high, low in [(0.95, 0.5), (0.91, 0.8), (0.86, 0.1)]:
            flags_high = classify_run(run, EngineConfig(thresholds={StageId.USAGE: high})).flags
            flags_low = classify_run(run, EngineConfig(thresholds={StageId.USAGE: low})).flags
            assert flags_low <= flags_high


class TestNeedsReevaluation:
    def test_clean_result(self):
        result = classify_run(
            run_input([0.02, 0.98], [0.9, 0.05, 0.05], [0.1, 0.9]), NO_THRESHOLDS
        )
        assert not needs_reevaluation(result)

    def test_low_confidence_tear(self):
        result = classify_run(
            run_input([0.02, 0.98], [0.9, 0.05, 0.05], [0.25, 0.75]),
            EngineConfig(thresholds={StageId.TEAR: 0.79}),
        )
        assert needs_reevaluation(result)

    def test_conflict(self):
        result = classify_run(
            run_input([0.95, 0.05], [0.1, 0.85, 0.05], [0.2, 0.8], concave=[0.6, 0.4]),
            NO_THRESHOLDS,
        )
        assert ConflictKind.NEW_CONCAVE in result.conflicts
        assert needs_reevaluation(result)


def rect_run(tool="t1", usage_conf=0.95, tear_conf=0.9, tear_idx=1):
    tear = [0.0, 0.0]
    tear[tear_idx] = tear_conf
    tear[1 - tear_idx] = 1 - tear_conf
    return classify_run(
        run_input([1 - usage_conf, usage_conf], [0.9, 0.05, 0.05], tear, tool=tool),
        NO_THRESHOLDS,
    )


class TestEnsemble:
    def test_strict_majority(self):
        runs = [rect_run(), rect_run(), rect_run(tear_idx=0)]  # ids 2, 2, 3
        result = ensemble_classify(runs, NO_THRESHOLDS)
        assert result.outcome.id == 2
        assert result.vote_counts == {"2": 2, "3": 1}
        assert result.runs_used == 3

    def test_unanimity(self):
        runs = [rect_run(), rect_run()]
        result = ensemble_classify(runs, NO_THRESHOLDS)
        assert result.outcome.id == 2
        assert result.vote_counts == {"2": 2}

    def test_tie_broken_by_mean_confidence(self):
        # two votes each; the id-3 pair carries higher stage confidences
        runs = [
            rect_run(usage_conf=0.99, tear_conf=0.95, tear_idx=0),
            rect_run(usage_conf=0.97, tear_conf=0.93, tear_idx=0),
            rect_run(usage_conf=0.80, tear_conf=0.75),
            rect_run(usage_conf=0.82, tear_conf=0.77),
        ]
        result = ensemble_classify(runs, NO_THRESHOLDS)
        assert result.vote_counts == {"2": 2, "3": 2}
        assert result.outcome.id == 3

    def test_tie_with_equal_confidence_prefers_lowest_id(self):
        runs = [rect_run(), rect_run(tear_idx=0)]
        result = ensemble_classify(runs, NO_THRESHOLDS)
        assert result.outcome.id == 2

    def test_order_invariance(self):
        runs = [
            rect_run(usage_conf=0.99),
            rect_run(usage_conf=0.85, tear_idx=0),
            rect_run(usage_conf=0.90),
        ]
        forward = ensemble_classify(runs, NO_THRESHOLDS)
        backward = ensemble_classify(list(reversed(runs)), NO_THRESHOLDS)
        assert forward == backward

    def test_conflicted_runs_pool(self):
        conflicted = classify_run(
            run_input([0.95, 0.05], [0.9, 0.05, 0.05], [0.97, 0.03]), NO_THRESHOLDS
        )
        result = ensemble_classify([conflicted, conflicted, rect_run()], NO_THRESHOLDS)
        assert result.verdict == "conflicted"
        assert result.vote_counts == {"conflicted": 2, "2": 1}

    def test_too_few_runs(self):
        config = EngineConfig(thresholds={}, ensemble_min_runs=3)
        with pytest.raises(TooFewRuns):
            ensemble_classify([rect_run(), rect_run()], config)

    def test_mixed_tools(self):
        with pytest.raises(MixedTools):
            ensemble_classify([rect_run("a"), rect_run("b")], NO_THRESHOLDS)

    def test_vote_counts_sum_to_runs_used(self):
        runs = [rect_run(), rect_run(tear_idx=0), rect_run()]
        result = ensemble_classify(runs, NO_THRESHOLDS)
        assert sum(result.vote_counts.values()) == result.runs_used
