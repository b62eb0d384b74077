import json
import re
from statistics import fmean

import numpy as np
import pytest

from flapwear.engine import (
    FLAG_LABELS,
    RUN_LINE_BLOCK,
    ConflictPolicy,
    EngineConfig,
    EngineError,
    MissingSeverityInput,
    RunInput,
    RunResult,
    TooFewRuns,
    _stamp,
    classify_run,
    decide_runs,
    fuse_runs,
)
from flapwear.errors import ConfigError
from flapwear.predictions import ProbabilityVector, StageId
from flapwear.taxonomy import (
    CONSISTENT_OUTCOMES,
    SEVERITY_STAGE,
    STAGE_CLASSES,
    ConflictKind,
    FlapProfile,
)


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"thresholds": {"usage": 0.5}}, "threshold stage is not a StageId: 'usage'"),
        ({"thresholds": {StageId.USAGE: True}}, "threshold for usage is not a number: True"),
        ({"thresholds": {StageId.USAGE: "0.9"}}, "threshold for usage is not a number: '0.9'"),
        ({"thresholds": {StageId.USAGE: 1.5}}, "threshold for usage outside [0, 1]: 1.5"),
        (
            {"conflict_policy": "reject_run"},
            "conflict_policy is not a ConflictPolicy: 'reject_run'",
        ),
        ({"ensemble_min_runs": True}, "ensemble_min_runs is not an integer: True"),
        ({"ensemble_min_runs": 1.5}, "ensemble_min_runs is not an integer: 1.5"),
        ({"ensemble_min_runs": "2"}, "ensemble_min_runs is not an integer: '2'"),
        ({"ensemble_min_runs": 0}, "ensemble_min_runs must be positive"),
        ({"thresholds": None}, "thresholds must be a mapping, got None"),
        (
            {"thresholds": [("usage", 0.5)]},
            "thresholds must be a mapping, got [('usage', 0.5)]",
        ),
    ],
)
def test_engine_config_refuses_a_value_it_cannot_use(kwargs, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        EngineConfig(**kwargs)


def decided_stages(result):
    return {stage for stage, _, _ in result.decisions}


class TestClassifyRun:
    def test_used_concave_partially_is_outcome_4(self):
        result = classify_run(
            run_input([0.02, 0.98], [0.1, 0.85, 0.05], [0.2, 0.8], concave=[0.3, 0.7]),
            NO_THRESHOLDS,
        )
        assert result.verdict == "outcome"
        assert result.outcome.id == 4
        assert StageId.CONCAVE_SEVERITY in decided_stages(result)
        assert result.flags == ()

    def test_new_with_tear_is_conflicted(self):
        result = classify_run(
            run_input([0.95, 0.05], [0.9, 0.05, 0.05], [0.97, 0.03]), NO_THRESHOLDS
        )
        assert result.verdict == "conflicted"
        assert result.outcome is None
        assert result.conflicts == (ConflictKind.NEW_WITH_TEAR,)
        assert result.flags == ("conflict:new_with_tear",)

    def test_low_confidence_flag_below_usage_threshold(self):
        config = EngineConfig(thresholds={StageId.USAGE: 0.91})
        result = classify_run(
            run_input([0.90, 0.10], [0.9, 0.05, 0.05], [0.03, 0.97]), config
        )
        assert result.outcome.id == 1
        assert result.flags == ("low_confidence:usage",)

    def test_default_thresholds_gate_usage_and_tear_only(self):
        config = EngineConfig()
        assert config.thresholds == {StageId.USAGE: 0.91, StageId.TEAR: 0.79}
        result = classify_run(
            # profile confidence 0.4 is low, but profile is ungated by default
            run_input([0.05, 0.95], [0.4, 0.35, 0.25], [0.22, 0.78]),
            config,
        )
        assert result.flags == ("low_confidence:tear",)

    def test_rectangular_skips_level_3(self):
        result = classify_run(
            run_input([0.05, 0.95], [0.8, 0.1, 0.1], [0.1, 0.9],
                      concave=[0.5, 0.5], convex=[0.5, 0.5]),
            NO_THRESHOLDS,
        )
        assert result.outcome.id == 2
        assert StageId.CONCAVE_SEVERITY not in decided_stages(result)
        assert StageId.CONVEX_SEVERITY not in decided_stages(result)

    def test_branch_exclusivity(self):
        result = classify_run(
            run_input([0.05, 0.95], [0.1, 0.1, 0.8], [0.1, 0.9],
                      concave=[0.5, 0.5], convex=[0.9, 0.1]),
            NO_THRESHOLDS,
        )
        assert StageId.CONVEX_SEVERITY in decided_stages(result)
        assert StageId.CONCAVE_SEVERITY not in decided_stages(result)
        assert result.outcome.id == 10

    def test_missing_severity_flag_only(self):
        result = classify_run(
            run_input([0.05, 0.95], [0.1, 0.85, 0.05], [0.2, 0.8]), NO_THRESHOLDS
        )
        assert result.verdict == "incomplete"
        assert result.outcome is None
        assert result.flags == ("missing_severity_input",)

    def test_missing_severity_reject_run_raises(self):
        config = EngineConfig(thresholds={}, conflict_policy=ConflictPolicy.REJECT_RUN)
        with pytest.raises(MissingSeverityInput):
            classify_run(run_input([0.05, 0.95], [0.1, 0.85, 0.05], [0.2, 0.8]), config)

    def test_reject_run_suppresses_level3_after_conflict(self):
        conflicted = run_input(
            [0.95, 0.05], [0.1, 0.85, 0.05], [0.2, 0.8], concave=[0.6, 0.4]
        )
        flag_only = classify_run(conflicted, NO_THRESHOLDS)
        assert StageId.CONCAVE_SEVERITY in decided_stages(flag_only)
        rejecting = classify_run(
            conflicted, EngineConfig(thresholds={}, conflict_policy=ConflictPolicy.REJECT_RUN)
        )
        assert rejecting.verdict == "conflicted"
        assert StageId.CONCAVE_SEVERITY not in decided_stages(rejecting)

    def test_determinism(self):
        run = run_input([0.3, 0.7], [0.2, 0.5, 0.3], [0.6, 0.4], concave=[0.55, 0.45])
        config = EngineConfig()
        assert classify_run(run, config) == classify_run(run, config)

    def test_lowering_threshold_never_adds_flags(self):
        run = run_input([0.85, 0.15], [0.9, 0.05, 0.05], [0.1, 0.9])
        for high, low in [(0.95, 0.5), (0.91, 0.8), (0.86, 0.1)]:
            flags_high = classify_run(run, EngineConfig(thresholds={StageId.USAGE: high})).flags
            flags_low = classify_run(run, EngineConfig(thresholds={StageId.USAGE: low})).flags
            assert set(flags_low) <= set(flags_high)


def needs_reevaluation(result):
    return result.to_record("t1", 0)["needs_reevaluation"]


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


class TestZeroSeverityRow:
    """A severity row of zeros is a missing vector; decide_runs states the rule."""

    # One used, untorn run per profile: rectangular, concave, convex.
    PROFILES = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
    REJECT = EngineConfig(thresholds={}, conflict_policy=ConflictPolicy.REJECT_RUN)

    def batch(self, zero_rows: dict[StageId, list[int]]):
        vectors = {
            StageId.USAGE: np.tile([0.05, 0.95], (3, 1)),
            StageId.PROFILE: np.array(self.PROFILES),
            StageId.TEAR: np.tile([0.1, 0.9], (3, 1)),
            StageId.CONCAVE_SEVERITY: np.tile([0.7, 0.3], (3, 1)),
            StageId.CONVEX_SEVERITY: np.tile([0.3, 0.7], (3, 1)),
        }
        for stage, rows in zero_rows.items():
            vectors[stage][rows] = 0.0
        return vectors

    @pytest.mark.parametrize("profile", [FlapProfile.CONCAVE, FlapProfile.CONVEX])
    def test_zero_row_on_the_decided_branch_is_missing(self, profile):
        run = 1 if profile is FlapProfile.CONCAVE else 2
        vectors = self.batch({SEVERITY_STAGE[profile]: [run]})
        flagged = list(decide_runs(vectors, NO_THRESHOLDS).rows())
        assert flagged[run].verdict == "incomplete"
        assert flagged[run].flags == ("missing_severity_input",)
        assert [r.flags for i, r in enumerate(flagged) if i != run] == [(), ()]

        decisions = decide_runs(vectors, self.REJECT)
        assert decisions.rejected_row == run
        with pytest.raises(MissingSeverityInput, match=f"profile {profile.value} requires"):
            raise decisions.rejection()

    @pytest.mark.parametrize("config", [NO_THRESHOLDS, EngineConfig(), REJECT])
    def test_zero_rows_off_the_branch_change_nothing(self, config):
        full = decide_runs(self.batch({}), config)
        # Rectangular (no branch), concave fully, convex partially.
        assert [r.outcome.id for r in full.rows()] == [2, 6, 8]
        off = {StageId.CONCAVE_SEVERITY: [0, 2], StageId.CONVEX_SEVERITY: [0, 1]}
        sparse = decide_runs(self.batch(off), config)
        assert list(sparse.rows()) == list(full.rows())
        assert sparse.rejected_row == full.rejected_row == -1
        counts = np.array([3])
        assert list(sparse.run_lines(["t"], counts)) == list(full.run_lines(["t"], counts))


def test_run_line_key_fits_in_62_bits():
    # run_lines keys a line on its flag mask, then two bits per stage (class
    # index + 1, in 0..3) in an int64; a new flag or stage must not overflow it.
    assert all(len(classes) <= 3 for classes in STAGE_CLASSES.values())
    assert len(FLAG_LABELS) + 2 * len(STAGE_CLASSES) <= 62


def test_run_lines_across_blocks_match_to_record():
    # More runs than two blocks; tool "b" owns runs B-3 .. B+2 and so
    # straddles the first block boundary B.
    rng = np.random.default_rng(27)
    counts = [RUN_LINE_BLOCK - 3, 6] + [int(c) for c in rng.integers(1, 8, 200)]
    counts.append(2 * RUN_LINE_BLOCK + 50 - sum(counts))
    assert counts[-1] > 0
    n = sum(counts)
    vectors = {
        stage: rng.dirichlet(np.ones(len(classes)), n) for stage, classes in STAGE_CLASSES.items()
    }
    vectors[StageId.CONCAVE_SEVERITY][rng.random(n) < 0.1] = 0.0  # some severities missing
    tool_ids = ["a", 'b "\u00e9"', *(f"t{i}" for i in range(len(counts) - 2))]
    decisions = decide_runs(vectors, EngineConfig())
    lines = list(decisions.run_lines(tool_ids, np.array(counts)))
    expected = [
        json.dumps(result.to_record(tool, i), sort_keys=True) + "\n"
        for result, (tool, i) in zip(
            decisions.rows(), ((t, i) for t, c in zip(tool_ids, counts) for i in range(c))
        )
    ]
    assert len(lines) == n
    assert lines == expected


def stamped(record, row):
    text, values = _stamp(record)
    return text % values(row)


def test_stamp_of_a_single_slot_takes_the_bare_value():
    # itemgetter of one index returns the item itself, not a 1-tuple.
    text, values = _stamp({"runs_used": "\x000"})
    assert values([7]) == 7
    assert text % values([7]) == json.dumps({"runs_used": 7})
    assert stamped({"id": "\x000", "n": 1}, ['"t"']) == json.dumps({"id": "t", "n": 1})


def test_stamp_keeps_percent_signs_in_text_and_values():
    record = {"k%s": "100%", "v": "\x001", "%d": "\x000", "pct": "%%"}
    row = ['"50%d"', 0.30000000000000004]
    filled = {"k%s": "100%", "v": 0.30000000000000004, "%d": "50%d", "pct": "%%"}
    assert stamped(record, row) == json.dumps(filled, sort_keys=True)


def test_stamp_fills_slots_in_key_order_from_any_row_order():
    record = {"z": "\x000", "a": {"y": "\x002", "b": "\x001"}}
    filled = {"z": '"q\\"', "a": {"y": 1e-300, "b": 3}}
    row = [json.dumps('"q\\"'), 3, 1e-300]
    assert stamped(record, row) == json.dumps(filled, sort_keys=True)


def test_run_lines_with_a_tool_of_no_runs_match_to_record():
    rng = np.random.default_rng(5)
    counts = [2, 0, 3, 0, 1]
    n = sum(counts)
    vectors = {
        stage: rng.dirichlet(np.ones(len(classes)), n) for stage, classes in STAGE_CLASSES.items()
    }
    tool_ids = ["a", "none", "c%s", "", "\u00e9"]
    decisions = decide_runs(vectors, EngineConfig())
    lines = list(decisions.run_lines(tool_ids, np.array(counts)))
    expected = [
        json.dumps(result.to_record(tool, i), sort_keys=True) + "\n"
        for result, (tool, i) in zip(
            decisions.rows(), ((t, i) for t, c in zip(tool_ids, counts) for i in range(c))
        )
    ]
    assert len(lines) == n
    assert lines == expected


def rect_run(usage_conf=0.95, tear_conf=0.9, tear_idx=1):
    tear = [0.0, 0.0]
    tear[tear_idx] = tear_conf
    tear[1 - tear_idx] = 1 - tear_conf
    return classify_run(
        run_input([1 - usage_conf, usage_conf], [0.9, 0.05, 0.05], tear),
        NO_THRESHOLDS,
    )


class TestEnsemble:
    def test_strict_majority(self):
        runs = [rect_run(), rect_run(), rect_run(tear_idx=0)]  # ids 2, 2, 3
        result = fuse_runs("t1", runs, NO_THRESHOLDS)
        assert result.outcome.id == 2
        assert result.vote_counts == {"2": 2, "3": 1}
        assert result.runs_used == 3

    def test_unanimity(self):
        runs = [rect_run(), rect_run()]
        result = fuse_runs("t1", runs, NO_THRESHOLDS)
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
        result = fuse_runs("t1", runs, NO_THRESHOLDS)
        assert result.vote_counts == {"2": 2, "3": 2}
        assert result.outcome.id == 3

    def test_tie_with_equal_confidence_prefers_lowest_id(self):
        runs = [rect_run(), rect_run(tear_idx=0)]
        result = fuse_runs("t1", runs, NO_THRESHOLDS)
        assert result.outcome.id == 2

    def test_order_invariance(self):
        runs = [
            rect_run(usage_conf=0.99),
            rect_run(usage_conf=0.85, tear_idx=0),
            rect_run(usage_conf=0.90),
        ]
        forward = fuse_runs("t1", runs, NO_THRESHOLDS)
        backward = fuse_runs("t1", list(reversed(runs)), NO_THRESHOLDS)
        assert forward == backward

    def test_conflicted_runs_pool(self):
        conflicted = classify_run(
            run_input([0.95, 0.05], [0.9, 0.05, 0.05], [0.97, 0.03]), NO_THRESHOLDS
        )
        result = fuse_runs("t1", [conflicted, conflicted, rect_run()], NO_THRESHOLDS)
        assert result.verdict == "conflicted"
        assert result.vote_counts == {"conflicted": 2, "2": 1}

    def test_too_few_runs(self):
        config = EngineConfig(thresholds={}, ensemble_min_runs=3)
        with pytest.raises(TooFewRuns):
            fuse_runs("t1", [rect_run(), rect_run()], config)

    def test_confidences_far_below_a_quarter_get_fsum_means(self):
        # Hand-made runs with confidences far below 1/4, whose sums split at
        # 2**-27 would not be exact; ids 2 and 3 tie and the mean of run means
        # decides. The last run decided no usage.
        outcome = {o.id: o for o in CONSISTENT_OUTCOMES}
        stages = (StageId.USAGE, StageId.PROFILE, StageId.TEAR)

        def run(oid, *confs):
            decisions = [(s, 0, c) for s, c in zip(stages, confs) if c is not None]
            return RunResult(outcome[oid], (), decisions, ())

        runs = [
            run(2, 1e-20, 0.2, 0.3),
            run(3, 6.806905539754961e-10, 0.2, 0.30000000000000004),
            run(2, 6.011389845517674e-10, 0.7, 0.1),
            run(3, None, 0.1, 0.1),
        ]
        result = fuse_runs("t1", runs, NO_THRESHOLDS)
        means = {
            stage: fmean(d[2] for r in runs for d in r.decisions if d[0] is stage)
            for stage in stages
        }
        assert result.mean_confidence_per_stage == means
        rank = {
            oid: fmean(fmean(d[2] for d in r.decisions) for r in runs if r.outcome.id == oid)
            for oid in (2, 3)
        }
        assert result.outcome.id == max(rank, key=rank.get)

    def test_tied_voters_without_decided_stages_rank_last(self):
        # Hand-made runs that decided no stage have no mean confidence; the
        # winner is still one of the tied candidates.
        outcome = {o.id: o for o in CONSISTENT_OUTCOMES}
        bare = [RunResult(outcome[oid], (), [], ()) for oid in (2, 3)]
        assert fuse_runs("t1", bare, NO_THRESHOLDS).outcome.id == 2
        decided = RunResult(outcome[3], (), [(StageId.USAGE, 1, 0.9)], ())
        assert fuse_runs("t1", [bare[0], decided], NO_THRESHOLDS).outcome.id == 3

    def test_vote_counts_sum_to_runs_used(self):
        runs = [rect_run(), rect_run(tear_idx=0), rect_run()]
        result = fuse_runs("t1", runs, NO_THRESHOLDS)
        assert sum(result.vote_counts.values()) == result.runs_used
