import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flapwear.engine import decide_runs
from flapwear.predictions import (
    BadLength,
    EmptyInput,
    NotNormalized,
    OutOfRange,
    ParseError,
    ProbabilityVector,
    StageId,
    ValidationError,
    ViewMismatch,
    parse_prediction_table,
    split_by_tool,
    validate_vector,
)
from flapwear.taxonomy import REQUIRED_STAGES, STAGE_CLASSES


def vec(stage, probs):
    return ProbabilityVector(stage, tuple(probs))


class TestValidateVector:
    def test_uniform_is_valid(self):
        validate_vector(vec(StageId.USAGE, [0.5, 0.5]))

    # An invalid vector cannot be constructed: ProbabilityVector itself raises.
    def test_not_normalized(self):
        with pytest.raises(NotNormalized, match="deviation -0.1"):
            ProbabilityVector(StageId.USAGE, (0.7, 0.2))

    def test_bad_length(self):
        with pytest.raises(BadLength):
            ProbabilityVector(StageId.PROFILE, (1.0, 0.0))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            ProbabilityVector(StageId.USAGE, (1.2, -0.2))

    def test_tolerance_is_not_silent_normalization(self):
        # within 1e-6 passes, but probs stay exactly as given
        v = vec(StageId.USAGE, [0.5000004, 0.5000001])
        validate_vector(v)
        assert v.probs == (0.5000004, 0.5000001)


def decide(stage, probs):
    """The engine's (class index, confidence) for one vector of a level-1/2 stage."""
    vectors = {s: np.eye(len(names))[:1] for s, names in STAGE_CLASSES.items()}
    vectors[stage] = np.array([vec(stage, probs).probs])
    decisions = decide_runs(vectors, {s: np.zeros(1, bool) for s in vectors})
    return int(decisions.index[stage][0]), float(decisions.confidence[stage][0])


class TestDecision:
    def test_argmax_strict(self):
        assert decide(StageId.USAGE, [0.96, 0.04])[0] == 0
        assert decide(StageId.PROFILE, [0.2, 0.5, 0.3])[0] == 1

    def test_argmax_tie_lowest_index(self):
        assert decide(StageId.TEAR, [0.5, 0.5])[0] == 0
        assert decide(StageId.PROFILE, [0.2, 0.4, 0.4])[0] == 1

    def test_confidence(self):
        assert decide(StageId.USAGE, [0.91, 0.09])[1] == pytest.approx(0.91)
        assert decide(StageId.USAGE, [0.5, 0.5])[1] == 0.5
        assert decide(StageId.PROFILE, [0.1, 0.1, 0.8])[1] == pytest.approx(0.8)

    @given(st.sampled_from(REQUIRED_STAGES), st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
    def test_confidence_is_argmax_prob(self, stage, raw):
        raw = raw[: len(STAGE_CLASSES[stage])]
        total = sum(raw)
        v = vec(stage, [x / total for x in raw])
        idx, conf = decide(stage, v.probs)
        assert v.probs[idx] == conf == max(v.probs)
        assert idx == min(i for i, p in enumerate(v.probs) if p == conf)


def _line(**overrides):
    rec = {
        "image_id": "img-1",
        "tool_id": "tool-1",
        "view": "radial",
        "stage": "usage",
        "probs": [0.9, 0.1],
        "truth": "used",
    }
    rec.update(overrides)
    return json.dumps(rec)


def test_view_must_match_stage(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(_line(stage="tear", probs=[0.5, 0.5], truth=None) + "\n")
    with pytest.raises(ViewMismatch, match="stage tear requires the axial view, got radial"):
        parse_prediction_table(path)
    path.write_text(_line(stage="tear", view="axial", probs=[0.5, 0.5], truth=None) + "\n")
    assert len(parse_prediction_table(path)[StageId.TEAR].probs) == 1


def test_truth_index_in_range(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(_line(truth="maybe") + "\n")
    with pytest.raises(ParseError, match="unknown truth class 'maybe'"):
        parse_prediction_table(path)


class TestPredictionFile:
    def test_parse_valid_file(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            "\n".join(
                [
                    _line(image_id="a"),
                    _line(image_id="b", truth="new"),
                    _line(image_id="c", stage="tear", view="axial", probs=[0.3, 0.7], truth="no_tear"),
                ]
            )
        )
        tables = parse_prediction_table(path)
        assert sum(len(table.probs) for table in tables.values()) == 3
        assert tables[StageId.USAGE].truth.tolist() == [1, 0]
        assert tables[StageId.TEAR].truth.tolist() == [1]

    def test_malformed_probability_reports_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(_line() + "\n" + _line(probs=["oops", 0.1]) + "\n")
        with pytest.raises(ParseError) as excinfo:
            parse_prediction_table(path)
        assert excinfo.value.line == 2

    def test_invalid_vector_reports_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(_line() + "\n" + _line(probs=[0.7, 0.2]) + "\n")
        with pytest.raises(ValidationError) as excinfo:
            parse_prediction_table(path)
        assert excinfo.value.line == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        tables = parse_prediction_table(path)
        assert list(tables) == list(StageId)
        assert all(len(table.probs) == 0 for table in tables.values())

    def test_table_columns_per_stage(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            "\n".join(
                [
                    _line(image_id="a", tool_id="t1", truth=None),
                    _line(image_id="b", stage="tear", view="axial", probs=[1, 0],
                               truth="with_tear"),
                    "",
                    _line(image_id="c", tool_id="t2", probs=[0.25, 0.75]),
                ]
            )
        )
        tables = parse_prediction_table(path)
        assert list(tables) == list(StageId)
        usage, tear = tables[StageId.USAGE], tables[StageId.TEAR]
        assert usage.probs.tolist() == [[0.9, 0.1], [0.25, 0.75]]
        assert (usage.tool_ids, usage.image_ids) == (["t1", "t2"], ["a", "c"])
        assert usage.lines.tolist() == [1, 4]
        assert usage.truth.tolist() == [-1, 1]
        assert tear.probs.tolist() == [[1.0, 0.0]] and tear.truth.tolist() == [0]
        assert tables[StageId.PROFILE].probs.shape == (0, 3)

    def test_first_failing_line_wins(self, tmp_path):
        # The bad vector on line 2 is reported, not the later malformed line.
        path = tmp_path / "preds.jsonl"
        path.write_text(
            "\n".join([_line(), _line(probs=[0.7, 0.2]), "{broken", _line()])
        )
        with pytest.raises(ValidationError, match="probabilities sum to") as excinfo:
            parse_prediction_table(path)
        assert excinfo.value.line == 2


class TestSplitByTool:
    def _samples(self, n_tools, per_tool=3):
        """Each sample's tool id, as a table's tool_ids column holds them."""
        return [f"tool-{t}" for t in range(n_tools) for _ in range(per_tool)]

    def test_sizes_and_determinism(self):
        samples = self._samples(10)
        split = split_by_tool(samples, (0.8, 0.1, 0.1), seed=7)
        assert (len(split.train_tools), len(split.val_tools), len(split.test_tools)) == (8, 1, 1)
        again = split_by_tool(samples, (0.8, 0.1, 0.1), seed=7)
        assert split == again

    def test_single_tool_all_train(self):
        split = split_by_tool(self._samples(1), (1.0, 0.0, 0.0), seed=0)
        assert split.train_tools == {"tool-0"}
        assert not split.val_tools and not split.test_tools

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            split_by_tool([], (0.8, 0.1, 0.1), seed=0)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            split_by_tool(self._samples(4), (0.5, 0.1, 0.1), seed=0)

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_no_tool_leaks_between_subsets(self, n_tools, seed):
        samples = self._samples(n_tools, per_tool=2)
        split = split_by_tool(samples, (0.6, 0.2, 0.2), seed=seed)
        assert split.train_tools.isdisjoint(split.val_tools)
        assert split.train_tools.isdisjoint(split.test_tools)
        assert split.val_tools.isdisjoint(split.test_tools)
        covered = split.train_tools | split.val_tools | split.test_tools
        assert covered == {f"tool-{t}" for t in range(n_tools)}
