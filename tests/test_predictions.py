import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import scalar_oracle
from flapwear.engine import decide_runs
from flapwear.predictions import (
    EmptyInput,
    ParseError,
    ProbabilityVector,
    StageId,
    ValidationError,
    VectorError,
    ViewMismatch,
    assemble_runs,
    first_invalid_row,
    parse_prediction_table,
    split_by_tool,
)
from flapwear.taxonomy import REQUIRED_STAGES, STAGE_CLASSES, STAGE_VIEW


def vec(stage, probs):
    return ProbabilityVector(stage, tuple(probs))


class TestValidateVector:
    def test_uniform_is_valid(self):
        assert vec(StageId.USAGE, [0.5, 0.5]).probs == (0.5, 0.5)

    # An invalid vector cannot be constructed: ProbabilityVector itself raises.
    def test_not_normalized(self):
        with pytest.raises(VectorError, match=r"sum to 0.8999999999999999 \(deviation -0.1\)"):
            ProbabilityVector(StageId.USAGE, (0.7, 0.2))

    def test_bad_length(self):
        with pytest.raises(VectorError, match="stage profile expects 3 classes, got 2"):
            ProbabilityVector(StageId.PROFILE, (1.0, 0.0))

    def test_out_of_range(self):
        with pytest.raises(VectorError, match=r"probability 1.2 outside \[0, 1\]"):
            ProbabilityVector(StageId.USAGE, (1.2, -0.2))

    def test_tolerance_is_not_silent_normalization(self):
        # within 1e-6 passes, but probs stay exactly as given
        v = vec(StageId.USAGE, [0.5000004, 0.5000001])
        assert v.probs == (0.5000004, 0.5000001)

    # Entries float() would convert, or numpy would stack, are still not numbers.
    @pytest.mark.parametrize("entry", ["0.5", True, (0.5, 0.5)])
    def test_entry_that_is_not_a_number(self, entry):
        message = rf"^probability {re.escape(repr(entry))} is not a number$"
        with pytest.raises(VectorError, match=message):
            ProbabilityVector(StageId.USAGE, (entry, 0.5))


# Entries at the edges of the vector rule: signed zeros, NaN, infinities,
# subnormals, a huge value and the floats next to 0 and 1.
EDGE_FLOATS = (
    -0.0, 0.0, 1.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-300, -1e-300,
    math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0), 1e308,
)
FLOAT_ENTRIES = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-0.5, 1.5), st.floats(0.0, 1.0))
# Integers too large for a float make the conversion itself fail.
ANY_ENTRIES = st.one_of(FLOAT_ENTRIES, st.integers(-2, 2), st.sampled_from([10**400, -(10**400)]))


@st.composite
def boundary_rows(draw, k):
    """k floats whose left-to-right sum lands a few ulp from 1 or from 1 +- SUM_TOLERANCE."""
    head = draw(st.lists(st.floats(0.0, 1.0 / k), min_size=k - 1, max_size=k - 1))
    last = 1.0 + draw(st.sampled_from((-1e-6, 0.0, 1e-6)))
    for p in head:
        last -= p
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        last = math.nextafter(last, math.copysign(math.inf, steps))
    return [*head, last]


def float_rows(k):
    return st.one_of(boundary_rows(k), st.lists(FLOAT_ENTRIES, min_size=k, max_size=k))


@st.composite
def stage_vectors(draw):
    """A stage and entries for its vector: of the stage's length, or of any length up to 4."""
    stage = draw(st.sampled_from(list(StageId)))
    k = len(STAGE_CLASSES[stage])
    entries = st.one_of(
        float_rows(k), st.lists(ANY_ENTRIES, min_size=k, max_size=k), st.lists(ANY_ENTRIES, max_size=4)
    )
    return stage, draw(entries)


@st.composite
def stage_row_batches(draw):
    """A stage and 1 to 6 rows of its length, as the parser stacks them."""
    stage = draw(st.sampled_from([StageId.USAGE, StageId.PROFILE]))
    return stage, draw(st.lists(float_rows(len(STAGE_CLASSES[stage])), min_size=1, max_size=6))


class TestVectorRule:
    """The batch rule and ProbabilityVector against the scalar oracle's own statement of it."""

    @given(stage_vectors())
    @example((StageId.USAGE, [-0.0, -0.0]))  # the sum starts at +0.0
    @example((StageId.USAGE, [10**400, 0, 0]))  # float conversion comes before length
    @example((StageId.TEAR, [math.inf, -math.inf]))
    def test_vector_matches_the_scalar_rule(self, stage_probs):
        stage, probs = stage_probs
        expected = scalar_oracle.vector_error(stage, probs)
        try:
            vector = ProbabilityVector(stage, tuple(probs))
        except VectorError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert vector.probs == tuple(float(p) for p in probs)
            assert all(type(p) is float for p in vector.probs)

    @given(stage_row_batches())
    @example((StageId.USAGE, [[0.5, 0.5], [-0.0, -0.0], [0.7, 0.2]]))
    @example((StageId.USAGE, [[0.3, 0.3], [math.inf, -math.inf]]))
    def test_batch_rule_reports_the_first_invalid_row(self, stage_rows):
        stage, rows = stage_rows
        errors = [scalar_oracle.vector_error(stage, row) for row in rows]
        expected = next(((i, e) for i, e in enumerate(errors) if e is not None), None)
        assert first_invalid_row(np.array(rows, dtype=np.float64)) == expected


def decide(stage, probs):
    """The engine's (class index, confidence) for one vector of a level-1/2 stage."""
    vectors = {s: np.eye(len(names))[:1] for s, names in STAGE_CLASSES.items()}
    vectors[stage] = np.array([vec(stage, probs).probs])
    decisions = decide_runs(vectors)
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

    def test_parse_without_ids_holds_none(self, tmp_path):
        # 8,000 tools of one labeled run each, five stages, shaped as the
        # benchmark's evaluate input: about 1.3 MiB at peak without ids, 4.3 with.
        path = tmp_path / "labeled.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for t in range(8000):
                tool = f"tool-{t:05d}"
                for stage, classes in STAGE_CLASSES.items():
                    probs = [0.73, 0.27] if len(classes) == 2 else [0.6, 0.3, 0.1]
                    view = STAGE_VIEW[stage].value
                    fh.write(_line(image_id=f"{tool}-{view}", tool_id=tool, view=view,
                                   stage=stage.value, probs=probs, truth=classes[t % 2]) + "\n")
        peaks = {}
        for ids in (True, False):
            tracemalloc.start()
            try:
                tables = parse_prediction_table(path, ids=ids)
                peaks[ids] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] < peaks[True] / 2
        assert all(t.tool_ids is None and t.image_ids is None for t in tables.values())
        assert sum(len(t.probs) for t in tables.values()) == 40000


class TestSharedIds:
    """A call's tables hold one str per distinct id, and none of another call's."""

    def write(self, path):
        radial = {"image_id": "r1", "tool_id": "t1", "truth": None}
        path.write_text(
            "\n".join(
                [
                    _line(**radial),
                    _line(**radial, stage="profile", probs=[0.1, 0.8, 0.1]),
                    _line(**radial, stage="concave_severity", probs=[0.4, 0.6]),
                    _line(image_id="a1", tool_id="t1", stage="tear", view="axial",
                          probs=[0.3, 0.7], truth=None),
                    _line(image_id="r2", tool_id="t1", stage="convex_severity",
                          probs=[0.5, 0.5], truth=None),
                    _line(image_id=12, tool_id="12"),
                    _line(image_id="12", tool_id=12, stage="profile", probs=[1, 0, 0],
                          truth=None),
                ]
            )
        )

    @staticmethod
    def ids(tables):
        return [i for table in tables.values() for i in table.tool_ids + table.image_ids]

    def test_each_distinct_id_is_one_object(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        self.write(path)
        tables = parse_prediction_table(path)
        ids = self.ids(tables)
        assert all(type(i) is str for i in ids)
        assert len({id(i) for i in ids}) == len(set(ids)) == 5  # t1, r1, a1, r2, 12
        expected = scalar_oracle.parse_prediction_table(path)
        for stage, table in tables.items():
            assert (table.tool_ids, table.image_ids) == (
                expected[stage].tool_ids, expected[stage].image_ids
            )

    def test_no_id_outlives_its_call(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        self.write(path)
        first = self.ids(parse_prediction_table(path))  # kept alive, so no id() is reused
        second = self.ids(parse_prediction_table(path))
        assert first == second
        assert not {id(i) for i in first} & {id(i) for i in second}


class TestAssembleRuns:
    """Within a tool, the i-th vector of each stage, in file order, is run i."""

    def write(self, path, records):
        path.write_text("\n".join(_line(truth=None, **rec) for rec in records) + "\n")

    def test_runs_pair_by_position_and_tools_sort(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        tear = {"stage": "tear", "view": "axial"}
        self.write(path, [
            {"tool_id": "b", "probs": [0.2, 0.8]},
            {"tool_id": "a", "probs": [0.6, 0.4]},
            {"tool_id": "b", "stage": "profile", "probs": [0.1, 0.8, 0.1]},
            {"tool_id": "b", "probs": [0.3, 0.7]},
            {"tool_id": "b", **tear, "probs": [0.1, 0.9]},
            {"tool_id": "a", "stage": "profile", "probs": [1, 0, 0]},
            {"tool_id": "b", "stage": "profile", "probs": [0.2, 0.2, 0.6]},
            {"tool_id": "a", **tear, "probs": [0.5, 0.5]},
            {"tool_id": "b", "stage": "concave_severity", "probs": [0.4, 0.6]},
            {"tool_id": "b", **tear, "probs": [0.7, 0.3]},
            {"tool_id": "b", "stage": "concave_severity", "probs": [0.9, 0.1]},
            {"tool_id": "b", "stage": "concave_severity", "probs": [0.8, 0.2]},
        ])
        batch = assemble_runs(parse_prediction_table(path))
        assert batch.tool_ids == ["a", "b"]
        assert batch.run_counts.tolist() == [1, 2]
        assert batch.vectors[StageId.USAGE].tolist() == [[0.6, 0.4], [0.2, 0.8], [0.3, 0.7]]
        assert batch.vectors[StageId.PROFILE].tolist() == [
            [1, 0, 0], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]
        ]
        assert batch.vectors[StageId.TEAR].tolist() == [[0.5, 0.5], [0.1, 0.9], [0.7, 0.3]]
        # Tool a has no severity vector; b's third is past its two runs.
        assert batch.vectors[StageId.CONCAVE_SEVERITY].tolist() == [[0, 0], [0.4, 0.6], [0.9, 0.1]]
        assert batch.vectors[StageId.CONVEX_SEVERITY].tolist() == [[0, 0]] * 3

    def test_unequal_stage_counts_name_the_first_tool(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        self.write(path, [
            {"tool_id": "a"},
            {"tool_id": "a", "stage": "profile", "probs": [1, 0, 0]},
            {"tool_id": "a", "stage": "tear", "view": "axial", "probs": [0.5, 0.5]},
            {"tool_id": "a"},
        ])
        tables = parse_prediction_table(path)
        counts = "{'usage': 2, 'profile': 1, 'tear': 1}"
        message = f"tool a: usage/profile/tear vector counts differ: {counts}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            assemble_runs(tables)


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
        # The fractions are a probability vector: a negative or NaN one is rejected too.
        with pytest.raises(VectorError, match=r"probability 1.5 outside \[0, 1\]"):
            split_by_tool(self._samples(4), (1.5, -0.5, 0.0), seed=0)
        with pytest.raises(VectorError, match=r"probability nan outside \[0, 1\]"):
            split_by_tool(self._samples(4), (math.nan, 0.5, 0.5), seed=0)

    def test_two_fractions_are_rejected(self):
        with pytest.raises(VectorError, match=r"^fractions: expected 3 \(train, val, test\), got 2$"):
            split_by_tool(self._samples(10), (0.5, 0.5), seed=0)

    def test_four_fractions_are_rejected(self):
        with pytest.raises(VectorError, match=r"^fractions: expected 3 \(train, val, test\), got 4$"):
            split_by_tool(self._samples(10), (0.25, 0.25, 0.25, 0.25), seed=0)

    def test_fraction_too_large_for_a_float_is_rejected(self):
        with pytest.raises(
            VectorError,
            match=r"^fractions: probability outside \[0, 1\]: int too large to convert to float$",
        ):
            split_by_tool(self._samples(10), (10**400, 0, 0), seed=0)

    @pytest.mark.parametrize("entry", ["0.5", True, [0.5]])
    def test_fraction_that_is_not_a_number_is_rejected(self, entry):
        with pytest.raises(
            VectorError, match=rf"^fractions: probability {re.escape(repr(entry))} is not a number$"
        ):
            split_by_tool(self._samples(10), (entry, 0.5, 0), seed=0)

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_no_tool_leaks_between_subsets(self, n_tools, seed):
        samples = self._samples(n_tools, per_tool=2)
        split = split_by_tool(samples, (0.6, 0.2, 0.2), seed=seed)
        assert split.train_tools.isdisjoint(split.val_tools)
        assert split.train_tools.isdisjoint(split.test_tools)
        assert split.val_tools.isdisjoint(split.test_tools)
        covered = split.train_tools | split.val_tools | split.test_tools
        assert covered == {f"tool-{t}" for t in range(n_tools)}
