"""Ingestion and validation of per-image probability vectors.

Upstream models emit one probability vector per image and stage. A
prediction file is parsed once into a per-stage table
(``parse_prediction_table``), the one representation of a prediction:
for each stage, the records' vectors as an N x k float64 array, with
their tool ids and image ids (None with ``ids=False``), line numbers
and truth indices. ``first_invalid_row`` is the one definition of a
valid vector, stated on such arrays: the parser checks each stage's
rows with it and names the first failing line, and a ProbabilityVector
is a one-row call into it. ``assemble_runs`` pairs a table's vectors
into runs, by position within each tool, as ``engine.decide_runs``
takes them. The module also splits datasets by tool so that no tool
leaks across train/val/test.

A line's record is accepted in one place, the loop of
``parse_prediction_table``: one call of json's C scanner, then every
per-record rule, the id rule (``_record_id``) included, whether or not
ids are kept. The vector goes in by ``array.fromlist``, which refuses a
non-number with a TypeError and an int past float range with an
OverflowError; a bool, which it would take, is declined before. Neither
needs a repair: Python documents an unchanged array on a type error,
CPython restores it on an OverflowError too, and
``tests/test_parser_differential.py`` pins both. A declined line goes to
``_parse_line``, which decodes it again with ``json.loads`` and raises
the line's error; it accepts nothing.
"""

from __future__ import annotations

import json
import json.scanner
import math
import random
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NoReturn, Optional

import numpy as np

from .errors import EmptyInput, FlapwearError, ParseError, ValidationError, check_seed, is_number
from .taxonomy import (
    _STAGE_BY_NAME,
    _VIEW_BY_NAME,
    REQUIRED_STAGES,
    STAGE_CLASSES,
    STAGE_VIEW,
    StageId,
)

SUM_TOLERANCE = 1e-6


class VectorError(ValidationError):
    """A probability vector violates its invariants."""


class ViewMismatch(ValidationError):
    """A record's view does not match the view its stage requires."""


def first_invalid_row(rows: np.ndarray) -> Optional[tuple[int, str]]:
    """The first invalid row of an (n, k) float64 array and its error text, or None.

    A row is a valid probability vector when every entry is finite and in
    [0, 1], and its entries, summed left to right from 0.0, are within
    SUM_TOLERANCE of 1. Normalization is never applied silently: a
    vector off by more is rejected with its sum and the deviation.
    """
    with np.errstate(all="ignore"):  # rows with infinite or huge entries
        total = np.zeros(len(rows))
        for j in range(rows.shape[1]):
            total += rows[:, j]
        out_of_range = ~((rows >= 0.0) & (rows <= 1.0))  # NaN fails both
        invalid = out_of_range.any(axis=1) | (np.abs(total - 1.0) > SUM_TOLERANCE)
    if not invalid.any():
        return None
    i = int(invalid.argmax())
    if out_of_range[i].any():
        p = rows[i, out_of_range[i].argmax()].item()
        return i, f"probability {p} outside [0, 1]"
    t = total[i].item()
    return i, f"probabilities sum to {t} (deviation {t - 1.0:+g})"


def _floats(entries) -> list[float]:
    """entries as floats; a VectorError for an entry that is not a number or overflows a float."""
    entries = list(entries)
    for p in entries:
        if not is_number(p):
            raise VectorError(f"probability {p!r} is not a number")
    try:
        return [float(p) for p in entries]
    except OverflowError as exc:
        raise VectorError(f"probability outside [0, 1]: {exc}") from exc


def _vector_row(stage: StageId, probs) -> list[float]:
    """One vector as floats; a VectorError if it is not a valid vector of the stage.

    Checked in order: each entry a number (errors.is_number) within float
    range, length, then first_invalid_row.
    """
    row = _floats(probs)
    expected = len(STAGE_CLASSES[stage])
    if len(row) != expected:
        raise VectorError(f"stage {stage.value} expects {expected} classes, got {len(row)}")
    invalid = first_invalid_row(np.array([row]))
    if invalid is not None:
        raise VectorError(invalid[1])
    return row


@dataclass(frozen=True)
class ProbabilityVector:
    """One stage's class probabilities; construction raises a VectorError if invalid.

    An entry that is not a number by errors.is_number (a string, a bool,
    a list) is refused before any conversion; the rest is a one-row call
    into first_invalid_row, so an invalid vector cannot exist.
    """

    stage: StageId
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(_vector_row(self.stage, self.probs)))


@dataclass(frozen=True)
class DatasetSplit:
    train_tools: frozenset[str]
    val_tools: frozenset[str]
    test_tools: frozenset[str]


@dataclass(frozen=True)
class StageTable:
    """One stage's records in file order, as columns."""

    stage: StageId
    probs: np.ndarray  # (n, k) float64; every row is a valid vector
    tool_ids: Optional[list[str]]  # None when parsed with ids=False
    image_ids: Optional[list[str]]
    lines: np.ndarray  # (n,) 1-based line numbers
    truth: np.ndarray  # (n,) truth class index, -1 for a record without truth


# Every stage's table, in StageId order; a stage without records has an empty one.
PredictionTable = dict[StageId, StageTable]

# What json.loads decodes a value that is not an id to, by type.
_JSON_TYPE_NAMES = {
    type(None): "null", bool: "a boolean", float: "a float", list: "an array", dict: "an object"
}


class _StageColumns:
    """A stage's columns while its file is read."""

    __slots__ = (
        "stage", "classes", "view_name", "truth_index",
        "probs", "tool_ids", "image_ids", "lines", "truth",
    )

    def __init__(self, stage: StageId, ids: bool):
        self.stage = stage
        self.classes = STAGE_CLASSES[stage]
        self.view_name = STAGE_VIEW[stage].value
        self.truth_index = {name: i for i, name in enumerate(self.classes)}
        self.probs = array("d")
        self.tool_ids: Optional[list[str]] = [] if ids else None
        self.image_ids: Optional[list[str]] = [] if ids else None
        self.lines = array("q")
        self.truth = array("b")

    def prob_rows(self) -> np.ndarray:
        return np.frombuffer(self.probs, dtype=np.float64).reshape(-1, len(self.classes))

    def table(self) -> StageTable:
        return StageTable(
            self.stage,
            self.prob_rows(),
            self.tool_ids,
            self.image_ids,
            np.frombuffer(self.lines, dtype=np.int64),
            np.frombuffer(self.truth, dtype=np.int8),
        )


_MEMBERS = {"stage": _STAGE_BY_NAME, "view": _VIEW_BY_NAME}


def _record_field(rec: dict, key: str, line_no: int):
    """rec[key]; a ParseError if rec has no such field."""
    if key not in rec:
        raise ParseError(f"missing field {key!r}", line_no)
    return rec[key]


def _record_member(rec: dict, key: str, line_no: int):
    """The stage or view that rec[key] names; a ParseError if it is missing or names none."""
    name = _record_field(rec, key, line_no)
    if type(name) is not str or name not in _MEMBERS[key]:
        raise ParseError(f"unknown {key} {name!r}", line_no)
    return _MEMBERS[key][name]


def _record_id(rec: dict, key: str, line_no: int) -> str:
    """rec[key] as an id: a string as it is, an integer (not a bool) by str; else a ParseError."""
    value = _record_field(rec, key, line_no)
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    raise ParseError(
        f"{key} must be a string or an integer, got {_JSON_TYPE_NAMES[type(value)]}", line_no
    )


def _record_fields(rec: dict, line_no: int):
    """A record's stage, view and probs; a ParseError naming its first bad field, ids included."""
    stage = _record_member(rec, "stage", line_no)
    view = _record_member(rec, "view", line_no)
    probs = _record_field(rec, "probs", line_no)
    if not isinstance(probs, list) or not {int, float}.issuperset(map(type, probs)):
        raise ParseError("probs must be an array of numbers", line_no)
    _record_id(rec, "image_id", line_no)
    _record_id(rec, "tool_id", line_no)
    return stage, view, probs


def _first_invalid_line(columns: Iterable[_StageColumns]) -> Optional[ValidationError]:
    """The error of the first line, over all stages, whose vector is invalid."""
    first = None
    for cols in columns:
        invalid = first_invalid_row(cols.prob_rows())
        if invalid is not None:
            line_no = cols.lines[invalid[0]]
            if first is None or line_no < first.line:
                first = ValidationError(invalid[1], line_no)
    return first


def _parse_line(line: str, line_no: int) -> NoReturn:
    """Raise the error of a line that the loop of parse_prediction_table declined.

    Each per-line error, in the order that parse_prediction_table
    states, is raised here and nowhere else: of a well-formed record, the
    vector is checked first, then the view, then the truth class.
    """
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as exc:
        msg = getattr(exc, "msg", exc)
        raise ParseError(f"invalid JSON: {msg}", line_no) from exc
    if not isinstance(rec, dict):
        raise ParseError("record must be a JSON object", line_no)
    stage, view, probs = _record_fields(rec, line_no)
    try:
        _vector_row(stage, probs)
    except VectorError as exc:
        raise ValidationError(str(exc), line_no) from exc
    required = STAGE_VIEW[stage]
    if view is not required:
        raise ViewMismatch(
            f"stage {stage.value} requires the {required.value} view, got {view.value}", line_no
        )
    raise ParseError(f"unknown truth class {rec['truth']!r}", line_no)


def parse_prediction_table(path: str | Path, *, ids: bool = True) -> PredictionTable:
    """Parse a line-delimited prediction file into one table per stage.

    Each line is a JSON record with fields image_id, tool_id, view,
    stage, probs and optionally truth (canonical class name); an id is a
    string or an integer (not a bool), which is converted with str, and
    any other id is a ParseError. Blank lines are skipped. The first failing
    line is reported, with its 1-based number; within a line, a malformed
    record is a ParseError, then an invalid vector or a view that does not
    match the stage a ValidationError, then an unknown truth class a
    ParseError. A file that cannot be opened or is not UTF-8 text is a
    ParseError too. Decoded records are not kept: each accepted line goes
    straight into the columns of its stage. A record costs k float64s, a
    line number, a truth byte and, with ids, two list slots.

    Each distinct id is held once per call: every tool id and image id
    of the returned tables, over all stages, that compare equal are the
    same str object, so an integer id is the same object as its str. The
    ids are matched within the call only: no table of them outlives it.

    With ids=False, every table's tool_ids and image_ids are None and no
    id is kept, but each id is checked by the same rule, with the same
    error. ``evaluate`` parses this way, as it reads no id.
    """
    columns = {stage: _StageColumns(stage, ids) for stage in StageId}
    by_name = {stage.value: cols for stage, cols in columns.items()}
    seen: Optional[dict[str, str]] = {} if ids else None
    scan = json.scanner.make_scanner(json.JSONDecoder())
    error = None
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec, end = scan(line, 0)
                    cols = by_name[rec["stage"]]  # a TypeError unless rec is a dict
                    probs, truth = rec["probs"], rec.get("truth")
                    image_id, tool_id = rec["image_id"], rec["tool_id"]
                    if type(image_id) is not str:  # a string, the common id, costs no call
                        image_id = _record_id(rec, "image_id", line_no)
                    if type(tool_id) is not str:
                        tool_id = _record_id(rec, "tool_id", line_no)
                    accepted = (
                        end == len(line)
                        and rec["view"] == cols.view_name
                        and type(probs) is list
                        and len(probs) == len(cols.classes)
                        and bool not in map(type, probs)
                    )
                    if accepted:
                        truth = -1 if truth is None else cols.truth_index[truth]
                        cols.probs.fromlist(probs)  # adds no entry if it raises
                except (  # a ParseError is a ValueError
                    StopIteration, ValueError, RecursionError, KeyError, TypeError, OverflowError
                ):
                    accepted = False
                if not accepted:
                    _parse_line(line, line_no)
                cols.lines.append(line_no)
                cols.truth.append(truth)
                if seen is not None:
                    cols.image_ids.append(seen.setdefault(image_id, image_id))
                    cols.tool_ids.append(seen.setdefault(tool_id, tool_id))
    except FlapwearError as exc:
        error = exc
    except (OSError, UnicodeDecodeError) as exc:
        error = ParseError(f"cannot read {path}: {exc}")
    if error := _first_invalid_line(columns.values()) or error:  # an earlier bad vector first
        raise error
    return {stage: cols.table() for stage, cols in columns.items()}


@dataclass(frozen=True)
class RunBatch:
    """Runs assembled from a prediction table; row r of every array is run r.

    Runs are ordered by tool id, then by run index within the tool.
    """

    tool_ids: list[str]  # every tool, sorted
    run_counts: np.ndarray  # runs per tool
    vectors: dict[StageId, np.ndarray]  # (runs, k) per stage; zeros where absent


def assemble_runs(tables: PredictionTable) -> RunBatch:
    """Assemble the runs of every tool from the per-stage tables, by position.

    The rule is positional: within a tool, the i-th vector of each stage,
    in file order, belongs to run i; image ids are not read. The
    usage/profile/tear stages must therefore appear equally often, and at
    least once, for every tool, else a ValidationError names the first
    such tool and its counts. A severity vector past the tool's run count
    is not used; a run with no vector of a severity stage has a row of
    zeros there, as decide_runs reads it. The tables need their tool ids
    (parsed with ids=True).
    """
    tool_ids = sorted(set().union(*(table.tool_ids for table in tables.values())))
    position = {tool_id: i for i, tool_id in enumerate(tool_ids)}
    codes = {
        stage: np.fromiter(map(position.__getitem__, table.tool_ids), np.intp, len(table.tool_ids))
        for stage, table in tables.items()
    }
    counts = {stage: np.bincount(code, minlength=len(tool_ids)) for stage, code in codes.items()}

    required = [counts[stage] for stage in REQUIRED_STAGES]
    bad = np.zeros(len(tool_ids), dtype=bool)
    for c in required:
        bad |= (c != required[0]) | (c == 0)
    if bad.any():
        t = int(np.argmax(bad))
        raise ValidationError(
            f"tool {tool_ids[t]}: {'/'.join(s.value for s in REQUIRED_STAGES)} vector counts "
            f"differ: { {s.value: int(counts[s][t]) for s in REQUIRED_STAGES} }"
        )

    run_counts = required[0]
    first_run = np.cumsum(run_counts) - run_counts
    vectors = {}
    for stage, table in tables.items():
        order = np.argsort(codes[stage], kind="stable")
        code = codes[stage][order]
        first_of_tool = np.cumsum(counts[stage]) - counts[stage]
        occurrence = np.arange(len(order)) - first_of_tool[code]
        used = occurrence < run_counts[code]
        runs = first_run[code[used]] + occurrence[used]
        vectors[stage] = np.zeros((int(run_counts.sum()), table.probs.shape[1]))
        vectors[stage][runs] = table.probs[order[used]]
    return RunBatch(tool_ids, run_counts, vectors)


def split_by_tool(
    tool_ids: Iterable[str],
    fractions: tuple[float, float, float],
    seed: int,
) -> DatasetSplit:
    """Assign every tool to exactly one of train/val/test.

    tool_ids names each sample's tool, e.g. a StageTable's tool_ids; a
    tool may repeat. The split is by tool, never by image, so no tool can
    leak between subsets. fractions are three numbers, train/val/test,
    checked as a probability vector; any failure is a VectorError. Subset
    sizes follow the fractions by largest remainder; assignment is
    deterministic for a given seed, an integer >= 0 by errors.check_seed
    (else a ConfigError).
    """
    tools = sorted(set(tool_ids))
    if not tools:
        raise EmptyInput("no samples to split")
    try:
        fractions = _floats(fractions)
    except VectorError as exc:
        raise VectorError(f"fractions: {exc}") from exc
    if len(fractions) != 3:
        raise VectorError(f"fractions: expected 3 (train, val, test), got {len(fractions)}")
    invalid = first_invalid_row(np.array([fractions]))
    if invalid is not None:
        raise VectorError(f"fractions: {invalid[1]}")

    random.Random(check_seed(seed)).shuffle(tools)

    n = len(tools)
    raw = [f * n for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    remainders = sorted(range(3), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1

    train = frozenset(tools[: counts[0]])
    val = frozenset(tools[counts[0] : counts[0] + counts[1]])
    test = frozenset(tools[counts[0] + counts[1] :])
    return DatasetSplit(train, val, test)
