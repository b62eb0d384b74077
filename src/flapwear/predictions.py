"""Ingestion and validation of per-image probability vectors.

Upstream models emit one probability vector per image and stage. A
prediction file is parsed once into a per-stage table
(``parse_prediction_table``), the one representation of a prediction:
for each stage, the records' vectors as an N x k float64 array, with
their tool ids, image ids, line numbers and truth indices.
``first_invalid_row`` is the one definition of a valid vector, stated
on such arrays: the parser checks each stage's rows with it and names
the first failing line, and a ProbabilityVector is a one-row call into
it. The module also splits datasets by tool so that no tool leaks
across train/val/test.

The parser has two paths per line. The fast path (``_accept_line``)
decodes a line with one call of json's C scanner and appends a record
that passes every per-record rule. Any other line leaves the columns as
they were and goes to the error path (``_parse_line``), which decodes it
again with ``json.loads`` and is the one statement of each line error.
"""

from __future__ import annotations

import json
import json.scanner
import math
import random
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import EmptyInput, FlapwearError, ParseError, ValidationError
from .taxonomy import STAGE_CLASSES, STAGE_VIEW, StageId, View

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


def _vector_row(stage: StageId, probs) -> list[float]:
    """One vector as floats; a VectorError if it is not a valid vector of the stage.

    Checked in order: conversion to float, length, then first_invalid_row.
    """
    try:
        row = [float(p) for p in probs]
    except OverflowError as exc:
        raise VectorError(f"probability outside [0, 1]: {exc}") from exc
    expected = len(STAGE_CLASSES[stage])
    if len(row) != expected:
        raise VectorError(f"stage {stage.value} expects {expected} classes, got {len(row)}")
    invalid = first_invalid_row(np.array([row]))
    if invalid is not None:
        raise VectorError(invalid[1])
    return row


@dataclass(frozen=True)
class ProbabilityVector:
    """One stage's class probabilities; construction raises a VectorError if invalid."""

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
    tool_ids: list[str]
    image_ids: list[str]
    lines: np.ndarray  # (n,) 1-based line numbers
    truth: np.ndarray  # (n,) truth class index, -1 for a record without truth


# Every stage's table, in StageId order; a stage without records has an empty one.
PredictionTable = dict[StageId, StageTable]

_STAGE_BY_NAME = {stage.value: stage for stage in StageId}
_VIEW_BY_NAME = {view.value: view for view in View}
_NUMBER_TYPES = frozenset((int, float))


class _StageColumns:
    """A stage's columns while its file is read."""

    __slots__ = (
        "stage", "classes", "view", "view_name", "truth_index",
        "probs", "tool_ids", "image_ids", "lines", "truth",
    )

    def __init__(self, stage: StageId):
        self.stage = stage
        self.classes = STAGE_CLASSES[stage]
        self.view = STAGE_VIEW[stage]
        self.view_name = self.view.value
        self.truth_index = {name: i for i, name in enumerate(self.classes)}
        self.probs = array("d")
        self.tool_ids: list[str] = []
        self.image_ids: list[str] = []
        self.lines = array("q")
        self.truth = array("b")

    def append(self, probs: list, truth: int, image_id: str, tool_id: str, line_no: int) -> bool:
        """Add one record; False, with the columns as they were, if a probability overflows."""
        try:
            self.probs.extend(probs)
        except OverflowError:  # an integer too large for a float; extend stops part-way
            del self.probs[len(self.lines) * len(self.classes):]
            return False
        self.tool_ids.append(tool_id)
        self.image_ids.append(image_id)
        self.lines.append(line_no)
        self.truth.append(truth)
        return True

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


def _member(enum, by_name: dict, name):
    member = by_name.get(name) if isinstance(name, str) else None
    return member if member is not None else enum(name)  # enum() raises for a bad name


def _record_fields(rec: dict, line_no: int):
    """A record's stage, view, probs, image id and tool id; a ParseError if malformed."""
    try:
        stage = _member(StageId, _STAGE_BY_NAME, rec["stage"])
        view = _member(View, _VIEW_BY_NAME, rec["view"])
        probs = rec["probs"]
        if not isinstance(probs, list) or not _NUMBER_TYPES.issuperset(map(type, probs)):
            raise ParseError("probs must be an array of numbers", line_no)
        image_id, tool_id = str(rec["image_id"]), str(rec["tool_id"])
    except ParseError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(str(exc), line_no) from exc
    return stage, view, probs, image_id, tool_id


def _record_error(rec: dict, line_no: int, fields) -> FlapwearError:
    """The error of a well-formed record whose vector, view or truth is bad.

    The vector is checked first, then the view, then the truth class.
    """
    stage, view, probs, _, _ = fields
    try:
        _vector_row(stage, probs)
    except VectorError as exc:
        return ValidationError(str(exc), line_no)
    required = STAGE_VIEW[stage]
    if view is not required:
        return ViewMismatch(
            f"stage {stage.value} requires the {required.value} view, got {view.value}", line_no
        )
    return ParseError(f"unknown truth class {rec['truth']!r}", line_no)


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


def _accept_line(scan, by_name: dict[str, _StageColumns], line: str, line_no: int) -> bool:
    """Append a well-formed line's record to its stage's columns; False, appending nothing, if not.

    Well-formed is one JSON object that passes every rule of _parse_line:
    a stage name, that stage's view, a list of as many ints or floats as
    the stage has classes, each within float range, no truth or one of
    the stage's classes, an image id and a tool id. The vector's values
    are checked later.
    """
    try:
        rec, end = scan(line, 0)
        cols = by_name[rec["stage"]]  # a TypeError unless rec is a dict
        probs, truth = rec["probs"], rec.get("truth")
        image_id, tool_id = rec["image_id"], rec["tool_id"]
        if (
            end != len(line)
            or rec["view"] != cols.view_name
            or type(probs) is not list
            or len(probs) != len(cols.classes)
            or not _NUMBER_TYPES.issuperset(map(type, probs))
        ):
            return False
        truth = -1 if truth is None else cols.truth_index[truth]
        if type(image_id) is not str:
            image_id = str(image_id)
        if type(tool_id) is not str:
            tool_id = str(tool_id)
    except (StopIteration, ValueError, RecursionError, KeyError, TypeError):
        return False
    return cols.append(probs, truth, image_id, tool_id, line_no)


def _parse_line(columns: dict[StageId, _StageColumns], line: str, line_no: int) -> None:
    """Append one line's record to its stage's columns, or raise the line's error.

    The error path: each per-line error, in the order that
    parse_prediction_table states, is raised here and nowhere else.
    """
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as exc:
        msg = getattr(exc, "msg", exc)
        raise ParseError(f"invalid JSON: {msg}", line_no) from exc
    if not isinstance(rec, dict):
        raise ParseError("record must be a JSON object", line_no)
    fields = _record_fields(rec, line_no)
    stage, view, probs, image_id, tool_id = fields
    cols = columns[stage]
    truth = rec.get("truth")
    if (
        len(probs) != len(cols.classes)
        or view is not cols.view
        or (truth is not None and truth not in cols.classes)
    ):
        raise _record_error(rec, line_no, fields)
    truth = -1 if truth is None else cols.classes.index(truth)
    if not cols.append(probs, truth, image_id, tool_id, line_no):
        raise _record_error(rec, line_no, fields)


def parse_prediction_table(path: str | Path) -> PredictionTable:
    """Parse a line-delimited prediction file into one table per stage.

    Each line is a JSON record with fields image_id, tool_id, view,
    stage, probs and optionally truth (canonical class name); a non-string
    id is converted with str. Blank lines are skipped. The first failing
    line is reported, with its 1-based number; within a line, a malformed
    record is a ParseError, then an invalid vector or a view that does not
    match the stage a ValidationError, then an unknown truth class a
    ParseError. A file that cannot be opened or is not UTF-8 text is a
    ParseError too. Decoded records are not kept: each line goes straight
    into the columns of its stage, by the fast path or the error path.
    """
    columns = {stage: _StageColumns(stage) for stage in StageId}
    by_name = {stage.value: cols for stage, cols in columns.items()}
    scan = json.scanner.make_scanner(json.JSONDecoder())
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not _accept_line(scan, by_name, line, line_no):
                    _parse_line(columns, line, line_no)
    except FlapwearError as exc:
        raise _first_invalid_line(columns.values()) or exc
    except (OSError, UnicodeDecodeError) as exc:
        earlier = _first_invalid_line(columns.values())
        raise earlier or ParseError(f"cannot read {path}: {exc}") from exc
    invalid = _first_invalid_line(columns.values())
    if invalid is not None:
        raise invalid
    return {stage: cols.table() for stage, cols in columns.items()}


def split_by_tool(
    tool_ids: Iterable[str],
    fractions: tuple[float, float, float],
    seed: int,
) -> DatasetSplit:
    """Assign every tool to exactly one of train/val/test.

    tool_ids names each sample's tool, e.g. a StageTable's tool_ids; a
    tool may repeat. The split is by tool, never by image, so no tool can
    leak between subsets. Subset sizes follow the fractions by largest
    remainder; assignment is deterministic for a given seed.
    """
    tools = sorted(set(tool_ids))
    if not tools:
        raise EmptyInput("no samples to split")
    try:
        row = np.array([fractions], dtype=np.float64)
    except OverflowError as exc:
        raise VectorError(f"fractions: probability outside [0, 1]: {exc}") from exc
    if row.shape[1] != 3:
        raise VectorError(f"fractions: expected 3 (train, val, test), got {row.shape[1]}")
    invalid = first_invalid_row(row)
    if invalid is not None:
        raise VectorError(f"fractions: {invalid[1]}")

    random.Random(seed).shuffle(tools)

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
