"""Ingestion and validation of per-image probability vectors.

Upstream models emit one probability vector per image and stage. A
prediction file is parsed once into a per-stage table
(``parse_prediction_table``): for each stage, the records' vectors as an
N x k float64 array, with their tool ids, image ids, line numbers and
truth indices. Rows are checked as a batch against the rules a
ProbabilityVector checks when it is constructed, and an error names the
first failing line. ``parse_prediction_file`` is an object view over the
same table. The module also holds the argmax decision rule for a single
vector, serializes records and splits datasets by tool so that no tool
leaks across train/val/test.
"""

from __future__ import annotations

import json
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


class BadLength(VectorError):
    pass


class OutOfRange(VectorError):
    pass


class NotNormalized(VectorError):
    pass


class ViewMismatch(ValidationError):
    """Prediction view does not match the stage's required view."""


@dataclass(frozen=True)
class ProbabilityVector:
    """One stage's class probabilities; construction raises a VectorError if invalid."""

    stage: StageId
    probs: tuple[float, ...]

    def __post_init__(self):
        try:
            probs = tuple(float(p) for p in self.probs)
        except OverflowError as exc:
            raise OutOfRange(f"probability outside [0, 1]: {exc}") from exc
        object.__setattr__(self, "probs", probs)
        validate_vector(self)


def validate_vector(v: ProbabilityVector) -> None:
    """Raise if the vector violates its invariants.

    Normalization is never applied silently; a vector whose entries do
    not sum to 1 within SUM_TOLERANCE is rejected with the deviation.
    """
    expected = len(STAGE_CLASSES[v.stage])
    if len(v.probs) != expected:
        raise BadLength(
            f"stage {v.stage.value} expects {expected} classes, got {len(v.probs)}"
        )
    for p in v.probs:
        if not math.isfinite(p) or p < 0.0 or p > 1.0:
            raise OutOfRange(f"probability {p} outside [0, 1]")
    total = sum(v.probs)
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise NotNormalized(f"probabilities sum to {total} (deviation {total - 1.0:+g})")


def argmax_class(v: ProbabilityVector) -> int:
    """Index of the maximal probability; ties go to the lowest index."""
    return max(range(len(v.probs)), key=lambda i: (v.probs[i], -i))


def confidence(v: ProbabilityVector) -> float:
    """Maximum class probability of the vector."""
    return max(v.probs)


@dataclass(frozen=True)
class Prediction:
    image_id: str
    tool_id: str
    view: View
    vector: ProbabilityVector

    def __post_init__(self):
        required = STAGE_VIEW[self.vector.stage]
        if self.view is not required:
            raise ViewMismatch(
                f"stage {self.vector.stage.value} requires the "
                f"{required.value} view, got {self.view.value}"
            )


@dataclass(frozen=True)
class LabeledSample:
    prediction: Prediction
    truth: int

    def __post_init__(self):
        n = len(STAGE_CLASSES[self.prediction.vector.stage])
        if not 0 <= self.truth < n:
            raise OutOfRange(f"truth index {self.truth} outside stage range 0..{n - 1}")


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
# The batch screen flags a row whose sum is this close to the tolerance too,
# so a sum rounded differently from the one validate_vector takes is confirmed by it.
_SUM_SLACK = 1e-12


class _StageColumns:
    """A stage's columns while its file is read."""

    __slots__ = ("stage", "classes", "view", "probs", "tool_ids", "image_ids", "lines", "truth")

    def __init__(self, stage: StageId):
        self.stage = stage
        self.classes = STAGE_CLASSES[stage]
        self.view = STAGE_VIEW[stage]
        self.probs = array("d")
        self.tool_ids: list[str] = []
        self.image_ids: list[str] = []
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
    stage, view, probs, image_id, tool_id = fields
    try:
        Prediction(image_id, tool_id, view, ProbabilityVector(stage, tuple(probs)))
    except (VectorError, ViewMismatch) as exc:
        return ValidationError(str(exc), line_no)
    return ParseError(f"unknown truth class {rec['truth']!r}", line_no)


def _first_invalid_row(columns: Iterable[_StageColumns]) -> Optional[ValidationError]:
    """The error of the first line, over all stages, whose vector is invalid.

    A vectorized screen flags every row that may break validate_vector's
    rules; the flagged rows are then checked, in line order, by building
    their ProbabilityVector.
    """
    flagged = []
    for cols in columns:
        rows = cols.prob_rows()
        with np.errstate(all="ignore"):
            total = rows[:, 0].copy()
            for j in range(1, rows.shape[1]):
                total += rows[:, j]
            suspect = (~np.isfinite(rows) | (rows < 0.0) | (rows > 1.0)).any(axis=1)
            suspect |= ~(np.abs(total - 1.0) <= SUM_TOLERANCE - _SUM_SLACK)
        flagged.extend((cols.lines[i], cols, i) for i in np.flatnonzero(suspect).tolist())
    for line_no, cols, i in sorted(flagged, key=lambda f: f[0]):
        try:
            ProbabilityVector(cols.stage, tuple(cols.prob_rows()[i].tolist()))
        except VectorError as exc:
            return ValidationError(str(exc), line_no)
    return None


def parse_prediction_table(path: str | Path) -> PredictionTable:
    """Parse a line-delimited prediction file into one table per stage.

    Each line is a JSON record with fields image_id, tool_id, view,
    stage, probs and optionally truth (canonical class name). Blank lines
    are skipped. The first failing line is reported, with its 1-based
    number; within a line, a malformed record is a ParseError, then an
    invalid vector or a view that does not match the stage a
    ValidationError, then an unknown truth class a ParseError. A file
    that cannot be opened or is not UTF-8 text is a ParseError too.
    Decoded records are not kept: each line goes straight into the
    columns of its stage.
    """
    columns = {stage: _StageColumns(stage) for stage in StageId}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
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
                try:
                    cols.probs.extend(probs)
                except OverflowError:  # an integer too large for a float
                    del cols.probs[len(cols.lines) * len(cols.classes):]
                    raise _record_error(rec, line_no, fields) from None
                cols.tool_ids.append(tool_id)
                cols.image_ids.append(image_id)
                cols.lines.append(line_no)
                cols.truth.append(-1 if truth is None else cols.classes.index(truth))
    except FlapwearError as exc:
        raise _first_invalid_row(columns.values()) or exc
    except (OSError, UnicodeDecodeError) as exc:
        earlier = _first_invalid_row(columns.values())
        raise earlier or ParseError(f"cannot read {path}: {exc}") from exc
    invalid = _first_invalid_row(columns.values())
    if invalid is not None:
        raise invalid
    return {stage: cols.table() for stage, cols in columns.items()}


def parse_prediction_file(path: str | Path) -> list[LabeledSample | Prediction]:
    """Parse a line-delimited prediction file into objects, in file order.

    The file is read by parse_prediction_table, with its format and
    errors. Records with a truth field come back as LabeledSample, others
    as Prediction.
    """
    tables = parse_prediction_table(path)
    rows = sorted(
        ((line_no, table, i) for table in tables.values()
         for i, line_no in enumerate(table.lines.tolist())),
        key=lambda row: row[0],
    )
    samples: list[LabeledSample | Prediction] = []
    for _, table, i in rows:
        vector = ProbabilityVector(table.stage, tuple(table.probs[i].tolist()))
        prediction = Prediction(
            table.image_ids[i], table.tool_ids[i], STAGE_VIEW[table.stage], vector
        )
        truth = int(table.truth[i])
        samples.append(prediction if truth < 0 else LabeledSample(prediction, truth))
    return samples


def serialize_record(item: LabeledSample | Prediction) -> str:
    """One prediction file line for a sample (inverse of parsing)."""
    if isinstance(item, LabeledSample):
        pred = item.prediction
        truth = STAGE_CLASSES[pred.vector.stage][item.truth]
    else:
        pred, truth = item, None
    rec = {
        "image_id": pred.image_id,
        "tool_id": pred.tool_id,
        "view": pred.view.value,
        "stage": pred.vector.stage.value,
        "probs": list(pred.vector.probs),
    }
    if truth is not None:
        rec["truth"] = truth
    return json.dumps(rec, sort_keys=True)


def write_prediction_file(path: str | Path, items: Iterable[LabeledSample | Prediction]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(serialize_record(item) + "\n")


def split_by_tool(
    samples: list[LabeledSample | Prediction],
    fractions: tuple[float, float, float],
    seed: int,
) -> DatasetSplit:
    """Assign every tool to exactly one of train/val/test.

    The split is by tool, never by image, so no tool can leak between
    subsets. Subset sizes follow the fractions by largest remainder;
    assignment is deterministic for a given seed.
    """
    if not samples:
        raise EmptyInput("no samples to split")
    if abs(sum(fractions) - 1.0) > SUM_TOLERANCE:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")

    tools = sorted(
        {(s.prediction if isinstance(s, LabeledSample) else s).tool_id for s in samples}
    )
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
