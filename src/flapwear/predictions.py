"""Ingestion and validation of per-image probability vectors.

Upstream models emit one probability vector per image and stage. A
ProbabilityVector is validated once, when constructed. This module also
applies the argmax decision rule, parses/serializes the line-delimited
prediction file format and splits datasets by tool so that no tool
leaks across train/val/test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import EmptyInput, ParseError, ValidationError
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
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
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


def _record_to_sample(rec: dict, line_no: int) -> LabeledSample | Prediction:
    try:
        stage = StageId(rec["stage"])
        view = View(rec["view"])
        probs = rec["probs"]
        if not isinstance(probs, list) or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in probs
        ):
            raise ParseError("probs must be an array of numbers", line_no)
        image_id, tool_id = str(rec["image_id"]), str(rec["tool_id"])
    except ParseError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(str(exc), line_no) from exc

    # Built here, not above: a VectorError is a ValueError, not a parse error.
    try:
        prediction = Prediction(image_id, tool_id, view, ProbabilityVector(stage, tuple(probs)))
        if "truth" in rec and rec["truth"] is not None:
            truth = STAGE_CLASSES[stage].index(rec["truth"])
            return LabeledSample(prediction, truth)
    except (VectorError, ViewMismatch) as exc:
        raise ValidationError(str(exc), line_no) from exc
    except ValueError as exc:
        raise ParseError(f"unknown truth class {rec['truth']!r}", line_no) from exc
    return prediction


def parse_prediction_file(path: str | Path) -> list[LabeledSample | Prediction]:
    """Parse a line-delimited prediction file.

    Each line is a JSON record with fields image_id, tool_id, view,
    stage, probs and optionally truth (canonical class name). Records
    with a truth field come back as LabeledSample, others as Prediction.
    Blank lines are skipped; errors carry the 1-based line number. A file
    that cannot be opened or is not UTF-8 text is a ParseError too.
    """
    samples: list[LabeledSample | Prediction] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON: {exc.msg}", line_no) from exc
                if not isinstance(rec, dict):
                    raise ParseError("record must be a JSON object", line_no)
                samples.append(_record_to_sample(rec, line_no))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
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
