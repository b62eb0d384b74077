"""Accuracy propagation through the decision hierarchy.

The overall accuracy of a staged classification is the product of the
stage accuracies along the decision path, which yields a branch-dependent
interval rather than a single number. A correction ledger models how
many errors the conflict check and the confidence thresholds would catch
if every re-examination succeeded.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Mapping

from .errors import ValidationError, is_finite, is_number
from .metrics import round_report
from .taxonomy import BRANCH_STAGES, FlapProfile, StageId

# Name of each stage's accuracy in reports and in propagate's input;
# StageAccuracies holds it in the field j_<name>.
ACCURACY_NAMES: dict[StageId, str] = {
    StageId.USAGE: "usage",
    StageId.TEAR: "tear",
    StageId.PROFILE: "profile",
    StageId.CONCAVE_SEVERITY: "concave",
    StageId.CONVEX_SEVERITY: "convex",
}


class PropagationError(ValidationError):
    pass


class LedgerInconsistent(PropagationError):
    pass


@dataclass(frozen=True)
class StageAccuracies:
    j_usage: float
    j_tear: float
    j_profile: float
    j_concave: float = 1.0
    j_convex: float = 1.0

    def __post_init__(self):
        for name, v in self.by_name().items():
            if not (is_number(v) and 0.0 <= v <= 1.0):  # false for NaN too
                raise PropagationError(f"accuracy {name!r} must be a number in [0, 1], got {v!r}")

    @classmethod
    def from_names(cls, values: Mapping[str, float]) -> StageAccuracies:
        """Accuracies keyed by ACCURACY_NAMES; an absent name keeps its field default.

        values that are not a mapping, then an unknown name, then a missing
        required accuracy, is a TypeError that names it as values does, not
        by its field.
        """
        if not isinstance(values, Mapping):
            raise TypeError(f"accuracies must be an object, got {values!r}")
        for name in values.keys():
            if name not in ACCURACY_NAMES.values():
                raise TypeError(f"unknown accuracy {name!r}")
        required = [f.name.removeprefix("j_") for f in fields(cls) if f.default is MISSING]
        for name in required:
            if name not in values:
                raise TypeError(f"missing accuracy {name!r}")
        return cls(**{f"j_{name}": value for name, value in values.items()})

    def by_name(self) -> dict[str, float]:
        return {name: getattr(self, f"j_{name}") for name in ACCURACY_NAMES.values()}

    def of(self, stage: StageId) -> float:
        return getattr(self, f"j_{ACCURACY_NAMES[stage]}")


def path_accuracy(acc: StageAccuracies, profile_branch: FlapProfile) -> float:
    """Product of stage accuracies along one profile branch, in BRANCH_STAGES order.

    The rectangular branch has three stages; concave/convex append their
    severity stage.
    """
    return math.prod(acc.of(stage) for stage in BRANCH_STAGES[profile_branch])


def accuracy_interval(acc: StageAccuracies) -> tuple[float, float]:
    """(min, max) over the three branch accuracies."""
    paths = [path_accuracy(acc, branch) for branch in FlapProfile]
    return (min(paths), max(paths))


@dataclass(frozen=True)
class CorrectionLedger:
    """Accounting of errors the review mechanisms would have caught.

    threshold_caught maps a gated stage to (misclassifications caught,
    correct classifications flagged for recheck). conflicts_overlap_thresholds
    models the ambiguity of whether conflict-caught errors are already
    among the threshold catches (True) or found additionally (False).
    """

    total_runs: int
    total_errors: int
    threshold_caught: dict[StageId, tuple[int, int]] = field(default_factory=dict)
    conflict_caught: int = 0
    conflicts_overlap_thresholds: bool = False

    @classmethod
    def from_names(cls, values: Mapping) -> CorrectionLedger:
        """A ledger from propagate's JSON object: threshold_caught maps stage names to arrays.

        values that are not a mapping, then an unknown key, then a missing
        required one, then a threshold_caught that is not a mapping or a
        value of it that is not an array, is a TypeError that names it as
        values does; a name that is no stage is a ValueError.
        """
        if not isinstance(values, Mapping):
            raise TypeError(f"ledger must be an object, got {values!r}")
        names = [f.name for f in fields(cls)]
        for name in values.keys():
            if name not in names:
                raise TypeError(f"unknown ledger key {name!r}")
        for f in fields(cls):
            if f.default is MISSING and f.default_factory is MISSING and f.name not in values:
                raise TypeError(f"missing ledger key {f.name!r}")
        caught_by_name = values.get("threshold_caught", {})
        if not isinstance(caught_by_name, Mapping):
            raise TypeError(f"threshold_caught must be an object, got {caught_by_name!r}")
        caught = {}
        for name, pair in caught_by_name.items():
            stage = StageId(name)
            if not isinstance(pair, (list, tuple)):
                raise TypeError(f"threshold_caught for {name} must be an array, got {pair!r}")
            caught[stage] = tuple(pair)
        return cls(**{**values, "threshold_caught": caught})

    def __post_init__(self):
        for stage, pair in self.threshold_caught.items():
            if len(pair) != 2:
                raise LedgerInconsistent(f"threshold_caught for {stage.value} must be two counts")
        counts = (
            self.total_runs,
            self.total_errors,
            self.conflict_caught,
            *(c for pair in self.threshold_caught.values() for c in pair),
        )
        if not all(is_finite(c) for c in counts):
            raise LedgerInconsistent(f"ledger counts must be finite numbers, got {counts}")
        if not isinstance(flag := self.conflicts_overlap_thresholds, bool):
            raise LedgerInconsistent(f"conflicts_overlap_thresholds must be a bool, got {flag!r}")
        if self.total_runs <= 0:
            raise LedgerInconsistent("total_runs must be positive")
        if not 0 <= self.total_errors <= self.total_runs:
            raise LedgerInconsistent("total_errors outside 0..total_runs")
        if self.conflict_caught < 0:
            raise LedgerInconsistent("conflict_caught must be non-negative")
        caught = 0
        for stage, (errors_caught, correct_flagged) in self.threshold_caught.items():
            if errors_caught < 0 or correct_flagged < 0:
                raise LedgerInconsistent(f"negative counts for {stage.value}")
            caught += errors_caught
        extra = 0 if self.conflicts_overlap_thresholds else self.conflict_caught
        if caught + extra > self.total_errors:
            raise LedgerInconsistent(
                f"caught {caught + extra} errors but only {self.total_errors} occurred"
            )


def corrected_accuracy(ledger: CorrectionLedger) -> tuple[float, float]:
    """(low, high) accuracy assuming every caught error is corrected.

    low counts only the threshold catches (conflicts assumed already
    included); high additionally credits conflict catches when they do
    not overlap the threshold catches.
    """
    threshold_errors = sum(e for e, _ in ledger.threshold_caught.values())
    base = ledger.total_runs - ledger.total_errors + threshold_errors
    low = base / ledger.total_runs
    if ledger.conflicts_overlap_thresholds:
        high = low
    else:
        high = (base + ledger.conflict_caught) / ledger.total_runs
    return (low, high)


def propagation_report(
    acc: StageAccuracies,
    ledger: CorrectionLedger | None = None,
    decimals: int = 3,
) -> dict:
    report = {
        "stage_accuracies": acc.by_name(),
        "path_accuracy": {
            branch.value: round_report(path_accuracy(acc, branch), decimals)
            for branch in FlapProfile
        },
        "interval": [round_report(v, decimals) for v in accuracy_interval(acc)],
    }
    if ledger is not None:
        low, high = corrected_accuracy(ledger)
        report["corrected_accuracy"] = [
            round_report(low, decimals),
            round_report(high, decimals),
        ]
    return report
