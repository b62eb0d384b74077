"""Wear-state type system for abrasive flap wheels.

Encodes the three-level decision tree (usage condition, flap profile +
flap tear, profile severity): the stages that decide it with their class
order and view, the severity stage each profile branch selects, the
table of consistent outcomes and the conflict families that the
level-1/level-2 consistency check can report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import ValidationError


class UsageState(Enum):
    NEW = "new"
    USED = "used"


class FlapProfile(Enum):
    RECTANGULAR = "rectangular"
    CONCAVE = "concave"
    CONVEX = "convex"


class TearState(Enum):
    WITH_TEAR = "with_tear"
    NO_TEAR = "no_tear"


class Severity(Enum):
    FULLY = "fully"
    PARTIALLY = "partially"


class ConflictKind(Enum):
    """Impossible level-1/level-2 combinations.

    A new wheel is assumed to have a rectangular flap shape and no tears,
    so "new" contradicts a tear verdict or a non-rectangular profile.
    Spherical-stock wheels (new with a shaped profile) are unsupported.
    """

    NEW_WITH_TEAR = "new_with_tear"
    NEW_CONCAVE = "new_concave"
    NEW_CONVEX = "new_convex"


class View(Enum):
    RADIAL = "radial"
    AXIAL = "axial"


class StageId(Enum):
    USAGE = "usage"
    PROFILE = "profile"
    TEAR = "tear"
    CONCAVE_SEVERITY = "concave_severity"
    CONVEX_SEVERITY = "convex_severity"


# Class order per stage is a wire contract: vectors and confusion
# matrices index classes in exactly this order.
STAGE_STATES: dict[StageId, tuple[Enum, ...]] = {
    StageId.USAGE: (UsageState.NEW, UsageState.USED),
    StageId.PROFILE: (FlapProfile.RECTANGULAR, FlapProfile.CONCAVE, FlapProfile.CONVEX),
    StageId.TEAR: (TearState.WITH_TEAR, TearState.NO_TEAR),
    StageId.CONCAVE_SEVERITY: (Severity.FULLY, Severity.PARTIALLY),
    StageId.CONVEX_SEVERITY: (Severity.FULLY, Severity.PARTIALLY),
}
STAGE_CLASSES: dict[StageId, tuple[str, ...]] = {
    stage: tuple(state.value for state in states) for stage, states in STAGE_STATES.items()
}

# Tears are judged on the axial view, everything else on the radial one.
STAGE_VIEW: dict[StageId, View] = {
    StageId.USAGE: View.RADIAL,
    StageId.PROFILE: View.RADIAL,
    StageId.TEAR: View.AXIAL,
    StageId.CONCAVE_SEVERITY: View.RADIAL,
    StageId.CONVEX_SEVERITY: View.RADIAL,
}

# Levels 1 and 2 of the tree: every run carries a vector for each.
REQUIRED_STAGES: tuple[StageId, ...] = (StageId.USAGE, StageId.PROFILE, StageId.TEAR)

# Level 3 of the tree: the severity stage each shaped profile selects.
# A profile missing here (rectangular) has no severity.
SEVERITY_STAGE: dict[FlapProfile, StageId] = {
    FlapProfile.CONCAVE: StageId.CONCAVE_SEVERITY,
    FlapProfile.CONVEX: StageId.CONVEX_SEVERITY,
}

# Stages along each profile branch: levels 1 and 2, then the branch's
# severity stage. Products over a branch multiply in this order.
BRANCH_STAGES: dict[FlapProfile, tuple[StageId, ...]] = {
    profile: (StageId.USAGE, StageId.TEAR, StageId.PROFILE)
    + ((SEVERITY_STAGE[profile],) if profile in SEVERITY_STAGE else ())
    for profile in FlapProfile
}


# Each part a new wheel cannot have and its conflict, in reporting order.
_NEW_WHEEL_CONFLICTS: dict[Enum, ConflictKind] = {
    TearState.WITH_TEAR: ConflictKind.NEW_WITH_TEAR,
    FlapProfile.CONCAVE: ConflictKind.NEW_CONCAVE,
    FlapProfile.CONVEX: ConflictKind.NEW_CONVEX,
}


class TaxonomyError(ValidationError):
    """Base class for wear-taxonomy violations."""


class InconsistentParts(TaxonomyError):
    """The usage/profile/tear combination is a known conflict."""

    def __init__(self, conflicts: tuple[ConflictKind, ...]):
        self.conflicts = conflicts
        names = ", ".join(c.value for c in conflicts)
        super().__init__(f"inconsistent combination: {names}")


class MissingSeverity(TaxonomyError):
    """A concave or convex profile requires a severity."""


class SpuriousSeverity(TaxonomyError):
    """A rectangular profile must not carry a severity."""


@dataclass(frozen=True, order=True)
class WearOutcome:
    """One complete, consistent path through the hierarchy.

    ``id`` is a stable API contract (1..11) serialized into reports.
    """

    id: int
    usage: UsageState
    profile: FlapProfile
    tear: TearState
    severity: Optional[Severity] = None

    def parts(self) -> tuple:
        return (self.usage, self.profile, self.tear, self.severity)


CONSISTENT_OUTCOMES: tuple[WearOutcome, ...] = (
    WearOutcome(1, UsageState.NEW, FlapProfile.RECTANGULAR, TearState.NO_TEAR),
    WearOutcome(2, UsageState.USED, FlapProfile.RECTANGULAR, TearState.NO_TEAR),
    WearOutcome(3, UsageState.USED, FlapProfile.RECTANGULAR, TearState.WITH_TEAR),
    WearOutcome(4, UsageState.USED, FlapProfile.CONCAVE, TearState.NO_TEAR, Severity.PARTIALLY),
    WearOutcome(5, UsageState.USED, FlapProfile.CONCAVE, TearState.WITH_TEAR, Severity.PARTIALLY),
    WearOutcome(6, UsageState.USED, FlapProfile.CONCAVE, TearState.NO_TEAR, Severity.FULLY),
    WearOutcome(7, UsageState.USED, FlapProfile.CONCAVE, TearState.WITH_TEAR, Severity.FULLY),
    WearOutcome(8, UsageState.USED, FlapProfile.CONVEX, TearState.NO_TEAR, Severity.PARTIALLY),
    WearOutcome(9, UsageState.USED, FlapProfile.CONVEX, TearState.WITH_TEAR, Severity.PARTIALLY),
    WearOutcome(10, UsageState.USED, FlapProfile.CONVEX, TearState.NO_TEAR, Severity.FULLY),
    WearOutcome(11, UsageState.USED, FlapProfile.CONVEX, TearState.WITH_TEAR, Severity.FULLY),
)

_OUTCOME_BY_PARTS = {o.parts(): o for o in CONSISTENT_OUTCOMES}


def enumerate_consistent_outcomes() -> tuple[WearOutcome, ...]:
    """All 11 consistent outcomes, in id order."""
    return CONSISTENT_OUTCOMES


def check_consistency(
    usage: UsageState, profile: FlapProfile, tear: TearState
) -> tuple[ConflictKind, ...]:
    """Return all applicable conflict kinds, empty tuple if consistent.

    Multiple conflicts (e.g. new + concave + with tear) are all reported,
    in _NEW_WHEEL_CONFLICTS order.
    """
    if usage is UsageState.USED:
        return ()
    return tuple(kind for part, kind in _NEW_WHEEL_CONFLICTS.items() if part in (profile, tear))


def outcome_from_parts(
    usage: UsageState,
    profile: FlapProfile,
    tear: TearState,
    severity: Optional[Severity] = None,
) -> WearOutcome:
    """Look up the unique consistent outcome matching the given fields.

    On a miss, raises InconsistentParts for conflicting combinations and
    MissingSeverity / SpuriousSeverity when the severity presence rule
    (present iff profile is concave or convex) is violated.
    """
    outcome = _OUTCOME_BY_PARTS.get((usage, profile, tear, severity))
    if outcome is not None:
        return outcome
    conflicts = check_consistency(usage, profile, tear)
    if conflicts:
        raise InconsistentParts(conflicts)
    if profile in SEVERITY_STAGE:
        raise MissingSeverity(f"{profile.value} profile requires a severity")
    raise SpuriousSeverity("rectangular profile must not carry a severity")
