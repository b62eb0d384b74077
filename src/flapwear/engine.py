"""Three-level hierarchical classification engine.

One run takes the per-stage probability vectors of a single tool
observation through the decision tree: usage condition first, then flap
profile and tear, then severity on the branch the profile selected. The
level-1/level-2 consistency check and per-stage confidence gating mark
results for re-examination; multiple runs of the same tool can be fused
by majority vote.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from statistics import fmean
from typing import Mapping, Optional

from .errors import ConfigError, ValidationError
from .predictions import ProbabilityVector, argmax_class, confidence
from .taxonomy import (
    REQUIRED_STAGES,
    SEVERITY_STAGE,
    STAGE_CLASSES,
    STAGE_STATES,
    ConflictKind,
    Severity,
    StageId,
    WearOutcome,
    check_consistency,
    outcome_from_parts,
)

# The two thresholds with an empirical basis; other stages stay ungated
# unless the caller configures them.
DEFAULT_THRESHOLDS: dict[StageId, float] = {
    StageId.USAGE: 0.91,
    StageId.TEAR: 0.79,
}


class ConflictPolicy(Enum):
    # Conflicts are flagged but the remaining stages are still reported.
    FLAG_ONLY = "flag_only"
    # Stage decisions after the conflict are suppressed; a missing
    # severity input raises instead of flagging.
    REJECT_RUN = "reject_run"


class FlagType(Enum):
    LOW_CONFIDENCE = "low_confidence"
    CONFLICT = "conflict"
    MISSING_SEVERITY_INPUT = "missing_severity_input"


@dataclass(frozen=True)
class ReviewFlag:
    type: FlagType
    stage: Optional[StageId] = None
    conflict: Optional[ConflictKind] = None

    def label(self) -> str:
        if self.type is FlagType.LOW_CONFIDENCE:
            return f"low_confidence:{self.stage.value}"
        if self.type is FlagType.CONFLICT:
            return f"conflict:{self.conflict.value}"
        return "missing_severity_input"


class EngineError(ValidationError):
    pass


class MissingSeverityInput(EngineError):
    """The profile branch needs a severity vector that was not supplied."""


class TooFewRuns(EngineError):
    pass


class MixedTools(EngineError):
    pass


@dataclass(frozen=True)
class EngineConfig:
    thresholds: dict[StageId, float] = field(
        default_factory=lambda: dict(DEFAULT_THRESHOLDS)
    )
    conflict_policy: ConflictPolicy = ConflictPolicy.FLAG_ONLY
    ensemble_min_runs: int = 1

    def __post_init__(self):
        for stage, t in self.thresholds.items():
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"threshold for {stage.value} outside [0, 1]: {t}")
        if self.ensemble_min_runs < 1:
            raise ConfigError("ensemble_min_runs must be positive")


@dataclass(frozen=True)
class RunInput:
    """One run's vectors by stage: all of REQUIRED_STAGES, severity optional."""

    tool_id: str
    vectors: Mapping[StageId, ProbabilityVector]

    def __post_init__(self):
        for stage, vector in self.vectors.items():
            if vector.stage is not stage:
                raise EngineError(f"{vector.stage.value} vector filed as {stage.value}")
        missing = [stage.value for stage in REQUIRED_STAGES if stage not in self.vectors]
        if missing:
            raise EngineError(f"run has no {'/'.join(missing)} vector")


@dataclass(frozen=True)
class RunResult:
    tool_id: str
    outcome: Optional[WearOutcome]
    conflicts: tuple[ConflictKind, ...]
    stage_decisions: dict[StageId, tuple[int, float]]
    flags: frozenset[ReviewFlag]

    @property
    def verdict(self) -> str:
        if self.conflicts:
            return "conflicted"
        return "outcome" if self.outcome is not None else "incomplete"

    def mean_confidence(self) -> float:
        return fmean(conf for _, conf in self.stage_decisions.values())

    def to_record(self) -> dict:
        return {
            "tool_id": self.tool_id,
            "verdict": self.verdict,
            "outcome_id": self.outcome.id if self.outcome else None,
            "outcome": (
                {
                    "usage": self.outcome.usage.value,
                    "profile": self.outcome.profile.value,
                    "tear": self.outcome.tear.value,
                    "severity": self.outcome.severity.value if self.outcome.severity else None,
                }
                if self.outcome
                else None
            ),
            "conflicts": [c.value for c in self.conflicts],
            "stages": {
                stage.value: {
                    "class": STAGE_CLASSES[stage][idx],
                    "confidence": conf,
                }
                for stage, (idx, conf) in self.stage_decisions.items()
            },
            "flags": sorted(f.label() for f in self.flags),
        }


@dataclass(frozen=True)
class EnsembleResult:
    tool_id: str
    outcome: Optional[WearOutcome]
    conflicted: bool
    vote_counts: dict[str, int]
    mean_confidence_per_stage: dict[StageId, float]
    runs_used: int

    @property
    def verdict(self) -> str:
        return "conflicted" if self.conflicted else "outcome"

    def to_record(self) -> dict:
        return {
            "tool_id": self.tool_id,
            "verdict": self.verdict,
            "outcome_id": self.outcome.id if self.outcome else None,
            "vote_counts": dict(sorted(self.vote_counts.items())),
            "mean_confidence_per_stage": {
                s.value: c for s, c in sorted(
                    self.mean_confidence_per_stage.items(), key=lambda kv: kv[0].value
                )
            },
            "runs_used": self.runs_used,
        }


def classify_run(run: RunInput, config: EngineConfig | None = None) -> RunResult:
    """Execute the full hierarchy for one tool observation.

    Levels 1 and 2 are decided by argmax; level 3 only on the branch the
    profile decision selected (rectangular skips it). Consistency between
    levels 1 and 2 is checked afterwards, and every stage with a
    configured threshold contributes a low-confidence flag when its
    winning probability falls short.
    """
    if config is None:
        config = EngineConfig()

    decisions: dict[StageId, tuple[int, float]] = {}
    flags: set[ReviewFlag] = set()

    for stage in REQUIRED_STAGES:
        vector = run.vectors[stage]
        decisions[stage] = (argmax_class(vector), confidence(vector))

    usage, profile, tear = (STAGE_STATES[s][decisions[s][0]] for s in REQUIRED_STAGES)

    conflicts = check_consistency(usage, profile, tear)
    for kind in conflicts:
        flags.add(ReviewFlag(FlagType.CONFLICT, conflict=kind))

    severity: Optional[Severity] = None
    severity_stage = SEVERITY_STAGE.get(profile)
    take_level3 = severity_stage is not None and not (
        conflicts and config.conflict_policy is ConflictPolicy.REJECT_RUN
    )
    if take_level3:
        severity_vector = run.vectors.get(severity_stage)
        if severity_vector is None:
            if config.conflict_policy is ConflictPolicy.REJECT_RUN:
                raise MissingSeverityInput(
                    f"profile {profile.value} requires a {severity_stage.value} vector"
                )
            flags.add(ReviewFlag(FlagType.MISSING_SEVERITY_INPUT, stage=severity_stage))
        else:
            idx, conf = argmax_class(severity_vector), confidence(severity_vector)
            decisions[severity_stage] = (idx, conf)
            severity = STAGE_STATES[severity_stage][idx]

    for stage, (_, conf) in decisions.items():
        threshold = config.thresholds.get(stage)
        if threshold is not None and conf < threshold:
            flags.add(ReviewFlag(FlagType.LOW_CONFIDENCE, stage=stage))

    outcome: Optional[WearOutcome] = None
    if not conflicts and (severity_stage is None or severity is not None):
        outcome = outcome_from_parts(usage, profile, tear, severity)

    return RunResult(run.tool_id, outcome, conflicts, decisions, frozenset(flags))


def needs_reevaluation(result: RunResult) -> bool:
    """True when any flag asks the caller to re-inspect the tool."""
    return bool(result.flags)


def ensemble_classify(runs: list[RunResult], config: EngineConfig | None = None) -> EnsembleResult:
    """Fuse several runs of the same tool by majority vote on verdicts.

    Conflicted runs pool into a single "conflicted" bucket. Ties are
    broken toward the candidate whose supporting runs have the higher
    mean stage confidence, then toward the lowest outcome id (with the
    conflicted bucket last).
    """
    if config is None:
        config = EngineConfig()
    if len(runs) < config.ensemble_min_runs:
        raise TooFewRuns(
            f"need at least {config.ensemble_min_runs} runs, got {len(runs)}"
        )
    tool_ids = {r.tool_id for r in runs}
    if len(tool_ids) != 1:
        raise MixedTools(f"runs span multiple tools: {sorted(tool_ids)}")

    def key_of(r: RunResult) -> str:
        return "conflicted" if r.conflicts else str(r.outcome.id)

    usable = [r for r in runs if r.conflicts or r.outcome is not None]
    if not usable:
        raise TooFewRuns("no run produced a verdict (all incomplete)")

    votes = Counter(key_of(r) for r in usable)
    mean_conf_by_key = {
        key: fmean(r.mean_confidence() for r in usable if key_of(r) == key)
        for key in votes
    }

    def rank(key: str) -> tuple:
        outcome_order = float("inf") if key == "conflicted" else int(key)
        return (-votes[key], -mean_conf_by_key[key], outcome_order)

    winner = min(votes, key=rank)

    stage_confs: dict[StageId, list[float]] = {}
    for r in runs:
        for stage, (_, conf) in r.stage_decisions.items():
            stage_confs.setdefault(stage, []).append(conf)

    if winner == "conflicted":
        outcome, conflicted = None, True
    else:
        outcome = next(r.outcome for r in usable if key_of(r) == winner)
        conflicted = False

    return EnsembleResult(
        tool_id=runs[0].tool_id,
        outcome=outcome,
        conflicted=conflicted,
        vote_counts=dict(votes),
        mean_confidence_per_stage={s: fmean(v) for s, v in stage_confs.items()},
        runs_used=len(usable),
    )

