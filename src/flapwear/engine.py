"""Three-level hierarchical classification engine.

A run is one tool observation: a probability vector per stage. The
engine decides a whole batch of runs at once (``decide_runs``), one row
per run, with array operations: argmax and maximum per stage, then
lookups into tables derived from the taxonomy for the level-1/level-2
conflicts and the outcome id, then the severity stage on the branch the
profile decision selected, and per-stage confidence gating. The same
batch code serves a single run (``classify_run``). Several runs of one
tool can be fused by majority vote (``fuse_runs``).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, ValidationError
from .predictions import ProbabilityVector
from .taxonomy import (
    CONSISTENT_OUTCOMES,
    REQUIRED_STAGES,
    SEVERITY_STAGE,
    STAGE_CLASSES,
    STAGE_STATES,
    ConflictKind,
    Severity,
    StageId,
    TaxonomyError,
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


def _mean(values: Sequence[float]) -> float:
    """Exactly rounded mean, as statistics.fmean computes it."""
    return math.fsum(values) / len(values)


def _verdict(conflicts: Sequence[ConflictKind], outcome: Optional[WearOutcome]) -> str:
    if conflicts:
        return "conflicted"
    return "outcome" if outcome is not None else "incomplete"


# A run's decided stages as (stage, class index, confidence), in stage order.
StageDecisions = list[tuple[StageId, int, float]]
# A decided run as plain values: outcome (None if none), conflicts, decisions.
RunRow = tuple[Optional[WearOutcome], tuple[ConflictKind, ...], StageDecisions]


def run_record(
    tool_id: str,
    outcome: Optional[WearOutcome],
    conflicts: Sequence[ConflictKind],
    decisions: StageDecisions,
    flag_labels: list[str],
) -> dict:
    """A run's report record."""
    return {
        "tool_id": tool_id,
        "verdict": _verdict(conflicts, outcome),
        "outcome_id": outcome.id if outcome else None,
        "outcome": (
            {
                "usage": outcome.usage.value,
                "profile": outcome.profile.value,
                "tear": outcome.tear.value,
                "severity": outcome.severity.value if outcome.severity else None,
            }
            if outcome
            else None
        ),
        "conflicts": [c.value for c in conflicts],
        "stages": {
            stage.value: {"class": STAGE_CLASSES[stage][idx], "confidence": conf}
            for stage, idx, conf in decisions
        },
        "flags": flag_labels,
    }


@dataclass(frozen=True)
class RunResult:
    tool_id: str
    outcome: Optional[WearOutcome]
    conflicts: tuple[ConflictKind, ...]
    stage_decisions: dict[StageId, tuple[int, float]]
    flags: frozenset[ReviewFlag]

    @property
    def verdict(self) -> str:
        return _verdict(self.conflicts, self.outcome)

    def decisions(self) -> StageDecisions:
        return [(stage, idx, conf) for stage, (idx, conf) in self.stage_decisions.items()]

    def to_record(self) -> dict:
        return run_record(
            self.tool_id,
            self.outcome,
            self.conflicts,
            self.decisions(),
            sorted(f.label() for f in self.flags),
        )


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
            "mean_confidence_per_stage": dict(
                sorted((s.value, c) for s, c in self.mean_confidence_per_stage.items())
            ),
            "runs_used": self.runs_used,
        }


# The tree's level-1/level-2 cells: every (usage, profile, tear) class-index
# triple, numbered in C order. Per cell, the conflicts check_consistency
# reports and, per severity (no severity last), the consistent outcome's id
# (0 for none).
_CELL_SHAPE = tuple(len(STAGE_STATES[stage]) for stage in REQUIRED_STAGES)
_CELL_PARTS = tuple(itertools.product(*(STAGE_STATES[stage] for stage in REQUIRED_STAGES)))
_CELL_CONFLICTS = tuple(check_consistency(*parts) for parts in _CELL_PARTS)
_CONFLICTED = np.array([bool(conflicts) for conflicts in _CELL_CONFLICTS])
_SEVERITY_CHOICES = (*Severity, None)
_NO_SEVERITY = _SEVERITY_CHOICES.index(None)


def _outcome_id(parts: tuple, severity: Optional[Severity]) -> int:
    try:
        return outcome_from_parts(*parts, severity).id
    except TaxonomyError:
        return 0


_OUTCOME_ID = np.array(
    [[_outcome_id(parts, severity) for severity in _SEVERITY_CHOICES] for parts in _CELL_PARTS]
)
_OUTCOME_BY_ID = {outcome.id: outcome for outcome in CONSISTENT_OUTCOMES}
# Per severity stage: its class index -> index into _SEVERITY_CHOICES.
_SEVERITY_CHOICE = {
    stage: np.array([_SEVERITY_CHOICES.index(state) for state in STAGE_STATES[stage]])
    for stage in SEVERITY_STAGE.values()
}

# Every flag a run can carry; bit i of a flag mask stands for _FLAGS[i].
_FLAGS = (
    *(ReviewFlag(FlagType.CONFLICT, conflict=kind) for kind in ConflictKind),
    *(ReviewFlag(FlagType.LOW_CONFIDENCE, stage=stage) for stage in StageId),
    *(
        ReviewFlag(FlagType.MISSING_SEVERITY_INPUT, stage=stage)
        for stage in SEVERITY_STAGE.values()
    ),
)
_FLAG_BIT = {flag: bit for bit, flag in enumerate(_FLAGS)}
_CELL_HAS_CONFLICT = {
    kind: np.array([kind in conflicts for conflicts in _CELL_CONFLICTS]) for kind in ConflictKind
}


def _flag_set(mask: int) -> frozenset[ReviewFlag]:
    return frozenset(flag for bit, flag in enumerate(_FLAGS) if mask >> bit & 1)


@functools.cache
def _sorted_labels(mask: int) -> tuple[str, ...]:
    return tuple(sorted({flag.label() for flag in _flag_set(mask)}))


def flag_labels(mask: int) -> list[str]:
    """The sorted labels of the flags in a flag mask."""
    return list(_sorted_labels(mask))


@dataclass(frozen=True)
class RunDecisions:
    """A batch of runs through the hierarchy; row r of every array is run r."""

    index: dict[StageId, np.ndarray]  # decided class per stage, -1 where undecided
    confidence: dict[StageId, np.ndarray]  # winning probability per stage
    cell: np.ndarray  # level-1/level-2 cell (see _CELL_PARTS)
    outcome_id: np.ndarray  # consistent outcome, 0 for none
    flags: np.ndarray  # flag mask, bit i for _FLAGS[i]
    rejected_row: int  # first run REJECT_RUN refuses (a severity vector missing), else -1

    @property
    def conflicted(self) -> np.ndarray:
        return _CONFLICTED[self.cell]

    def rejection(self) -> MissingSeverityInput:
        """The error for rejected_row."""
        profile = _CELL_PARTS[self.cell[self.rejected_row]][1]
        return MissingSeverityInput(
            f"profile {profile.value} requires a {SEVERITY_STAGE[profile].value} vector"
        )

    def rows(self) -> Iterator[tuple[RunRow, int]]:
        """Per run, as plain values: (outcome or None, conflicts, decisions) and the flag mask."""
        stages = [
            (stage, idx.tolist(), self.confidence[stage].tolist())
            for stage, idx in self.index.items()
        ]
        for r, (oid, cell, mask) in enumerate(
            zip(self.outcome_id.tolist(), self.cell.tolist(), self.flags.tolist())
        ):
            decisions = [(stage, idx[r], conf[r]) for stage, idx, conf in stages if idx[r] >= 0]
            yield (_OUTCOME_BY_ID.get(oid), _CELL_CONFLICTS[cell], decisions), mask


def decide_runs(
    vectors: Mapping[StageId, np.ndarray],
    present: Mapping[StageId, np.ndarray],
    config: EngineConfig | None = None,
) -> RunDecisions:
    """Execute the full hierarchy for a batch of runs.

    vectors holds an (n, k) probability array for every stage, row r
    belonging to run r; present[stage] says which rows of a severity
    stage hold a vector. Levels 1 and 2 are decided by argmax (ties to
    the lowest index); level 3 only on the branch the profile decision
    selected (rectangular skips it), and under REJECT_RUN not after a
    conflict. Every decided stage with a configured threshold is flagged
    when its winning probability falls short. The rows are not checked
    here: each must be a valid vector of its stage.
    """
    if config is None:
        config = EngineConfig()
    reject = config.conflict_policy is ConflictPolicy.REJECT_RUN

    index: dict[StageId, np.ndarray] = {}
    confidence: dict[StageId, np.ndarray] = {}
    for stage in REQUIRED_STAGES:
        index[stage] = vectors[stage].argmax(axis=1)
        confidence[stage] = vectors[stage].max(axis=1)
    cell = np.ravel_multi_index(tuple(index[stage] for stage in REQUIRED_STAGES), _CELL_SHAPE)
    conflicted = _CONFLICTED[cell]

    raised = {
        ReviewFlag(FlagType.CONFLICT, conflict=kind): has[cell]
        for kind, has in _CELL_HAS_CONFLICT.items()
    }
    severity = np.full(len(cell), _NO_SEVERITY)
    missing = np.zeros(len(cell), dtype=bool)
    for profile, stage in SEVERITY_STAGE.items():
        branch = index[StageId.PROFILE] == STAGE_STATES[StageId.PROFILE].index(profile)
        if reject:
            branch &= ~conflicted
        taken = branch & present[stage]
        missing |= branch & ~present[stage]
        if not reject:
            raised[ReviewFlag(FlagType.MISSING_SEVERITY_INPUT, stage=stage)] = branch & ~taken
        idx = vectors[stage].argmax(axis=1)
        index[stage] = np.where(taken, idx, -1)
        confidence[stage] = vectors[stage].max(axis=1)
        severity = np.where(taken, _SEVERITY_CHOICE[stage][idx], severity)
    for stage, threshold in config.thresholds.items():
        raised[ReviewFlag(FlagType.LOW_CONFIDENCE, stage=stage)] = (index[stage] >= 0) & (
            confidence[stage] < threshold
        )

    flags = np.zeros(len(cell), dtype=np.int64)
    for flag, rows in raised.items():
        flags |= rows.astype(np.int64) << _FLAG_BIT[flag]
    rejected_row = int(np.argmax(missing)) if reject and missing.any() else -1
    return RunDecisions(index, confidence, cell, _OUTCOME_ID[cell, severity], flags, rejected_row)


def classify_run(run: RunInput, config: EngineConfig | None = None) -> RunResult:
    """Execute the full hierarchy for one tool observation (see decide_runs).

    Under REJECT_RUN a run whose profile branch has no severity vector
    raises MissingSeverityInput instead of being flagged.
    """
    vectors = {
        stage: np.array([run.vectors[stage].probs if stage in run.vectors else [0.0] * len(names)])
        for stage, names in STAGE_CLASSES.items()
    }
    present = {stage: np.array([stage in run.vectors]) for stage in SEVERITY_STAGE.values()}
    decisions = decide_runs(vectors, present, config)
    if decisions.rejected_row >= 0:
        raise decisions.rejection()
    (outcome, conflicts, decided), mask = next(decisions.rows())
    return RunResult(
        run.tool_id,
        outcome,
        conflicts,
        {stage: (idx, conf) for stage, idx, conf in decided},
        _flag_set(mask),
    )


def needs_reevaluation(result: RunResult) -> bool:
    """True when any flag asks the caller to re-inspect the tool."""
    return bool(result.flags)


def _vote_key(conflicts: Sequence[ConflictKind], outcome: Optional[WearOutcome]) -> Optional[str]:
    verdict = _verdict(conflicts, outcome)
    return None if verdict == "incomplete" else "conflicted" if conflicts else str(outcome.id)


def _check_run_count(n_runs: int, config: EngineConfig) -> None:
    if n_runs < config.ensemble_min_runs:
        raise TooFewRuns(f"need at least {config.ensemble_min_runs} runs, got {n_runs}")


def fuse_runs(
    tool_id: str,
    runs: Sequence[RunRow],
    config: EngineConfig | None = None,
) -> EnsembleResult:
    """Fuse the runs of one tool, each (outcome, conflicts, decisions), by majority vote.

    Incomplete runs do not vote; conflicted runs pool into a single
    "conflicted" bucket. Ties are broken toward the candidate whose
    voters have the higher mean stage confidence, then toward the lowest
    outcome id (with the conflicted bucket last).
    """
    if config is None:
        config = EngineConfig()
    _check_run_count(len(runs), config)
    keys = [_vote_key(conflicts, outcome) for outcome, conflicts, _ in runs]
    usable = [i for i, key in enumerate(keys) if key is not None]
    if not usable:
        raise TooFewRuns("no run produced a verdict (all incomplete)")

    votes = Counter(keys[i] for i in usable)
    run_means = {i: _mean([conf for _, _, conf in runs[i][2]]) for i in usable}
    mean_conf_by_key = {
        key: _mean([run_means[i] for i in usable if keys[i] == key]) for key in votes
    }

    def rank(key: str) -> tuple:
        outcome_order = math.inf if key == "conflicted" else int(key)
        return (-votes[key], -mean_conf_by_key[key], outcome_order)

    winner = min(votes, key=rank)

    stage_confs: dict[StageId, list[float]] = {}
    for _, _, decisions in runs:
        for stage, _, conf in decisions:
            stage_confs.setdefault(stage, []).append(conf)

    conflicted = winner == "conflicted"
    return EnsembleResult(
        tool_id=tool_id,
        outcome=None if conflicted else _OUTCOME_BY_ID[int(winner)],
        conflicted=conflicted,
        vote_counts=dict(votes),
        mean_confidence_per_stage={s: _mean(v) for s, v in stage_confs.items()},
        runs_used=len(usable),
    )


def ensemble_classify(runs: list[RunResult], config: EngineConfig | None = None) -> EnsembleResult:
    """Fuse several RunResults of the same tool by majority vote (see fuse_runs)."""
    if config is None:
        config = EngineConfig()
    _check_run_count(len(runs), config)
    tool_ids = {r.tool_id for r in runs}
    if len(tool_ids) != 1:
        raise MixedTools(f"runs span multiple tools: {sorted(tool_ids)}")
    rows = [(r.outcome, r.conflicts, r.decisions()) for r in runs]
    return fuse_runs(runs[0].tool_id, rows, config)
