"""Three-level hierarchical classification engine.

A run is one tool observation: a probability vector per stage. The
engine decides a whole batch of runs at once (``decide_runs``), one row
per run, with array operations: argmax and maximum per stage, then
lookups into tables derived from the taxonomy for the level-1/level-2
conflicts and the outcome id, then the severity stage on the branch the
profile decision selected (a row of zeros there is a missing vector),
and per-stage confidence gating. A decided run is a ``RunResult``; its
``to_record`` is the one run-record format, from which
``RunDecisions.run_lines`` stamps a batch's runs.jsonl. One ensemble
core votes for ``fuse_runs`` (one tool's runs) and for
``RunDecisions.ensembles`` (every tool of a batch). ``classify_run``
decides one ``RunInput`` through the batch code. Flags are labels such
as ``low_confidence:usage``, in a batch a bit mask over ``FLAG_LABELS``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

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


class EngineError(ValidationError):
    pass


class MissingSeverityInput(EngineError):
    """The profile branch needs a severity vector that was not supplied."""


class TooFewRuns(EngineError):
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


class RunResult(NamedTuple):
    """One decided run."""

    outcome: Optional[WearOutcome]  # None when conflicted or incomplete
    conflicts: tuple[ConflictKind, ...]
    decisions: list[tuple[StageId, int, float]]  # decided stages: (stage, class index, confidence)
    flags: tuple[str, ...]  # sorted flag labels; empty when nothing asks for re-examination

    @property
    def verdict(self) -> str:
        return _verdict(self.conflicts, self.outcome)

    def to_record(self, tool_id: str, run_index: int) -> dict:
        """The run's report record, as one line of runs.jsonl."""
        outcome = self.outcome
        return {
            "tool_id": tool_id,
            "run_index": run_index,
            "verdict": _verdict(self.conflicts, outcome),
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
            "conflicts": [c.value for c in self.conflicts],
            "stages": {
                stage.value: {"class": STAGE_CLASSES[stage][idx], "confidence": conf}
                for stage, idx, conf in self.decisions
            },
            "flags": list(self.flags),
            "needs_reevaluation": bool(self.flags),
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

_MISSING_SEVERITY = "missing_severity_input"
# Every flag label a run can carry, sorted; bit i of a flag mask stands for
# FLAG_LABELS[i], so a mask decodes to its labels in sorted order.
FLAG_LABELS = tuple(
    sorted(
        (
            *(f"conflict:{kind.value}" for kind in ConflictKind),
            *(f"low_confidence:{stage.value}" for stage in StageId),
            _MISSING_SEVERITY,
        )
    )
)
_FLAG_BIT = {label: bit for bit, label in enumerate(FLAG_LABELS)}
_CELL_HAS_CONFLICT = {
    f"conflict:{kind.value}": np.array([kind in conflicts for conflicts in _CELL_CONFLICTS])
    for kind in ConflictKind
}


@functools.cache
def _flag_labels(mask: int) -> tuple[str, ...]:
    return tuple(label for bit, label in enumerate(FLAG_LABELS) if mask >> bit & 1)


@dataclass(frozen=True)
class RunDecisions:
    """A batch of runs through the hierarchy; row r of every array is run r."""

    index: dict[StageId, np.ndarray]  # decided class per stage, -1 where undecided
    confidence: dict[StageId, np.ndarray]  # winning probability per stage
    cell: np.ndarray  # level-1/level-2 cell (see _CELL_PARTS)
    outcome_id: np.ndarray  # consistent outcome, 0 for none
    flags: np.ndarray  # flag mask, bit i for FLAG_LABELS[i]
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

    def rows(self, which: Iterable[int] | None = None) -> Iterator[RunResult]:
        """The RunResult of each run in which (default all), in that order."""
        for r in range(len(self.cell)) if which is None else which:
            decisions = [
                (stage, int(idx[r]), float(self.confidence[stage][r]))
                for stage, idx in self.index.items()
                if idx[r] >= 0
            ]
            yield RunResult(
                _OUTCOME_BY_ID.get(int(self.outcome_id[r])),
                _CELL_CONFLICTS[self.cell[r]],
                decisions,
                _flag_labels(int(self.flags[r])),
            )

    def run_lines(self, tool_ids: Sequence, run_counts: np.ndarray) -> Iterator[str]:
        """Each run's runs.jsonl line, in row order; tool t owns the next run_counts[t] rows.

        A line is fixed by the run's flag mask and decided classes but for
        the tool id, run index and confidences, so each distinct line is
        dumped from to_record once, with numbered placeholders for [tool id
        as JSON, run index, each stage's confidence], and filled per run;
        %s writes a float as float.__repr__, as json does.
        """
        stages = list(self.index)
        keys = np.column_stack([self.flags, *self.index.values()])
        _, first, line_of = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        lines = []
        for run in self.rows(first.tolist()):
            slots = [(s, i, f"\x00{2 + stages.index(s)}") for s, i, _ in run.decisions]
            record = run._replace(decisions=slots).to_record("\x000", "\x001")
            text = json.dumps(record, sort_keys=True).replace("%", "%%")
            parts = re.split(r'"\\u0000(\d+)"', text)  # text, slot, text, ..., slot, text
            lines.append(("%s".join(parts[::2]) + "\n", itemgetter(*map(int, parts[1::2]))))
        confidence = np.column_stack([self.confidence[stage] for stage in stages]).tolist()
        rows = zip(line_of.ravel().tolist(), confidence)
        for tool_id, n in zip(tool_ids, run_counts.tolist()):
            tool = json.dumps(tool_id)
            for i, (line, conf) in zip(range(n), rows):
                text, values = lines[line]
                yield text % values([tool, i, *conf])

    def ensembles(
        self, tool_ids: Sequence, run_counts: np.ndarray, config: EngineConfig
    ) -> list[EnsembleResult]:
        """fuse_runs for each multi-run tool in order; tool t owns the next run_counts[t] rows.

        Errors surface in tool order, a tool's rejected run before its TooFewRuns.
        """
        stop = self.rejected_row if self.rejected_row >= 0 else math.inf
        tools = [
            (tool_id, range(end - n, end))
            for tool_id, n, end in zip(tool_ids, run_counts.tolist(), run_counts.cumsum().tolist())
            if n > 1 and end <= stop
        ]
        votes = np.where(self.conflicted, -1, self.outcome_id).tolist()
        conf = [
            (s, np.where(i >= 0, self.confidence[s], None).tolist()) for s, i in self.index.items()
        ]
        ensembles = _fuse(tools, votes, conf, config)
        if self.rejected_row >= 0:
            raise self.rejection()
        return ensembles


def decide_runs(
    vectors: Mapping[StageId, np.ndarray], config: EngineConfig | None = None
) -> RunDecisions:
    """Execute the full hierarchy for a batch of runs.

    vectors holds an (n, k) probability array for every stage, row r
    belonging to run r; a severity row of zeros means the run has no
    vector of that stage (a valid vector sums to 1, so it is never
    zeros). Levels 1 and 2 are decided by argmax (ties to the lowest
    index); level 3 only on the branch the profile decision selected
    (rectangular skips it), and under REJECT_RUN not after a conflict.
    Every decided stage with a configured threshold is flagged when its
    winning probability falls short. The rows are not checked here: each
    must be a valid vector of its stage or, on a severity stage, zeros.
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

    raised = {label: has[cell] for label, has in _CELL_HAS_CONFLICT.items()}
    severity = np.full(len(cell), _NO_SEVERITY)
    missing = np.zeros(len(cell), dtype=bool)
    for profile, stage in SEVERITY_STAGE.items():
        branch = index[StageId.PROFILE] == STAGE_STATES[StageId.PROFILE].index(profile)
        if reject:
            branch &= ~conflicted
        has_vector = vectors[stage].any(axis=1)  # a valid vector is never all zeros
        taken = branch & has_vector
        missing |= branch & ~has_vector
        idx = vectors[stage].argmax(axis=1)
        index[stage] = np.where(taken, idx, -1)
        confidence[stage] = vectors[stage].max(axis=1)
        severity = np.where(taken, _SEVERITY_CHOICE[stage][idx], severity)
    if not reject:
        raised[_MISSING_SEVERITY] = missing
    for stage, threshold in config.thresholds.items():
        raised[f"low_confidence:{stage.value}"] = (index[stage] >= 0) & (
            confidence[stage] < threshold
        )

    flags = np.zeros(len(cell), dtype=np.int64)
    for label, rows in raised.items():
        flags |= rows.astype(np.int64) << _FLAG_BIT[label]
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
    decisions = decide_runs(vectors, config)
    if decisions.rejected_row >= 0:
        raise decisions.rejection()
    return next(decisions.rows())


def _fuse(tools, votes: list[int], columns, config: EngineConfig) -> list[EnsembleResult]:
    """The ensemble of each (tool id, rows) of tools, in order (see fuse_runs).

    Run r votes votes[r]: its outcome id, -1 if conflicted, 0 if
    incomplete. columns pairs each stage with every run's confidence in
    it, None where the stage was not decided.
    """
    ensembles = []
    for tool_id, rows in tools:
        if len(rows) < config.ensemble_min_runs:
            raise TooFewRuns(f"need at least {config.ensemble_min_runs} runs, got {len(rows)}")
        usable = [r for r in rows if votes[r]]
        if not usable:
            raise TooFewRuns("no run produced a verdict (all incomplete)")
        counts = Counter(votes[r] for r in usable)
        tied = [vote for vote, n in counts.items() if n == max(counts.values())]

        def rank(vote: int) -> tuple:  # only ties need the voters' mean confidences
            voters = [r for r in usable if votes[r] == vote]
            run_means = [_mean([c[r] for _, c in columns if c[r] is not None]) for r in voters]
            return (-_mean(run_means), math.inf if vote < 0 else vote)

        winner = min(tied, key=rank) if len(tied) > 1 else tied[0]
        decided = [(s, [c[r] for r in rows if c[r] is not None]) for s, c in columns]
        means = {s: _mean(v) for s, v in decided if v}
        by_key = {"conflicted" if v < 0 else str(v): n for v, n in counts.items()}
        outcome = _OUTCOME_BY_ID.get(winner)
        ensembles.append(EnsembleResult(tool_id, outcome, winner < 0, by_key, means, len(usable)))
    return ensembles


def fuse_runs(
    tool_id: str,
    runs: Sequence[RunResult],
    config: EngineConfig | None = None,
) -> EnsembleResult:
    """Fuse the runs of one tool by majority vote.

    Incomplete runs do not vote; conflicted runs pool into a single
    "conflicted" bucket. Ties are broken toward the candidate whose
    voters have the higher mean stage confidence, then toward the lowest
    outcome id (with the conflicted bucket last).
    """
    votes = [-1 if run.conflicts else run.outcome.id if run.outcome else 0 for run in runs]
    decided = [{stage: conf for stage, _, conf in run.decisions} for run in runs]
    columns = [(stage, [d.get(stage) for d in decided]) for stage in STAGE_CLASSES]
    return _fuse([(tool_id, range(len(runs)))], votes, columns, config or EngineConfig())[0]

