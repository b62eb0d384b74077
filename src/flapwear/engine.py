"""Three-level hierarchical classification engine.

A run is one tool observation: a probability vector per stage. The
engine decides a whole batch of runs at once (``decide_runs``), one row
per run, with array operations: argmax and maximum per stage, then the
severity stage on the branch the profile decision selected (a row of
zeros there is a missing vector), and per-stage confidence gating; the
outcome id is looked up in a table over the level-1/level-2 cells.
A run's flags are a bit mask over ``FLAG_LABELS``. ``classify_run``
decides one ``RunInput`` through the batch code. One ensemble core
(``_vote``) fuses one tool's runs (``fuse_runs``) or every multi-run
tool of a batch (``RunDecisions.ensembles``). ``RunResult.to_record``
and ``_ensemble_record`` are the one run- and ensemble-record formats,
from which ``_stamped`` writes a batch's runs.jsonl and ensembles.jsonl.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, ValidationError, is_integer, is_number
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
    """The engine's settings; construction raises a ConfigError that names a bad value.

    thresholds is a mapping from StageId to a number in [0, 1]
    (errors.is_number), conflict_policy a ConflictPolicy, and
    ensemble_min_runs an integer >= 1 (errors.is_integer).
    """

    thresholds: dict[StageId, float] = field(
        default_factory=lambda: dict(DEFAULT_THRESHOLDS)
    )
    conflict_policy: ConflictPolicy = ConflictPolicy.FLAG_ONLY
    ensemble_min_runs: int = 1

    def __post_init__(self):
        if not isinstance(self.thresholds, Mapping):
            raise ConfigError(f"thresholds must be a mapping, got {self.thresholds!r}")
        for stage, t in self.thresholds.items():
            if not isinstance(stage, StageId):
                raise ConfigError(f"threshold stage is not a StageId: {stage!r}")
            if not is_number(t):
                raise ConfigError(f"threshold for {stage.value} is not a number: {t!r}")
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"threshold for {stage.value} outside [0, 1]: {t}")
        if not isinstance(self.conflict_policy, ConflictPolicy):
            raise ConfigError(f"conflict_policy is not a ConflictPolicy: {self.conflict_policy!r}")
        if not is_integer(self.ensemble_min_runs):
            raise ConfigError(f"ensemble_min_runs is not an integer: {self.ensemble_min_runs!r}")
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


class RunResult(NamedTuple):
    """One decided run."""

    outcome: Optional[WearOutcome]  # None when conflicted or incomplete
    conflicts: tuple[ConflictKind, ...]
    decisions: list[tuple[StageId, int, float]]  # decided stages: (stage, class index, confidence)
    flags: tuple[str, ...]  # sorted flag labels; empty when nothing asks for re-examination

    @property
    def verdict(self) -> str:
        if self.conflicts:
            return "conflicted"
        return "outcome" if self.outcome is not None else "incomplete"

    def to_record(self, tool_id: str, run_index: int) -> dict:
        """The run's report record, as one line of runs.jsonl."""
        outcome = self.outcome
        return {
            "tool_id": tool_id,
            "run_index": run_index,
            "verdict": self.verdict,
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
    """One tool's fused runs; to_record is its ensembles.jsonl record."""

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
        return _ensemble_record(
            self.tool_id,
            self.conflicted,
            self.outcome.id if self.outcome else None,
            dict(sorted(self.vote_counts.items())),
            dict(sorted((s.value, c) for s, c in self.mean_confidence_per_stage.items())),
            self.runs_used,
        )


def _ensemble_record(
    tool_id: str,
    conflicted: bool,
    outcome_id: Optional[int],
    vote_counts: dict[str, int],
    means: dict[str, float],
    runs_used: int,
) -> dict:
    """A tool's ensemble report record, as one line of ensembles.jsonl; means by stage name."""
    return {
        "tool_id": tool_id,
        "verdict": "conflicted" if conflicted else "outcome",
        "outcome_id": outcome_id,
        "vote_counts": vote_counts,
        "mean_confidence_per_stage": means,
        "runs_used": runs_used,
    }


# The tree's level-1/level-2 cells: every (usage, profile, tear) class-index
# triple, numbered in C order, and the conflicts check_consistency reports.
_CELL_SHAPE = tuple(len(STAGE_STATES[stage]) for stage in REQUIRED_STAGES)
_CELL_PARTS = tuple(itertools.product(*(STAGE_STATES[stage] for stage in REQUIRED_STAGES)))
_CELL_CONFLICTS = tuple(check_consistency(*parts) for parts in _CELL_PARTS)


def _outcome_id(parts: tuple, severity: Optional[Severity]) -> int:
    try:
        return outcome_from_parts(*parts, severity).id
    except TaxonomyError:
        return 0


# Per cell and severity, the consistent outcome's id (0 for none). Both
# severity stages list Severity in enum order, so a severity stage's class
# index is its column; the last column, -1, is no severity.
_OUTCOME_ID = np.array(
    [[_outcome_id(parts, severity) for severity in (*Severity, None)] for parts in _CELL_PARTS]
)
_OUTCOME_BY_ID = {outcome.id: outcome for outcome in CONSISTENT_OUTCOMES}

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
# Per cell, the flag mask of its conflicts: every run's flags start from it.
_CELL_FLAGS = np.array(
    [
        sum(1 << _FLAG_BIT[f"conflict:{kind.value}"] for kind in conflicts)
        for conflicts in _CELL_CONFLICTS
    ],
    dtype=np.int64,
)


@functools.cache
def _flag_labels(mask: int) -> tuple[str, ...]:
    return tuple(label for bit, label in enumerate(FLAG_LABELS) if mask >> bit & 1)


# json.dumps(record, sort_keys=True), and a slot string as json writes it.
_dump_sorted = json.JSONEncoder(sort_keys=True).encode
_SLOT = re.compile(r'"\\u0000(\d+)"')


def _stamp(record: dict) -> tuple[str, itemgetter]:
    """A record's JSON text as a %-template, and the getter of its values from a row.

    Each string "\\x00<i>" in record is a slot for item i of the row: the
    record is dumped once, with sorted keys, and text % getter(row) is the
    text of the record with the row's values in its slots. %s writes a
    float as float.__repr__, as json does for a finite float, and a str
    as it is, so a slot takes JSON text. A record has at least one slot;
    the getter of a single slot returns its bare value, which % takes as
    the one value unless it is a tuple.
    """
    parts = _SLOT.split(_dump_sorted(record).replace("%", "%%"))  # text, slot, ..., slot, text
    return "%s".join(parts[::2]), itemgetter(*map(int, parts[1::2]))


# Every stamped writer (_stamped) converts its template index and slot
# columns to Python values this many rows at a time, so only one block's
# values, not the batch's, are alive at once.
RUN_LINE_BLOCK = 1024


def _stamped(
    keys: np.ndarray, record: Callable[[int], dict], columns: Sequence[np.ndarray], end: str = ""
) -> Iterator[str]:
    """Each row's record as JSON text with sorted keys, then end, in row order.

    Rows of equal key have records equal but for their slot values, so a
    template is stamped (see _stamp) once per distinct key from
    record(r), the record of that key's first row r with slot strings.
    Row r's text is its template filled from row r of columns, taken
    item by item in order (a 2-D column gives consecutive slots); end
    is appended to the template, so it must hold no %. Zero rows give
    no text and no call of record.
    """
    # With return_inverse np.unique sorts; without it, numpy 2's hashing
    # path costs about 9 ms on its first call in a process.
    _, first, template_of = np.unique(keys, return_index=True, return_inverse=True)
    templates = [(text + end, values) for text, values in map(_stamp, map(record, first.tolist()))]
    for b in range(0, len(keys), RUN_LINE_BLOCK):
        block = slice(b, b + RUN_LINE_BLOCK)
        rows = np.column_stack([column[block] for column in columns]).tolist()
        for t, row in zip(template_of[block].tolist(), rows):
            text, values = templates[t]
            yield text % values(row)


# The ensemble core's columns: every stage, and a slot per vote + 1 (the
# conflicted bucket, incomplete runs, then each outcome id).
_STAGES = tuple(STAGE_CLASSES)
_STAGE_NAMES = tuple(stage.value for stage in _STAGES)
_VOTE_SLOTS = max(_OUTCOME_BY_ID) + 2
_INCOMPLETE = 1
_VOTE_KEY = ("conflicted", None, *map(str, range(1, _VOTE_SLOTS - 1)))
_CAST_SLOTS = [v for v in range(_VOTE_SLOTS) if v != _INCOMPLETE]  # the slots of votes cast
# Vote slots in the order a tie goes: the lowest outcome id, the conflicted bucket last.
_PREFERENCE = np.array([*range(2, _VOTE_SLOTS), 0, _INCOMPLETE])


def _group_means(values: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """math.fsum(v) / len(v) over the values v of each group, bit for bit; nan for none.

    A decided confidence, and so a mean of them, is at least (1 - 1e-6) / 3,
    above 1/4, so it is a whole number of 2**-54 below 2. Times 2**27, its
    whole part and its fraction each have at most 28 significant bits, so
    their float sums are exact for fewer than 2**25 values a group; adding
    the two exact sums rounds once, to the correctly rounded sum that fsum
    returns. Values outside [1/4, 2) go through fsum itself.
    """
    counts = np.bincount(groups, minlength=n_groups)
    if values.size == 0 or (values.min() >= 0.25 and values.max() < 2.0):
        scaled = np.ldexp(values, 27)
        high = np.floor(scaled)
        sums = np.bincount(groups, high, n_groups) + np.bincount(groups, scaled - high, n_groups)
        sums = np.ldexp(sums, -27)
    else:
        filled = np.flatnonzero(counts)
        ordered = values[np.argsort(groups, kind="stable")]
        sums = np.zeros(n_groups)
        sums[filled] = list(map(math.fsum, np.split(ordered, np.cumsum(counts[filled])[:-1])))
    return np.divide(sums, counts, out=np.full(n_groups, np.nan), where=counts > 0)


@dataclass(frozen=True)
class Ensembles:
    """The ensemble core's result: row t of every array is tool t."""

    tool_ids: Sequence[str]
    runs: np.ndarray  # runs per tool
    counts: np.ndarray  # (tools, _VOTE_SLOTS) runs per vote + 1
    winner: np.ndarray  # the winning vote + 1
    means: np.ndarray  # (tools, _STAGES) mean confidence per stage, nan where never decided
    min_runs: int

    def __len__(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> np.ndarray:
        """The tools with no ensemble: too few runs, or no run with a verdict."""
        return (self.runs < self.min_runs) | (self.counts[:, _INCOMPLETE] == self.runs)

    def error(self, t: int) -> TooFewRuns:
        """Why failed tool t has no ensemble."""
        if self.runs[t] < self.min_runs:
            return TooFewRuns(f"need at least {self.min_runs} runs, got {self.runs[t]}")
        return TooFewRuns("no run produced a verdict (all incomplete)")

    def result(self, t: int) -> EnsembleResult:
        """Tool t's ensemble (t must not have failed)."""
        vote = int(self.winner[t]) - 1
        counts = self.counts[t].tolist()
        return EnsembleResult(
            self.tool_ids[t],
            _OUTCOME_BY_ID.get(vote),
            vote < 0,
            _votes_cast(counts),
            {s: m for s, m in zip(_STAGES, self.means[t].tolist()) if not math.isnan(m)},
            int(self.runs[t]) - counts[_INCOMPLETE],
        )

    def lines(self) -> Iterator[str]:
        """Each tool's ensembles.jsonl line, in order; no tool may have failed.

        Key: the winning vote, then a bit per stage with a mean. Slots: [tool
        id as JSON, vote_counts text, runs used, each stage's mean]. The
        vote_counts text is stamped keyed on the vote slots cast, with a
        slot for each one's count.
        """
        decided = ~np.isnan(self.means)
        key = self.winner << len(_STAGES) | decided @ (1 << np.arange(len(_STAGES)))

        def record(t: int) -> dict:
            vote = int(self.winner[t]) - 1
            means = {_STAGE_NAMES[s]: f"\x00{3 + s}" for s in np.flatnonzero(decided[t]).tolist()}
            return _ensemble_record(
                "\x000", vote < 0, vote if vote > 0 else None, "\x001", means, "\x002"
            )

        counts = self.counts
        votes = _stamped(
            (counts[:, _CAST_SLOTS] > 0) @ (1 << np.arange(len(_CAST_SLOTS))),
            lambda t: _votes_cast([n and f"\x00{v}" for v, n in enumerate(counts[t].tolist())]),
            [counts],
        )
        tools = np.array([encode_basestring_ascii(t) for t in self.tool_ids], dtype=object)
        used = self.runs - counts[:, _INCOMPLETE]
        columns = [tools, np.array([*votes], dtype=object), used, self.means]
        return _stamped(key, record, columns, "\n")


def _votes_cast(counts: list) -> dict:
    """A tool's runs per vote cast (a true count), from its count, or slot string, per vote slot."""
    return {_VOTE_KEY[v]: counts[v] for v in _CAST_SLOTS if counts[v]}


def _vote(
    tool_ids: Sequence[str],
    run_counts: np.ndarray,
    votes: np.ndarray,
    confidence: Sequence[np.ndarray],
    decided: Sequence[np.ndarray],
    min_runs: int,
) -> Ensembles:
    """The ensemble core: majority votes of every tool at once (see fuse_runs).

    Tool t owns the next run_counts[t] rows. Run r votes votes[r] (its
    outcome id, -1 if conflicted, 0 if incomplete) and decided stage
    _STAGES[s] with confidence[s][r] where decided[s][r].
    """
    n_tools = len(run_counts)
    tool = np.repeat(np.arange(n_tools), run_counts)
    cell = tool * _VOTE_SLOTS + votes + 1
    counts = np.bincount(cell, minlength=n_tools * _VOTE_SLOTS).reshape(n_tools, _VOTE_SLOTS)
    cast = counts.copy()
    cast[:, _INCOMPLETE] = 0
    top = cast.max(axis=1, keepdims=True)
    tied = (cast == top) & (top > 0)
    # Only ties need the mean over the voters of each one's mean confidence.
    contested = tied & (tied.sum(axis=1, keepdims=True) > 1)
    voters = np.flatnonzero(contested.ravel()[cell])
    taken = [d[voters] for d in decided]
    run_means = _group_means(
        np.concatenate([c[voters][d] for c, d in zip(confidence, taken)]),
        np.concatenate([np.flatnonzero(d) for d in taken]),
        len(voters),
    )
    cell_means = _group_means(run_means, cell[voters], counts.size).reshape(counts.shape)
    # A voter that decided no stage (only a hand-made RunResult) has no mean
    # confidence, and its candidate ranks last among the tied ones.
    score = np.where(contested, np.nan_to_num(cell_means, nan=-np.inf), 0.0)
    best = tied & (score == np.where(tied, score, -np.inf).max(axis=1, keepdims=True))
    winner = _PREFERENCE[np.argmax(best[:, _PREFERENCE], axis=1)]
    means = np.column_stack(
        [_group_means(c[d], tool[d], n_tools) for c, d in zip(confidence, decided)]
    )
    return Ensembles(tool_ids, run_counts, counts, winner, means, min_runs)


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
        """The runs whose level-1/level-2 cell has a conflict bit in _CELL_FLAGS."""
        return _CELL_FLAGS[self.cell] != 0

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

    def run_lines(self, tool_ids: Sequence[str], run_counts: np.ndarray) -> Iterator[str]:
        """Each run's runs.jsonl line, in row order; tool t owns the next run_counts[t] rows.

        Key: the flag mask, then each stage's class index + 1 as a base-4
        digit. Slots: [tool id as JSON, run index, each stage's confidence].
        """
        stages = list(self.index)
        key = self.flags
        for idx in self.index.values():
            key = key << 2 | idx + 1

        def record(r: int) -> dict:
            run = next(self.rows([r]))
            slots = [(s, i, f"\x00{2 + stages.index(s)}") for s, i, _ in run.decisions]
            return run._replace(decisions=slots).to_record("\x000", "\x001")

        tools = np.array([encode_basestring_ascii(tool_id) for tool_id in tool_ids], dtype=object)
        tool = np.repeat(np.arange(len(run_counts)), run_counts)
        run_index = np.arange(len(tool)) - np.repeat(run_counts.cumsum() - run_counts, run_counts)
        columns = [tools[tool], run_index, *(self.confidence[stage] for stage in stages)]
        return _stamped(key, record, columns, "\n")

    def ensembles(
        self, tool_ids: Sequence[str], run_counts: np.ndarray, config: EngineConfig
    ) -> Ensembles:
        """The ensemble of each multi-run tool, in order; tool t owns the next run_counts[t] rows.

        Errors surface in tool order, a tool's rejected run before its TooFewRuns.
        """
        multi = run_counts > 1
        rows = np.repeat(multi, run_counts)
        ensembles = _vote(
            [tool_ids[t] for t in np.flatnonzero(multi).tolist()],
            run_counts[multi],
            np.where(self.conflicted, -1, self.outcome_id)[rows],
            [self.confidence[s][rows] for s in _STAGES],
            [self.index[s][rows] >= 0 for s in _STAGES],
            config.ensemble_min_runs,
        )
        # Tools from the rejected run on are not checked: the rejection comes first.
        stop = self.rejected_row if self.rejected_row >= 0 else len(self.cell)
        checked = run_counts.cumsum()[multi] <= stop
        failed = np.flatnonzero(ensembles.failed & checked)
        if failed.size:
            raise ensembles.error(int(failed[0]))
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
    flags = _CELL_FLAGS[cell]  # the cell's conflict bits; the other flags are ORed in below
    severity = np.full(len(cell), -1)  # the _OUTCOME_ID column of no severity
    missing = np.zeros(len(cell), dtype=bool)
    for profile, stage in SEVERITY_STAGE.items():
        branch = index[StageId.PROFILE] == STAGE_STATES[StageId.PROFILE].index(profile)
        if reject:
            branch &= flags == 0
        has_vector = vectors[stage].any(axis=1)  # a valid vector is never all zeros
        taken = branch & has_vector
        missing |= branch & ~has_vector
        index[stage] = np.where(taken, vectors[stage].argmax(axis=1), -1)
        confidence[stage] = vectors[stage].max(axis=1)
        severity = np.where(taken, index[stage], severity)
    if not reject:
        flags |= missing.astype(np.int64) << _FLAG_BIT[_MISSING_SEVERITY]
    for stage, threshold in config.thresholds.items():
        low = (index[stage] >= 0) & (confidence[stage] < threshold)
        flags |= low.astype(np.int64) << _FLAG_BIT[f"low_confidence:{stage.value}"]
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


def fuse_runs(
    tool_id: str,
    runs: Sequence[RunResult],
    config: EngineConfig | None = None,
) -> EnsembleResult:
    """Fuse the runs of one tool by majority vote.

    Incomplete runs do not vote; conflicted runs pool into a single
    "conflicted" bucket. Ties are broken toward the candidate whose
    voters have the higher mean of their mean stage confidences, then
    toward the lowest outcome id (with the conflicted bucket last). The
    mean confidence of a stage is over every run that decided it.
    """
    votes = [-1 if run.conflicts else run.outcome.id if run.outcome else 0 for run in runs]
    confidence = np.zeros((len(_STAGES), len(runs)))
    decided = np.zeros(confidence.shape, dtype=bool)
    for r, run in enumerate(runs):
        for stage, _, conf in run.decisions:
            confidence[_STAGES.index(stage), r] = conf
            decided[_STAGES.index(stage), r] = True
    votes = np.array(votes, dtype=np.int64)
    min_runs = (config or EngineConfig()).ensemble_min_runs
    ensembles = _vote([tool_id], np.array([len(runs)]), votes, confidence, decided, min_runs)
    if ensembles.failed[0]:
        raise ensembles.error(0)
    return ensembles.result(0)

