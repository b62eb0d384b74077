"""Hierarchical wear classification toolkit for abrasive flap wheels.

Classifier-agnostic: consumes per-stage probability vectors, runs the
three-level decision hierarchy with consistency checks and confidence
gating, evaluates staged classifiers, and models how stage accuracies
propagate to the overall verdict.
"""

from .engine import (
    ConflictPolicy,
    EngineConfig,
    EnsembleResult,
    RunInput,
    RunResult,
    classify_run,
    decide_runs,
    fuse_runs,
)
from .predictions import (
    ProbabilityVector,
    assemble_runs,
    parse_prediction_table,
    split_by_tool,
)
from .taxonomy import (
    ConflictKind,
    FlapProfile,
    Severity,
    StageId,
    TearState,
    UsageState,
    View,
    WearOutcome,
    check_consistency,
    enumerate_consistent_outcomes,
    outcome_from_parts,
)

__version__ = "0.1.0"

__all__ = [
    "ConflictKind",
    "ConflictPolicy",
    "EngineConfig",
    "EnsembleResult",
    "FlapProfile",
    "ProbabilityVector",
    "RunInput",
    "RunResult",
    "Severity",
    "StageId",
    "TearState",
    "UsageState",
    "View",
    "WearOutcome",
    "assemble_runs",
    "check_consistency",
    "classify_run",
    "decide_runs",
    "enumerate_consistent_outcomes",
    "fuse_runs",
    "outcome_from_parts",
    "parse_prediction_table",
    "split_by_tool",
]
