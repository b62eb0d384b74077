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
    ensemble_classify,
    needs_reevaluation,
)
from .predictions import (
    LabeledSample,
    Prediction,
    ProbabilityVector,
    argmax_class,
    confidence,
    parse_prediction_file,
    parse_prediction_table,
    split_by_tool,
    validate_vector,
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
    "LabeledSample",
    "Prediction",
    "ProbabilityVector",
    "RunInput",
    "RunResult",
    "Severity",
    "StageId",
    "TearState",
    "UsageState",
    "View",
    "WearOutcome",
    "argmax_class",
    "check_consistency",
    "classify_run",
    "confidence",
    "decide_runs",
    "ensemble_classify",
    "enumerate_consistent_outcomes",
    "needs_reevaluation",
    "outcome_from_parts",
    "parse_prediction_file",
    "parse_prediction_table",
    "split_by_tool",
    "validate_vector",
]
