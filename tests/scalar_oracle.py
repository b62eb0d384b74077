"""Scalar reference for the columnar classify and evaluate commands and
for the block-wise synthetic wheel generator.

An object-per-record implementation of both commands, kept as an oracle
for the differential tests: the file parser with its own vector rule
(``vector_error``), run assembly by position, the per-run decision tree,
the majority-vote ensemble, the report records, the ROC sweep and the
two commands. ``main`` mirrors ``flapwear.cli.main`` for ``classify``
and ``evaluate``.

It holds its own containers, vector rule, argmax rule, flag labels,
confusion counting and ROC sweep, and imports from flapwear only what
the columnar path does not implement: config handling and
report-directory creation in ``cli``, the error kinds, the taxonomy's
consistency and outcome rules, and the report rendering of confusion
matrices (``ConfusionMatrix``, ``matrix_summary``, ``confidence_stats``,
``write_confusion_csv``, ``round_report``).

The synthetic part generates and scores one wheel at a time
(``generate_observation``, the four ``*_feature_classifier`` functions,
``observation_vectors``) and fills the per-stage arrays of a synthetic
batch wheel by wheel (``synthetic_stage_rows``). It imports the
generator's constants, ``WheelSpec`` and ``spec_for_outcome`` (the
per-wheel spec draw the batch path keeps) from flapwear.

The table part is the prediction-table parser as it was before its
scanner fast path (``parse_prediction_table``): every line decoded by
``json.loads``, its stage and view looked up as enum members, and its
record checked and appended in one body. It imports the table type, the
vector rule (``first_invalid_row``, ``ProbabilityVector``) and the view
error from flapwear.

The oracle part is the Monte-Carlo sampler and branch loop that
gathered each trial's (k,) confusion-row CDF, drew truths with
``Generator.choice`` and confidences with ``Generator.normal``, and
kept every stage's per-trial arrays (``sample_oracle_predictions``,
``oracle_branch_trials``). It imports the confusion-row helpers and
the default confidence law from flapwear.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import Counter
from statistics import fmean
from typing import NamedTuple, Optional

from array import array
from pathlib import Path

import numpy as np

from flapwear import cli, metrics, synth
from flapwear.errors import FlapwearError, ParseError, ValidationError
from flapwear.predictions import (
    ProbabilityVector,
    StageTable,
    VectorError,
    ViewMismatch,
    first_invalid_row,
)
from flapwear.simulate import (
    DEFAULT_CONFIDENCE_LAW,
    row_probabilities,
    spec_for_outcome,
    truth_marginals,
)
from flapwear.taxonomy import (
    BRANCH_STAGES,
    CONSISTENT_OUTCOMES,
    REQUIRED_STAGES,
    SEVERITY_STAGE,
    STAGE_CLASSES,
    STAGE_STATES,
    STAGE_VIEW,
    FlapProfile,
    Severity,
    StageId,
    View,
    WearOutcome,
    check_consistency,
    outcome_from_parts,
)


class Sample(NamedTuple):
    image_id: str
    tool_id: str
    stage: StageId
    probs: tuple[float, ...]
    truth: Optional[int]  # class index, None for a record without truth


class Run(NamedTuple):
    tool_id: str
    outcome: Optional[WearOutcome]
    conflicts: tuple
    decisions: dict  # stage -> (class index, confidence), in decision order
    flags: frozenset  # flag labels

    @property
    def verdict(self) -> str:
        if self.conflicts:
            return "conflicted"
        return "outcome" if self.outcome is not None else "incomplete"


SUM_TOLERANCE = 1e-6


def vector_error(stage: StageId, probs) -> Optional[str]:
    """The error text of an invalid vector of the stage, or None if it is valid.

    Checked in order: every entry converts to float, the stage's class
    count, each entry finite and in [0, 1], then the entries summed one
    by one, left to right from 0.0, within SUM_TOLERANCE of 1.
    """
    try:
        probs = [float(p) for p in probs]
    except OverflowError as exc:
        return f"probability outside [0, 1]: {exc}"
    expected = len(STAGE_CLASSES[stage])
    if len(probs) != expected:
        return f"stage {stage.value} expects {expected} classes, got {len(probs)}"
    for p in probs:
        if not math.isfinite(p) or p < 0.0 or p > 1.0:
            return f"probability {p} outside [0, 1]"
    total = 0.0
    for p in probs:  # not builtin sum, which compensates rounding from Python 3.12 on
        total += p
    if abs(total - 1.0) > SUM_TOLERANCE:
        return f"probabilities sum to {total} (deviation {total - 1.0:+g})"
    return None


def argmax(probs) -> int:
    """Index of the maximal probability; ties go to the lowest index."""
    return max(range(len(probs)), key=lambda i: (probs[i], -i))


def _record_to_sample(rec: dict, line_no: int) -> Sample:
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

    error = vector_error(stage, probs)
    if error is not None:
        raise ValidationError(error, line_no)
    required = STAGE_VIEW[stage]
    if view is not required:
        raise ValidationError(
            f"stage {stage.value} requires the {required.value} view, got {view.value}", line_no
        )
    truth = None
    if rec.get("truth") is not None:
        try:
            truth = STAGE_CLASSES[stage].index(rec["truth"])
        except ValueError as exc:
            raise ParseError(f"unknown truth class {rec['truth']!r}", line_no) from exc
    return Sample(image_id, tool_id, stage, tuple(float(p) for p in probs), truth)


def parse_prediction_file(path) -> list[Sample]:
    samples = []
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


def group_runs(samples) -> dict[str, list[dict]]:
    """Per tool (sorted), its runs as stage -> probs; the i-th vector of a stage is run i's."""
    by_tool: dict[str, dict[StageId, list]] = {}
    for sample in samples:
        by_tool.setdefault(sample.tool_id, {}).setdefault(sample.stage, []).append(sample.probs)

    runs: dict[str, list[dict]] = {}
    for tool_id, stages in sorted(by_tool.items()):
        counts = {s: len(stages.get(s, [])) for s in REQUIRED_STAGES}
        if len(set(counts.values())) != 1 or 0 in counts.values():
            raise ValidationError(
                f"tool {tool_id}: {'/'.join(s.value for s in REQUIRED_STAGES)} vector counts "
                f"differ: { {s.value: c for s, c in counts.items()} }"
            )
        runs[tool_id] = [
            {s: v[i] for s, v in stages.items() if i < len(v)}
            for i in range(counts[StageId.USAGE])
        ]
    return runs


def classify_run(tool_id: str, vectors: dict, config) -> Run:
    reject = config.conflict_policy.value == "reject_run"
    decisions: dict[StageId, tuple[int, float]] = {}
    flags: set[str] = set()

    for stage in REQUIRED_STAGES:
        probs = vectors[stage]
        decisions[stage] = (argmax(probs), max(probs))

    usage, profile, tear = (STAGE_STATES[s][decisions[s][0]] for s in REQUIRED_STAGES)

    conflicts = check_consistency(usage, profile, tear)
    flags.update(f"conflict:{kind.value}" for kind in conflicts)

    severity = None
    severity_stage = SEVERITY_STAGE.get(profile)
    if severity_stage is not None and not (conflicts and reject):
        probs = vectors.get(severity_stage)
        if probs is None:
            if reject:
                raise ValidationError(
                    f"profile {profile.value} requires a {severity_stage.value} vector"
                )
            flags.add("missing_severity_input")
        else:
            decisions[severity_stage] = (argmax(probs), max(probs))
            severity = STAGE_STATES[severity_stage][decisions[severity_stage][0]]

    for stage, (_, conf) in decisions.items():
        threshold = config.thresholds.get(stage)
        if threshold is not None and conf < threshold:
            flags.add(f"low_confidence:{stage.value}")

    outcome = None
    if not conflicts and (severity_stage is None or severity is not None):
        outcome = outcome_from_parts(usage, profile, tear, severity)

    return Run(tool_id, outcome, conflicts, decisions, frozenset(flags))


def run_to_record(run: Run) -> dict:
    outcome = run.outcome
    return {
        "tool_id": run.tool_id,
        "verdict": run.verdict,
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
        "conflicts": [c.value for c in run.conflicts],
        "stages": {
            stage.value: {"class": STAGE_CLASSES[stage][idx], "confidence": conf}
            for stage, (idx, conf) in run.decisions.items()
        },
        "flags": sorted(run.flags),
    }


def ensemble_record(runs: list[Run], config) -> dict:
    if len(runs) < config.ensemble_min_runs:
        raise ValidationError(f"need at least {config.ensemble_min_runs} runs, got {len(runs)}")

    def key_of(r: Run) -> str:
        return "conflicted" if r.conflicts else str(r.outcome.id)

    usable = [r for r in runs if r.conflicts or r.outcome is not None]
    if not usable:
        raise ValidationError("no run produced a verdict (all incomplete)")

    votes = Counter(key_of(r) for r in usable)
    mean_conf_by_key = {
        key: fmean(
            fmean(conf for _, conf in r.decisions.values()) for r in usable if key_of(r) == key
        )
        for key in votes
    }

    def rank(key: str) -> tuple:
        outcome_order = float("inf") if key == "conflicted" else int(key)
        return (-votes[key], -mean_conf_by_key[key], outcome_order)

    winner = min(votes, key=rank)

    stage_confs: dict[StageId, list[float]] = {}
    for r in runs:
        for stage, (_, conf) in r.decisions.items():
            stage_confs.setdefault(stage, []).append(conf)

    return {
        "tool_id": runs[0].tool_id,
        "verdict": "conflicted" if winner == "conflicted" else "outcome",
        "outcome_id": None if winner == "conflicted" else int(winner),
        "vote_counts": dict(sorted(votes.items())),
        "mean_confidence_per_stage": {
            s.value: fmean(v) for s, v in sorted(stage_confs.items(), key=lambda kv: kv[0].value)
        },
        "runs_used": len(usable),
    }


def roc_curve(samples):
    """(points, AUC) of (score, is_positive) samples, or None without both classes."""
    n_pos = sum(1 for _, pos in samples if pos)
    n_neg = len(samples) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None

    ordered = sorted(samples, key=lambda s: -s[0])
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(ordered):
        score = ordered[i][0]
        while i < len(ordered) and ordered[i][0] == score:
            if ordered[i][1]:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / n_neg, tp / n_pos))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))

    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return points, auc


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_classify(args, config) -> int:
    runs_by_tool = group_runs(parse_prediction_file(args.prediction_file))

    cli._make_report_dir(config.report_dir)
    run_records = []
    ensemble_records = []
    for tool_id, run_vectors in runs_by_tool.items():
        runs = [classify_run(tool_id, vectors, config.engine) for vectors in run_vectors]
        for i, run in enumerate(runs):
            rec = run_to_record(run)
            rec["run_index"] = i
            rec["needs_reevaluation"] = bool(run.flags)
            run_records.append(rec)
        if len(runs) > 1:
            ensemble_records.append(ensemble_record(runs, config.engine))

    _write_jsonl(config.report_dir / "runs.jsonl", run_records)
    if ensemble_records:
        _write_jsonl(config.report_dir / "ensembles.jsonl", ensemble_records)

    n_conflicted = sum(1 for r in run_records if r["verdict"] == "conflicted")
    n_flagged = sum(1 for r in run_records if r["needs_reevaluation"])
    print(
        f"classified {len(run_records)} runs over {len(runs_by_tool)} tools: "
        f"{n_conflicted} conflicted, {n_flagged} flagged for re-examination"
    )
    print(f"reports written to {config.report_dir}")
    return cli.EXIT_OK


def cmd_evaluate(args, config) -> int:
    labeled = [s for s in parse_prediction_file(args.labeled_file) if s.truth is not None]
    if not labeled:
        raise ValidationError("file contains no labeled samples")

    by_stage: dict[StageId, list[Sample]] = {}
    for sample in labeled:
        by_stage.setdefault(sample.stage, []).append(sample)

    cli._make_report_dir(config.report_dir)
    summary = {"stages": {}, "warnings": []}
    for stage in StageId:
        if stage not in by_stage:
            continue
        stage_samples = by_stage[stage]
        n = len(STAGE_CLASSES[stage])
        counts = [[0] * n for _ in range(n)]
        conf_correct = []
        for sample in stage_samples:
            pred = argmax(sample.probs)
            counts[sample.truth][pred] += 1
            conf_correct.append((max(sample.probs), pred == sample.truth))
        cm = metrics.ConfusionMatrix(stage, counts)

        stage_summary = metrics.matrix_summary(cm, config.rounding)
        stats = metrics.confidence_stats(conf_correct)
        stage_summary["confidence"] = {
            "mean_all": metrics.round_report(stats.mean_all, config.rounding),
            "mean_false": (
                None
                if stats.mean_false is None
                else metrics.round_report(stats.mean_false, config.rounding)
            ),
            "count_all": stats.count_all,
            "count_false": stats.count_false,
        }

        path = config.report_dir / f"{stage.value}_confusion.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            metrics.write_confusion_csv(cm, fh, config.rounding)

        roc_rows = []
        auc_by_class: dict[str, Optional[float]] = {}
        for cls, name in enumerate(STAGE_CLASSES[stage]):
            curve = roc_curve([(s.probs[cls], s.truth == cls) for s in stage_samples])
            if curve is None:
                summary["warnings"].append(
                    f"{stage.value}/{name}: ROC skipped "
                    "(need at least one positive and one negative sample)"
                )
                auc_by_class[name] = None
                continue
            points, auc = curve
            auc_by_class[name] = metrics.round_report(auc, config.rounding)
            roc_rows.extend((name, fpr, tpr) for fpr, tpr in points)
        stage_summary["auc"] = auc_by_class
        if roc_rows:
            with open(
                config.report_dir / f"{stage.value}_roc.csv", "w", newline="", encoding="utf-8"
            ) as fh:
                writer = csv.writer(fh)
                writer.writerow(["class", "fpr", "tpr"])
                writer.writerows(roc_rows)

        summary["stages"][stage.value] = stage_summary

    cli._write_json(config.report_dir / "summary.json", summary)
    for name, stage_summary in summary["stages"].items():
        print(f"{name}: accuracy {stage_summary['accuracy']}, macro-F1 {stage_summary['macro_f1']}")
    print(f"reports written to {config.report_dir}")
    return cli.EXIT_OK


COMMANDS = {"classify": cmd_classify, "evaluate": cmd_evaluate}


def main(argv: list[str]) -> int:
    args = cli.build_parser().parse_args(argv)
    try:
        config = cli.build_config(args)
        return COMMANDS[args.command](args, config)
    except FlapwearError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


# ---------------------------------------------------------------------------
# Synthetic wheels, one at a time.


class RadialProfile(NamedTuple):
    samples: tuple[float, ...]
    fringe: bool


class SyntheticObservation(NamedTuple):
    spec: synth.WheelSpec
    radial: RadialProfile
    gap_angles: tuple[float, ...]


def _severity_span(spec, rng) -> tuple[float, float]:
    if spec.severity is Severity.FULLY:
        span = rng.uniform(0.90, 1.0)
        start = (1.0 - span) / 2.0
    else:
        span = rng.uniform(0.30, 0.60)
        start = rng.uniform(0.0, 1.0 - span)
    return start, start + span


def generate_observation(spec, seed: int) -> SyntheticObservation:
    """One wheel's radial contour and axial gaps, drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    w = np.linspace(0.0, 1.0, synth.PROFILE_SAMPLES)
    r = np.full(synth.PROFILE_SAMPLES, synth.BASE_RADIUS)

    if spec.profile is not FlapProfile.RECTANGULAR:
        lo, hi = _severity_span(spec, rng)
        inside = (w >= lo) & (w <= hi)
        t = (w[inside] - lo) / (hi - lo)
        bump = spec.profile_depth * np.sin(math.pi * t)
        if spec.profile is FlapProfile.CONCAVE:
            r[inside] -= bump
        else:
            r[inside] += bump

    if spec.noise_sigma > 0:
        r = r + rng.normal(0.0, spec.noise_sigma, synth.PROFILE_SAMPLES)
    r = np.clip(r, 1e-6, 1.0)
    radial = RadialProfile(tuple(float(x) for x in r), spec.has_fringe)

    gap_nominal = (1.0 - synth.FLAP_ARC_FRACTION) * 2.0 * math.pi / spec.n_flaps
    gaps = np.full(spec.n_flaps, gap_nominal)
    if spec.noise_sigma > 0:
        gaps *= 1.0 + rng.uniform(-synth.GAP_JITTER, synth.GAP_JITTER, spec.n_flaps)
    for i in sorted(spec.torn_flaps):
        gaps[i] = gap_nominal * rng.uniform(*synth.TORN_GAP_RANGE)
    return SyntheticObservation(spec, radial, tuple(float(g) for g in gaps))


def _softmax(scores) -> tuple[float, ...]:
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    total = 0.0
    for e in exps:  # not builtin sum, which compensates rounding from Python 3.12 on
        total += e
    return tuple(e / total for e in exps)


def profile_feature_classifier(radial: RadialProfile) -> tuple[float, ...]:
    samples = np.asarray(radial.samples)
    k = max(2, int(round(synth.EDGE_FRACTION * len(samples))))
    edge_mean = float(np.mean(np.concatenate([samples[:k], samples[-k:]])))
    interior = samples[k:-k] - edge_mean
    deviation = float(interior[int(np.argmax(np.abs(interior)))])
    gain = synth._PROFILE_SCORE_GAIN
    return _softmax((1.0 - gain * abs(deviation), -gain * deviation, gain * deviation))


def severity_feature_classifier(radial: RadialProfile, branch: FlapProfile) -> tuple[float, ...]:
    samples = np.asarray(radial.samples)
    baseline = float(np.max(samples) if branch is FlapProfile.CONCAVE else np.min(samples))
    peak = float(np.max(np.abs(samples - baseline)))
    if peak == 0.0:
        affected_fraction = 0.0
    else:
        affected = np.abs(samples - baseline) > 0.1 * peak
        affected_fraction = float(np.count_nonzero(affected)) / len(samples)
    p_fully = 1.0 / (
        1.0 + math.exp(-synth._SEVERITY_SLOPE * (affected_fraction - synth.SEVERITY_BOUNDARY))
    )
    return (p_fully, 1.0 - p_fully)


def tear_feature_classifier(gap_angles) -> tuple[float, ...]:
    gaps = np.asarray(gap_angles)
    ratio = float(np.max(gaps) / np.median(gaps))
    p_tear = 1.0 / (
        1.0 + math.exp(-synth._TEAR_LOGISTIC_SLOPE * (ratio - synth._TEAR_LOGISTIC_CENTER))
    )
    return (p_tear, 1.0 - p_tear)


def usage_feature_classifier(radial: RadialProfile) -> tuple[float, ...]:
    samples = np.asarray(radial.samples)
    roughness = float(np.std(np.diff(samples)))
    conf = min(0.98, max(0.60, 0.98 - 3.0 * roughness))
    return (conf, 1.0 - conf) if radial.fringe else (1.0 - conf, conf)


def observation_vectors(obs: SyntheticObservation) -> dict[StageId, tuple[float, ...]]:
    """Stage -> probability row; both severity stages, whatever the wheel's own profile."""
    vectors = {
        StageId.USAGE: usage_feature_classifier(obs.radial),
        StageId.PROFILE: profile_feature_classifier(obs.radial),
        StageId.TEAR: tear_feature_classifier(obs.gap_angles),
    }
    for branch, stage in SEVERITY_STAGE.items():
        vectors[stage] = severity_feature_classifier(obs.radial, branch)
    return vectors


def synthetic_stage_rows(n: int, seed: int, noise_sigma: float):
    """Per-stage (n, k) rows of a synthetic batch, wheel by wheel."""
    rng = np.random.default_rng(seed)
    vectors = {stage: np.zeros((n, len(classes))) for stage, classes in STAGE_CLASSES.items()}
    for k in range(n):
        outcome = CONSISTENT_OUTCOMES[k % len(CONSISTENT_OUTCOMES)]
        spec = spec_for_outcome(outcome, rng, noise_sigma)
        observation = generate_observation(spec, seed=int(rng.integers(0, 2**31)))
        for stage, row in observation_vectors(observation).items():
            vectors[stage][k] = row
    return vectors


# ---------------------------------------------------------------------------
# The oracle sampler and branch loop, gathering each trial's confusion-row CDF.


def sample_oracle_predictions(
    stage: StageId,
    truths: np.ndarray,
    row_probs: np.ndarray,
    confidence_law: tuple[float, float, float],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized oracle core: sampled predicted classes and confidences.

    truths are class indices; row_probs[c] is the confusion-row
    distribution over predictions for true class c. Confidences are
    drawn around mean_correct or mean_false depending on correctness and
    clamped to (1/n_classes, 1].
    """
    n_classes = len(STAGE_CLASSES[stage])
    row_probs = np.asarray(row_probs, dtype=float)
    if row_probs.shape != (n_classes, n_classes):
        raise synth.BadRow(f"row matrix must be {n_classes}x{n_classes}")
    if np.any(row_probs < 0) or np.any(np.abs(row_probs.sum(axis=1) - 1.0) > 1e-9):
        raise synth.BadRow("each confusion row must be a probability distribution")

    mean_correct, mean_false, spread = confidence_law
    lo = 1.0 / n_classes
    for m in (mean_correct, mean_false):
        if not lo < m < 1.0:
            raise synth.BadRow(f"confidence mean {m} outside (1/{n_classes}, 1)")

    truths = np.asarray(truths)
    u = rng.random(len(truths))
    cdf = np.cumsum(row_probs, axis=1)
    preds = (u[:, None] > cdf[truths]).sum(axis=1)

    means = np.where(preds == truths, mean_correct, mean_false)
    confs = rng.normal(means, spread)
    return preds, np.clip(confs, lo + 1e-9, 1.0)


def oracle_branch_trials(
    matrices: dict[StageId, list[list[int]]],
    branch: FlapProfile,
    n_trials: int,
    seed: int,
    confidence_law: tuple[float, float, float] = DEFAULT_CONFIDENCE_LAW,
) -> dict:
    """Replay one branch through oracles calibrated to confusion matrices.

    Per trial and stage, the truth class is drawn from the matrix's
    truth marginals and the prediction from the truth's confusion row,
    so each stage errs at exactly the matrix's overall error rate. A
    trial is correct when every stage on the branch is.
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    stage_results: dict[StageId, dict[str, np.ndarray]] = {}
    all_correct = np.ones(n_trials, dtype=bool)
    for stage in BRANCH_STAGES[branch]:
        counts = matrices[stage]
        rows = row_probabilities(counts)
        truths = rng.choice(len(rows), size=n_trials, p=truth_marginals(counts))
        preds, confs = sample_oracle_predictions(stage, truths, rows, confidence_law, rng)
        correct = preds == truths
        all_correct &= correct
        stage_results[stage] = {"correct": correct, "confidence": confs}

    measured = float(np.count_nonzero(all_correct)) / n_trials
    return {
        "branch": branch.value,
        "n_trials": n_trials,
        "measured_accuracy": measured,
        "stage_accuracy": {
            stage.value: float(np.mean(res["correct"]))
            for stage, res in stage_results.items()
        },
        "stage_results": stage_results,
    }


# ---------------------------------------------------------------------------
# The prediction-table parser, one json.loads and one body per line.

_STAGE_BY_NAME = {stage.value: stage for stage in StageId}
_VIEW_BY_NAME = {view.value: view for view in View}
_NUMBER_TYPES = frozenset((int, float))


class _StageColumns:
    """A stage's columns while its file is read."""

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
    """The error of a well-formed record whose vector, view or truth is bad."""
    stage, view, probs, _, _ = fields
    try:
        ProbabilityVector(stage, probs)
    except VectorError as exc:
        return ValidationError(str(exc), line_no)
    required = STAGE_VIEW[stage]
    if view is not required:
        return ViewMismatch(
            f"stage {stage.value} requires the {required.value} view, got {view.value}", line_no
        )
    return ParseError(f"unknown truth class {rec['truth']!r}", line_no)


def _first_invalid_line(columns) -> Optional[ValidationError]:
    """The error of the first line, over all stages, whose vector is invalid."""
    first = None
    for cols in columns:
        invalid = first_invalid_row(cols.prob_rows())
        if invalid is not None:
            line_no = cols.lines[invalid[0]]
            if first is None or line_no < first.line:
                first = ValidationError(invalid[1], line_no)
    return first


def parse_prediction_table(path: str | Path) -> dict[StageId, StageTable]:
    """One table per stage, or the error of the file's first failing line."""
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
        raise _first_invalid_line(columns.values()) or exc
    except (OSError, UnicodeDecodeError) as exc:
        earlier = _first_invalid_line(columns.values())
        raise earlier or ParseError(f"cannot read {path}: {exc}") from exc
    invalid = _first_invalid_line(columns.values())
    if invalid is not None:
        raise invalid
    return {stage: cols.table() for stage, cols in columns.items()}
