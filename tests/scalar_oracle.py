"""Scalar reference for the columnar classify and evaluate commands.

This is the object-per-record implementation that the columnar one
replaced, kept as an oracle for the differential tests: the file parser,
run assembly by position, the per-run decision tree, the majority-vote
ensemble, the report records, the ROC sweep and the two commands.
``main`` mirrors ``flapwear.cli.main`` for ``classify`` and ``evaluate``.
It shares only code that the rewrite left alone: vector validation,
config handling, confusion-matrix metrics and report rounding.
"""

from __future__ import annotations

import csv
import json
import sys
from collections import Counter
from statistics import fmean
from typing import Optional

from flapwear import cli, metrics
from flapwear.engine import (
    ConflictPolicy,
    EnsembleResult,
    FlagType,
    MissingSeverityInput,
    MixedTools,
    ReviewFlag,
    RunInput,
    RunResult,
    TooFewRuns,
)
from flapwear.errors import FlapwearError, ParseError, ValidationError
from flapwear.predictions import (
    LabeledSample,
    Prediction,
    ProbabilityVector,
    VectorError,
    ViewMismatch,
    argmax_class,
    confidence,
)
from flapwear.taxonomy import (
    REQUIRED_STAGES,
    SEVERITY_STAGE,
    STAGE_CLASSES,
    STAGE_STATES,
    StageId,
    View,
    check_consistency,
    outcome_from_parts,
)


def _record_to_sample(rec: dict, line_no: int):
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


def parse_prediction_file(path):
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


def group_runs(samples) -> dict[str, list[RunInput]]:
    by_tool: dict[str, dict[StageId, list]] = {}
    for item in samples:
        pred = item.prediction if isinstance(item, LabeledSample) else item
        by_tool.setdefault(pred.tool_id, {}).setdefault(pred.vector.stage, []).append(
            pred.vector
        )

    runs: dict[str, list[RunInput]] = {}
    for tool_id, stages in sorted(by_tool.items()):
        counts = {s: len(stages.get(s, [])) for s in REQUIRED_STAGES}
        if len(set(counts.values())) != 1 or 0 in counts.values():
            raise ValidationError(
                f"tool {tool_id}: {'/'.join(s.value for s in REQUIRED_STAGES)} vector counts "
                f"differ: { {s.value: c for s, c in counts.items()} }"
            )
        runs[tool_id] = [
            RunInput(tool_id, {s: v[i] for s, v in stages.items() if i < len(v)})
            for i in range(counts[StageId.USAGE])
        ]
    return runs


def classify_run(run: RunInput, config) -> RunResult:
    decisions: dict[StageId, tuple[int, float]] = {}
    flags: set[ReviewFlag] = set()

    for stage in REQUIRED_STAGES:
        vector = run.vectors[stage]
        decisions[stage] = (argmax_class(vector), confidence(vector))

    usage, profile, tear = (STAGE_STATES[s][decisions[s][0]] for s in REQUIRED_STAGES)

    conflicts = check_consistency(usage, profile, tear)
    for kind in conflicts:
        flags.add(ReviewFlag(FlagType.CONFLICT, conflict=kind))

    severity = None
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

    outcome = None
    if not conflicts and (severity_stage is None or severity is not None):
        outcome = outcome_from_parts(usage, profile, tear, severity)

    return RunResult(run.tool_id, outcome, conflicts, decisions, frozenset(flags))


def run_to_record(result: RunResult) -> dict:
    outcome = result.outcome
    return {
        "tool_id": result.tool_id,
        "verdict": result.verdict,
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
        "conflicts": [c.value for c in result.conflicts],
        "stages": {
            stage.value: {"class": STAGE_CLASSES[stage][idx], "confidence": conf}
            for stage, (idx, conf) in result.stage_decisions.items()
        },
        "flags": sorted(f.label() for f in result.flags),
    }


def ensemble_classify(runs: list[RunResult], config) -> EnsembleResult:
    if len(runs) < config.ensemble_min_runs:
        raise TooFewRuns(f"need at least {config.ensemble_min_runs} runs, got {len(runs)}")
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
        key: fmean(
            fmean(conf for _, conf in r.stage_decisions.values())
            for r in usable
            if key_of(r) == key
        )
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


def ensemble_to_record(result: EnsembleResult) -> dict:
    return {
        "tool_id": result.tool_id,
        "verdict": result.verdict,
        "outcome_id": result.outcome.id if result.outcome else None,
        "vote_counts": dict(sorted(result.vote_counts.items())),
        "mean_confidence_per_stage": {
            s.value: c
            for s, c in sorted(result.mean_confidence_per_stage.items(), key=lambda kv: kv[0].value)
        },
        "runs_used": result.runs_used,
    }


def roc_curve(samples, stage, positive_class) -> metrics.RocCurve:
    n_pos = sum(1 for _, pos in samples if pos)
    n_neg = len(samples) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise metrics.DegenerateInput("need at least one positive and one negative sample")

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
    return metrics.RocCurve(stage, positive_class, tuple(points), auc)


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_classify(args, config) -> int:
    runs_by_tool = group_runs(parse_prediction_file(args.prediction_file))

    cli._make_report_dir(config.report_dir)
    run_records = []
    ensemble_records = []
    for run_inputs in runs_by_tool.values():
        results = [classify_run(run, config.engine) for run in run_inputs]
        for i, result in enumerate(results):
            rec = run_to_record(result)
            rec["run_index"] = i
            rec["needs_reevaluation"] = bool(result.flags)
            run_records.append(rec)
        if len(results) > 1:
            ensemble_records.append(ensemble_to_record(ensemble_classify(results, config.engine)))

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
    samples = parse_prediction_file(args.labeled_file)
    labeled = [s for s in samples if isinstance(s, LabeledSample)]
    if not labeled:
        raise ValidationError("file contains no labeled samples")

    by_stage: dict[StageId, list[LabeledSample]] = {}
    for sample in labeled:
        by_stage.setdefault(sample.prediction.vector.stage, []).append(sample)

    cli._make_report_dir(config.report_dir)
    summary = {"stages": {}, "warnings": []}
    for stage in StageId:
        if stage not in by_stage:
            continue
        stage_samples = by_stage[stage]
        cm = metrics.ConfusionMatrix(stage)
        conf_correct = []
        for sample in stage_samples:
            pred = argmax_class(sample.prediction.vector)
            metrics.accumulate(cm, sample.truth, pred)
            conf_correct.append((confidence(sample.prediction.vector), pred == sample.truth))

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

        metrics.write_confusion_csv(
            cm, config.report_dir / f"{stage.value}_confusion.csv", config.rounding
        )

        roc_rows = []
        auc_by_class: dict[str, Optional[float]] = {}
        for cls, name in enumerate(cm.class_names):
            scored = [(s.prediction.vector.probs[cls], s.truth == cls) for s in stage_samples]
            try:
                curve = roc_curve(scored, stage, cls)
            except metrics.DegenerateInput as exc:
                summary["warnings"].append(f"{stage.value}/{name}: ROC skipped ({exc})")
                auc_by_class[name] = None
                continue
            auc_by_class[name] = metrics.round_report(curve.auc, config.rounding)
            roc_rows.extend((name, fpr, tpr) for fpr, tpr in curve.points)
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
