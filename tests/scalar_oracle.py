"""Scalar reference for the columnar classify and evaluate commands.

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
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import Counter
from statistics import fmean
from typing import NamedTuple, Optional

from flapwear import cli, metrics
from flapwear.errors import FlapwearError, ParseError, ValidationError
from flapwear.taxonomy import (
    REQUIRED_STAGES,
    SEVERITY_STAGE,
    STAGE_CLASSES,
    STAGE_STATES,
    STAGE_VIEW,
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

        metrics.write_confusion_csv(
            cm, config.report_dir / f"{stage.value}_confusion.csv", config.rounding
        )

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
