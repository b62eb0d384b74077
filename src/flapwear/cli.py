"""Command-line surface for the wear classification toolkit.

Subcommands:
    classify   run the hierarchy over a prediction file
    evaluate   compute the metric suite over a labeled prediction file
    simulate   synthetic or oracle end-to-end simulation
    propagate  path accuracies, interval and corrected bounds

All machine-readable outputs are deterministic for fixed inputs and
seed. Exit codes: 0 success, 2 parse error or unreadable input,
3 validation error, 4 config error; each comes from the class of the
raised error (see errors.py).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from . import engine, metrics, predictions, propagation, simulate
from .errors import ConfigError, FlapwearError, ParseError, ValidationError
from .taxonomy import REQUIRED_STAGES, STAGE_CLASSES, StageId

EXIT_OK = 0
EXIT_PARSE = ParseError.exit_code
EXIT_VALIDATION = ValidationError.exit_code
EXIT_CONFIG = ConfigError.exit_code


@dataclass
class CliConfig:
    engine: engine.EngineConfig = field(default_factory=engine.EngineConfig)
    report_dir: Path = Path("reports")
    seed: int = 0
    rounding: int = 3

    def __post_init__(self):
        if not 1 <= self.rounding <= metrics.MAX_DECIMALS:
            raise ConfigError(f"rounding must be 1 to {metrics.MAX_DECIMALS} decimals")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _parse_config_file(path: Path) -> dict[str, str]:
    """Flat key = value text format; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _threshold_spec(text: str) -> tuple[StageId, float]:
    try:
        name, value = text.split("=", 1)
        return StageId(name.strip()), float(value)
    except ValueError as exc:
        raise ConfigError(f"bad threshold spec {text!r}, expected stage=value") from exc


def build_config(args: argparse.Namespace) -> CliConfig:
    thresholds = dict(engine.DEFAULT_THRESHOLDS)
    conflict_policy = engine.ConflictPolicy.FLAG_ONLY
    ensemble_min_runs = 1
    report_dir = Path("reports")
    seed = 0
    rounding = 3

    if args.config:
        raw = _parse_config_file(Path(args.config))
        try:
            for key, value in raw.items():
                if key.startswith("threshold."):
                    thresholds[StageId(key.removeprefix("threshold."))] = float(value)
                elif key == "conflict_policy":
                    conflict_policy = engine.ConflictPolicy(value)
                elif key == "ensemble_min_runs":
                    ensemble_min_runs = int(value)
                elif key == "report_dir":
                    report_dir = Path(value)
                elif key == "seed":
                    seed = int(value)
                elif key == "rounding":
                    rounding = int(value)
                else:
                    raise ConfigError(f"unknown config key {key!r}")
        except ConfigError:
            raise
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    if getattr(args, "no_thresholds", False):
        thresholds = {}
    for spec in getattr(args, "thresholds", None) or []:
        stage, value = _threshold_spec(spec)
        thresholds[stage] = value

    if args.out is not None:
        report_dir = Path(args.out)
    if args.seed is not None:
        seed = args.seed

    engine_config = engine.EngineConfig(
        thresholds=thresholds,
        conflict_policy=conflict_policy,
        ensemble_min_runs=ensemble_min_runs,
    )
    return CliConfig(engine_config, report_dir, seed, rounding)


def _make_report_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create report directory {path}: {exc}") from exc


@contextmanager
def _report_file(path: Path, newline: str | None = None) -> Iterator[TextIO]:
    """Every report file is written through here; an OSError is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _remove_reports(report_dir: Path, names: list[str]) -> None:
    """Unlink report files this command owns but did not write; an OSError is a ConfigError."""
    for name in names:
        path = report_dir / name
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot remove stale {path}: {exc}") from exc


def _write_json(path: Path, payload) -> None:
    with _report_file(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class RunBatch:
    """Runs assembled from a prediction table; row r of every array is run r.

    Runs are ordered by tool id, then by run index within the tool.
    """

    tool_ids: list[str]  # every tool, sorted
    run_counts: np.ndarray  # runs per tool
    vectors: dict[StageId, np.ndarray]  # (runs, k) per stage; zeros where absent


def _group_runs(tables: predictions.PredictionTable) -> RunBatch:
    """Assemble runs per tool from the per-stage tables.

    The i-th vector of each stage within a tool belongs to run i; the
    usage/profile/tear stages must therefore appear equally often. A
    severity vector past the tool's run count is not used.
    """
    tool_ids = sorted(set().union(*(table.tool_ids for table in tables.values())))
    position = {tool_id: i for i, tool_id in enumerate(tool_ids)}
    codes = {
        stage: np.fromiter(map(position.__getitem__, table.tool_ids), np.intp, len(table.tool_ids))
        for stage, table in tables.items()
    }
    counts = {stage: np.bincount(code, minlength=len(tool_ids)) for stage, code in codes.items()}

    required = [counts[stage] for stage in REQUIRED_STAGES]
    bad = np.zeros(len(tool_ids), dtype=bool)
    for c in required:
        bad |= (c != required[0]) | (c == 0)
    if bad.any():
        t = int(np.argmax(bad))
        raise ValidationError(
            f"tool {tool_ids[t]}: {'/'.join(s.value for s in REQUIRED_STAGES)} vector counts "
            f"differ: { {s.value: int(counts[s][t]) for s in REQUIRED_STAGES} }"
        )

    run_counts = required[0]
    first_run = np.cumsum(run_counts) - run_counts
    vectors = {}
    for stage, table in tables.items():
        order = np.argsort(codes[stage], kind="stable")
        code = codes[stage][order]
        first_of_tool = np.cumsum(counts[stage]) - counts[stage]
        occurrence = np.arange(len(order)) - first_of_tool[code]
        used = occurrence < run_counts[code]
        runs = first_run[code[used]] + occurrence[used]
        vectors[stage] = np.zeros((int(run_counts.sum()), table.probs.shape[1]))
        vectors[stage][runs] = table.probs[order[used]]
    return RunBatch(tool_ids, run_counts, vectors)


def cmd_classify(args: argparse.Namespace, config: CliConfig) -> int:
    batch = _group_runs(predictions.parse_prediction_table(args.prediction_file))

    _make_report_dir(config.report_dir)
    decisions = engine.decide_runs(batch.vectors, config.engine)
    # Every error is raised, in tool order, before a file is written.
    ensembles = decisions.ensembles(batch.tool_ids, batch.run_counts, config.engine)
    with _report_file(config.report_dir / "runs.jsonl") as fh:
        fh.writelines(decisions.run_lines(batch.tool_ids, batch.run_counts))
    if ensembles:
        with _report_file(config.report_dir / "ensembles.jsonl") as fh:
            fh.writelines(json.dumps(e.to_record(), sort_keys=True) + "\n" for e in ensembles)
    else:
        _remove_reports(config.report_dir, ["ensembles.jsonl"])

    n_conflicted = int(np.count_nonzero(decisions.conflicted))
    n_flagged = int(np.count_nonzero(decisions.flags))
    print(
        f"classified {len(decisions.cell)} runs over {len(batch.tool_ids)} tools: "
        f"{n_conflicted} conflicted, {n_flagged} flagged for re-examination"
    )
    print(f"reports written to {config.report_dir}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace, config: CliConfig) -> int:
    tables = predictions.parse_prediction_table(args.labeled_file)
    labeled = {stage: table.truth >= 0 for stage, table in tables.items()}
    if not any(mask.any() for mask in labeled.values()):
        raise ValidationError("file contains no labeled samples")

    _make_report_dir(config.report_dir)
    summary = {"stages": {}, "warnings": []}
    # The per-stage reports this command owns; each one written is taken out.
    stale = [f"{stage.value}_{kind}.csv" for stage in StageId for kind in ("confusion", "roc")]
    for stage, table in tables.items():
        if not labeled[stage].any():
            continue
        probs = table.probs[labeled[stage]]
        truth = table.truth[labeled[stage]].astype(np.intp)
        predicted = probs.argmax(axis=1)
        cm = metrics.ConfusionMatrix.from_indices(stage, truth, predicted)

        stage_summary = metrics.matrix_summary(cm, config.rounding)
        stats = metrics.confidence_stats(
            list(zip(probs.max(axis=1).tolist(), (predicted == truth).tolist()))
        )
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

        with _report_file(config.report_dir / f"{stage.value}_confusion.csv", "") as fh:
            metrics.write_confusion_csv(cm, fh, config.rounding)
        stale.remove(f"{stage.value}_confusion.csv")

        roc_rows = []
        auc_by_class = {}
        for cls, name in enumerate(cm.class_names):
            try:
                curve = metrics.roc_from_scores(probs[:, cls], truth == cls, stage, cls)
            except metrics.DegenerateInput as exc:
                summary["warnings"].append(
                    f"{stage.value}/{name}: ROC skipped ({exc})"
                )
                auc_by_class[name] = None
                continue
            auc_by_class[name] = metrics.round_report(curve.auc, config.rounding)
            roc_rows.extend((name, fpr, tpr) for fpr, tpr in curve.points)
        stage_summary["auc"] = auc_by_class
        if roc_rows:
            with _report_file(config.report_dir / f"{stage.value}_roc.csv", "") as fh:
                writer = csv.writer(fh)
                writer.writerow(["class", "fpr", "tpr"])
                writer.writerows(roc_rows)
            stale.remove(f"{stage.value}_roc.csv")

        summary["stages"][stage.value] = stage_summary

    _write_json(config.report_dir / "summary.json", summary)
    _remove_reports(config.report_dir, stale)
    for name, stage_summary in summary["stages"].items():
        print(
            f"{name}: accuracy {stage_summary['accuracy']}, "
            f"macro-F1 {stage_summary['macro_f1']}"
        )
    print(f"reports written to {config.report_dir}")
    return EXIT_OK


def _load_simulation_config(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", exc.lineno) from exc
    if not isinstance(payload, dict):
        raise ParseError("simulation config must be a JSON object")
    return payload


def _sim_setting(sim_config: dict, key: str, convert, default):
    """A simulation config value passed through convert; failures are config errors."""
    try:
        return convert(sim_config.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad simulation config value {key}: {exc}") from exc


# The sampler needs each confidence mean in (1/k, 1) for every stage it draws,
# and every branch draws the stage with the fewest classes.
_FEWEST_CLASSES = min(len(classes) for classes in STAGE_CLASSES.values())


def _confidence_law(value) -> tuple[float, float, float]:
    mean_correct, mean_false, spread = (float(x) for x in value)
    for mean in (mean_correct, mean_false):
        if not 1.0 / _FEWEST_CLASSES < mean < 1.0:  # false for NaN too
            raise ValueError(f"mean must be in (1/{_FEWEST_CLASSES}, 1), got {mean}")
    if not 0.0 <= spread < math.inf:  # false for NaN too
        raise ValueError(f"spread must be finite and >= 0, got {spread}")
    return mean_correct, mean_false, spread


def _check_oracle_matrices(matrices: dict[StageId, list]) -> None:
    """Raise unless each stage's counts are k x k, finite and >= 0, with no all-zero row."""
    for stage, counts in matrices.items():
        k = len(STAGE_CLASSES[stage])
        try:
            arr = np.asarray(counts, dtype=float)
            valid = arr.shape == (k, k) and bool(np.all(np.isfinite(arr) & (arr >= 0)))
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ConfigError(f"oracle matrix for {stage.value} must be {k}x{k} counts >= 0")
        if not arr.sum(axis=1).all():
            raise ConfigError(f"oracle matrix for {stage.value} has an empty truth row")


def _run_simulation(sim_config: dict, mode: str, n: int, config: CliConfig) -> dict:
    """The report of an n-unit simulation in the given mode."""
    if mode == "synth":
        return simulate.run_synthetic_batch(
            n,
            config.seed,
            noise_sigma=_sim_setting(sim_config, "noise_sigma", float, 0.0),
            config=config.engine,
        )
    if mode != "oracle":
        raise ConfigError(f"unknown simulation mode {mode!r}")
    try:
        matrices = {
            StageId(name): counts
            for name, counts in sim_config["matrices"].items()
        }
    except (KeyError, ValueError, AttributeError) as exc:
        raise ConfigError(f"oracle config needs per-stage matrices: {exc}") from exc
    missing = [stage.value for stage in StageId if stage not in matrices]
    if missing:
        raise ConfigError(f"oracle config needs per-stage matrices, missing {missing}")
    _check_oracle_matrices(matrices)
    law = _sim_setting(
        sim_config, "confidence_law", _confidence_law, simulate.DEFAULT_CONFIDENCE_LAW
    )
    report = simulate.run_oracle_batch(matrices, n, config.seed, law)
    acc = simulate.matrices_to_accuracies(matrices)
    report["propagation"] = propagation.propagation_report(acc, decimals=config.rounding)
    return report


def cmd_simulate(args: argparse.Namespace, config: CliConfig) -> int:
    sim_config = _load_simulation_config(Path(args.sim_config))
    mode = sim_config.get("mode", "synth")
    n = args.n if args.n is not None else _sim_setting(sim_config, "n", int, 1100)
    if n < 1:
        raise ConfigError("simulation size must be >= 1")
    if n > np.iinfo(np.intp).max // 64:  # arrays past numpy's size limit, not failed allocations
        raise ConfigError(f"simulation size {n} is too large")
    try:
        report = _run_simulation(sim_config, mode, n, config)
    except MemoryError as exc:  # numpy could not allocate the per-unit arrays
        raise ConfigError(f"simulation size {n} is too large: {exc}") from exc

    report["seed"] = config.seed
    _make_report_dir(config.report_dir)
    _write_json(config.report_dir / "simulation.json", report)
    if mode == "synth":
        print(f"synthetic batch of {n}: hierarchy accuracy {report['hierarchy_accuracy']:.4f}")
    else:
        for branch, res in report["branches"].items():
            print(
                f"{branch}: measured {res['measured_accuracy']:.4f} "
                f"vs analytic {res['analytic_accuracy']:.4f}"
            )
    print(f"report written to {config.report_dir / 'simulation.json'}")
    return EXIT_OK


def cmd_propagate(args: argparse.Namespace, config: CliConfig) -> int:
    payload = _load_simulation_config(Path(args.input))
    if "accuracies" not in payload:
        raise ConfigError("propagation input needs an accuracies object")
    accuracies = payload["accuracies"]
    if not isinstance(accuracies, dict):
        raise ConfigError("propagation input accuracies must be a JSON object")
    try:
        acc = propagation.StageAccuracies.from_names(accuracies)
    except KeyError as exc:
        raise ConfigError(f"propagation input needs accuracies.{exc.args[0]}") from exc

    ledger = None
    if "ledger" in payload:
        raw = payload["ledger"]
        try:
            ledger = propagation.CorrectionLedger(
                total_runs=raw["total_runs"],
                total_errors=raw["total_errors"],
                threshold_caught={
                    StageId(name): tuple(pair)
                    for name, pair in raw.get("threshold_caught", {}).items()
                },
                conflict_caught=raw.get("conflict_caught", 0),
                conflicts_overlap_thresholds=raw.get("conflicts_overlap_thresholds", False),
            )
        except FlapwearError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad ledger: {exc}") from exc

    report = propagation.propagation_report(acc, ledger, config.rounding)
    _make_report_dir(config.report_dir)
    _write_json(config.report_dir / "propagation.json", report)

    paths = report["path_accuracy"]
    print(
        f"path accuracies: rectangular {paths['rectangular']}, "
        f"concave {paths['concave']}, convex {paths['convex']}"
    )
    print(f"interval: {tuple(report['interval'])}")
    if "corrected_accuracy" in report:
        print(f"corrected accuracy bounds: {tuple(report['corrected_accuracy'])}")
    print(f"report written to {config.report_dir / 'propagation.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flapwear",
        description="Hierarchical wear classification for abrasive flap wheels.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--seed", type=int, default=None, help="RNG seed")
    common.add_argument("--out", default=None, help="report output directory")
    common.add_argument(
        "--thresholds",
        action="append",
        metavar="STAGE=VALUE",
        help="confidence threshold override, e.g. usage=0.91 (repeatable)",
    )
    common.add_argument(
        "--no-thresholds",
        action="store_true",
        help="disable all confidence thresholds",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="run the hierarchy over predictions")
    p.add_argument("prediction_file", help="line-delimited prediction file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", parents=[common], help="metric suite over labeled predictions")
    p.add_argument("labeled_file", help="line-delimited prediction file with truth labels")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", parents=[common], help="synthetic or oracle simulation")
    p.add_argument("sim_config", help="JSON simulation config (mode: synth or oracle)")
    p.add_argument("--n", type=int, default=None, help="number of trials/observations")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("propagate", parents=[common], help="accuracy propagation analysis")
    p.add_argument("input", help="JSON file with stage accuracies and optional ledger")
    p.set_defaults(func=cmd_propagate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        return args.func(args, config)
    except FlapwearError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
