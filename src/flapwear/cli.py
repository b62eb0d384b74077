"""Command-line surface for the wear classification toolkit.

Subcommands:
    classify   run the hierarchy over a prediction file
    evaluate   compute the metric suite over a labeled prediction file
    simulate   synthetic or oracle end-to-end simulation
    propagate  path accuracies, interval and corrected bounds

All machine-readable outputs are deterministic for fixed inputs and
seed. Exit codes: 0 success, 2 parse error or unreadable input,
3 validation error, 4 config error. A library error's exit code always
comes from its class (see errors.py); the CLI converts only Python's
own errors: OS errors and undecodable text, bad JSON or a JSON value of
the wrong type, text that is no number, and memory errors.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Mapping, TextIO

import numpy as np

from . import engine, errors, metrics, predictions, propagation, simulate
from .errors import ConfigError, FlapwearError, ParseError, ValidationError, is_number
from .taxonomy import REQUIRED_STAGES, StageId

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
        if not errors.is_integer(self.rounding):
            raise ConfigError(f"rounding must be an integer, got {self.rounding!r}")
        if not 1 <= self.rounding <= metrics.MAX_DECIMALS:
            raise ConfigError(f"rounding must be 1 to {metrics.MAX_DECIMALS} decimals")
        self.rounding, self.seed = int(self.rounding), errors.check_seed(self.seed)


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


# The config file's keys besides threshold.<stage>, each an EngineConfig or CliConfig
# field and its text's converter; a field no key or flag sets keeps its default.
_CONFIG_KEYS = {
    "conflict_policy": engine.ConflictPolicy,
    "ensemble_min_runs": int,
    "report_dir": Path,
    "seed": int,
    "rounding": int,
}


def _set_threshold(values: dict, stage: str, text: str) -> None:
    """One stage's gate; the other stages keep their gates as set so far."""
    values.setdefault("thresholds", dict(engine.DEFAULT_THRESHOLDS))[StageId(stage)] = float(text)


def build_config(args: argparse.Namespace) -> CliConfig:
    """The config file's values, then the flags', passed to the dataclasses that check them."""
    values = {}
    for key, text in (_parse_config_file(Path(args.config)) if args.config else {}).items():
        stage = key.removeprefix("threshold.")
        if stage == key and key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if stage != key:
                _set_threshold(values, stage, text)
            else:
                values[key] = _CONFIG_KEYS[key](text)
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    if args.no_thresholds:
        values["thresholds"] = {}
    for spec in args.thresholds or []:
        try:
            stage, text = spec.split("=", 1)
            _set_threshold(values, stage.strip(), text)
        except ValueError as exc:
            raise ConfigError(f"bad threshold spec {spec!r}, expected stage=value") from exc
    if args.out is not None:
        values["report_dir"] = Path(args.out)
    if args.seed is not None:
        values["seed"] = args.seed

    names = [f.name for f in fields(engine.EngineConfig) if f.name in values]
    engine_config = engine.EngineConfig(**{name: values.pop(name) for name in names})
    return CliConfig(engine_config, **values)


def _write_reports(
    directory: Path, writers: Mapping[str, Callable[[TextIO], object] | None]
) -> None:
    """Write the report files one call owns into directory, which is made here: all of them or none.

    writers maps each owned file name to the function that writes its
    text; a name mapped to None has nothing to write this time, and a
    file left under it is removed. A .csv file is opened with newline=""
    for the csv module. In order, each text goes to a new temporary file
    in directory, and a name held by a directory, which neither
    os.replace nor unlink can take, fails there. Only then is each
    temporary moved into place (os.replace) and each stale file removed.
    On any failure the temporaries left are deleted, so a failure before
    the first move leaves every existing file as it was. An OSError is a
    ConfigError.
    """
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create report directory {directory}: {exc}") from exc
    temporaries: dict[str, Path] = {}
    try:
        for name, write in writers.items():
            path = directory / name
            with _report_errors(path, write):
                if path.is_dir() and not path.is_symlink():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
                if write is not None:
                    temporaries[name] = directory / f".{name}.{os.urandom(6).hex()}.tmp"
                    newline = "" if name.endswith(".csv") else None
                    with open(temporaries[name], "x", encoding="utf-8", newline=newline) as fh:
                        write(fh)
        for name, write in writers.items():
            path = directory / name
            with _report_errors(path, write):
                if write is None:
                    path.unlink(missing_ok=True)
                else:
                    os.replace(temporaries[name], path)
                    del temporaries[name]
    finally:
        for temporary in temporaries.values():
            with contextlib.suppress(OSError):
                temporary.unlink()


@contextlib.contextmanager
def _report_errors(path: Path, write: Callable[[TextIO], object] | None) -> Iterator[None]:
    """Raise an OSError in writing, or removing, the report at path as a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        action = "remove stale" if write is None else "write"
        raise ConfigError(f"cannot {action} {path}: {exc}") from exc


def _json_report(payload) -> Callable[[TextIO], object]:
    """The writer of a JSON report: payload indented, keys sorted, one final newline."""
    return lambda fh: fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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

    decisions = engine.decide_runs(batch.vectors, config.engine)
    # Every error is raised, in tool order, before a file is written.
    ensembles = decisions.ensembles(batch.tool_ids, batch.run_counts, config.engine)
    run_lines = decisions.run_lines(batch.tool_ids, batch.run_counts)
    _write_reports(config.report_dir, {
        "runs.jsonl": lambda fh: fh.writelines(run_lines),
        "ensembles.jsonl": (
            (lambda fh: fh.writelines(ensembles.lines())) if len(ensembles) else None
        ),
    })

    n_conflicted = int(np.count_nonzero(decisions.conflicted))
    n_flagged = int(np.count_nonzero(decisions.flags))
    print(
        f"classified {len(decisions.cell)} runs over {len(batch.tool_ids)} tools: "
        f"{n_conflicted} conflicted, {n_flagged} flagged for re-examination"
    )
    print(f"reports written to {config.report_dir}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace, config: CliConfig) -> int:
    tables = predictions.parse_prediction_table(args.labeled_file, ids=False)
    labeled = {stage: table.truth >= 0 for stage, table in tables.items()}
    if not any(mask.any() for mask in labeled.values()):
        raise ValidationError("file contains no labeled samples")

    summary = {"stages": {}, "warnings": []}
    # Every stage is computed before a file is written; each writer holds its own stage's rows.
    writers = {}
    for stage, table in tables.items():
        confusion, roc = f"{stage.value}_confusion.csv", f"{stage.value}_roc.csv"
        if not labeled[stage].any():
            writers.update({confusion: None, roc: None})
            continue
        probs = table.probs[labeled[stage]]
        truth = table.truth[labeled[stage]].astype(np.intp)
        predicted = probs.argmax(axis=1)
        cm = metrics.ConfusionMatrix.from_indices(stage, truth, predicted)

        stage_summary = metrics.matrix_summary(cm, config.rounding)
        stage_summary["confidence"] = metrics.confidence_stats(
            probs.max(axis=1), predicted == truth, config.rounding
        )

        roc_rows = []
        auc_by_class = {}
        for cls, name in enumerate(cm.class_names):
            try:
                curve = metrics.roc_from_scores(probs[:, cls], truth == cls)
            except metrics.DegenerateInput as exc:
                summary["warnings"].append(
                    f"{stage.value}/{name}: ROC skipped ({exc})"
                )
                auc_by_class[name] = None
                continue
            auc_by_class[name] = metrics.round_report(curve.auc, config.rounding)
            roc_rows.extend((name, fpr, tpr) for fpr, tpr in curve.points)
        stage_summary["auc"] = auc_by_class
        writers[confusion] = partial(
            metrics.write_confusion_csv, stage_summary, decimals=config.rounding
        )
        writers[roc] = partial(metrics.write_roc_csv, roc_rows) if roc_rows else None

        summary["stages"][stage.value] = stage_summary

    writers["summary.json"] = _json_report(summary)
    _write_reports(config.report_dir, writers)
    for name, stage_summary in summary["stages"].items():
        print(
            f"{name}: accuracy {stage_summary['accuracy']}, "
            f"macro-F1 {stage_summary['macro_f1']}"
        )
    print(f"reports written to {config.report_dir}")
    return EXIT_OK


def _load_json_object(path: Path, what: str, keys: set[str]) -> dict:
    """The JSON object in path; a key outside keys is refused."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, deep nesting
        msg = getattr(exc, "msg", exc)
        raise ParseError(f"invalid JSON in {path}: {msg}", getattr(exc, "lineno", None)) from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{what} must be a JSON object")
    unknown = sorted(payload.keys() - keys)
    if unknown:
        raise ConfigError(f"unknown {what} key {unknown[0]!r}")
    return payload


# Each mode's optional settings, passed by name to its batch function, whose
# default holds when one is absent; _SIM_KEYS are all the keys a config may hold.
_MODE_SETTINGS = {"synth": {"noise_sigma"}, "oracle": {"confidence_law"}}
_SIM_KEYS = {"mode", "n", "matrices"}.union(*_MODE_SETTINGS.values())


def _run_simulation(sim_config: dict, mode: str, n: int, config: CliConfig) -> dict:
    """The report of an n-unit simulation in the given mode."""
    settings = {key: v for key, v in sim_config.items() if key in _MODE_SETTINGS[mode]}
    if mode == "synth":
        if "noise_sigma" in settings and not is_number(settings["noise_sigma"]):
            raise ConfigError(f"noise_sigma must be a number, got {settings['noise_sigma']!r}")
        return simulate.run_synthetic_batch(n, config.seed, config=config.engine, **settings)
    if "matrices" not in sim_config:
        raise ConfigError("oracle config needs per-stage matrices")
    by_name = sim_config["matrices"]
    if not isinstance(by_name, dict):
        raise ConfigError(f"matrices must be an object, got {by_name!r}")
    stages = {stage.value: stage for stage in StageId}
    for name in by_name:
        if name not in stages:
            raise ConfigError(f"unknown stage {name!r} in matrices")
    matrices = {stages[name]: counts for name, counts in by_name.items()}
    report = simulate.run_oracle_batch(matrices, n, config.seed, **settings)
    acc = propagation.StageAccuracies.from_names(report["stage_accuracies"])
    report["propagation"] = propagation.propagation_report(acc, decimals=config.rounding)
    return report


def cmd_simulate(args: argparse.Namespace, config: CliConfig) -> int:
    sim_config = _load_json_object(Path(args.sim_config), "simulation config", _SIM_KEYS)
    mode = sim_config.get("mode", "synth")
    if not isinstance(mode, str) or mode not in _MODE_SETTINGS:
        raise ConfigError(f"unknown simulation mode {mode!r}")
    n = sim_config.get("n", 1100) if args.n is None else args.n
    try:
        report = _run_simulation(sim_config, mode, n, config)
    except MemoryError as exc:  # numpy could not allocate the per-unit arrays
        raise ConfigError(f"simulation size {n} is too large: {exc}") from exc

    report["seed"] = config.seed
    _write_reports(config.report_dir, {"simulation.json": _json_report(report)})
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
    payload = _load_json_object(Path(args.input), "propagation input", {"accuracies", "ledger"})
    if "accuracies" not in payload:
        raise ConfigError("propagation input needs an accuracies object")
    try:
        acc = propagation.StageAccuracies.from_names(payload["accuracies"])
    except TypeError as exc:
        raise ConfigError(f"bad accuracies: {exc}") from exc

    ledger = None
    if "ledger" in payload:
        try:
            ledger = propagation.CorrectionLedger.from_names(payload["ledger"])
        except FlapwearError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad ledger: {exc}") from exc

    report = propagation.propagation_report(acc, ledger, config.rounding)
    _write_reports(config.report_dir, {"propagation.json": _json_report(report)})

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


def _int_or_text(text: str):
    """An integer flag's value; text that is no integer is passed on as is.

    The setting's own check then refuses it as a config error (exit 4)
    with one stderr line, as it refuses the same value from a file.
    """
    try:
        return int(text)
    except ValueError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flapwear",
        description="Hierarchical wear classification for abrasive flap wheels.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--seed", type=_int_or_text, default=None, help="RNG seed")
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
    p.add_argument("--n", type=_int_or_text, default=None, help="number of trials/observations")
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
        # One stderr line per error, even when the message quotes a key or
        # value from the input that holds a line break.
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        print(f"{exc.label}: {message}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
