import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import flapwear
from flapwear import metrics, simulate
from flapwear.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, CliConfig, main
from flapwear.errors import ValidationError
from flapwear.predictions import StageId

from conftest import ALL_MATRICES, EDGE_LINES, USAGE_MATRIX, VALID_LINE


def record(stage, probs, tool="t1", image="img", view="radial", truth=None):
    rec = {
        "image_id": image,
        "tool_id": tool,
        "view": view,
        "stage": stage,
        "probs": probs,
    }
    if truth is not None:
        rec["truth"] = truth
    return json.dumps(rec)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def consistent_tool_lines(tool="t1", run=0):
    return [
        record("usage", [0.02, 0.98], tool, f"{tool}-r{run}-radial"),
        record("profile", [0.1, 0.85, 0.05], tool, f"{tool}-r{run}-radial"),
        record("tear", [0.2, 0.8], tool, f"{tool}-r{run}-axial", view="axial"),
        record("concave_severity", [0.3, 0.7], tool, f"{tool}-r{run}-radial"),
    ]


def usage_replay_lines(counts=USAGE_MATRIX):
    classes = ["new", "used"]
    lines = []
    k = 0
    for truth, row in enumerate(counts):
        for pred, count in enumerate(row):
            probs = [0.1, 0.1]
            probs[pred] = 0.9
            for _ in range(count):
                lines.append(
                    record("usage", probs, f"tool-{truth}", f"img-{k}", truth=classes[truth])
                )
                k += 1
    return lines


class TestClassify:
    def test_consistent_tool(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        write_lines(preds, consistent_tool_lines())
        out = tmp_path / "reports"
        assert main(["classify", str(preds), "--out", str(out)]) == EXIT_OK
        runs = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()]
        assert len(runs) == 1
        assert runs[0]["verdict"] == "outcome"
        assert runs[0]["outcome_id"] == 4
        assert "1 runs" in capsys.readouterr().out

    def test_conflict_is_a_result_not_a_failure(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        write_lines(
            preds,
            [
                record("usage", [0.95, 0.05]),
                record("profile", [0.9, 0.05, 0.05]),
                record("tear", [0.97, 0.03], view="axial"),
            ],
        )
        out = tmp_path / "reports"
        assert main(["classify", str(preds), "--out", str(out)]) == EXIT_OK
        run = json.loads((out / "runs.jsonl").read_text())
        assert run["verdict"] == "conflicted"
        assert run["conflicts"] == ["new_with_tear"]
        assert "conflict:new_with_tear" in run["flags"]

    def test_multiple_runs_get_ensemble(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        write_lines(preds, consistent_tool_lines(run=0) + consistent_tool_lines(run=1))
        out = tmp_path / "reports"
        assert main(["classify", str(preds), "--out", str(out)]) == EXIT_OK
        ensemble = json.loads((out / "ensembles.jsonl").read_text())
        assert ensemble["outcome_id"] == 4
        assert ensemble["vote_counts"] == {"4": 2}

    def test_reused_out_drops_stale_ensembles_only(self, tmp_path):
        out = tmp_path / "reports"
        (out / "kept").mkdir(parents=True)
        (out / "notes.txt").write_text("mine\n")
        two_runs, one_run = tmp_path / "two.jsonl", tmp_path / "one.jsonl"
        write_lines(two_runs, consistent_tool_lines("t1", 0) + consistent_tool_lines("t1", 1))
        write_lines(one_run, consistent_tool_lines("t2"))
        assert main(["classify", str(two_runs), "--out", str(out)]) == EXIT_OK
        assert (out / "ensembles.jsonl").exists()
        assert main(["classify", str(one_run), "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["kept", "notes.txt", "runs.jsonl"]
        assert json.loads((out / "runs.jsonl").read_text())["tool_id"] == "t2"
        assert (out / "notes.txt").read_text() == "mine\n"

    @pytest.mark.parametrize(
        "setting, lines",
        [
            pytest.param(
                "conflict_policy = reject_run",
                consistent_tool_lines()[:3],
                id="concave-run-without-severity",
            ),
            pytest.param(
                "ensemble_min_runs = 3",
                consistent_tool_lines(run=0) + consistent_tool_lines(run=1),
                id="two-run-tool",
            ),
        ],
    )
    def test_failed_run_leaves_no_report_directory(self, tmp_path, capsys, setting, lines):
        preds, config = tmp_path / "preds.jsonl", tmp_path / "flapwear.conf"
        write_lines(preds, lines)
        config.write_text(setting + "\n")
        argv = ["classify", str(preds), "--config", str(config), "--out"]
        assert main(argv + [str(tmp_path / "new" / "reports")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert not (tmp_path / "new").exists()
        # The input's error comes before an --out that names a file.
        (tmp_path / "file").write_text("")
        assert main(argv + [str(tmp_path / "file")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == err

    def test_malformed_file_exit_code(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"image_id": broken\n')
        assert main(["classify", str(preds), "--out", str(tmp_path / "r")]) == EXIT_PARSE

    def test_unbalanced_stages_exit_code(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        write_lines(preds, [record("usage", [0.9, 0.1])])
        assert main(["classify", str(preds), "--out", str(tmp_path / "r")]) == EXIT_VALIDATION

    def test_threshold_flags(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        write_lines(preds, consistent_tool_lines())
        out = tmp_path / "reports"
        main(["classify", str(preds), "--out", str(out), "--thresholds", "usage=0.99"])
        run = json.loads((out / "runs.jsonl").read_text())
        assert "low_confidence:usage" in run["flags"]

        main(["classify", str(preds), "--out", str(out), "--no-thresholds"])
        run = json.loads((out / "runs.jsonl").read_text())
        assert run["flags"] == []

    def test_config_file(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        write_lines(preds, consistent_tool_lines())
        config = tmp_path / "flapwear.conf"
        config.write_text(
            "# thresholds\n"
            "threshold.concave_severity = 0.8\n"
            f"report_dir = {tmp_path / 'from_config'}\n"
        )
        assert main(["classify", str(preds), "--config", str(config)]) == EXIT_OK
        run = json.loads((tmp_path / "from_config" / "runs.jsonl").read_text())
        assert "low_confidence:concave_severity" in run["flags"]

    def test_bad_config_exit_code(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        write_lines(preds, consistent_tool_lines())
        config = tmp_path / "bad.conf"
        config.write_text("no_such_key = 1\n")
        assert main(["classify", str(preds), "--config", str(config)]) == EXIT_CONFIG
        assert (
            main(["classify", str(preds), "--thresholds", "usage=oops"]) == EXIT_CONFIG
        )


class TestEvaluate:
    def test_usage_table_replay(self, tmp_path):
        preds = tmp_path / "labeled.jsonl"
        write_lines(preds, usage_replay_lines())
        out = tmp_path / "reports"
        assert main(["evaluate", str(preds), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        usage = summary["stages"]["usage"]
        assert usage["counts"] == USAGE_MATRIX
        assert usage["accuracy"] == 0.986
        assert usage["macro_f1"] == 0.984  # unrounded 0.9837
        assert usage["per_class"]["new"]["precision"] == 0.960
        assert (out / "usage_confusion.csv").exists()
        assert (out / "usage_roc.csv").exists()

    def test_single_sample_declines_roc(self, tmp_path):
        preds = tmp_path / "labeled.jsonl"
        write_lines(preds, [record("usage", [0.9, 0.1], truth="new")])
        out = tmp_path / "reports"
        assert main(["evaluate", str(preds), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stages"]["usage"]["accuracy"] == 1.0
        assert summary["warnings"]
        assert not (out / "usage_roc.csv").exists()

    def test_reused_out_drops_stale_stage_reports_only(self, tmp_path):
        out = tmp_path / "reports"
        out.mkdir()
        (out / "tear_roc.csv.bak").write_text("mine\n")
        both, one = tmp_path / "both.jsonl", tmp_path / "one.jsonl"
        write_lines(both, usage_replay_lines() + [
            record("tear", [0.2, 0.8], image="a", view="axial", truth="with_tear"),
            record("tear", [0.7, 0.3], image="b", view="axial", truth="no_tear"),
        ])
        write_lines(one, [record("usage", [0.9, 0.1], truth="new")])
        assert main(["evaluate", str(both), "--out", str(out)]) == EXIT_OK
        assert {"tear_confusion.csv", "tear_roc.csv", "usage_roc.csv"} <= {
            p.name for p in out.iterdir()
        }
        # One sample: usage keeps its confusion matrix but its ROC is skipped.
        assert main(["evaluate", str(one), "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "summary.json", "tear_roc.csv.bak", "usage_confusion.csv"
        ]

    def test_a_later_stage_failing_writes_no_report(self, tmp_path, monkeypatch):
        preds = tmp_path / "labeled.jsonl"
        write_lines(preds, usage_replay_lines() + [
            record("tear", [0.2, 0.8], image="a", view="axial", truth="with_tear"),
        ])
        matrix_summary = metrics.matrix_summary

        def fail_on_tear(cm, decimals):
            if cm.stage is StageId.TEAR:
                raise ValidationError("tear summary failed")
            return matrix_summary(cm, decimals)

        monkeypatch.setattr(metrics, "matrix_summary", fail_on_tear)
        out = tmp_path / "reports"
        assert main(["evaluate", str(preds), "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    def test_unlabeled_file_is_validation_error(self, tmp_path):
        preds = tmp_path / "unlabeled.jsonl"
        write_lines(preds, [record("usage", [0.9, 0.1])])
        assert main(["evaluate", str(preds), "--out", str(tmp_path / "r")]) == EXIT_VALIDATION


class TestSimulate:
    def test_numpy_integer_seed_is_an_int(self):
        seed = CliConfig(seed=np.int64(3)).seed
        assert type(seed) is int and seed == 3

    def test_synth_mode_zero_noise(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"mode": "synth"}))
        out = tmp_path / "reports"
        assert main(
            ["simulate", str(config), "--n", "55", "--seed", "3", "--out", str(out)]
        ) == EXIT_OK
        report = json.loads((out / "simulation.json").read_text())
        assert report["hierarchy_accuracy"] == 1.0

    def test_oracle_mode(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(
            json.dumps(
                {
                    "mode": "oracle",
                    "matrices": {s.value: m for s, m in ALL_MATRICES.items()},
                }
            )
        )
        out = tmp_path / "reports"
        assert main(
            ["simulate", str(config), "--n", "5000", "--seed", "1", "--out", str(out)]
        ) == EXIT_OK
        report = json.loads((out / "simulation.json").read_text())
        assert set(report["branches"]) == {"rectangular", "concave", "convex"}
        rect = report["branches"]["rectangular"]
        assert abs(rect["measured_accuracy"] - rect["analytic_accuracy"]) < 0.05
        assert report["propagation"]["interval"] == [0.838, 0.882]

    def test_negative_zero_spread_is_zero_spread(self, tmp_path):
        reports = []
        for spread in (0.0, -0.0):
            config = tmp_path / "sim.json"
            config.write_text(json.dumps({
                "mode": "oracle",
                "matrices": {s.value: m for s, m in ALL_MATRICES.items()},
                "confidence_law": [0.97, 0.89, spread],
            }))
            out = tmp_path / f"reports{spread}"
            assert main(["simulate", str(config), "--n", "50", "--out", str(out)]) == EXIT_OK
            reports.append((out / "simulation.json").read_bytes())
        assert reports[0] == reports[1]

    def test_zero_trials_is_config_error(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"mode": "synth"}))
        assert main(["simulate", str(config), "--n", "0"]) == EXIT_CONFIG

    # sha256 of simulation.json as written before the synthetic generator
    # worked in blocks; n = 257 and 1100 cross block edges. Every wheel is
    # scored on both severity stages, so no run misses the vector of its
    # decided branch and reject_run writes the same bytes at any noise.
    SYNTH_REPORT_SHA256 = {
        (0.0, 257): "0f5038df07ae9280db0055ef1388871497ce4f9536d507cdb8ef80eb35b69d28",
        (0.0, 1100): "de5ef1317ef2183397b431c3dd416fa50d9b8f3eaf7d8eb12f269b6db14da639",
        (0.05, 257): "7cd569cd1d6e6f7b770550a48a43c06363f6f473885708db1398de2add2e19a6",
        (0.05, 1100): "fc60bba6e1145b93581276c02ab7d0e85b82abf2a48d686a7dc41fd257dbcdbc",
    }

    @pytest.mark.parametrize("policy", ["flag_only", "reject_run"])
    @pytest.mark.parametrize("noise_sigma, n", list(SYNTH_REPORT_SHA256))
    def test_synth_report_bytes_are_pinned(self, tmp_path, capsys, noise_sigma, n, policy):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"mode": "synth", "noise_sigma": noise_sigma}))
        engine_config = tmp_path / "engine.cfg"
        engine_config.write_text(f"conflict_policy = {policy}\n")
        out = tmp_path / "reports"
        argv = ["simulate", str(config), "--n", str(n), "--config", str(engine_config)]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        digest = hashlib.sha256((out / "simulation.json").read_bytes()).hexdigest()
        assert digest == self.SYNTH_REPORT_SHA256[noise_sigma, n]


    def test_oracle_helper_out_of_memory_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def no_room(*args):
            raise MemoryError("no room for the normals")

        monkeypatch.setattr(simulate, "_skip_normals", no_room)
        threads = threading.active_count()
        argv = _simulate(n_flag="1000")(tmp_path) + ["--out", str(tmp_path / "reports")]
        assert main(argv) == EXIT_CONFIG == 4
        assert capsys.readouterr().err == (
            "config error: simulation size 1000 is too large: no room for the normals\n"
        )
        assert threading.active_count() == threads


def test_cli_import_loads_no_pool_or_logging(tmp_path):
    # Both would add to every command's start-up; the oracle's helper is a plain thread.
    code = "import sys, flapwear.cli; print(sorted({'concurrent.futures', 'logging'} & {*sys.modules}))"
    env = {**os.environ, "PYTHONPATH": str(Path(flapwear.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr
    # Nor does a synth run load numpy.ma, which numpy 2 imports lazily, at about 10 ms.
    (tmp_path / "sim.json").write_text(json.dumps({"mode": "synth"}))
    argv = ["simulate", "sim.json", "--n", "300", "--out", "reports"]
    code = (
        "import sys, flapwear.cli; before = {*sys.modules}; "
        f"code = flapwear.cli.main({argv!r}); print(code, 'numpy.ma' in {{*sys.modules}} - before)"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert (run.returncode, run.stdout.splitlines()[-1:]) == (0, ["0 False"]), run.stderr


class TestPropagate:
    def _input(self, tmp_path, with_ledger=True, **ledger_overrides):
        payload = {
            "accuracies": {
                "usage": 0.986, "tear": 0.938, "profile": 0.954,
                "concave": 0.993, "convex": 0.950,
            }
        }
        if with_ledger:
            ledger = {
                "total_runs": 360,
                "total_errors": 45,
                "threshold_caught": {"usage": [11, 10], "tear": [11, 9]},
                "conflict_caught": 4,
            }
            ledger.update(ledger_overrides)
            payload["ledger"] = ledger
        path = tmp_path / "prop.json"
        path.write_text(json.dumps(payload))
        return path

    def test_paper_numbers(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["propagate", str(self._input(tmp_path)), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "propagation.json").read_text())
        assert report["path_accuracy"] == {
            "rectangular": 0.882, "concave": 0.876, "convex": 0.838,
        }
        assert report["interval"] == [0.838, 0.882]
        assert report["corrected_accuracy"] == [0.936, 0.947]

    def test_without_ledger(self, tmp_path):
        out = tmp_path / "reports"
        path = self._input(tmp_path, with_ledger=False)
        assert main(["propagate", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "propagation.json").read_text())
        assert "corrected_accuracy" not in report

    def test_inconsistent_ledger(self, tmp_path):
        path = self._input(tmp_path, total_errors=10)
        assert main(["propagate", str(path), "--out", str(tmp_path / "r")]) == EXIT_VALIDATION

    def test_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "prop.json"
        path.write_text("{broken")
        assert main(["propagate", str(path), "--out", str(tmp_path / "r")]) == EXIT_PARSE


class TestDeterminism:
    def _read_all(self, directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_all_commands_are_reproducible(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        write_lines(preds, consistent_tool_lines(run=0) + consistent_tool_lines(run=1))
        labeled = tmp_path / "labeled.jsonl"
        write_lines(labeled, usage_replay_lines([[20, 2], [3, 25]]))
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"mode": "synth", "n": 33}))
        prop = tmp_path / "prop.json"
        prop.write_text(
            json.dumps({"accuracies": {"usage": 0.986, "tear": 0.938, "profile": 0.954}})
        )
        commands = [
            ["classify", str(preds)],
            ["evaluate", str(labeled)],
            ["simulate", str(sim), "--seed", "9"],
            ["propagate", str(prop)],
        ]
        for i, argv in enumerate(commands):
            dir_a, dir_b = tmp_path / f"a{i}", tmp_path / f"b{i}"
            assert main(argv + ["--out", str(dir_a)]) == EXIT_OK
            assert main(argv + ["--out", str(dir_b)]) == EXIT_OK
            assert self._read_all(dir_a) == self._read_all(dir_b)


def _classify_file(content, command="classify"):
    def build(tmp_path):
        path = tmp_path / "preds.jsonl"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        return [command, str(path)]

    return build


def _propagate(accuracies=None, ledger=None):
    def build(tmp_path):
        payload = {"accuracies": accuracies or {"usage": 0.986, "tear": 0.938, "profile": 0.954}}
        if ledger is not None:
            payload["ledger"] = ledger
        path = tmp_path / "prop.json"
        path.write_text(json.dumps(payload))
        return ["propagate", str(path)]

    return build


def _propagate_payload(payload):
    def build(tmp_path):
        path = tmp_path / "prop.json"
        path.write_text(json.dumps(payload))
        return ["propagate", str(path)]

    return build


def _simulate(n_flag="10", matrices=ALL_MATRICES, **settings):
    def build(tmp_path):
        payload = {"mode": "oracle", "matrices": {s.value: m for s, m in matrices.items()}}
        payload.update(settings)
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(payload))
        return ["simulate", str(path)] + (["--n", n_flag] if n_flag else [])

    return build


def _sim_config_text(text):
    def build(tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(text)
        return ["simulate", str(path), "--n", "10"]

    return build


def _non_utf8_sim_config(tmp_path):
    path = tmp_path / "sim.json"
    path.write_bytes(b'{"mode": "\xff"}')
    return ["simulate", str(path)]


def _with_config(build, text):
    def wrapped(tmp_path):
        path = tmp_path / "flapwear.cfg"
        path.write_text(text)
        return build(tmp_path) + ["--config", str(path)]

    return wrapped


def _out_names_a_file(tmp_path):
    # The test appends --out tmp_path/reports; make that path an existing file.
    (tmp_path / "reports").write_text("not a directory\n")
    return _propagate()(tmp_path)


def _report_is_a_directory(build, name):
    # The test appends --out tmp_path/reports; put a directory where the report goes.
    def blocked(tmp_path):
        (tmp_path / "reports" / name).mkdir(parents=True)
        return build(tmp_path)

    return blocked


def _edge_lines(*names):
    """A classify call on a file of EDGE_LINES by name, None naming a valid line."""
    return _classify_file("".join((VALID_LINE if n is None else EDGE_LINES[n]) + "\n" for n in names))


TWO_RUNS = "\n".join(consistent_tool_lines(run=0) + consistent_tool_lines(run=1)) + "\n"
ONE_RUN = "\n".join(consistent_tool_lines()) + "\n"
LABELED = "\n".join(
    [record("usage", [0.2, 0.8], truth="used"), record("usage", [0.7, 0.3], image="b", truth="new")]
) + "\n"


@pytest.mark.parametrize(
    "build, code, prefix",
    [
        pytest.param(
            _classify_file(record("tear", [0.2, 0.8], view="radial") + "\n"),
            EXIT_VALIDATION, "validation error: line 1:", id="view-mismatch",
        ),
        pytest.param(
            lambda tmp_path: ["classify", str(tmp_path / "missing.jsonl")],
            EXIT_PARSE, "parse error: cannot read", id="missing-prediction-file",
        ),
        pytest.param(
            _classify_file(b"\xff\xfe\x00binary\n"),
            EXIT_PARSE, "parse error: cannot read", id="non-utf8-prediction-file",
        ),
        pytest.param(
            lambda tmp_path: ["classify", str(tmp_path)],
            EXIT_PARSE, "parse error: cannot read", id="directory-as-prediction-file",
        ),
        pytest.param(
            _propagate(accuracies={"usage": "0.986", "tear": 0.938, "profile": 0.954}),
            EXIT_VALIDATION, "validation error:", id="string-accuracy",
        ),
        pytest.param(
            _propagate(ledger={"total_runs": "360", "total_errors": 45}),
            EXIT_VALIDATION, "validation error:", id="string-ledger-total-runs",
        ),
        pytest.param(
            _simulate(matrices={s: m for s, m in ALL_MATRICES.items() if s.value != "tear"}),
            EXIT_CONFIG, "config error:", id="oracle-without-tear-matrix",
        ),
        pytest.param(
            _simulate(matrices={**ALL_MATRICES, StageId.USAGE: [[0, 0], [19, 1021]]}),
            EXIT_CONFIG, "config error: oracle matrix for usage: confusion matrix has an empty truth row",
            id="oracle-all-zero-truth-row",
        ),
        pytest.param(
            _simulate(matrices={**ALL_MATRICES, StageId.USAGE: [[0, 0], [0, 0]]}),
            EXIT_CONFIG, "config error: oracle matrix for usage: confusion matrix has an empty truth row",
            id="oracle-all-zero-usage-matrix",
        ),
        pytest.param(
            _simulate(
                matrices={**ALL_MATRICES, StageId.PROFILE: [[5, 1, 0], [0, 0, 0], [1, 2, 9]]}
            ),
            EXIT_CONFIG, "config error: oracle matrix for profile: confusion matrix has an empty truth row",
            id="oracle-empty-profile-row",
        ),
        pytest.param(
            _simulate(confidence_law=[0.4, 0.89, 0.03]),
            EXIT_CONFIG, "config error: confidence_law mean must be in (1/2, 1)",
            id="confidence-law-mean-below-one-half",
        ),
        pytest.param(
            _simulate(confidence_law=[0.97, 0.5, 0.03]),
            EXIT_CONFIG, "config error: confidence_law mean must be in (1/2, 1)",
            id="confidence-law-mean-of-one-half",
        ),
        pytest.param(
            _simulate(confidence_law=[1.0, 0.89, 0.03]),
            EXIT_CONFIG, "config error: confidence_law mean must be in (1/2, 1)",
            id="confidence-law-mean-of-one",
        ),
        pytest.param(
            _simulate(confidence_law=[0.97, float("nan"), 0.03]),
            EXIT_CONFIG, "config error: confidence_law mean must be in (1/2, 1)",
            id="confidence-law-nan-mean",
        ),
        pytest.param(
            _simulate(confidence_law=[0.97]),
            EXIT_CONFIG, "config error:", id="confidence-law-of-length-1",
        ),
        pytest.param(
            _simulate(n_flag=None, n="many"),
            EXIT_CONFIG, "config error:", id="non-numeric-n",
        ),
        pytest.param(
            _simulate(n_flag="11", mode="synth", noise_sigma="loud"),
            EXIT_CONFIG, "config error:", id="non-numeric-noise-sigma",
        ),
        pytest.param(
            _non_utf8_sim_config,
            EXIT_CONFIG, "config error: cannot read", id="non-utf8-sim-config",
        ),
        pytest.param(
            _out_names_a_file,
            EXIT_CONFIG, "config error: cannot create report directory", id="out-names-a-file",
        ),
        pytest.param(
            _simulate(matrices={**ALL_MATRICES, StageId.TEAR: [[419, 61], [11]]}),
            EXIT_CONFIG, "config error: oracle matrix for tear", id="ragged-oracle-matrix",
        ),
        pytest.param(
            _simulate(matrices={**ALL_MATRICES, StageId.TEAR: [[419, -61], [11, 662]]}),
            EXIT_CONFIG, "config error: oracle matrix for tear", id="negative-oracle-count",
        ),
        pytest.param(
            _propagate(accuracies=[0.9, 0.9, 0.9]),
            EXIT_CONFIG, "config error:", id="list-valued-accuracies",
        ),
        pytest.param(
            _classify_file(record("usage", [10**400, 0]) + "\n"),
            EXIT_VALIDATION, "validation error: line 1: probability outside [0, 1]",
            id="integer-probability-too-large-for-a-float",
        ),
        pytest.param(
            _propagate_payload({"ledger": {}}),
            EXIT_CONFIG, "config error: propagation input needs an accuracies object",
            id="propagate-without-accuracies",
        ),
        pytest.param(
            _classify_file('{"image_id": ' + "1" * 5000 + "}\n"),
            EXIT_PARSE, "parse error: line 1: invalid JSON", id="integer-literal-too-long",
        ),
        pytest.param(
            _classify_file("[" * 100_000 + "\n"),
            EXIT_PARSE, "parse error: line 1: invalid JSON", id="json-nested-too-deep",
        ),
        pytest.param(
            _simulate(n_flag="11", mode="synth", noise_sigma=float("nan")),
            EXIT_VALIDATION, "validation error: noise_sigma must be finite", id="nan-noise-sigma",
        ),
        pytest.param(
            _simulate(n_flag="11", mode="synth", noise_sigma=float("inf")),
            EXIT_VALIDATION, "validation error: noise_sigma must be finite",
            id="infinite-noise-sigma",
        ),
        pytest.param(
            _with_config(_propagate(), "rounding = 40\n"),
            EXIT_CONFIG, "config error: rounding must be 1 to 27 decimals", id="rounding-40",
        ),
        pytest.param(
            lambda tmp_path: _simulate(n_flag="11", mode="synth")(tmp_path) + ["--seed", "-1"],
            EXIT_CONFIG, "config error: seed must be >= 0", id="negative-seed",
        ),
        pytest.param(
            _simulate(confidence_law=[0.97, 0.89, -1]),
            EXIT_CONFIG, "config error: confidence_law spread must be finite and >= 0",
            id="negative-confidence-spread",
        ),
        pytest.param(
            _simulate(confidence_law=[0.97, 0.89, float("nan")]),
            EXIT_CONFIG, "config error: confidence_law spread must be finite and >= 0",
            id="nan-confidence-spread",
        ),
        pytest.param(
            _classify_file(record("usage", [-0.0, -0.0]) + "\n"),
            EXIT_VALIDATION, "validation error: line 1: probabilities sum to 0.0 (deviation -1)\n",
            id="negative-zero-probabilities",
        ),
        pytest.param(
            _classify_file(record("usage", [10**400, 0, 0]) + "\n"),
            EXIT_VALIDATION,
            "validation error: line 1: probability outside [0, 1]: int too large to convert to float\n",
            id="integer-too-large-in-a-vector-of-the-wrong-length",
        ),
        pytest.param(
            _simulate(n_flag=str(10**15), mode="synth"),
            EXIT_CONFIG, f"config error: simulation size {10**15} is too large: ",
            id="synth-n-too-large-to-allocate",
        ),
        pytest.param(
            _simulate(n_flag=str(10**15)),
            EXIT_CONFIG, f"config error: simulation size {10**15} is too large: ",
            id="oracle-n-too-large-to-allocate",
        ),
        pytest.param(
            _simulate(n_flag=str(10**30), mode="synth"),
            EXIT_CONFIG, f"config error: simulation size {10**30} is too large\n",
            id="n-past-the-array-size-limit",
        ),
        pytest.param(
            _report_is_a_directory(_classify_file(TWO_RUNS), "runs.jsonl"),
            EXIT_CONFIG, "config error: cannot write ", id="runs.jsonl-is-a-directory",
        ),
        pytest.param(
            _report_is_a_directory(_classify_file(TWO_RUNS), "ensembles.jsonl"),
            EXIT_CONFIG, "config error: cannot write ", id="ensembles.jsonl-is-a-directory",
        ),
        pytest.param(
            _report_is_a_directory(_classify_file(ONE_RUN), "ensembles.jsonl"),
            EXIT_CONFIG, "config error: cannot remove stale ",
            id="stale-ensembles.jsonl-is-a-directory",
        ),
        pytest.param(
            _report_is_a_directory(_classify_file(LABELED, "evaluate"), "tear_roc.csv"),
            EXIT_CONFIG, "config error: cannot remove stale ",
            id="stale-tear_roc.csv-is-a-directory",
        ),
        pytest.param(
            _report_is_a_directory(_classify_file(LABELED, "evaluate"), "summary.json"),
            EXIT_CONFIG, "config error: cannot write ", id="summary.json-is-a-directory",
        ),
        pytest.param(
            _report_is_a_directory(_classify_file(LABELED, "evaluate"), "usage_confusion.csv"),
            EXIT_CONFIG, "config error: cannot write ", id="usage_confusion.csv-is-a-directory",
        ),
        pytest.param(
            _report_is_a_directory(_classify_file(LABELED, "evaluate"), "usage_roc.csv"),
            EXIT_CONFIG, "config error: cannot write ", id="usage_roc.csv-is-a-directory",
        ),
        pytest.param(
            _report_is_a_directory(_simulate(n_flag="11", mode="synth"), "simulation.json"),
            EXIT_CONFIG, "config error: cannot write ", id="simulation.json-is-a-directory",
        ),
        pytest.param(
            _report_is_a_directory(_propagate(), "propagation.json"),
            EXIT_CONFIG, "config error: cannot write ", id="propagation.json-is-a-directory",
        ),
        pytest.param(
            _simulate(matrices={**ALL_MATRICES, StageId.USAGE: [[1e308, 1e308], [19, 1021]]}),
            EXIT_CONFIG, "config error: oracle matrix for usage: confusion counts overflow",
            id="oracle-row-total-overflows",
        ),
        pytest.param(
            _simulate(matrices={**ALL_MATRICES, StageId.USAGE: [[1e308, 0], [0, 1e308]]}),
            EXIT_CONFIG, "config error: oracle matrix for usage: confusion counts overflow",
            id="oracle-matrix-total-overflows",
        ),
        pytest.param(
            _simulate(matrices={**ALL_MATRICES, StageId.USAGE: [[458, True], [19, 1021]]}),
            EXIT_CONFIG, "config error: oracle matrix for usage: confusion counts must be a matrix",
            id="bool-oracle-count",
        ),
        pytest.param(
            _simulate(matrices={**ALL_MATRICES, StageId.USAGE: [[458, "5"], [19, 1021]]}),
            EXIT_CONFIG, "config error: oracle matrix for usage: confusion counts must be a matrix",
            id="string-oracle-count",
        ),
        pytest.param(
            _simulate(matrices={**ALL_MATRICES, StageId.PROFILE: ALL_MATRICES[StageId.USAGE]}),
            EXIT_CONFIG, "config error: profile rows must be 3x3, got shape (2, 2)",
            id="oracle-matrix-of-the-wrong-size",
        ),
        pytest.param(
            _simulate(confidence_law=["0.97", 0.89, 0.03]),
            EXIT_CONFIG, "config error: confidence_law must be three numbers",
            id="string-confidence-mean",
        ),
        pytest.param(
            _simulate(n_flag=None, n=2.7),
            EXIT_CONFIG, "config error: simulation size must be an integer", id="fractional-n",
        ),
        pytest.param(
            _simulate(n_flag=None, n=True),
            EXIT_CONFIG, "config error: simulation size must be an integer", id="bool-n",
        ),
        pytest.param(
            _simulate(n_flag=None, n="11"),
            EXIT_CONFIG, "config error: simulation size must be an integer", id="numeric-string-n",
        ),
        pytest.param(
            _simulate(n_flag=None, n=float("inf")),
            EXIT_CONFIG, "config error: simulation size must be an integer", id="infinite-n",
        ),
        pytest.param(
            _simulate(n_flag="11", mode="synth", noise_sigma=True),
            EXIT_CONFIG, "config error: noise_sigma must be a number", id="bool-noise-sigma",
        ),
        pytest.param(
            _simulate(n_flag="11", mode="synth", noise_sigma="inf"),
            EXIT_CONFIG, "config error: noise_sigma must be a number", id="string-noise-sigma",
        ),
        pytest.param(
            _simulate(confidence_laws=[0.97, 0.89, 0.03]),
            EXIT_CONFIG, "config error: unknown simulation config key 'confidence_laws'",
            id="unknown-simulation-config-key",
        ),
        pytest.param(
            _simulate(mode=["oracle"]),
            EXIT_CONFIG, "config error: unknown simulation mode ['oracle']", id="list-valued-mode",
        ),
        pytest.param(
            _sim_config_text('{"n": ' + "1" * 5000 + "}"),
            EXIT_PARSE, "parse error: invalid JSON in ", id="sim-config-integer-literal-too-long",
        ),
        pytest.param(
            _sim_config_text("[" * 100_000),
            EXIT_PARSE, "parse error: invalid JSON in ", id="sim-config-nested-too-deep",
        ),
        pytest.param(
            _propagate_payload([0.986, 0.938, 0.954]),
            EXIT_PARSE, "parse error: propagation input must be a JSON object",
            id="propagation-input-not-an-object",
        ),
        pytest.param(
            _propagate_payload({"accuracies": {"usage": 0.986, "tear": 0.938, "profile": 0.954},
                                "legder": {}}),
            EXIT_CONFIG, "config error: unknown propagation input key 'legder'",
            id="unknown-propagation-input-key",
        ),
        pytest.param(
            _propagate(accuracies={"usage": 0.986, "tear": 0.938, "profile": 0.954, "concav": 0.5}),
            EXIT_CONFIG, "config error: bad accuracies: ", id="unknown-accuracy",
        ),
        pytest.param(
            # Named as the input names it, not as the StageAccuracies field j_concave_severity.
            _propagate(accuracies={"usage": 0.986, "tear": 0.938, "profile": 0.954,
                                   "concave_severity": 0.95}),
            EXIT_CONFIG, "config error: bad accuracies: unknown accuracy 'concave_severity'\n",
            id="stage-id-as-accuracy-name",
        ),
        pytest.param(
            _propagate(accuracies={"usage": 0.986, "tear": 0.938}),
            EXIT_CONFIG, "config error: bad accuracies: missing accuracy 'profile'\n",
            id="missing-accuracy",
        ),
        pytest.param(
            _propagate(accuracies={"usage": True, "tear": 0.938, "profile": 0.954}),
            EXIT_VALIDATION, "validation error: accuracy 'usage' must be a number in [0, 1], got True",
            id="bool-accuracy",
        ),
        pytest.param(
            _propagate(ledger={"total_runs": 360, "total_errors": 45, "threshold_caught": []}),
            EXIT_CONFIG, "config error: bad ledger: ", id="list-valued-threshold-caught",
        ),
        pytest.param(
            _propagate(ledger={"total_runs": 360, "total_errors": 45, "conflict_cought": 4}),
            EXIT_CONFIG, "config error: bad ledger: ", id="unknown-ledger-key",
        ),
        pytest.param(
            _propagate(ledger={"total_runs": 1e400, "total_errors": 45}),
            EXIT_VALIDATION, "validation error: ledger counts must be finite numbers",
            id="infinite-ledger-total-runs",
        ),
        pytest.param(
            _propagate(ledger={"total_runs": True, "total_errors": 0}),
            EXIT_VALIDATION, "validation error: ledger counts must be finite numbers",
            id="bool-ledger-total-runs",
        ),
        pytest.param(
            _propagate(ledger={"total_runs": 360, "total_errors": 45,
                               "threshold_caught": {"usage": [float("nan"), 0]}}),
            EXIT_VALIDATION, "validation error: ledger counts must be finite numbers",
            id="nan-threshold-catch",
        ),
        pytest.param(
            _propagate(ledger={"total_runs": 360, "total_errors": 45,
                               "threshold_caught": {"usage": [11, 10, 9]}}),
            EXIT_VALIDATION, "validation error: threshold_caught for usage must be two counts",
            id="threshold-catch-of-three-counts",
        ),
        pytest.param(
            _propagate(ledger={"total_runs": 360, "total_errors": 45,
                               "conflicts_overlap_thresholds": "no"}),
            EXIT_VALIDATION, "validation error: conflicts_overlap_thresholds must be a bool",
            id="string-overlap-flag",
        ),
        # The edge lines of JSON, each with the stderr that parsing every line
        # with json.loads gave. NaN and Infinity are floats the fast path
        # takes, refused by the vector rule; the others go through the error
        # path. No line is accepted by the C scanner but refused by
        # json.loads: both refuse a BOM, the only text json.loads rejects
        # before scanning.
        pytest.param(
            _edge_lines("bom"),
            EXIT_PARSE,
            "parse error: line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)\n",
            id="bom-on-line-1",
        ),
        pytest.param(
            _edge_lines(None, None, "bom"),
            EXIT_PARSE,
            "parse error: line 3: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)\n",
            id="bom-on-line-3",
        ),
        pytest.param(
            _edge_lines(None, "nested-too-deep"),
            EXIT_PARSE,
            "parse error: line 2: invalid JSON: maximum recursion depth exceeded while decoding a"
            " JSON array from a unicode string\n",
            id="probs-nested-too-deep",
        ),
        pytest.param(
            _edge_lines(None, "integer-literal-too-long"),
            EXIT_PARSE,
            "parse error: line 2: invalid JSON: Exceeds the limit (4300 digits) for integer string"
            " conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase the"
            " limit\n",
            id="probability-literal-too-long",
        ),
        pytest.param(
            _edge_lines(None, "integer-too-large-for-a-float"),
            EXIT_VALIDATION,
            "validation error: line 2: probability outside [0, 1]: int too large to convert to"
            " float\n",
            id="probability-too-large-for-a-float-after-a-valid-line",
        ),
        pytest.param(
            _edge_lines(None, "nan"),
            EXIT_VALIDATION, "validation error: line 2: probability nan outside [0, 1]\n",
            id="nan-probability",
        ),
        pytest.param(
            _edge_lines(None, "infinity"),
            EXIT_VALIDATION, "validation error: line 2: probability inf outside [0, 1]\n",
            id="infinite-probability",
        ),
        pytest.param(
            _edge_lines(None, "true"),
            EXIT_PARSE, "parse error: line 2: probs must be an array of numbers\n",
            id="bool-probability",
        ),
        pytest.param(
            _edge_lines(None, "two-objects"),
            EXIT_PARSE, "parse error: line 2: invalid JSON: Extra data\n", id="two-objects-on-a-line",
        ),
        pytest.param(
            _edge_lines(None, "duplicate-stage"),
            EXIT_VALIDATION,
            "validation error: line 2: stage usage requires the radial view, got axial\n",
            id="duplicate-stage-key",
        ),
        pytest.param(
            _propagate(accuracies={"usage": 0.986, "tear": 0.938, "profile": 0.954, "con\ncav": 1}),
            EXIT_CONFIG, "config error: bad accuracies: ", id="accuracy-name-with-a-line-break",
        ),
        pytest.param(
            _propagate(ledger={"total_runs": 360, "total_errors": 45, "conflict\ncaught": 4}),
            EXIT_CONFIG, "config error: bad ledger: ", id="ledger-key-with-a-line-break",
        ),
        pytest.param(
            _simulate(n_flag="2.5", mode="synth"),
            EXIT_CONFIG, "config error: simulation size must be an integer, got '2.5'\n",
            id="fractional-n-flag",
        ),
        pytest.param(
            lambda tmp_path: _simulate(n_flag="11", mode="synth")(tmp_path) + ["--seed", "x"],
            EXIT_CONFIG, "config error: seed must be an integer, got 'x'\n", id="non-numeric-seed-flag",
        ),
    ],
)
def test_bad_input_ends_in_exit_code_not_traceback(tmp_path, capsys, build, code, prefix):
    argv = build(tmp_path) + ["--out", str(tmp_path / "reports")]
    try:
        exit_code = main(argv)
    except Exception as exc:
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert exit_code == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and err.endswith("\n"), err


def test_non_string_ids_are_converted_with_str(tmp_path):
    preds = tmp_path / "preds.jsonl"
    write_lines(preds, consistent_tool_lines(tool=7))
    out = tmp_path / "reports"
    assert main(["classify", str(preds), "--out", str(out)]) == EXIT_OK
    (run,) = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
    assert run["tool_id"] == "7" and run["verdict"] == "outcome"


@pytest.mark.parametrize("key", ["tool_id", "image_id"])
@pytest.mark.parametrize(
    "value, kind",
    [
        (None, "null"),
        (True, "a boolean"),
        (7.0, "a float"),
        ([1, 2], "an array"),
        ({"id": 7}, "an object"),
    ],
    ids=["null", "bool", "float", "array", "object"],
)
def test_ids_other_than_strings_and_integers_are_parse_errors(tmp_path, capsys, key, value, kind):
    # Converted with str, a null tool id would join the run of a tool named "None".
    lines = consistent_tool_lines(tool="None")
    bad = json.loads(lines[2])
    bad[key] = value
    lines[2] = json.dumps(bad)
    preds = tmp_path / "preds.jsonl"
    write_lines(preds, lines)
    assert main(["classify", str(preds), "--out", str(tmp_path / "reports")]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"parse error: line 3: {key} must be a string or an integer, got {kind}\n"
    )


@pytest.mark.parametrize(
    "build, key",
    [
        pytest.param(
            _propagate(accuracies={"usage": 0.986, "tear": 0.938, "profile": 0.954, "concav": 1}),
            "concav", id="accuracy",
        ),
        pytest.param(
            _propagate(ledger={"total_runs": 360, "total_errors": 45, "conflict_cought": 4}),
            "conflict_cought", id="ledger",
        ),
        pytest.param(_simulate(confidence_laws=[0.97, 0.89, 0.03]), "confidence_laws", id="simulate"),
        pytest.param(_with_config(_propagate(), "rounding_digits = 2\n"), "rounding_digits", id="config"),
    ],
)
def test_unknown_key_is_named(tmp_path, capsys, build, key):
    assert main(build(tmp_path) + ["--out", str(tmp_path / "reports")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and err.count("\n") == 1
    assert not (tmp_path / "reports").exists()
