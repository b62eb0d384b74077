"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"classify-mixed": 60, "evaluate-labeled": 60, "simulate-synth": 22, "simulate-oracle": 20000}

# Layers each workload must reach; a traced run reports calls and time for them.
REACHED = {
    "classify-mixed": (
        "predictions.parse_prediction_file", "predictions.validate_vector",
        "predictions.argmax_class", "predictions.confidence", "engine.classify_run",
        "engine.ensemble_classify", "engine.to_record", "taxonomy.check_consistency",
        "taxonomy.outcome_from_parts", "cli.main",
    ),
    "evaluate-labeled": (
        "predictions.parse_prediction_file", "predictions.validate_vector",
        "metrics.accumulate", "metrics.roc_curve", "metrics.matrix_summary",
        "metrics.confidence_stats", "metrics.write_confusion_csv", "metrics.round_report",
    ),
    "simulate-synth": (
        "synth.generate_observation", "synth.observation_vectors", "engine.classify_run",
        "simulate.run_synthetic_batch", "simulate.spec_for_outcome",
    ),
    "simulate-oracle": (
        "synth.sample_oracle_predictions", "simulate.oracle_branch_trials",
        "simulate.run_oracle_batch", "propagation.propagation_report",
    ),
}


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _measure(name, trace, tmp_path):
    work = tmp_path / f"{name}-{trace}"
    work.mkdir()
    return run.measure(ROOT / "src", WORKLOADS[name], 3, 0, trace, work, TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced(name, tmp_path, benchmark_json):
    result, notes = _measure(name, False, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], notes
    assert result["attempted"] >= 1
    # Items are counted once, however many repetitions checked them.
    if name == "simulate-synth":
        assert result["attempted"] == TINY[name]
    if name == "simulate-oracle":
        assert result["attempted"] == 3
    expected ={m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if name == "classify-mixed":
        # Severity vectors are paired to runs by position within a tool, so
        # mixed rectangular/shaped tools get wrong or incomplete verdicts.
        assert result["failed"] > 0
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced(name, tmp_path, benchmark_json):
    result, notes = _measure(name, True, tmp_path)
    assert result["correct"], notes
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for layer in REACHED[name]:
        for suffix in (".calls", ".self_s"):
            if layer + suffix in metrics:
                assert metrics[layer + suffix]["value"] > 0, layer + suffix
    if name in ("classify-mixed", "evaluate-labeled"):
        assert metrics["predictions.validate_per_vector"]["value"] >= 1.0


def test_benchmark_json_matches_the_runner(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert end_to_end == run.END_TO_END
    assert [m["name"] for m in benchmark_json["per_layer"]] == list(run.per_layer_units())
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
    setup = next(m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark_json["end_to_end"])


def test_self_times_of_a_hand_built_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9].
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [spans.NO_PARENT, 0, 1, 0]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nested_spans(tmp_path):
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: 1)
    outer = tracer.wrap("outer", lambda: sum(leaf() for _ in range(3)))
    assert outer() == 3
    tracer.save(tmp_path / "spans.npz")
    summary = spans.summarize(tmp_path / "spans.npz")
    assert summary["leaf"]["calls"] == 3 and summary["outer"]["calls"] == 1
    with np.load(tmp_path / "spans.npz") as saved:
        assert saved["parent"].tolist() == [spans.NO_PARENT, 0, 0, 0]
        root_s = saved["end"][0] - saved["start"][0]
    # Self times partition the root span.
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(root_s)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    dirs = []
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        work = tmp_path / label
        work.mkdir()
        WORKLOADS[name].generate(work, seed, TINY[name])
        dirs.append({p.name: p.read_bytes().replace(str(work).encode(), b"") for p in work.iterdir()})
    assert dirs[0] == dirs[1]
    if name in ("classify-mixed", "evaluate-labeled"):
        assert dirs[0] != dirs[2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
