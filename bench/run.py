"""flapwear benchmark: one workload, timed through ``flapwear.cli.main``.

Run from the root of a checkout:

    python3 bench/run.py --workload classify-mixed --seed 1 --seconds 20 --trace 0

The inputs are generated from the seed into ``.bench_work/``. Each
repetition runs ``cli.main`` once in a fresh child process, writes its
reports to a fresh directory and is checked against the generated
expected results; the reports of all repetitions must be byte-identical.
Repetitions run one at a time while the next one is expected to end
within ``--seconds`` (at least MIN_REPS). With ``--trace 0`` the
end-to-end metrics are reported, as times scaled to the reference
machine of ``reference.py``; with ``--trace 1`` untraced and traced
repetitions alternate and the per-layer metrics are reported, unscaled.
Every metric is printed by name with its unit; the last line is one JSON
object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from reference import REFERENCE_S, reference_time
from workloads import WORKLOADS, Inputs, Workload

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
MIN_REPS = 3
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150
# A traced repetition's self times must add up to its wall time within the
# measured tracing overhead plus this slack for the outermost wrapper.
SELF_SUM_SLACK_S = 1e-3

END_TO_END = {"wall_s": "s", "units_per_s": "units/s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, calls, self_time in spans.LAYERS:
        if calls:
            units[f"{name}.calls"] = "count"
        if self_time:
            units[f"{name}.self_s"] = "s"
    units["predictions.vectors_parsed"] = "count"
    units["predictions.validate_per_vector"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass(frozen=True)
class Rep:
    traced: bool
    wall_s: float
    reference_s: float  # mean time of the reference work just before and after the call
    peak_rss_mb: float
    failed: int
    digest: str
    problem: str | None  # why the repetition's reports could not be checked
    layers: dict | None  # span name -> {"calls", "self_s"} for a traced repetition


def report_digest(out: Path) -> str:
    """Hash of every report file's name and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def repetition(src: Path, workload: Workload, inputs: Inputs, work: Path, k: int, traced: bool) -> Rep:
    out, result = work / f"out-{k}", work / f"result-{k}.json"
    span_file = work / f"spans-{k}.npz"
    cmd = [sys.executable, str(CHILD), str(src), str(result), str(span_file) if traced else "-",
           *inputs.argv, "--out", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {k} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition {k} crashed:\n{proc.stderr.strip()}")
    res = json.loads(result.read_text(encoding="utf-8"))
    failed, digest, problem = inputs.checked, "", None  # unchecked reports fail every unit
    if res["exit_code"] != 0:
        problem = f"repetition {k} exited with {res['exit_code']}" + (
            f" ({res['error']})" if res["error"] else "")
    else:
        try:
            failed, digest = workload.check(out, work), report_digest(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"repetition {k} wrote unreadable reports: {exc!r}"
    layers = spans.summarize(span_file) if traced else None
    shutil.rmtree(out, ignore_errors=True)
    return Rep(traced, res["wall_s"], res["reference_s"], res["peak_rss_mb"], failed, digest,
               problem, layers)


def scaled(seconds: float, reference_s: float) -> float:
    """A time taken at reference time ``reference_s``, as on the reference machine."""
    return seconds * REFERENCE_S / reference_s


def setup_time(src: Path) -> float:
    """Median time for a fresh interpreter to import flapwear.cli, scaled.

    Each sample is scaled by the reference work timed in this process
    right after it.
    """
    cmd = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import flapwear.cli",
           str(src)]
    subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S)  # writes the bytecode caches
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S)
        samples.append(scaled(time.perf_counter() - t0, reference_time()))
    return statistics.median(samples)


def layer_metrics(traced: list[Rep], untraced: list[Rep], inputs: Inputs) -> dict[str, float]:
    def calls(name):
        return traced[0].layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return statistics.median(r.layers.get(name, {}).get("self_s", 0.0) for r in traced)

    values = {}
    for name, with_calls, with_self in spans.LAYERS:
        if with_calls:
            values[f"{name}.calls"] = calls(name)
        if with_self:
            values[f"{name}.self_s"] = self_s(name)
    values["predictions.vectors_parsed"] = inputs.vectors_parsed
    values["predictions.validate_per_vector"] = (
        calls("predictions.validate_vector") / inputs.vectors_parsed if inputs.vectors_parsed else 0.0
    )
    values["trace.wall_s"] = statistics.median(r.wall_s for r in traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(r.wall_s for r in untraced)
    return values


def measure(src: Path, workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, size: int | None = None) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and notes for the reader.

    The notes give the repetition counts and every failed check.
    """
    inputs = workload.generate(work, seed, workload.size if size is None else size)
    setup_s = None if trace else setup_time(src)

    modes = (False, True) if trace else (False,)
    reps: list[Rep] = []
    t0 = time.perf_counter()
    round_s = []  # duration of each round of one repetition per mode
    while len(round_s) < MIN_REPS or (
        time.perf_counter() - t0 + statistics.median(round_s) <= seconds
    ):
        t_round = time.perf_counter()
        for traced in modes:
            reps.append(repetition(src, workload, inputs, work, len(reps), traced))
        round_s.append(time.perf_counter() - t_round)
    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]

    problems = [r.problem for r in reps if r.problem]
    if len({r.digest for r in reps}) != 1:
        problems.append("reports differ between repetitions")
    if len({r.failed for r in reps}) != 1:
        problems.append("failed counts differ between repetitions")

    if trace:
        metrics = layer_metrics(traced, untraced, inputs)
        call_counts = [{n: v["calls"] for n, v in r.layers.items()} for r in traced]
        if any(c != call_counts[0] for c in call_counts):
            problems.append("call counts differ between traced repetitions")
        slack = max(metrics["trace.overhead_s"], 0.0) + SELF_SUM_SLACK_S
        for r in traced:
            self_sum = sum(v["self_s"] for v in r.layers.values())
            if abs(self_sum - r.wall_s) > slack:
                problems.append(f"self times sum to {self_sum:.6f} s, traced wall is {r.wall_s:.6f} s")
        units = per_layer_units()
    else:
        walls = [scaled(r.wall_s, r.reference_s) for r in untraced]
        metrics = {
            "wall_s": statistics.median(walls),
            "units_per_s": statistics.median(inputs.units / w for w in walls),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
            "setup_s": setup_s,
        }
        units = END_TO_END

    # Every repetition checks the same items, so a result counts them once
    # and reports the repetition with the most failures.
    attempted = inputs.checked
    failed = max(r.failed for r in reps)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    notes = [
        f"repetitions: {len(untraced)} untraced, {len(traced)} traced",
        f"unscaled wall_s median {statistics.median(r.wall_s for r in untraced):.6g} s, "
        f"reference work median {statistics.median(r.reference_s for r in untraced):.6g} s "
        f"(reference machine {REFERENCE_S} s)",
    ]
    notes += [f"check failed: {problem}" for problem in problems]
    return result, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "flapwear" / "cli.py").is_file():
        print(f"no flapwear sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, notes = measure(src, WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace), work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    for note in notes:
        print(note)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_share {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} checked units)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
