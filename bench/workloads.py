"""Seeded inputs, expected results and output checks for the benchmark workloads.

Each workload writes its input files and an ``expected.json`` into a work
directory, names the ``flapwear`` command line that consumes them, and
checks one report directory against the expected file. The expected
results come from this module's own copy of the decision rules (argmax
with ties to the lowest index, the 11-outcome table, the new-wheel
conflicts), never from the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

STAGE_CLASSES = {
    "usage": ("new", "used"),
    "profile": ("rectangular", "concave", "convex"),
    "tear": ("with_tear", "no_tear"),
    "concave_severity": ("fully", "partially"),
    "convex_severity": ("fully", "partially"),
}
STAGE_VIEW = {stage: "axial" if stage == "tear" else "radial" for stage in STAGE_CLASSES}

# (id, usage, profile, tear, severity): the paper's 11 consistent outcomes.
OUTCOMES = (
    (1, "new", "rectangular", "no_tear", None),
    (2, "used", "rectangular", "no_tear", None),
    (3, "used", "rectangular", "with_tear", None),
    (4, "used", "concave", "no_tear", "partially"),
    (5, "used", "concave", "with_tear", "partially"),
    (6, "used", "concave", "no_tear", "fully"),
    (7, "used", "concave", "with_tear", "fully"),
    (8, "used", "convex", "no_tear", "partially"),
    (9, "used", "convex", "with_tear", "partially"),
    (10, "used", "convex", "no_tear", "fully"),
    (11, "used", "convex", "with_tear", "fully"),
)
OUTCOME_ID = {tuple(parts): oid for oid, *parts in OUTCOMES}

# Test-set confusion matrices of the paper's five staged classifiers
# (rows = true class, cols = predicted class, in STAGE_CLASSES order).
PAPER_MATRICES = {
    "usage": [[458, 2], [19, 1021]],
    "profile": [[1165, 0, 0], [40, 1212, 107], [15, 1, 1024]],
    "tear": [[419, 61], [11, 662]],
    "concave_severity": [[157, 3], [0, 280]],
    "convex_severity": [[141, 19], [0, 220]],
}
BRANCH_STAGES = {
    "rectangular": ("usage", "tear", "profile"),
    "concave": ("usage", "tear", "profile", "concave_severity"),
    "convex": ("usage", "tear", "profile", "convex_severity"),
}

# Default confidence gates of the engine; classify vectors cluster around them.
GATES = {"usage": 0.91, "tear": 0.79}
GATE_NEAR_SHARE = 0.45
GATE_HALF_WIDTH = 0.02
TIE_SHARE = 0.01
CONFLICT_SHARE = 0.05
ORACLE_TOLERANCE = 0.01


def argmax(probs) -> int:
    """Index of the largest entry; ties go to the lowest index."""
    best = 0
    for i, p in enumerate(probs):
        if p > probs[best]:
            best = i
    return best


def expected_verdict(usage: str, profile: str, tear: str, severity: str | None):
    """(verdict, outcome id) for one run's stage decisions."""
    if usage == "new" and (tear == "with_tear" or profile != "rectangular"):
        return "conflicted", None
    return "outcome", OUTCOME_ID[(usage, profile, tear, severity)]


def _vector(rng: random.Random, n: int, cls: int, conf: int, scale: int) -> list[float]:
    """Probabilities in units of 1/scale, with ``conf`` units on class ``cls``.

    The remaining mass goes to the other classes, each below ``conf``,
    so ``cls`` is the strict argmax. Working in integer units keeps the
    sum within float rounding of 1 and every entry non-negative.
    """
    units = [0] * n
    units[cls] = conf
    rest = scale - conf
    others = [i for i in range(n) if i != cls]
    for i in others[:-1]:
        units[i] = rng.randint(0, rest)
        rest -= units[i]
    units[others[-1]] = rest
    return [u / scale for u in units]


def _tie(n: int) -> list[float]:
    """A vector whose two leading classes tie; argmax picks class 0."""
    return [0.5, 0.5] if n == 2 else [0.4, 0.4, 0.2]


def _record(image_id: str, tool_id: str, stage: str, probs, truth: str | None = None) -> str:
    rec = {"image_id": image_id, "tool_id": tool_id, "view": STAGE_VIEW[stage],
           "stage": stage, "probs": probs}
    if truth is not None:
        rec["truth"] = truth
    return json.dumps(rec)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


@dataclass(frozen=True)
class Inputs:
    """What one generated workload hands to the command line and the checks."""

    argv: list[str]  # flapwear arguments without --out
    units: int  # work units per command: records, wheels or trials per branch
    vectors_parsed: int  # probability vectors in the input file
    checked: int  # items one correctness check compares: runs, records, wheels or branches


# ---------------------------------------------------------------- classify


def _classify_vector(rng: random.Random, stage: str, cls: int) -> list[float]:
    n = len(STAGE_CLASSES[stage])
    if cls == 0 and rng.random() < TIE_SHARE:
        return _tie(n)
    if stage in GATES and rng.random() < GATE_NEAR_SHARE:
        gate = round(GATES[stage] * 1000)
        conf = rng.randint(gate - round(GATE_HALF_WIDTH * 1000), gate + round(GATE_HALF_WIDTH * 1000))
    else:
        conf = rng.randint(520, 999)
    return _vector(rng, n, cls, conf, 1000)


def _classify_run_parts(rng: random.Random):
    """Stage decisions of one run: a consistent outcome or a planted conflict."""
    if rng.random() < CONFLICT_SHARE:
        profile, tear = rng.choice(
            [("rectangular", "with_tear"), ("concave", "no_tear"), ("convex", "no_tear"),
             ("concave", "with_tear"), ("convex", "with_tear")]
        )
        severity = rng.choice(["fully", "partially"]) if profile != "rectangular" else None
        return "new", profile, tear, severity
    _, usage, profile, tear, severity = rng.choice(OUTCOMES)
    return usage, profile, tear, severity


def generate_classify(work: Path, seed: int, size: int) -> Inputs:
    """``size`` tools with 1-6 runs each (mean 4), one record per stage decision.

    Runs of one tool are written in capture order: the usage, profile
    and severity records of a run share its radial image id, the tear
    record has its own axial image id. Rectangular and shaped runs mix
    within a tool.
    """
    rng = random.Random(f"classify-mixed/{seed}")
    expected = []
    n_records = 0
    with open(work / "predictions.jsonl", "w", encoding="utf-8") as fh:
        for t in range(size):
            tool = f"tool-{t:05d}"
            n_runs = rng.choices(range(1, 7), weights=(1, 1, 2, 3, 3, 2))[0]
            for r in range(n_runs):
                usage, profile, tear, severity = _classify_run_parts(rng)
                radial, axial = f"{tool}-run{r}-radial", f"{tool}-run{r}-axial"
                stages = [("usage", usage, radial), ("profile", profile, radial),
                          ("tear", tear, axial)]
                if severity is not None:
                    stages.append((f"{profile}_severity", severity, radial))
                for stage, cls_name, image in stages:
                    cls = STAGE_CLASSES[stage].index(cls_name)
                    fh.write(_record(image, tool, stage, _classify_vector(rng, stage, cls)) + "\n")
                n_records += len(stages)
                expected.append([tool, r, *expected_verdict(usage, profile, tear, severity)])
    _write_json(work / "expected.json", {"runs": expected})
    return Inputs(["classify", str(work / "predictions.jsonl")], n_records, n_records, len(expected))


def check_classify(out: Path, work: Path) -> int:
    """Verdict and outcome id of every run against the expected file."""
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))["runs"]
    got = {}
    with open(out / "runs.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            got[(rec["tool_id"], rec["run_index"])] = (rec["verdict"], rec["outcome_id"])
    failed = sum(
        got.get((tool, r)) != (verdict, outcome_id) for tool, r, verdict, outcome_id in expected
    )
    return failed + max(0, len(got) - len(expected))


# ---------------------------------------------------------------- evaluate


def _draw(rng: random.Random, weights) -> int:
    return rng.choices(range(len(weights)), weights=weights)[0]


def generate_evaluate(work: Path, seed: int, size: int) -> Inputs:
    """``size`` tools, one labeled run of all five stages each.

    Truth classes follow the paper's truth marginals and predictions its
    confusion rows. Probabilities are whole hundredths, so scores repeat
    and the ROC sweep takes its equal-score steps.
    """
    rng = random.Random(f"evaluate-labeled/{seed}")
    counts = {stage: [[0] * len(c) for c in classes] for stage, classes in STAGE_CLASSES.items()}
    with open(work / "labeled.jsonl", "w", encoding="utf-8") as fh:
        for t in range(size):
            tool = f"tool-{t:05d}"
            for stage, classes in STAGE_CLASSES.items():
                matrix = PAPER_MATRICES[stage]
                truth = _draw(rng, [sum(row) for row in matrix])
                cls = _draw(rng, matrix[truth])
                if cls == 0 and rng.random() < TIE_SHARE:
                    probs = _tie(len(classes))
                else:
                    probs = _vector(rng, len(classes), cls, rng.randint(51, 99), 100)
                counts[stage][truth][argmax(probs)] += 1
                image = f"{tool}-{STAGE_VIEW[stage]}"
                fh.write(_record(image, tool, stage, probs, classes[truth]) + "\n")
    _write_json(work / "expected.json", {"counts": counts})
    n_records = size * len(STAGE_CLASSES)
    return Inputs(["evaluate", str(work / "labeled.jsonl")], n_records, n_records, n_records)


def check_evaluate(out: Path, work: Path) -> int:
    """Per-stage confusion counts; a failure is one misplaced record."""
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))["counts"]
    stages = json.loads((out / "summary.json").read_text(encoding="utf-8"))["stages"]
    cell_diff = 0
    for stage, want in expected.items():
        got = stages.get(stage, {}).get("counts", [[0] * len(row) for row in want])
        cell_diff += sum(abs(g - w) for grow, wrow in zip(got, want) for g, w in zip(grow, wrow))
    return cell_diff // 2


# ---------------------------------------------------------------- simulate


def generate_synth(work: Path, seed: int, size: int) -> Inputs:
    """Closed loop at zero noise over ``size`` wheels (round robin over outcomes)."""
    _write_json(work / "synth.json", {"mode": "synth", "noise_sigma": 0.0})
    _write_json(work / "expected.json", {"wheels": size})
    argv = ["simulate", str(work / "synth.json"), "--n", str(size), "--seed", str(seed)]
    return Inputs(argv, size, 0, size)


def check_synth(out: Path, work: Path) -> int:
    """Every wheel's outcome must match its spec at zero noise."""
    wheels = json.loads((work / "expected.json").read_text(encoding="utf-8"))["wheels"]
    report = json.loads((out / "simulation.json").read_text(encoding="utf-8"))
    per_outcome = report["per_outcome"].values()
    correct = sum(o["correct"] for o in per_outcome)
    total = sum(o["total"] for o in per_outcome)
    return wheels - correct + abs(total - wheels)


def path_product(branch: str) -> float:
    """Analytic branch accuracy: product of the stage accuracies along it."""
    product = 1.0
    for stage in BRANCH_STAGES[branch]:
        matrix = PAPER_MATRICES[stage]
        product *= sum(matrix[i][i] for i in range(len(matrix))) / sum(map(sum, matrix))
    return product


def generate_oracle(work: Path, seed: int, size: int) -> Inputs:
    """Oracle replay of the paper's matrices, ``size`` trials per branch."""
    _write_json(work / "oracle.json", {"mode": "oracle", "matrices": PAPER_MATRICES})
    _write_json(work / "expected.json", {b: path_product(b) for b in BRANCH_STAGES})
    argv = ["simulate", str(work / "oracle.json"), "--n", str(size), "--seed", str(seed)]
    return Inputs(argv, size, 0, len(BRANCH_STAGES))


def check_oracle(out: Path, work: Path) -> int:
    """Each branch's measured accuracy within ORACLE_TOLERANCE of its path product."""
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
    branches = json.loads((out / "simulation.json").read_text(encoding="utf-8"))["branches"]
    return sum(
        branch not in branches
        or abs(branches[branch]["measured_accuracy"] - want) > ORACLE_TOLERANCE
        for branch, want in expected.items()
    )


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    generate: Callable[[Path, int, int], Inputs]
    check: Callable[[Path, Path], int]  # (report dir, work dir) -> failed items


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify-mixed", 2500, generate_classify, check_classify),
        Workload("evaluate-labeled", 8000, generate_evaluate, check_evaluate),
        Workload("simulate-synth", 2750, generate_synth, check_synth),
        Workload("simulate-oracle", 1_000_000, generate_oracle, check_oracle),
    )
}
