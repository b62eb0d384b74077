"""classify's and simulate's oracle report bytes, pinned.

One prediction file, built here, reaches every (usage, profile, tear)
cell, with exact ties (decided toward the lowest class index), winners
exactly at the 0.91 usage and 0.79 tear gates, and severity vectors
that are on the decided branch, missing, on the other branch only or
given for both branches. Multi-run tools tie on votes, on votes and
mean confidence, and between an outcome and the conflicted bucket.
Several tool ids need JSON escapes. The sha256 of runs.jsonl,
ensembles.jsonl and stdout is pinned under the defaults and under
``--no-thresholds`` with ``ensemble_min_runs = 2``; under
``conflict_policy = reject_run`` the command's exit-3 error line is.

The sha256 of simulate's oracle-mode simulation.json is pinned for the
paper's matrices at 1, 65537 and 300001 trials per branch, seeds 0 and
7, under the default confidence law and under one of zero spread (whose
confidence draws still advance the random stream).
"""

import hashlib
import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import ALL_MATRICES

from flapwear.cli import EXIT_OK, EXIT_VALIDATION, main

# Vectors per stage, by the class they decide.
USAGE = {
    0: ([0.5, 0.5], [0.91, 0.09], [0.95, 0.05]),
    1: ([0.09, 0.91], [1 / 3, 2 / 3], [0, 1]),
}
PROFILE = {
    0: ([0.4, 0.4, 0.2], [1, 0, 0], [0.5, 0.25, 0.25]),
    1: ([0.2, 0.4, 0.4], [0.1, 0.85, 0.05]),
    2: ([0.1, 0.2, 0.7], [0, 0, 1]),
}
TEAR = {
    0: ([0.5, 0.5], [0.79, 0.21], [0.9, 0.1]),
    1: ([0.21, 0.79], [0.1, 0.9]),
}
SEVERITY = (
    [0.5, 0.5], [0.3, 0.7], [0.8, 0.2], [1, 0], [1 / 3, 2 / 3], [0.7000000000000001, 0.3]
)
BRANCH = {1: "concave_severity", 2: "convex_severity"}
# Which severity vectors a run carries, given its decided profile.
SEVERITY_MODES = {
    "branch": lambda p: [BRANCH[p]] if p in BRANCH else [],
    "missing": lambda p: [],
    "other": lambda p: ["convex_severity" if p == 1 else "concave_severity"],
    "both": lambda p: ["concave_severity", "convex_severity"],
}
ESCAPED_TOOL_IDS = ('"quoted"', "back\\slash", "ünï-wheel", "line\u2028sep", "tab\there", "", 7)


def run_vectors(u, p, t, severities, v=0):
    """One run: the v-th vector of each decided class, plus the named severity stages."""
    run = {
        "usage": USAGE[u][v % len(USAGE[u])],
        "profile": PROFILE[p][v % len(PROFILE[p])],
        "tear": TEAR[t][v % len(TEAR[t])],
    }
    for i, stage in enumerate(severities):
        run[stage] = SEVERITY[(v + i) % len(SEVERITY)]
    return run


def run(usage, profile, tear, **severity):
    return {"usage": usage, "profile": profile, "tear": tear, **severity}


# Within a tool, the runs that carry a severity stage come first, so that
# the i-th vector of each stage belongs to the i-th run as written.
USED_CONCAVE = run(
    [0.09, 0.91], [0.1, 0.85, 0.05], [0.1, 0.9],
    concave_severity=[0.3, 0.7], convex_severity=[0.8, 0.2],
)
USED_CONVEX = run(
    [0.09, 0.91], [0.1, 0.05, 0.85], [0.1, 0.9],
    concave_severity=[0.8, 0.2], convex_severity=[0.3, 0.7],
)
# Conflicted (a new wheel with a concave profile), with the same confidences as USED_RECT.
NEW_CONCAVE = run([0.95, 0.05], [0.2, 0.4, 0.4], [0.21, 0.79])
USED_RECT = run([0.05, 0.95], [0.4, 0.4, 0.2], [0.21, 0.79])
USED_CONVEX_INCOMPLETE = run([0.09, 0.91], [0, 0, 1], [0.5, 0.5])
MULTI_RUN_TOOLS = {
    # Equal votes and equal mean confidence: the lower outcome id wins.
    "tie-votes-and-confidence": [USED_CONVEX, USED_CONCAVE],
    # Equal votes: the higher mean confidence wins, against the lower outcome id.
    "tie-votes": [
        USED_CONCAVE,
        run(
            [0, 1], [0.1, 0.2, 0.7], [0.1, 0.9],
            concave_severity=[0.5, 0.5], convex_severity=[1, 0],
        ),
    ],
    # An outcome ties the conflicted bucket exactly, and wins; the incomplete run does not vote.
    "tie-with-conflicted": [NEW_CONCAVE, USED_RECT, USED_CONVEX_INCOMPLETE, USED_RECT, NEW_CONCAVE],
    "majority": [USED_CONVEX, USED_RECT, USED_RECT, NEW_CONCAVE],
    "all-conflicted": [
        run(
            [0.5, 0.5], [0.1, 0.2, 0.7], [0.5, 0.5],
            concave_severity=[0.5, 0.5], convex_severity=[0.8, 0.2],
        ),
        NEW_CONCAVE,
    ],
    "six-runs": [
        run_vectors(u, p, t, SEVERITY_MODES["both"](p), v)
        for v, (u, p, t) in enumerate(
            [(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0)]
        )
    ],
}


def records(tool, runs):
    out = []
    for r, run in enumerate(runs):
        for stage, probs in run.items():
            out.append({
                "image_id": f"{tool}-r{r}-{stage}",
                "tool_id": tool,
                "view": "axial" if stage == "tear" else "radial",
                "stage": stage,
                "probs": probs,
            })
    return out


def prediction_file():
    lines = []
    for c, (u, p, t) in enumerate(itertools.product(range(2), range(3), range(2))):
        for m, (mode, stages) in enumerate(SEVERITY_MODES.items()):
            tool = f"cell{c:02d}-{mode}"
            lines += records(tool, [run_vectors(u, p, t, stages(p), c + m)])
    for tool, runs in MULTI_RUN_TOOLS.items():
        lines += records(tool, runs)
    for i, tool in enumerate(ESCAPED_TOOL_IDS):
        two_runs = [run_vectors(1, i % 3, i % 2, SEVERITY_MODES["branch"](i % 3), i)] * 2
        lines += records(tool, two_runs)
    # A severity vector past the tool's run count is not used.
    extra = [run_vectors(1, 1, 1, ["concave_severity"]), {"concave_severity": [0.4, 0.6]}]
    lines += records("extra-severity", extra)
    return "\n".join(json.dumps(rec) for rec in lines) + "\n"


def classify(tmp_path, config_text, *flags):
    preds = tmp_path / "predictions.jsonl"
    preds.write_text(prediction_file(), encoding="utf-8")
    config = tmp_path / "engine.conf"
    config.write_text(config_text)
    out = tmp_path / "reports"
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["classify", str(preds), "--config", str(config), "--out", str(out), *flags])
    return code, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(), out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Computed when every line was encoded by json.dumps from its record dict.
PINNED = {
    "defaults": (
        "",
        (),
        {
            "runs.jsonl": "952803bc93063f9f571a74f6289aed8dbe89d06401f7f099d28ff474d940945f",
            "ensembles.jsonl": "7c698e215673d9cd1c88c9b3f845636e6b92cebd76d6c529e04d34049da187fa",
            "stdout": "f4a38f94d40fa7a6169f178c720fc22637ccc45e811a4eb96d9b4e1bf71b7a39",
        },
    ),
    "no-thresholds-min-runs-2": (
        "ensemble_min_runs = 2\n",
        ("--no-thresholds",),
        {
            "runs.jsonl": "48c1b8a708f74be4b1904301c12e53afc1bed4501d96d94b7deca75d35b25e1b",
            "ensembles.jsonl": "7c698e215673d9cd1c88c9b3f845636e6b92cebd76d6c529e04d34049da187fa",
            "stdout": "dd3fa8d8787bf05a6279b24f5d14c6736ff1e03aa99c954d8d79e9fd08c1381d",
        },
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_classify_report_bytes_are_pinned(tmp_path, name):
    config_text, flags, want = PINNED[name]
    code, stdout, stderr, out = classify(tmp_path, config_text, *flags)
    assert (code, stderr) == (EXIT_OK, "")
    got = {
        "runs.jsonl": sha256((out / "runs.jsonl").read_bytes()),
        "ensembles.jsonl": sha256((out / "ensembles.jsonl").read_bytes()),
        "stdout": sha256(stdout.encode()),
    }
    assert got == want


def test_reject_run_error_is_pinned(tmp_path):
    code, stdout, stderr, out = classify(tmp_path, "conflict_policy = reject_run\n")
    assert (code, stdout) == (EXIT_VALIDATION, "")
    assert stderr == "validation error: profile concave requires a concave_severity vector\n"
    assert not (out / "runs.jsonl").exists()


# simulate's oracle report bytes: the paper's matrices, at sizes either side
# of 65536 trials, under the default confidence law and one of zero spread.
ORACLE_LAWS = {"default": None, "zero-spread": [0.9, 0.6, 0.0]}


def simulate_oracle(tmp_path, n, seed, law):
    sim = {"mode": "oracle", "matrices": {s.value: m for s, m in ALL_MATRICES.items()}}
    if ORACLE_LAWS[law] is not None:
        sim["confidence_law"] = ORACLE_LAWS[law]
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps(sim))
    out = tmp_path / "reports"
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(
            ["simulate", str(config), "--n", str(n), "--seed", str(seed), "--out", str(out)]
        )
    assert (code, stderr.getvalue()) == (EXIT_OK, "")
    return sha256((out / "simulation.json").read_bytes())


# Computed when the sampler gathered each trial's (k,) confusion-row CDF and
# drew confidences with rng.normal(means, spread).
ORACLE_PINNED = {
    (1, 0, "default"): "a3dd9ae1c8b8f2eba2f2e4a6edaa4160a3f8c34c0d99f6fc61ea00b40cc713d7",
    (1, 0, "zero-spread"): "a3dd9ae1c8b8f2eba2f2e4a6edaa4160a3f8c34c0d99f6fc61ea00b40cc713d7",
    (1, 7, "default"): "08bcf7ce4c40b8408fe1d2835c253194fd95760ea3ac76bc2d995f3031cf64aa",
    (1, 7, "zero-spread"): "08bcf7ce4c40b8408fe1d2835c253194fd95760ea3ac76bc2d995f3031cf64aa",
    (65537, 0, "default"): "1fa4533f101a24dafa1de77e45b025b016d1db59ba518f4f0d06faff25190d0d",
    (65537, 0, "zero-spread"): "1fa4533f101a24dafa1de77e45b025b016d1db59ba518f4f0d06faff25190d0d",
    (65537, 7, "default"): "6afae70b4b814e32c38a79b89e11f3db72c4e735f32c11b6e051741e69571a47",
    (65537, 7, "zero-spread"): "6afae70b4b814e32c38a79b89e11f3db72c4e735f32c11b6e051741e69571a47",
    (300001, 0, "default"): "5a5bebed435bfee9427d76c17550b83ae679cf2113e5c211347b77188146abc6",
    (300001, 0, "zero-spread"): "5a5bebed435bfee9427d76c17550b83ae679cf2113e5c211347b77188146abc6",
    (300001, 7, "default"): "3e9631bafab590db72131fe6c5194e1462c9ba9d1e9dc1168122859dd7191709",
    (300001, 7, "zero-spread"): "3e9631bafab590db72131fe6c5194e1462c9ba9d1e9dc1168122859dd7191709",
}


@pytest.mark.parametrize("case", ORACLE_PINNED, ids=lambda c: "-".join(map(str, c)))
def test_oracle_simulation_bytes_are_pinned(tmp_path, case):
    n, seed, law = case
    assert simulate_oracle(tmp_path, n, seed, law) == ORACLE_PINNED[case]
