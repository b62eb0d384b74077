"""The columnar ensemble core against the scalar oracle's vote, tool by tool.

Random tie-heavy prediction files go through ``flapwear.cli.main`` and
``scalar_oracle.main``: tools of 2 to 8 runs drawn from two or three run
kinds and two confidence tuples, so votes tie, the voters' mean
confidences tie exactly or differ in their last bits, and outcomes tie
the conflicted bucket. Some tools have only incomplete runs, winning
probabilities sit at the 1/3 and 1/2 floors, and one tool may have more
than 512 runs. Every file runs under both conflict policies and
``ensemble_min_runs`` 1 to 3. Exit code, stdout, stderr and every report
file must be byte-identical. ``fuse_runs`` is checked against the
oracle's ``ensemble_record`` for one tool. ``Ensembles.lines``, which
stamps its lines from templates, is checked against each tool's
``EnsembleResult.to_record`` dumped by json.
"""

import io
import itertools
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalar_oracle
from flapwear import cli, engine
from flapwear.engine import (
    RUN_LINE_BLOCK,
    _CAST_SLOTS,
    _INCOMPLETE,
    _STAGES,
    _VOTE_SLOTS,
    ConflictPolicy,
    EngineConfig,
    Ensembles,
    RunInput,
    classify_run,
    fuse_runs,
)
from flapwear.errors import ValidationError
from flapwear.predictions import ProbabilityVector
from flapwear.taxonomy import StageId

STAGES = ("usage", "profile", "tear")
# Winning probabilities per class count: the floors 1/2 and 1/3, and just
# under them with the sum still within the tolerance, among them.
WINNERS = {
    2: (0.5, 0.4999999, 0.55, 0.7000000000000001, 0.79, 0.8, 0.91, 0.95, 1.0),
    3: (1 / 3, 0.33333333, 0.4, 0.6, 0.85, 1.0),
}
# Decided (usage, profile, tear) classes: used rectangular, concave and
# convex wheels with and without a tear, and the three conflicts of a new
# wheel (with a tear, concave, convex).
VOTING_KINDS = (
    (1, 0, 1), (1, 0, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0), (1, 2, 1), (1, 2, 0),
    (0, 0, 0), (0, 1, 1), (0, 2, 1),
)
TOOL_IDS = ('say "hi"', "back\\slash", "ünï", "line\u2028sep", "tab\there", "", 7)


def decided(k, cls, conf):
    """A k-class vector deciding class cls with probability conf; at a floor every
    class has probability conf, and the tie goes to class 0."""
    rest = (1 - conf) / (k - 1)
    if rest >= conf:
        return [conf] * k
    return [conf if i == cls else rest for i in range(k)]


def run_vectors(kind, confs, severity):
    """One run's vectors: the kind's classes at confs, and both severity stages unless
    severity is None."""
    vectors = {stage: decided(k, *args) for stage, k, *args in zip(STAGES, (2, 3, 2), kind, confs)}
    if severity is not None:
        vectors["concave_severity"] = vectors["convex_severity"] = decided(2, *severity)
    return vectors


confidence_tuples = st.tuples(
    st.sampled_from(WINNERS[2]), st.sampled_from(WINNERS[3]), st.sampled_from(WINNERS[2]),
    st.tuples(st.integers(0, 1), st.sampled_from(WINNERS[2])),
)


@st.composite
def tie_heavy_tools(draw, n_runs):
    """One tool's runs; runs without severity vectors (incomplete if shaped) come last."""
    kinds = draw(st.lists(st.sampled_from(VOTING_KINDS), min_size=2, max_size=3, unique=True))
    confs = draw(st.lists(confidence_tuples, min_size=2, max_size=2))
    n = draw(n_runs)
    if draw(st.booleans()):  # the first two kinds in turn
        chosen = [kinds[i % 2] for i in range(n)]
    else:
        chosen = draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))
    runs = []
    for kind in chosen:
        *conf, severity = draw(st.sampled_from(confs))
        incomplete = kind[1] != 0 and draw(st.integers(0, 5)) == 0
        runs.append(run_vectors(kind, conf, None if incomplete else severity))
    if draw(st.integers(0, 7)) == 0:  # every run incomplete: concave, no severity vector
        runs = [run_vectors((1, 1, 1), (u, 0.85, t), None) for u, _, t, _ in confs * n][:n]
    runs.sort(key=lambda vectors: "concave_severity" not in vectors)
    return runs


def records(tool, runs):
    out = []
    for r, vectors in enumerate(runs):
        for stage, probs in vectors.items():
            out.append({
                "image_id": f"{tool}-r{r}-{stage}",
                "tool_id": tool,
                "view": "axial" if stage == "tear" else "radial",
                "stage": stage,
                "probs": probs,
            })
    return out


@st.composite
def prediction_files(draw, big_tool):
    lines = []
    ids = draw(st.lists(st.sampled_from(TOOL_IDS), min_size=1, max_size=5, unique=True))
    ids += [f"tool-{i}" for i in range(draw(st.integers(0, 4)))]
    for tool in ids:
        lines += records(tool, draw(tie_heavy_tools(st.integers(2, 8))))
    if big_tool:
        lines += records("many-runs", draw(tie_heavy_tools(st.integers(513, 700))))
    return "\n".join(json.dumps(rec) for rec in lines) + "\n"


def run(main, argv, out: Path):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
    return code, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(), files


def check_against_oracle(content):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "predictions.jsonl"
        path.write_text(content, encoding="utf-8")
        for policy in ("flag_only", "reject_run"):
            for min_runs in (1, 2, 3):
                config = tmp / "engine.conf"
                config.write_text(
                    f"conflict_policy = {policy}\nensemble_min_runs = {min_runs}\n"
                )
                argv = ["classify", str(path), "--config", str(config)]
                name = f"{policy}-{min_runs}"
                got = run(cli.main, argv, tmp / f"cli-{name}")
                want = run(scalar_oracle.main, argv, tmp / f"oracle-{name}")
                assert got == want


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(prediction_files(big_tool=False))
def test_classify_ensembles_match_scalar_oracle(content):
    check_against_oracle(content)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(prediction_files(big_tool=True))
def test_tool_of_more_than_512_runs_matches_scalar_oracle(content):
    check_against_oracle(content)


@settings(max_examples=100, deadline=None)
@given(
    tie_heavy_tools(st.integers(0, 8)),
    st.sampled_from(list(ConflictPolicy)),
    st.integers(1, 3),
)
def test_fuse_runs_matches_scalar_oracle(runs, policy, min_runs):
    config = EngineConfig(conflict_policy=policy, ensemble_min_runs=min_runs)
    oracle_runs = []
    inputs = []
    for vectors in runs:
        by_stage = {StageId(stage): probs for stage, probs in vectors.items()}
        inputs.append(
            RunInput(
                "t", {s: ProbabilityVector(s, tuple(p)) for s, p in by_stage.items()}
            )
        )
        try:
            oracle_runs.append(scalar_oracle.classify_run("t", by_stage, config))
        except ValidationError as exc:  # a rejected run: both sides refuse it
            want = ("error", str(exc))
            break
    else:
        try:
            want = ("ok", scalar_oracle.ensemble_record(oracle_runs, config))
        except ValidationError as exc:
            want = ("error", str(exc))
    try:
        results = [classify_run(run_input, config) for run_input in inputs]
        got = ("ok", fuse_runs("t", results, config).to_record())
    except ValidationError as exc:
        got = ("error", str(exc))
    assert got == want


# Means whose repr has 17 significant digits, the floors, and the ends.
MEANS = (0.30000000000000004, 0.9999999999999999, 1 / 3, 0.7000000000000001, 0.5, 1.0)
ODD_IDS = st.text(st.sampled_from('"\\%\x00\x1f\x7fa\u00e9\u2028\U0001f600'), max_size=6)


def ensembles(tools):
    """An Ensembles of the given tools, each (tool id, {vote slot: count}, winner, means)."""
    counts = np.zeros((len(tools), _VOTE_SLOTS), dtype=np.int64)
    for t, (_, votes, _, _) in enumerate(tools):
        for v, c in votes.items():
            counts[t, v] = c
    return Ensembles(
        [tool_id for tool_id, *_ in tools],
        counts.sum(axis=1),
        counts,
        np.array([winner for *_, winner, _ in tools], dtype=np.int64),
        np.array([means for *_, means in tools], dtype=float).reshape(len(tools), len(_STAGES)),
        1,
    )


def assert_lines_are_dumped_records(ens):
    lines = list(ens.lines())
    assert len(lines) == len(ens)
    for t, line in enumerate(lines):
        assert line == json.dumps(ens.result(t).to_record(), sort_keys=True) + "\n"


@st.composite
def ensemble_tools(draw):
    """One tool's ensemble columns: at least one vote cast, maybe incomplete runs too."""
    cast = draw(st.lists(st.sampled_from(_CAST_SLOTS), min_size=1, max_size=4, unique=True))
    votes = {v: draw(st.integers(1, 10**6)) for v in cast}
    votes[_INCOMPLETE] = draw(st.integers(0, 3))
    mean = st.sampled_from(MEANS) | st.floats(0.0, 1.0) | st.just(math.nan)
    means = draw(st.lists(mean, min_size=len(_STAGES), max_size=len(_STAGES)))
    tool_id = draw(ODD_IDS | st.text(max_size=8))
    return tool_id, votes, draw(st.sampled_from(cast)), means


@settings(max_examples=200, deadline=None)
@given(st.lists(ensemble_tools(), max_size=12))
def test_ensemble_lines_are_dumped_records(tools):
    assert_lines_are_dumped_records(ensembles(tools))


@pytest.mark.parametrize("block", [RUN_LINE_BLOCK, 7])
def test_ensemble_lines_cover_every_winner_and_decided_mask(monkeypatch, block):
    # Every cast slot as the only vote (a tool with one cast vote), and as
    # the winner beside every other slot, over every mask of decided stages;
    # with blocks of 7 the 384 tools cross 54 block boundaries.
    monkeypatch.setattr(engine, "RUN_LINE_BLOCK", block)
    tools = []
    masks = list(itertools.product((False, True), repeat=len(_STAGES)))
    for i, (winner, mask) in enumerate(itertools.product(_CAST_SLOTS, masks)):
        means = [MEANS[(i + s) % len(MEANS)] if d else math.nan for s, d in enumerate(mask)]
        votes = {winner: 1 + i % 3}
        if i % 2:
            votes.update({v: 1 for v in _CAST_SLOTS} | {winner: 2, _INCOMPLETE: 1})
        tools.append((f'tool "{i}" %s \\ \x00 \u00fc', votes, winner, means))
    assert_lines_are_dumped_records(ensembles(tools))
