"""The columnar classify and evaluate commands against the scalar oracle.

Random prediction files (exact ties, confidences exactly at a gate,
sums off by up to 1.5e-6, integer probabilities, missing severity
vectors, positional pairing across shuffled records, malformed lines,
tool ids that JSON must escape) go through ``flapwear.cli.main`` and
through ``scalar_oracle.main`` under random engine settings. Exit
code, stdout, stderr and every report file must be byte-identical.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalar_oracle
from flapwear import cli

CLASSES = {
    "usage": ("new", "used"),
    "profile": ("rectangular", "concave", "convex"),
    "tear": ("with_tear", "no_tear"),
    "concave_severity": ("fully", "partially"),
    "convex_severity": ("fully", "partially"),
}
REQUIRED = ("usage", "profile", "tear")
SEVERITIES = ("concave_severity", "convex_severity")

# Ties at 0.5, winning probabilities exactly at the default gates (usage
# 0.91, tear 0.79) and integer probabilities.
EXACT = {
    2: ([0.5, 0.5], [0.91, 0.09], [0.09, 0.91], [0.79, 0.21], [0.21, 0.79], [1, 0], [0, 1]),
    3: ([0.4, 0.4, 0.2], [0.2, 0.4, 0.4], [0.5, 0.25, 0.25], [1, 0, 0], [0, 1, 0], [0, 0, 1]),
}

MALFORMED = (
    "{",
    "[1, 2]",
    '"just a string"',
    "\ufeff{}",
    "   ",
    '{"stage": "usage"}',
    '{"image_id": "i", "tool_id": "t", "view": "radial", "stage": "bogus", "probs": [1, 0]}',
    '{"image_id": "i", "tool_id": "t", "view": "axial", "stage": "usage", "probs": [1, 0]}',
    '{"image_id": "i", "tool_id": "t", "view": "radial", "stage": "usage", "probs": "0.5"}',
    '{"image_id": "i", "tool_id": "t", "view": "radial", "stage": "usage", "probs": [true, 0]}',
    '{"image_id": "i", "tool_id": "t", "view": "radial", "stage": "usage", "probs": [1, 0, 0]}',
    '{"image_id": "i", "tool_id": "t", "view": "radial", "stage": "usage", "probs": [-0.5, 1.5]}',
    '{"image_id": "i", "tool_id": "t", "view": "radial", "stage": "usage", "probs": [NaN, 1]}',
    '{"image_id": "i", "tool_id": "t", "view": "radial", "stage": "usage", "probs": [1, 0],'
    ' "truth": "maybe"}',
    '{"image_id": "i", "view": "radial", "stage": "usage", "probs": [0.5, 0.5]}',
)


def vectors(k, tolerance):
    """Valid vectors, some with sums off by up to ``tolerance`` (1e-6 is the limit)."""
    cut_points = st.lists(st.integers(0, 1000), min_size=k - 1, max_size=k - 1)
    units = cut_points.map(
        lambda cuts: [(b - a) / 1000 for a, b in zip([0, *sorted(cuts)], [*sorted(cuts), 1000])]
    )
    exact = st.sampled_from(EXACT[k]).map(list)
    base = st.one_of(exact, exact, units)
    off_sum = st.tuples(base, st.floats(-tolerance, tolerance)).map(lambda pair: _shift(*pair))
    return st.one_of(base, base, base, off_sum)


def _shift(probs, delta):
    """probs with delta added to the largest entry if negative, else to the smallest."""
    i = probs.index(max(probs) if delta < 0 else min(probs))
    return [p + delta if j == i else p for j, p in enumerate(probs)]


def _flip_view(rec):
    rec["view"] = "radial" if rec["view"] == "axial" else "axial"


# Ways to break one record of a file.
CORRUPTIONS = {
    "view": _flip_view,
    "length": lambda rec: rec["probs"].append(0),
    "truth": lambda rec: rec.update(truth="maybe"),
    "stage": lambda rec: rec.update(stage="bogus"),
    "tool": lambda rec: rec.pop("tool_id", None),  # a record may take this damage twice
}


# Tool ids, some of which JSON must escape; an integer id is read as its text.
tool_ids = st.one_of(
    st.integers(0, 9).map("tool-{}".format),
    st.sampled_from(['say "hi"', "back\\slash", "ünï", "line\u2028sep", "tab\there", "", 7]),
    st.text(max_size=3),
)


@st.composite
def prediction_files(draw):
    """A prediction file. Half of them are well-formed with sums within
    the tolerance; the others have sums up to 1.5e-6 off and one or two
    broken records, deleted records (unequal stage counts) or malformed
    lines."""
    broken = draw(st.booleans())
    tolerance = draw(st.sampled_from([1e-6, 1.5e-6])) if broken else 0.9e-6
    records = []
    for tool in draw(st.lists(tool_ids, min_size=1, max_size=5, unique_by=str)):
        for r in range(draw(st.integers(1, 4))):
            run = {stage: draw(vectors(len(CLASSES[stage]), tolerance)) for stage in REQUIRED}
            profile = CLASSES["profile"][run["profile"].index(max(run["profile"]))]
            branch = None if profile == "rectangular" else f"{profile}_severity"
            severity = draw(st.sampled_from([branch, branch, None, *SEVERITIES]))
            if severity:
                run[severity] = draw(vectors(2, tolerance))
            for stage, probs in run.items():
                rec = {
                    "image_id": f"{tool}-r{r}-{stage}",
                    "tool_id": tool,
                    "view": "axial" if stage == "tear" else "radial",
                    "stage": stage,
                    "probs": probs,
                }
                truth = draw(st.sampled_from([None, *CLASSES[stage]]))
                if truth is not None:
                    rec["truth"] = truth
                records.append(rec)
    if draw(st.booleans()):
        draw(st.randoms(use_true_random=False)).shuffle(records)
    # Records stay dicts until the end; malformed lines are inserted as
    # strings and are not corrupted again.
    lines = list(records)
    for _ in range(draw(st.integers(1, 2)) if broken else 0):
        i = draw(st.integers(0, len(lines) - 1))
        damage = draw(st.sampled_from([*CORRUPTIONS, "delete", "malformed"]))
        if damage == "delete":
            del lines[i]
        elif damage == "malformed":
            lines.insert(i, draw(st.sampled_from(MALFORMED)))
        elif isinstance(lines[i], dict):
            CORRUPTIONS[damage](lines[i])
    return "\n".join(line if isinstance(line, str) else json.dumps(line) for line in lines) + "\n"


settings_flags = st.sampled_from([[], ["--no-thresholds"], ["--thresholds", "profile=0.6"]])
config_lines = st.tuples(
    st.sampled_from(["flag_only", "reject_run"]), st.sampled_from([1, 2, 3, 3]),
    st.sampled_from([1, 3, 7]),
).map(lambda c: f"conflict_policy = {c[0]}\nensemble_min_runs = {c[1]}\nrounding = {c[2]}\n")


def run(main, argv, out: Path):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
    return code, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(), files


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(prediction_files(), settings_flags, config_lines)
def test_cli_matches_scalar_oracle(content, flags, config_text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "predictions.jsonl"
        path.write_text(content, encoding="utf-8")
        config = tmp / "engine.conf"
        config.write_text(config_text)
        for command in ("classify", "evaluate"):
            argv = [command, str(path), "--config", str(config), *flags]
            got = run(cli.main, argv, tmp / f"{command}-cli")
            want = run(scalar_oracle.main, argv, tmp / f"{command}-oracle")
            assert got == want

