"""Fuzzing every input the command line reads: each ends in an exit code.

Random bytes, random JSON lines and near-valid records go through
``classify`` and ``evaluate``; random and near-valid JSON goes through
``simulate`` and ``propagate``, and random ``--config`` files through
both. The command must return 0, 2, 3 or 4 and no exception may escape
``flapwear.cli.main``. For the JSON inputs and config files, a failure
also prints exactly one stderr line, a success prints none, and no
report written holds NaN or Infinity. A warning fails the test, as
pytest turns it into an error.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flapwear.cli import main
from flapwear.taxonomy import STAGE_CLASSES, StageId

from conftest import ALL_MATRICES, STAGE_ACCURACIES

EXIT_CODES = {0, 2, 3, 4}
COMMANDS = ("classify", "evaluate")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

VALID = {
    "image_id": "img-1",
    "tool_id": "wheel-1",
    "view": "radial",
    "stage": "usage",
    "probs": [0.1, 0.9],
    "truth": "used",
}
FIELD_VALUES = {
    "view": st.sampled_from(["radial", "axial", "RADIAL", ""]),
    "stage": st.sampled_from(
        ["usage", "profile", "tear", "concave_severity", "convex_severity", "x"]
    ),
    "probs": st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(),
            st.sampled_from([10**400, -(10**400)]),  # too large for a float
            st.booleans(),
        ),
        max_size=4,
    ),
    "truth": st.sampled_from([None, "new", "used", "fully", "with_tear", "rectangular", 0]),
}


@st.composite
def near_valid_records(draw):
    """A valid record with some fields replaced, deleted or re-typed."""
    rec = dict(VALID)
    for key in draw(st.lists(st.sampled_from(sorted(VALID)), min_size=1, max_size=3)):
        action = draw(st.sampled_from(["replace", "replace", "delete", "random"]))
        if action == "delete":
            rec.pop(key, None)
        elif action == "random" or key not in FIELD_VALUES:
            rec[key] = draw(json_values)
        else:
            rec[key] = draw(FIELD_VALUES[key])
    return json.dumps(rec)


def _lines(line_strategy):
    return st.lists(line_strategy, max_size=6).map(lambda lines: ("\n".join(lines) + "\n").encode())


prediction_bytes = st.one_of(
    st.binary(max_size=200),
    _lines(json_values.map(json.dumps)),
    _lines(near_valid_records()),
    _lines(near_valid_records()),
    _lines(st.one_of(near_valid_records(), st.text(max_size=30))),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(prediction_bytes, st.sampled_from(COMMANDS))
def test_any_prediction_file_ends_in_an_exit_code(content, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.jsonl"
        path.write_bytes(content)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command, str(path), "--out", str(Path(tmp) / "reports")])
    assert code in EXIT_CODES


# Values that break a numeric rule, or nearly do: non-finite, past float range,
# bools, numeric strings, wrong containers. Every int here is tiny or is
# refused as a simulation size before anything is allocated.
NASTY = st.sampled_from([
    float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 5e-324, 10**400, -(10**400),
    10**30, True, False, None, "11", "0.5", "inf", [], {}, 0, -1, 0.5, 2.7,
]) | st.floats(allow_nan=True, allow_infinity=True)
STAGES = [stage.value for stage in StageId]


def _mutate(draw, payload: dict, values: dict, min_size: int = 1) -> dict:
    """payload with some keys re-valued from values[key], deleted, or misspelt."""
    payload = dict(payload)
    for key in draw(st.lists(st.sampled_from(sorted(values)), min_size=min_size, max_size=3)):
        action = draw(st.sampled_from(["value", "value", "delete", "misspell"]))
        if action == "delete":
            payload.pop(key, None)
        elif action == "misspell":
            payload[key + draw(st.sampled_from(["s", "_x", "X"]))] = draw(json_values)
        else:
            payload[key] = draw(values[key])
    return payload


@st.composite
def count_matrices(draw):
    """The paper's matrices, a few cells or whole matrices replaced."""
    matrices = {stage.value: [list(row) for row in m] for stage, m in ALL_MATRICES.items()}
    for stage in draw(st.lists(st.sampled_from(STAGES), max_size=2, unique=True)):
        k = len(STAGE_CLASSES[StageId(stage)])
        if draw(st.booleans()):
            matrices[stage][draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = draw(
                NASTY | st.integers(0, 2000)
            )
        else:
            matrices[stage] = draw(json_values)
    return matrices


@st.composite
def simulation_configs(draw):
    valid = {"mode": draw(st.sampled_from(["synth", "oracle"])), "n": 11, "noise_sigma": 0.05,
             "matrices": draw(count_matrices()), "confidence_law": [0.97, 0.89, 0.03]}
    return _mutate(draw, valid, {
        "mode": st.sampled_from(["synth", "oracle", "x", None, 1, ["oracle"]]),
        "n": NASTY | st.integers(-2, 40),
        "noise_sigma": NASTY | st.floats(0, 0.2) | json_values,
        "matrices": count_matrices() | json_values,
        "confidence_law": st.lists(NASTY | st.floats(0, 1), max_size=4)
        | st.just([0.97, 0.89, 1e308]) | json_values,
    })


@st.composite
def threshold_catches(draw):
    return {
        draw(st.sampled_from(STAGES + ["x"])): draw(st.lists(NASTY | st.integers(0, 20), max_size=3))
        for _ in range(draw(st.integers(0, 2)))
    }


@st.composite
def propagation_inputs(draw):
    ledger = {"total_runs": 360, "total_errors": 45,
              "threshold_caught": {"usage": [11, 10], "tear": [11, 9]}, "conflict_caught": 4,
              "conflicts_overlap_thresholds": False}
    count = NASTY | st.integers(0, 400)
    ledger = _mutate(draw, ledger, {
        "total_runs": count, "total_errors": count, "conflict_caught": count,
        "threshold_caught": threshold_catches() | json_values,
        "conflicts_overlap_thresholds": NASTY | json_values,
    })
    accuracies = _mutate(draw, STAGE_ACCURACIES, {
        name: NASTY | st.floats(0, 1) | json_values for name in STAGE_ACCURACIES
    }, min_size=0)
    return _mutate(draw, {"accuracies": accuracies, "ledger": ledger}, {
        "accuracies": json_values, "ledger": json_values,
    }, min_size=0)


CONFIG_LINES = st.tuples(
    st.sampled_from(["threshold.usage", "threshold.tear", "threshold.x", "conflict_policy",
                     "ensemble_min_runs", "report_dir", "seed", "rounding", "color"]),
    st.sampled_from(["nan", "inf", "1e400", "-1", "0", "3", "27", "28", "0.5", "1e308", "true",
                     "reject_run", "flag_only", "", str(10**30), "1" * 5000])
    | st.text(max_size=8),
).map(lambda kv: f"{kv[0]} = {kv[1]}")
config_files = st.lists(CONFIG_LINES | st.text(max_size=12), max_size=4).map("\n".join)


def _refuse_constant(name):
    raise AssertionError(f"report holds {name}")


def _run_json_command(argv, inputs: dict[str, str]) -> None:
    """Write inputs into a fresh directory, run argv on them, and check the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            (Path(tmp) / name).write_text(text)
        out = Path(tmp) / "reports"
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([a.format(tmp=tmp) for a in argv] + ["--out", str(out)])
        assert code in EXIT_CODES
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
        else:
            assert err.getvalue() == ""
        for report in out.glob("*.json"):
            json.loads(report.read_text(), parse_constant=_refuse_constant)


JSON_SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@JSON_SETTINGS
@given(st.one_of(
    # A near-valid config's own "n" is drawn from sizes that are small or refused;
    # --n overrides any other.
    simulation_configs().map(lambda payload: (payload, [])),
    json_values.map(lambda payload: (payload, ["--n", "11"])),
))
def test_any_simulation_config_ends_in_an_exit_code(payload_and_flags):
    payload, flags = payload_and_flags
    _run_json_command(["simulate", "{tmp}/sim.json", *flags], {"sim.json": json.dumps(payload)})


@JSON_SETTINGS
@given(propagation_inputs() | json_values)
def test_any_propagation_input_ends_in_an_exit_code(payload):
    _run_json_command(["propagate", "{tmp}/prop.json"], {"prop.json": json.dumps(payload)})


@JSON_SETTINGS
@given(config_files, st.sampled_from(["propagate", "simulate"]))
def test_any_config_file_ends_in_an_exit_code(text, command):
    inputs = {"flapwear.cfg": text, "prop.json": json.dumps({"accuracies": STAGE_ACCURACIES}),
              "sim.json": json.dumps({"mode": "synth", "noise_sigma": 0.05})}
    argv = {"propagate": ["{tmp}/prop.json"], "simulate": ["{tmp}/sim.json", "--n", "11"]}[command]
    _run_json_command([command, *argv, "--config", "{tmp}/flapwear.cfg"], inputs)
