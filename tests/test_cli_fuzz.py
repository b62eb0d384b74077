"""Fuzzing the prediction-file commands: every input ends in an exit code.

Random bytes, random JSON lines and near-valid records go through
``classify`` and ``evaluate``. The command must return 0, 2, 3 or 4 and
no exception may escape ``flapwear.cli.main``.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flapwear.cli import main

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
