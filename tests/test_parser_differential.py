"""The prediction-table parser against the one it replaced.

``predictions.parse_prediction_table`` accepts a well-formed line with
one call of json's C scanner and hands every other line to its error
path; ``scalar_oracle.parse_prediction_table`` decodes each line with
``json.loads`` and checks it in one body. Random files mix valid records
(ids of any JSON type, keys in any order, missing, null and bad truth,
vectors valid or off), the fuzz test's near-valid records, the edge
lines of JSON (a BOM, deep nesting, over-long and over-large integers,
NaN and Infinity, two objects on a line, a duplicate key), text, blank
lines, Unicode whitespace around lines, CR and CRLF line ends and bytes
that are not UTF-8. Both parsers must return the same tables (the
probability bytes, ids, line numbers and truth indices of every stage)
or raise the same error class with the same message and line. A file
that the reference accepts must parse without reaching the error path.
Each file is also parsed with ``ids=False``: the same error, the id rule
included, or the reference's tables with both id columns None.
"""

import functools
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scalar_oracle
from flapwear import predictions
from flapwear.errors import FlapwearError
from flapwear.taxonomy import STAGE_CLASSES, STAGE_VIEW

from conftest import EDGE_LINES
from test_cli_fuzz import near_valid_records

STAGES = {stage.value: (STAGE_VIEW[stage].value, STAGE_CLASSES[stage]) for stage in STAGE_CLASSES}
# Valid vectors, with ties and integer entries, by class count.
VECTORS = {
    2: ([0.5, 0.5], [0.2, 0.8], [1, 0], [0, 1], [0.91, 0.09], [1 / 3, 2 / 3]),
    3: ([0.4, 0.4, 0.2], [1, 0, 0], [0.1, 0.85, 0.05], [0, 0.5, 0.5]),
}
valid_ids = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.integers()
ids = st.one_of(
    valid_ids,
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
)


@st.composite
def valid_records(draw, only_valid=False):
    """A record of any stage, valid or (unless only_valid) nearly so, its keys in any order."""
    stage = draw(st.sampled_from(sorted(STAGES)))
    view, classes = STAGES[stage]
    k = len(classes)
    probs = st.sampled_from(VECTORS[k])
    truths = classes + (None,)
    if not only_valid:
        probs |= st.lists(st.floats(0, 1) | st.integers(0, 1), min_size=k, max_size=k)
        truths += ("new", 1)
    rec = {
        "image_id": draw(valid_ids if only_valid else ids),
        "tool_id": draw(valid_ids if only_valid else ids),
        "view": view,
        "stage": stage,
        "probs": draw(probs),
    }
    if draw(st.booleans()):
        rec["truth"] = draw(st.sampled_from(truths))
    keys = draw(st.permutations(sorted(rec)))
    return json.dumps({key: rec[key] for key in keys}, ensure_ascii=draw(st.booleans()))


lines = st.one_of(
    valid_records(),
    valid_records(),
    valid_records(),
    near_valid_records(),
    st.sampled_from(sorted(EDGE_LINES.values())),
    st.text(max_size=12),
    st.just(""),
)
padding = st.sampled_from(["", "", " ", "\t", "\x0c", "\u3000"])
line_ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def prediction_files(draw, lines=lines, bad_bytes=True):
    parts = []
    for line in draw(st.lists(lines, max_size=12)):
        parts.append((draw(padding) + line + draw(padding) + draw(line_ends)).encode(
            "utf-8", "surrogatepass"
        ))
    if bad_bytes and parts and draw(st.integers(0, 9)) == 0:
        parts.insert(draw(st.integers(0, len(parts))), b"\xff\n")
    return b"".join(parts)


def outcome(parse, path, keep_ids=True):
    """The tables as comparable values, or the error's class, text and line.

    With keep_ids False, both id columns of every table read as None.
    """
    try:
        tables = parse(path)
    except FlapwearError as exc:
        return "error", type(exc), str(exc), exc.line
    return "tables", {
        stage: (
            table.probs.shape,
            table.probs.tobytes(),
            table.tool_ids if keep_ids else None,
            table.image_ids if keep_ids else None,
            table.lines.tolist(),
            table.truth.tolist(),
        )
        for stage, table in tables.items()
    }


def parsed(path, ids):
    """predictions.parse_prediction_table's outcome for path, with or without ids."""
    return outcome(functools.partial(predictions.parse_prediction_table, ids=ids), path)


def usage_lines(*vectors):
    """One usage record per vector, as a file's bytes; a vector is given as its JSON text."""
    return b"".join(
        b'{"image_id": "i", "tool_id": "t", "view": "radial", "stage": "usage", "probs": %s}\n'
        % vector.encode()
        for vector in vectors
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(prediction_files(), st.booleans())
# A vector the parser's array conversion refuses leaves no partial row:
# line 1's bad sum is still the first error after line 2 overflows.
@example(usage_lines("[0.3, 0.3]", f"[0.5, {10**400}]"), True)
@example(usage_lines("[0.5, 0.5]", "[true, false]"), False)
@example(usage_lines("[0.5, 0.5]", '["0.5", 0.5]'), True)
@example(usage_lines("[0.5, 0.5]", "[null, 1]"), False)
@example(usage_lines("[0.5, 0.5]", "[[0.5], 0.5]"), True)
def test_parser_matches_reference(content, ids):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "predictions.jsonl"
        path.write_bytes(content)
        assert parsed(path, ids) == outcome(scalar_oracle.parse_prediction_table, path, ids)


accepted_files = prediction_files(valid_records(only_valid=True) | st.just(""), bad_bytes=False)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(accepted_files, st.booleans())
@example(
    b'{"image_id": 12, "tool_id": -3, "view": "radial", "stage": "usage", "probs": [1, 0]}\n'
    b'{"image_id": "12", "tool_id": 0, "view": "axial", "stage": "tear", "probs": [0.5, 0.5]}\n',
    True,
)
@example(
    b'{"image_id": 12, "tool_id": -3, "view": "radial", "stage": "usage", "probs": [1, 0]}\n',
    False,
)
def test_no_valid_line_reaches_the_error_path(content, ids):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "predictions.jsonl"
        path.write_bytes(content)
        expected = outcome(scalar_oracle.parse_prediction_table, path, ids)
        assert expected[0] == "tables"
        with mock.patch.object(
            predictions, "_parse_line", side_effect=AssertionError("a valid line was declined")
        ):
            assert parsed(path, ids) == expected
