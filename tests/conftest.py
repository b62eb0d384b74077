"""Shared fixtures: published confusion matrices and derived targets."""

import pytest

from flapwear.predictions import StageId

# Test-set confusion matrices of the five staged classifiers
# (rows = true class, cols = predicted class, stage class order).
USAGE_MATRIX = [[458, 2], [19, 1021]]
PROFILE_MATRIX = [[1165, 0, 0], [40, 1212, 107], [15, 1, 1024]]
TEAR_MATRIX = [[419, 61], [11, 662]]
CONCAVE_MATRIX = [[157, 3], [0, 280]]
CONVEX_MATRIX = [[141, 19], [0, 220]]

ALL_MATRICES = {
    StageId.USAGE: USAGE_MATRIX,
    StageId.PROFILE: PROFILE_MATRIX,
    StageId.TEAR: TEAR_MATRIX,
    StageId.CONCAVE_SEVERITY: CONCAVE_MATRIX,
    StageId.CONVEX_SEVERITY: CONVEX_MATRIX,
}

# Published stage accuracies (3-decimal) used by the propagation checks.
STAGE_ACCURACIES = {
    "usage": 0.986,
    "tear": 0.938,
    "profile": 0.954,
    "concave": 0.993,
    "convex": 0.950,
}


@pytest.fixture
def all_matrices():
    return dict(ALL_MATRICES)


# A valid usage record with its probs left open, and lines at the edges of
# JSON that a prediction file may hold, each a line of its own.
USAGE_LINE = '{"image_id": "img", "tool_id": "t1", "view": "radial", "stage": "usage", "probs": %s}'
VALID_LINE = USAGE_LINE % "[0.2, 0.8]"
EDGE_LINES = {
    "bom": "\ufeff" + VALID_LINE,
    "nested-too-deep": USAGE_LINE % ("[" * 100_000),
    "integer-literal-too-long": USAGE_LINE % ("[" + "1" * 5000 + ", 0]"),
    "integer-too-large-for-a-float": USAGE_LINE % ("[0, " + "1" * 400 + "]"),
    "nan": USAGE_LINE % "[NaN, 1]",
    "infinity": USAGE_LINE % "[0, Infinity]",
    "true": USAGE_LINE % "[true, 0]",
    "two-objects": VALID_LINE + " " + VALID_LINE,
    # The last of two keys wins: a usage record in the tear view.
    "duplicate-stage": VALID_LINE.replace(
        '"view": "radial", "stage": "usage"', '"view": "axial", "stage": "tear", "stage": "usage"'
    ),
    "integer-tool-id": VALID_LINE.replace('"t1"', "7"),
}
