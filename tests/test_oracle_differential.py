"""The column-wise oracle sampler against the row-gathering one it replaced.

``simulate.sample_oracle_predictions`` compares each trial's uniform with
its confusion row's CDF one column at a time and builds confidences from
``standard_normal``; ``simulate._draw_classes`` draws truth classes the
way ``Generator.choice(p=...)`` does. ``scalar_oracle`` keeps the code
they replaced, and restates how a count matrix gives its rows, truth
marginals and accuracy, which ``row_probabilities``, ``truth_marginals``
and ``matrices_to_accuracies`` must give bit for bit. Predictions,
confidences (bit for bit) and the generator state afterwards must be
equal, for two- and three-class stages, count matrices with zero cells,
sizes on both sides of 65536, zero and positive spreads and any seed;
and so must every branch's report, which ``simulate.oracle_branch_trials``
and ``simulate.run_oracle_batch`` draw ``ORACLE_BLOCK`` (65536) trials at
a time from three cursors into one stream. ``simulate.hits``, by which
that replay scores a trial without building its prediction, must hold
exactly where the sampler predicts the truth, at every CDF edge.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracle
from conftest import ALL_MATRICES
from flapwear import simulate
from flapwear.simulate import (
    hit_cells,
    hits,
    matrices_to_accuracies,
    row_probabilities,
    sample_oracle_predictions,
    truth_marginals,
)
from flapwear.taxonomy import STAGE_CLASSES, FlapProfile, StageId

SIZES = st.sampled_from([1, 2, 65535, 65536, 65537])
SEEDS = st.integers(0, 2**32 - 1)
STAGES = {2: StageId.USAGE, 3: StageId.PROFILE}
# Zero cells often, paper-sized counts too.
COUNTS = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 2000))
# Counts that need not be whole, for the conversions that take any finite number >= 0.
REAL_COUNTS = st.one_of(COUNTS, st.floats(0.0, 1e6))


def count_rows(k, cells=COUNTS):
    """A k-cell count row with a nonzero total."""
    return st.lists(cells, min_size=k, max_size=k).filter(any)


def count_matrices(k, cells=COUNTS):
    return st.lists(count_rows(k, cells), min_size=k, max_size=k)


@st.composite
def confidence_laws(draw, k):
    mean = st.floats(1.0 / k, 1.0, exclude_min=True, exclude_max=True)
    spread = st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True))
    return draw(mean), draw(mean), draw(spread)


def generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([2, 3]), data=st.data(), n=SIZES, seed=SEEDS)
def test_draw_classes_is_generator_choice(k, data, n, seed):
    p = truth_marginals(data.draw(count_matrices(k)))
    cdf = p.cumsum()
    cdf /= cdf[-1]  # the CDF choice builds from p
    got_rng, want_rng = generators(seed)
    got = simulate._draw_classes(cdf, n, got_rng)
    want = want_rng.choice(k, size=n, p=p)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def assert_same_samples(stage, counts, truths, law, seed):
    rows = row_probabilities(counts)
    got_rng, want_rng = generators(seed)
    got_preds, got_confs = sample_oracle_predictions(stage, truths, rows, law, got_rng)
    want_preds, want_confs = scalar_oracle.sample_oracle_predictions(
        stage, truths, rows, law, want_rng
    )
    assert got_preds.dtype == want_preds.dtype
    assert np.array_equal(got_preds, want_preds)
    assert got_confs.dtype == want_confs.dtype
    assert got_confs.tobytes() == want_confs.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([2, 3]), data=st.data(), n=SIZES, seed=SEEDS)
def test_sampler_matches_row_gathering_sampler(k, data, n, seed):
    counts, law = data.draw(count_matrices(k)), data.draw(confidence_laws(k))
    truths = np.random.default_rng(seed ^ 0x5EED).integers(0, k, size=n)
    assert_same_samples(STAGES[k], counts, truths, law, seed)


@pytest.mark.parametrize("stage", list(StageId), ids=lambda s: s.value)
def test_sampler_matches_on_the_paper_matrices(stage):
    k = len(STAGE_CLASSES[stage])
    truths = np.random.default_rng(1).choice(k, size=65537, p=truth_marginals(ALL_MATRICES[stage]))
    assert_same_samples(stage, ALL_MATRICES[stage], truths, simulate.DEFAULT_CONFIDENCE_LAW, 7)


class ChosenUniforms:
    """Hands out the given uniforms; every normal draw is 0."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()

    def standard_normal(self, n, out):
        out[:] = 0.0
        return out


def edge_uniforms(rows):
    """Every CDF value of rows, its two float neighbours, 0.0 and the last float below 1.

    Only values a uniform draw can take, in [0, 1), are kept.
    """
    cdf = np.cumsum(rows, axis=1).ravel()
    u = np.concatenate([
        cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf), [0.0, np.nextafter(1.0, 0.0)]
    ])
    return u[(u >= 0.0) & (u < 1.0)]


@settings(max_examples=60, deadline=None)
@given(counts=st.sampled_from([2, 3]).flatmap(count_matrices))
@example(counts=[[0, 5], [3, 0]])
@example(counts=[[4, 0], [0, 9]])
@example(counts=[[0, 0, 4], [2, 0, 2], [0, 7, 0]])
@example(counts=[[1, 0, 0], [0, 0, 3], [0, 0, 1]])
def test_hit_cells_are_where_the_sampler_predicts_the_truth(counts):
    k = len(counts)
    rows = row_probabilities(counts)
    lo, hi = hit_cells(rows)
    u = edge_uniforms(rows)
    for t in range(k):
        truths = np.full(len(u), t)
        preds, _ = sample_oracle_predictions(
            STAGES[k], truths, rows, simulate.DEFAULT_CONFIDENCE_LAW, ChosenUniforms(u)
        )
        hit = hits((lo, hi), truths, u)
        assert np.array_equal(hit, preds == t)
        assert np.array_equal(hit, (lo[t] < u) & (u <= hi[t]))


@st.composite
def stage_matrices(draw, cells=COUNTS):
    return {
        stage: draw(count_matrices(len(classes), cells)) for stage, classes in STAGE_CLASSES.items()
    }


@settings(max_examples=60, deadline=None)
@given(matrices=stage_matrices(REAL_COUNTS))
@example(matrices={stage: ALL_MATRICES[stage] for stage in StageId})
def test_one_reading_is_the_restated_one(matrices):
    acc = matrices_to_accuracies(matrices)
    for stage, counts in matrices.items():
        want_rows = scalar_oracle.row_probabilities(counts)
        assert row_probabilities(counts).tobytes() == want_rows.tobytes()
        want_marginals = scalar_oracle.truth_marginals(counts)
        assert truth_marginals(counts).tobytes() == want_marginals.tobytes()
        assert acc.of(stage).hex() == scalar_oracle.stage_accuracy(counts).hex()


@settings(max_examples=15, deadline=None)
@given(
    matrices=stage_matrices(),
    branch=st.sampled_from(list(FlapProfile)),
    n=SIZES,
    seed=SEEDS,
    law=confidence_laws(2),  # its means suit the three-class stage too
)
def test_branch_trials_match_the_kept_array_loop(matrices, branch, n, seed, law):
    got = simulate.oracle_branch_trials(matrices, branch, n, seed, law)
    want = scalar_oracle.oracle_branch_trials(matrices, branch, n, seed, law)
    want.pop("stage_results")
    assert got == want


@pytest.mark.parametrize("branch", list(FlapProfile), ids=lambda b: b.value)
def test_branch_trials_match_over_several_blocks(branch):
    assert simulate.ORACLE_BLOCK == 65536  # so SIZES straddle a block edge
    n = 3 * simulate.ORACLE_BLOCK + 1
    got = simulate.oracle_branch_trials(ALL_MATRICES, branch, n, 5)
    want = scalar_oracle.oracle_branch_trials(ALL_MATRICES, branch, n, 5)
    want.pop("stage_results")
    assert got == want


@settings(max_examples=8, deadline=None)
@given(matrices=stage_matrices(), n=SIZES, seed=SEEDS)
def test_batch_branches_match_the_kept_array_loop(matrices, n, seed):
    # The batch replays its three branches on one pipeline; branch i is the
    # kept loop's branch at seed + i.
    branches = simulate.run_oracle_batch(matrices, n, seed)["branches"]
    for i, branch in enumerate(FlapProfile):
        got = dict(branches[branch.value])
        got.pop("analytic_accuracy")
        want = scalar_oracle.oracle_branch_trials(matrices, branch, n, seed + i)
        want.pop("stage_results")
        assert got == want


@settings(max_examples=30, deadline=None)
@given(skip=st.integers(0, 3 * 65536), n=st.integers(1, 1000), seed=SEEDS)
def test_cursor_starts_where_random_ends(skip, n, seed):
    rng = np.random.default_rng(seed)
    before = rng.bit_generator.state
    cursor = simulate._cursor(rng, skip)
    assert rng.bit_generator.state == before  # making a cursor draws nothing
    rng.random(skip)
    assert cursor.bit_generator.state == rng.bit_generator.state
    assert cursor.random(n).tobytes() == rng.random(n).tobytes()
