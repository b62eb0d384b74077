"""The block-wise synthetic wheel generator against the per-wheel oracle.

``simulate.run_synthetic_batch`` observes and scores wheels a block at a
time; ``scalar_oracle.synthetic_stage_rows`` does it one wheel at a time.
Every stage's rows, both severity stages for every wheel, must be equal
bit for bit, for batch sizes on both sides of the block edges and for zero,
small and any noise up to 0.3. Single blocks of arbitrary wheel specs
(flap counts, torn sets, fringe overrides, depths, noise) are compared
observation by observation.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scalar_oracle
from flapwear import simulate, synth
from flapwear.taxonomy import STAGE_CLASSES, FlapProfile, Severity, UsageState

noise_sigmas = st.one_of(
    st.sampled_from([0.0, 0.05]), st.floats(0.0, 0.3, allow_nan=False, allow_infinity=False)
)
batch_sizes = st.one_of(st.sampled_from([1, 255, 256, 257, 513]), st.integers(1, 40))


def batch_stage_rows(monkeypatch, n, seed, noise_sigma):
    """The per-stage arrays run_synthetic_batch hands to decide_runs."""
    seen = []

    def capture(vectors, config=None):
        seen.append(dict(vectors))
        return decide_runs(vectors, config)

    decide_runs = simulate.decide_runs
    with monkeypatch.context() as m:
        m.setattr(simulate, "decide_runs", capture)
        simulate.run_synthetic_batch(n, seed, noise_sigma)
    (rows,) = seen
    return rows


def assert_same_rows(got, want):
    assert list(got) == list(STAGE_CLASSES) == list(want)
    for stage in STAGE_CLASSES:
        assert np.array_equal(got[stage], want[stage]), stage


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(n=batch_sizes, seed=st.integers(0, 2**32 - 1), noise_sigma=noise_sigmas)
@example(n=1, seed=0, noise_sigma=0.0)
@example(n=255, seed=1, noise_sigma=0.05)
@example(n=256, seed=2, noise_sigma=0.0)
@example(n=257, seed=3, noise_sigma=0.05)
@example(n=513, seed=4, noise_sigma=0.0)
@example(n=513, seed=5, noise_sigma=0.05)
def test_batch_rows_match_the_per_wheel_generator(monkeypatch, n, seed, noise_sigma):
    got = batch_stage_rows(monkeypatch, n, seed, noise_sigma)
    assert_same_rows(got, scalar_oracle.synthetic_stage_rows(n, seed, noise_sigma))


@st.composite
def wheel_specs(draw):
    usage = draw(st.sampled_from(UsageState))
    new = usage is UsageState.NEW
    profile = FlapProfile.RECTANGULAR if new else draw(st.sampled_from(FlapProfile))
    n_flaps = draw(st.integers(8, 48))
    torn = frozenset() if new else draw(st.frozensets(st.integers(0, n_flaps - 1), max_size=4))
    return synth.WheelSpec(
        usage=usage,
        profile=profile,
        severity=None if profile is FlapProfile.RECTANGULAR else draw(st.sampled_from(Severity)),
        n_flaps=n_flaps,
        torn_flaps=torn,
        profile_depth=draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5)),
        noise_sigma=draw(noise_sigmas),
        fringe=draw(st.sampled_from([None, True] if new else [None, True, False])),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(wheel_specs(), st.integers(0, 2**31 - 1)), min_size=1, max_size=12))
def test_block_matches_per_wheel_observations(wheels):
    specs = [spec for spec, _ in wheels]
    seeds = [seed for _, seed in wheels]
    block = synth.wheel_columns(specs, seeds)
    radial, gaps = synth.observe_block(block)
    vectors = {stage: np.zeros((len(specs), len(c))) for stage, c in STAGE_CLASSES.items()}
    synth.score_block(block, vectors)

    want_vectors = {stage: np.zeros_like(v) for stage, v in vectors.items()}
    for j, (spec, seed) in enumerate(wheels):
        obs = scalar_oracle.generate_observation(spec, seed)
        assert np.array_equal(radial[j], obs.radial.samples)
        assert np.array_equal(gaps[j, : spec.n_flaps], obs.gap_angles)
        for stage, row in scalar_oracle.observation_vectors(obs).items():
            want_vectors[stage][j] = row
    assert_same_rows(vectors, want_vectors)
