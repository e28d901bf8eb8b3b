"""Parity of the multi-day cloud sampler with the per-day loop it replaced.

``reference_sample_day`` is the day-at-a-time sampler frozen as it was
before :meth:`IntradayCloudModel.sample_days` took over: one AR(1)
Python loop per day, then drift, jumps and transients.  Sampling a
sequence of days one after another from one stream with it must give
exactly the bytes ``sample_days`` gives for the whole sequence, and
leave the stream in exactly the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solar.clouds import CloudModelParams, DayType, IntradayCloudModel


def reference_sample_day(params, day_type, samples_per_day, rng):
    """The frozen per-day sampler (the parity oracle)."""
    p = params
    base = p.base_index[day_type]
    sigma = p.volatility[day_type]
    beta = p.mean_reversion[day_type]

    steps_per_min = samples_per_day / (24.0 * 60.0)
    step_beta = 1.0 - (1.0 - beta) ** (1.0 / max(steps_per_min * 5.0, 1e-9))
    stationary_sd = sigma
    innovation_sd = stationary_sd * np.sqrt(
        max(1.0 - (1.0 - step_beta) ** 2, 1e-12)
    )

    noise = rng.normal(0.0, innovation_sd, size=samples_per_day)
    k = np.empty(samples_per_day, dtype=float)
    k[0] = base + rng.normal(0.0, stationary_sd)
    for i in range(1, samples_per_day):
        k[i] = k[i - 1] + step_beta * (base - k[i - 1]) + noise[i]

    drift_sd = p.day_drift[day_type]
    if drift_sd > 0:
        step_sd = drift_sd / np.sqrt(samples_per_day)
        drift = np.cumsum(rng.normal(0.0, step_sd, size=samples_per_day))
        k = k + drift

    n_jumps = rng.poisson(p.jump_rate[day_type])
    for _ in range(n_jumps):
        at = int(rng.integers(0, samples_per_day))
        k[at:] += rng.normal(0.0, p.jump_sd[day_type])

    if day_type == DayType.PARTLY:
        k *= reference_transient_mask(p, samples_per_day, rng, rate_scale=1.0)
    elif day_type == DayType.OVERCAST:
        k *= reference_transient_mask(p, samples_per_day, rng, rate_scale=0.5)

    return np.clip(k, p.k_min, p.k_max)


def reference_transient_mask(params, samples_per_day, rng, rate_scale=1.0):
    p = params
    mask = np.ones(samples_per_day, dtype=float)
    minutes_per_sample = 24.0 * 60.0 / samples_per_day
    expected = p.transient_rate * 24.0 * rate_scale
    n_transients = rng.poisson(expected)
    if n_transients == 0:
        return mask
    starts = rng.integers(0, samples_per_day, size=n_transients)
    for start in starts:
        duration_min = rng.exponential(p.transient_minutes)
        length = max(1, int(round(duration_min / minutes_per_sample)))
        depth = np.clip(rng.normal(p.transient_depth, 0.15), 0.1, 0.95)
        end = min(samples_per_day, start + length)
        mask[start:end] = np.minimum(mask[start:end], 1.0 - depth)
    return mask


#: Parameter sets that between them reach every branch of the sampler:
#: no drift at all or only on some day types, no jumps, no transients,
#: and a busy set whose long overlapping transients and big jumps also
#: drive the index into both clamps.
PARAMS = {
    "default": CloudModelParams(),
    "no-drift": CloudModelParams(day_drift=(0.0, 0.0, 0.0)),
    "partial-drift": CloudModelParams(day_drift=(0.0, 0.18, 0.0)),
    "no-jumps": CloudModelParams(jump_rate=(0.0, 0.0, 0.0)),
    "no-transients": CloudModelParams(transient_rate=0.0),
    "busy": CloudModelParams(
        jump_rate=(3.0, 6.0, 4.0),
        jump_sd=(0.3, 0.6, 0.4),
        transient_rate=6.0,
        transient_minutes=45.0,
    ),
}


def assert_parity(params, day_types, samples_per_day, seed):
    fast_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    got = IntradayCloudModel(params).sample_days(day_types, samples_per_day, fast_rng)
    want = np.stack(
        [reference_sample_day(params, DayType(t), samples_per_day, oracle_rng) for t in day_types]
    )
    assert got.shape == (len(day_types), samples_per_day)
    assert got.tobytes() == want.tobytes()
    # Same draws in the same order: the streams end in the same state.
    assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=50, deadline=None)
@given(
    params=st.sampled_from(sorted(PARAMS)),
    samples_per_day=st.sampled_from([96, 288, 1440]),
    day_types=st.lists(st.sampled_from(list(DayType)), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_days_matches_per_day_oracle(params, samples_per_day, day_types, seed):
    assert_parity(PARAMS[params], day_types, samples_per_day, seed)


@pytest.mark.parametrize("params", sorted(PARAMS))
def test_every_parameter_set_matches_oracle(params):
    day_types = [0, 1, 2, 2, 1, 0, 1, 1, 2, 0]
    assert_parity(PARAMS[params], day_types, 288, seed=20100308)


def test_busy_parameters_reach_both_clamps():
    params = PARAMS["busy"]
    k = IntradayCloudModel(params).sample_days([1] * 20, 288, np.random.default_rng(3))
    assert (k == params.k_min).any() and (k == params.k_max).any()


@pytest.mark.parametrize("day_type", list(DayType))
def test_sample_day_is_the_one_day_face(day_type):
    params = CloudModelParams()
    got = IntradayCloudModel(params).sample_day(day_type, 1440, np.random.default_rng(9))
    want = reference_sample_day(params, day_type, 1440, np.random.default_rng(9))
    assert got.shape == (1440,)
    assert got.tobytes() == want.tobytes()


class TestValidation:
    def model(self):
        return IntradayCloudModel(CloudModelParams())

    @pytest.mark.parametrize("samples_per_day", [0, -288])
    def test_rejects_nonpositive_samples(self, samples_per_day):
        with pytest.raises(ValueError, match="samples_per_day"):
            self.model().sample_days([0, 1], samples_per_day, np.random.default_rng(0))

    def test_rejects_empty_day_list(self):
        with pytest.raises(ValueError, match="non-empty"):
            self.model().sample_days([], 288, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [[0, 3], [-1], [1.0], [[0, 1]]])
    def test_rejects_unknown_day_types(self, bad):
        with pytest.raises(ValueError):
            self.model().sample_days(bad, 288, np.random.default_rng(0))
