"""WCMA parity on scenario-perturbed traces.

PR 2 pinned the online predictor, the lock-step fleet kernel and the
batch sweep engine to each other on *clean* traces.  Degraded inputs
exercise different branches (zeros mid-day from dropout, flat runs from
stuck-at faults, decorrelated days from jitter and regime shifts), so
the guarantees are re-pinned here on every qualitatively distinct
scenario: online :class:`~repro.core.wcma.WCMAPredictor` ==
:class:`~repro.core.wcma.WCMABatch` predictions to 1e-9, and
:class:`~repro.core.wcma.WCMAVector` in exact lock-step with scalar
predictors across a batch of differently-degraded traces.
"""

import numpy as np
import pytest

from repro.core.optimizer import grid_search
from repro.core.wcma import WCMABatch, WCMAParams, WCMAPredictor, WCMAVector
from repro.solar.scenarios import make_scenario
from repro.solar.slots import SlotView
from repro.solar.trace import SolarTrace

TOL = 1e-9

#: One scenario per degradation mechanism (deterministic ramps, zeroed
#: windows, held values, imputation, weather shift, clock drift, and
#: the composite).
PARITY_SCENARIOS = (
    "soiling-washout",
    "shading",
    "dropout",
    "stuck",
    "gaps-hold",
    "gaps-zero",
    "regime-shift",
    "jitter",
    "harsh-field",
)

N_SLOTS = 48
PARAMS = WCMAParams(alpha=0.7, days=10, k=2)


@pytest.fixture(scope="module", params=PARITY_SCENARIOS)
def perturbed_trace(request, hsu_trace):
    return make_scenario(request.param, seed=1234).apply(hsu_trace)


class TestOnlineVsBatch:
    def test_online_matches_batch(self, perturbed_trace):
        batch = WCMABatch.from_trace(perturbed_trace, N_SLOTS)
        batch_pred = batch.predictions(PARAMS)
        online_pred = WCMAPredictor(N_SLOTS, PARAMS).run(
            batch.view.flat_starts()
        )[:-1]
        t = np.arange(batch_pred.size)
        # Same convention as the clean-trace parity suite: the final
        # boundary of each day uses one more completed day of history
        # in the batch engine, and warm-up boundaries are NaN there.
        compare = np.isfinite(batch_pred) & ((t % N_SLOTS) != N_SLOTS - 1)
        assert compare.sum() > 0
        assert np.abs(batch_pred[compare] - online_pred[compare]).max() < TOL

    def test_grid_search_runs_on_degraded_trace(self, perturbed_trace):
        """The sweep engine accepts degraded inputs end to end."""
        result = grid_search(
            perturbed_trace,
            N_SLOTS,
            alphas=(0.5, 0.7),
            days=(5, 10),
            ks=(1, 2),
        )
        assert np.isfinite(result.best_error)
        assert 0.0 <= result.best_error < 2.0


class TestVectorLockStep:
    def test_vector_matches_scalars_across_scenarios(self, hsu_trace):
        """One WCMAVector column per scenario == per-trace scalars."""
        scenarios = ("dropout", "stuck", "jitter")
        traces = [
            make_scenario(name, seed=77).apply(hsu_trace) for name in scenarios
        ]
        starts = np.column_stack(
            [SlotView.from_trace(t, N_SLOTS).flat_starts() for t in traces]
        )
        vector = WCMAVector(N_SLOTS, PARAMS, batch_size=len(traces))
        scalars = [WCMAPredictor(N_SLOTS, PARAMS) for _ in traces]
        worst = 0.0
        for t in range(starts.shape[0]):
            vec = vector.observe(starts[t])
            ref = np.array(
                [p.observe(float(v)) for p, v in zip(scalars, starts[t])]
            )
            worst = max(worst, float(np.abs(vec - ref).max()))
        assert worst == 0.0  # the scalar predictor is the kernel's B=1 face

    def test_vector_reset_reproduces(self, hsu_trace):
        trace = make_scenario("harsh-field", seed=5).apply(hsu_trace)
        starts = SlotView.from_trace(trace, N_SLOTS).flat_starts()
        batch = np.column_stack([starts, starts])
        vector = WCMAVector(N_SLOTS, PARAMS, batch_size=2)
        first = np.array([vector.observe(batch[t]) for t in range(200)])
        vector.reset()
        second = np.array([vector.observe(batch[t]) for t in range(200)])
        np.testing.assert_array_equal(first, second)


class TestDegradedEdgeCases:
    def test_all_dark_scenario_day(self):
        """A trace a heavy dropout zeroes completely still runs."""
        values = np.zeros(15 * N_SLOTS)
        trace = SolarTrace(values, (24 * 60) // N_SLOTS, "dark")
        batch_pred = WCMABatch.from_trace(trace, N_SLOTS).predictions(PARAMS)
        online_pred = WCMAPredictor(N_SLOTS, PARAMS).run(values)[:-1]
        assert (online_pred == 0.0).all()
        valid = np.isfinite(batch_pred)
        assert valid.any()  # history completes after D days
        assert np.abs(batch_pred[valid] - online_pred[valid]).max() < TOL
