"""Tests for the exhaustive parameter grid search."""

import numpy as np
import pytest

from repro.core.optimizer import (
    DEFAULT_ALPHAS,
    DEFAULT_DAYS,
    DEFAULT_KS,
    grid_search,
    mape_for_params,
)
from repro.core.wcma import WCMABatch, WCMAParams
from tests.oracles.sweep import reference_grid_search


SMALL_ALPHAS = (0.0, 0.3, 0.6, 0.9)
SMALL_DAYS = (2, 4, 6)
SMALL_KS = (1, 2, 3)


class TestDefaults:
    def test_paper_grids(self):
        assert DEFAULT_ALPHAS == tuple(round(0.1 * i, 1) for i in range(11))
        assert DEFAULT_DAYS == tuple(range(2, 21))
        assert DEFAULT_KS == tuple(range(1, 7))


class TestGridSearch:
    @pytest.fixture(scope="class")
    def result(self, pfci_trace):
        return grid_search(
            pfci_trace, 48, alphas=SMALL_ALPHAS, days=SMALL_DAYS, ks=SMALL_KS
        )

    def test_cube_shape(self, result):
        assert result.errors.shape == (3, 3, 4)
        assert np.isfinite(result.errors).all()

    def test_best_is_cube_min(self, result):
        assert result.best_error == pytest.approx(np.nanmin(result.errors))
        i = result.days.index(result.best.days)
        j = result.ks.index(result.best.k)
        a = result.alphas.index(result.best.alpha)
        assert result.errors[i, j, a] == result.best_error

    def test_error_at(self, result):
        value = result.error_at(0.3, 4, 2)
        assert value == result.errors[1, 1, 1]
        with pytest.raises(KeyError):
            result.error_at(0.5, 4, 2)

    def test_best_for_k(self, result):
        params, err = result.best_for_k(2)
        assert params.k == 2
        assert err >= result.best_error - 1e-12
        assert err == pytest.approx(np.nanmin(result.errors[:, 1, :]))

    def test_best_for_days(self, result):
        params, err = result.best_for_days(4)
        assert params.days == 4
        assert err == pytest.approx(np.nanmin(result.errors[1, :, :]))

    def test_objective_mape_prime(self, pfci_trace):
        prime = grid_search(
            pfci_trace,
            48,
            alphas=SMALL_ALPHAS,
            days=SMALL_DAYS,
            ks=SMALL_KS,
            objective="mape_prime",
        )
        assert prime.objective == "mape_prime"

    def test_mape_lower_than_mape_prime_at_optimum(self, pfci_trace):
        """Table II's headline: scoring against the slot mean yields
        lower optimal error than scoring against the boundary sample."""
        by_mape = grid_search(
            pfci_trace, 48, alphas=SMALL_ALPHAS, days=SMALL_DAYS, ks=SMALL_KS
        )
        by_prime = grid_search(
            pfci_trace,
            48,
            alphas=SMALL_ALPHAS,
            days=SMALL_DAYS,
            ks=SMALL_KS,
            objective="mape_prime",
        )
        assert by_mape.best_error < by_prime.best_error

    def test_batch_reuse_consistent(self, pfci_trace):
        batch = WCMABatch.from_trace(pfci_trace, 48)
        a = grid_search(pfci_trace, 48, alphas=(0.5,), days=(4,), ks=(2,))
        b = grid_search(
            pfci_trace, 48, alphas=(0.5,), days=(4,), ks=(2,), batch=batch
        )
        assert a.best_error == pytest.approx(b.best_error)

    def test_matches_online_evaluation(self, pfci_trace):
        """The vectorized sweep must agree with the slow online path."""
        from repro.core.wcma import WCMAPredictor
        from repro.metrics.evaluate import evaluate_predictor

        params = WCMAParams(0.6, 4, 2)
        fast = mape_for_params(pfci_trace, 48, params)
        slow = evaluate_predictor(
            WCMAPredictor(48, params), pfci_trace, 48
        ).mape
        assert fast == pytest.approx(slow, rel=1e-9)

    def test_validation(self, pfci_trace):
        with pytest.raises(ValueError, match="objective"):
            grid_search(pfci_trace, 48, objective="rmse")
        with pytest.raises(ValueError, match="non-empty"):
            grid_search(pfci_trace, 48, alphas=())
        with pytest.raises(ValueError, match="history depth"):
            grid_search(pfci_trace, 48, days=(60,))
        with pytest.raises(ValueError, match="d_chunk"):
            grid_search(pfci_trace, 48, d_chunk=0)

    def test_d_equal_trace_length_rejected(self, pfci_trace):
        """The guard is D >= n_days, not just D > n_days: with D equal
        to the trace length no complete history row ever exists."""
        with pytest.raises(ValueError, match="history depth"):
            grid_search(pfci_trace, 48, days=(pfci_trace.n_days,))

    def test_thin_history_warns_and_flags_meta(self, pfci_trace):
        """2*max(D) > n_days is legal but scores deep-D grid points on
        very little data; the sweep must say so."""
        deep = pfci_trace.n_days // 2 + 1
        with pytest.warns(RuntimeWarning, match="thin history"):
            result = grid_search(
                pfci_trace,
                48,
                alphas=(0.5,),
                days=(deep,),
                ks=(2,),
                warmup_days=deep,  # score only where the history is full
            )
        assert result.meta["thin_history"] is True

    def test_comfortable_history_no_warning(self, result):
        assert result.meta == {"thin_history": False}

    def test_loop_engine_same_result(self, pfci_trace, result):
        """The frozen pre-v2 loop (the sweep oracle) finds the same cube."""
        loop = reference_grid_search(
            pfci_trace,
            48,
            alphas=SMALL_ALPHAS,
            days=SMALL_DAYS,
            ks=SMALL_KS,
        )
        assert loop.best == result.best
        np.testing.assert_allclose(loop.errors, result.errors, atol=1e-12, rtol=0.0)
