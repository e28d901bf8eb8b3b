"""Parity suite: sweep-engine v2 kernels vs the frozen pre-v2 loops.

Pins every kernel the fused engine rebuilt -- prefix-sum ``μ_D``, the
``η`` series, the gathered conditioned-term stack (the one ``Φ_K``
kernel) and the fused ``(D, K, alpha)`` error cube -- against the reference
implementations preserved in the ``tests.oracles.sweep`` oracle, to
1e-12 on the full default grid, across all six sites at N=48 and N=24,
plus a property test that :func:`~repro.core.optimizer.sweep_many`
matches independent :func:`~repro.core.optimizer.grid_search` calls.
"""

import numpy as np
import pytest

from repro.core.optimizer import (
    DEFAULT_DAYS,
    DEFAULT_KS,
    SweepSpec,
    grid_search,
    sweep_many,
)
from repro.core import optimizer
from repro.core.wcma import WCMABatch
from repro.metrics.roi import roi_indices
from repro.solar.datasets import build_dataset
from repro.solar.sites import SITE_ORDER
from tests.oracles.sweep import ReferenceBatch, mu_matrix, reference_grid_search

DAYS = 45
TOL = 1e-12


def _batches(site, n_slots):
    trace = build_dataset(site, n_days=DAYS)
    batch = WCMABatch.from_trace(trace, n_slots)
    return trace, batch, ReferenceBatch(batch.view)


class TestKernelParity:
    """mu / eta series: v2 vs reference, every default D."""

    @pytest.fixture(scope="class")
    def pair(self):
        _, batch, reference = _batches("HSU", 48)
        return batch, reference

    def test_mu_flat_matches_mu_matrix(self, pair):
        batch, reference = pair
        for days in DEFAULT_DAYS:
            np.testing.assert_allclose(
                batch.mu_flat(days),
                mu_matrix(batch.view.starts, days).reshape(-1),
                atol=TOL,
                rtol=0.0,
                equal_nan=True,
            )

    def test_mu2d_shape_and_warmup_nan(self, pair):
        batch, _ = pair
        mu = batch.mu2d(5)
        assert mu.shape == batch.view.starts.shape
        assert np.isnan(mu[:5]).all()
        assert np.isfinite(mu[5:]).all()

    def test_eta_flat_matches_reference(self, pair):
        batch, reference = pair
        for days in DEFAULT_DAYS:
            np.testing.assert_allclose(
                batch.eta_flat(days),
                reference.eta_flat(days),
                atol=TOL,
                rtol=0.0,
                equal_nan=True,
            )


class TestConditionedStack:
    @pytest.fixture(scope="class")
    def pair(self):
        _, batch, reference = _batches("PFCI", 48)
        idx = roi_indices(batch.reference_mean, 48)
        return batch, reference, idx

    def test_matches_gathered_conditioned_term(self, pair):
        batch, reference, idx = pair
        stack = batch.conditioned_stack(DEFAULT_DAYS, DEFAULT_KS, idx)
        assert stack.shape == (len(DEFAULT_DAYS), len(DEFAULT_KS), idx.size)
        for i, days in enumerate(DEFAULT_DAYS):
            for j, k in enumerate(DEFAULT_KS):
                np.testing.assert_allclose(
                    stack[i, j],
                    reference.conditioned_term(days, k)[idx],
                    atol=TOL,
                    rtol=0.0,
                    equal_nan=True,
                    err_msg=f"(D={days}, K={k})",
                )

    def test_out_buffer_and_k_subset(self, pair):
        batch, reference, idx = pair
        ks = (5, 2)
        out = np.empty((2, 2, idx.size))
        result = batch.conditioned_stack((4, 9), ks, idx, out=out)
        assert result is out
        np.testing.assert_allclose(
            out[1, 0],
            reference.conditioned_term(9, 5)[idx],
            atol=TOL,
            rtol=0.0,
            equal_nan=True,
        )

    def test_duplicate_ks(self, pair):
        batch, _, idx = pair
        stack = batch.conditioned_stack((4,), (2, 2), idx)
        np.testing.assert_array_equal(stack[:, 0], stack[:, 1])

    def test_rejects_out_of_range_idx(self, pair):
        batch, _, _ = pair
        bad = np.array([batch.n_boundaries - 1])
        with pytest.raises(ValueError, match="boundary indices"):
            batch.conditioned_stack((4,), (2,), bad)

    def test_short_lookback_is_nan(self, pair):
        """With no warm-up cut, the first K-1 boundaries lack a full
        eta window and must come back NaN, like the flat phi series."""
        batch, _, _ = pair
        idx = np.arange(0, 10)
        stack = batch.conditioned_stack((3,), (4,), idx)
        assert np.isnan(stack[0, 0, :3]).all()


class TestErrorCubeParity:
    """Full-default-grid fused cube == loop cube on every site."""

    @pytest.mark.parametrize("site", SITE_ORDER)
    @pytest.mark.parametrize("n_slots", (48, 24))
    def test_full_grid_both_objectives(self, site, n_slots):
        trace = build_dataset(site, n_days=DAYS)
        batch = WCMABatch.from_trace(trace, n_slots)
        for objective in ("mape", "mape_prime"):
            fused = grid_search(trace, n_slots, objective=objective, batch=batch)
            loop = reference_grid_search(
                trace, n_slots, objective=objective, batch=batch
            )
            np.testing.assert_allclose(
                fused.errors,
                loop.errors,
                atol=TOL,
                rtol=0.0,
                equal_nan=True,
                err_msg=f"{site} N={n_slots} {objective}",
            )
            assert fused.best == loop.best
            assert fused.best_error == pytest.approx(loop.best_error, abs=TOL)

    def test_non_uniform_alpha_grid(self):
        """The kernel's non-uniform-step branch (per-alpha drift scale)."""
        trace = build_dataset("HSU", n_days=DAYS)
        alphas = (0.0, 0.05, 0.3, 0.31, 0.9, 1.0)
        fused = grid_search(trace, 24, alphas=alphas, days=(3, 8), ks=(1, 3))
        loop = reference_grid_search(
            trace, 24, alphas=alphas, days=(3, 8), ks=(1, 3)
        )
        np.testing.assert_allclose(
            fused.errors, loop.errors, atol=TOL, rtol=0.0, equal_nan=True
        )

    def test_unsorted_alpha_grid_keeps_order(self):
        trace = build_dataset("HSU", n_days=DAYS)
        alphas = (0.9, 0.1, 0.5)
        fused = grid_search(trace, 24, alphas=alphas, days=(4,), ks=(2,))
        loop = reference_grid_search(
            trace, 24, alphas=alphas, days=(4,), ks=(2,)
        )
        assert fused.alphas == alphas
        np.testing.assert_allclose(
            fused.errors, loop.errors, atol=TOL, rtol=0.0, equal_nan=True
        )

    def test_short_warmup_nan_pattern_matches(self):
        """A warm-up shorter than the deepest D scores boundaries with
        incomplete history; the engines must agree on exactly which
        cube entries drown in NaN (here: every D=3 row, since day-2
        samples are scored but mu_3 is undefined there, while D=2/K=1
        stays finite)."""
        trace = build_dataset("PFCI", n_days=DAYS)
        fused = grid_search(trace, 24, days=(2, 3), ks=(1, 2), warmup_days=2)
        loop = reference_grid_search(
            trace, 24, days=(2, 3), ks=(1, 2), warmup_days=2
        )
        assert np.isnan(fused.errors).any()
        assert np.isfinite(fused.errors).any()
        np.testing.assert_array_equal(
            np.isnan(fused.errors), np.isnan(loop.errors)
        )
        np.testing.assert_allclose(
            fused.errors, loop.errors, atol=TOL, rtol=0.0, equal_nan=True
        )

    def test_d_chunk_invariance(self, monkeypatch):
        """Chunking the D axis must not change a single bit pattern of
        the cube (same kernels, same order within each row).  The
        chunk is sized from the temporary-memory budget, so shrinking
        the budget forces 1-, 3- and 7-day chunks."""
        trace = build_dataset("HSU", n_days=DAYS)
        batch = WCMABatch.from_trace(trace, 48)
        whole = grid_search(trace, 48, batch=batch)
        idx = roi_indices(batch.reference_mean, 48)
        per_day = len(DEFAULT_KS) * idx.size * 64 + batch.n_boundaries * 24
        assert optimizer._default_chunk(
            len(DEFAULT_DAYS), len(DEFAULT_KS), idx.size, batch.n_boundaries
        ) == len(DEFAULT_DAYS)
        for chunk in (1, 3, 7):
            monkeypatch.setattr(optimizer, "_CHUNK_BYTES", chunk * per_day)
            assert optimizer._default_chunk(
                len(DEFAULT_DAYS), len(DEFAULT_KS), idx.size, batch.n_boundaries
            ) == chunk
            chunked = grid_search(trace, 48, batch=batch)
            np.testing.assert_array_equal(whole.errors, chunked.errors)


class TestSweepMany:
    def test_matches_independent_grid_search(self):
        """Property: sweep_many == [grid_search(spec) for spec] for a
        mixed bag of sites, sampling rates and objectives."""
        hsu = build_dataset("HSU", n_days=DAYS)
        pfci = build_dataset("PFCI", n_days=DAYS)
        specs = [
            SweepSpec(hsu, 48),
            SweepSpec(hsu, 48, objective="mape_prime"),
            SweepSpec(hsu, 24),
            SweepSpec(pfci, 48),
        ]
        combined = sweep_many(specs)
        for spec, got in zip(specs, combined):
            solo = grid_search(spec.trace, spec.n_slots, objective=spec.objective)
            np.testing.assert_allclose(
                got.errors, solo.errors, atol=TOL, rtol=0.0, equal_nan=True
            )
            assert got.best == solo.best
            assert got.objective == spec.objective
            assert got.n_slots == spec.n_slots

    def test_accepts_bare_tuples(self):
        hsu = build_dataset("HSU", n_days=DAYS)
        a, b = sweep_many([(hsu, 24), (hsu, 24, "mape_prime")])
        assert a.objective == "mape"
        assert b.objective == "mape_prime"

    def test_reuses_injected_batch(self):
        hsu = build_dataset("HSU", n_days=DAYS)
        batch = WCMABatch.from_trace(hsu, 24)
        with_batch, without = sweep_many(
            [SweepSpec(hsu, 24, batch=batch), SweepSpec(hsu, 24, "mape_prime")]
        )
        solo = grid_search(hsu, 24, objective="mape_prime")
        np.testing.assert_allclose(
            without.errors, solo.errors, atol=TOL, rtol=0.0, equal_nan=True
        )
        assert with_batch.best == grid_search(hsu, 24, batch=batch).best
