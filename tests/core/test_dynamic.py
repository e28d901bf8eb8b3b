"""Tests for clairvoyant dynamic parameter selection (Table V logic)."""

import numpy as np
import pytest

from repro.core.dynamic import clairvoyant_dynamic
from repro.core.optimizer import DEFAULT_ALPHAS, DEFAULT_KS, grid_search
from repro.experiments import table5
from repro.experiments.common import (
    PAPER_N_VALUES,
    batch_for,
    supported_n_for_site,
    sweep_for,
)
from repro.metrics.roi import roi_mask
from tests.oracles.sweep import ReferenceBatch

ALPHAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
KS = (1, 2, 4, 6)
DAYS = 6


class TestClairvoyantDynamic:
    @pytest.fixture(scope="class")
    def static(self, hsu_trace):
        return grid_search(
            hsu_trace, 48, alphas=ALPHAS, days=(DAYS,), ks=KS
        )

    @pytest.fixture(scope="class")
    def modes(self, hsu_trace):
        return {
            mode: clairvoyant_dynamic(
                hsu_trace, 48, DAYS, mode=mode, alphas=ALPHAS, ks=KS
            )
            for mode in ("both", "k_only", "alpha_only")
        }

    def test_dynamic_never_worse_than_static(self, static, modes):
        for result in modes.values():
            assert result.mape <= static.best_error + 1e-12

    def test_both_is_best(self, modes):
        assert modes["both"].mape <= modes["k_only"].mape + 1e-12
        assert modes["both"].mape <= modes["alpha_only"].mape + 1e-12

    def test_alpha_adaptation_beats_k_adaptation(self, modes):
        """Table V ordering: adapting alpha helps more than adapting K."""
        assert modes["alpha_only"].mape <= modes["k_only"].mape + 1e-12

    def test_reported_fixed_parameters(self, modes):
        assert modes["both"].fixed_alpha is None
        assert modes["both"].fixed_k is None
        assert modes["k_only"].fixed_alpha in ALPHAS
        assert modes["alpha_only"].fixed_k in KS

    def test_paper_observation_on_companion_parameters(self, static, modes):
        """With K dynamic, a lower fixed alpha wins; with alpha dynamic,
        a higher fixed K wins (Section IV-C's closing observation)."""
        assert modes["k_only"].fixed_alpha <= static.best.alpha
        assert modes["alpha_only"].fixed_k >= static.best.k

    def test_mode_validation(self, hsu_trace):
        with pytest.raises(ValueError, match="mode"):
            clairvoyant_dynamic(hsu_trace, 48, DAYS, mode="everything")

    def test_metadata(self, modes):
        result = modes["both"]
        assert result.n_slots == 48
        assert result.days == DAYS

    def test_gains_grow_as_n_shrinks(self, hsu_trace):
        """Relative improvement of dynamic-both over static grows as the
        horizon lengthens (fewer slots per day)."""
        gains = {}
        for n_slots in (48, 24):
            static = grid_search(
                hsu_trace, n_slots, alphas=ALPHAS, days=(DAYS,), ks=KS
            )
            both = clairvoyant_dynamic(
                hsu_trace, n_slots, DAYS, mode="both", alphas=ALPHAS, ks=KS
            )
            gains[n_slots] = (static.best_error - both.mape) / static.best_error
        # Both horizons gain substantially; on a 30-day trace the N-trend
        # itself is noisy, so only bound the deviation (the full-year
        # trend is asserted in benchmarks/test_bench_table5.py).
        assert gains[48] > 0.3 and gains[24] > 0.3
        assert gains[24] >= gains[48] - 0.1


class TestTableVAgainstOracle:
    """Table V's clairvoyant selections against the frozen sweep oracle.

    The oracle cube is the pre-v2 one: every ``(alpha, K)`` plane from
    :meth:`tests.oracles.sweep.ReferenceBatch.conditioned_term`, masked
    to the region of interest, for the four Table V sites at every
    supported paper N over 365 days, with ``D`` at the site's static
    optimum (as :func:`repro.experiments.table5.run` picks it).
    """

    N_DAYS = 365
    TOL = 1e-12

    @staticmethod
    def _oracle_modes(batch, days):
        reference = ReferenceBatch(batch.view, batch.eta_floor_fraction)
        ref = batch.reference_mean
        mask = roi_mask(ref, batch.n_slots)
        ref_sel = ref[mask]
        s_sel = batch.starts_flat[:-1][mask]
        alpha_vec = np.asarray(DEFAULT_ALPHAS)[:, None]
        cube = np.empty((len(DEFAULT_ALPHAS), len(DEFAULT_KS), ref_sel.size))
        for j, k in enumerate(DEFAULT_KS):
            q_sel = reference.conditioned_term(days, k)[mask]
            preds = alpha_vec * s_sel + (1.0 - alpha_vec) * q_sel
            cube[:, j, :] = np.abs(ref_sel - preds) / ref_sel
        per_alpha = cube.min(axis=1).mean(axis=1)
        per_k = cube.min(axis=0).mean(axis=1)
        return {
            "both_mape": float(cube.min(axis=(0, 1)).mean()),
            "k_only_alpha": DEFAULT_ALPHAS[int(np.argmin(per_alpha))],
            "k_only_mape": float(per_alpha.min()),
            "alpha_only_k": DEFAULT_KS[int(np.argmin(per_k))],
            "alpha_only_mape": float(per_k.min()),
        }

    def test_matches_reference_cube_at_paper_scale(self):
        result = table5.run(n_days=self.N_DAYS)
        expected_rows = [
            (site, n)
            for site in table5.DYNAMIC_SITES
            for n in supported_n_for_site(site, PAPER_N_VALUES)
        ]
        assert [(r["data_set"], r["n"]) for r in result.rows] == expected_rows
        for row in result.rows:
            site, n_slots = row["data_set"], row["n"]
            days = sweep_for(site, self.N_DAYS, n_slots).best.days
            oracle = self._oracle_modes(batch_for(site, self.N_DAYS, n_slots), days)
            where = f"{site} N={n_slots} D={days}"
            assert row["k_only_alpha"] == oracle["k_only_alpha"], where
            assert row["alpha_only_k"] == oracle["alpha_only_k"], where
            for key in ("both_mape", "k_only_mape", "alpha_only_mape"):
                assert row[key] == pytest.approx(oracle[key], rel=self.TOL, abs=0), (
                    f"{where} {key}"
                )
