"""Tests for the realizable adaptive selectors."""

import numpy as np
import pytest

from repro.core.adaptive import (
    EpsilonGreedySelector,
    EpsilonGreedyVector,
    FollowTheLeaderSelector,
    FollowTheLeaderVector,
    HedgeSelector,
    HedgeVector,
    SoftminSelector,
    SoftminVector,
    compact_grid,
)
from repro.core.wcma import WCMAParams, WCMAPredictor
from repro.metrics.evaluate import evaluate_predictor
from repro.solar.slots import SlotView

SMALL_GRID = [
    WCMAParams(alpha=a, days=5, k=k) for a in (0.0, 0.5, 1.0) for k in (1, 2)
]


class TestConstruction:
    def test_default_grid_size(self):
        selector = FollowTheLeaderSelector(48, days=5)
        assert len(selector.grid) == 11 * 6  # full paper grid

    def test_validation(self):
        with pytest.raises(ValueError):
            FollowTheLeaderSelector(0)
        with pytest.raises(ValueError):
            FollowTheLeaderSelector(48, discount=0.0)
        with pytest.raises(ValueError):
            FollowTheLeaderSelector(48, grid=[])
        with pytest.raises(ValueError):
            FollowTheLeaderSelector(48, feedback="psychic")
        with pytest.raises(ValueError):
            EpsilonGreedySelector(48, epsilon=2.0)
        with pytest.raises(ValueError):
            HedgeSelector(48, learning_rate=0.0)
        with pytest.raises(ValueError):
            SoftminSelector(48, tau=0.0)

    def test_compact_grid_accepts_int_or_sequence_days(self):
        single = compact_grid(days=5, alphas=(0.5,), ks=(2,))
        multi = compact_grid(days=(5, 10), alphas=(0.5,), ks=(2,))
        assert [p.days for p in single] == [5]
        assert sorted(p.days for p in multi) == [5, 10]

    def test_compact_grid_reaches_outside_tuning_grid(self):
        """The default compact grid must include experts the paper's
        tuning grid cannot express (off-grid alpha, K past the cap)."""
        grid = compact_grid()
        alphas = {p.alpha for p in grid}
        ks = {p.k for p in grid}
        assert any(round(a * 10) != a * 10 for a in alphas)  # e.g. 0.55
        assert max(ks) > 6


class TestBehaviour:
    def test_prediction_within_expert_range(self, rng):
        selector = HedgeSelector(4, days=2, grid=SMALL_GRID)
        values = rng.uniform(0, 100, 40)
        for value in values:
            prediction = selector.observe(float(value))
            expert_predictions = selector.expert_predictions
            assert (
                expert_predictions.min() - 1e-9
                <= prediction
                <= expert_predictions.max() + 1e-9
            )

    def test_softmin_blend_within_expert_range(self, rng):
        selector = SoftminSelector(4, days=2, grid=SMALL_GRID, tau=0.25)
        values = rng.uniform(0, 100, 40)
        for value in values:
            prediction = selector.observe(float(value))
            expert_predictions = selector.expert_predictions
            assert (
                expert_predictions.min() - 1e-9
                <= prediction
                <= expert_predictions.max() + 1e-9
            )

    def test_softmin_low_tau_approaches_ftl(self, rng):
        """tau -> 0 collapses the blend onto the leaderboard winner.

        Only after warm-up: while expert scores still tie (cold start),
        softmin averages the tied experts where FTL picks the first.
        """
        sharp = SoftminSelector(4, days=2, grid=SMALL_GRID, tau=1e-9,
                                discount=0.95)
        ftl = FollowTheLeaderSelector(4, days=2, grid=SMALL_GRID,
                                      discount=0.95)
        values = rng.uniform(0, 100, 60)
        for t, value in enumerate(values):
            a = sharp.observe(float(value))
            b = ftl.observe(float(value))
            if t >= 40:
                assert a == pytest.approx(b, abs=1e-6)

    def test_ftl_tracks_best_expert_on_easy_data(self):
        """If one expert is exactly right every time, FTL locks onto it."""
        # Repeating days: alpha=0, K=1 expert predicts the boundary
        # exactly; persistence (alpha=1) is wrong on the ramp.
        profile = [0.0, 100.0, 200.0, 100.0]
        selector = FollowTheLeaderSelector(
            4, days=2, grid=SMALL_GRID, feedback="sample"
        )
        for _ in range(8):
            for value in profile:
                selector.observe(value)
        chosen = selector.chosen_params
        assert chosen.alpha == 0.0

    def test_epsilon_greedy_deterministic_per_seed(self, hsu_trace):
        a = EpsilonGreedySelector(48, days=3, grid=SMALL_GRID, seed=3)
        b = EpsilonGreedySelector(48, days=3, grid=SMALL_GRID, seed=3)
        starts = hsu_trace.as_days()[:4].reshape(-1)[:: 30]
        pa = [a.observe(float(v)) for v in starts]
        pb = [b.observe(float(v)) for v in starts]
        assert pa == pb

    def test_reset_restores_cold_start(self):
        selector = FollowTheLeaderSelector(4, days=2, grid=SMALL_GRID)
        seq = [10.0, 50.0, 90.0, 40.0] * 6
        first = [selector.observe(v) for v in seq]
        selector.reset()
        second = [selector.observe(v) for v in seq]
        assert first == second

    def test_slot_mean_feedback_flag(self):
        assert FollowTheLeaderSelector(4).uses_slot_mean_feedback
        assert not FollowTheLeaderSelector(4, feedback="sample").uses_slot_mean_feedback

    def test_provide_slot_mean_validation(self):
        with pytest.raises(ValueError):
            FollowTheLeaderSelector(4).provide_slot_mean(-1.0)

    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError):
            FollowTheLeaderSelector(4).observe(-5.0)


class TestExpertKernel:
    def test_kernel_columns_equal_standalone_predictors(self, pfci_trace):
        """Column b of the expert kernel is WCMAPredictor(N, grid[b]), bitwise."""
        selector = SoftminSelector(48, grid=compact_grid())
        starts = SlotView.from_trace(pfci_trace, 48).flat_starts()
        columns = np.empty((starts.size, len(selector.grid)))
        for t, value in enumerate(starts):
            selector.observe(float(value))
            columns[t] = selector.expert_predictions
        for b, params in enumerate(selector.grid):
            np.testing.assert_array_equal(
                columns[:, b], WCMAPredictor(48, params).run(starts), err_msg=str(params)
            )


class TestSelectorKernels:
    @pytest.mark.parametrize(
        "kernel_cls,face_cls,kwargs",
        [
            (FollowTheLeaderVector, FollowTheLeaderSelector, {}),
            (SoftminVector, SoftminSelector, {"tau": 0.25}),
            (EpsilonGreedyVector, EpsilonGreedySelector, {"epsilon": 0.2, "seed": 3}),
            (HedgeVector, HedgeSelector, {}),
        ],
        ids=["ftl", "softmin", "greedy", "hedge"],
    )
    def test_node_equals_lone_selector(self, hsu_trace, pfci_trace, kernel_cls,
                                       face_cls, kwargs):
        """Node b of a B-node kernel is a lone selector on node b's
        samples and slot means, bit for bit -- predictions and choices."""
        views = [SlotView.from_trace(t, 48) for t in (hsu_trace, pfci_trace, hsu_trace)]
        starts = np.stack([v.flat_starts()[:960] for v in views], axis=1)
        starts[:, 2] *= 0.5  # same weather, another scale: its own scores
        means = np.stack([v.flat_means()[:960] for v in views], axis=1)
        grid = compact_grid(days=(2, 5))
        kernel = kernel_cls(48, 3, grid=grid, **kwargs)
        got = np.empty_like(starts)
        choices = np.empty(starts.shape, dtype=int)
        for t in range(starts.shape[0]):
            if t > 0:
                kernel.provide_slot_mean(means[t - 1])
            got[t] = kernel.observe(starts[t])
            choices[t] = kernel._last_choice
        for b in range(3):
            lone = face_cls(48, grid=grid, **kwargs)
            for t in range(starts.shape[0]):
                if t > 0:
                    lone.provide_slot_mean(float(means[t - 1, b]))
                assert lone.observe(float(starts[t, b])) == got[t, b], (b, t)
                assert lone.last_choice == choices[t, b], (b, t)


class TestEndToEnd:
    def test_adaptive_beats_worst_static_expert(self, hsu_trace):
        """The selector must comfortably beat the bad corners of its own
        expert grid (sanity: it is actually selecting)."""
        from repro.core.wcma import WCMAPredictor

        selector = FollowTheLeaderSelector(48, days=5, grid=SMALL_GRID)
        adaptive = evaluate_predictor(selector, hsu_trace, 48)
        worst = max(
            evaluate_predictor(WCMAPredictor(48, p), hsu_trace, 48).mape
            for p in SMALL_GRID
        )
        assert adaptive.mape < worst

    def test_adaptive_close_to_best_static_expert(self, hsu_trace):
        """FTL should land within a modest factor of the best fixed
        expert chosen in hindsight."""
        from repro.core.wcma import WCMAPredictor

        selector = FollowTheLeaderSelector(48, days=5, grid=SMALL_GRID)
        adaptive = evaluate_predictor(selector, hsu_trace, 48)
        best = min(
            evaluate_predictor(WCMAPredictor(48, p), hsu_trace, 48).mape
            for p in SMALL_GRID
        )
        assert adaptive.mape < best * 1.35
