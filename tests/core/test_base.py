"""Tests for the predictor protocol and the day-history ring buffer.

:class:`~repro.core.base.FleetDayHistory` is the one ring buffer; every
case runs at ``B == 1`` (how single-node predictors hold it) and at
``B == 3`` with per-node scaled samples, which must behave as three
independent buffers.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base import FleetDayHistory
from repro.core.baselines import PersistencePredictor

#: Batch sizes every ring-buffer case runs at.
BATCH_SIZES = (1, 3)


def _nodes(value, batch_size):
    """``value`` for node 0, ``(b + 1) * value`` for node ``b``."""
    return value * np.arange(1.0, batch_size + 1.0)


class TestDayHistory:
    def test_initially_empty(self):
        for B in BATCH_SIZES:
            history = FleetDayHistory(n_slots=4, depth=3, batch_size=B)
            assert history.n_complete_days == 0
            assert history.total_days_completed == 0
            assert history.current_slot == 0
            assert np.isnan(history.slot_mean(0)).all()
            assert history.slot_mean(0).shape == (B,)
            assert history.slot_history(0).shape == (0, B)

    def test_day_completion(self):
        for B in BATCH_SIZES:
            history = FleetDayHistory(n_slots=3, depth=2, batch_size=B)
            for value in (1.0, 2.0, 3.0):
                history.push_slot(_nodes(value, B))
            assert history.n_complete_days == 1
            assert history.current_slot == 0
            assert history.slot_mean(1).tolist() == _nodes(2.0, B).tolist()

    def test_ring_eviction(self):
        for B in BATCH_SIZES:
            history = FleetDayHistory(n_slots=2, depth=2, batch_size=B)
            for day_value in (10.0, 20.0, 30.0):  # three days of constant value
                history.push_slot(_nodes(day_value, B))
                history.push_slot(_nodes(day_value, B))
            # Only the last two days (20, 30) are retained.
            assert history.n_complete_days == 2
            assert history.total_days_completed == 3
            assert history.slot_mean(0).tolist() == _nodes(25.0, B).tolist()

    def test_slot_mean_with_partial_depth(self):
        for B in BATCH_SIZES:
            history = FleetDayHistory(n_slots=1, depth=5, batch_size=B)
            history.push_slot(_nodes(10.0, B))
            history.push_slot(_nodes(20.0, B))
            assert history.slot_mean(0).tolist() == _nodes(15.0, B).tolist()
            assert history.slot_mean(0, depth=1).tolist() == _nodes(20.0, B).tolist()

    def test_slot_column_order_oldest_first(self):
        for B in BATCH_SIZES:
            history = FleetDayHistory(n_slots=1, depth=3, batch_size=B)
            for v in (1.0, 2.0, 3.0, 4.0):
                history.push_slot(_nodes(v, B))
            expected = np.stack([_nodes(v, B) for v in (2.0, 3.0, 4.0)])
            np.testing.assert_array_equal(history.slot_history(0), expected)

    def test_slot_wraps_modulo_n(self):
        for B in BATCH_SIZES:
            history = FleetDayHistory(n_slots=4, depth=1, batch_size=B)
            for v in (1.0, 2.0, 3.0, 4.0):
                history.push_slot(_nodes(v, B))
            np.testing.assert_array_equal(history.slot_mean(5), history.slot_mean(1))

    def test_reset(self):
        for B in BATCH_SIZES:
            history = FleetDayHistory(n_slots=2, depth=2, batch_size=B)
            history.push_slot(_nodes(1.0, B))
            history.push_slot(_nodes(2.0, B))
            history.reset()
            assert history.n_complete_days == 0
            assert history.current_slot == 0
            assert np.isnan(history.slot_mean(0)).all()

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            FleetDayHistory(n_slots=0, depth=1, batch_size=1)
        with pytest.raises(ValueError):
            FleetDayHistory(n_slots=1, depth=0, batch_size=1)
        with pytest.raises(ValueError):
            FleetDayHistory(n_slots=1, depth=1, batch_size=0)

    @settings(max_examples=30, deadline=None)
    @given(
        depth=st.integers(1, 12),
        n_slots=st.integers(1, 6),
        n_values=st.integers(1, 80),
        seed=st.integers(0, 1000),
    )
    def test_ring_matches_reference_model(self, depth, n_slots, n_values, seed):
        """Property: slot_mean always equals a plain-list reference --
        the oldest-first running sum over the retained days, bit for
        bit, for every node of every batch size."""
        rng = np.random.default_rng(seed)
        values = rng.uniform(0, 100, (n_values, max(BATCH_SIZES)))
        for B in BATCH_SIZES:
            history = FleetDayHistory(n_slots=n_slots, depth=depth, batch_size=B)
            completed = []
            current = []
            for row in values[:, :B]:
                history.push_slot(row)
                current.append(row.tolist())
                if len(current) == n_slots:
                    completed.append(current)
                    current = []
            recent = completed[-depth:]
            if not recent:
                assert np.isnan(history.slot_mean(0)).all()
                continue
            for slot in range(n_slots):
                for b in range(B):
                    total = 0.0
                    for day in recent:
                        total += day[slot][b]
                    assert history.slot_mean(slot)[b] == total / len(recent)


class TestOnlinePredictorRun:
    def test_run_feeds_in_order(self):
        predictor = PersistencePredictor(4)
        samples = np.array([1.0, 2.0, 3.0])
        assert predictor.run(samples).tolist() == [1.0, 2.0, 3.0]

    def test_run_rejects_2d(self):
        with pytest.raises(ValueError):
            PersistencePredictor(4).run(np.zeros((2, 2)))
