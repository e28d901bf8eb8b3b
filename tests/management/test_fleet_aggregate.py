"""Tests for FleetSimulator.run_aggregate and FleetAggregate.

The aggregate path must report the same per-node physics as the full
record path (``run``), while holding only ``(B,)`` accumulators -- it
is what the sharded fleet engine streams and checkpoints.
"""

import numpy as np
import pytest

from repro.experiments.fleet import build_fleet_specs, fleet_result_table
from repro.management import FleetAggregate, FleetSimulator
from repro.parallel.fleet import FleetPlan

PLAN = FleetPlan(
    n_nodes=12,
    sites=("SPMD", "PFCI"),
    n_days=4,
    predictors=("wcma", "ewma"),
    controllers=("kansal", "fixed"),
    capacities=(50.0, 9000.0),
    scenarios=("clean", "dropout"),
)


@pytest.fixture(scope="module")
def specs():
    return build_fleet_specs(PLAN)


@pytest.fixture(scope="module")
def record(specs):
    return FleetSimulator(specs, 48).run()


@pytest.fixture(scope="module")
def aggregate(specs):
    return FleetSimulator(specs, 48).run_aggregate()


class TestParityWithRun:
    """Aggregate metrics vs the same quantities computed from records.

    The aggregate accumulates running sums in time order while ``run``
    stores the full record and reduces at the end (numpy pairwise
    summation), so agreement is to ~1e-12 relative, not bitwise.
    """

    def test_geometry_and_names(self, record, aggregate):
        assert aggregate.n_nodes == record.n_nodes == 12
        assert aggregate.total_slots == record.total_slots
        assert aggregate.n_slots == record.n_slots
        assert aggregate.node_names == record.node_names

    def test_mean_duty(self, record, aggregate):
        np.testing.assert_allclose(
            aggregate.mean_duty, record.duty_achieved.mean(axis=0), rtol=1e-12
        )

    def test_duty_std(self, record, aggregate):
        np.testing.assert_allclose(
            aggregate.duty_std, record.duty_achieved.std(axis=0),
            rtol=1e-9, atol=1e-15,
        )

    def test_downtime_fraction(self, record, aggregate):
        np.testing.assert_allclose(
            aggregate.downtime_fraction,
            (record.shortfall_joules > 0).mean(axis=0),
            rtol=0, atol=0,
        )
        expected = (record.shortfall_joules > 0).sum(axis=0)
        assert np.array_equal(aggregate.shortfall_slots, expected)

    def test_energy_totals_and_waste(self, record, aggregate):
        np.testing.assert_allclose(
            aggregate.harvested_joules_total,
            record.harvested_joules.sum(axis=0), rtol=1e-12,
        )
        np.testing.assert_allclose(
            aggregate.wasted_joules_total,
            record.wasted_joules.sum(axis=0), rtol=1e-12, atol=1e-12,
        )
        harvest = record.harvested_joules.sum(axis=0)
        expected = np.divide(
            record.wasted_joules.sum(axis=0), harvest,
            out=np.zeros_like(harvest), where=harvest > 0,
        )
        np.testing.assert_allclose(
            aggregate.waste_fraction, expected, rtol=1e-9, atol=1e-15
        )

    def test_final_soc_bitwise(self, record, aggregate):
        assert np.array_equal(aggregate.final_soc, record.final_soc)

    def test_summary_close_to_record_summary(self, record, aggregate):
        a, r = aggregate.summary(), record.summary()
        assert a["n_nodes"] == r["n_nodes"]
        assert a["total_slots"] == r["total_slots"]
        for key in ("mean_duty", "downtime_fraction", "waste_fraction",
                    "mean_final_soc"):
            assert a[key] == pytest.approx(r[key], rel=1e-9, abs=1e-12)

    def test_result_table_matches_record_table(self, record, aggregate):
        """The per-predictor table from the aggregate equals the one the
        full records give (node ``i`` runs predictor ``i % 2``)."""
        table = fleet_result_table(aggregate, PLAN)
        assert [row["predictor"] for row in table.rows] == ["ewma", "wcma"]
        assert table.meta == {"n_nodes": 12, "total_slots": record.total_slots}
        for row in table.rows:
            idx = np.arange(record.n_nodes)[
                PLAN.predictors.index(row["predictor"])::len(PLAN.predictors)
            ]
            harvest = record.harvested_joules[:, idx].sum()
            expected = {
                "nodes": idx.size,
                "mean duty %": 100.0 * record.duty_achieved[:, idx].mean(),
                "downtime %": 100.0 * (record.shortfall_joules[:, idx] > 0).mean(),
                "waste %": 100.0 * record.wasted_joules[:, idx].sum() / harvest,
                "mean final soc %": 100.0 * record.final_soc[idx].mean(),
            }
            for key, value in expected.items():
                assert row[key] == pytest.approx(value, rel=1e-12), key

    def test_run_aggregate_is_deterministic(self, specs, aggregate):
        again = FleetSimulator(specs, 48).run_aggregate()
        for name in FleetAggregate._FLOAT_FIELDS:
            assert np.array_equal(getattr(again, name), getattr(aggregate, name))


class TestAggregateValue:
    def test_astype_float32(self, aggregate):
        cast = aggregate.astype(np.float32)
        assert cast.mean_duty.dtype == np.float32
        assert cast.shortfall_slots.dtype == aggregate.shortfall_slots.dtype
        np.testing.assert_allclose(cast.mean_duty, aggregate.mean_duty, rtol=1e-6)

    def test_node_summary_keys(self, aggregate):
        digest = aggregate.node_summary(0)
        assert set(digest) == {
            "name", "mean_duty", "duty_std", "downtime_fraction",
            "waste_fraction", "final_soc",
        }

    def test_concat_identity_and_split(self, aggregate):
        assert FleetAggregate.concat([aggregate]) is aggregate

    def test_concat_rejects_mixed_geometry(self, aggregate, specs):
        other = FleetSimulator(specs, 24).run_aggregate()
        with pytest.raises(ValueError):
            FleetAggregate.concat([aggregate, other])

    def test_concat_rejects_empty(self):
        with pytest.raises(ValueError):
            FleetAggregate.concat([])
