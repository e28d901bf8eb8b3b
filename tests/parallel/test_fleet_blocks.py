"""Tests for the sharded fleet engine (block partitioning + resume)."""

from typing import List

import numpy as np
import pytest

from repro.experiments.fleet import build_fleet_specs
from repro.management.fleet import FleetAggregate, FleetSimulator
from repro.parallel.cache import ResultCache
import repro.parallel.fleet as fleet_mod
from repro.parallel.fleet import (
    DEFAULT_BLOCK_SIZE,
    MAX_PASS_NODES,
    FleetPlan,
    group_blocks,
    plan_blocks,
    run_fleet_blocks,
)

#: Heterogeneous little fleet: every axis engaged, axes of co-prime
#: lengths so the mixed-radix enumeration is exercised across blocks.
PLAN = FleetPlan(
    n_nodes=13,
    sites=("SPMD", "PFCI"),
    n_days=3,
    predictors=("wcma", "ewma", "persistence"),
    controllers=("kansal", "fixed"),
    capacities=(50.0, 9000.0),
    scenarios=("clean", "dropout"),
)


def _full_aggregate(plan: FleetPlan) -> FleetAggregate:
    specs = build_fleet_specs(plan)
    return FleetSimulator(specs, plan.n_slots).run_aggregate()


def _assert_bitwise_equal(a: FleetAggregate, b: FleetAggregate) -> None:
    assert a.node_names == b.node_names
    assert np.array_equal(a.shortfall_slots, b.shortfall_slots)
    for name in FleetAggregate._FLOAT_FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype
        assert np.array_equal(left, right), name


class TestPlanBlocks:
    def test_cover_exactly(self):
        assert plan_blocks(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert plan_blocks(4, 4) == [(0, 4)]
        assert plan_blocks(3, 100) == [(0, 3)]

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            plan_blocks(10, 0)

    def test_default_block_size_sane(self):
        assert DEFAULT_BLOCK_SIZE >= 256


class TestGroupBlocks:
    """Uncached blocks run in lock-step passes of up to MAX_PASS_NODES."""

    def test_contiguous_blocks_pack_up_to_the_cap(self):
        blocks = plan_blocks(4096, 256)
        passes = group_blocks(blocks, list(range(16)))
        assert passes == [list(range(i, i + 4)) for i in range(0, 16, 4)]
        for members in passes:
            assert blocks[members[-1]][1] - blocks[members[0]][0] <= MAX_PASS_NODES

    def test_a_cached_block_splits_the_pass(self):
        blocks = plan_blocks(2048, 256)
        assert group_blocks(blocks, [0, 1, 3, 4]) == [[0, 1], [3, 4]]

    def test_a_block_wider_than_the_cap_runs_alone(self):
        wide = 100 + MAX_PASS_NODES + 1
        blocks = [(0, 100), (100, wide), (wide, wide + 100)]
        assert group_blocks(blocks, [0, 1, 2]) == [[0], [1], [2]]
        assert group_blocks(plan_blocks(5000, 2048), [0, 1, 2]) == [[0], [1], [2]]

    @pytest.mark.parametrize("jobs, expected", [
        (None, 1), (1, 1), (2, 2), (3, 3), (4, 4), (8, 4),
    ])
    def test_at_least_min_jobs_missing_passes(self, jobs, expected):
        blocks = plan_blocks(1024, 256)
        passes = group_blocks(blocks, [0, 1, 2, 3], jobs)
        assert len(passes) == expected
        assert [i for members in passes for i in members] == [0, 1, 2, 3]

    def test_jobs_split_packed_passes_in_order(self):
        blocks = plan_blocks(4096, 256)
        passes = group_blocks(blocks, list(range(16)), jobs=6)
        assert len(passes) == 6
        assert [i for members in passes for i in members] == list(range(16))
        assert max(len(members) for members in passes) <= 4


class TestFleetPlan:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="n_nodes"):
            FleetPlan(n_nodes=0)

    @pytest.mark.parametrize("change, match", [
        ({"predictors": ()}, "predictors"),
        ({"controllers": ()}, "controllers"),
        ({"capacities": ()}, "capacities"),
        ({"sites": ()}, "sites"),
        ({"scenarios": ()}, "scenarios"),
        ({"capacities": (250.0, float("nan"))}, "capacities"),
        ({"capacities": (float("inf"),)}, "capacities"),
        ({"capacities": (0.0,)}, "capacities"),
        ({"capacities": (-5.0,)}, "capacities"),
    ])
    def test_rejects_empty_axis_and_bad_capacity(self, change, match):
        """An empty axis would divide by zero in the node enumeration and
        a NaN or infinite capacity would run to NaN metrics: both fail
        when the plan is made."""
        with pytest.raises(ValueError, match=match):
            FleetPlan(n_nodes=2, **change)

    @pytest.mark.parametrize("field, value", [
        ("panel_area_m2", float("nan")),
        ("panel_area_m2", float("inf")),
        ("panel_area_m2", 0.0),
        ("active_power_watts", float("nan")),
        ("active_power_watts", float("inf")),
        ("sleep_power_watts", float("nan")),
        ("sleep_power_watts", float("inf")),
        ("sleep_power_watts", -1e-6),
        ("supercap_threshold_joules", float("nan")),
        ("supercap_threshold_joules", -1.0),
    ])
    def test_rejects_bad_hardware_floats(self, field, value):
        """A NaN panel or load ran to NaN duty cycles node by node; the
        plan now refuses it when it is made."""
        with pytest.raises(ValueError, match=field):
            FleetPlan(n_nodes=2, n_days=2, **{field: value})

    def test_blocks_rebuild_the_same_fleet(self):
        specs = build_fleet_specs(PLAN)
        assert len(specs) == PLAN.n_nodes
        blocks = [
            build_fleet_specs(PLAN, node_range=(start, stop))
            for start, stop in plan_blocks(PLAN.n_nodes, 5)
        ]
        flat = [spec for block in blocks for spec in block]
        assert [s.name for s in flat] == [s.name for s in specs]


def _trace_pass_widths(monkeypatch) -> List[int]:
    """Record the node width of every simulator pass from now on."""
    widths: List[int] = []
    real_run = fleet_mod._run_block

    def run(plan, start, stop, dtype):
        widths.append(stop - start)
        return real_run(plan, start, stop, dtype)

    monkeypatch.setattr(fleet_mod, "_run_block", run)
    return widths


class TestShardedEqualsFull:
    """Per-node results do not depend on how the fleet is cut into passes."""

    @pytest.fixture
    def one_block_per_pass(self, monkeypatch):
        monkeypatch.setattr(fleet_mod, "MAX_PASS_NODES", 1)
        return _trace_pass_widths(monkeypatch)

    def test_blocks_concat_bitwise_equal_to_full(self, one_block_per_pass):
        full = _full_aggregate(PLAN)
        sharded, stats = run_fleet_blocks(PLAN, block_size=4)
        assert stats.n_units == 4
        assert one_block_per_pass == [4, 4, 4, 1]
        _assert_bitwise_equal(sharded, full)

    def test_block_size_invariance(self, one_block_per_pass):
        a, _ = run_fleet_blocks(PLAN, block_size=3)
        b, _ = run_fleet_blocks(PLAN, block_size=7)
        c, _ = run_fleet_blocks(PLAN, block_size=PLAN.n_nodes)
        assert one_block_per_pass == [3, 3, 3, 3, 1] + [7, 6] + [13]
        _assert_bitwise_equal(a, b)
        _assert_bitwise_equal(a, c)

    @pytest.mark.parametrize("block_size, cap, widths", [
        (1, 1, [1] * 13),
        (2, 4, [4, 4, 4, 1]),
        (3, 8, [6, 7]),
        (4, 9, [8, 5]),
        (4, MAX_PASS_NODES, [13]),
    ])
    def test_pass_grouping_invariance(self, monkeypatch, block_size, cap, widths):
        monkeypatch.setattr(fleet_mod, "MAX_PASS_NODES", cap)
        seen = _trace_pass_widths(monkeypatch)
        sharded, stats = run_fleet_blocks(PLAN, block_size=block_size)
        assert seen == widths
        assert stats.n_units == len(plan_blocks(PLAN.n_nodes, block_size))
        _assert_bitwise_equal(sharded, _full_aggregate(PLAN))

    def test_thread_parallel_bitwise_equal(self):
        seq, _ = run_fleet_blocks(PLAN, block_size=4)
        par, stats = run_fleet_blocks(PLAN, block_size=4, jobs=2, backend="thread")
        assert stats.backend == "thread"
        _assert_bitwise_equal(seq, par)

    def test_summary_matches_run(self):
        specs = build_fleet_specs(PLAN)
        record = FleetSimulator(specs, PLAN.n_slots).run().summary()
        sharded, _ = run_fleet_blocks(PLAN, block_size=4)
        aggregate = sharded.summary()
        assert aggregate["n_nodes"] == record["n_nodes"]
        assert aggregate["total_slots"] == record["total_slots"]
        assert aggregate["downtime_fraction"] == pytest.approx(
            record["downtime_fraction"], abs=1e-12
        )
        assert aggregate["mean_duty"] == pytest.approx(
            record["mean_duty"], rel=1e-12
        )
        assert aggregate["waste_fraction"] == pytest.approx(
            record["waste_fraction"], rel=1e-9
        )


class TestFloat32:
    def test_float32_halves_width(self):
        agg, _ = run_fleet_blocks(PLAN, block_size=4, dtype="float32")
        assert agg.mean_duty.dtype == np.float32
        full = _full_aggregate(PLAN)
        assert np.allclose(agg.mean_duty, full.mean_duty, rtol=1e-6)

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            run_fleet_blocks(PLAN, dtype="float16")


class TestCheckpointResume:
    def test_rerun_hits_every_block(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        first, stats1 = run_fleet_blocks(PLAN, block_size=4, cache=cache)
        assert stats1.cache_misses == 4 and stats1.cache_hits == 0
        # The four blocks share one pass; the cache holds one file per
        # block and none for the pass.
        assert cache.info()["entries"] == stats1.n_units
        second, stats2 = run_fleet_blocks(PLAN, block_size=4, cache=cache)
        assert stats2.cache_hits == 4 and stats2.cache_misses == 0
        _assert_bitwise_equal(first, second)

    def test_interrupted_year_resumes_from_blocks(self, tmp_path):
        """Pre-populate all but one block, as an interrupted run would."""
        cache = ResultCache(tmp_path / "c", salt="s")
        run_fleet_blocks(
            FleetPlan(**{**PLAN.__dict__, "n_nodes": 8}), block_size=4,
            cache=cache,
        )
        # Growing the fleet re-uses nothing (the plan is in the key) but
        # an identical re-run of the 8-node plan is all hits.
        _, stats = run_fleet_blocks(
            FleetPlan(**{**PLAN.__dict__, "n_nodes": 8}), block_size=4,
            cache=cache,
        )
        assert stats.cache_hits == 2 and stats.cache_misses == 0

    def test_block_geometry_is_in_the_key(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        run_fleet_blocks(PLAN, block_size=4, cache=cache)
        _, stats = run_fleet_blocks(PLAN, block_size=7, cache=cache)
        assert stats.cache_hits == 0

    def test_a_pass_is_cached_as_its_blocks_only(self, tmp_path):
        """Four 4-node blocks run as one pass over nodes 0..13, stored as
        four block entries; a single 13-node block is a block of its own
        and must not resolve to any of them."""
        cache = ResultCache(tmp_path / "c", salt="s")
        run_fleet_blocks(PLAN, block_size=4, cache=cache)
        assert cache.info()["entries"] == 4
        _, stats = run_fleet_blocks(PLAN, block_size=PLAN.n_nodes, cache=cache)
        assert stats.cache_hits == 0

    def test_interrupted_run_resumes_from_finished_passes(self, tmp_path, monkeypatch):
        """A kill in the second pass loses that pass only: the rerun
        hits exactly the first pass's blocks."""
        monkeypatch.setattr(fleet_mod, "MAX_PASS_NODES", 8)
        assert group_blocks(plan_blocks(PLAN.n_nodes, 4), [0, 1, 2, 3]) == [[0, 1], [2, 3]]
        cache = ResultCache(tmp_path / "c", salt="s")
        real_run = fleet_mod._run_block

        def run_until_second_pass(plan, start, stop, dtype):
            if start > 0:
                raise KeyboardInterrupt
            return real_run(plan, start, stop, dtype)

        monkeypatch.setattr(fleet_mod, "_run_block", run_until_second_pass)
        with pytest.raises(KeyboardInterrupt):
            run_fleet_blocks(PLAN, block_size=4, cache=cache)
        monkeypatch.setattr(fleet_mod, "_run_block", real_run)
        resumed, stats = run_fleet_blocks(PLAN, block_size=4, cache=cache)
        assert stats.cache_hits == 2 and stats.cache_misses == 2
        uncached, _ = run_fleet_blocks(PLAN, block_size=4)
        _assert_bitwise_equal(resumed, uncached)

    def test_interrupted_split_reruns_the_pass(self, tmp_path, monkeypatch):
        """A kill after the pass finished but before its first block
        entry was written resumes by simulating the pass again: the
        result is bitwise the uncached one, and the cache ends with
        exactly one file per block."""
        cache = ResultCache(tmp_path / "c", salt="s")
        real_put = ResultCache.put

        def put(self, key, value):
            raise KeyboardInterrupt  # the first block of the split

        monkeypatch.setattr(ResultCache, "put", put)
        with pytest.raises(KeyboardInterrupt):
            run_fleet_blocks(PLAN, block_size=4, cache=cache)
        monkeypatch.setattr(ResultCache, "put", real_put)
        real_run = fleet_mod._run_block
        ran = []

        def simulate(plan, start, stop, dtype):
            ran.append((start, stop))
            return real_run(plan, start, stop, dtype)

        monkeypatch.setattr(fleet_mod, "_run_block", simulate)
        resumed, stats = run_fleet_blocks(PLAN, block_size=4, cache=cache)
        assert ran == [(0, PLAN.n_nodes)]
        assert stats.cache_hits == 0 and stats.cache_misses == 4
        monkeypatch.undo()
        _assert_bitwise_equal(resumed, run_fleet_blocks(PLAN, block_size=4)[0])
        assert cache.info()["entries"] == stats.n_units

    def test_dtype_is_in_the_key(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        run_fleet_blocks(PLAN, block_size=4, cache=cache)
        _, stats = run_fleet_blocks(PLAN, block_size=4, dtype="float32", cache=cache)
        assert stats.cache_hits == 0
