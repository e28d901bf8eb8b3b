"""Tests for the shared work-unit executor."""

import pytest

import repro.parallel.executor as executor_mod
from repro.parallel.cache import ResultCache
from repro.parallel.executor import (
    BACKENDS,
    ExecutionStats,
    _auto_chunk_size,
    execute_passes,
    execute_units,
)


def _square(x):
    return x * x


def _pair(a, b):
    return (a, b)


UNITS = [(i,) for i in range(10)]
EXPECTED = [i * i for i in range(10)]


def _run_cached(fn, units, cache, keys, **policy):
    """The executor's one cache path, one unit per pass."""
    return execute_passes(
        fn, len(units), lambda missing: [([i], units[i]) for i in missing],
        cache=cache, keys=keys, **policy,
    )


def _forbid_pools(monkeypatch):
    """Make any pool construction fail loudly."""

    def _boom(*args, **kwargs):
        raise AssertionError("a pool was spawned")

    monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", _boom)
    monkeypatch.setattr(executor_mod, "ThreadPoolExecutor", _boom)


class TestInlinePath:
    def test_jobs_none_never_spawns_a_pool(self, monkeypatch):
        _forbid_pools(monkeypatch)
        results, stats = execute_units(_square, UNITS)
        assert results == EXPECTED
        assert stats.backend == "inline" and stats.jobs == 1

    def test_jobs_one_never_spawns_a_pool(self, monkeypatch):
        _forbid_pools(monkeypatch)
        results, stats = execute_units(_square, UNITS, jobs=1, backend="process")
        assert results == EXPECTED
        assert stats.backend == "inline"

    def test_single_unit_never_spawns_a_pool(self, monkeypatch):
        _forbid_pools(monkeypatch)
        results, stats = execute_units(_square, [(7,)], jobs=8, backend="process")
        assert results == [49]
        assert stats.backend == "inline"

    def test_inline_backend_forces_inline_at_any_jobs(self, monkeypatch):
        _forbid_pools(monkeypatch)
        results, _ = execute_units(_square, UNITS, jobs=8, backend="inline")
        assert results == EXPECTED

    def test_multi_argument_units(self):
        results, _ = execute_units(_pair, [(1, 2), (3, 4)])
        assert results == [(1, 2), (3, 4)]


class TestPoolBackends:
    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_matches_inline_in_order(self, backend):
        results, stats = execute_units(_square, UNITS, jobs=2, backend=backend)
        assert results == EXPECTED
        assert stats.backend == backend
        assert stats.jobs == 2
        assert stats.n_chunks >= 2

    def test_jobs_clamped_to_pending(self):
        _, stats = execute_units(_square, UNITS[:2], jobs=16, backend="thread")
        assert stats.jobs == 2

    def test_initializer_runs_in_workers(self, tmp_path):
        marker = tmp_path / "warm"
        results, _ = execute_units(
            _square,
            UNITS,
            jobs=2,
            backend="thread",
            initializer=lambda p: open(p, "a").close(),
            initargs=(str(marker),),
        )
        assert results == EXPECTED
        assert marker.exists()


class TestValidation:
    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            execute_units(_square, UNITS, backend="mpi")
        assert set(BACKENDS) == {"process", "thread", "inline"}

    def test_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            execute_units(_square, UNITS, jobs=0)

    def test_keys_length_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        with pytest.raises(ValueError, match="cache keys"):
            _run_cached(_square, UNITS, cache, ["k"])

    def test_on_result_is_for_uncached_calls(self, tmp_path):
        # execute_units is the uncached dispatcher: it takes no cache.
        cache = ResultCache(tmp_path, salt="s")
        with pytest.raises(TypeError):
            execute_units(_square, UNITS, cache=cache, keys=["k"] * len(UNITS))
        seen = []
        execute_units(_square, UNITS, on_result=lambda i, value: seen.append((i, value)))
        assert seen == list(enumerate(EXPECTED))

    def test_auto_chunk_size(self):
        assert _auto_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert _auto_chunk_size(1, 8) == 1
        assert _auto_chunk_size(0, 8) == 1


class TestCacheIntegration:
    def test_hits_skip_execution(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c", salt="s")
        keys = [cache.key({"unit": i}) for i, in UNITS]
        first, stats1 = _run_cached(_square, UNITS, cache, keys)
        assert first == EXPECTED
        assert stats1.cache_misses == len(UNITS) and stats1.cache_hits == 0
        # Second run: everything served from cache, fn never called,
        # and no pool is spawned even with jobs > 1.
        _forbid_pools(monkeypatch)

        def _fail(x):
            raise AssertionError("unit re-executed despite cache hit")

        second, stats2 = _run_cached(_fail, UNITS, cache, keys, jobs=4, backend="process")
        assert second == EXPECTED
        assert stats2.cache_hits == len(UNITS) and stats2.cache_misses == 0

    def test_partial_resume_runs_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        keys = [cache.key({"unit": i}) for i, in UNITS]
        for key, (i,) in list(zip(keys, UNITS))[:7]:
            cache.put(key, i * i)
        executed = []

        def _traced(x):
            executed.append(x)
            return x * x

        results, stats = _run_cached(_traced, UNITS, cache, keys)
        assert results == EXPECTED
        assert executed == [7, 8, 9]
        assert stats.cache_hits == 7 and stats.cache_misses == 3

    def test_none_keys_are_uncacheable(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        keys = [cache.key({"unit": 0}), None]
        results, stats = _run_cached(_square, [(2,), (3,)], cache, keys)
        assert results == [4, 9]
        assert cache.info()["entries"] == 1

    def test_thread_pool_writes_back(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        keys = [cache.key({"unit": i}) for i, in UNITS]
        _run_cached(_square, UNITS, cache, keys, jobs=2, backend="thread")
        assert cache.info()["entries"] == len(UNITS)
        _, stats = _run_cached(_square, UNITS, cache, keys, jobs=2, backend="thread")
        assert stats.cache_hits == len(UNITS)


def _squares(lo, hi):
    """One pass over units ``lo..hi-1``."""
    return [i * i for i in range(lo, hi)]


def _pairs(missing):
    """Group consecutive missing units two by two."""
    groups = [missing[i:i + 2] for i in range(0, len(missing), 2)]
    return [(members, (members[0], members[-1] + 1)) for members in groups]


def _split(output, members):
    return list(output)


class TestPasses:
    def _run(self, cache, fn=_squares, **policy):
        keys = [cache.key({"unit": i}) for i in range(10)]
        return execute_passes(
            fn, 10, _pairs, split=_split, cache=cache, keys=keys, **policy
        )

    def test_units_cached_one_by_one_and_counted_as_units(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        values, stats = self._run(cache)
        assert values == EXPECTED
        assert (stats.n_units, stats.cache_hits, stats.cache_misses) == (10, 0, 10)
        # 5 two-unit passes, each split into its units' entries: one
        # cache file per unit, none for the passes.
        assert stats.n_chunks == 1 and cache.info()["entries"] == stats.n_units

        def _fail(lo, hi):
            raise AssertionError("a cached unit was recomputed")

        again, stats = self._run(cache, fn=_fail)
        assert again == EXPECTED
        assert (stats.n_units, stats.cache_hits, stats.cache_misses) == (10, 10, 0)

    def test_interrupted_split_reruns_the_pass(self, tmp_path, monkeypatch):
        """A kill after a pass finished but before its split was stored
        runs the pass again on resume, bitwise equal to an uncached run,
        and the cache ends with exactly one file per unit."""
        cache = ResultCache(tmp_path / "c", salt="s")
        real_put = ResultCache.put

        def put(self, key, value):
            if value == 4:  # the first unit of the second pass
                raise KeyboardInterrupt
            real_put(self, key, value)

        monkeypatch.setattr(ResultCache, "put", put)
        with pytest.raises(KeyboardInterrupt):
            self._run(cache)
        monkeypatch.setattr(ResultCache, "put", real_put)
        assert cache.info()["entries"] == 2
        ran = []

        def _traced(lo, hi):
            ran.append((lo, hi))
            return _squares(lo, hi)

        values, stats = self._run(cache, fn=_traced)
        assert ran[0] == (2, 4)  # the interrupted pass runs again
        assert values == execute_passes(_squares, 10, _pairs, split=_split)[0]
        assert stats.cache_hits == 2 and stats.cache_misses == 8
        assert cache.info()["entries"] == stats.n_units

    def test_thread_backend_matches_inline(self, tmp_path):
        values, stats = self._run(
            ResultCache(tmp_path / "c", salt="s"), jobs=2, backend="thread"
        )
        assert values == EXPECTED and stats.backend == "thread"

    def test_no_pass_key_caches_only_the_units(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        keys = [cache.key({"unit": i}) for i in range(10)]
        values, stats = execute_passes(
            _squares, 10, _pairs, split=_split, cache=cache, keys=keys
        )
        assert values == EXPECTED and stats.cache_misses == 10
        assert cache.info()["entries"] == 10
        again, stats = execute_passes(
            _squares, 10, _pairs, split=_split, cache=cache, keys=keys
        )
        assert again == EXPECTED and stats.cache_hits == 10

    def test_passes_must_cover_the_missing_units(self):
        with pytest.raises(ValueError, match="exactly once"):
            execute_passes(_squares, 4, lambda missing: [([0, 1], (0, 2))], split=_split)


class TestStats:
    def test_as_dict_round_trips(self):
        stats = ExecutionStats(
            backend="process", jobs=4, n_units=20, cache_hits=5,
            cache_misses=15, chunk_size=2, n_chunks=8,
            dispatch_s=0.03, elapsed_s=1.5,
        )
        payload = stats.as_dict()
        assert payload["backend"] == "process"
        assert payload["dispatch_per_unit_s"] == pytest.approx(0.002)

    def test_dispatch_per_unit_zero_when_all_hit(self):
        stats = ExecutionStats(
            backend="inline", jobs=1, n_units=5, cache_hits=5,
            cache_misses=0, chunk_size=1, n_chunks=0,
            dispatch_s=0.0, elapsed_s=0.01,
        )
        assert stats.dispatch_per_unit_s == 0.0
