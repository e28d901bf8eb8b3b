"""Tests for the one on-disk store (repro.store) and its three callers.

Four properties hold for state files, model artifacts and result-cache
entries alike:

* a damaged file has exactly one outcome per store -- ``StateError``,
  ``ArtifactError``, or a cache miss that removes the entry -- never a
  raw decoder exception (seeded bit flips and truncations);
* a hostile pickle is refused before it runs: no side effect, and the
  cache does not serve what it built;
* the bytes on disk are exactly the pickle of the documented value;
* every value real runs cache loads back unchanged through the
  allowlist.
"""

import io
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro import store
from repro.experiments import robustness
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import run_all
from repro.learn.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ArtifactError,
    ArtifactStore,
    ModelArtifact,
)
from repro.learn.features import FEATURE_SCHEMA_VERSION, FeatureConfig
from repro.learn.models import TrainingConfig, fit_gbm, fit_ridge
from repro.management.fleet import FleetAggregate
from repro.parallel.cache import MISS, ResultCache, default_salt
from repro.parallel.fleet import FleetPlan, run_fleet_blocks
from repro.serve.service import ForecastService
from repro.serve.state import STATE_FORMAT, STATE_VERSION, StateError, StateStore

HIGHEST = pickle.HIGHEST_PROTOCOL


def _serve_checkpoint(tmp_path, predictor="wcma", observations=150):
    """State dir of a serve session: one real per-observe checkpoint."""
    service = ForecastService(n_slots=48, predictor=predictor, state_dir=tmp_path)
    service.handle({"op": "register", "site": "PFCI"})
    for i in range(observations):
        service.handle({"op": "observe", "site": "PFCI", "value": float((i * 37) % 400)})
    return StateStore(tmp_path)


def _artifact(model="ridge", seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    training = TrainingConfig()
    params = (
        fit_ridge(X, y, lam=1e-3) if model == "ridge"
        else fit_gbm(X, y, training, np.random.default_rng(seed))
    )
    return ModelArtifact(
        site="PFCI",
        model=model,
        n_slots=48,
        feature_schema=FEATURE_SCHEMA_VERSION,
        feature_config=FeatureConfig().to_dict(),
        training=training.to_dict(),
        params=params,
    )


def _fleet_block():
    aggregate, _ = run_fleet_blocks(FleetPlan(n_nodes=3, n_days=3))
    return aggregate


def _mutants(data: bytes, seed: int, flips: int = 600, cuts: int = 60):
    """Seeded single-bit flips of ``data``, then truncations of it."""
    rng = np.random.default_rng(seed)
    for pos, bit in zip(rng.integers(len(data), size=flips), rng.integers(8, size=flips)):
        mutant = bytearray(data)
        mutant[pos] ^= 1 << bit
        yield bytes(mutant)
    for cut in np.sort(rng.choice(len(data), size=min(cuts, len(data)), replace=False)):
        yield data[:cut]


class TestDamagedFiles:
    """Bit flips and truncations reach only the store's own outcomes."""

    def test_state_store_raises_only_state_error(self, tmp_path):
        states = _serve_checkpoint(tmp_path)
        path = states.path_for("PFCI", "wcma")
        good = path.read_bytes()
        refused = 0
        for mutant in _mutants(good, seed=1):
            path.write_bytes(mutant)
            list(states.entries())  # listing skips what it cannot read
            try:
                states.load("PFCI", "wcma")
            except StateError:
                refused += 1
        assert refused > 60  # every truncation, most flips

    def test_artifact_store_raises_only_artifact_error(self, tmp_path):
        artifacts = ArtifactStore(tmp_path)
        refused = 0
        for seed, model in enumerate(("ridge", "gbm")):
            artifacts.save(_artifact(model))
            path = artifacts.path_for("PFCI", model)
            good = path.read_bytes()
            for mutant in _mutants(good, seed=10 + seed, flips=300, cuts=30):
                path.write_bytes(mutant)
                list(artifacts.entries())
                try:
                    loaded = artifacts.load("PFCI", model)
                except ArtifactError:
                    refused += 1
                    continue
                assert isinstance(loaded, ModelArtifact)
        assert refused > 60

    @pytest.mark.parametrize(
        "make",
        [_fleet_block, lambda: run_all(45, sites=("PFCI",), only=("table1",))["table1"]],
        ids=["fleet-block", "experiment"],
    )
    def test_result_cache_only_misses_and_removes(self, tmp_path, make):
        cache = ResultCache(tmp_path / "c", salt="s")
        key = cache.key({"kind": "fuzz"})
        cache.put(key, make())
        path = cache._path(key)
        good = path.read_bytes()
        missed = 0
        for mutant in _mutants(good, seed=2):
            path.write_bytes(mutant)
            if cache.get(key) is MISS:
                assert not path.exists(), "a damaged entry must be removed"
                missed += 1
        assert missed > 60


def _open_call(marker) -> bytes:
    """A pickle that calls ``builtins.open(marker, "w")`` when loaded."""
    return b"cbuiltins\nopen\n(V" + str(marker).encode() + b"\nVw\ntR."


class _Opens:
    """Pickles as a call of ``open(marker, "w")``."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return open, (self.marker, "w")


def _hostile_files(marker):
    """A bare hostile pickle and one hidden in a well-formed envelope."""
    state = {"format": STATE_FORMAT, "version": STATE_VERSION, "site": "PFCI",
             "predictor": "wcma", "state": _Opens(marker)}
    artifact = {"format": ARTIFACT_FORMAT, "version": ARTIFACT_VERSION, "site": "PFCI",
                "model": "ridge", "feature_schema": FEATURE_SCHEMA_VERSION,
                "artifact": _Opens(marker)}
    return {
        "bare": (_open_call(marker),) * 3,
        "nested": (pickle.dumps(state), pickle.dumps(artifact), pickle.dumps([_Opens(marker)])),
    }


class TestHostileFiles:
    @pytest.mark.parametrize("kind", ["bare", "nested"])
    def test_no_store_runs_code_from_its_directory(self, tmp_path, kind):
        marker = tmp_path / "marker"
        state_bytes, artifact_bytes, cache_bytes = _hostile_files(marker)[kind]

        states = StateStore(tmp_path / "state")
        states.path_for("PFCI", "wcma").parent.mkdir()
        states.path_for("PFCI", "wcma").write_bytes(state_bytes)
        with pytest.raises(StateError, match="not allowed"):
            states.load("PFCI", "wcma")
        assert list(states.entries()) == []

        artifacts = ArtifactStore(tmp_path / "models")
        artifacts.path_for("PFCI", "ridge").parent.mkdir()
        artifacts.path_for("PFCI", "ridge").write_bytes(artifact_bytes)
        with pytest.raises(ArtifactError, match="not allowed"):
            artifacts.load("PFCI", "ridge")
        assert list(artifacts.entries()) == []

        cache = ResultCache(tmp_path / "cache", salt="s")
        key = cache.key("hostile")
        cache.put(key, "placeholder")
        cache._path(key).write_bytes(cache_bytes)
        assert cache.get(key) is MISS
        assert not cache._path(key).exists()

        assert not marker.exists(), "a stored file ran code on load"

    @pytest.mark.parametrize("field", ["format", "version", "site", "model", "feature_schema"])
    def test_array_in_an_envelope_field_is_refused(self, tmp_path, field):
        """An array has no single truth value under ``==``; a foreign
        envelope holding one where a name or version belongs must still
        be a plain refusal."""
        artifacts = ArtifactStore(tmp_path)
        artifacts.save(_artifact())
        path = artifacts.path_for("PFCI", "ridge")
        envelope = pickle.loads(path.read_bytes())
        envelope[field] = np.arange(3.0)
        path.write_bytes(pickle.dumps(envelope, protocol=HIGHEST))
        with pytest.raises(ArtifactError):
            artifacts.load("PFCI", "ridge")
        assert list(artifacts.entries()) in ([], [("PFCI", "ridge")])

    def test_store_load_refuses_any_other_global(self, tmp_path):
        path = tmp_path / "x.pkl"
        for value in (io.BytesIO(b"x"), subprocess.CompletedProcess, {1, 2j}):
            path.write_bytes(pickle.dumps(value, protocol=HIGHEST))
            with pytest.raises(store.StoreError, match="not allowed"):
                store.load(path)


class TestPinnedFormats:
    """The bytes on disk are the documented value's pickle, nothing more."""

    def test_state_file_is_the_pickled_envelope(self, tmp_path):
        states = _serve_checkpoint(tmp_path)
        state = states.load("PFCI", "wcma")
        states.save("PFCI", "wcma", state)
        envelope = {"format": STATE_FORMAT, "version": STATE_VERSION,
                    "site": "PFCI", "predictor": "wcma", "state": state}
        assert states.path_for("PFCI", "wcma").read_bytes() == pickle.dumps(
            envelope, protocol=HIGHEST
        )

    @pytest.mark.parametrize("model", ["ridge", "gbm"])
    def test_artifact_file_is_the_pickled_envelope(self, tmp_path, model):
        artifact = _artifact(model)
        artifacts = ArtifactStore(tmp_path)
        artifacts.save(artifact)
        envelope = {"format": ARTIFACT_FORMAT, "version": ARTIFACT_VERSION,
                    "site": "PFCI", "model": model,
                    "feature_schema": FEATURE_SCHEMA_VERSION,
                    "artifact": artifact.to_dict()}
        assert artifacts.path_for("PFCI", model).read_bytes() == pickle.dumps(
            envelope, protocol=HIGHEST
        )

    def test_cache_entry_is_the_pickled_value(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        value = _fleet_block()
        cache.put("ab" * 32, value)
        assert cache._path("ab" * 32).read_bytes() == pickle.dumps(value, protocol=HIGHEST)


def test_real_cache_traffic_round_trips_unchanged(tmp_path):
    """Every kind of value real runs cache passes the allowlist intact:
    each experiment of ``run_all``, a robustness cell, the one-cell
    entries a stacked slab is split into, and fleet blocks."""
    cache = ResultCache(tmp_path, salt="s")
    run_all(45, sites=("PFCI",), cache=cache)
    robustness.run(n_days=45, sites=("PFCI",), scenarios=("dropout",),
                   predictors=("wcma", "ewma"), tune_wcma=False, seed=7, cache=cache)
    run_fleet_blocks(FleetPlan(n_nodes=4, n_days=3), block_size=2, cache=cache)

    reader = ResultCache(tmp_path, salt="s")
    kinds = set()
    entries = sorted(tmp_path.glob("??/*.pkl"))
    for path in entries:
        value = reader.get(path.stem)
        assert value is not MISS, path
        assert pickle.dumps(value, protocol=HIGHEST) == path.read_bytes(), path
        if isinstance(value, ExperimentResult):
            kinds.add(value.experiment)
        elif isinstance(value, FleetAggregate):
            kinds.add("fleet-block")
        elif isinstance(value, dict):
            kinds.add("stacked")
        else:
            kinds.add("cell")
    assert kinds == {
        "fig2", "fig6", "fig7", "table1", "table2", "table3", "table4", "table5",
        "cell", "stacked", "fleet-block",
    }


class TestSalt:
    def test_computed_once_per_process(self):
        assert default_salt() is default_salt()
        assert len(default_salt()) == 64

    def test_tracks_the_package_source(self, tmp_path):
        import repro

        package = tmp_path / "src" / "repro"
        shutil.copytree(
            repro.__path__[0], package, ignore=shutil.ignore_patterns("__pycache__")
        )
        code = "from repro.parallel.cache import default_salt; print(default_salt())"

        def salt():
            return subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={"PYTHONPATH": str(package.parent), "PATH": "/usr/bin:/bin"},
            ).stdout.strip()

        assert salt() == default_salt()  # same bytes, same salt, anywhere
        with open(package / "store.py", "a") as handle:
            handle.write("# an edit\n")
        assert salt() != default_salt()
