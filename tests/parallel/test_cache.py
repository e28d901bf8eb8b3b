"""Tests for the content-addressed result cache.

The load-bearing properties are key *stability* (same spec digests the
same everywhere: across processes, hash seeds, and measured-site
re-registration against the same file) and key *sensitivity* (any
change to the spec, the dataset identity, or the code salt must miss).
"""

import dataclasses
import pickle
import subprocess
import sys

import pytest

from repro.parallel.cache import (
    MISS,
    ResultCache,
    cache_key,
    dataset_identity,
    default_cache_dir,
    default_salt,
    file_fingerprint,
)
from repro.solar.ingest import sample_csv_path
from repro.store import value_digest
from repro.solar.ingest.sites import (
    clear_measured_sites,
    register_measured_site,
)


@pytest.fixture
def registry_guard():
    yield
    clear_measured_sites()


PAYLOAD = {
    "kind": "robustness-cell",
    "site": "PFCI",
    "scenario": "dropout",
    "n_days": 45,
    "predictors": ("wcma", "ewma"),
    "tune_wcma": True,
    "token": None,
}


class TestCanonicalPayload:
    """The canonical form a key digests: the type-tagged value stream of
    :func:`repro.store.value_digest`, which ``cache_key`` is cut from."""

    def test_primitives_pass_through(self):
        values = [None, 3, 0.25, "x", True, 1.0, "3"]
        keys = [cache_key(v, salt="s") for v in values]
        assert len(set(keys)) == len(values)  # 3 != 3.0 != "3", True != 1
        assert keys == [cache_key(v, salt="s") for v in values]

    def test_tuples_and_lists_identical(self):
        assert value_digest((1, 2)) == value_digest([1, 2])
        assert cache_key((1, 2), salt="s") == cache_key([1, 2], salt="s")

    def test_dataclasses_tagged(self):
        @dataclasses.dataclass(frozen=True)
        class Spec:
            name: str
            n: int

        @dataclasses.dataclass(frozen=True)
        class Other:
            name: str
            n: int

        assert value_digest(Spec("a", 2)) == value_digest(Spec("a", 2))
        assert value_digest(Spec("a", 2)) != value_digest(Spec("a", 3))
        # Tagged by type: same fields under another type, or as a plain
        # dict, digest differently.
        assert value_digest(Spec("a", 2)) != value_digest(Other("a", 2))
        assert value_digest(Spec("a", 2)) != value_digest({"name": "a", "n": 2})

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError, match="cannot digest"):
            value_digest(object())
        with pytest.raises(TypeError, match="cannot digest"):
            cache_key({"spec": object()}, salt="s")


class TestKeyStability:
    def test_same_payload_same_key(self):
        assert cache_key(PAYLOAD, salt="s") == cache_key(dict(PAYLOAD), salt="s")

    def test_key_stable_across_processes(self):
        """The digest must not depend on the Python hash seed."""
        code = (
            "from repro.parallel.cache import cache_key;"
            "print(cache_key({'site': 'PFCI', 'n_days': 45, "
            "'predictors': ('wcma',)}, salt='s'))"
        )
        local = cache_key(
            {"site": "PFCI", "n_days": 45, "predictors": ("wcma",)}, salt="s"
        )
        for seed in ("0", "1", "random"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                cwd="/root/repo",
            )
            assert out.stdout.strip() == local

    def test_salt_changes_key(self):
        assert cache_key(PAYLOAD, salt="a") != cache_key(PAYLOAD, salt="b")
        assert default_salt() in cache_key(PAYLOAD) or True  # salt is hashed in
        assert cache_key(PAYLOAD) == cache_key(PAYLOAD, salt=default_salt())

    def test_payload_changes_key(self):
        other = dict(PAYLOAD, n_days=46)
        assert cache_key(PAYLOAD, salt="s") != cache_key(other, salt="s")


class TestDatasetIdentity:
    def test_synthetic_sites_are_none(self):
        assert dataset_identity("PFCI") is None

    def test_reregistration_same_file_same_identity(self, registry_guard):
        register_measured_site(sample_csv_path(), name="MEAS")
        first = dataset_identity("MEAS")
        clear_measured_sites()
        register_measured_site(sample_csv_path(), name="MEAS")
        assert dataset_identity("MEAS") == first
        assert first["file"]["sha256"]

    def test_different_file_different_identity(self, registry_guard, tmp_path):
        register_measured_site(sample_csv_path(), name="MEAS")
        first = dataset_identity("MEAS")
        copy = tmp_path / "copy.csv"
        copy.write_bytes(sample_csv_path().read_bytes())
        clear_measured_sites()
        register_measured_site(copy, name="MEAS")
        second = dataset_identity("MEAS")
        # Same content hash, but the registered spec (path) differs.
        assert second["file"]["sha256"] == first["file"]["sha256"]
        assert second != first

    def test_edited_file_changes_identity(self, registry_guard, tmp_path):
        copy = tmp_path / "edit.csv"
        copy.write_bytes(sample_csv_path().read_bytes())
        register_measured_site(copy, name="MEAS")
        first = dataset_identity("MEAS")
        data = copy.read_bytes()
        copy.write_bytes(data.replace(b"100", b"101", 1))
        assert dataset_identity("MEAS") != first

    def test_file_fingerprint_matches_content(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abc")
        fp = file_fingerprint(path)
        assert fp["size"] == 3
        path.write_bytes(b"abd")
        assert file_fingerprint(path) != fp


class TestResultCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        key = cache.key(PAYLOAD)
        assert cache.get(key) is MISS
        cache.put(key, {"rows": [1.5, None, "x"]})
        assert cache.get(key) == {"rows": [1.5, None, "x"]}

    def test_cached_none_is_not_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        cache.put("ab" + "0" * 62, None)
        assert cache.get("ab" + "0" * 62) is None

    def test_cross_instance_and_salt_miss(self, tmp_path):
        a = ResultCache(tmp_path / "c", salt="v1")
        a.put(a.key(PAYLOAD), "result")
        b = ResultCache(tmp_path / "c", salt="v1")
        assert b.get(b.key(PAYLOAD)) == "result"
        bumped = ResultCache(tmp_path / "c", salt="v2")
        assert bumped.get(bumped.key(PAYLOAD)) is MISS

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        key = cache.key(PAYLOAD)
        cache.put(key, "good")
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is MISS
        assert not path.exists()

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        key = cache.key(PAYLOAD)
        cache.put(key, list(range(100)))
        path = cache._path(key)
        path.write_bytes(pickle.dumps(list(range(100)))[:10])
        assert cache.get(key) is MISS

    def test_info_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        cache.put(cache.key(PAYLOAD), "x")
        cache.put(cache.key(dict(PAYLOAD, n_days=1)), "y")
        info = cache.info()
        assert info["entries"] == 2 and info["bytes"] > 0
        assert cache.clear() == 2
        assert cache.info()["entries"] == 0

    def test_info_missing_dir_raises(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            ResultCache(tmp_path / "nope").info()
        with pytest.raises(ValueError, match="does not exist"):
            ResultCache(tmp_path / "nope").clear()

    def test_clear_refuses_foreign_directory(self, tmp_path):
        (tmp_path / "precious.txt").write_text("data")
        with pytest.raises(ValueError, match="refusing"):
            ResultCache(tmp_path).clear()
        assert (tmp_path / "precious.txt").exists()

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SOLAR_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"
        monkeypatch.delenv("REPRO_SOLAR_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-solar"


class TestConcurrentDeleteTolerance:
    """Two resuming runs sharing a cache race on unlink; neither may crash."""

    def make_cache(self, tmp_path, entries=3):
        cache = ResultCache(tmp_path / "c", salt="s")
        keys = [cache.key(dict(PAYLOAD, n_days=n)) for n in range(entries)]
        for i, key in enumerate(keys):
            cache.put(key, f"value-{i}")
        return cache, keys

    def test_clear_racing_clear(self, tmp_path, monkeypatch):
        """A concurrent clear deleting files mid-sweep is not an error."""
        cache, keys = self.make_cache(tmp_path)
        rival = ResultCache(tmp_path / "c", salt="s")
        entries = list(cache._entries())
        monkeypatch.setattr(cache, "_entries", lambda: iter(entries))
        rival.clear()  # the rival wins every unlink
        assert cache.clear() == 0  # no crash; nothing left for us
        assert cache.info()["entries"] == 0

    def test_corrupt_get_racing_unlink(self, tmp_path, monkeypatch):
        """Both readers conclude 'corrupt'; only one unlink can win."""
        cache, keys = self.make_cache(tmp_path, entries=1)
        path = cache._path(keys[0])
        path.write_bytes(b"not a pickle")

        original_open = open

        def open_then_vanish(*args, **kwargs):
            handle = original_open(*args, **kwargs)
            path.unlink()  # the rival removes it between read and unlink
            return handle

        monkeypatch.setattr("builtins.open", open_then_vanish)
        assert cache.get(keys[0]) is MISS  # no FileNotFoundError escape
        monkeypatch.undo()
        assert not path.exists()

    def test_shard_removed_between_listing_and_scan(self, tmp_path, monkeypatch):
        """A shard a rival clear() removes while it is being scanned is skipped.

        pathlib's glob checks that the directory exists, then scans it;
        when a rival removes the shard in between, the scan raises
        FileNotFoundError (Python 3.11).  The patched glob plays the
        rival at exactly that point, on one shard.
        """
        from pathlib import Path

        cache, keys = self.make_cache(tmp_path, entries=20)
        victim = cache._path(keys[0]).parent
        in_victim = len(list(victim.glob("*.pkl")))
        original_glob = Path.glob

        def glob_losing_the_race(self, pattern):
            if self != victim:
                return original_glob(self, pattern)
            for entry in list(original_glob(self, pattern)):
                entry.unlink()
            self.rmdir()
            raise FileNotFoundError(2, "No such file or directory", str(self))

        monkeypatch.setattr(Path, "glob", glob_losing_the_race)
        assert cache.info()["entries"] == 20 - in_victim
        cache.put(keys[0], "value-0")  # the shard is back for clear()
        assert cache.clear() == 20 - in_victim
        monkeypatch.undo()
        assert cache.info()["entries"] == 0

    def test_info_racing_unlink(self, tmp_path, monkeypatch):
        """Entries unlinked between listing and stat are skipped."""
        cache, keys = self.make_cache(tmp_path)
        entries = list(cache._entries())
        cache._path(keys[1]).unlink()  # vanishes after the listing
        monkeypatch.setattr(cache, "_entries", lambda: iter(entries))
        info = cache.info()
        assert info["entries"] == 2

    def test_threaded_clear_storm(self, tmp_path):
        """Many threads clearing one cache: no exceptions, full removal."""
        import threading

        cache, keys = self.make_cache(tmp_path, entries=20)
        caches = [ResultCache(tmp_path / "c", salt="s") for _ in range(6)]
        removed = []
        errors = []
        barrier = threading.Barrier(len(caches), timeout=10)

        def worker(c):
            try:
                barrier.wait()
                removed.append(c.clear())
            except Exception as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(c,)) for c in caches]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert sum(removed) == 20  # every entry removed exactly once
        assert cache.info()["entries"] == 0
