"""Content-addressed on-disk result cache for work-unit results.

Every parallel harness in this repo (the experiment runner, the
robustness matrix, the sharded fleet engine) decomposes its work into
small picklable **unit specs** -- site/scenario/predictor names plus
primitive parameters, never arrays.  A unit's result is a pure function
of its spec, the identity of the datasets it reads, and the code
version, so it can be memoised *on disk* under a digest of exactly
those three things:

``key = value_digest({"salt": salt, "payload": payload})``

* **payload** -- the unit spec; :func:`repro.store.value_digest` sorts
  keys, treats tuples as lists and tags dataclasses by type, so the
  digest is stable across processes and Python hash seeds.
* **dataset identity** -- synthetic sites are pure functions of their
  name (token ``None``); measured sites contribute their registered
  spec *plus a fingerprint (size + sha256) of the backing file*, so
  re-registering a name against different data -- or editing the file
  in place -- can never serve a stale memo.
* **salt** -- a digest of the package's own ``*.py`` source
  (:func:`default_salt`): any code change misses every older entry,
  with no schema number to bump by hand.

The payoff is *resume*: an interrupted multi-hour robustness matrix or
fleet year re-runs only its missing cells, CI can shard a matrix across
runners against a shared cache directory, and incremental recompute
(one changed site) falls out for free.

Layout on disk: ``<root>/<key[:2]>/<key>.pkl`` (the pickled result,
written and read by :mod:`repro.store`) plus a ``cache-meta.json``
marker that records the salt and guards ``clear`` against pointing at a
directory that is not a result cache.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Optional

from repro import store

__all__ = [
    "MISS",
    "ResultCache",
    "cache_key",
    "dataset_identity",
    "default_cache_dir",
    "default_salt",
    "file_fingerprint",
]

#: Sentinel distinguishing "no entry" from a cached ``None``.
MISS = object()

_MARKER_NAME = "cache-meta.json"


def _unlink_quiet(path: Path) -> bool:
    """Remove ``path``, tolerating a concurrent delete.

    Two resuming runs sharing a cache directory can both decide to drop
    the same entry (a corrupt file both treat as a miss, or overlapping
    ``clear`` calls); losing that race must not crash either of them.
    Returns True when this call actually removed the file.
    """
    try:
        path.unlink()
        return True
    except FileNotFoundError:
        return False
    except OSError:
        return False


@functools.cache
def default_salt() -> str:
    """The code-version salt: a digest of the package's ``*.py`` files
    (relative paths and contents, the version included), once per process."""
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        source = path.read_bytes()
        digest.update(f"{path.relative_to(package).as_posix()}\0{len(source)}\0".encode())
        digest.update(source)
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """Resolve the default cache root.

    ``REPRO_SOLAR_CACHE_DIR`` wins when set; otherwise
    ``$XDG_CACHE_HOME/repro-solar`` (``~/.cache/repro-solar``).
    """
    override = os.environ.get("REPRO_SOLAR_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-solar"


def cache_key(payload, salt: Optional[str] = None) -> str:
    """sha256 value digest of ``(salt, payload)``."""
    return store.value_digest(
        {"salt": salt if salt is not None else default_salt(), "payload": payload}
    )


def file_fingerprint(path) -> dict:
    """Size + content sha256 of a data file (for dataset identity)."""
    p = Path(path)
    digest = hashlib.sha256()
    with open(p, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return {"size": p.stat().st_size, "sha256": digest.hexdigest()}


def dataset_identity(site: str):
    """Cache-key token of what ``build_dataset(site)`` would serve.

    ``None`` for synthetic sites (pure functions of the name).  For
    measured sites: the registered spec *and* the backing file's
    fingerprint, so neither re-registering the name against another
    file nor editing the file in place can hit a stale entry.
    """
    from repro.solar.datasets import dataset_token

    token = dataset_token(site)
    if token is None:
        return None
    return {"spec": token, "file": file_fingerprint(token.path)}


class ResultCache:
    """Content-addressed value store under one root directory.

    Entries live at ``<root>/<key[:2]>/<key>.pkl``.  ``get``/``put``
    never raise on a corrupt or half-written entry -- a bad file is a
    miss (and is removed), because the cache is a memo, not a store of
    record.
    """

    def __init__(self, root, salt: Optional[str] = None):
        self.root = Path(root)
        self.salt = salt if salt is not None else default_salt()

    # -- keys ----------------------------------------------------------
    def key(self, payload) -> str:
        """Digest of ``payload`` under this cache's salt."""
        return cache_key(payload, salt=self.salt)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- entries -------------------------------------------------------
    def get(self, key: str):
        """The cached value, or :data:`MISS`."""
        path = self._path(key)
        try:
            value = store.load(path)
        except FileNotFoundError:
            return MISS
        except store.StoreError:
            # Damaged, foreign or hostile entry: drop it and treat as a miss.
            # Another process may race us to the same conclusion; its
            # unlink winning is fine (_unlink_quiet tolerates it).
            _unlink_quiet(path)
            return MISS
        return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (atomic: temp file + rename)."""
        self._write_marker()
        store.save(self._path(key), value)

    def _write_marker(self) -> None:
        marker = self.root / _MARKER_NAME
        if not marker.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            marker.write_text(
                json.dumps({"format": "repro-solar result cache",
                            "salt": self.salt}, indent=2) + "\n"
            )

    # -- maintenance ---------------------------------------------------
    def _entries(self) -> Iterable[Path]:
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if sub.is_dir() and len(sub.name) == 2:
                try:
                    shard = sorted(sub.glob("*.pkl"))
                except FileNotFoundError:
                    continue  # a concurrent clear() removed the shard since the listing
                yield from shard

    def info(self) -> dict:
        """Entry count, total bytes, root and salt (for ``cache info``).

        Raises ``ValueError`` when the root does not exist -- the CLI
        turns that into an ``error:`` line with exit status 2.
        """
        if not self.root.is_dir():
            raise ValueError(f"cache directory {self.root} does not exist")
        total = 0
        count = 0
        for p in self._entries():
            try:
                total += p.stat().st_size
            except FileNotFoundError:
                continue  # removed concurrently between listing and stat
            count += 1
        return {
            "root": str(self.root),
            "salt": self.salt,
            "entries": count,
            "bytes": total,
        }

    def clear(self) -> int:
        """Remove every entry; returns the number removed.

        Refuses (``ValueError``) when the root does not exist, or when
        it holds files but no ``cache-meta.json`` marker -- a guard
        against ``cache clear --dir`` pointed at the wrong directory.
        """
        if not self.root.is_dir():
            raise ValueError(f"cache directory {self.root} does not exist")
        marker = self.root / _MARKER_NAME
        entries = list(self._entries())
        if not marker.exists() and any(self.root.iterdir()):
            raise ValueError(
                f"{self.root} does not look like a repro-solar result "
                f"cache (no {_MARKER_NAME}); refusing to clear it"
            )
        removed = 0
        for path in entries:
            if _unlink_quiet(path):
                removed += 1
        for sub in self.root.iterdir():
            try:
                if sub.is_dir() and len(sub.name) == 2 and not any(sub.iterdir()):
                    sub.rmdir()
            except OSError:
                pass  # concurrent clear emptied/removed it first
        return removed
