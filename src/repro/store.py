"""One on-disk store: the only code that moves a value to disk and back.

Serve checkpoints (:class:`~repro.serve.state.StateStore`), model
artifacts (:class:`~repro.learn.artifact.ArtifactStore`) and result-cache
entries (:class:`~repro.parallel.cache.ResultCache`) all use it.
:func:`save` is atomic.  :func:`load` unpickles through an allowlist of
the globals stored values use, so opening a state, model or cache
directory never runs code from it, and whatever is wrong with a file
-- truncation, flipped bits, a foreign or hostile pickle -- is a
:class:`StoreError`.  :class:`Envelope` is the versioned
per-``(site, name)`` layout of the first two stores, and
:func:`value_digest` the one value fingerprint that state digests,
artifact digests and cache keys are cut from.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import pickle
import struct
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["Envelope", "StoreError", "load", "save", "value_digest"]

#: ``(module, name)`` of every global a stored file may reference;
#: ``numpy.core`` is numpy 1.x's module path, ``numpy._core`` 2.x's.
#: Contiguous arrays pickle through ``_frombuffer``, other layouts and
#: pickle protocols below 5 through ``_reconstruct``.
_ALLOWED_GLOBALS = frozenset({
    ("numpy", "dtype"), ("numpy", "ndarray"),
    ("numpy.core.numeric", "_frombuffer"), ("numpy._core.numeric", "_frombuffer"),
    ("numpy.core.multiarray", "_reconstruct"), ("numpy._core.multiarray", "_reconstruct"),
    ("numpy.core.multiarray", "scalar"), ("numpy._core.multiarray", "scalar"),
    ("repro.experiments.common", "ExperimentResult"),
    ("repro.management.fleet", "FleetAggregate"),
})


class StoreError(ValueError):
    """A file exists but cannot be read back as a stored value."""


class _AllowlistUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) not in _ALLOWED_GLOBALS:
            raise pickle.UnpicklingError(f"{module}.{name} is not allowed in a stored file")
        return super().find_class(module, name)


def save(path: Path, value) -> None:
    """Atomically pickle ``value`` to ``path`` (temp file + ``os.replace``)."""
    directory = path.parent
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except FileNotFoundError:  # the first write into a new directory
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load(path: Path):
    """The value stored at ``path``.

    Raises ``FileNotFoundError`` when there is no file and
    :class:`StoreError` for every other failure.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise StoreError(str(exc)) from None
    try:
        return _AllowlistUnpickler(io.BytesIO(data)).load()
    except Exception as exc:  # a damaged stream can fail in any decoder step
        raise StoreError(f"{type(exc).__name__}: {exc}") from None


def _feed(digest, value) -> None:
    """Feed one value into ``digest``, type-tagged; dicts in key order."""
    if value is None:
        digest.update(b"N")
    elif isinstance(value, (bool, np.bool_)):
        digest.update(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        digest.update(b"I" + str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        digest.update(b"D" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        raw = value.encode()
        digest.update(b"S" + str(len(raw)).encode() + b":" + raw)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        digest.update(b"A" + arr.dtype.str.encode() + str(arr.shape).encode())
        digest.update(arr.tobytes())
    elif isinstance(value, dict):
        digest.update(b"{")
        for key in sorted(value, key=str):
            _feed(digest, str(key))
            _feed(digest, value[key])
        digest.update(b"}")
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            _feed(digest, item)
        digest.update(b"]")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        digest.update(b"C")
        _feed(digest, type(value).__name__)
        # A loop, not a comprehension: one reading ``value`` would make it
        # a closure cell and slow every branch above (serve's hot path).
        fields = {}
        for field in dataclasses.fields(value):
            fields[field.name] = getattr(value, field.name)
        _feed(digest, fields)
    elif isinstance(value, Path):
        _feed(digest, str(value))
    else:
        raise TypeError(f"cannot digest a {type(value).__name__!r} value")


def value_digest(value) -> str:
    """sha256 hex digest of ``value``'s type-tagged encoding.

    Equal values digest equally whatever their dict insertion order,
    string interning or pickle round trips; unsupported types raise
    ``TypeError`` rather than digest their ``repr``.
    """
    digest = hashlib.sha256()
    _feed(digest, value)
    return digest.hexdigest()


def _slug(name: str) -> str:
    """File-name-safe form of a site/predictor/model name."""
    cleaned = "".join(c if c.isalnum() or c in "-_" else "-" for c in name)
    return cleaned or "x"


def _same(found, expected) -> bool:
    # Type first: a damaged file can put an array where a name belongs,
    # and an array's ``==`` has no single truth value.
    return type(found) is type(expected) and found == expected


@dataclasses.dataclass(frozen=True)
class Envelope:
    """Layout of one kind of versioned per-``(site, name)`` file.

    The file ``<site>__<name><suffix>`` holds a pickled dict:
    ``format`` and ``version``, ``site``, the name under ``key``, then
    the kind's own fields, the payload under ``noun`` among them -- in
    that order, which fixes its bytes.  Every file that cannot be served
    raises ``error``.
    """

    format: str
    version: int
    noun: str
    key: str
    suffix: str
    error: type

    def path(self, root: Path, site: str, name: str) -> Path:
        """File of one ``(site, name)`` pair under ``root``."""
        return root / f"{_slug(site)}__{_slug(name)}{self.suffix}"

    def save(self, path: Path, site: str, name: str, **fields) -> None:
        """Atomically write the envelope of ``fields`` to ``path``."""
        save(path, {"format": self.format, "version": self.version,
                    "site": site, self.key: name, **fields})

    def _holds(self, envelope) -> bool:
        return isinstance(envelope, dict) and _same(envelope.get("format"), self.format)

    def load(self, path: Path, site: str, name: str) -> Optional[dict]:
        """The checked envelope at ``path``, or None when there is no file.

        Raises :attr:`error` unless the file is a readable envelope of
        this format and version, for exactly ``(site, name)``, holding
        a payload.
        """
        try:
            envelope = load(path)
        except FileNotFoundError:
            return None
        except StoreError as exc:
            raise self.error(f"cannot read {self.noun} file {path}: {exc}") from None
        if not self._holds(envelope) or self.noun not in envelope:
            raise self.error(f"{path} is not a {self.format!r} file")
        version = envelope.get("version")
        if not _same(version, self.version):
            raise self.error(
                f"{path} has {self.noun}-format version {version}; this build "
                f"reads version {self.version}"
            )
        found = (envelope.get("site"), envelope.get(self.key))
        if not (_same(found[0], site) and _same(found[1], name)):
            raise self.error(
                f"{path} holds the ({found[0]}, {found[1]}) {self.noun}; "
                f"expected ({site}, {name})"
            )
        return envelope

    def entries(self, root: Path) -> Iterator[Tuple[str, str]]:
        """Yield the ``(site, name)`` pairs stored under ``root``, read
        from the envelopes so slugged names round-trip; unreadable files
        are skipped (listing is informational, :meth:`load` is loud)."""
        if not root.is_dir():
            return
        for path in sorted(root.glob(f"*{self.suffix}")):
            try:
                envelope = load(path)
            except (OSError, StoreError):
                continue
            if self._holds(envelope):
                site, name = envelope.get("site"), envelope.get(self.key)
                if isinstance(site, str) and isinstance(name, str):
                    yield site, name
