"""Persistent online predictor state: the serve daemon's checkpoints.

An always-on forecast node observes one power sample per slot, forever;
when its process restarts it must *not* replay months of history to
rebuild the predictor.  This module persists the
:meth:`~repro.core.base.OnlinePredictor.state_dict` snapshot after
observed slots so a restarted daemon resumes exactly where the old one
stopped -- the checkpoint/resume tests pin the resumed prediction
stream bitwise against an uninterrupted run.

On-disk format (one file per ``(site, predictor)`` pair under the state
directory):

* a pickled **envelope** ``{"format": "repro-solar predictor state",
  "version": 1, "site": ..., "predictor": ..., "n_slots": ...,
  "state": <state_dict>}`` -- the format marker and version are
  validated on load, so a stale layout from a future schema (or a file
  that is not a checkpoint at all) is a clear error, never a silently
  corrupted predictor;
* written **atomically** (temp file in the same directory +
  ``os.replace``, the idiom of :mod:`repro.parallel.cache`), so a crash
  or SIGKILL mid-write leaves the previous checkpoint intact;
* fingerprinted by :func:`state_digest` -- a short sha256 over a
  type-tagged encoding of the state's values (not of its pickle, which
  is not value-stable) -- which the serve audit lines carry so an
  operator can tie any logged prediction to the exact model state that
  produced it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "STATE_FORMAT",
    "STATE_VERSION",
    "StateError",
    "StateStore",
    "state_digest",
]

STATE_FORMAT = "repro-solar predictor state"

#: Bump when the envelope layout changes; load refuses other versions.
STATE_VERSION = 1

_SUFFIX = ".state.pkl"


class StateError(ValueError):
    """A state file exists but cannot serve as a checkpoint."""


def _hash_value(digest, value) -> None:
    """Feed one state element into ``digest``, type-tagged.

    Explicit serialisation rather than ``pickle.dumps``: pickle's
    output depends on object *identity* (interned strings shared
    between dicts become memo references), so a snapshot and its
    pickle round trip -- equal by value -- would digest differently.
    Every branch here depends only on values.
    """
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
        digest.update(
            b"A" + arr.dtype.str.encode() + str(arr.shape).encode()
        )
        digest.update(arr.tobytes())
    elif isinstance(value, dict):
        digest.update(b"{")
        for key in sorted(value, key=str):
            _hash_value(digest, str(key))
            _hash_value(digest, value[key])
        digest.update(b"}")
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            _hash_value(digest, item)
        digest.update(b"]")
    else:
        raise TypeError(
            f"cannot digest {type(value).__name__!r} in a predictor state"
        )


def state_digest(state: dict) -> str:
    """Short content fingerprint of one predictor snapshot.

    Value-based: equal states digest equally regardless of dict
    insertion order, string interning, or a pickle round trip through
    the store.  16 hex characters keep audit lines compact while
    leaving collisions negligible for any realistic checkpoint count.
    """
    digest = hashlib.sha256()
    _hash_value(digest, state)
    return digest.hexdigest()[:16]


def _slug(name: str) -> str:
    """File-name-safe form of a site/predictor name."""
    cleaned = "".join(c if c.isalnum() or c in "-_" else "-" for c in name)
    return cleaned or "x"


class StateStore:
    """One directory of atomic per-``(site, predictor)`` checkpoints.

    The store is a plain directory; each checkpoint is one file, so
    concurrent daemons serving *different* sites can share a directory,
    and ``rsync``/inspection tooling needs no index.  All writes go
    through a temp file + ``os.replace`` in the same directory, making
    every checkpoint either the complete old state or the complete new
    one.
    """

    def __init__(self, root):
        self.root = Path(root)

    def path_for(self, site: str, predictor: str) -> Path:
        """Checkpoint path of one ``(site, predictor)`` pair."""
        return self.root / f"{_slug(site)}__{_slug(predictor)}{_SUFFIX}"

    # -- write ---------------------------------------------------------
    def save(self, site: str, predictor: str, state: dict) -> str:
        """Atomically persist ``state``; returns its digest."""
        path = self.path_for(site, predictor)
        self.root.mkdir(parents=True, exist_ok=True)
        envelope = {
            "format": STATE_FORMAT,
            "version": STATE_VERSION,
            "site": site,
            "predictor": predictor,
            "state": state,
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return state_digest(state)

    # -- read ----------------------------------------------------------
    def load(self, site: str, predictor: str) -> Optional[dict]:
        """The saved state dict, or None when no checkpoint exists.

        Raises :class:`StateError` when a file exists but is not a
        version-compatible checkpoint of this ``(site, predictor)``
        pair -- resuming from the wrong state must be loud.
        """
        path = self.path_for(site, predictor)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError) as exc:
            raise StateError(f"cannot read state file {path}: {exc}")
        if not isinstance(envelope, dict) or envelope.get("format") != STATE_FORMAT:
            raise StateError(f"{path} is not a {STATE_FORMAT!r} file")
        version = envelope.get("version")
        if version != STATE_VERSION:
            raise StateError(
                f"{path} has state-format version {version}; this build "
                f"reads version {STATE_VERSION}"
            )
        if envelope.get("site") != site or envelope.get("predictor") != predictor:
            raise StateError(
                f"{path} holds state of ({envelope.get('site')}, "
                f"{envelope.get('predictor')}); expected ({site}, {predictor})"
            )
        return envelope["state"]

    def entries(self) -> Iterator[Tuple[str, str]]:
        """Yield the ``(site, predictor)`` pairs checkpointed here.

        Read from the envelopes, not the file names, so slugged names
        round-trip exactly.  Unreadable files are skipped -- listing is
        informational; :meth:`load` is where corruption must be loud.
        """
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob(f"*{_SUFFIX}")):
            try:
                with open(path, "rb") as handle:
                    envelope = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError):
                continue
            if (
                isinstance(envelope, dict)
                and envelope.get("format") == STATE_FORMAT
            ):
                yield envelope["site"], envelope["predictor"]
