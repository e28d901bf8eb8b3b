"""Persistent online predictor state: the serve daemon's checkpoints.

An always-on forecast node observes one power sample per slot, forever;
when its process restarts it must *not* replay months of history to
rebuild the predictor.  This module persists the
:meth:`~repro.core.base.OnlinePredictor.state_dict` snapshot after
observed slots so a restarted daemon resumes exactly where the old one
stopped -- the checkpoint/resume tests pin the resumed prediction
stream bitwise against an uninterrupted run.

On disk, one file per ``(site, predictor)`` pair holds the pickled
**envelope** ``{"format": "repro-solar predictor state", "version": 1,
"site": ..., "predictor": ..., "state": <state_dict>}``, written
atomically and loaded through :mod:`repro.store`'s allowlist: a crash
mid-write leaves the previous checkpoint intact, and a stale, foreign,
damaged or hostile file is a :class:`StateError`, never a silently
wrong predictor or code run from the state directory.
:func:`state_digest` fingerprints a state by value; the serve audit
lines carry it so any logged prediction ties to the exact state that
produced it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional, Tuple

from repro.store import Envelope, value_digest

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


class StateError(ValueError):
    """A state file exists but cannot serve as a checkpoint."""


_ENVELOPE = Envelope(
    STATE_FORMAT, STATE_VERSION, "state", "predictor", ".state.pkl", StateError
)


def state_digest(state: dict) -> str:
    """Short content fingerprint of one predictor snapshot.

    The first 16 hex characters of :func:`repro.store.value_digest`:
    equal states digest equally whatever their dict order, interning or
    pickle round trips, and audit lines stay compact.
    """
    return value_digest(state)[:16]


class StateStore:
    """One directory of atomic per-``(site, predictor)`` checkpoints.

    The store is a plain directory; each checkpoint is one file, so
    concurrent daemons serving *different* sites can share a directory,
    and ``rsync``/inspection tooling needs no index.  Every checkpoint
    on disk is either the complete old state or the complete new one.
    """

    def __init__(self, root):
        self.root = Path(root)

    def path_for(self, site: str, predictor: str) -> Path:
        """Checkpoint path of one ``(site, predictor)`` pair."""
        return _ENVELOPE.path(self.root, site, predictor)

    def save(self, site: str, predictor: str, state: dict) -> str:
        """Atomically persist ``state``; returns its digest."""
        _ENVELOPE.save(self.path_for(site, predictor), site, predictor, state=state)
        return state_digest(state)

    def load(self, site: str, predictor: str) -> Optional[dict]:
        """The saved state dict, or None when no checkpoint exists.

        Raises :class:`StateError` when a file exists but is not a
        version-compatible checkpoint of this ``(site, predictor)``
        pair -- resuming from the wrong state must be loud.
        """
        envelope = _ENVELOPE.load(self.path_for(site, predictor), site, predictor)
        return None if envelope is None else envelope["state"]

    def entries(self) -> Iterator[Tuple[str, str]]:
        """Yield the ``(site, predictor)`` pairs checkpointed here."""
        return _ENVELOPE.entries(self.root)
