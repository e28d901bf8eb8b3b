"""Always-on forecast service: streaming queries over persistent state.

The paper's predictors are evaluated offline over whole traces; a
deployed harvesting node runs them *online*, forever -- observing one
power sample per slot, answering "how much energy arrives next slot?"
on demand, surviving restarts without losing months of learned state.
This package is that deployment shape:

* :mod:`repro.serve.state` -- versioned, atomically-written on-disk
  checkpoints of :meth:`~repro.core.base.OnlinePredictor.state_dict`
  snapshots, with content digests for audit lines.
* :mod:`repro.serve.service` -- :class:`ForecastService`, the
  transport-agnostic multi-site registry of online predictors
  (register / observe / forecast / replay / checkpoint), thread-safe
  and resume-exact.
* :mod:`repro.serve.daemon` -- the stdin-JSONL transport behind
  ``repro-solar serve`` (graceful EOF/SIGINT shutdown with state
  flush).
* :mod:`repro.serve.http` -- the optional stdlib HTTP front-end
  (``--http PORT``).
"""

from repro.serve.daemon import serve_stdin
from repro.serve.http import serve_http
from repro.serve.service import ForecastService
from repro.serve.state import (
    STATE_FORMAT,
    STATE_VERSION,
    StateError,
    StateStore,
    state_digest,
)

__all__ = [
    "ForecastService",
    "StateError",
    "StateStore",
    "STATE_FORMAT",
    "STATE_VERSION",
    "serve_http",
    "serve_stdin",
    "state_digest",
]
