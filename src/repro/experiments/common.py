"""Shared infrastructure for the experiment modules.

* :class:`ExperimentResult` -- rows + metadata + text rendering.
* :func:`trace_for` / :func:`batch_for` -- the two cache levels the
  table/figure reproductions run on (see below).
* :func:`format_table` -- minimal fixed-width text table.

Cache architecture
------------------
Experiments touch the same data at three granularities, each with its
own memo so nothing is rebuilt one level down:

1. **Native trace per (site, n_days)** -- :func:`trace_for`.  Building a
   one-year 1-minute trace costs a noticeable fraction of a second; a
   sweep over the five paper ``N`` values must slot the *same* trace
   five ways, not synthesise it five times.
2. **Batch engine per (site, n_days, N)** -- :func:`batch_for`, a small
   LRU of :class:`~repro.core.wcma.WCMABatch` instances.  A batch holds
   the slotted trace plus the per-``D``/per-``(D, K)`` ``μ``/``η``/``Φ``
   caches every grid search of Tables II/III/V and Fig. 7 shares.
3. **Inside each batch** -- the sweep-v2 kernel caches documented on
   :class:`~repro.core.wcma.WCMABatch` (shared day-axis prefix sum,
   memoised ``μ``/``η`` per ``D``, incremental ``Φ`` window sums).

Both memos are per process.  Under the parallel runner
(:func:`repro.experiments.runner.run_all` with ``jobs > 1``) every
worker process grows its own copies for the (experiment, site) units it
executes; nothing is pickled or shared between workers, so cache state
never crosses process boundaries.  ``backend="thread"`` workers do
share both memos and the batches in them, so the LRU's bookkeeping
runs under a lock and a batch is safe to sweep from several threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.wcma import WCMABatch
from repro.solar.datasets import build_dataset
from repro.solar.sites import SITE_ORDER
from repro.solar.trace import SolarTrace

__all__ = [
    "DEFAULT_N_DAYS",
    "PAPER_N_VALUES",
    "BATCH_CACHE_MAX_ENTRIES",
    "ExperimentResult",
    "trace_for",
    "batch_for",
    "clear_batch_cache",
    "format_table",
    "sites_for",
    "supported_n_for_site",
    "warm_worker",
]

#: Evaluation length used by the paper (days 21..365 scored).
DEFAULT_N_DAYS = 365

#: Sampling rates evaluated in Table III.
PAPER_N_VALUES = (288, 96, 72, 48, 24)

#: LRU bound on the memoised batch engines.  A WCMABatch holds the full
#: flattened trace plus per-(D, K) conditioned-term caches, so an
#: unbounded dict grows without limit during long sweeps over many
#: (site, days, N) keys; eight entries cover a whole per-site experiment
#: (the five paper N values plus slack) while keeping memory flat.
BATCH_CACHE_MAX_ENTRIES = 8

_BATCH_CACHE: "OrderedDict[Tuple[str, int, int, object], WCMABatch]" = OrderedDict()
#: Guards the LRU's bookkeeping (not the batch build): thread-backend
#: units look up, refresh and evict entries concurrently.
_BATCH_LOCK = threading.Lock()

_TRACE_CACHE: Dict[Tuple[str, int, object], SolarTrace] = {}


def trace_for(site: str, n_days: int) -> SolarTrace:
    """Memoised native-resolution trace for one (site, trace length).

    Deliberately keyed *without* ``N``: a batch-cache miss for a new
    sampling rate re-slots the already-built trace instead of
    regenerating it.  Unbounded, but a full ``run_all`` only ever holds
    the paper's six sites at one or two trace lengths.

    The key also carries the dataset identity token
    (:func:`repro.solar.datasets.dataset_token`) so re-registering a
    measured site name against a different file can never serve the
    previous file's memoised trace.
    """
    from repro.solar.datasets import dataset_token

    key = (site.upper(), n_days, dataset_token(site))
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = build_dataset(site, n_days=n_days)
    return _TRACE_CACHE[key]


def batch_for(site: str, n_days: int, n_slots: int) -> WCMABatch:
    """Memoised batch engine for one (site, trace length, N).

    The memo is a small LRU (:data:`BATCH_CACHE_MAX_ENTRIES`): a hit
    refreshes the entry, a miss beyond the bound evicts the least
    recently used batch.  The underlying native trace comes from
    :func:`trace_for`, so evicted batches rebuild only the slot view
    and kernel caches, never the trace itself.  Keys carry the same
    dataset identity token as :func:`trace_for`.
    """
    from repro.solar.datasets import dataset_token

    key = (site.upper(), n_days, n_slots, dataset_token(site))
    with _BATCH_LOCK:
        if key in _BATCH_CACHE:
            _BATCH_CACHE.move_to_end(key)
            return _BATCH_CACHE[key]
    batch = WCMABatch.from_trace(trace_for(site, n_days), n_slots)
    with _BATCH_LOCK:
        # A concurrent miss may have stored this key first: share it.
        batch = _BATCH_CACHE.setdefault(key, batch)
        _BATCH_CACHE.move_to_end(key)
        while len(_BATCH_CACHE) > BATCH_CACHE_MAX_ENTRIES:
            _BATCH_CACHE.popitem(last=False)
    return batch


def clear_batch_cache() -> None:
    """Drop memoised batches and traces (tests)."""
    with _BATCH_LOCK:
        _BATCH_CACHE.clear()
    _TRACE_CACHE.clear()


def warm_worker(
    measured_specs: Sequence = (),
    traces: Sequence[Tuple[str, int]] = (),
) -> None:
    """Pool initializer: re-arm per-process state before the first unit.

    Runs once per worker (process *or* thread backend -- it is
    idempotent, so re-running in the parent for threads is harmless):

    * re-registers the picklable measured-site specs, since the ingest
      registry (:mod:`repro.solar.ingest.sites`) is per-process state
      and a spawned worker starts without it;
    * optionally pre-builds :func:`trace_for` entries for the given
      ``(site, n_days)`` pairs, so no unit pays the trace synthesis /
      ingestion cold start inside its timed work.
    """
    if measured_specs:
        from repro.solar.ingest.sites import install_measured_sites

        install_measured_sites(measured_specs)
    for site, n_days in traces:
        trace_for(site, n_days)


def sites_for(sites: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """Normalise a site selection (None -> the paper's six, in order).

    Explicit selections are validated against every available dataset
    -- the synthetic six plus any registered measured site
    (:mod:`repro.solar.ingest.sites`); the default stays the paper's
    six.
    """
    if sites is None:
        return SITE_ORDER
    from repro.solar.datasets import available_datasets

    known = available_datasets()
    resolved = tuple(s.upper() for s in sites)
    unknown = [s for s in resolved if s not in known]
    if unknown:
        raise ValueError(f"unknown sites: {unknown}; available: {known}")
    return resolved


def supported_n_for_site(site: str, n_values: Sequence[int]) -> Tuple[int, ...]:
    """Filter N values to those the site's resolution supports.

    The paper's footnote: N=288 "is not defined" for the 5-minute sites
    in the sense that a slot then contains a single sample -- it is
    still evaluable (and trivially exact at alpha=1); what cannot be
    evaluated is N exceeding the native samples per day.  We keep every
    N that divides the native rate.  Works for measured sites too.
    """
    from repro.solar.datasets import samples_per_day_for

    spd = samples_per_day_for(site)
    return tuple(n for n in n_values if spd % n == 0 and n <= spd)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], indent: str = ""
) -> str:
    """Fixed-width text table (no external dependencies)."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells, expected {columns}: {row!r}"
            )
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(columns)]
    lines = []
    for i, row in enumerate(cells):
        line = indent + "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row))
        lines.append(line.rstrip())
        if i == 0:
            lines.append(indent + "  ".join("-" * widths[c] for c in range(columns)))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Regenerated numbers for one table/figure.

    Attributes
    ----------
    experiment:
        Identifier, e.g. ``"table3"``.
    title:
        Human-readable description.
    headers:
        Column names of ``rows``.
    rows:
        List of dicts keyed by ``headers`` entries.
    notes:
        Free-form remarks (conventions, substitutions).
    """

    experiment: str
    title: str
    headers: List[str]
    rows: List[dict]
    notes: str = ""
    meta: dict = field(default_factory=dict)

    def render(self) -> str:
        """Paper-style fixed-width text rendering."""
        table = format_table(
            self.headers,
            [[_fmt(row.get(h)) for h in self.headers] for row in self.rows],
        )
        parts = [f"{self.experiment.upper()}: {self.title}", table]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        if name not in self.headers:
            raise KeyError(f"unknown column {name!r}; have {self.headers}")
        return [row.get(name) for row in self.rows]


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
