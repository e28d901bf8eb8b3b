"""Shared infrastructure for the experiment modules.

* :class:`ExperimentResult` -- rows + metadata + text rendering.
* :func:`trace_for` / :func:`batch_for` / :func:`sweep_for` -- the
  memo levels the table/figure reproductions run on (see below).
* :func:`check_n_days` -- refuse a trace too short to score.
* :func:`format_table` -- minimal fixed-width text table.

Cache architecture
------------------
Experiments touch the same data at four granularities, each with its
own memo so nothing is rebuilt one level down:

1. **Native trace per (site, n_days)** -- :func:`trace_for`.  Building a
   one-year 1-minute trace costs a noticeable fraction of a second; a
   sweep over the five paper ``N`` values must slot the *same* trace
   five ways, not synthesise it five times.
2. **Batch engine per (site, n_days, N)** -- :func:`batch_for`, a small
   LRU of :class:`~repro.core.wcma.WCMABatch` instances.  A batch holds
   the slotted trace plus the per-``D``/per-``(D, K)`` ``μ``/``η``/``Φ``
   caches every grid search of one (site, N) shares.
3. **Grid search per (site, n_days, N, objective, D grid)** --
   :func:`sweep_for`, an LRU of read-only
   :class:`~repro.core.optimizer.GridSearchResult` objects.  Tables
   II, III, V and Fig. 7 ask for 68 sweeps in a full ``run_all``, of
   which 36 are distinct: each runs once and the repeats are hits.
4. **Inside each batch** -- the sweep-v2 kernel caches documented on
   :class:`~repro.core.wcma.WCMABatch` (shared day-axis prefix sum,
   memoised ``μ``/``η`` per ``D``, incremental ``Φ`` window sums).

The three memos are per process.  Under the parallel runner
(:func:`repro.experiments.runner.run_all` with ``jobs > 1``) every
worker process grows its own copies for the units it executes, which
is why a pool gets one pass per site (all of a site's units in one
worker); nothing is pickled or shared between workers, so cache state
never crosses process boundaries.  ``backend="thread"`` workers do
share the memos and the batches in them, so the LRUs' bookkeeping runs
under one lock, a batch is safe to sweep from several threads, and a
memoised sweep's error cube is read-only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.optimizer import DEFAULT_DAYS, GridSearchResult, grid_search
from repro.core.wcma import WCMABatch
from repro.metrics.roi import DEFAULT_WARMUP_DAYS
from repro.solar.datasets import build_dataset
from repro.solar.sites import SITE_ORDER
from repro.solar.trace import SolarTrace

__all__ = [
    "DEFAULT_N_DAYS",
    "PAPER_N_VALUES",
    "BATCH_CACHE_MAX_ENTRIES",
    "SWEEP_CACHE_MAX_ENTRIES",
    "MIN_SWEEP_N_DAYS",
    "ExperimentResult",
    "trace_for",
    "batch_for",
    "sweep_for",
    "clear_batch_cache",
    "check_n_days",
    "format_table",
    "sites_for",
    "supported_n_for_site",
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

#: LRU bound on the memoised grid searches.  A full ``run_all`` holds
#: 36 distinct sweeps of about 10 KB each (the paper grid's error cube);
#: the slack covers a few measured sites next to the synthetic six.
SWEEP_CACHE_MAX_ENTRIES = 64

#: Shortest trace a WCMA sweep experiment can score.  A prediction needs
#: ``max(D)`` days of history and the first ``DEFAULT_WARMUP_DAYS`` are
#: never scored; one scored day is not enough, because an overcast day
#: can sit wholly below the region-of-interest threshold (at 21 days
#: SPMD, ORNL and HSU score nothing), so two scored days are required.
MIN_SWEEP_N_DAYS = max(max(DEFAULT_DAYS), DEFAULT_WARMUP_DAYS) + 2

_BATCH_CACHE: "OrderedDict[Tuple[str, int, int, object], WCMABatch]" = OrderedDict()
_SWEEP_CACHE: "OrderedDict[tuple, GridSearchResult]" = OrderedDict()
#: Guards both LRUs' bookkeeping (not the batch build or the sweep):
#: thread-backend units look up, refresh and evict entries concurrently.
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
    return _remember(_BATCH_CACHE, key, batch, BATCH_CACHE_MAX_ENTRIES)


def sweep_for(
    site: str,
    n_days: int,
    n_slots: int,
    objective: str = "mape",
    days: Sequence[int] = DEFAULT_DAYS,
) -> GridSearchResult:
    """Memoised paper-grid search for one (site, trace length, N).

    Keyed like :func:`batch_for` plus the objective and the ``D`` grid;
    a miss runs :func:`~repro.core.optimizer.grid_search` on the
    memoised batch.  Hits return the same object, so its ``errors``
    cube is made read-only: copy a slice before changing it.  An LRU of
    :data:`SWEEP_CACHE_MAX_ENTRIES`.
    """
    from repro.solar.datasets import dataset_token

    days = tuple(days)
    key = (site.upper(), n_days, n_slots, dataset_token(site), objective, days)
    with _BATCH_LOCK:
        if key in _SWEEP_CACHE:
            _SWEEP_CACHE.move_to_end(key)
            return _SWEEP_CACHE[key]
    batch = batch_for(site, n_days, n_slots)
    result = grid_search(
        batch.view.trace, n_slots, days=days, objective=objective, batch=batch
    )
    result.errors.flags.writeable = False
    return _remember(_SWEEP_CACHE, key, result, SWEEP_CACHE_MAX_ENTRIES)


def _remember(memo: OrderedDict, key, value, bound: int):
    """Store a freshly built memo value, evicting beyond ``bound``.

    A concurrent miss may have stored the key first: its value is
    shared and this one dropped.
    """
    with _BATCH_LOCK:
        value = memo.setdefault(key, value)
        memo.move_to_end(key)
        while len(memo) > bound:
            memo.popitem(last=False)
    return value


def clear_batch_cache() -> None:
    """Drop memoised sweeps, batches and traces (tests)."""
    with _BATCH_LOCK:
        _SWEEP_CACHE.clear()
        _BATCH_CACHE.clear()
    _TRACE_CACHE.clear()


def check_n_days(n_days: int, needs: Mapping[str, int]) -> None:
    """Refuse a trace shorter than an experiment can run.

    ``needs`` maps each experiment about to run to the shortest trace it
    can score (its module's ``MIN_N_DAYS``).  Callers check before any
    work starts, so a short ``--days`` is one ``ValueError`` -- one
    ``error:`` line from the CLI -- not a failure deep in a sweep.
    """
    for name, need in needs.items():
        if n_days < need:
            raise ValueError(
                f"n_days={n_days} is too short for {name}, which needs "
                f"at least {need} days"
            )


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
