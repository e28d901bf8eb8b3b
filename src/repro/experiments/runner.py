"""Run every experiment and render the paper-vs-measured comparison.

``run_all`` executes all eight reproductions and returns the results
keyed by experiment id; ``render_report`` turns them into the text that
EXPERIMENTS.md embeds.  The command-line front-end lives in
:mod:`repro.cli`.

Parallel execution
------------------
``run_all`` decomposes the selection into work units -- one
**(experiment, site)** pair for the trace-driven multi-site
reproductions (Tables I/II/III/V, Fig. 7), one whole experiment for
the cheap or single-site ones (Table IV, Figs. 2/6) -- and hands them
to the shared executor (:func:`repro.parallel.executor.execute_passes`).
Sites are independent by construction (every sweep reads only its own
site's trace), so per-site results concatenate, in site order, to
exactly the sequential rows; *both* code paths run the same unit split
and merge, which is what makes their output -- and their cache keys --
identical.

``jobs=None`` (or 1) runs the units inline in this process, one unit
per pass in experiment order, sharing the experiment-level memos
(:func:`repro.experiments.common.trace_for` /
:func:`~repro.experiments.common.batch_for` /
:func:`~repro.experiments.common.sweep_for`); no pool is ever spawned
for one worker or a single unit.  With ``jobs > 1`` each worker owns
private copies of those memos (measured sites are re-registered in it
by the :func:`~repro.solar.ingest.sites.install_measured_sites`
initializer before the first unit), so the pool runs one pass per
site: every per-site unit of a site in one worker, which builds the
site's trace and batches once and sweeps each (N, objective) once.
Site-less units stay one-unit passes, and the largest pass is halved
until every worker has one.  Units stay the cache grain either way: a
site's pass is cached as its units' entries only, one per unit, so a
pooled and an inline run write the same files.
``backend="thread"`` trades process isolation for zero fork/pickle
cost on GIL-releasing numpy sweeps.

Every trace-driven experiment states the shortest trace it can run
(``MIN_N_DAYS``); ``run_all`` refuses a shorter ``n_days`` before any
unit runs.

With a :class:`~repro.parallel.cache.ResultCache`, every unit is keyed
by (experiment, n_days, sites, dataset identity, code salt): cached
units never re-run, so an interrupted ``run_all`` resumes and repeat
invocations are near-instant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import fig2, fig6, fig7, table1, table2, table3, table4, table5
from repro.experiments.common import (
    DEFAULT_N_DAYS,
    ExperimentResult,
    check_n_days,
    sites_for,
)

__all__ = ["EXPERIMENTS", "run_all", "render_report", "trace_needs"]

#: Experiment ids in paper order.
EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig2",
    "fig6",
    "fig7",
)

_TRACE_DRIVEN = {"table1", "table2", "table3", "table5", "fig2", "fig7"}

#: Experiments whose rows are generated independently per site; these
#: split into (experiment, site) work units under ``jobs > 1``.
_PER_SITE = ("table1", "table2", "table3", "table5", "fig7")

_MODULES = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "fig2": fig2,
    "fig6": fig6,
    "fig7": fig7,
}


def _run_unit(
    name: str, n_days: int, sites: Optional[Tuple[str, ...]]
) -> ExperimentResult:
    """Execute one work unit (module-level so process pools can pickle it)."""
    module = _MODULES[name]
    if name not in _TRACE_DRIVEN:
        return module.run()
    if name == "fig2" or (name == "table5" and sites is None):
        return module.run(n_days=n_days)
    return module.run(n_days=n_days, sites=sites)


def _run_pass(*units: tuple):
    """Execute one pass of work units, in order (module-level so
    process pools can pickle it); a one-unit pass returns its result."""
    results = [_run_unit(*unit) for unit in units]
    return results[0] if len(results) == 1 else results


def trace_needs(selected: Sequence[str]) -> Dict[str, int]:
    """Shortest trace (``MIN_N_DAYS``) of each selected trace-driven experiment."""
    return {
        name: _MODULES[name].MIN_N_DAYS for name in selected if name in _TRACE_DRIVEN
    }


def _work_units(
    selected: Sequence[str], sites: Optional[Sequence[str]]
) -> List[Tuple[str, Optional[Tuple[str, ...]]]]:
    """Split the selection into independent (experiment, sites) units."""
    units: List[Tuple[str, Optional[Tuple[str, ...]]]] = []
    for name in selected:
        site_list: Tuple[str, ...] = ()
        if name in _PER_SITE:
            if name == "table5" and sites is None:
                site_list = table5.DYNAMIC_SITES
            else:
                site_list = sites_for(sites)
        if site_list:
            units.extend((name, (site,)) for site in site_list)
        else:
            # single-unit experiments, and the degenerate empty site
            # selection (which must still yield a zero-row result, as
            # the sequential path does)
            units.append((name, tuple(sites) if sites is not None else None))
    return units


def _site_passes(
    units: Sequence[Tuple[str, Optional[Tuple[str, ...]]]],
    missing: Sequence[int],
    jobs: int,
) -> List[List[int]]:
    """Group the missing units into per-site passes for a pool.

    Every per-site unit of one site shares a pass, in unit order, so one
    worker builds the site's trace and batches once and its table3,
    table5 and fig7 units share sweeps through the worker's memo.
    Site-less units are passes of their own.  The largest pass is then
    halved until there are ``min(jobs, len(missing))`` passes.
    """
    from repro.parallel.executor import split_widest

    groups: Dict[object, List[int]] = {}  # site name, or a site-less unit's index
    for i in missing:
        name, unit_sites = units[i]
        key = unit_sites[0] if name in _PER_SITE and unit_sites else i
        groups.setdefault(key, []).append(i)
    return split_widest(list(groups.values()), min(jobs, len(missing)))


def _merge_parts(parts: List[ExperimentResult]) -> ExperimentResult:
    """Concatenate per-site results of one experiment (site order kept)."""
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    return ExperimentResult(
        experiment=first.experiment,
        title=first.title,
        headers=first.headers,
        rows=[row for part in parts for row in part.rows],
        notes=first.notes,
        meta=first.meta,
    )


def _unit_key(cache, name: str, n_days: int, unit_sites, identities) -> str:
    """Cache digest of one work unit (spec + dataset identity)."""
    return cache.key(
        {
            "kind": "run-all-unit",
            "experiment": name,
            "n_days": n_days,
            "sites": list(unit_sites) if unit_sites is not None else None,
            "tokens": {s: identities[s] for s in (unit_sites or ())},
        }
    )


def run_all(
    n_days: int = DEFAULT_N_DAYS,
    sites: Optional[Sequence[str]] = None,
    only: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    cache=None,
    stats: Optional[list] = None,
) -> Dict[str, ExperimentResult]:
    """Run the selected experiments (all by default).

    Parameters
    ----------
    n_days:
        Trace length; 365 reproduces the paper, smaller is faster.
    sites:
        Site subset (None = the paper's six; table5 intersects with its
        own four-site list).
    only:
        Experiment ids to run (None = all).
    jobs:
        Worker count; ``None`` or 1 runs the units inline in this
        process (see module docstring) -- no pool is spawned.
    backend:
        Executor backend (:data:`repro.parallel.executor.BACKENDS`);
        ``None`` = process pool when ``jobs > 1``.
    cache:
        Optional :class:`~repro.parallel.cache.ResultCache`; completed
        units are memoised on disk and re-runs resume from them.
    stats:
        Optional list; the call appends its
        :class:`~repro.parallel.executor.ExecutionStats` record
        (benchmarks and the CLI read dispatch overhead from it).
    """
    from repro.parallel.executor import execute_passes
    from repro.solar.ingest.sites import install_measured_sites, measured_specs_for

    selected = tuple(only) if only is not None else EXPERIMENTS
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}; available: {EXPERIMENTS}")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # A duplicated id runs once: the merge would otherwise double rows,
    # so drop repeats up front and keep first-occurrence order.
    selected = tuple(dict.fromkeys(selected))
    check_n_days(n_days, trace_needs(selected))

    results: Dict[str, ExperimentResult] = {}
    units = _work_units(selected, sites)
    if not units:
        return results

    distinct = sorted({s for _, u in units if u for s in u})
    keys = None
    if cache is not None:
        from repro.parallel.cache import dataset_identity

        identities = {s: dataset_identity(s) for s in distinct}
        keys = [
            _unit_key(cache, name, n_days, unit_sites, identities)
            for name, unit_sites in units
        ]

    args = [(name, n_days, unit_sites) for name, unit_sites in units]
    pooled = jobs is not None and jobs > 1 and backend != "inline"

    def passes(missing):
        groups = _site_passes(units, missing, jobs) if pooled else [[i] for i in missing]
        return [(members, tuple(args[i] for i in members)) for members in groups]

    outputs, exec_stats = execute_passes(
        _run_pass,
        len(args),
        passes,
        split=lambda output, members: output,
        jobs=jobs,
        backend=backend,
        initializer=install_measured_sites,
        initargs=(measured_specs_for(distinct),),
        cache=cache,
        keys=keys,
    )
    if stats is not None:
        stats.append(exec_stats)

    for name in selected:
        parts = [out for (unit_name, _), out in zip(units, outputs) if unit_name == name]
        results[name] = _merge_parts(parts)
    return results


def render_report(results: Dict[str, ExperimentResult]) -> str:
    """Concatenated text rendering of every result, in paper order."""
    parts = []
    for name in EXPERIMENTS:
        if name in results:
            parts.append(results[name].render())
    return "\n\n".join(parts)
