"""Robustness experiment matrix: (scenario x site x predictor).

The paper scores predictors on clean traces only.  This module runs the
same evaluation pipeline over *degraded* traces from the scenario
engine (:mod:`repro.solar.scenarios`) and reports how much each
degradation costs each predictor, relative to the clean baseline.

Two harnesses:

* :func:`run` -- the prediction-robustness matrix.  For every
  (scenario, site) cell the perturbed trace is scored by each registry
  predictor (WCMA at the paper's recommended parameters goes through
  the shared :class:`~repro.core.wcma.WCMABatch` engine) and, when
  ``tune_wcma`` is on, by a re-tuned WCMA whose full ``(alpha, D, K)``
  :func:`~repro.core.optimizer.grid_search` runs on the same batch.
  The ``clean`` scenario is always included so every row carries its
  degradation against the clean baseline of the same (site, predictor).
* :func:`run_fleet_robustness` -- the deployment view: one fleet node
  per (site, scenario) pair, every node holding a differently-degraded
  trace, stepped in lock-step by the
  :class:`~repro.management.fleet.FleetSimulator` -- heterogeneous
  per-node scenarios are exactly what the fleet engine's grouping was
  built for.  Reports duty/downtime/waste per cell.

Parallel execution mirrors :mod:`repro.experiments.runner`.  WCMA (at
the paper's parameters and re-tuned) is scored one (site, scenario)
cell per unit on the cell's :class:`~repro.core.wcma.WCMABatch`; every
other predictor runs *column-stacked*, its cells the columns of one
B-column slab of its lock-step form
(:func:`~repro.core.registry.make_vector_predictor`).  Units are
independent by construction, workers own private trace caches, and both
kinds of unit run through the shared executor
(:func:`repro.parallel.executor.execute_passes`), so the merged output
is byte-identical at any ``jobs``/``backend`` (the degradation column
is computed *after* the merge in every path).  Everything is seeded
through the scenario engine, so the same seed produces the same report.

With a :class:`~repro.parallel.cache.ResultCache`, each cell's rows are
memoised under a digest of (site, scenario, n_days, n_slots,
predictors, seed, tune_wcma, dataset identity, code salt) *before* the
degradation fill -- an interrupted matrix resumes from its finished
cells and only recomputes the missing ones.  A stacked predictor is
cached cell by cell too: each (predictor, cell) result is one unit, and
a predictor's missing cells run together as one slab pass, whose MAPEs
are split into one-cell entries as soon as it completes -- one cache
entry per unit.  A resumed matrix therefore re-runs only cells without
an entry, and its stats count every cell and every stacked (predictor,
cell) result as one unit.  The learned predictors' keys additionally
fold in the full training config and the feature-schema version, so a
hyper-parameter flip or feature redefinition re-runs the learned slice
instead of serving it stale.

Measured sites (:mod:`repro.solar.ingest.sites`) flow through both
harnesses by name like the synthetic six -- including their
``<name>-defects`` replay scenarios -- and their picklable specs are
re-installed in pool workers via the
:func:`~repro.solar.ingest.sites.install_measured_sites` initializer,
so the parallel path works under any multiprocessing start method.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.optimizer import grid_search, mape_for_params
from repro.core.registry import available_predictors, make_vector_predictor
from repro.core.wcma import WCMABatch, WCMAParams
from repro.experiments.common import (
    DEFAULT_N_DAYS,
    MIN_SWEEP_N_DAYS,
    ExperimentResult,
    check_n_days,
    sites_for,
    trace_for,
)
from repro.metrics.evaluate import score_predictions
from repro.solar.scenarios import (
    DEFAULT_SCENARIO_SEED,
    available_scenarios,
    make_scenario,
)

__all__ = [
    "DEFAULT_SCENARIOS",
    "DEFAULT_MATRIX_PREDICTORS",
    "LEARNED_MATRIX_PREDICTORS",
    "MIN_N_DAYS",
    "TUNED_WCMA_LABEL",
    "scenarios_for",
    "run",
    "run_fleet_robustness",
]

#: Scenario names evaluated by default: the clean baseline plus the
#: qualitatively distinct degradations of the original built-in
#: catalogue.  Deliberately a frozen list rather than
#: ``available_scenarios()``: the golden suite pins the default matrix,
#: so later catalogue additions (``spikes``, measured ``<site>-defects``
#: replays) are opt-in via ``scenarios=`` instead of silently widening
#: every default run.
DEFAULT_SCENARIOS = (
    "clean",
    "soiling",
    "soiling-washout",
    "shading",
    "dropout",
    "stuck",
    "gaps-hold",
    "regime-shift",
    "jitter",
    "harsh-field",
)

#: Registry predictors scored per cell by default.  WCMA runs at the
#: paper's recommended (alpha=0.7, D=10, K=2).
DEFAULT_MATRIX_PREDICTORS = ("wcma", "ewma", "persistence")

#: The learned-tier slice: the trainable predictors (``ridge``, ``gbm``
#: -- online self-fitting :class:`~repro.learn.predictor.LearnedPredictor`)
#: and the softmin adaptive selector next to the WCMA/EWMA baselines.
#: ``repro-solar robustness --predictors ridge gbm adaptive wcma ewma``
#: and the learned golden pin both run exactly this list; on the
#: regime-shift cells the adaptive selector beats every fixed-parameter
#: WCMA configuration, including the per-cell re-tuned one.
LEARNED_MATRIX_PREDICTORS = ("wcma", "ewma", "ridge", "gbm", "adaptive")

#: Stacked predictors whose kernels take a ``training=`` config.
_TRAINED_PREDICTORS = ("ridge", "gbm")

#: Row label of the re-tuned WCMA (full grid search per cell).
TUNED_WCMA_LABEL = "wcma-tuned"

#: Paper-recommended operating point (Section IV-B).
_PAPER_PARAMS = WCMAParams(alpha=0.7, days=10, k=2)

#: Shortest trace the matrix can score: the re-tuning sweep needs the
#: paper grid's history, and every predictor is scored on the same
#: region of interest as the paper's tables.
MIN_N_DAYS = MIN_SWEEP_N_DAYS

_MATRIX_HEADERS = [
    "scenario",
    "site",
    "predictor",
    "MAPE %",
    "dMAPE vs clean (pp)",
    "tuned params",
]


def scenarios_for(names: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """Normalise a scenario selection (None -> the default ten).

    Unknown names raise :class:`ValueError`; ``clean`` is prepended
    when missing so every matrix carries its own baseline; duplicates
    collapse to the first occurrence.
    """
    if names is None:
        return DEFAULT_SCENARIOS
    resolved = tuple(dict.fromkeys(s.lower() for s in names))
    known = available_scenarios()
    unknown = [s for s in resolved if s not in known]
    if unknown:
        raise ValueError(f"unknown scenarios: {unknown}; available: {known}")
    if "clean" not in resolved:
        resolved = ("clean",) + resolved
    return resolved


def _predictors_for(names: Optional[Sequence[str]]) -> Tuple[str, ...]:
    if names is None:
        return DEFAULT_MATRIX_PREDICTORS
    resolved = tuple(dict.fromkeys(n.lower() for n in names))
    known = available_predictors()
    unknown = [n for n in resolved if n not in known]
    if unknown:
        raise ValueError(f"unknown predictors: {unknown}; available: {known}")
    return resolved


def _matrix_unit(
    site: str,
    scenario_name: str,
    n_days: int,
    n_slots: int,
    predictors: Tuple[str, ...],
    seed: int,
    tune_wcma: bool,
) -> List[dict]:
    """Score WCMA on one (site, scenario) cell's :class:`WCMABatch`.

    ``predictors`` is ``("wcma",)`` for the paper's parameters or empty;
    ``tune_wcma`` adds the re-tuned row.  Module-level and
    primitive-argument so process pools can pickle it; the perturbed
    trace and its batch engine are built inside the worker (the base
    trace comes from the worker's own
    :func:`~repro.experiments.common.trace_for` memo).
    """
    base = trace_for(site, n_days)
    perturbed = make_scenario(scenario_name, seed=seed).apply(base)
    batch = WCMABatch.from_trace(perturbed, n_slots)
    rows: List[dict] = []
    if predictors:
        error = mape_for_params(perturbed, n_slots, _PAPER_PARAMS, batch=batch)
        rows.append(_matrix_row(scenario_name, site, "wcma", error))
    if tune_wcma:
        sweep = grid_search(perturbed, n_slots, batch=batch)
        row = _matrix_row(
            scenario_name, site, TUNED_WCMA_LABEL, sweep.best_error
        )
        best = sweep.best
        row["tuned params"] = f"a={best.alpha:.1f} D={best.days} K={best.k}"
        rows.append(row)
    return rows


def _cell_key(
    cache,
    site: str,
    scenario_name: str,
    n_days: int,
    n_slots: int,
    predictors: Tuple[str, ...],
    seed: int,
    tune_wcma: bool,
    identity,
) -> str:
    """Cache digest of one (site, scenario) cell's pre-merge rows."""
    return cache.key(
        {
            "kind": "robustness-cell",
            "site": site,
            "scenario": scenario_name,
            "n_days": n_days,
            "n_slots": n_slots,
            "predictors": list(predictors),
            "seed": seed,
            "tune_wcma": bool(tune_wcma),
            "token": identity,
        }
    )


def _slab_unit(
    predictor: str,
    cells: Tuple[Tuple[str, str], ...],
    n_days: int,
    n_slots: int,
    seed: int,
    training: Optional[dict],
):
    """Score one predictor on many (site, scenario) cells.

    Each cell's perturbed trace becomes one column of the predictor's
    ``B``-column lock-step form
    (:func:`~repro.core.registry.make_vector_predictor`),
    fed through exactly the protocol of
    :func:`~repro.metrics.evaluate.evaluate_predictor` -- one
    ``observe`` per boundary for the whole stack, preceded by a
    ``provide_slot_mean`` for kernels that train on slot means -- then
    each column is scored independently.  Kernel columns are
    bitwise-independent, so the returned per-cell MAPEs equal each
    cell's scalar ``evaluate_predictor`` run byte-for-byte while the
    kernel steps once per boundary (and a learned kernel refits once,
    batched) instead of once per cell.  ``training`` goes to the
    learned kernels only.

    Returns ``{"mape": [...]}`` with one MAPE per cell, in ``cells``
    order.
    """
    from repro.solar.slots import SlotView

    columns = []
    for site, scenario_name in cells:
        perturbed = make_scenario(scenario_name, seed=seed).apply(
            trace_for(site, n_days)
        )
        view = SlotView.from_trace(perturbed, n_slots)
        columns.append((view.flat_starts(), view.flat_means()))
    starts = np.stack([c[0] for c in columns], axis=1)  # (T, B)
    means = np.stack([c[1] for c in columns], axis=1)

    kwargs = {} if training is None else {"training": training}
    kernel = make_vector_predictor(
        predictor, n_slots, batch_size=starts.shape[1], **kwargs
    )
    kernel.reset()
    predictions = np.empty_like(starts)
    feedback = getattr(kernel, "uses_slot_mean_feedback", False)
    for t in range(starts.shape[0]):
        if feedback and t > 0:
            kernel.provide_slot_mean(means[t - 1])
        predictions[t] = kernel.observe(starts[t].copy())

    mapes = []
    for j in range(starts.shape[1]):
        run_ = score_predictions(
            predictions=np.ascontiguousarray(predictions[:, j])[:-1],
            reference_mean=np.ascontiguousarray(means[:, j])[:-1],
            reference_next_start=np.ascontiguousarray(starts[:, j])[1:],
            n_slots=n_slots,
        )
        mapes.append(float(run_.mape))
    return {"mape": mapes}


def _slab_key(
    cache,
    predictor: str,
    cell: Tuple[str, str],
    n_days: int,
    n_slots: int,
    seed: int,
    training: Optional[dict],
    identity,
) -> str:
    """Cache digest of one stacked predictor's MAPE on one cell.

    A learned predictor (``training`` given) also folds in the full
    :class:`~repro.learn.models.TrainingConfig` and the feature-schema
    version: a hyper-parameter flip or a feature redefinition must miss
    the cache, never serve a stale learned slice.
    """
    spec = {
        "kind": "robustness-slab",
        "predictor": predictor,
        "cells": [list(cell)],
        "n_days": n_days,
        "n_slots": n_slots,
        "seed": seed,
        "token": [identity],
    }
    if training is not None:
        from repro.learn.features import FEATURE_SCHEMA_VERSION

        spec["training"] = dict(training)
        spec["feature_schema"] = int(FEATURE_SCHEMA_VERSION)
    return cache.key(spec)


def _robustness_unit(kind: str, args: tuple):
    """Executor dispatch: plain cells and slabs share one pool."""
    if kind == "cell":
        return _matrix_unit(*args)
    return _slab_unit(*args)


def _matrix_row(scenario: str, site: str, predictor: str, error: float) -> dict:
    return {
        "scenario": scenario,
        "site": site,
        "predictor": predictor,
        # Machine-friendly fraction; the displayed columns are derived.
        "mape": float(error),
        "MAPE %": round(100.0 * error, 2),
        "dMAPE vs clean (pp)": None,
        "tuned params": None,
    }


def run(
    n_days: int = DEFAULT_N_DAYS,
    sites: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    predictors: Optional[Sequence[str]] = None,
    n_slots: int = 48,
    seed: int = DEFAULT_SCENARIO_SEED,
    jobs: Optional[int] = None,
    tune_wcma: bool = True,
    backend: Optional[str] = None,
    cache=None,
    stats: Optional[list] = None,
    training=None,
) -> ExperimentResult:
    """The robustness matrix: every (scenario, site, predictor) cell.

    Parameters
    ----------
    n_days:
        Trace length; 365 matches the paper's evaluation window.
    sites:
        Site subset (None = the paper's six).
    scenarios:
        Scenario subset (None = :data:`DEFAULT_SCENARIOS`); ``clean``
        is always included as the degradation baseline.
    predictors:
        Registry predictor names (None =
        :data:`DEFAULT_MATRIX_PREDICTORS`).
    n_slots:
        Slots per day; 48 divides every site's native rate.
    seed:
        Scenario-engine seed; the whole report is a pure function of
        ``(seed, n_days, sites, scenarios, predictors, n_slots)``.
    jobs:
        Worker count (None/1 = inline; output identical).
    tune_wcma:
        Also re-tune WCMA per cell via a full
        :func:`~repro.core.optimizer.grid_search`.
    backend:
        Executor backend (:data:`repro.parallel.executor.BACKENDS`);
        ``None`` = process pool when ``jobs > 1``.
    cache:
        Optional :class:`~repro.parallel.cache.ResultCache`; finished
        cells are memoised (pre degradation fill) and an interrupted
        matrix resumes from them.
    stats:
        Optional list; the call appends its
        :class:`~repro.parallel.executor.ExecutionStats` record, in
        which every cell and every stacked (predictor, cell) result
        counts as one unit.
    training:
        Optional :class:`~repro.learn.models.TrainingConfig` (or its
        dict form) for the learned predictors; ``None`` keeps the
        package defaults.  Folded into the learned slabs' cache keys,
        so a hyper-parameter change can never serve a stale cell.
    """
    from repro.parallel.executor import execute_passes
    from repro.solar.ingest.sites import install_measured_sites, measured_specs_for

    site_list = sites_for(sites)
    scenario_list = scenarios_for(scenarios)
    predictor_list = _predictors_for(predictors)
    check_n_days(n_days, {"the robustness matrix": MIN_N_DAYS})
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    # WCMA is scored per cell on the cell's batch engine; every other
    # predictor runs column-stacked (one slab pass per predictor
    # covering its uncached cells).
    stacked = tuple(p for p in predictor_list if p != "wcma")
    cell_predictors = tuple(p for p in predictor_list if p == "wcma")
    training_dict = None
    if training is not None or any(p in _TRAINED_PREDICTORS for p in stacked):
        from repro.learn.models import TrainingConfig

        if training is None:
            training_cfg = TrainingConfig()
        elif isinstance(training, TrainingConfig):
            training_cfg = training
        else:
            training_cfg = TrainingConfig.from_dict(dict(training))
        training_dict = training_cfg.to_dict()

    cells = [(site, scenario) for site in site_list for scenario in scenario_list]
    run_cells = bool(cell_predictors) or tune_wcma
    slab_training = {
        name: training_dict if name in _TRAINED_PREDICTORS else None
        for name in stacked
    }
    # Units: one per cell (when WCMA is scored), then one per (stacked
    # predictor, cell).  A predictor's missing cells run
    # together as one slab pass; every other unit is its own pass.
    units: List[Tuple[Optional[str], Tuple[str, str]]] = []
    if run_cells:
        units.extend((None, cell) for cell in cells)
    units.extend((name, cell) for name in stacked for cell in cells)

    def passes(missing):
        grouped = []
        slabs: Dict[str, List[int]] = {}
        for i in missing:
            name, (site, scenario) = units[i]
            if name is None:
                grouped.append(([i], ("cell", (
                    site, scenario, n_days, n_slots, cell_predictors, seed,
                    tune_wcma,
                ))))
            else:
                slabs.setdefault(name, []).append(i)
        for name, members in slabs.items():
            slab_cells = tuple(units[i][1] for i in members)
            grouped.append((members, ("slab", (
                name, slab_cells, n_days, n_slots, seed, slab_training[name],
            ))))
        return grouped

    def split(output, members):
        return [{"mape": [mape]} for mape in output["mape"]]

    keys = None
    if cache is not None:
        from repro.parallel.cache import dataset_identity

        identities = {site: dataset_identity(site) for site in site_list}
        keys = [
            _cell_key(
                cache, site, scenario, n_days, n_slots, cell_predictors,
                seed, tune_wcma, identities[site],
            ) if name is None else _slab_key(
                cache, name, (site, scenario), n_days, n_slots, seed,
                slab_training[name], identities[site],
            )
            for name, (site, scenario) in units
        ]

    values, exec_stats = execute_passes(
        _robustness_unit,
        len(units),
        passes,
        split=split,
        cache=cache,
        keys=keys,
        jobs=jobs,
        backend=backend,
        initializer=install_measured_sites,
        initargs=(measured_specs_for(site_list),),
    )
    if stats is not None:
        stats.append(exec_stats)
    by_unit = dict(zip(units, values))

    # Re-interleave the slab columns into the original per-cell row
    # order (predictor_list order inside each cell, tuned WCMA last),
    # so the merged output is byte-identical to the all-per-cell path.
    rows = []
    for cell in cells:
        site, scenario = cell
        by_name: Dict[str, dict] = {}
        if run_cells:
            by_name = {row["predictor"]: row for row in by_unit[None, cell]}
        for name in predictor_list:
            if name == "wcma":
                rows.append(by_name[name])
            else:
                mape = by_unit[name, cell]["mape"][0]
                rows.append(_matrix_row(scenario, site, name, mape))
        if tune_wcma:
            rows.append(by_name[TUNED_WCMA_LABEL])

    _fill_degradation(rows)
    return ExperimentResult(
        experiment="robustness",
        title=(
            f"scenario robustness matrix: {len(scenario_list)} scenarios x "
            f"{len(site_list)} sites x "
            f"{len(predictor_list) + bool(tune_wcma)} predictors "
            f"({n_days} days, N={n_slots}, seed={seed})"
        ),
        headers=list(_MATRIX_HEADERS),
        rows=rows,
        notes=(
            "dMAPE is percentage points above the same (site, predictor) "
            "cell under the clean scenario; wcma runs the paper's "
            "(alpha=0.7, D=10, K=2), wcma-tuned re-optimises the full "
            "grid per cell."
        ),
        meta={
            "sites": site_list,
            "scenarios": scenario_list,
            "predictors": predictor_list,
            "tune_wcma": bool(tune_wcma),
            "n_days": n_days,
            "n_slots": n_slots,
            "seed": seed,
        },
    )


def _fill_degradation(rows: List[dict]) -> None:
    """Populate the Δ-vs-clean column in place (after any merge)."""
    clean: Dict[Tuple[str, str], float] = {}
    for row in rows:
        if row["scenario"] == "clean":
            clean[(row["site"], row["predictor"])] = row["mape"]
    for row in rows:
        baseline = clean.get((row["site"], row["predictor"]))
        if baseline is not None:
            row["dMAPE vs clean (pp)"] = round(
                100.0 * (row["mape"] - baseline), 2
            )


def run_fleet_robustness(
    n_days: int = 30,
    sites: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    n_slots: int = 48,
    seed: int = DEFAULT_SCENARIO_SEED,
    predictor: str = "wcma",
    controller: str = "kansal",
    capacity_joules: float = 250.0,
) -> ExperimentResult:
    """Deployment robustness: one fleet node per (site, scenario).

    Every node carries the same hardware (mote-class load, one storage
    cell, the same predictor and controller) but a *differently
    degraded* trace, and the whole heterogeneous fleet advances in
    lock-step through :func:`~repro.parallel.fleet.run_fleet_blocks`
    (inline, uncached).  The interesting output is not prediction error
    but its downstream consequence: achieved duty, downtime and wasted
    harvest per scenario.

    The fleet is a :class:`~repro.parallel.fleet.FleetPlan` with the
    scenario axis engaged: with single predictor/controller/capacity
    axes its mixed-radix enumeration makes the scenario vary fastest
    and the site slowest, so ``n_sites * n_scenarios`` nodes cover each
    (site, scenario) cell exactly once, in the row order reported here
    -- and the robustness fleet models exactly the same hardware as
    ``repro-solar fleet``.
    """
    from repro.parallel.fleet import FleetPlan, run_fleet_blocks

    site_list = sites_for(sites)
    scenario_list = scenarios_for(scenarios)
    if n_days <= 0:
        raise ValueError(f"n_days must be positive, got {n_days}")
    plan = FleetPlan(
        n_nodes=len(site_list) * len(scenario_list),
        sites=site_list,
        n_days=n_days,
        predictors=(predictor,),
        controllers=(controller,),
        capacities=(capacity_joules,),
        n_slots=n_slots,
        scenarios=scenario_list,
        scenario_seed=seed,
    )
    result, _ = run_fleet_blocks(plan)

    rows = []
    node = 0
    clean_downtime: Dict[str, float] = {}
    for site in site_list:
        for scenario_name in scenario_list:
            # Cross-check the assumed node order against the node's own
            # label so an axis reshuffle in build_fleet_specs can never
            # silently misattribute a cell.
            expected_prefix = f"{site.lower()}-{scenario_name}-"
            if not result.node_names[node].startswith(expected_prefix):
                raise RuntimeError(
                    f"fleet spec order mismatch: node {node} is "
                    f"{result.node_names[node]!r}, expected a "
                    f"{expected_prefix!r} node -- build_fleet_specs "
                    "axis order changed"
                )
            downtime = float(result.downtime_fraction[node])
            if scenario_name == "clean":
                clean_downtime[site] = downtime
            rows.append(
                {
                    "scenario": scenario_name,
                    "site": site,
                    "mean duty %": round(100.0 * float(result.mean_duty[node]), 2),
                    "downtime %": round(100.0 * downtime, 2),
                    "waste %": round(
                        100.0 * float(result.waste_fraction[node]), 2
                    ),
                    "final soc %": round(
                        100.0 * float(result.final_soc[node]), 2
                    ),
                    # Machine-friendly duplicates for summaries/tests.
                    "downtime": downtime,
                    "mean_duty": float(result.mean_duty[node]),
                }
            )
            node += 1
    for row in rows:
        baseline = clean_downtime.get(row["site"])
        row["ddowntime (pp)"] = (
            round(100.0 * (row["downtime"] - baseline), 2)
            if baseline is not None
            else None
        )
    return ExperimentResult(
        experiment="robustness-fleet",
        title=(
            f"fleet robustness: {len(site_list)} sites x "
            f"{len(scenario_list)} scenarios, one node per cell "
            f"({n_days} days, N={n_slots}, {predictor}/{controller}, "
            f"{capacity_joules:g} J)"
        ),
        headers=[
            "scenario",
            "site",
            "mean duty %",
            "downtime %",
            "ddowntime (pp)",
            "waste %",
            "final soc %",
        ],
        rows=rows,
        notes=(
            "Each row is one lock-step fleet node running the scenario's "
            "degraded trace; ddowntime is percentage points of downtime "
            "above the same site's clean node."
        ),
        meta={
            "sites": site_list,
            "scenarios": scenario_list,
            "predictor": predictor,
            "controller": controller,
            "n_days": n_days,
            "n_slots": n_slots,
            "seed": seed,
            "n_nodes": result.n_nodes,
        },
    )
