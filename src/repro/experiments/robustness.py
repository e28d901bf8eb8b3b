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
  grid search runs through :func:`~repro.core.optimizer.sweep_many`
  against the same batch caches.  The ``clean`` scenario is always
  included so every row carries its degradation against the clean
  baseline of the same (site, predictor).
* :func:`run_fleet_robustness` -- the deployment view: one fleet node
  per (site, scenario) pair, every node holding a differently-degraded
  trace, stepped in lock-step by the
  :class:`~repro.management.fleet.FleetSimulator` -- heterogeneous
  per-node scenarios are exactly what the fleet engine's grouping was
  built for.  Reports duty/downtime/waste per cell.

Parallel execution mirrors :mod:`repro.experiments.runner`: the unit of
work is one (site, scenario) cell -- except for the kernel-backed
predictors (:data:`STACKED_MATRIX_PREDICTORS`), whose cells run
*column-stacked* as one B-column kernel slab per predictor -- units are
independent by construction, workers own private trace caches, and both
kinds of unit run through the shared executor
(:func:`repro.parallel.executor.execute_units`), so the merged output
is byte-identical at any ``jobs``/``backend`` (the degradation column
is computed *after* the merge in every path).  Everything is seeded
through the scenario engine, so the same seed produces the same report.

With a :class:`~repro.parallel.cache.ResultCache`, each cell's rows are
memoised under a digest of (site, scenario, n_days, n_slots,
predictors, seed, tune_wcma, dataset identity, code salt) *before* the
degradation fill -- an interrupted matrix resumes from its finished
cells and only recomputes the missing ones.  A stacked predictor is
cached cell by cell too: only its missing cells form the slab, whose
payload is stored under the key of exactly that cell set as soon as it
completes and then split into one-cell entries, so a resumed matrix
re-runs new cells, never finished slabs.  The learned predictors' keys
additionally fold in the full training config and the feature-schema
version, so a hyper-parameter flip or feature redefinition re-runs the
learned slice instead of serving it stale.

Measured sites (:mod:`repro.solar.ingest.sites`) flow through both
harnesses by name like the synthetic six -- including their
``<name>-defects`` replay scenarios -- and their picklable specs are
re-installed in pool workers via the
:func:`~repro.experiments.common.warm_worker` initializer, so the
parallel path works under any multiprocessing start method.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.optimizer import SweepSpec, mape_for_params, sweep_many
from repro.core.registry import available_predictors, make_predictor
from repro.core.wcma import WCMABatch, WCMAParams
from repro.experiments.common import (
    DEFAULT_N_DAYS,
    ExperimentResult,
    sites_for,
    trace_for,
)
from repro.metrics.evaluate import evaluate_predictor, score_predictions
from repro.solar.scenarios import (
    DEFAULT_SCENARIO_SEED,
    available_scenarios,
    make_scenario,
)

__all__ = [
    "DEFAULT_SCENARIOS",
    "DEFAULT_MATRIX_PREDICTORS",
    "LEARNED_MATRIX_PREDICTORS",
    "STACKED_MATRIX_PREDICTORS",
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

#: Predictors the matrix evaluates *column-stacked*: every (site,
#: scenario) cell becomes one column of a single B-column run of the
#: predictor's vector kernel, so e.g. the learned slice advances
#: lock-step through one batched refit per fit day instead of
#: ``n_cells`` scalar ones, and no baseline pays its scalar face's
#: per-observe overhead once per cell.  Columns are bitwise
#: independent (:class:`~repro.core.base.VectorPredictor`) and the
#: scalar predictors are the kernels' ``B == 1`` faces, so stacked cells
#: reproduce the per-cell path byte-for-byte.  WCMA stays per-cell on
#: the shared :class:`~repro.core.wcma.WCMABatch` (the sweep needs it
#: anyway); the adaptive selectors and the other scalar-only
#: predictors have no lock-step form across cells.
STACKED_MATRIX_PREDICTORS = (
    "ewma",
    "persistence",
    "previous-day",
    "moving-average",
    "ridge",
    "gbm",
)

#: Stacked predictors whose kernels take a ``training=`` config.
_TRAINED_PREDICTORS = ("ridge", "gbm")

#: Row label of the re-tuned WCMA (full grid search per cell).
TUNED_WCMA_LABEL = "wcma-tuned"

#: Paper-recommended operating point (Section IV-B).
_PAPER_PARAMS = WCMAParams(alpha=0.7, days=10, k=2)

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
    """Score every predictor on one (site, scenario) cell.

    Module-level and primitive-argument so process pools can pickle it;
    the perturbed trace and its batch engine are built inside the
    worker (the base trace comes from the worker's own
    :func:`~repro.experiments.common.trace_for` memo).
    """
    base = trace_for(site, n_days)
    perturbed = make_scenario(scenario_name, seed=seed).apply(base)
    # The batch engine only serves the WCMA paths; a baselines-only
    # matrix should not pay for its prefix-sum caches.
    batch = None
    if tune_wcma or "wcma" in predictors:
        batch = WCMABatch.from_trace(perturbed, n_slots)
    rows: List[dict] = []
    for name in predictors:
        if name == "wcma":
            error = mape_for_params(
                perturbed, n_slots, _PAPER_PARAMS, batch=batch
            )
        else:
            run_ = evaluate_predictor(
                make_predictor(name, n_slots), perturbed, n_slots
            )
            error = run_.mape
        rows.append(_matrix_row(scenario_name, site, name, error))
    if tune_wcma:
        sweep = sweep_many(
            [SweepSpec(perturbed, n_slots, "mape", batch=batch)]
        )[0]
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
) -> dict:
    """Score one kernel-backed predictor on many (site, scenario) cells.

    Each cell's perturbed trace becomes one column of a ``B``-column
    vector kernel (:func:`~repro.core.registry.make_vector_predictor`),
    fed through exactly the protocol of
    :func:`~repro.metrics.evaluate.evaluate_predictor` -- one
    ``observe`` per boundary for the whole stack, preceded by a
    ``provide_slot_mean`` for kernels that train on slot means -- then
    each column is scored independently.  Kernel columns are
    bitwise-independent, so the returned per-cell MAPEs equal the
    per-cell scalar path's byte-for-byte while the kernel steps once per
    boundary (and a learned kernel refits once, batched) instead of
    once per cell.  ``training`` goes to the learned kernels only.

    Returns ``{"mape": [...]}`` with one MAPE per cell, in ``cells``
    order, plus the kernel's cumulative features/refit/predict
    ``"stage_seconds"`` when it reports them.
    """
    from repro.core.registry import make_vector_predictor
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
    if getattr(kernel, "uses_slot_mean_feedback", False):
        for t in range(starts.shape[0]):
            if t > 0:
                kernel.provide_slot_mean(means[t - 1])
            predictions[t] = kernel.observe(starts[t].copy())
    else:
        for t in range(starts.shape[0]):
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
    output = {"mape": mapes}
    stages = getattr(kernel, "stage_seconds", None)
    if stages:
        output["stage_seconds"] = dict(stages)
    return output


def _slab_key(
    cache,
    predictor: str,
    cells: Sequence[Tuple[str, str]],
    n_days: int,
    n_slots: int,
    seed: int,
    training: Optional[dict],
    identities,
) -> str:
    """Cache digest of one stacked predictor's slab over ``cells``.

    A one-cell key addresses that cell's own entry.  A learned
    predictor (``training`` given) also folds in the full
    :class:`~repro.learn.models.TrainingConfig` and the feature-schema
    version: a hyper-parameter flip or a feature redefinition must miss
    the cache, never serve a stale learned slice.
    """
    spec = {
        "kind": "robustness-slab",
        "predictor": predictor,
        "cells": [list(cell) for cell in cells],
        "n_days": n_days,
        "n_slots": n_slots,
        "seed": seed,
        "token": [identities[site] for site, _ in cells],
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
        Also re-tune WCMA per cell via a full grid search through
        :func:`~repro.core.optimizer.sweep_many`.
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
        which each stacked (predictor, cell) result served from the
        cache counts as one unit and one hit.
    training:
        Optional :class:`~repro.learn.models.TrainingConfig` (or its
        dict form) for the learned predictors; ``None`` keeps the
        package defaults.  Folded into the learned slabs' cache keys,
        so a hyper-parameter change can never serve a stale cell.
    """
    from repro.parallel.executor import execute_units

    site_list = sites_for(sites)
    scenario_list = scenarios_for(scenarios)
    predictor_list = _predictors_for(predictors)
    if n_days <= 0:
        raise ValueError(f"n_days must be positive, got {n_days}")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    # The kernel-backed predictors run column-stacked (one slab unit per
    # predictor covering its uncached cells); everything else stays
    # per-cell.
    stacked = tuple(p for p in predictor_list if p in STACKED_MATRIX_PREDICTORS)
    cell_predictors = tuple(p for p in predictor_list if p not in stacked)
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
    units: List[tuple] = []
    if run_cells:
        units.extend(
            ("cell", (site, scenario, n_days, n_slots, cell_predictors,
                      seed, tune_wcma))
            for site, scenario in cells
        )
    slab_training = {
        name: training_dict if name in _TRAINED_PREDICTORS else None
        for name in stacked
    }

    # Stacked results are cached per (predictor, cell); the cells still
    # missing run together as one slab unit per predictor.
    stacked_mapes: Dict[str, Dict[Tuple[str, str], float]] = {
        name: {} for name in stacked
    }
    keys = None
    cached_cells = 0
    if cache is not None:
        from repro.parallel.cache import MISS, dataset_identity

        identities = {site: dataset_identity(site) for site in site_list}

        def slab_key(name, slab_cells):
            return _slab_key(
                cache, name, slab_cells, n_days, n_slots, seed,
                slab_training[name], identities,
            )

        keys = []
        if run_cells:
            keys.extend(
                _cell_key(
                    cache, site, scenario, n_days, n_slots, cell_predictors,
                    seed, tune_wcma, identities[site],
                )
                for site, scenario in cells
            )
        for name in stacked:
            for cell in cells:
                value = cache.get(slab_key(name, (cell,)))
                if value is not MISS:
                    stacked_mapes[name][cell] = value["mape"][0]
                    cached_cells += 1
    slabs = []
    for name in stacked:
        missing = tuple(cell for cell in cells if cell not in stacked_mapes[name])
        if missing:
            slabs.append((name, missing))
            units.append(
                ("slab", (name, missing, n_days, n_slots, seed, slab_training[name]))
            )
            if keys is not None:
                keys.append(slab_key(name, missing))

    initializer = None
    initargs = ()
    if backend != "thread":
        from repro.experiments.common import warm_worker
        from repro.solar.ingest.sites import measured_specs_for

        measured = measured_specs_for(site_list)
        if measured:
            initializer = warm_worker
            initargs = (measured,)

    outputs, exec_stats = execute_units(
        _robustness_unit,
        units,
        jobs=jobs,
        backend=backend,
        initializer=initializer,
        initargs=initargs,
        cache=cache,
        keys=keys,
    )

    n_cell_units = len(cells) if run_cells else 0
    slab_outputs = outputs[n_cell_units:]
    for (name, missing), output in zip(slabs, slab_outputs):
        for cell, mape in zip(missing, output["mape"]):
            stacked_mapes[name][cell] = mape
            if cache is not None and len(missing) > 1:
                cache.put(slab_key(name, (cell,)), {"mape": [mape]})

    # Re-interleave the slab columns into the original per-cell row
    # order (predictor_list order inside each cell, tuned WCMA last),
    # so the merged output is byte-identical to the all-per-cell path.
    rows = []
    for c, (site, scenario) in enumerate(cells):
        by_name: Dict[str, dict] = {}
        if run_cells:
            by_name = {row["predictor"]: row for row in outputs[c]}
        for name in predictor_list:
            if name in stacked_mapes:
                mape = stacked_mapes[name][site, scenario]
                rows.append(_matrix_row(scenario, site, name, mape))
            else:
                rows.append(by_name[name])
        if tune_wcma:
            rows.append(by_name[TUNED_WCMA_LABEL])

    stage_totals: Dict[str, float] = {}
    for output in slab_outputs:
        for stage, seconds in output.get("stage_seconds", {}).items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
    if stage_totals:
        exec_stats.stage_seconds = stage_totals
    # Each stacked cell served from the cache counts as one cached unit.
    exec_stats.n_units += cached_cells
    exec_stats.cache_hits += cached_cells
    if stats is not None:
        stats.append(exec_stats)

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
    lock-step through one :class:`~repro.management.fleet.FleetSimulator`.
    The interesting output is not prediction error but its downstream
    consequence: achieved duty, downtime and wasted harvest per
    scenario.

    The fleet itself comes from
    :func:`~repro.experiments.fleet.build_fleet_specs` with the
    scenario axis engaged: with single predictor/controller/capacity
    axes its mixed-radix enumeration makes the scenario vary fastest
    and the site slowest, so ``n_sites * n_scenarios`` nodes cover each
    (site, scenario) cell exactly once, in the row order reported here
    -- and the robustness fleet models exactly the same hardware as
    ``repro-solar fleet``.
    """
    from repro.experiments.fleet import build_fleet_specs
    from repro.management.fleet import FleetSimulator

    site_list = sites_for(sites)
    scenario_list = scenarios_for(scenarios)
    if n_days <= 0:
        raise ValueError(f"n_days must be positive, got {n_days}")
    specs = build_fleet_specs(
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
    result = FleetSimulator(specs, n_slots).run()

    rows = []
    node = 0
    clean_downtime: Dict[str, float] = {}
    for site in site_list:
        for scenario_name in scenario_list:
            # Cross-check the assumed node order against the spec's own
            # label so an axis reshuffle in build_fleet_specs can never
            # silently misattribute a cell.
            expected_prefix = f"{site.lower()}-{scenario_name}-"
            if not specs[node].name.startswith(expected_prefix):
                raise RuntimeError(
                    f"fleet spec order mismatch: node {node} is "
                    f"{specs[node].name!r}, expected a "
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
            "n_nodes": len(specs),
        },
    )
