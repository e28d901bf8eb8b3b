"""Command-line front-end: regenerate the paper's tables and figures.

Examples
--------

Run everything at full fidelity (the paper's 365-day setup)::

    repro-solar run-all

Quick look at one experiment on shorter traces::

    repro-solar run table3 --days 120 --sites PFCI NPCS

Export a synthetic trace for external tooling::

    repro-solar export-trace PFCI --days 30 --out pfci.csv

Score every predictor against degraded traces (scenario engine)::

    repro-solar robustness --days 120 --scenarios clean dropout regime-shift --jobs 4

Ingest a raw measured NREL-MIDC-shaped CSV (quality flags + cleaning)::

    repro-solar ingest midc_download.csv --resolution 5 --out clean.csv

Run the robustness matrix over a measured trace::

    repro-solar robustness --trace midc_download.csv --scenarios dropout
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.experiments.fleet import CONTROLLER_KINDS
from repro.experiments.runner import EXPERIMENTS, render_report, run_all, trace_needs
from repro.metrics.roi import EmptyRegionError
from repro.solar.datasets import available_datasets, build_dataset
from repro.solar.io import write_csv
from repro.solar.scenarios import DEFAULT_SCENARIO_SEED, available_scenarios

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (clear error, no traceback)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite, strictly positive float (e.g. a capacity)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for seeds: ``numpy.random.SeedSequence`` rejects
    negative entropy, so catch it at the parser instead of a traceback."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-solar",
        description=(
            "Reproduction of 'Evaluation and Design Exploration of Solar "
            "Harvested-Energy Prediction Algorithm' (DATE 2010)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_all_p = sub.add_parser("run-all", help="run every table/figure")
    _add_run_options(run_all_p)

    run_p = sub.add_parser("run", help="run selected experiments")
    run_p.add_argument(
        "experiments",
        nargs="+",
        choices=EXPERIMENTS,
        help="experiment ids to run",
    )
    _add_run_options(run_p)

    export_p = sub.add_parser("export-trace", help="write a synthetic trace CSV")
    export_p.add_argument("site", choices=available_datasets())
    export_p.add_argument("--days", type=_positive_int, default=365)
    export_p.add_argument("--seed", type=_non_negative_int, default=None)
    export_p.add_argument("--out", required=True, help="output CSV path")

    ingest_p = sub.add_parser(
        "ingest",
        help="ingest a raw measured (NREL-MIDC-shaped) CSV: quality report + cleaning",
    )
    ingest_p.add_argument("csv", help="path to the raw measurement CSV")
    ingest_p.add_argument(
        "--channel",
        default=None,
        help="channel header to ingest (default: the first GLOBAL channel)",
    )
    ingest_p.add_argument(
        "--resolution",
        type=_positive_int,
        default=None,
        metavar="MINUTES",
        help="resample to this resolution (default: the file's native grid)",
    )
    ingest_p.add_argument(
        "--name", default=None, help="site label (default: from the file name)"
    )
    ingest_p.add_argument(
        "--out", default=None, help="write the cleaned trace as a repro-solar CSV"
    )

    tune_p = sub.add_parser(
        "tune", help="exhaustive (alpha, D, K) sweep on a site or trace CSV"
    )
    _add_trace_source(tune_p)
    tune_p.add_argument("--n", type=_positive_int, default=48, help="slots per day")
    tune_p.add_argument(
        "--objective", choices=("mape", "mape_prime"), default="mape"
    )

    compare_p = sub.add_parser(
        "compare", help="score every registered predictor on a site or CSV"
    )
    _add_trace_source(compare_p)
    compare_p.add_argument("--n", type=_positive_int, default=48, help="slots per day")

    summarize_p = sub.add_parser(
        "summarize", help="detailed error diagnostics for one predictor"
    )
    _add_trace_source(summarize_p)
    summarize_p.add_argument("--n", type=_positive_int, default=48, help="slots per day")
    summarize_p.add_argument("--predictor", default="wcma")

    learn_p = sub.add_parser(
        "learn",
        help="train learned-tier artifacts and score them on held-out days",
    )
    learn_p.add_argument(
        "--days", type=_positive_int, default=45, help="trace length in days (default 45)"
    )
    learn_p.add_argument(
        "--sites",
        nargs="+",
        default=None,
        metavar="SITE",
        help="sites to train on (default PFCI HSU)",
    )
    learn_p.add_argument(
        "--models",
        nargs="+",
        default=None,
        choices=("ridge", "gbm"),
        metavar="KIND",
        help="model kinds to fit (default: ridge gbm)",
    )
    learn_p.add_argument(
        "--train-days",
        type=_positive_int,
        default=None,
        metavar="DAYS",
        help="days reserved for training (default 30); scoring starts after",
    )
    learn_p.add_argument("--n", type=_positive_int, default=48, help="slots per day")
    learn_p.add_argument(
        "--seed", type=_non_negative_int, default=0, help="training seed"
    )
    learn_p.add_argument(
        "--model-dir",
        default=None,
        metavar="PATH",
        help="persist the fitted artifacts here (for serve --model-dir)",
    )

    fleet_p = sub.add_parser(
        "fleet",
        help="simulate a heterogeneous node fleet in lock-step",
    )
    fleet_p.add_argument(
        "--nodes", type=_positive_int, default=64, help="fleet size (default 64)"
    )
    fleet_p.add_argument(
        "--sites",
        nargs="+",
        default=["SPMD"],
        metavar="SITE",
        help="sites cycled across the fleet (default SPMD)",
    )
    fleet_p.add_argument(
        "--days", type=_positive_int, default=30, help="trace length in days (default 30)"
    )
    fleet_p.add_argument("--n", type=_positive_int, default=48, help="slots per day")
    fleet_p.add_argument(
        "--predictors",
        nargs="+",
        default=["wcma", "ewma", "persistence"],
        metavar="NAME",
        help="registry predictor names cycled across the fleet",
    )
    fleet_p.add_argument(
        "--controllers",
        nargs="+",
        default=["kansal"],
        choices=CONTROLLER_KINDS,
        metavar="KIND",
        help="controller kinds cycled across the fleet (default kansal)",
    )
    fleet_p.add_argument(
        "--capacities",
        nargs="+",
        type=_positive_float,
        default=[250.0],
        metavar="JOULES",
        help="storage capacities cycled across the fleet (default 250 J)",
    )
    fleet_p.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        choices=available_scenarios(),
        metavar="NAME",
        help="trace-degradation scenarios cycled across the fleet",
    )
    fleet_p.add_argument(
        "--scenario-seed",
        type=_non_negative_int,
        default=DEFAULT_SCENARIO_SEED,
        help="seed of the scenario engine (with --scenarios)",
    )

    rob_p = sub.add_parser(
        "robustness",
        help="scenario robustness matrix: degraded traces x sites x predictors",
    )
    rob_p.add_argument(
        "--days", type=_positive_int, default=365, help="trace length in days (default 365)"
    )
    rob_p.add_argument(
        "--sites",
        nargs="+",
        default=None,
        metavar="SITE",
        help="restrict to these sites (default: the paper's six)",
    )
    rob_p.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        choices=available_scenarios(),
        metavar="NAME",
        help=(
            "scenario subset (default: the built-in matrix; 'clean' is "
            "always included as the baseline)"
        ),
    )
    rob_p.add_argument(
        "--predictors",
        nargs="+",
        default=None,
        metavar="NAME",
        help="registry predictors to score (default: wcma ewma persistence)",
    )
    rob_p.add_argument("--n", type=_positive_int, default=48, help="slots per day")
    rob_p.add_argument(
        "--seed",
        type=_non_negative_int,
        default=DEFAULT_SCENARIO_SEED,
        help="scenario-engine seed (the whole report is a function of it)",
    )
    rob_p.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes, one (site, scenario) cell per unit",
    )
    rob_p.add_argument(
        "--no-tune",
        action="store_true",
        help="skip the per-cell WCMA grid-search (wcma-tuned rows)",
    )
    rob_p.add_argument(
        "--no-fleet",
        action="store_true",
        help="skip the fleet-robustness table (one node per cell)",
    )
    rob_p.add_argument(
        "--fleet-days",
        type=_positive_int,
        default=30,
        metavar="DAYS",
        help="trace length of the fleet-robustness table (default 30)",
    )
    rob_p.add_argument(
        "--trace",
        default=None,
        metavar="CSV",
        help=(
            "ingest this raw measured CSV and add it to the matrix as a "
            "site (alone unless --sites adds synthetic ones); also runs "
            "its replayed-defects scenario as a second matrix"
        ),
    )
    rob_p.add_argument(
        "--trace-channel",
        default=None,
        metavar="NAME",
        help="channel of the --trace CSV (default: the first GLOBAL channel)",
    )
    rob_p.add_argument(
        "--trace-resolution",
        type=_positive_int,
        default=None,
        metavar="MINUTES",
        help="resample the --trace CSV to this resolution",
    )

    _add_cache_options(rob_p)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cache_info_p = cache_sub.add_parser(
        "info", help="entry count and size of the result cache"
    )
    cache_info_p.add_argument(
        "--dir", default=None, metavar="PATH",
        help="cache directory (default: $REPRO_SOLAR_CACHE_DIR or "
             "~/.cache/repro-solar)",
    )
    cache_clear_p = cache_sub.add_parser(
        "clear", help="remove every cached result"
    )
    cache_clear_p.add_argument(
        "--dir", default=None, metavar="PATH",
        help="cache directory (default: $REPRO_SOLAR_CACHE_DIR or "
             "~/.cache/repro-solar)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="forecast daemon: JSONL queries on stdin (or --http PORT)",
    )
    serve_p.add_argument(
        "--n", type=_positive_int, default=48, help="slots per day"
    )
    serve_p.add_argument(
        "--predictor", default="wcma", help="registry predictor instantiated per site"
    )
    serve_p.add_argument(
        "--state-dir",
        default=None,
        metavar="PATH",
        help="checkpoint predictor state here (enables resume on restart)",
    )
    serve_p.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=1,
        metavar="SLOTS",
        help="observed slots between automatic state flushes (default 1)",
    )
    serve_p.add_argument(
        "--trace",
        default=None,
        metavar="CSV",
        help="register this raw measured CSV as a queryable site",
    )
    serve_p.add_argument(
        "--trace-channel",
        default=None,
        metavar="NAME",
        help="channel of the --trace CSV (default: the first GLOBAL channel)",
    )
    serve_p.add_argument(
        "--trace-resolution",
        type=_positive_int,
        default=None,
        metavar="MINUTES",
        help="resample the --trace CSV to this resolution",
    )
    serve_p.add_argument(
        "--http",
        type=_non_negative_int,
        default=None,
        metavar="PORT",
        help="serve HTTP on this port instead of stdin JSONL (0 = auto-pick)",
    )
    serve_p.add_argument(
        "--model-dir",
        default=None,
        metavar="PATH",
        help=(
            "load learned-tier artifacts from here: a site registering "
            "with a stored (site, predictor) artifact serves it frozen"
        ),
    )

    plot_p = sub.add_parser("plot", help="render a figure as a text chart")
    plot_p.add_argument("figure", choices=("fig2", "fig7"))
    plot_p.add_argument("--days", type=_positive_int, default=365)
    plot_p.add_argument("--site", default="SPMD", help="site for fig2")
    plot_p.add_argument(
        "--sites", nargs="+", default=None, metavar="SITE", help="sites for fig7"
    )

    sub.add_parser("list", help="list experiments and data sets")
    return parser


def _add_trace_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--site", choices=available_datasets())
    source.add_argument("--trace", help="path to a repro-solar-trace CSV")
    parser.add_argument(
        "--days", type=_positive_int, default=365, help="synthetic trace length (with --site)"
    )


def _load_trace(args):
    """The ``--site`` trace, or the ``--trace`` CSV once checked to be
    long enough to score and divisible into ``--n`` slots (its length
    and rate are only known after reading it)."""
    if args.trace is None:
        return build_dataset(args.site, n_days=args.days)
    from repro.experiments.common import MIN_SWEEP_N_DAYS, check_n_days
    from repro.solar.io import read_csv

    trace = read_csv(args.trace)
    check_n_days(trace.n_days, {args.command: MIN_SWEEP_N_DAYS})
    if trace.samples_per_day % args.n:
        raise ValueError(
            f"N={args.n} does not divide samples per day "
            f"({trace.samples_per_day}) of trace {trace.name!r}"
        )
    return trace


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--days", type=_positive_int, default=365, help="trace length in days (default 365)"
    )
    parser.add_argument(
        "--sites",
        nargs="+",
        default=None,
        metavar="SITE",
        help="restrict to these sites (default: the paper's six)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the experiment runner; each worker "
            "handles independent (experiment, site) units with its own "
            "trace/batch caches (default: sequential)"
        ),
    )
    _add_cache_options(parser)


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("process", "thread"),
        default=None,
        help="pool flavour with --jobs (default: process)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this run",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result-cache directory (default: $REPRO_SOLAR_CACHE_DIR "
             "or ~/.cache/repro-solar)",
    )


def _cache_from_args(args):
    """The run's :class:`~repro.parallel.cache.ResultCache` (or None)."""
    if getattr(args, "no_cache", False):
        return None
    from repro.parallel.cache import ResultCache, default_cache_dir

    root = getattr(args, "cache_dir", None)
    return ResultCache(root if root else default_cache_dir())


def _print_exec_stats(stats_list, cache) -> None:
    """One machine-greppable status line per executor call (stderr)."""
    for s in stats_list:
        line = (
            f"[parallel] backend={s.backend} jobs={s.jobs} "
            f"units={s.n_units} chunk={s.chunk_size}"
        )
        if cache is not None:
            line += f" cache-hits={s.cache_hits} cache-misses={s.cache_misses}"
        line += f" elapsed={s.elapsed_s:.2f}s"
        print(line, file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Argument *shape* errors (unknown subcommand, bad choices,
    non-positive ``--jobs``) exit through argparse with status 2;
    unknown site/predictor names are rejected by :func:`_validate_names`
    before any work starts, printed as one clear ``error:`` line, also
    with status 2.  Past validation, only one library error is caught:
    :class:`~repro.metrics.roi.EmptyRegionError`, a trace whose scored
    days all sit below the region-of-interest threshold (a property of
    the data, e.g. a short run whose last days are overcast), printed
    as one ``error:`` line suggesting a longer ``--days``, status 2.
    Every other library error still tracebacks, so a bug is never
    masked as a configuration mistake.
    """
    args = build_parser().parse_args(argv)
    try:
        _validate_names(args)
    except ValueError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except EmptyRegionError as exc:
        print(f"error: {exc} (try a longer --days)", file=sys.stderr)
        return 2


def _validate_names(args) -> None:
    """Reject unknown site/predictor names, bad (site, N) pairs and short traces.

    Scenario and experiment names are already constrained by argparse
    ``choices`` and the size options by :func:`_positive_int`; sites,
    registry predictor names, N-vs-site divisibility and a ``--days``
    shorter than the selected experiments can score are checked here,
    eagerly, against the same validators the library uses -- for
    ``serve``, by constructing the service, which also refuses
    predictors it cannot checkpoint.
    """
    from repro.core.registry import available_predictors
    from repro.experiments.common import MIN_SWEEP_N_DAYS, check_n_days, sites_for
    from repro.solar.datasets import samples_per_day_for

    sites = getattr(args, "sites", None)
    if sites:
        sites_for(sites)
    site = getattr(args, "site", None)
    if site is not None and site.upper() not in available_datasets():
        raise ValueError(
            f"unknown site {site!r}; available: {', '.join(available_datasets())}"
        )
    known = available_predictors()
    predictor = getattr(args, "predictor", None)
    if predictor is not None and predictor.lower() not in known:
        raise ValueError(
            f"unknown predictor {predictor!r}; available: {', '.join(known)}"
        )
    predictors = getattr(args, "predictors", None)
    if predictors:
        unknown = [p for p in predictors if p.lower() not in known]
        if unknown:
            raise ValueError(
                f"unknown predictors: {unknown}; available: {known}"
            )
    command = getattr(args, "command", None)
    if command == "serve":
        from repro.serve import ForecastService

        ForecastService(n_slots=args.n, predictor=args.predictor)
    if command == "run-all":
        check_n_days(args.days, trace_needs(EXPERIMENTS))
    elif command == "run":
        check_n_days(args.days, trace_needs(args.experiments))
    elif command == "plot":
        check_n_days(args.days, trace_needs((args.figure,)))
    elif command == "robustness":
        from repro.experiments.robustness import MIN_N_DAYS

        check_n_days(args.days, {"the robustness matrix": MIN_N_DAYS})
    elif command in ("tune", "compare", "summarize") and site is not None:
        check_n_days(args.days, {command: MIN_SWEEP_N_DAYS})
    n_slots = getattr(args, "n", None)
    if n_slots is not None:
        if site is not None:
            check_sites = (site.upper(),)
        elif sites:
            check_sites = tuple(s.upper() for s in sites)
        elif command == "robustness":
            if getattr(args, "trace", None) is not None:
                # A --trace run without --sites contains only the
                # measured site, whose N check happens after ingestion
                # in the dispatch; the synthetic six are not involved.
                check_sites = ()
            else:
                # The default run covers exactly the synthetic six
                # (sites_for(None)); a measured site registered
                # elsewhere in the process must not veto an N it will
                # never see.
                from repro.solar.sites import SITE_ORDER

                check_sites = SITE_ORDER
        else:
            check_sites = ()
        for name in check_sites:
            spd = samples_per_day_for(name)
            if spd % n_slots:
                raise ValueError(
                    f"N={n_slots} does not divide samples per day "
                    f"({spd}) of site {name}"
                )


def _dispatch(args) -> int:
    if args.command == "cache":
        from repro.parallel.cache import ResultCache, default_cache_dir

        cache = ResultCache(args.dir if args.dir else default_cache_dir())
        try:
            if args.cache_command == "info":
                info = cache.info()
                print(f"cache root: {info['root']}")
                print(f"salt:       {info['salt']}")
                print(f"entries:    {info['entries']}")
                print(f"size:       {info['bytes']:,} bytes")
            else:
                removed = cache.clear()
                print(f"removed {removed} entries from {cache.root}")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "list":
        print("experiments:", ", ".join(EXPERIMENTS))
        print("data sets:  ", ", ".join(available_datasets()))
        print("scenarios:  ", ", ".join(available_scenarios()))
        return 0

    if args.command == "export-trace":
        trace = build_dataset(args.site, n_days=args.days, seed=args.seed)
        write_csv(trace, args.out)
        print(f"wrote {trace.n_samples} samples ({trace.n_days} days) to {args.out}")
        return 0

    if args.command == "ingest":
        from repro.metrics import format_quality_summary, summarise_quality
        from repro.solar.ingest import format_ingest_report, ingest_csv

        try:
            result = ingest_csv(
                args.csv,
                channel=args.channel,
                resolution_minutes=args.resolution,
                name=args.name,
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_ingest_report(result))
        print()
        print(format_quality_summary(summarise_quality(result.report)))
        if args.out:
            write_csv(result.clean, args.out)
            print(
                f"wrote cleaned trace ({result.clean.n_samples} samples, "
                f"{result.clean.n_days} days) to {args.out}"
            )
        return 0

    if args.command in ("tune", "compare", "summarize"):
        try:
            trace = _load_trace(args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "tune":
        from repro.core.optimizer import grid_search

        sweep = grid_search(trace, args.n, objective=args.objective)
        best = sweep.best
        print(
            f"best on {trace.name or 'trace'} at N={args.n} "
            f"({args.objective}): alpha={best.alpha} D={best.days} "
            f"K={best.k} -> {sweep.best_error:.2%}"
        )
        k2_params, k2_err = sweep.best_for_k(2)
        print(
            f"guideline check: K=2 best {k2_err:.2%} "
            f"(alpha={k2_params.alpha}, D={k2_params.days})"
        )
        return 0

    if args.command == "compare":
        from repro.core.registry import available_predictors, make_predictor
        from repro.metrics import evaluate_predictor

        print(f"predictor comparison on {trace.name or 'trace'} at N={args.n}:")
        scores = []
        for name in available_predictors():
            predictor = make_predictor(name, args.n)
            run = evaluate_predictor(predictor, trace, args.n)
            scores.append((run.mape, name))
        for mape_value, name in sorted(scores):
            print(f"  {name:<16} MAPE {mape_value:7.2%}")
        return 0

    if args.command == "summarize":
        from repro.core.registry import make_predictor
        from repro.metrics import evaluate_predictor, format_summary, summarise

        predictor = make_predictor(args.predictor, args.n)
        run = evaluate_predictor(predictor, trace, args.n)
        print(f"{args.predictor} on {trace.name or 'trace'} at N={args.n}:")
        print(format_summary(summarise(run)))
        return 0

    if args.command == "learn":
        from repro.experiments.learn import DEFAULT_TRAIN_DAYS
        from repro.experiments.learn import run as run_learn

        train_days = (
            args.train_days if args.train_days is not None else DEFAULT_TRAIN_DAYS
        )
        try:
            result = run_learn(
                n_days=args.days,
                sites=args.sites,
                models=tuple(args.models) if args.models else ("ridge", "gbm"),
                train_days=train_days,
                n_slots=args.n,
                seed=args.seed,
                store_dir=args.model_dir,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.render())
        if args.model_dir is not None:
            print(f"artifacts written to {args.model_dir}")
        return 0

    if args.command == "fleet":
        from repro.experiments.fleet import fleet_result_table
        from repro.metrics import format_fleet_summary, summarise_fleet
        from repro.parallel.fleet import FleetPlan, run_fleet_blocks

        plan = FleetPlan(
            n_nodes=args.nodes,
            sites=tuple(args.sites),
            n_days=args.days,
            predictors=tuple(args.predictors),
            controllers=tuple(args.controllers),
            capacities=tuple(args.capacities),
            n_slots=args.n,
            scenarios=tuple(args.scenarios) if args.scenarios else None,
            scenario_seed=args.scenario_seed,
        )
        aggregate, stats = run_fleet_blocks(plan)
        print(fleet_result_table(aggregate, plan).render())
        print()
        print(format_fleet_summary(summarise_fleet(aggregate)))
        node_slots = aggregate.n_nodes * aggregate.total_slots
        print(
            f"throughput: {node_slots:,} node-slots in {stats.elapsed_s:.2f}s "
            f"({node_slots / stats.elapsed_s:,.0f} node-slots/sec)"
        )
        return 0

    if args.command == "robustness":
        from repro.experiments.common import check_n_days
        from repro.experiments.robustness import MIN_N_DAYS
        from repro.experiments.robustness import run as run_robustness
        from repro.experiments.robustness import run_fleet_robustness
        from repro.metrics import format_robustness_summary, summarise_robustness

        sites = args.sites
        days = args.days
        fleet_days = args.fleet_days
        measured = None
        if args.trace is not None:
            from repro.solar.ingest.sites import register_measured_site

            try:
                measured = register_measured_site(
                    args.trace,
                    channel=args.trace_channel,
                    resolution_minutes=args.trace_resolution,
                    overwrite=True,
                )
                if measured.samples_per_day % args.n:
                    raise ValueError(
                        f"N={args.n} does not divide samples per day "
                        f"({measured.samples_per_day}) of trace "
                        f"{measured.name}"
                    )
                check_n_days(
                    min(days, measured.n_days),
                    {"the robustness matrix": MIN_N_DAYS},
                )
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            sites = list(args.sites or []) + [measured.name]
            if days > measured.n_days:
                print(
                    f"note: trace {measured.name} has {measured.n_days} "
                    f"days; running the matrix at {measured.n_days} days",
                    file=sys.stderr,
                )
                days = measured.n_days
            fleet_days = min(fleet_days, measured.n_days)

        cache = _cache_from_args(args)
        stats: List = []
        try:
            result = run_robustness(
                n_days=days,
                sites=sites,
                scenarios=args.scenarios,
                predictors=args.predictors,
                n_slots=args.n,
                seed=args.seed,
                jobs=args.jobs,
                tune_wcma=not args.no_tune,
                backend=args.backend,
                cache=cache,
                stats=stats,
            )
            print(result.render())
            print()
            summary_predictor = result.meta["predictors"][0]
            print(
                format_robustness_summary(
                    summarise_robustness(result.rows, predictor=summary_predictor)
                )
            )
            if not args.no_fleet:
                fleet_result = run_fleet_robustness(
                    n_days=fleet_days,
                    sites=sites,
                    scenarios=args.scenarios,
                    n_slots=args.n,
                    seed=args.seed,
                )
                print()
                print(fleet_result.render())
            if measured is not None:
                # The measured trace's own defects as a matrix: the
                # cleaned trace under its replayed-defects scenario, via
                # exactly the same code path as the synthetic
                # degradations.  Full trace length -- the replay masks
                # are geometry-bound.
                replay_result = run_robustness(
                    n_days=measured.n_days,
                    sites=(measured.name,),
                    scenarios=("clean", measured.defects_scenario_name),
                    predictors=args.predictors,
                    n_slots=args.n,
                    seed=args.seed,
                    jobs=args.jobs,
                    tune_wcma=not args.no_tune,
                    backend=args.backend,
                    cache=cache,
                    stats=stats,
                )
                print()
                print(replay_result.render())
            _print_exec_stats(stats, cache)
        finally:
            if measured is not None:
                # The registration was a per-invocation side effect;
                # drop it (even on error) so repeated in-process main()
                # calls start clean.
                from repro.solar.ingest.sites import unregister_measured_site

                unregister_measured_site(measured.name)
        return 0

    if args.command == "serve":
        from repro.serve import ForecastService, serve_http, serve_stdin

        measured = None
        if args.trace is not None:
            from repro.solar.ingest.sites import register_measured_site

            try:
                measured = register_measured_site(
                    args.trace,
                    channel=args.trace_channel,
                    resolution_minutes=args.trace_resolution,
                    overwrite=True,
                )
                if measured.samples_per_day % args.n:
                    raise ValueError(
                        f"N={args.n} does not divide samples per day "
                        f"({measured.samples_per_day}) of trace "
                        f"{measured.name}"
                    )
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        try:
            service = ForecastService(
                n_slots=args.n,
                predictor=args.predictor,
                state_dir=args.state_dir,
                checkpoint_every=args.checkpoint_every,
                model_dir=args.model_dir,
            )
            if args.http is not None:
                return serve_http(service, port=args.http)
            return serve_stdin(service)
        finally:
            if measured is not None:
                from repro.solar.ingest.sites import unregister_measured_site

                unregister_measured_site(measured.name)

    if args.command == "plot":
        from repro.plotting import render_fig2, render_fig7

        if args.figure == "fig2":
            print(render_fig2(n_days=args.days, site=args.site.upper()))
        else:
            print(render_fig7(n_days=args.days, sites=args.sites))
        return 0

    only = None if args.command == "run-all" else args.experiments
    cache = _cache_from_args(args)
    stats: List = []
    results = run_all(
        n_days=args.days,
        sites=args.sites,
        only=only,
        jobs=args.jobs,
        backend=args.backend,
        cache=cache,
        stats=stats,
    )
    print(render_report(results))
    _print_exec_stats(stats, cache)
    return 0


if __name__ == "__main__":
    sys.exit(main())
