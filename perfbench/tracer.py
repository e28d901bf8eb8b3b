"""Outside-in tracing: timing wrappers around the package's public calls.

Nothing here edits the package.  :func:`install` replaces each traced
function or method with a wrapper that records one span
``(name, start, end, parent)`` per call into an in-memory
:class:`Tracer`, in every module that imported the name (so
``repro.serve.service.state_digest`` and ``repro.serve.state.state_digest``
are both traced).  Hot per-sample calls -- scalar ``observe`` and
``state_dict`` -- are counted, not spanned.

Book-keeping that costs more than a counter increment (stat-ing a
written file, sizing a digested state) runs inside a ``trace.hook``
span, so it never lands in the self time of the layer that called it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.monotonic


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------
    def span(self, name, fn: Callable, before=None, after=None, hook=None) -> Callable:
        """``fn`` wrapped in a span.

        ``name`` is a string or ``name(args, kwargs)``.  ``before`` and
        ``after(result, args, kwargs)`` are cheap counter updates run
        outside the span; ``hook(result, args, kwargs)`` is costlier
        book-keeping recorded as its own ``trace.hook`` span.
        """
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        traced_hook = self.span("trace.hook", hook) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            names.append(name(args, kwargs) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            if traced_hook is not None:
                traced_hook(result, args, kwargs)
            return result

        return wrapper

    def counted(self, counter: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a bare call counter (no span)."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------
    def patch_function(self, module, attr: str, make: Callable) -> None:
        """Replace a module-level function everywhere it was imported."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, make: Callable) -> None:
        """Replace a method (plain or classmethod) defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (latest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------
    def layer_stats(self) -> Dict[str, dict]:
        """Per span name: calls, busy and self seconds.

        Busy time skips spans nested inside a span of the same name
        (``grid_search`` under ``sweep_many``), so it is wall time the
        layer was active; self time subtracts direct children.
        """
        n = len(self.names)
        child_sum = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_sum[p] += self.ends[i] - self.starts[i]
        stats: Dict[str, dict] = {}
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            entry = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["self"] += dur - child_sum[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                entry["busy"] += dur
        return stats

    def covered(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` inside at least one root span."""
        total = 0.0
        for i, parent in enumerate(self.parents):
            if parent < 0:
                lo = max(self.starts[i], t0)
                hi = min(self.ends[i], t1)
                if hi > lo:
                    total += hi - lo
        return total

    def write_jsonl(self, path) -> None:
        """One JSON object per span: id, name, start, end, parent."""
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                }) + "\n")


def _subclasses(cls):
    seen = []
    stack = [cls]
    while stack:
        current = stack.pop()
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return [cls] + seen


_SCALARS = (int, float, type(None))


def _payload_bytes(value) -> int:
    """Bytes of array data, strings and scalars in a state snapshot."""
    if isinstance(value, dict):
        return sum(len(str(k)) + _payload_bytes(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return sum(_payload_bytes(v) for v in value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, _SCALARS):
        return 8
    return int(value.nbytes)  # numpy arrays and numpy scalars


def install(tracer: Tracer) -> None:
    """Wrap every traced call of the package (see README's layer table)."""
    from repro.core import optimizer
    from repro.core.adaptive import AdaptiveSelector
    from repro.core.base import OnlinePredictor
    from repro.core.wcma import WCMABatch
    from repro.experiments import fleet as fleet_specs
    from repro.experiments import robustness, runner
    from repro.learn import models
    from repro.learn.features import FeatureState
    from repro.learn.predictor import LearnedKernel
    from repro.management.fleet import FleetSimulator
    from repro.metrics import evaluate
    from repro.parallel import executor
    from repro.parallel import fleet as parallel_fleet
    from repro.parallel.cache import MISS, ResultCache
    from repro.serve import daemon, state
    from repro.serve.service import ForecastService
    from repro.solar import datasets, synthetic
    from repro.solar.scenarios import Scenario
    from repro.solar.slots import SlotView

    counters = tracer.counters
    span = tracer.span

    def count(name, n=1):
        counters[name] += n

    # solar: synthesis, the dataset memo, slotting, scenarios
    def synth_days(args, kwargs):
        count("solar.synth_days", kwargs.get("n_days", args[1] if len(args) > 1 else 365))

    tracer.patch_function(synthetic, "generate_trace",
                          lambda f: span("solar.synth", f, before=synth_days))

    # A build_dataset call that synthesised nothing was a memo hit.
    synth_before = [0.0]

    def dataset_calls(args, kwargs):
        count("solar.dataset_calls")
        synth_before[0] = counters["solar.synth_days"]

    def dataset_hits(result, args, kwargs):
        if counters["solar.synth_days"] == synth_before[0]:
            count("solar.dataset_hits")

    tracer.patch_function(datasets, "build_dataset",
                          lambda f: span("solar.dataset", f, before=dataset_calls,
                                         after=dataset_hits))
    tracer.patch_method(SlotView, "from_trace", lambda f: span("solar.slot", f))
    tracer.patch_method(Scenario, "apply", lambda f: span("solar.scenario", f))

    # core: batch engines, sweeps, adaptive cells, scalar observes
    tracer.patch_method(WCMABatch, "from_trace", lambda f: span("core.batch_build", f))

    def grid_points(result, args, kwargs):
        count("core.grid_points", result.errors.size)

    tracer.patch_function(optimizer, "grid_search",
                          lambda f: span("core.sweep", f, after=grid_points))
    tracer.patch_function(optimizer, "sweep_many", lambda f: span("core.sweep", f))

    def evaluate_name(args, kwargs):
        predictor = args[0] if args else kwargs.get("predictor")
        return "core.adaptive" if isinstance(predictor, AdaptiveSelector) else "metrics.score"

    tracer.patch_function(evaluate, "evaluate_predictor",
                          lambda f: span(evaluate_name, f))
    tracer.patch_function(evaluate, "score_predictions",
                          lambda f: span("metrics.score", f))
    for cls in _subclasses(OnlinePredictor):
        for attr, counter in (("observe", "core.scalar_observe_calls"),
                              ("state_dict", "serve.snapshots")):
            raw = cls.__dict__.get(attr)
            if raw is not None and not getattr(raw, "__isabstractmethod__", False):
                tracer.patch_method(cls, attr, lambda f, c=counter: tracer.counted(c, f))

    # learn: features, batched refits, kernel predict
    tracer.patch_method(FeatureState, "step", lambda f: span("learn.features", f))

    def refit_rows(args, kwargs):
        X = args[1] if len(args) > 1 else kwargs["X"]
        count("learn.refits")
        count("learn.refit_rows", X.shape[0] * X.shape[1])

    tracer.patch_function(models, "fit_model_batch",
                          lambda f: span("learn.refit", f, before=refit_rows))
    tracer.patch_method(LearnedKernel, "observe", lambda f: span("learn.predict", f))

    # management: the fleet slot loop
    def node_slots(result, args, kwargs):
        count("management.node_slots", result.n_nodes * result.total_slots)

    tracer.patch_method(FleetSimulator, "run_aggregate",
                        lambda f: span("management.sim", f, after=node_slots))

    # experiments: the harness entry points and fleet spec building
    tracer.patch_function(runner, "run_all", lambda f: span("experiments.run", f))
    tracer.patch_function(robustness, "run", lambda f: span("experiments.run", f))
    tracer.patch_function(fleet_specs, "build_fleet_specs",
                          lambda f: span("experiments.spec_build", f))

    # parallel: executor dispatch, result cache, sharded fleet blocks
    def units(args, kwargs):
        count("parallel.units", len(args[1] if len(args) > 1 else kwargs["units"]))

    tracer.patch_function(executor, "execute_units",
                          lambda f: span("parallel.dispatch", f, before=units))
    tracer.patch_function(parallel_fleet, "run_fleet_blocks",
                          lambda f: span("parallel.fleet", f))

    def cache_hit(result, args, kwargs):
        count("parallel.cache_gets")
        if result is not MISS:
            count("parallel.cache_hits")

    def cache_bytes(result, args, kwargs):
        cache, key = args[0], args[1]
        count("parallel.cache_bytes", cache._path(key).stat().st_size)

    tracer.patch_method(ResultCache, "get",
                        lambda f: span("parallel.cache_get", f, after=cache_hit))
    tracer.patch_method(ResultCache, "put",
                        lambda f: span("parallel.cache_put", f, hook=cache_bytes))

    # serve: transport, handler, digests, checkpoint writes and loads
    tracer.patch_function(daemon, "serve_stdin", lambda f: span("serve.transport", f))
    tracer.patch_method(ForecastService, "handle", lambda f: span("serve.handle", f))

    def digest_bytes(result, args, kwargs):
        count("serve.digests")
        count("serve.digest_bytes", _payload_bytes(args[0] if args else kwargs["state"]))

    tracer.patch_function(state, "state_digest",
                          lambda f: span("serve.digest", f, hook=digest_bytes))

    def checkpoint_bytes(result, args, kwargs):
        store, site, predictor = args[0], args[1], args[2]
        count("serve.checkpoint_bytes", store.path_for(site, predictor).stat().st_size)

    tracer.patch_method(state.StateStore, "save",
                        lambda f: span("serve.checkpoint", f, hook=checkpoint_bytes))
    tracer.patch_method(state.StateStore, "load", lambda f: span("serve.load", f))


def _busy(name):
    return lambda L, C: L.get(name, {}).get("busy", 0.0)


def _self(name):
    return lambda L, C: L.get(name, {}).get("self", 0.0)


def _calls(name):
    return lambda L, C: L.get(name, {}).get("calls", 0)


def _counter(name):
    return lambda L, C: C.get(name, 0)


def _ratio(num, den):
    return lambda L, C: (C.get(num, 0) / C[den]) if C.get(den) else 0.0


#: Per-layer metrics: (name, unit, derivation).  Derivations read the
#: layer stats ``L`` (name -> calls/busy/self) and counters ``C``.
LAYER_METRICS = (
    ("solar.synth_s", "s", _busy("solar.synth")),
    ("solar.synth_days", "days", _counter("solar.synth_days")),
    ("solar.dataset_hit_ratio", "ratio", _ratio("solar.dataset_hits", "solar.dataset_calls")),
    ("solar.slot_s", "s", _busy("solar.slot")),
    ("solar.scenario_s", "s", _busy("solar.scenario")),
    ("solar.scenario_calls", "count", _calls("solar.scenario")),
    ("core.batch_build_s", "s", _busy("core.batch_build")),
    ("core.sweep_s", "s", _busy("core.sweep")),
    ("core.grid_points", "count", _counter("core.grid_points")),
    ("core.adaptive_s", "s", _busy("core.adaptive")),
    ("core.scalar_observe_calls", "count", _counter("core.scalar_observe_calls")),
    ("metrics.score_s", "s", _self("metrics.score")),
    ("learn.features_s", "s", _busy("learn.features")),
    ("learn.refit_s", "s", _busy("learn.refit")),
    ("learn.refits", "count", _counter("learn.refits")),
    ("learn.refit_rows", "count", _counter("learn.refit_rows")),
    ("learn.predict_s", "s", _self("learn.predict")),
    ("management.sim_s", "s", _busy("management.sim")),
    ("management.node_slots", "count", _counter("management.node_slots")),
    ("experiments.spec_build_s", "s", _busy("experiments.spec_build")),
    ("experiments.self_s", "s", _self("experiments.run")),
    ("parallel.units", "count", _counter("parallel.units")),
    ("parallel.dispatch_s", "s", _self("parallel.dispatch")),
    ("parallel.cache_put_s", "s", _busy("parallel.cache_put")),
    ("parallel.cache_bytes", "B", _counter("parallel.cache_bytes")),
    ("parallel.cache_hit_ratio", "ratio", _ratio("parallel.cache_hits", "parallel.cache_gets")),
    ("serve.transport_s", "s", _self("serve.transport")),
    ("serve.handle_s", "s", _self("serve.handle")),
    ("serve.snapshots", "count", _counter("serve.snapshots")),
    ("serve.digests", "count", _counter("serve.digests")),
    ("serve.digest_s", "s", _busy("serve.digest")),
    ("serve.digest_bytes", "B", _counter("serve.digest_bytes")),
    ("serve.checkpoint_s", "s", _busy("serve.checkpoint")),
    ("serve.checkpoint_bytes", "B", _counter("serve.checkpoint_bytes")),
    ("serve.load_s", "s", _busy("serve.load")),
)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric of :data:`LAYER_METRICS` (0 when unused)."""
    stats = tracer.layer_stats()
    return {name: derive(stats, tracer.counters) for name, _, derive in LAYER_METRICS}


def format_table(stats: Dict[str, dict], wall: float, title: Optional[str] = None) -> str:
    """The layer / calls / busy / self / share table, by self time."""
    lines = [title] if title else []
    lines.append(f"{'layer':<24} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'share':>7}")
    for name, entry in sorted(stats.items(), key=lambda kv: -kv[1]["self"]):
        share = entry["self"] / wall if wall > 0 else 0.0
        lines.append(
            f"{name:<24} {entry['calls']:>9d} {entry['busy']:>10.4f} "
            f"{entry['self']:>10.4f} {share:>6.1%}"
        )
    return "\n".join(lines)
