"""Predictor factory registry.

Maps short names to constructors so experiments, the CLI and the node
and fleet simulators can select predictors by string.  Registered
defaults:

========== =====================================================
``wcma``   :class:`~repro.core.wcma.WCMAPredictor`
``ewma``   :class:`~repro.core.ewma.EWMAPredictor`
``persistence`` :class:`~repro.core.baselines.PersistencePredictor`
``previous-day`` :class:`~repro.core.baselines.PreviousDayPredictor`
``moving-average`` :class:`~repro.core.baselines.MovingAveragePredictor`
========== =====================================================

plus the learned tier (``ridge``, ``gbm`` --
:class:`~repro.learn.predictor.LearnedPredictor`, online self-fitting
unless constructed with a fitted ``artifact=``) and the Table-V
adaptive selectors (``adaptive``, ``adaptive-greedy``, ``hedge`` --
:mod:`repro.core.adaptive` on the compact expert grid).

Each entry may additionally carry a *vector factory* producing the
lock-step fleet kernel (:class:`~repro.core.base.VectorPredictor`) for
the same name; :func:`supports_vector` reports availability and
:func:`make_vector_predictor` constructs one per fleet group.  The five
predictors above and the learned tier all ship vector kernels, and
their scalar predictors are those kernels' ``B == 1`` faces
(:class:`~repro.core.base.ScalarFace`), so a fleet column and a scalar
run agree bit for bit.  ``pro-energy``, ``ar``, ``linear-trend`` and
the adaptive selectors are scalar-only (the fleet simulator falls back
to one scalar instance per node for those, and the robustness matrix
scores them cell by cell).

Third-party predictors can be added with :func:`register` (pass
``overwrite=True`` to replace an existing entry, e.g. when reloading in
a notebook) and removed with :func:`unregister`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.base import OnlinePredictor, VectorPredictor
from repro.core.baselines import (
    MovingAveragePredictor,
    MovingAverageVector,
    PersistencePredictor,
    PersistenceVector,
    PreviousDayPredictor,
    PreviousDayVector,
)
from repro.core.ewma import EWMAPredictor, EWMAVector
from repro.core.wcma import WCMAParams, WCMAPredictor, WCMAVector

__all__ = [
    "register",
    "unregister",
    "make_predictor",
    "make_vector_predictor",
    "available_predictors",
    "vector_predictors",
    "supports_vector",
]

_FACTORIES: Dict[str, Callable[..., OnlinePredictor]] = {}
_VECTOR_FACTORIES: Dict[str, Callable[..., VectorPredictor]] = {}


def register(
    name: str,
    factory: Callable[..., OnlinePredictor],
    vector_factory: Optional[Callable[..., VectorPredictor]] = None,
    overwrite: bool = False,
) -> None:
    """Register ``factory`` under ``name`` (lower-cased).

    Parameters
    ----------
    name:
        Registry key; matching is case-insensitive.
    factory:
        ``factory(n_slots=..., **kwargs)`` returning an
        :class:`~repro.core.base.OnlinePredictor`.
    vector_factory:
        Optional ``vector_factory(n_slots=..., batch_size=..., **kwargs)``
        returning the lock-step fleet kernel for the same predictor.
    overwrite:
        Replace an existing registration instead of raising (interactive
        and notebook-reload workflows re-execute registration code).
    """
    key = name.lower()
    if key in _FACTORIES and not overwrite:
        raise ValueError(
            f"predictor {name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _FACTORIES[key] = factory
    if vector_factory is not None:
        _VECTOR_FACTORIES[key] = vector_factory
    else:
        _VECTOR_FACTORIES.pop(key, None)


def unregister(name: str) -> None:
    """Remove a registered predictor (and its vector kernel, if any)."""
    key = name.lower()
    if key not in _FACTORIES:
        raise KeyError(f"predictor {name!r} is not registered")
    del _FACTORIES[key]
    _VECTOR_FACTORIES.pop(key, None)


def make_predictor(name: str, n_slots: int, **kwargs) -> OnlinePredictor:
    """Instantiate a registered predictor.

    Keyword arguments are passed through to the factory; e.g.
    ``make_predictor("wcma", 48, alpha=0.7, days=10, k=2)``.
    """
    key = name.lower()
    try:
        factory = _FACTORIES[key]
    except KeyError:
        raise KeyError(
            f"unknown predictor {name!r}; available: {', '.join(available_predictors())}"
        )
    return factory(n_slots=n_slots, **kwargs)


def make_vector_predictor(
    name: str, n_slots: int, batch_size: int, **kwargs
) -> VectorPredictor:
    """Instantiate the lock-step fleet kernel of a registered predictor.

    Raises :class:`KeyError` when the name is unknown *or* registered
    without vector support (check :func:`supports_vector` first).
    """
    key = name.lower()
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown predictor {name!r}; available: {', '.join(available_predictors())}"
        )
    try:
        factory = _VECTOR_FACTORIES[key]
    except KeyError:
        raise KeyError(
            f"predictor {name!r} has no vector kernel; vectorized: "
            f"{', '.join(vector_predictors())}"
        )
    return factory(n_slots=n_slots, batch_size=batch_size, **kwargs)


def supports_vector(name: str) -> bool:
    """True when ``name`` is registered with a fleet (vector) kernel."""
    return name.lower() in _VECTOR_FACTORIES


def available_predictors() -> tuple:
    """Registered predictor names, sorted."""
    return tuple(sorted(_FACTORIES))


def vector_predictors() -> tuple:
    """Registered names that ship a vector kernel, sorted."""
    return tuple(sorted(_VECTOR_FACTORIES))


def _make_wcma(n_slots: int, alpha: float = 0.7, days: int = 10, k: int = 2):
    return WCMAPredictor(n_slots, WCMAParams(alpha=alpha, days=days, k=k))


def _make_wcma_vector(
    n_slots: int, batch_size: int, alpha: float = 0.7, days: int = 10, k: int = 2
):
    return WCMAVector(
        n_slots, WCMAParams(alpha=alpha, days=days, k=k), batch_size=batch_size
    )


def _make_proenergy(n_slots: int, **kwargs):
    from repro.core.proenergy import ProEnergyPredictor

    return ProEnergyPredictor(n_slots, **kwargs)


def _make_ridge(n_slots: int, **kwargs):
    from repro.learn.predictor import LearnedPredictor

    return LearnedPredictor(n_slots, model="ridge", **kwargs)


def _make_ridge_vector(n_slots: int, batch_size: int, **kwargs):
    from repro.learn.predictor import LearnedKernel

    return LearnedKernel(n_slots, batch_size=batch_size, model="ridge", **kwargs)


def _make_gbm(n_slots: int, **kwargs):
    from repro.learn.predictor import LearnedPredictor

    return LearnedPredictor(n_slots, model="gbm", **kwargs)


def _make_gbm_vector(n_slots: int, batch_size: int, **kwargs):
    from repro.learn.predictor import LearnedKernel

    return LearnedKernel(n_slots, batch_size=batch_size, model="gbm", **kwargs)


def _selector_grid(days, alphas, ks):
    from repro.core.adaptive import compact_grid

    grid_kwargs = {}
    if days is not None:
        grid_kwargs["days"] = days
    if alphas is not None:
        grid_kwargs["alphas"] = tuple(alphas)
    if ks is not None:
        grid_kwargs["ks"] = tuple(int(k) for k in ks)
    return compact_grid(**grid_kwargs)


def _make_adaptive(n_slots: int, days=None, alphas=None, ks=None, **kwargs):
    from repro.core.adaptive import SoftminSelector

    return SoftminSelector(
        n_slots, grid=_selector_grid(days, alphas, ks), **kwargs
    )


def _make_adaptive_greedy(n_slots: int, days=None, alphas=None, ks=None, **kwargs):
    from repro.core.adaptive import EpsilonGreedySelector

    return EpsilonGreedySelector(
        n_slots, grid=_selector_grid(days, alphas, ks), **kwargs
    )


def _make_hedge(n_slots: int, days=None, alphas=None, ks=None, **kwargs):
    from repro.core.adaptive import HedgeSelector

    return HedgeSelector(
        n_slots, grid=_selector_grid(days, alphas, ks), **kwargs
    )


def _make_ar(n_slots: int, **kwargs):
    from repro.core.regression import ARPredictor

    return ARPredictor(n_slots, **kwargs)


def _make_trend(n_slots: int, **kwargs):
    from repro.core.regression import SlotLinearTrendPredictor

    return SlotLinearTrendPredictor(n_slots, **kwargs)


register("wcma", _make_wcma, vector_factory=_make_wcma_vector)
register(
    "ewma",
    lambda n_slots, gamma=0.5: EWMAPredictor(n_slots, gamma=gamma),
    vector_factory=lambda n_slots, batch_size, gamma=0.5: EWMAVector(
        n_slots, batch_size=batch_size, gamma=gamma
    ),
)
register(
    "persistence",
    lambda n_slots: PersistencePredictor(n_slots),
    vector_factory=lambda n_slots, batch_size: PersistenceVector(
        n_slots, batch_size=batch_size
    ),
)
register(
    "previous-day",
    lambda n_slots: PreviousDayPredictor(n_slots),
    vector_factory=lambda n_slots, batch_size: PreviousDayVector(
        n_slots, batch_size=batch_size
    ),
)
register(
    "moving-average",
    lambda n_slots, days=10: MovingAveragePredictor(n_slots, days=days),
    vector_factory=lambda n_slots, batch_size, days=10: MovingAverageVector(
        n_slots, batch_size=batch_size, days=days
    ),
)
register("pro-energy", _make_proenergy)
register("ar", _make_ar)
register("linear-trend", _make_trend)
# The learned tier (repro.learn): online self-fitting by default; pass
# artifact=ModelArtifact for the frozen train/serve split.  Lazy imports
# keep the registry import-light for callers that never touch them.
register("ridge", _make_ridge, vector_factory=_make_ridge_vector)
register("gbm", _make_gbm, vector_factory=_make_gbm_vector)
# The Table-V adaptive selectors (repro.core.adaptive) on the compact
# expert grid; scalar-only, like pro-energy (a selector steps its expert
# grid as the columns of one WCMA kernel, but has no lock-step form
# across nodes).  "adaptive" is the softmin-blended
# leaderboard -- the configuration that beats the re-tuned WCMA on the
# regime-shift robustness cells.
register("adaptive", _make_adaptive)
register("adaptive-greedy", _make_adaptive_greedy)
register("hedge", _make_hedge)
