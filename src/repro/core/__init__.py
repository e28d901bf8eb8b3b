"""Core prediction algorithms (the paper's primary subject).

* :mod:`repro.core.wcma` -- the evaluated predictor of Recas et al. [5]
  (Eqs. 1-5): one online kernel (any number of nodes, each with its own
  parameters) plus a vectorized batch engine used by the sweeps.
* :mod:`repro.core.ewma` -- the EWMA predictor of Kansal et al. [2].
* :mod:`repro.core.baselines` -- persistence / moving-average / previous-
  day baselines used for comparison experiments.
* :mod:`repro.core.optimizer` -- exhaustive (alpha, D, K) grid search
  minimising MAPE or MAPE' (Section IV-B).
* :mod:`repro.core.dynamic` -- clairvoyant per-prediction parameter
  selection (Section IV-C, Table V).
* :mod:`repro.core.adaptive` -- *extension*: realizable online dynamic
  parameter selection (follow-the-leader, epsilon-greedy).
* :mod:`repro.core.registry` -- predictor factories by name.
"""

from repro.core.base import OnlinePredictor, VectorPredictor
from repro.core.wcma import WCMAParams, WCMAPredictor, WCMAVector, WCMABatch
from repro.core.ewma import EWMAPredictor, EWMAVector
from repro.core.baselines import (
    MovingAveragePredictor,
    MovingAverageVector,
    PersistencePredictor,
    PersistenceVector,
    PreviousDayPredictor,
    PreviousDayVector,
)
from repro.core.proenergy import ProEnergyPredictor
from repro.core.regression import ARPredictor, SlotLinearTrendPredictor
from repro.core.optimizer import GridSearchResult, SweepSpec, grid_search, sweep_many
from repro.core.dynamic import DynamicResult, clairvoyant_dynamic
from repro.core.adaptive import AdaptiveSelector, FollowTheLeaderSelector, EpsilonGreedySelector
from repro.core.registry import (
    available_predictors,
    make_predictor,
    make_vector_predictor,
    supports_vector,
    vector_predictors,
)

__all__ = [
    "OnlinePredictor",
    "VectorPredictor",
    "WCMAParams",
    "WCMAPredictor",
    "WCMAVector",
    "WCMABatch",
    "EWMAPredictor",
    "EWMAVector",
    "PersistencePredictor",
    "PersistenceVector",
    "MovingAveragePredictor",
    "MovingAverageVector",
    "PreviousDayPredictor",
    "PreviousDayVector",
    "ProEnergyPredictor",
    "ARPredictor",
    "SlotLinearTrendPredictor",
    "GridSearchResult",
    "SweepSpec",
    "grid_search",
    "sweep_many",
    "DynamicResult",
    "clairvoyant_dynamic",
    "AdaptiveSelector",
    "FollowTheLeaderSelector",
    "EpsilonGreedySelector",
    "available_predictors",
    "vector_predictors",
    "supports_vector",
    "make_predictor",
    "make_vector_predictor",
]
