"""Offline training: a trace in, a versioned :class:`ModelArtifact` out.

This is the *train* half of the train/serve split.  :func:`fit_artifact`
replays a trace through the same incremental
:class:`~repro.learn.features.FeatureState` the online kernel runs
(train/serve feature parity by construction), pairs each boundary's
feature row with its realized slot-mean reference (the Eq. 7 quantity
the evaluation layer scores against), drops the warm-up days whose
day-history features are still fallback-filled, and fits the requested
model deterministically -- for a fixed seed the resulting artifact is
byte-identical across processes and ``PYTHONHASHSEED`` values.

The in-sample MAPE over the trace's region of interest rides along in
``artifact.training["train_mape"]`` as provenance; held-out scoring is
the :mod:`repro.experiments.learn` experiment's job.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.learn.artifact import ModelArtifact
from repro.learn.features import FEATURE_SCHEMA_VERSION, N_FEATURES, FeatureConfig, FeatureState
from repro.learn.models import (
    TrainingConfig,
    fit_model_batch,
    predict_model,
    unstack_params,
)
from repro.metrics.evaluate import score_predictions
from repro.solar.slots import SlotView
from repro.solar.trace import SolarTrace

__all__ = ["build_training_set", "fit_artifact"]


def build_training_set(
    trace: SolarTrace,
    n_slots: int,
    config: Optional[FeatureConfig] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature matrix, slot-mean targets, and start samples of a trace.

    ``X[t]`` is the feature row available at boundary ``t`` (computed by
    the online builder, one boundary at a time), ``y[t]`` the realized
    mean of the slot starting at ``t``.  The final boundary is included;
    callers slicing train rows typically drop it along with warm-up.
    """
    config = config if config is not None else FeatureConfig()
    view = SlotView.from_trace(trace, n_slots)
    starts = view.flat_starts()
    means = view.flat_means()
    state = FeatureState(n_slots, 1, config)
    X = np.empty((starts.size, N_FEATURES), dtype=float)
    row = np.zeros(1, dtype=float)
    for t in range(starts.size):
        row[0] = starts[t]
        X[t] = state.step(row)[0]
    return X, means, starts


def fit_artifact(
    trace: SolarTrace,
    n_slots: int = 48,
    model: str = "ridge",
    site: Optional[str] = None,
    features: Optional[FeatureConfig] = None,
    training: Optional[TrainingConfig] = None,
) -> ModelArtifact:
    """Train ``model`` on ``trace`` and wrap it as a persistable artifact.

    Training rows start after ``training.min_train_days`` (day-history
    features before that are fallback-filled and would teach the model
    a warm-up regime it never serves under); the GBM subsample stream
    is seeded from ``(training.seed, 0)``, matching the online kernel's
    first fit.  The fit is the stacked kernel at ``B == 1``.
    """
    features = features if features is not None else FeatureConfig()
    training = training if training is not None else TrainingConfig()
    X, y, starts = build_training_set(trace, n_slots, features)
    skip = training.min_train_days * n_slots
    if X.shape[0] - skip < 2 * n_slots:
        raise ValueError(
            f"trace has {X.shape[0]} boundaries; need at least "
            f"{skip + 2 * n_slots} (min_train_days={training.min_train_days} "
            "warm-up plus two trainable days)"
        )
    rng = np.random.default_rng([training.seed, 0])
    params = unstack_params(
        fit_model_batch(model, X[skip:, None, :], y[skip:, None], training, rng)
    )

    predictions = np.maximum(predict_model(params, X), 0.0)
    # In-sample provenance MAPE over exactly the trained rows: warm-up
    # is the same min_train_days cut the fit skipped, not the (longer)
    # evaluation default, so short training heads still score.
    run = score_predictions(
        predictions=predictions[:-1],
        reference_mean=y[:-1],
        reference_next_start=starts[1:],
        n_slots=n_slots,
        warmup_days=training.min_train_days,
    )
    site_name = site if site is not None else (trace.name or "TRACE")
    provenance = dict(training.to_dict())
    provenance["train_days"] = int(X.shape[0] // n_slots)
    provenance["train_rows"] = int(X.shape[0] - skip)
    provenance["train_mape"] = float(run.mape)
    return ModelArtifact(
        site=str(site_name).upper(),
        model=model,
        n_slots=n_slots,
        feature_schema=FEATURE_SCHEMA_VERSION,
        feature_config=features.to_dict(),
        training=provenance,
        params=params,
    )
