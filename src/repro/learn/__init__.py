"""Learned predictor tier: engineered features, seeded models, artifacts.

The train/serve split in one package:

* :mod:`repro.learn.features` -- one incremental, batched feature
  builder shared verbatim by training and serving.
* :mod:`repro.learn.models` -- deterministic standardizer + closed-form
  ridge, and seeded gradient-boosted stumps (numpy only).
* :mod:`repro.learn.predictor` -- the models behind the standard
  :class:`~repro.core.base.OnlinePredictor` /
  :class:`~repro.core.base.VectorPredictor` protocols (online
  self-fitting or frozen-artifact serving).
* :mod:`repro.learn.training` -- offline ``fit()`` producing a
  versioned :class:`~repro.learn.artifact.ModelArtifact`.
* :mod:`repro.learn.artifact` -- atomic, schema-validated persistence
  through :mod:`repro.store` (allowlisted loads, the state envelope).
"""

from repro.learn.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ArtifactError,
    ArtifactStore,
    ModelArtifact,
)
from repro.learn.features import (
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    N_FEATURES,
    FeatureConfig,
    FeatureState,
)
from repro.learn.models import (
    MODEL_KINDS,
    TrainingConfig,
    fit_gbm,
    fit_model,
    fit_ridge,
    predict_model,
)
from repro.learn.predictor import LearnedKernel, LearnedPredictor
from repro.learn.training import build_training_set, fit_artifact

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactStore",
    "ModelArtifact",
    "FEATURE_NAMES",
    "FEATURE_SCHEMA_VERSION",
    "N_FEATURES",
    "FeatureConfig",
    "FeatureState",
    "MODEL_KINDS",
    "TrainingConfig",
    "fit_gbm",
    "fit_model",
    "fit_ridge",
    "predict_model",
    "LearnedKernel",
    "LearnedPredictor",
    "build_training_set",
    "fit_artifact",
]
