"""Versioned, picklable model artifacts: the train half of train/serve.

A :class:`ModelArtifact` is everything ``fit()`` produced: the fitted
parameter dict, the feature/training configuration that shaped it, the
feature-schema version it was built against, and provenance (site,
trace length, training rows, in-sample error).  Artifacts are frozen --
serving never mutates one -- and deterministic: for a fixed seed the
whole artifact is byte-identical across processes and
``PYTHONHASHSEED`` values (every dict is built in fixed key order and
every array in a fixed dtype/layout), which
``tests/learn/test_determinism.py`` pins via subprocesses.

:class:`ArtifactStore` persists them through :mod:`repro.store` in the
envelope layout of :class:`repro.serve.state.StateStore` -- a pickled
``{format, version, site, model, feature_schema, artifact}`` dict --
and its loader additionally validates the **feature schema**: an
artifact trained against a different
:data:`~repro.learn.features.FEATURE_SCHEMA_VERSION` is rejected with
an error naming both versions, because feeding schema-v1 features to
schema-v2 weights would silently mis-predict.  Every file that cannot
be served is an :class:`ArtifactError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple

from repro.learn.features import FEATURE_SCHEMA_VERSION
from repro.learn.models import MODEL_KINDS
from repro.store import Envelope, value_digest

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ModelArtifact",
    "ArtifactStore",
]

ARTIFACT_FORMAT = "repro-solar model artifact"

#: Bump when the envelope layout changes; load refuses other versions.
ARTIFACT_VERSION = 1


class ArtifactError(ValueError):
    """An artifact file exists but cannot serve this build."""


_ENVELOPE = Envelope(
    ARTIFACT_FORMAT, ARTIFACT_VERSION, "artifact", "model", ".model.pkl", ArtifactError
)


@dataclass(frozen=True)
class ModelArtifact:
    """One fitted model plus everything needed to serve it faithfully.

    Attributes
    ----------
    site:
        Dataset the model was trained on (upper-cased site name).
    model:
        Model kind (``ridge`` / ``gbm``), matching the registry name.
    n_slots:
        Slot grid the features were built on.
    feature_schema:
        :data:`~repro.learn.features.FEATURE_SCHEMA_VERSION` at
        training time.
    feature_config / training:
        Plain-dict forms of the configs (``FeatureConfig.to_dict()``,
        ``TrainingConfig.to_dict()`` plus provenance keys
        ``train_days``/``train_rows``/``train_mape``).
    params:
        The fitted parameter dict of :mod:`repro.learn.models`.
    """

    site: str
    model: str
    n_slots: int
    feature_schema: int
    feature_config: dict
    training: dict
    params: dict

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ValueError(
                f"unknown model kind {self.model!r}; known: {MODEL_KINDS}"
            )
        if self.n_slots <= 0:
            raise ValueError("n_slots must be positive")

    def to_dict(self) -> dict:
        """Plain-dict form (fixed key order; pickles byte-stably)."""
        return {
            "site": self.site,
            "model": self.model,
            "n_slots": self.n_slots,
            "feature_schema": self.feature_schema,
            "feature_config": dict(self.feature_config),
            "training": dict(self.training),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelArtifact":
        return cls(
            site=str(data["site"]),
            model=str(data["model"]),
            n_slots=int(data["n_slots"]),
            feature_schema=int(data["feature_schema"]),
            feature_config=dict(data["feature_config"]),
            training=dict(data["training"]),
            params=dict(data["params"]),
        )

    def digest(self) -> str:
        """Value-based content fingerprint (16 hex chars), cut from
        :func:`repro.store.value_digest` like a serve state digest."""
        return value_digest(self.to_dict())[:16]


class ArtifactStore:
    """One directory of atomic per-``(site, model)`` artifacts."""

    def __init__(self, root):
        self.root = Path(root)

    def path_for(self, site: str, model: str) -> Path:
        """Artifact path of one ``(site, model)`` pair."""
        return _ENVELOPE.path(self.root, site, model)

    def save(self, artifact: ModelArtifact) -> str:
        """Atomically persist ``artifact``; returns its digest."""
        site, model = artifact.site, artifact.model
        _ENVELOPE.save(self.path_for(site, model), site, model,
                       feature_schema=artifact.feature_schema, artifact=artifact.to_dict())
        return artifact.digest()

    def load(self, site: str, model: str) -> Optional[ModelArtifact]:
        """The saved artifact, or None when none exists for the pair.

        Raises :class:`ArtifactError` when a file exists but is not a
        version-compatible artifact of this ``(site, model)`` pair *or*
        was trained against a different feature schema -- serving a
        model on features it was not trained on must be loud, never a
        silent mis-prediction.
        """
        path = self.path_for(site, model)
        envelope = _ENVELOPE.load(path, site, model)
        if envelope is None:
            return None
        schema = envelope.get("feature_schema")
        if type(schema) is not int or schema != FEATURE_SCHEMA_VERSION:
            raise ArtifactError(
                f"{path} was trained against feature-schema version "
                f"{schema}; this build computes feature-schema version "
                f"{FEATURE_SCHEMA_VERSION} -- retrain the artifact "
                "(its features no longer mean what the weights expect)"
            )
        try:
            return ModelArtifact.from_dict(envelope["artifact"])
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise ArtifactError(f"{path} holds no valid artifact: {exc}") from None

    def entries(self) -> Iterator[Tuple[str, str]]:
        """Yield the ``(site, model)`` pairs stored here."""
        return _ENVELOPE.entries(self.root)
