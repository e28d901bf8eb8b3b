"""The learned predictor tier behind the standard predictor protocols.

:class:`LearnedKernel` is a :class:`~repro.core.base.VectorPredictor`
advancing ``B`` lock-step nodes, and :class:`LearnedPredictor` is its
:class:`~repro.core.base.ScalarFace` (a ``B == 1`` kernel behind the
scalar protocol), so scalar/vector parity holds by construction and both plug
into the registry, :class:`~repro.management.fleet.FleetSimulator`, the
robustness matrix and ``repro-solar serve`` unchanged.

Two modes:

**Online self-fitting** (default; what the registry factories build).
The kernel engineers features incrementally
(:class:`~repro.learn.features.FeatureState`), records the realized
reference of every prediction (the slot mean via
``provide_slot_mean`` when the caller supplies it -- the adaptive
selectors' protocol -- falling back to the next sample), and refits its
model every ``refit_days`` on a trailing ``window_days`` window once
``min_train_days`` complete days exist.  Before the first fit it
serves a rule-based fallback (a persistence / day-history-mean blend),
mirroring ha-solar-forecast-ml's fallback chain; the evaluation
layer's 20 warm-up days keep that phase unscored.  Refits are
deterministic: every node's GBM subsample stream reseeds from
``(seed, fit_index)``, so a run is a pure function of its inputs and
scalar/vector parity survives subsampling.

**Frozen artifact** (the serve half of train/serve).  Constructed with
a :class:`~repro.learn.artifact.ModelArtifact`, the kernel loads the
fitted weights (validating slot grid, model kind, and feature-schema
version -- loudly, naming both versions on mismatch), keeps building
features online, and never refits: what was trained is exactly what
serves, across restarts.

Predictions are clamped to ``[0, inf)`` and non-finite model output
degrades to the fallback value -- a learned model may be wrong, but it
must never emit a negative or NaN power forecast.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.base import ScalarFace, VectorPredictor, as_batch
from repro.learn.artifact import ModelArtifact
from repro.learn.features import (
    FEATURE_SCHEMA_VERSION,
    IDX_MU_NEXT,
    N_FEATURES,
    FeatureConfig,
    FeatureState,
)
from repro.learn.models import (
    MODEL_KINDS,
    TrainingConfig,
    fit_model_batch,
    score_stumps,
)

__all__ = ["LearnedKernel", "LearnedPredictor"]


def _coerce_features(features) -> FeatureConfig:
    if features is None:
        return FeatureConfig()
    if isinstance(features, FeatureConfig):
        return features
    return FeatureConfig.from_dict(dict(features))


def _coerce_training(training) -> TrainingConfig:
    if training is None:
        return TrainingConfig()
    if isinstance(training, TrainingConfig):
        return training
    return TrainingConfig.from_dict(dict(training))


class LearnedKernel(VectorPredictor):
    """Lock-step learned predictor for ``B`` independent nodes.

    Parameters
    ----------
    n_slots:
        Slots per day (``N``).
    batch_size:
        Nodes per ``observe`` call (``B``).
    model:
        ``"ridge"`` or ``"gbm"`` (default ridge; ignored in favour of
        the artifact's kind when ``artifact`` names one and no explicit
        kind is given).
    features / training:
        :class:`~repro.learn.features.FeatureConfig` /
        :class:`~repro.learn.models.TrainingConfig` (or their dict
        forms); defaults are the tuned package defaults.
    artifact:
        A fitted :class:`~repro.learn.artifact.ModelArtifact` (or its
        dict form) -- switches the kernel to frozen serve mode.
    feedback:
        ``"slot_mean"`` (default) trains on the realized slot mean
        supplied via :meth:`provide_slot_mean` (exactly the Eq. 7
        reference), falling back to the next sample when never
        provided; ``"sample"`` always trains on the next sample.
    fallback_alpha:
        Weight of persistence in the pre-fit fallback blend.
    """

    def __init__(
        self,
        n_slots: int,
        batch_size: int = 1,
        model: Optional[str] = None,
        features=None,
        training=None,
        artifact: Optional[Union[ModelArtifact, dict]] = None,
        feedback: str = "slot_mean",
        fallback_alpha: float = 0.5,
    ):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if feedback not in ("slot_mean", "sample"):
            raise ValueError(
                f"feedback must be 'slot_mean' or 'sample', got {feedback!r}"
            )
        if not 0.0 <= fallback_alpha <= 1.0:
            raise ValueError(f"fallback_alpha must be in [0, 1], got {fallback_alpha}")
        self.n_slots = n_slots
        self.batch_size = batch_size
        self.feedback = feedback
        self.fallback_alpha = float(fallback_alpha)

        if artifact is not None:
            if isinstance(artifact, dict):
                artifact = ModelArtifact.from_dict(artifact)
            if artifact.feature_schema != FEATURE_SCHEMA_VERSION:
                raise ValueError(
                    f"artifact was trained against feature-schema version "
                    f"{artifact.feature_schema}; this build computes "
                    f"feature-schema version {FEATURE_SCHEMA_VERSION}"
                )
            if artifact.n_slots != n_slots:
                raise ValueError(
                    f"artifact was trained at N={artifact.n_slots}; "
                    f"this kernel runs N={n_slots}"
                )
            if model is not None and model != artifact.model:
                raise ValueError(
                    f"artifact holds a {artifact.model!r} model; "
                    f"requested {model!r}"
                )
            self.model = artifact.model
            self.features = FeatureConfig.from_dict(artifact.feature_config)
            # Provenance keys ride along in artifact.training; only the
            # TrainingConfig fields matter to a frozen kernel.
            known = set(TrainingConfig().to_dict())
            self.training = TrainingConfig.from_dict(
                {k: v for k, v in artifact.training.items() if k in known}
            )
        else:
            self.model = model if model is not None else "ridge"
            if self.model not in MODEL_KINDS:
                raise ValueError(
                    f"unknown model kind {self.model!r}; known: {MODEL_KINDS}"
                )
            self.features = _coerce_features(features)
            self.training = _coerce_training(training)

        self.artifact = artifact
        self.frozen = artifact is not None
        self._features = FeatureState(n_slots, batch_size, self.features)
        self._cap = self.training.window_days * n_slots
        if not self.frozen:
            self._X = np.zeros((self._cap, batch_size, N_FEATURES), dtype=float)
            self._y = np.zeros((self._cap, batch_size), dtype=float)
        else:
            self._X = self._y = None
        self._alloc_model_state()
        self._t = 0
        self._pending: Optional[np.ndarray] = None
        self._fitted = False
        self._fit_count = 0
        self._last_fit_day = 0
        if self.frozen:
            self._load_params(artifact.params)
            self._fitted = True

    # ------------------------------------------------------------------
    # Model-state plumbing
    # ------------------------------------------------------------------
    def _alloc_model_state(self) -> None:
        B = self.batch_size
        if self.model == "ridge":
            self._mean = np.zeros((B, N_FEATURES), dtype=float)
            self._scale = np.ones((B, N_FEATURES), dtype=float)
            self._w = np.zeros((B, N_FEATURES), dtype=float)
            self._b = np.zeros(B, dtype=float)
        else:
            R = self.training.gbm_rounds
            self._gb_lr = self.training.gbm_learning_rate
            self._gb_base = np.zeros(B, dtype=float)
            self._gb_feat = np.zeros((B, R), dtype=np.int64)
            self._gb_thr = np.zeros((B, R), dtype=float)
            self._gb_left = np.zeros((B, R), dtype=float)
            self._gb_right = np.zeros((B, R), dtype=float)

    def _load_params(self, params: dict) -> None:
        """Broadcast one fitted param dict to every node (frozen mode)."""
        if params.get("kind") != self.model:
            raise ValueError(
                f"param dict is a {params.get('kind')!r} model; "
                f"kernel expects {self.model!r}"
            )
        if self.model == "gbm":
            rounds = np.asarray(params["feat"]).shape[0]
            if rounds != self._gb_feat.shape[1]:
                # The artifact's round count wins; reallocate to match.
                self._gb_feat = np.zeros((self.batch_size, rounds), dtype=np.int64)
                self._gb_thr = np.zeros((self.batch_size, rounds), dtype=float)
                self._gb_left = np.zeros((self.batch_size, rounds), dtype=float)
                self._gb_right = np.zeros((self.batch_size, rounds), dtype=float)
        self._store_params(slice(None), params)

    def _store_params(self, nodes, params: dict) -> None:
        """Write fitted params into the stacked state.

        ``nodes`` is one node index, or ``slice(None)`` for every node
        (a stacked batch-fit result, or one node's params broadcast).
        """
        if self.model == "ridge":
            self._mean[nodes] = params["mean"]
            self._scale[nodes] = params["scale"]
            self._w[nodes] = params["weights"]
            self._b[nodes] = params["intercept"]
        else:
            self._gb_base[nodes] = params["base"]
            self._gb_lr = float(params["learning_rate"])
            self._gb_feat[nodes] = params["feat"]
            self._gb_thr[nodes] = params["thr"]
            self._gb_left[nodes] = params["left"]
            self._gb_right[nodes] = params["right"]

    def _predict(self, feats: np.ndarray) -> np.ndarray:
        if self.model == "ridge":
            z = (feats - self._mean) / self._scale
            return (z * self._w).sum(axis=1) + self._b
        return score_stumps(
            np.take_along_axis(feats, self._gb_feat, axis=1),  # (B, R)
            self._gb_thr,
            self._gb_left,
            self._gb_right,
            self._gb_base,
            self._gb_lr,
        )

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    @property
    def uses_slot_mean_feedback(self) -> bool:
        """True when evaluators should call :meth:`provide_slot_mean`."""
        return self.feedback == "slot_mean"

    @property
    def is_fitted(self) -> bool:
        """True once a model (online fit or frozen artifact) is active."""
        return self._fitted

    @property
    def fit_count(self) -> int:
        """Number of online refits performed since reset."""
        return self._fit_count

    def provide_slot_mean(self, mean_watts: np.ndarray) -> None:
        """Report the just-finished slot's realized ``(B,)`` mean power.

        Called at a slot boundary, *before* ``observe`` for that
        boundary -- the same causal protocol as the adaptive selectors.
        """
        self._pending = as_batch(mean_watts, self.batch_size).copy()

    def reset(self) -> None:
        """Forget all history; a frozen kernel keeps its weights."""
        self._features.reset()
        if not self.frozen:
            self._X.fill(0.0)
            self._y.fill(0.0)
            self._alloc_model_state()
            self._fitted = False
        self._t = 0
        self._pending = None
        self._fit_count = 0
        self._last_fit_day = 0
        if self.frozen:
            self._load_params(self.artifact.params)

    def observe(self, values: np.ndarray) -> np.ndarray:
        values = as_batch(values, self.batch_size)
        # 1. Feedback: the realized reference for the prediction made at
        #    the previous boundary (slot mean when supplied, else this
        #    boundary's sample -- Eq. 7 vs Eq. 6 alignment).
        reference = values
        if self._pending is not None:
            reference = self._pending
            self._pending = None
        if not self.frozen and self._t > 0:
            self._y[(self._t - 1) % self._cap] = reference

        # 2. Features at this boundary (strictly causal).
        feats = self._features.step(values)

        # 3. Training-window bookkeeping and the day-boundary refit.
        if not self.frozen:
            self._X[self._t % self._cap] = feats
            if (self._t + 1) % self.n_slots == 0:
                completed = (self._t + 1) // self.n_slots
                due = (
                    not self._fitted
                    or completed - self._last_fit_day >= self.training.refit_days
                )
                if completed >= self.training.min_train_days and due:
                    self._refit(completed)

        # 4. Predict: fitted model, else the rule-based fallback.
        fallback = (
            self.fallback_alpha * values
            + (1.0 - self.fallback_alpha) * feats[:, IDX_MU_NEXT]
        )
        if self._fitted:
            pred = self._predict(feats)
            pred = np.where(np.isfinite(pred), pred, fallback)
        else:
            pred = fallback
        self._t += 1
        return np.maximum(pred, 0.0)

    def _refit(self, completed_days: int) -> None:
        """Refit every node on the trailing window (lock-step schedule).

        The just-pushed row has no realized reference yet, so the
        window is the last ``min(t, cap - 1)`` *closed* rows.  Every
        node reseeds its subsample generator from ``(seed, fit_index)``
        -- node-position-independent, so a ``B``-node kernel fits
        exactly what ``B`` separate scalar kernels would, and the
        stacked fit shares one generator (and one subsample stream)
        across the whole stack.
        """
        count = min(self._t, self._cap - 1)
        if count <= 1:
            return
        order = np.arange(self._t - count, self._t) % self._cap
        Xw = self._X[order]
        yw = self._y[order]
        rng = np.random.default_rng([self.training.seed, self._fit_count])
        self._store_params(
            slice(None), fit_model_batch(self.model, Xw, yw, self.training, rng)
        )
        self._fitted = True
        self._fit_count += 1
        self._last_fit_day = completed_days

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = {
            "kind": "learned",
            "model": self.model,
            "n_slots": self.n_slots,
            "batch_size": self.batch_size,
            "feature_schema": FEATURE_SCHEMA_VERSION,
            "feature_config": self.features.to_dict(),
            "training": self.training.to_dict(),
            "frozen": self.frozen,
            "feedback": self.feedback,
            "t": self._t,
            "pending": None if self._pending is None else self._pending.copy(),
            "features": self._features.state_dict(),
            "fitted": self._fitted,
            "fit_count": self._fit_count,
            "last_fit_day": self._last_fit_day,
        }
        if not self.frozen:
            state["X"] = self._X.copy()
            state["y"] = self._y.copy()
        if self.model == "ridge":
            state["ridge"] = {
                "mean": self._mean.copy(),
                "scale": self._scale.copy(),
                "weights": self._w.copy(),
                "intercept": self._b.copy(),
            }
        else:
            state["gbm"] = {
                "base": self._gb_base.copy(),
                "learning_rate": float(getattr(self, "_gb_lr", self.training.gbm_learning_rate)),
                "feat": self._gb_feat.copy(),
                "thr": self._gb_thr.copy(),
                "left": self._gb_left.copy(),
                "right": self._gb_right.copy(),
            }
        return state

    def load_state_dict(self, state: dict) -> None:
        if state.get("kind") != "learned":
            raise ValueError(
                f"snapshot is a {state.get('kind')!r} state, not a learned "
                "predictor checkpoint"
            )
        schema = state.get("feature_schema")
        if schema != FEATURE_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint was written against feature-schema version "
                f"{schema}; this build computes feature-schema version "
                f"{FEATURE_SCHEMA_VERSION} -- the persisted features no "
                "longer mean what this code computes"
            )
        if (
            state.get("model") != self.model
            or int(state.get("n_slots", -1)) != self.n_slots
            or int(state.get("batch_size", -1)) != self.batch_size
        ):
            raise ValueError(
                f"snapshot is a {state.get('model')!r} kernel at "
                f"N={state.get('n_slots')} B={state.get('batch_size')}; "
                f"this kernel is {self.model!r} at N={self.n_slots} "
                f"B={self.batch_size}"
            )
        if bool(state.get("frozen")) != self.frozen:
            raise ValueError(
                "snapshot frozen/online mode does not match this kernel "
                f"(snapshot frozen={bool(state.get('frozen'))}, "
                f"kernel frozen={self.frozen})"
            )
        if state.get("feature_config") != self.features.to_dict():
            raise ValueError(
                "snapshot feature config differs from this kernel's; "
                "construct the kernel with the checkpoint's configuration"
            )
        if state.get("training") != self.training.to_dict():
            raise ValueError(
                "snapshot training config differs from this kernel's; "
                "construct the kernel with the checkpoint's configuration"
            )
        self._features.load_state_dict(state["features"])
        self._t = int(state["t"])
        pending = state.get("pending")
        self._pending = None if pending is None else np.asarray(pending, dtype=float).copy()
        self._fitted = bool(state["fitted"])
        self._fit_count = int(state["fit_count"])
        self._last_fit_day = int(state["last_fit_day"])
        if not self.frozen:
            X = np.asarray(state["X"], dtype=float)
            y = np.asarray(state["y"], dtype=float)
            if X.shape != self._X.shape or y.shape != self._y.shape:
                raise ValueError(
                    f"snapshot training window has shapes {X.shape}/{y.shape}; "
                    f"expected {self._X.shape}/{self._y.shape}"
                )
            self._X[...] = X
            self._y[...] = y
        saved = state[self.model]
        if self.model == "gbm":
            feat = np.asarray(saved["feat"], dtype=np.int64)
            if feat.shape != self._gb_feat.shape:
                raise ValueError(
                    f"snapshot stump arrays have shape {feat.shape}; "
                    f"expected {self._gb_feat.shape}"
                )
        self._store_params(slice(None), saved)


class LearnedPredictor(ScalarFace):
    """Scalar face of :class:`LearnedKernel` (one node, same arithmetic).

    Accepts every kernel keyword; ``make_predictor("ridge", N, ...)``
    and ``make_predictor("gbm", N, ...)`` build these.
    """

    def __init__(self, n_slots: int, model: Optional[str] = None, **kwargs):
        super().__init__(LearnedKernel(n_slots, batch_size=1, model=model, **kwargs))

    # Delegated surface ------------------------------------------------
    @property
    def model(self) -> str:
        """Model kind (``ridge`` / ``gbm``)."""
        return self._kernel.model

    @property
    def frozen(self) -> bool:
        """True when serving a fitted artifact (no online refits)."""
        return self._kernel.frozen

    @property
    def is_fitted(self) -> bool:
        """True once a model (online fit or frozen artifact) is active."""
        return self._kernel.is_fitted

    @property
    def fit_count(self) -> int:
        """Number of online refits performed since reset."""
        return self._kernel.fit_count

    def state_dict(self) -> dict:
        """The kernel's own (``B == 1``) checkpoint."""
        return self._kernel.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self._kernel.load_state_dict(state)
