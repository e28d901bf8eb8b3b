"""Seeded trainable models for the learned predictor tier (numpy only).

Two model families, both deliberately small and fully deterministic:

* :func:`fit_ridge` -- a deterministic standardizer (zero-variance
  columns get unit scale instead of dividing by zero) followed by a
  closed-form ridge regression via the normal equations.  No iteration,
  no randomness: byte-identical weights for identical inputs.
* :func:`fit_gbm` -- gradient-boosted regression stumps on the raw
  features (stumps are scale-invariant, so no standardizer).  Each
  round greedily picks the (feature, quantile-threshold) split with the
  best squared-error gain over an optionally subsampled row set; ties
  break toward the lowest (feature, threshold) index and the subsample
  comes from a caller-supplied ``numpy`` Generator, so training is a
  pure function of ``(X, y, config, seed)`` -- independent of process,
  platform hash seed, or dict order.

Model parameters are plain dicts of numpy arrays/scalars with a
``kind`` tag, built in a fixed key order so pickled artifacts are
byte-stable; :func:`predict_model` scores a whole ``(n, F)`` matrix and
is what offline evaluation uses, while the online kernel keeps stacked
per-node copies of the same arrays for batched prediction.

**Batched training kernels.**  :func:`fit_ridge_batch` and
:func:`fit_gbm_batch` fit ``B`` independent nodes from one stacked
``(n, B, F)`` / ``(n, B)`` training window in a single pass: batched
normal equations through ``np.linalg.solve`` over ``(B, F, F)``, and a
cross-node stump search that scores every (node, feature) pair's
``(n_sub, Q)`` split mask per round with stacked gufunc matmuls, a
cache-sized chunk of pairs at a time.  Both are pinned
*bitwise* against the frozen scalar loops kept as a test oracle
(``tests/oracles/learn.py``) -- split selection is an argmax over
gains, so "close" is not good enough; every stacked operation here is
one whose per-slice reduction order provably matches the scalar code
path (in particular: means are taken over contiguous rows, matmul core
slices keep the reference ``(n, Q)`` shape, and the residual subset is
gathered rather than zero-padded).  The scalar :func:`fit_gbm` is the
``B == 1`` face of the batched kernel, which is what vectorizes its
per-feature split-search loop too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np

__all__ = [
    "MODEL_KINDS",
    "GBM_MASK_CHUNK",
    "TrainingConfig",
    "fit_standardizer",
    "fit_ridge",
    "fit_gbm",
    "fit_model",
    "fit_ridge_batch",
    "fit_gbm_batch",
    "fit_model_batch",
    "unstack_params",
    "score_stumps",
    "predict_model",
]

#: Float64 split-mask elements the GBM batch kernel builds at once:
#: whole ``(n_sub, Q)`` masks of as many (node, feature) pairs as fit,
#: and never fewer than one.  The mask is written once and read by two
#: matmuls, so it pays to keep it in cache (2**16 elements = 512 KiB,
#: the fastest of 2**14..2**18 at the bench's refit shapes).  Every chunk
#: size gives the same bits -- each pair's matmul core slice is the
#: reference's own ``(n_sub,) @ (n_sub, Q)`` -- so this is a pure
#: working-set knob.
GBM_MASK_CHUNK = 1 << 16

#: Registered learned-model kinds (registry names match).
MODEL_KINDS = ("ridge", "gbm")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of the training loop and both model families.

    One config covers both kinds so a persisted artifact or predictor
    checkpoint records everything that shaped its weights.
    """

    min_train_days: int = 8     # complete days before the first online fit
    refit_days: int = 5         # days between online refits
    window_days: int = 60       # training window kept by the online kernel
    ridge_lambda: float = 1e-3  # L2 strength (per-row, standardized X)
    gbm_rounds: int = 50
    gbm_learning_rate: float = 0.12
    gbm_thresholds: int = 15    # quantile split candidates per feature
    gbm_subsample: float = 0.8  # row fraction per round (1.0 = all rows)
    gbm_min_leaf: int = 8       # minimum rows on each side of a split
    seed: int = 0

    def __post_init__(self):
        if self.min_train_days < 1:
            raise ValueError("min_train_days must be >= 1")
        if self.refit_days < 1:
            raise ValueError("refit_days must be >= 1")
        if self.window_days < self.min_train_days:
            raise ValueError("window_days must be >= min_train_days")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be non-negative")
        if self.gbm_rounds < 1:
            raise ValueError("gbm_rounds must be >= 1")
        if self.gbm_learning_rate <= 0:
            raise ValueError("gbm_learning_rate must be positive")
        if self.gbm_thresholds < 1:
            raise ValueError("gbm_thresholds must be >= 1")
        if not 0.0 < self.gbm_subsample <= 1.0:
            raise ValueError("gbm_subsample must be in (0, 1]")
        if self.gbm_min_leaf < 1:
            raise ValueError("gbm_min_leaf must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        """Plain-scalar form, field order fixed by the dataclass."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrainingConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown training-config keys: {unknown}")
        return cls(**data)


def fit_standardizer(X: np.ndarray):
    """Per-column ``(mean, scale)``; zero-variance columns get scale 1.

    The unit fallback keeps constant columns (night slots, unfired
    quality flags) finite under transform instead of producing NaNs.
    """
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    scale = np.where(std > 1e-12, std, 1.0)
    return mean, scale


def fit_ridge(X: np.ndarray, y: np.ndarray, lam: float) -> dict:
    """Closed-form ridge on standardized features; returns a param dict.

    Solves ``(Xs^T Xs + lam * n * I) w = Xs^T (y - ybar)`` with ``Xs``
    standardized, so ``lam`` is a per-row penalty independent of the
    training-set size, and the intercept (``ybar``) is unpenalised.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, n_features = X.shape
    mean, scale = fit_standardizer(X)
    Xs = (X - mean) / scale
    ybar = float(y.mean())
    # lam=0 on collinear features would be singular; the per-row ridge
    # term keeps the system positive definite for any lam > 0.
    reg = max(lam, 1e-10) * n
    gram = Xs.T @ Xs + reg * np.eye(n_features)
    weights = np.linalg.solve(gram, Xs.T @ (y - ybar))
    return {
        "kind": "ridge",
        "mean": mean,
        "scale": scale,
        "weights": weights,
        "intercept": ybar,
    }


def fit_gbm(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Gradient-boosted regression stumps; returns a param dict.

    The stump arrays always have length ``config.gbm_rounds``: rounds
    that find no admissible split (degenerate/constant data) append a
    neutral stump (``left == right == 0``), so stacked per-node arrays
    in the fleet kernel stay rectangular.

    This is the ``B == 1`` face of :func:`fit_gbm_batch`, so the split
    search runs one vectorized gain tensor per round instead of a
    per-feature Python loop -- bitwise-identical to the frozen loop
    ``fit_gbm_reference`` in ``tests/oracles/learn.py``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    params = fit_gbm_batch(X[:, None, :], y[:, None], config, rng=rng)
    return {
        "kind": "gbm",
        "base": float(params["base"][0]),
        "learning_rate": params["learning_rate"],
        "feat": params["feat"][0].copy(),
        "thr": params["thr"][0].copy(),
        "left": params["left"][0].copy(),
        "right": params["right"][0].copy(),
    }


def fit_ridge_batch(X: np.ndarray, y: np.ndarray, lam: float) -> dict:
    """Fit ``B`` independent ridge models from one stacked window.

    ``X`` is ``(n, B, F)``, ``y`` is ``(n, B)``; the result dict holds
    the same keys as :func:`fit_ridge` with a leading node axis
    (``mean``/``scale``/``weights`` are ``(B, F)``, ``intercept`` is
    ``(B,)``).  One batched normal-equation solve over ``(B, F, F)``
    replaces ``B`` scalar solves, bitwise-identically: the gram/rhs
    gemms run on contiguous per-node slices of the reference shapes and
    ``ybar`` is reduced over contiguous rows (a stacked column mean
    would change the pairwise summation grouping).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, B, n_features = X.shape
    mean = X.mean(axis=0)  # (B, F)
    std = X.std(axis=0)
    scale = np.where(std > 1e-12, std, 1.0)
    Xs = (X - mean[None, :, :]) / scale[None, :, :]
    ybar = np.ascontiguousarray(y.T).mean(axis=1)  # (B,)
    reg = max(lam, 1e-10) * n
    Xs_b = np.ascontiguousarray(Xs.transpose(1, 0, 2))  # (B, n, F)
    gram = np.matmul(Xs_b.transpose(0, 2, 1), Xs_b) + reg * np.eye(n_features)
    rhs = np.ascontiguousarray((y - ybar[None, :]).T)[:, :, None]  # (B, n, 1)
    weights = np.linalg.solve(
        gram, np.matmul(Xs_b.transpose(0, 2, 1), rhs)
    )[:, :, 0]
    return {
        "kind": "ridge",
        "mean": mean,
        "scale": scale,
        "weights": weights,
        "intercept": ybar,
    }


def fit_gbm_batch(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Fit ``B`` independent GBMs from one stacked window.

    ``X`` is ``(n, B, F)``, ``y`` is ``(n, B)``; the result dict holds
    the same keys as :func:`fit_gbm` with a leading node axis (``base``
    is ``(B,)``, the stump arrays are ``(B, rounds)``).

    The per-fit subsample stream is node-position-independent (the
    online kernel reseeds every node from ``(seed, fit_index)``), so
    one shared ``idx`` per round reproduces what ``B`` per-node
    generators would draw.  Each round then scores all ``B * F``
    (node, feature) pairs in chunks of :data:`GBM_MASK_CHUNK` mask
    elements: the chunk's ``(pairs, n_sub, Q)`` float mask is built
    once, in cache, in the reference's C layout, and two stacked
    matmuls read it -- a row of ones for the left counts (integer
    sums, exact in any order) and the pair's residual row for the left
    sums (core slices ``(n_sub,) @ (n_sub, Q)``, the reference's own
    gemv).  Nodes stop splitting independently: a node whose best gain
    is not positive goes permanently inactive (monotone, like the
    reference ``break``) and its remaining stumps stay neutral zeros,
    which also makes its residual update an exact no-op.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, B, n_features = X.shape
    rounds = config.gbm_rounds
    lr = config.gbm_learning_rate
    min_leaf = config.gbm_min_leaf
    n_thresholds = config.gbm_thresholds

    base = np.ascontiguousarray(y.T).mean(axis=1)  # (B,)
    residual = y - base[None, :]

    # Split candidates: interior quantiles of each feature, fixed once
    # over the full training set (subsampling varies rows, not splits).
    qs = np.arange(1, n_thresholds + 1) / (n_thresholds + 1)
    thr_bf = np.ascontiguousarray(
        np.quantile(X, qs, axis=0).transpose(1, 2, 0)
    )  # (B, F, Q)

    feat = np.zeros((B, rounds), dtype=np.int64)
    thr = np.zeros((B, rounds), dtype=float)
    left = np.zeros((B, rounds), dtype=float)
    right = np.zeros((B, rounds), dtype=float)

    n_sub = n
    if config.gbm_subsample < 1.0 and rng is not None:
        n_sub = max(2 * min_leaf, int(n * config.gbm_subsample + 0.5))
        n_sub = min(n_sub, n)

    # (node, feature) pairs, node-major: the rows of X per pair, each
    # pair's thresholds and its node (whose residual row it scores).
    n_pairs = B * n_features
    X_pairs = np.ascontiguousarray(X.transpose(1, 2, 0)).reshape(n_pairs, n)
    thr_pairs = thr_bf.reshape(n_pairs, n_thresholds)
    pair_node = np.repeat(np.arange(B), n_features)
    chunk = max(1, min(n_pairs, GBM_MASK_CHUNK // (n_sub * n_thresholds)))
    mask = np.empty((chunk, n_sub, n_thresholds))
    ones = np.ones((1, n_sub))
    counts = np.empty((n_pairs, 1, n_thresholds))
    sums = np.empty((n_pairs, 1, n_thresholds))

    active = np.ones(B, dtype=bool)
    nodes = np.arange(B)

    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(rounds):
            if n_sub < n:
                idx = np.sort(rng.choice(n, size=n_sub, replace=False))
                Xr, rr = X_pairs[:, idx], residual[idx]
            else:
                Xr, rr = X_pairs, residual
            rrT = np.ascontiguousarray(rr.T)  # (B, n_sub)
            r_total = rrT.sum(axis=1)  # (B,) == per-node rr.sum()
            for start in range(0, n_pairs, chunk):
                stop = min(start + chunk, n_pairs)
                m = mask[: stop - start]
                np.less_equal(
                    Xr[start:stop, :, None], thr_pairs[start:stop, None, :], out=m
                )
                np.matmul(ones, m, out=counts[start:stop])
                np.matmul(
                    rrT[pair_node[start:stop], None, :], m, out=sums[start:stop]
                )
            n_left = counts.reshape(B, n_features, n_thresholds).astype(np.int64)
            s_left = sums.reshape(B, n_features, n_thresholds)
            n_right = n_sub - n_left
            ok = (n_left >= min_leaf) & (n_right >= min_leaf)
            s_right = r_total[:, None, None] - s_left
            gain = np.where(
                ok,
                s_left**2 / np.maximum(n_left, 1)
                + s_right**2 / np.maximum(n_right, 1),
                -np.inf,
            )
            # First-occurrence argmax over the flattened (F, Q) grid is
            # exactly the reference tie-break: lowest feature, then
            # lowest threshold index; acceptance is a strictly positive
            # gain, as in the reference's ``best_gain = 0.0`` start.
            pick = np.argmax(gain.reshape(B, -1), axis=1)
            f_pick = pick // n_thresholds
            q_pick = pick - f_pick * n_thresholds
            best_val = gain[nodes, f_pick, q_pick]
            active &= best_val > 0.0
            if not active.any():
                break  # every node's remaining stumps stay neutral
            sel_n_left = n_left[nodes, f_pick, q_pick]
            sel_s_left = s_left[nodes, f_pick, q_pick]
            feat[:, r] = np.where(active, f_pick, 0)
            thr[:, r] = np.where(active, thr_bf[nodes, f_pick, q_pick], 0.0)
            left[:, r] = np.where(active, sel_s_left / sel_n_left, 0.0)
            right[:, r] = np.where(
                active,
                (r_total - sel_s_left) / (n_sub - sel_n_left),
                0.0,
            )
            vals = X[:, nodes, feat[:, r]]  # (n, B)
            step = np.where(
                vals <= thr[None, :, r], left[None, :, r], right[None, :, r]
            )
            residual = residual - lr * step

    return {
        "kind": "gbm",
        "base": base,
        "learning_rate": lr,
        "feat": feat,
        "thr": thr,
        "left": left,
        "right": right,
    }


def fit_model(
    kind: str,
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Dispatch to the model family's fit function."""
    if kind == "ridge":
        return fit_ridge(X, y, config.ridge_lambda)
    if kind == "gbm":
        return fit_gbm(X, y, config, rng=rng)
    raise ValueError(f"unknown model kind {kind!r}; known: {MODEL_KINDS}")


def fit_model_batch(
    kind: str,
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Dispatch to the model family's stacked ``(n, B, F)`` fit kernel."""
    if kind == "ridge":
        return fit_ridge_batch(X, y, config.ridge_lambda)
    if kind == "gbm":
        return fit_gbm_batch(X, y, config, rng=rng)
    raise ValueError(f"unknown model kind {kind!r}; known: {MODEL_KINDS}")


def unstack_params(params: dict, node: int = 0) -> dict:
    """One node's scalar param dict out of a stacked batch-fit result.

    The returned dict is key-for-key and bitwise what the scalar fit
    functions produce for that node's column, so artifacts built
    through the batched path digest identically to loop-trained ones.
    """
    kind = params["kind"]
    if kind == "ridge":
        return {
            "kind": "ridge",
            "mean": params["mean"][node].copy(),
            "scale": params["scale"][node].copy(),
            "weights": params["weights"][node].copy(),
            "intercept": float(params["intercept"][node]),
        }
    if kind == "gbm":
        return {
            "kind": "gbm",
            "base": float(params["base"][node]),
            "learning_rate": params["learning_rate"],
            "feat": params["feat"][node].copy(),
            "thr": params["thr"][node].copy(),
            "left": params["left"][node].copy(),
            "right": params["right"][node].copy(),
        }
    raise ValueError(f"unknown model kind {kind!r}; known: {MODEL_KINDS}")


def score_stumps(
    vals: np.ndarray,
    thr: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    base,
    learning_rate: float,
) -> np.ndarray:
    """The GBM stump walk shared by every scoring path.

    ``vals`` holds each row's gathered split-feature values against
    per-round thresholds/leaves (all ``(..., rounds)``, broadcastable);
    ``base`` is a scalar or one value per leading row.  Offline scoring
    (:func:`predict_model`) and the online kernel's stacked per-node
    prediction both reduce to exactly this compare/select/sum.
    """
    steps = np.where(vals <= thr, left, right)
    return base + learning_rate * steps.sum(axis=-1)


def predict_model(params: dict, X: np.ndarray) -> np.ndarray:
    """Score an ``(n, F)`` feature matrix with a fitted param dict."""
    X = np.asarray(X, dtype=float)
    kind = params["kind"]
    if kind == "ridge":
        Xs = (X - params["mean"]) / params["scale"]
        return Xs @ params["weights"] + params["intercept"]
    if kind == "gbm":
        return score_stumps(
            X[:, params["feat"]],  # (n, R)
            params["thr"],
            params["left"],
            params["right"],
            params["base"],
            params["learning_rate"],
        )
    raise ValueError(f"unknown model kind {kind!r}; known: {MODEL_KINDS}")
