"""Latent-variable engines on clr coordinates.

Single-response PLS in the SIMPLS style and PCA via singular value
decomposition. Both return an immutable ``LatentModel`` whose weight
columns live in the clr hyperplane (they sum to zero), so every latent
component is a logcontrast of the original parts.

Conventions fixed here for determinism:

- scores are scaled to unit norm and the weights carry the scale, so the
  score constraint ||clr(X) p|| = 1 holds per component;
- each weight column is flipped so its largest-magnitude entry is positive;
- singular values below 1e-10 of the largest mark the rank boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coda import ClrMatrix, CompositionMatrix, center_columns, clr
from .errors import BalanceError, ConstantResponse, DimensionMismatch, RankDeficient

KIND_PLS = "PLS"
KIND_PCA = "PCA"

_RANK_TOL = 1e-10
_SCORE_ORTHO_TOL = 1e-8
_WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class LatentModel:
    """Fitted latent decomposition of centered clr data.

    ``weights`` maps centered clr rows to scores (T = Xc @ W). For PLS,
    ``latent_coefficients`` regresses the response on the scores, giving
    predictions y_mean + (clr(X) - x_mean) @ W @ v. PCA models have no
    regression part and carry ``explained_variance`` instead.
    """

    weights: np.ndarray
    scores: np.ndarray
    latent_coefficients: np.ndarray | None
    x_mean: np.ndarray
    y_mean: float
    n_components: int
    kind: str
    explained_variance: np.ndarray | None = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        t = np.array(self.scores, dtype=float)
        n, k = t.shape
        d = w.shape[0]
        if w.shape != (d, k) or k != self.n_components:
            raise DimensionMismatch("weights and scores disagree on components")
        if self.kind not in (KIND_PLS, KIND_PCA):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if k < 1 or k > min(d - 1, n - 1):
            raise RankDeficient(
                f"{k} components not representable for {n} samples x {d} parts"
            )
        col_scale = np.maximum(1.0, np.abs(w).max(axis=0))
        if not np.all(np.abs(w.sum(axis=0)) / col_scale <= _WEIGHT_SUM_TOL):
            raise ValueError("weight columns must sum to zero (clr hyperplane)")
        if self.kind == KIND_PLS:
            gram = t.T @ t
            off = gram - np.diag(np.diag(gram))
            if not np.all(np.abs(off) <= _SCORE_ORTHO_TOL):
                raise ValueError("PLS score vectors must be mutually orthogonal")
        x_mean = np.array(self.x_mean, dtype=float)
        if x_mean.shape != (d,):
            raise DimensionMismatch("x_mean must have one entry per part")
        v = self.latent_coefficients
        if v is not None:
            v = np.array(v, dtype=float)
            if v.shape != (k,):
                raise DimensionMismatch("latent coefficients must have length k")
            v.setflags(write=False)
        ev = self.explained_variance
        if ev is not None:
            ev = np.array(ev, dtype=float)
            if ev.shape != (k,):
                raise DimensionMismatch("explained variances must have length k")
            ev.setflags(write=False)
        for name, arr in (("weights", w), ("scores", t), ("x_mean", x_mean)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "latent_coefficients", v)
        object.__setattr__(self, "explained_variance", ev)
        object.__setattr__(self, "y_mean", float(self.y_mean))

    @property
    def n_parts(self) -> int:
        return self.weights.shape[0]


def _require_centered(xclr: ClrMatrix) -> np.ndarray:
    if not xclr.centered:
        raise ValueError("fit requires a column-centered ClrMatrix")
    return xclr.values


def _flip_to_positive_max(weights: np.ndarray, *companions: np.ndarray) -> None:
    """Flip columns in place so the largest-|entry| of each weight is positive.

    Magnitudes within a relative 1e-9 of the maximum count as tied and the
    lowest index wins, so the orientation is stable against rounding noise
    (symmetric two-entry weights tie only up to float error).
    """
    for j in range(weights.shape[1]):
        magnitudes = np.abs(weights[:, j])
        lead = int(np.flatnonzero(magnitudes >= magnitudes.max() * (1 - 1e-9))[0])
        if weights[lead, j] < 0:
            weights[:, j] = -weights[:, j]
            for arr in companions:
                if arr.ndim == 2:
                    arr[:, j] = -arr[:, j]
                else:
                    arr[j] = -arr[j]


def pls_fit(
    xclr: ClrMatrix,
    y,
    k: int,
    x_mean=None,
    y_mean: float = 0.0,
) -> LatentModel:
    """Fit a k-component SIMPLS model of a centered response on centered clr data.

    The first component maximizes |cov(Xc p, y)| subject to ||Xc p|| = 1;
    later components maximize the same covariance with scores orthogonal to
    all previous scores, obtained by deflating the cross-product vector
    against the orthonormalized loading directions.

    ``x_mean`` and ``y_mean`` are stored for prediction and default to the
    origin; pass the training means when the caller did the centering.
    """
    X = _require_centered(xclr)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if y.shape != (n,):
        raise DimensionMismatch(f"response length {y.shape} does not match {n} rows")
    if not np.all(np.isfinite(y)):
        raise BalanceError("response values must be finite")
    if np.ptp(y) == 0.0:
        raise ConstantResponse("response has zero variance")
    max_k = min(d - 1, n - 1)
    if k < 1 or k > max_k:
        raise RankDeficient(f"k={k} outside 1..{max_k} for {n}x{d} data")

    x_scale = np.linalg.norm(X)
    if x_scale == 0.0:
        raise RankDeficient("clr data is constant")
    s = X.T @ y
    s0_norm = np.linalg.norm(s)
    if s0_norm == 0.0:
        raise RankDeficient("response is orthogonal to the clr data")

    weights = np.zeros((d, k))
    scores = np.zeros((n, k))
    loading_basis = np.zeros((d, k))
    for a in range(k):
        # The centered clr matrix annihilates the all-ones direction, so
        # removing the mean of every working vector is an exact no-op that
        # stops float drift out of the zero-sum hyperplane as s deflates.
        s = s - s.mean()
        s_norm = np.linalg.norm(s)
        if s_norm <= _RANK_TOL * s0_norm:
            raise RankDeficient(f"rank boundary reached at component {a + 1}")
        direction = s / s_norm
        t = X @ direction
        t_norm = np.linalg.norm(t)
        if t_norm <= _RANK_TOL * x_scale:
            raise RankDeficient(f"rank boundary reached at component {a + 1}")
        weights[:, a] = direction / t_norm
        scores[:, a] = t / t_norm

        loading = X.T @ scores[:, a]
        loading = loading - loading.mean()
        # Orthonormalize against previous loading directions (twice, for
        # numerical stability at high component counts).
        basis = loading_basis[:, :a]
        for _ in range(2):
            loading = loading - basis @ (basis.T @ loading)
        loading_norm = np.linalg.norm(loading)
        if loading_norm <= _RANK_TOL * x_scale:
            raise RankDeficient(f"rank boundary reached at component {a + 1}")
        loading_basis[:, a] = loading / loading_norm
        basis = loading_basis[:, : a + 1]
        s = s - basis @ (basis.T @ s)

    _flip_to_positive_max(weights, scores)
    latent_coefficients = scores.T @ y
    if x_mean is None:
        x_mean = np.zeros(d)
    return LatentModel(
        weights=weights,
        scores=scores,
        latent_coefficients=latent_coefficients,
        x_mean=x_mean,
        y_mean=y_mean,
        n_components=k,
        kind=KIND_PLS,
    )


def pca_fit(xclr: ClrMatrix, k: int, x_mean=None) -> LatentModel:
    """Top-k principal directions of centered clr data via SVD.

    Weight columns are unit-norm, mutually orthogonal eigenvectors of the
    clr covariance matrix with non-increasing explained variances.
    """
    X = _require_centered(xclr)
    n, d = X.shape
    max_k = min(d - 1, n - 1)
    if k < 1 or k > max_k:
        raise RankDeficient(f"k={k} outside 1..{max_k} for {n}x{d} data")
    _, singular_values, vt = np.linalg.svd(X, full_matrices=False)
    if singular_values[0] == 0.0:
        raise RankDeficient("clr data is constant")
    effective_rank = int(np.sum(singular_values > _RANK_TOL * singular_values[0]))
    if k > effective_rank:
        raise RankDeficient(f"k={k} exceeds effective rank {effective_rank}")
    weights = vt[:k].T.copy()
    _flip_to_positive_max(weights)
    scores = X @ weights
    explained = singular_values[:k] ** 2 / (n - 1)
    if x_mean is None:
        x_mean = np.zeros(d)
    return LatentModel(
        weights=weights,
        scores=scores,
        latent_coefficients=None,
        x_mean=x_mean,
        y_mean=0.0,
        n_components=k,
        kind=KIND_PCA,
        explained_variance=explained,
    )


def pls_regression(X: CompositionMatrix, y, k: int) -> LatentModel:
    """Convenience pipeline: clr transform, center X and y, fit SIMPLS.

    Stores the training means so predictions return to the response scale.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (X.n_samples,):
        raise DimensionMismatch("response length must match the sample count")
    if not np.all(np.isfinite(y)):
        raise BalanceError("response values must be finite")
    raw = clr(X)
    x_mean = raw.values.mean(axis=0)
    y_mean = float(y.mean())
    centered = center_columns(raw)
    return pls_fit(centered, y - y_mean, k, x_mean=x_mean, y_mean=y_mean)


def predict_components(model: LatentModel, Xnew: CompositionMatrix, k: int) -> np.ndarray:
    """Predict using only the first k components of a fitted PLS model."""
    if model.latent_coefficients is None:
        raise ValueError("model has no regression part (PCA fit)")
    if k < 1 or k > model.n_components:
        raise RankDeficient(f"k={k} outside 1..{model.n_components}")
    if Xnew.n_parts != model.n_parts:
        raise DimensionMismatch(
            f"model expects {model.n_parts} parts, data has {Xnew.n_parts}"
        )
    z = clr(Xnew).values - model.x_mean
    return model.y_mean + z @ model.weights[:, :k] @ model.latent_coefficients[:k]


def pls_predict(model: LatentModel, Xnew: CompositionMatrix) -> np.ndarray:
    """Predict the response for new compositions with all fitted components."""
    return predict_components(model, Xnew, model.n_components)


def classify(model: LatentModel, Xnew: CompositionMatrix, threshold: float = 0.5) -> np.ndarray:
    """Binary labels from a PLS-DA model fitted on a 0/1-coded response.

    A sample is labeled 1 when its predicted score is at least ``threshold``.
    """
    return (pls_predict(model, Xnew) >= threshold).astype(int)
