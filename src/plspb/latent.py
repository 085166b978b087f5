"""Single-response PLS (SIMPLS) on clr coordinates.

``pls_regression`` centres the clr block and the response and runs SIMPLS
on them. The weight columns of the fitted ``LatentModel`` sum to zero, so
every latent component is a logcontrast of the parts. For determinism,
scores have unit norm (the weights carry the scale), each weight column is
flipped so its largest-magnitude entry is positive, and the deflated
cross-product, a score or a loading falling to 1e-10 of its scale marks the
rank boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coda import CompositionMatrix, _check_response, clr
from .errors import ConstantResponse, DimensionMismatch, RankDeficient

_RANK_TOL = 1e-10
_WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class LatentModel:
    """Fitted SIMPLS model of a response on clr data.

    ``weights`` maps centred clr rows to unit-norm, mutually orthogonal
    scores T = (clr(X) - x_mean) @ W, and ``latent_coefficients`` =
    Tᵀ(y - y_mean) regresses the centred response on them, giving
    predictions y_mean + (clr(X) - x_mean) @ W @ v.
    """

    weights: np.ndarray
    latent_coefficients: np.ndarray
    x_mean: np.ndarray
    y_mean: float

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch("weights must be a parts x components matrix")
        d, k = w.shape
        if k < 1 or k > d - 1:
            raise RankDeficient(f"{k} components not representable for {d} parts")
        col_scale = np.maximum(1.0, np.abs(w).max(axis=0))
        if not np.all(np.abs(w.sum(axis=0)) / col_scale <= _WEIGHT_SUM_TOL):
            raise ValueError("weight columns must sum to zero (clr hyperplane)")
        v = np.array(self.latent_coefficients, dtype=float)
        if v.shape != (k,):
            raise DimensionMismatch("latent coefficients must have length k")
        x_mean = np.array(self.x_mean, dtype=float)
        if x_mean.shape != (d,):
            raise DimensionMismatch("x_mean must have one entry per part")
        for name, arr in (("weights", w), ("latent_coefficients", v), ("x_mean", x_mean)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "y_mean", float(self.y_mean))

    @property
    def n_components(self) -> int:
        return self.weights.shape[1]

    @property
    def n_parts(self) -> int:
        return self.weights.shape[0]


def pls_regression(X: CompositionMatrix, y, k: int | None = None) -> LatentModel:
    """Fit a k-component SIMPLS model of y on the clr coordinates of X.

    With Xc the column-centred clr block and yc the centred response, the
    first component maximizes |cov(Xc p, yc)| subject to ||Xc p|| = 1; later
    ones maximize it with scores orthogonal to all earlier scores, by
    deflating the cross-product against the orthonormalized loadings.

    ``k=None`` fits components up to the rank boundary, where the fit has
    reached least squares, at most min(D-1, n-1); an explicit k past it
    raises ``RankDeficient``. The training means are kept for prediction.
    """
    n, d = X.n_samples, X.n_parts
    y = _check_response(y, n)
    raw = clr(X)
    x_mean = raw.mean(axis=0)
    y_mean = float(y.mean())
    Xc = raw - x_mean
    yc = y - y_mean
    if np.ptp(yc) == 0.0:
        raise ConstantResponse("response has zero variance")
    max_k = min(d - 1, n - 1)
    if k is not None and (k < 1 or k > max_k):
        raise RankDeficient(f"k={k} outside 1..{max_k} for {n}x{d} data")

    x_scale = np.linalg.norm(Xc)
    if x_scale == 0.0:
        raise RankDeficient("clr data is constant")
    s = Xc.T @ yc
    s0_norm = np.linalg.norm(s)
    if s0_norm == 0.0:
        raise RankDeficient("response is orthogonal to the clr data")

    n_fit = max_k if k is None else k
    weights = np.zeros((d, n_fit))
    scores = np.zeros((n, n_fit))
    loading_basis = np.zeros((d, n_fit))
    fitted = 0
    for a in range(n_fit):
        # The centered clr matrix annihilates the all-ones direction, so
        # removing the mean of every working vector is an exact no-op that
        # stops float drift out of the zero-sum hyperplane as s deflates.
        s = s - s.mean()
        s_norm = np.linalg.norm(s)
        if s_norm <= _RANK_TOL * s0_norm:
            break
        direction = s / s_norm
        t = Xc @ direction
        t_norm = np.linalg.norm(t)
        if t_norm <= _RANK_TOL * x_scale:
            break
        weights[:, a] = direction / t_norm
        scores[:, a] = t / t_norm

        loading = Xc.T @ scores[:, a]
        loading = loading - loading.mean()
        # Orthonormalize against previous loading directions (twice, for
        # numerical stability at high component counts).
        basis = loading_basis[:, :a]
        for _ in range(2):
            loading = loading - basis @ (basis.T @ loading)
        loading_norm = np.linalg.norm(loading)
        if loading_norm <= _RANK_TOL * x_scale:
            break
        loading_basis[:, a] = loading / loading_norm
        basis = loading_basis[:, : a + 1]
        s = s - basis @ (basis.T @ s)
        fitted = a + 1
    if fitted < n_fit and (k is not None or fitted == 0):
        raise RankDeficient(f"rank boundary reached at component {fitted + 1}")

    weights, scores = weights[:, :fitted], scores[:, :fitted]
    # Flip each weight column and its scores so its largest |entry| (first within 1e-9) is positive.
    for j in range(fitted):
        magnitudes = np.abs(weights[:, j])
        if weights[(magnitudes >= magnitudes.max() * (1 - 1e-9)).argmax(), j] < 0:
            weights[:, j] = -weights[:, j]
            scores[:, j] = -scores[:, j]
    return LatentModel(weights, scores.T @ yc, x_mean, y_mean)


def predict_components(model: LatentModel, Xnew: CompositionMatrix, k: int) -> np.ndarray:
    """Predict using only the first k components of a fitted PLS model."""
    if k < 1 or k > model.n_components:
        raise RankDeficient(f"k={k} outside 1..{model.n_components}")
    if Xnew.n_parts != model.n_parts:
        raise DimensionMismatch(
            f"model expects {model.n_parts} parts, data has {Xnew.n_parts}"
        )
    z = clr(Xnew) - model.x_mean
    return model.y_mean + z @ model.weights[:, :k] @ model.latent_coefficients[:k]


def pls_predict(model: LatentModel, Xnew: CompositionMatrix) -> np.ndarray:
    """Predict the response for new compositions with all fitted components."""
    return predict_components(model, Xnew, model.n_components)


def classify(model: LatentModel, Xnew: CompositionMatrix, threshold: float = 0.5) -> np.ndarray:
    """Binary labels from a PLS-DA model fitted on a 0/1-coded response.

    A sample is labeled 1 when its predicted score is at least ``threshold``.
    """
    return (pls_predict(model, Xnew) >= threshold).astype(int)
