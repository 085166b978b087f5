"""Single-response PLS (SIMPLS) on clr coordinates.

``pls_regression`` centres the clr block and the response and runs SIMPLS
on them. The weight columns of the fitted ``LatentModel`` sum to zero, so
every latent component is a logcontrast of the parts. For determinism,
scores have unit norm (the weights carry the scale), each weight column is
flipped so its largest-magnitude entry is positive, and the deflated
cross-product, a score or a loading falling to 1e-10 of its scale marks the
rank boundary. SIMPLS reads the response as y * 2^-e, with 2^-e the power
of two that brings max|y| into [0.5, 1), and scales the latent coefficients
and the response mean back by 2^e: the fit is linear in y, so this is exact,
the weights do not depend on the scale of y, and ||Xc'yc|| stays in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coda import CompositionMatrix, LogContrastModel, _binary_exponent, _check_integer
from .coda import _check_response
from .errors import ConstantResponse, DimensionMismatch, RankDeficient

# SIMPLS's rank boundary, relative; pb's no-signal rank tests read it too.
_RANK_TOL = 1e-10
_WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class LatentModel:
    """Fitted SIMPLS model of a response on clr data.

    ``weights`` maps centred clr rows to unit-norm, mutually orthogonal
    scores T = (clr(X) - x_mean) @ W, and ``latent_coefficients`` =
    Tᵀ(y - y_mean) regresses the centred response on them, giving
    predictions y_mean + (clr(X) - x_mean) @ W @ v: ``logcontrast`` returns
    that model.
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

    def logcontrast(self, k: int | None = None) -> LogContrastModel:
        """The first k components (all when None) as one logcontrast model:
        coefficients W_k @ v_k and intercept y_mean - x_mean @ W_k @ v_k."""
        k = self.n_components if k is None else _check_integer(k, "k")
        if not 1 <= k <= self.n_components:
            raise RankDeficient(f"k={k} outside 1..{self.n_components}")
        beta = self.weights[:, :k] @ self.latent_coefficients[:k]
        return LogContrastModel(beta, self.y_mean - float(self.x_mean @ beta))


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
    if k is not None:
        _check_integer(k, "k")
    return _simpls(np.log(X.values), _check_response(y, X.n_samples), k)


def _simpls(log: np.ndarray, y: np.ndarray, k: int | None) -> LatentModel:
    """``pls_regression`` on ln X and a checked response: the fold fit of ``cross_validate``.
    It calls the kernels of numpy's wrappers, bit for bit: a norm is
    sqrt(v @ v), a mean np.add.reduce(v) / len(v)."""
    n, d = log.shape
    raw = log - np.add.reduce(log, 1, keepdims=True) / d  # clr
    x_mean = np.add.reduce(raw, 0) / n
    exponent = _binary_exponent(y)
    y = np.ldexp(y, -exponent)
    y_mean = float(np.add.reduce(y) / n)
    Xc = raw - x_mean
    yc = y - y_mean
    if np.ptp(yc) == 0.0:
        raise ConstantResponse("response has zero variance")
    max_k = min(d - 1, n - 1)
    if k is not None and (k < 1 or k > max_k):
        raise RankDeficient(f"k={k} outside 1..{max_k} for {n}x{d} data")

    flat = Xc.reshape(-1)
    x_scale = math.sqrt(flat @ flat)
    if x_scale == 0.0:
        raise RankDeficient("clr data is constant")
    s = Xc.T @ yc
    s0_norm = math.sqrt(s @ s)
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
        s = s - np.add.reduce(s) / d
        s_norm = math.sqrt(s @ s)
        if s_norm <= _RANK_TOL * s0_norm:
            break
        direction = s / s_norm
        t = Xc @ direction
        t_norm = math.sqrt(t @ t)
        if t_norm <= _RANK_TOL * x_scale:
            break
        weights[:, a] = direction / t_norm
        scores[:, a] = t / t_norm

        loading = Xc.T @ scores[:, a]
        loading = loading - np.add.reduce(loading) / d
        # Orthonormalize against previous loading directions (twice, for
        # numerical stability at high component counts).
        basis = loading_basis[:, :a]
        for _ in range(2):
            loading = loading - basis @ (basis.T @ loading)
        loading_norm = math.sqrt(loading @ loading)
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
    return LatentModel(weights, np.ldexp(scores.T @ yc, exponent), x_mean,
                       math.ldexp(y_mean, exponent))
