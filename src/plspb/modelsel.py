"""Balance-count model fitting, prediction error metrics and cross-validation.

Candidate models regress the response on the first k of max_k zero-sum
logcontrasts: the leading balance coordinates, or the SIMPLS weights of the
plain PLS route. K-fold cross-validation with seeded shuffling estimates
the prediction error per k, and the final size is chosen by the
one-standard-error rule: the smallest model whose mean error stays within
one standard error of the best mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coda import BalanceBasis, CompositionMatrix, _check_response
from .errors import (
    Collinear,
    EmptyInput,
    NonBinary,
    RankDeficient,
    TooFewSamples,
)
from .latent import pls_regression
from .pb import pca_pb, pls_pb

PLS_PB = "pls-pb"
PCA_PB = "pca-pb"
PLS_RAW = "pls"
METHODS = (PLS_PB, PCA_PB, PLS_RAW)

METRIC_RMSEP = "rmsep"
METRIC_ME = "me"

CLASSIFICATION_THRESHOLD = 0.5

# A design column whose residual after the earlier columns (its diagonal
# entry of R) is at most this fraction of the largest column norm is
# rounding noise: exact collinearity, e.g. a duplicated part, leaves ~1e-15.
_COLLINEAR_RTOL = 1e-10


@dataclass(frozen=True)
class BalanceModel:
    """Least-squares fit of the response on the first k balance coordinates."""

    basis: BalanceBasis
    coefficients: np.ndarray
    intercept: float

    @property
    def n_components(self) -> int:
        return len(self.coefficients)

    def predict(self, X: CompositionMatrix) -> np.ndarray:
        coords = self.basis.coordinates(X)[:, : self.n_components]
        return self.intercept + coords @ self.coefficients


@dataclass(frozen=True)
class CvResult:
    """Cross-validated error curve for the sizes 1..max_k, and the
    one-standard-error selection."""

    mean_error: np.ndarray
    sd_error: np.ndarray
    metric: str
    folds: int
    repeats: int

    def __post_init__(self):
        mean = np.array(self.mean_error, dtype=float)
        sd = np.array(self.sd_error, dtype=float)
        if mean.ndim != 1 or mean.size == 0 or mean.shape != sd.shape:
            raise ValueError("error curves must be nonempty 1-d with one length")
        if np.any(mean < 0) or np.any(sd < 0):
            raise ValueError("error summaries must be nonnegative")
        for name, arr in (("mean_error", mean), ("sd_error", sd)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def component_counts(self) -> np.ndarray:
        return np.arange(1, self.mean_error.shape[0] + 1)

    @property
    def selected_k(self) -> int:
        return one_se_select(self.mean_error, self.sd_error)


def rmsep(y, yhat) -> float:
    """Root mean squared error of prediction, sqrt(mean((y - yhat)^2))."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise ValueError("vectors must have equal length")
    if y.size == 0:
        raise EmptyInput("need at least one prediction")
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def misclassification_error(y, yhat) -> float:
    """Fraction of mismatched binary labels."""
    y = np.asarray(y)
    yhat = np.asarray(yhat)
    if y.shape != yhat.shape:
        raise ValueError("vectors must have equal length")
    if y.size == 0:
        raise EmptyInput("need at least one prediction")
    for arr in (y, yhat):
        if not np.all(np.isin(arr, (0, 1))):
            raise NonBinary("labels must be coded 0/1")
    return float(np.mean(y != yhat))


def one_se_select(mean_error, sd_error) -> int:
    """Smallest component count within one standard error of the minimum.

    Uses the standard error at the minimizing count (lowest index on ties)
    and returns a 1-based count.
    """
    mean_error = np.asarray(mean_error, dtype=float)
    sd_error = np.asarray(sd_error, dtype=float)
    if mean_error.shape != sd_error.shape or mean_error.ndim != 1:
        raise ValueError("mean and sd curves must be 1-d with equal length")
    if mean_error.size == 0:
        raise EmptyInput("need at least one candidate size")
    k_star = int(np.argmin(mean_error))
    threshold = mean_error[k_star] + sd_error[k_star]
    return int(np.flatnonzero(mean_error <= threshold)[0]) + 1


def _least_squares(Z: np.ndarray, y: np.ndarray):
    """Centred QR least squares of y on the columns of Z: the column means,
    ȳ, R and Qᵀ(y - ȳ). The fit on the first k columns reads only the
    leading k x k block of R and the first k entries of Qᵀ(y - ȳ).
    """
    n, k = Z.shape
    if n <= k:
        raise Collinear(f"{k} coordinates are collinear over {n} samples")
    col_means = Z.mean(axis=0)
    y_mean = float(y.mean())
    centred = Z - col_means
    q, r = np.linalg.qr(centred)
    scale = np.max(np.linalg.norm(centred, axis=0))
    if not np.all(np.abs(np.diag(r)) > _COLLINEAR_RTOL * scale):
        raise Collinear(f"{k} coordinates are collinear over {n} samples")
    return col_means, y_mean, r, q.T @ (y - y_mean)


def fit_on_balances(
    X: CompositionMatrix, y, basis: BalanceBasis, k: int
) -> BalanceModel:
    """Ordinary least squares of y on the first k balance coordinates.

    The coordinates are orthonormal in coefficient space but can only stay
    independent in sample space when there are more samples than
    regressors; otherwise the fit is reported as collinear.
    """
    y = _check_response(y, X.n_samples)
    if not 1 <= k <= basis.n_balances:
        raise ValueError(f"k={k} outside 1..{basis.n_balances}")
    col_means, y_mean, r, qty = _least_squares(basis.coordinates(X)[:, :k], y)
    slope = np.linalg.solve(r, qty)
    intercept = y_mean - float(col_means @ slope)
    return BalanceModel(basis=basis, coefficients=slope, intercept=intercept)


def _check_folds(n: int, folds: int) -> None:
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if n < folds:
        raise TooFewSamples(f"{n} samples cannot fill {folds} folds")


def fold_indices(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffle 0..n-1 and cut the permutation into contiguous folds.

    The first n mod folds folds receive one extra row.
    """
    _check_folds(n, folds)
    perm = rng.permutation(n)
    base, extra = divmod(n, folds)
    out = []
    start = 0
    for f in range(folds):
        size = base + (1 if f < extra else 0)
        out.append(perm[start : start + size])
        start += size
    return out


def _repeat_errors(X, log_x, y, method, max_k, folds, metric, rng):
    """One repeat: shuffle folds, fit per fold, pool held-out errors per k.

    Every size k of a fold comes from one QR of its training logcontrasts
    and one triangular solve for its held-out rows.
    """
    n = X.n_samples
    predictions = np.empty((n, max_k))
    for test_idx in fold_indices(n, folds, rng):
        train_idx = np.delete(np.arange(n), test_idx)
        X_train = X.take_samples(train_idx)
        y_train = y[train_idx]
        if method == PLS_RAW:
            contrasts = pls_regression(X_train, y_train, max_k).weights
        else:
            if method == PLS_PB:
                basis = pls_pb(X_train, y_train, max_k=max_k)
            else:
                basis = pca_pb(X_train, max_k=max_k)
            contrasts = basis.coefficient_matrix
        design = log_x @ contrasts
        col_means, y_mean, r, qty = _least_squares(design[train_idx], y_train)
        heldout = np.linalg.solve(r.T, (design[test_idx] - col_means).T).T
        predictions[test_idx] = y_mean + np.cumsum(heldout * qty, axis=1)
    if metric == METRIC_ME:
        labels = (predictions >= CLASSIFICATION_THRESHOLD).astype(int)
        return np.array([misclassification_error(y.astype(int), col) for col in labels.T])
    return np.array([rmsep(y, col) for col in predictions.T])


def aggregate_error_runs(error_matrix, metric, folds, repeats) -> CvResult:
    """Summarize per-run error curves into means, SDs and a selected size.

    The standard deviation is taken across runs with the n-1 divisor and
    enters the one-SE rule undivided.
    """
    errs = np.asarray(error_matrix, dtype=float)
    if errs.ndim != 2 or errs.shape[0] < 1:
        raise ValueError("need a runs x k error matrix")
    mean = errs.mean(axis=0)
    sd = errs.std(axis=0, ddof=1) if errs.shape[0] > 1 else np.zeros(errs.shape[1])
    return CvResult(mean_error=mean, sd_error=sd, metric=metric, folds=folds, repeats=repeats)


def cross_validate(
    X: CompositionMatrix,
    y,
    method: str,
    max_k: int,
    folds: int = 5,
    repeats: int = 1,
    seed: int = 0,
    metric: str = METRIC_RMSEP,
) -> CvResult:
    """K-fold cross-validation of balance-count (or component-count) models.

    Every repeat reshuffles the fold assignment from its own seeded stream,
    fits bases and regressions on training folds only, and pools the
    held-out predictions into one error value per candidate size. Results
    are bit-reproducible for a fixed (inputs, seed) pair.
    """
    y = _check_response(y, X.n_samples)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if metric not in (METRIC_RMSEP, METRIC_ME):
        raise ValueError(f"unknown metric {metric!r}")
    if repeats < 1:
        raise ValueError("need at least one repeat")
    n = X.n_samples
    _check_folds(n, folds)
    min_train = n - (n // folds + (1 if n % folds else 0))
    limit = min(X.n_parts - 1, min_train - 1)
    if not 1 <= max_k <= X.n_parts - 1:
        raise ValueError(f"max_k={max_k} outside 1..{X.n_parts - 1}")
    if max_k > limit:
        if method == PLS_RAW:
            raise RankDeficient(f"max_k={max_k} exceeds trainable rank {limit}")
        raise Collinear(f"max_k={max_k} regressors need more than {min_train} rows")
    if metric == METRIC_ME and not np.all(np.isin(y, (0, 1))):
        raise NonBinary("misclassification error needs a 0/1-coded response")

    log_x = np.log(X.values)
    streams = np.random.SeedSequence(seed).spawn(repeats)
    errors = np.empty((repeats, max_k))
    for r in range(repeats):
        rng = np.random.default_rng(streams[r])
        errors[r] = _repeat_errors(X, log_x, y, method, max_k, folds, metric, rng)
    return aggregate_error_runs(errors, metric, folds, repeats)
