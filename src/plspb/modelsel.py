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

from .coda import CLASSIFICATION_THRESHOLD, BalanceBasis, CompositionMatrix, LogContrastModel
from .coda import _binary_exponent, _check_integer, _check_response, signs_to_coefficients
from .errors import (
    BalanceError,
    Collinear,
    DimensionMismatch,
    EmptyInput,
    NonBinary,
    RankDeficient,
    TooFewSamples,
)
from .latent import _simpls
from .pb import _leading_signs

PLS_PB = "pls-pb"
PCA_PB = "pca-pb"
PLS_RAW = "pls"
METHODS = (PLS_PB, PCA_PB, PLS_RAW)

METRIC_RMSEP = "rmsep"
METRIC_ME = "me"

# A design column whose residual after the earlier columns (its diagonal
# entry of R) is at most this fraction of the largest column norm is
# rounding noise: exact collinearity, e.g. a duplicated part, leaves ~1e-15.
_COLLINEAR_RTOL = 1e-10


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
        _check_run_settings(self.metric, self.folds, self.repeats)
        mean = np.array(self.mean_error, dtype=float)
        sd = np.array(self.sd_error, dtype=float)
        if mean.ndim != 1 or mean.size == 0 or mean.shape != sd.shape:
            raise ValueError("error curves must be nonempty 1-d with one length")
        if not np.all(np.isfinite(mean) & np.isfinite(sd) & (mean >= 0) & (sd >= 0)):
            raise ValueError("error summaries must be finite and nonnegative")
        for name, arr in (("mean_error", mean), ("sd_error", sd)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def component_counts(self) -> np.ndarray:
        return np.arange(1, self.mean_error.shape[0] + 1)

    @property
    def selected_k(self) -> int:
        return one_se_select(self.mean_error, self.sd_error)


def _errors(y: np.ndarray, predictions: np.ndarray, metric: str) -> np.ndarray:
    """The error of every column of the n x sizes ``predictions`` against y,
    in one pass: RMSEP, or for ``METRIC_ME`` the fraction of 0/1 labels that
    differ. Each column's residuals form one contiguous row, scaled by its
    own power of two and scaled back, so the squares stay in range and the
    row's sum is the pairwise sum of that column alone: every error equals
    the single-column call's bit for bit."""
    n = y.shape[0]
    if metric == METRIC_ME:
        return np.count_nonzero(predictions != y[:, None], axis=0) / n
    residual = np.subtract(y, predictions.T, order="C")
    exponents = np.frexp(np.abs(residual).max(axis=1, initial=0.0))[1]
    np.ldexp(residual, -exponents[:, None], out=residual)
    return np.ldexp(np.sqrt(np.add.reduce(residual * residual, 1) / n), exponents)


def _check_predictions(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    """y and yhat as arrays of one nonempty shape."""
    y, yhat = np.asarray(y), np.asarray(yhat)
    if y.shape != yhat.shape:
        raise DimensionMismatch(f"y and yhat must have one shape, got {y.shape} and {yhat.shape}")
    if y.size == 0:
        raise EmptyInput("need at least one prediction")
    return y, yhat


def rmsep(y, yhat) -> float:
    """Root mean squared error of prediction, sqrt(mean((y - yhat)^2)),
    computed on the residuals scaled by a power of two and scaled back, so
    the squares stay in range and the result keeps its bits. A NaN or
    infinite value in either argument raises ``BalanceError``."""
    y, yhat = _check_predictions(np.asarray(y, dtype=float), np.asarray(yhat, dtype=float))
    for name, arr in (("y", y), ("yhat", yhat)):
        if not np.all(np.isfinite(arr)):
            raise BalanceError(f"{name} values must be finite")
    return float(_errors(y.reshape(-1), yhat.reshape(-1, 1), METRIC_RMSEP)[0])


def misclassification_error(y, yhat) -> float:
    """Fraction of mismatched binary labels."""
    y, yhat = _check_predictions(y, yhat)
    for arr in (y, yhat):
        if not np.all(np.isin(arr, (0, 1))):
            raise NonBinary("labels must be coded 0/1")
    return float(_errors(y.reshape(-1), yhat.reshape(-1, 1), METRIC_ME)[0])


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
    if not np.all(np.isfinite(mean_error) & np.isfinite(sd_error) & (sd_error >= 0)):
        raise ValueError("mean and sd curves must be finite, and sd_error nonnegative")
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
    col_means = np.add.reduce(Z, 0) / n  # Z.mean(axis=0), without the wrapper
    y_mean = float(np.add.reduce(y) / n)
    centred = Z - col_means
    q, r = np.linalg.qr(centred)
    scale = np.sqrt(np.add.reduce(centred * centred, 0)).max()  # the largest column norm
    if not np.all(np.abs(np.diag(r)) > _COLLINEAR_RTOL * scale):
        raise Collinear(f"{k} coordinates are collinear over {n} samples")
    return col_means, y_mean, r, q.T @ (y - y_mean)


def fit_on_balances(X: CompositionMatrix, y, basis: BalanceBasis, k: int) -> LogContrastModel:
    """Ordinary least squares of y on the first k balance coordinates, as
    the logcontrast model with coefficients B_k @ slopes.

    The coordinates are orthonormal in coefficient space but can only stay
    independent in sample space when there are more samples than
    regressors; otherwise the fit is reported as collinear.
    """
    y = _check_response(y, X.n_samples)
    _check_integer(k, "k", 1, basis.n_balances)
    col_means, y_mean, r, qty = _least_squares(basis.coordinates(X)[:, :k], y)
    slope = np.linalg.solve(r, qty)
    return LogContrastModel(basis.coefficient_matrix[:, :k] @ slope,
                            y_mean - float(col_means @ slope), basis.part_names)


def _check_folds(n: int, folds: int) -> None:
    if n < _check_integer(folds, "folds", 2):
        raise TooFewSamples(f"{n} samples cannot fill {folds} folds")


def fold_indices(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffle 0..n-1 and cut the permutation into contiguous folds.

    The first n mod folds folds receive one extra row.
    """
    _check_folds(_check_integer(n, "n"), folds)
    return np.array_split(rng.permutation(n), folds)


def _fold_predictions(log_x, y, method, max_k, folds, rng) -> np.ndarray:
    """One repeat: shuffle folds, fit per fold on ln X rows, and predict
    every row from the fold that holds it out, one column per size k.

    A fold's model of size k is the logcontrast model that
    ``fit_on_balances`` (or ``LatentModel.logcontrast``) returns, but every
    k comes from one QR of the training logcontrasts and one LU solve of
    Rᵀ for the held-out rows. The fold's logcontrasts are evaluated on every
    row: the training rows feed the QR, the held-out rows the predictions.
    """
    n = log_x.shape[0]
    predictions = np.empty((n, max_k))
    for test_idx in fold_indices(n, folds, rng):
        train = np.ones(n, dtype=bool)
        train[test_idx] = False
        log_train, y_train = log_x[train], y[train]
        if method == PLS_RAW:
            contrasts = _simpls(log_train, y_train, max_k).weights
        else:
            response = y_train if method == PLS_PB else None
            contrasts = signs_to_coefficients(_leading_signs(log_train, response, max_k)[0])
        design = log_x @ contrasts
        col_means, y_mean, r, qty = _least_squares(design[train], y_train)
        heldout = np.linalg.solve(r.T, (design[test_idx] - col_means).T).T
        predictions[test_idx] = y_mean + np.cumsum(heldout * qty, axis=1)
    return predictions


def _check_run_settings(metric, folds, repeats) -> None:
    """The settings a ``CvResult`` records: a known metric, at least 2 folds
    and at least 1 repeat."""
    if metric not in (METRIC_RMSEP, METRIC_ME):
        raise ValueError(f"unknown metric {metric!r}")
    _check_integer(folds, "folds", 2)
    _check_integer(repeats, "repeats", 1)


def aggregate_error_runs(error_matrix, metric, folds, repeats) -> CvResult:
    """Summarize per-run error curves into means, SDs and a selected size.

    The standard deviation is taken across runs with the n-1 divisor, on
    the errors scaled by a power of two and scaled back, and enters the
    one-SE rule undivided.
    """
    errs = np.asarray(error_matrix, dtype=float)
    if errs.ndim != 2 or errs.shape[0] < 1:
        raise ValueError("need a runs x k error matrix")
    mean, sd = errs.mean(axis=0), np.zeros(errs.shape[1])
    if errs.shape[0] > 1:
        exponent = _binary_exponent(errs)
        sd = np.ldexp(np.ldexp(errs, -exponent).std(axis=0, ddof=1), exponent)
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
    _check_run_settings(metric, folds, repeats)
    _check_integer(seed, "seed", 0)
    n = X.n_samples
    _check_folds(n, folds)
    min_train = n - (n // folds + (1 if n % folds else 0))
    if method != PLS_RAW and min_train < 3:
        raise TooFewSamples(f"{n} samples in {folds} folds: a basis build needs at least "
                            f"3 samples, got {min_train} in a training fold")
    limit = min(X.n_parts - 1, min_train - 1)
    if _check_integer(max_k, "max_k", 1, X.n_parts - 1) > limit:
        if method == PLS_RAW:
            raise RankDeficient(f"max_k={max_k} exceeds trainable rank {limit}")
        raise Collinear(f"max_k={max_k} regressors need more than {min_train} rows")
    if metric == METRIC_ME and not np.all(np.isin(y, (0, 1))):
        raise NonBinary("misclassification error needs a 0/1-coded response")

    log_x = np.log(X.values)
    errors = np.empty((repeats, max_k))
    for r, stream in enumerate(np.random.SeedSequence(seed).spawn(repeats)):
        rng = np.random.default_rng(stream)
        predictions = _fold_predictions(log_x, y, method, max_k, folds, rng)
        if metric == METRIC_ME:
            predictions = predictions >= CLASSIFICATION_THRESHOLD
        errors[r] = _errors(y, predictions, metric)
    return aggregate_error_runs(errors, metric, folds, repeats)
