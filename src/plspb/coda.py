"""Compositional data types and log-ratio transforms.

A composition is a vector of strictly positive parts carrying only relative
information: any positive rescaling of a row describes the same sample.
This module provides the container types used throughout the package and
the log-ratio machinery built on them:

- centered log-ratio (clr) coordinates,
- balance coefficients derived from sign patterns: a sign vector or a
  parts x balances sign matrix with entries in {-1, 0, +1},
- the logcontrast model that every fitted regression predicts with,
- the pivot coordinate system and its inverse.

All functions are pure; returned arrays are read-only so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BalanceError, DegenerateSplit, DimensionMismatch, ZeroPart

# Tolerance ladder: orthonormality checks, then algebraic identities.
ORTHONORMAL_TOL = 1e-10
ALGEBRA_TOL = 1e-12

# A model of a 0/1-coded response labels a sample 1 from this prediction up.
CLASSIFICATION_THRESHOLD = 0.5


def default_part_names(n_parts: int) -> tuple[str, ...]:
    """Signal-style labels V1..VD used when a table carries no header."""
    return tuple(f"V{j}" for j in range(1, n_parts + 1))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _part_names(names, n_parts: int) -> tuple[str, ...]:
    """``names`` as a tuple of n_parts strings, V1..VD when None."""
    names = default_part_names(n_parts) if names is None else tuple(str(x) for x in names)
    if len(names) != n_parts:
        raise ValueError(f"expected {n_parts} part names, got {len(names)}")
    return names


@dataclass(frozen=True)
class CompositionMatrix:
    """An n x D table of strictly positive relative parts.

    Attributes
    ----------
    values : ndarray of shape (n, D)
        Strictly positive entries. Rows need not share a common total;
        every operation in this package is scale invariant per row.
    part_names : tuple of str, length D
        Column labels, defaulting to V1..VD.
    """

    values: np.ndarray
    part_names: tuple[str, ...] | None = None

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("composition values must be a 2-d matrix")
        n, d = v.shape
        if n < 2 or d < 2:
            raise ValueError(f"need at least 2 samples and 2 parts, got {n}x{d}")
        if not np.all(np.isfinite(v)):
            raise ValueError("composition values must be finite")
        if np.any(v < 0):
            raise ValueError("composition values must be nonnegative")
        if np.any(v == 0):
            raise ZeroPart("zero parts are not supported; treat zeros before use")
        object.__setattr__(self, "values", _readonly(v))
        object.__setattr__(self, "part_names", _part_names(self.part_names, d))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_parts(self) -> int:
        return self.values.shape[1]


def _balance_entries(r, s):
    """The coefficients of a balance's r numerator and s denominator parts:
    sqrt(s / ((r + s) * r)) and -sqrt(r / ((r + s) * s))."""
    total = r + s
    return np.sqrt(s / (total * r)), -np.sqrt(r / (total * s))


def _check_signs(signs: np.ndarray) -> None:
    """Entries in {-1, 0, +1}, and both groups nonempty in the vector or in
    every column of the matrix."""
    if not np.all((signs == 1) | (signs == 0) | (signs == -1)):
        raise ValueError("sign entries must be in {-1, 0, +1}")
    if not (np.all(np.any(signs == 1, axis=0)) and np.all(np.any(signs == -1, axis=0))):
        raise DegenerateSplit("balance needs nonempty numerator and denominator")


def signs_to_coefficients(signs) -> np.ndarray:
    """Read-only coefficients of a balance, given its sign vector, or of
    every column of a D x k sign matrix: zero-sum with unit norm.

    With r parts coded +1 and s parts coded -1, the positive entries become
    sqrt(s / ((r + s) * r)) and the negative entries -sqrt(r / ((r + s) * s));
    zeros stay zero.

    Raises
    ------
    ValueError
        If ``signs`` is not a vector or a D x k matrix with k >= 1, with
        entries in {-1, 0, +1}.
    DegenerateSplit
        If either group of the vector, or of a column, is empty.
    """
    signs = np.asarray(signs)
    if signs.ndim not in (1, 2) or signs.shape[-1] == 0:
        raise ValueError("signs must be a vector or a D x k matrix with k >= 1")
    _check_signs(signs)
    pos, neg = _balance_entries((signs == 1).sum(axis=0), (signs == -1).sum(axis=0))
    return _readonly(np.where(signs == 1, pos, 0.0) + np.where(signs == -1, neg, 0.0))


def _check_response(y, n: int) -> np.ndarray:
    """The response as a float vector of n finite values."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise DimensionMismatch("response length must match the sample count")
    if not np.all(np.isfinite(y)):
        raise BalanceError("response values must be finite")
    return y


def _binary_exponent(values) -> int:
    """The e that brings max|values| into [0.5, 1) as values * 2^-e, or 0
    when every value is 0. Scaling by a power of two is exact while the
    scaled values stay normal floats, so a computation homogeneous in them
    keeps its bits and only its range moves."""
    return math.frexp(np.abs(values).max(initial=0.0))[1]


def _check_integer(value, name: str, low=None, high=None):
    """``value`` when it is an int or a numpy integer, not a bool, within
    low..high (a None bound is open); else a ValueError naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}={value!r} is not an integer")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name}={value} outside {low}..{high}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


@dataclass(frozen=True)
class BalanceBasis:
    """Ordered orthonormal set of k balances over D parts, 1 <= k <= D-1:
    a full basis, or the leading balances of one.

    ``sign_matrix`` holds one balance per column (+1 numerator, -1
    denominator, 0 elsewhere); ``coefficient_matrix`` is derived from it by
    ``signs_to_coefficients``. ``ordering_values``, one per balance, is the
    sort key: |cov| with the response for a supervised basis, the balance
    variance for an unsupervised one. Columns are sorted by it,
    non-increasing.
    """

    coefficient_matrix: np.ndarray = field(init=False)
    sign_matrix: np.ndarray
    ordering_values: np.ndarray | None = None
    part_names: tuple[str, ...] | None = None

    def __post_init__(self):
        s = np.array(self.sign_matrix)
        if s.ndim != 2 or not 1 <= s.shape[1] <= s.shape[0] - 1:
            raise ValueError("sign matrix must be D x k with 1 <= k <= D-1")
        # Checks the entries before the int cast, which would truncate 0.5 or NaN to 0.
        b = signs_to_coefficients(s)
        s = s.astype(int)
        d, k = s.shape
        if not np.all(np.abs(b.T @ b - np.eye(k)) <= ORTHONORMAL_TOL):
            raise ValueError("balance columns are not orthonormal")
        names = _part_names(self.part_names, d)
        if self.ordering_values is not None:
            vals = np.array(self.ordering_values, dtype=float)
            if vals.shape != (k,):
                raise DimensionMismatch("ordering_values must have one value per balance")
            if not np.all(np.isfinite(vals)):
                raise ValueError("ordering_values must be finite")
            if not np.all(np.diff(vals) <= ALGEBRA_TOL):
                raise ValueError("ordering_values must be non-increasing")
            object.__setattr__(self, "ordering_values", _readonly(vals))
        object.__setattr__(self, "coefficient_matrix", b)
        object.__setattr__(self, "sign_matrix", _readonly(s))
        object.__setattr__(self, "part_names", names)

    @property
    def n_parts(self) -> int:
        return self.coefficient_matrix.shape[0]

    @property
    def n_balances(self) -> int:
        return self.coefficient_matrix.shape[1]

    def coordinates(self, X: CompositionMatrix) -> np.ndarray:
        """Balance coordinate values ln(X) @ B, one column per balance."""
        if X.n_parts != self.n_parts:
            raise DimensionMismatch(
                f"basis has {self.n_parts} parts, data has {X.n_parts}"
            )
        return np.log(X.values) @ self.coefficient_matrix


@dataclass(frozen=True)
class LogContrastModel:
    """Generalised logcontrast model y = intercept + clr(X) @ coefficients.

    The coefficients, one per part, sum to zero (within 1e-12 of their
    absolute sum), so clr(X) @ coefficients equals ln(X) @ coefficients and
    a prediction does not change when a row of X is rescaled.
    ``fit_on_balances`` fits one on the first k balances (coefficients
    B_k @ slopes); ``LatentModel.logcontrast`` turns the first k SIMPLS
    components into one (coefficients W_k @ v_k).
    """

    coefficients: np.ndarray
    intercept: float
    part_names: tuple[str, ...] | None = None

    def __post_init__(self):
        beta = np.array(self.coefficients, dtype=float)
        if beta.ndim != 1 or beta.size < 2:
            raise DimensionMismatch("coefficients must be a vector over at least 2 parts")
        intercept = float(self.intercept)
        if not (np.all(np.isfinite(beta)) and np.isfinite(intercept)):
            raise ValueError("model coefficients and intercept must be finite")
        if abs(beta.sum()) > ALGEBRA_TOL * np.abs(beta).sum():
            raise ValueError("model coefficients must sum to zero (a logcontrast)")
        object.__setattr__(self, "coefficients", _readonly(beta))
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "part_names", _part_names(self.part_names, beta.size))

    @property
    def n_parts(self) -> int:
        return self.coefficients.shape[0]

    def predict(self, X: CompositionMatrix) -> np.ndarray:
        """The predicted response of every sample of X."""
        if X.n_parts != self.n_parts:
            raise DimensionMismatch(f"model has {self.n_parts} parts, data has {X.n_parts}")
        return self.intercept + clr(X) @ self.coefficients

    def classify(self, X: CompositionMatrix,
                 threshold: float = CLASSIFICATION_THRESHOLD) -> np.ndarray:
        """0/1 labels for a model of a 0/1-coded response: 1 where the
        prediction is at least ``threshold``."""
        return (self.predict(X) >= threshold).astype(int)


def closure(raw, total: float = 1.0, part_names=None) -> CompositionMatrix:
    """Rescale every row of a nonnegative matrix to a common total.

    Parameters
    ----------
    raw : array_like of shape (n, D)
        Nonnegative entries; zeros are rejected because downstream
        transforms take logarithms. Zero replacement is a modeling choice
        left to the caller.
    total : float
        Target row sum, e.g. 1 for proportions or 1e6 for ppm.

    Returns
    -------
    CompositionMatrix

    Raises
    ------
    ValueError, ZeroPart
        As ``CompositionMatrix`` does for ``raw``, which it checks first.
    """
    if not 0 < total < np.inf:
        raise ValueError("total must be finite and positive")
    X = CompositionMatrix(raw, part_names)
    return CompositionMatrix(X.values * (total / X.values.sum(axis=1, keepdims=True)),
                             X.part_names)


def clr(X: CompositionMatrix) -> np.ndarray:
    """Centered log-ratio transform, as a read-only n x D array.

    Entry (i, j) is ln(x_ij / g(x_i)) with g the geometric mean of row i,
    computed through the mean of logs for numerical stability. Rows of the
    result sum to zero.
    """
    logs = np.log(X.values)
    return _readonly(logs - logs.mean(axis=1, keepdims=True))


def pivot_basis(n_parts: int) -> np.ndarray:
    """Coefficient matrix of the pivot coordinate system, D x (D-1).

    Column j contrasts part j against the geometric mean of parts j+1..D;
    columns are orthonormal and zero-sum.
    """
    d = _check_integer(n_parts, "n_parts", 2)
    basis = np.zeros((d, d - 1))
    for j in range(d - 1):
        tail = d - j - 1
        scale = np.sqrt(tail / (tail + 1.0))
        basis[j, j] = scale
        basis[j + 1 :, j] = -scale / tail
    return basis


def pivot_coordinates(X: CompositionMatrix) -> np.ndarray:
    """Pivot (orthonormal log-ratio) coordinates, shape (n, D-1).

    Coordinate j of a row x is

        sqrt((D - j) / (D - j + 1)) * ln(x_j / g(x_{j+1}, ..., x_D)),

    so the first coordinate carries all relative information on part 1.
    """
    # clr first: the row level cancels once, before the sums over D parts
    return clr(X) @ pivot_basis(X.n_parts)


def inverse_pivot(Z, total: float = 1.0, part_names=None) -> CompositionMatrix:
    """Back-transform pivot coordinates to a composition closed to ``total``.

    Round trip: ``pivot_coordinates(inverse_pivot(Z))`` recovers Z within
    1e-9 for well-scaled inputs. Raises ValueError for coordinates whose
    parts leave the float range.
    """
    z = np.asarray(Z, dtype=float)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError("coordinates must be a 2-d matrix with at least one column")
    if not np.all(np.isfinite(z)):
        raise ValueError("coordinates must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # out of range is raised below
        clr_values = z @ pivot_basis(z.shape[1] + 1).T
        # Shift rows before exponentiating; row shifts cancel under closure.
        shifted = clr_values - clr_values.max(axis=1, keepdims=True)
    parts = np.exp(shifted)
    if not parts.min() > 0:  # a part below the smallest float, or an overflow's NaN
        raise ValueError("coordinates out of range: a row's clr values must span less than "
                         "about 745, the log of the float range, or its parts underflow to 0")
    return closure(parts, total=total, part_names=part_names)
