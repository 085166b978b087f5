"""Compositional data types and log-ratio transforms.

A composition is a vector of strictly positive parts carrying only relative
information: any positive rescaling of a row describes the same sample.
This module provides the container types used throughout the package and
the log-ratio machinery built on them:

- centered log-ratio (clr) coordinates and column centering,
- balance coefficient vectors derived from sign patterns,
- the pivot coordinate system and its inverse.

All functions are pure; returned arrays are read-only so values can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplit, DimensionMismatch, ZeroPart

# Tolerance ladder: orthonormality checks, algebraic identities, round trips.
ORTHONORMAL_TOL = 1e-10
ALGEBRA_TOL = 1e-12
ROUNDTRIP_TOL = 1e-9


def default_part_names(n_parts: int) -> tuple[str, ...]:
    """Signal-style labels V1..VD used when a table carries no header."""
    return tuple(f"V{j}" for j in range(1, n_parts + 1))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
        names = self.part_names
        if names is None:
            names = default_part_names(d)
        names = tuple(str(x) for x in names)
        if len(names) != d:
            raise ValueError(f"expected {d} part names, got {len(names)}")
        object.__setattr__(self, "values", _readonly(v))
        object.__setattr__(self, "part_names", names)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_parts(self) -> int:
        return self.values.shape[1]

    def take_parts(self, indices) -> "CompositionMatrix":
        """Subcomposition restricted to the given part indices."""
        idx = np.asarray(indices, dtype=int)
        return CompositionMatrix(
            self.values[:, idx], tuple(self.part_names[i] for i in idx)
        )

    def take_samples(self, indices) -> "CompositionMatrix":
        """Row subset (at least two rows)."""
        idx = np.asarray(indices, dtype=int)
        return CompositionMatrix(self.values[idx, :], self.part_names)


@dataclass(frozen=True)
class ClrMatrix:
    """Centered log-ratio coordinates of a composition table.

    Rows always sum to zero. When ``centered`` is true the columns have
    additionally been mean-centered, which preserves the row constraint
    because the subtracted mean vector is itself zero-sum.
    """

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("clr values must be a 2-d matrix")
        row_sums = v.sum(axis=1)
        if np.max(np.abs(row_sums), initial=0.0) > ORTHONORMAL_TOL:
            raise ValueError("clr rows must sum to zero")
        if self.centered:
            col_means = v.mean(axis=0)
            if np.max(np.abs(col_means), initial=0.0) > ORTHONORMAL_TOL:
                raise ValueError("centered clr columns must have zero mean")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_parts(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SignVector:
    """Three-valued code assigning parts to numerator (+1), denominator (-1)
    or neither (0). Both groups must be nonempty."""

    signs: np.ndarray

    def __post_init__(self):
        s = np.array(self.signs, dtype=int)
        if s.ndim != 1:
            raise ValueError("signs must be a 1-d vector")
        if not np.all(np.isin(s, (-1, 0, 1))):
            raise ValueError("sign entries must be in {-1, 0, +1}")
        if not np.any(s == 1) or not np.any(s == -1):
            raise DegenerateSplit("sign vector needs at least one +1 and one -1")
        object.__setattr__(self, "signs", _readonly(s))

    @property
    def numerator_count(self) -> int:
        return int(np.sum(self.signs == 1))

    @property
    def denominator_count(self) -> int:
        return int(np.sum(self.signs == -1))


def signs_to_coefficient_matrix(sign_matrix) -> np.ndarray:
    """Balance coefficients of every column of a sign matrix.

    With r parts coded +1 and s parts coded -1 in a column, its positive
    entries become sqrt(s / ((r + s) * r)) and its negative entries
    -sqrt(r / ((r + s) * s)); zeros stay zero. Columns need both groups
    nonempty. The result is not validated; ``_check_balances`` does that.
    """
    signs = np.asarray(sign_matrix)
    r = (signs == 1).sum(axis=0)
    s = (signs == -1).sum(axis=0)
    pos = np.sqrt(s / ((r + s) * r))
    neg = -np.sqrt(r / ((r + s) * s))
    return np.where(signs == 1, pos, 0.0) + np.where(signs == -1, neg, 0.0)


def _check_balances(coeffs: np.ndarray, signs: np.ndarray) -> None:
    """Validate balance columns against their sign patterns: both groups
    nonempty, entries on the balance formula (NaN is not), zero sum and
    unit norm."""
    if not (np.all(np.any(signs == 1, axis=0)) and np.all(np.any(signs == -1, axis=0))):
        raise DegenerateSplit("balance needs nonempty numerator and denominator")
    if not np.all(np.abs(coeffs - signs_to_coefficient_matrix(signs)) <= ALGEBRA_TOL):
        raise ValueError("balance entries deviate from the balance formula")
    if np.max(np.abs(coeffs.sum(axis=0)), initial=0.0) > ALGEBRA_TOL:
        raise ValueError("balance coefficients must sum to zero")
    if np.max(np.abs(np.einsum("ij,ij->j", coeffs, coeffs) - 1.0), initial=0.0) > ALGEBRA_TOL:
        raise ValueError("balance coefficients must have unit norm")


@dataclass(frozen=True)
class BalanceCoefficients:
    """Unit-norm, zero-sum logcontrast weights of a single balance.

    Positive entries all equal sqrt(s / ((r + s) * r)) and negative entries
    all equal -sqrt(r / ((r + s) * s)), where r parts sit in the numerator
    and s parts in the denominator; remaining entries are zero.
    """

    coeffs: np.ndarray
    numerator_count: int
    denominator_count: int

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 1:
            raise ValueError("coefficients must be a 1-d vector")
        r, s = int(self.numerator_count), int(self.denominator_count)
        if r < 1 or s < 1:
            raise DegenerateSplit("balance needs nonempty numerator and denominator")
        signs = (c > 0).astype(int) - (c < 0)
        if int(np.sum(signs == 1)) != r or int(np.sum(signs == -1)) != s:
            raise ValueError("sign pattern disagrees with the stated group sizes")
        _check_balances(c[:, None], signs[:, None])
        object.__setattr__(self, "coeffs", _readonly(c))
        object.__setattr__(self, "numerator_count", r)
        object.__setattr__(self, "denominator_count", s)

    @property
    def sign_vector(self) -> SignVector:
        return SignVector(np.sign(self.coeffs).astype(int))


@dataclass(frozen=True)
class BalanceBasis:
    """Ordered orthonormal set of D-1 balances over D parts.

    ``covariances`` carries |cov| with the response for supervised bases;
    ``variances`` carries balance variances for unsupervised ones. Columns
    are sorted by the available ordering values, non-increasing.
    """

    coefficient_matrix: np.ndarray
    sign_matrix: np.ndarray
    covariances: np.ndarray | None = None
    variances: np.ndarray | None = None
    part_names: tuple[str, ...] | None = None

    def __post_init__(self):
        b = np.array(self.coefficient_matrix, dtype=float)
        s = np.array(self.sign_matrix, dtype=int)
        if b.ndim != 2 or b.shape[1] != b.shape[0] - 1:
            raise ValueError("coefficient matrix must be D x (D-1)")
        if s.shape != b.shape:
            raise DimensionMismatch("sign matrix shape must match coefficients")
        d = b.shape[0]
        gram = b.T @ b
        if np.max(np.abs(gram - np.eye(d - 1))) > ORTHONORMAL_TOL:
            raise ValueError("balance columns are not orthonormal")
        if np.any(np.sign(b).astype(int) != s):
            raise ValueError("sign matrix disagrees with coefficient signs")
        _check_balances(b, s)
        names = self.part_names
        if names is None:
            names = default_part_names(d)
        names = tuple(str(x) for x in names)
        if len(names) != d:
            raise ValueError(f"expected {d} part names, got {len(names)}")
        for label in ("covariances", "variances"):
            vals = getattr(self, label)
            if vals is None:
                continue
            vals = np.array(vals, dtype=float)
            if vals.shape != (d - 1,):
                raise DimensionMismatch(f"{label} must have length D-1")
            if np.any(np.diff(vals) > ALGEBRA_TOL):
                raise ValueError(f"{label} must be non-increasing")
            object.__setattr__(self, label, _readonly(vals))
        object.__setattr__(self, "coefficient_matrix", _readonly(b))
        object.__setattr__(self, "sign_matrix", _readonly(s))
        object.__setattr__(self, "part_names", names)

    @property
    def n_parts(self) -> int:
        return self.coefficient_matrix.shape[0]

    @property
    def n_balances(self) -> int:
        return self.coefficient_matrix.shape[1]

    @property
    def ordering_values(self) -> np.ndarray:
        """The sort key: covariances when supervised, else variances."""
        vals = self.covariances if self.covariances is not None else self.variances
        if vals is None:
            raise ValueError("basis carries neither covariances nor variances")
        return vals

    def coordinates(self, X: CompositionMatrix) -> np.ndarray:
        """Balance coordinate values ln(X) @ B, one column per balance."""
        if X.n_parts != self.n_parts:
            raise DimensionMismatch(
                f"basis has {self.n_parts} parts, data has {X.n_parts}"
            )
        return np.log(X.values) @ self.coefficient_matrix


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
    ZeroPart
        If any entry is exactly zero.
    """
    v = np.array(raw, dtype=float)
    if total <= 0:
        raise ValueError("total must be positive")
    if v.ndim != 2:
        raise ValueError("raw values must be a 2-d matrix")
    if np.any(v < 0):
        raise ValueError("raw values must be nonnegative")
    if np.any(v == 0):
        raise ZeroPart("zero parts are not supported; treat zeros before closure")
    scaled = v * (total / v.sum(axis=1, keepdims=True))
    return CompositionMatrix(scaled, part_names)


def clr(X: CompositionMatrix) -> ClrMatrix:
    """Centered log-ratio transform.

    Entry (i, j) is ln(x_ij / g(x_i)) with g the geometric mean of row i,
    computed through the mean of logs for numerical stability. Rows of the
    result sum to zero.
    """
    logs = np.log(X.values)
    return ClrMatrix(logs - logs.mean(axis=1, keepdims=True), centered=False)


def center_columns(M: ClrMatrix) -> ClrMatrix:
    """Subtract the column means; the zero row-sum constraint is preserved."""
    return ClrMatrix(M.values - M.values.mean(axis=0), centered=True)


def signs_to_coefficients(signs) -> BalanceCoefficients:
    """Turn a three-valued sign pattern into validated balance coefficients,
    zero-sum with unit norm (formula: ``signs_to_coefficient_matrix``).

    Raises
    ------
    DegenerateSplit
        If either group is empty.
    """
    sv = signs if isinstance(signs, SignVector) else SignVector(signs)
    coeffs = signs_to_coefficient_matrix(sv.signs[:, None])[:, 0]
    return BalanceCoefficients(coeffs, sv.numerator_count, sv.denominator_count)


def balance_values(X: CompositionMatrix, b: BalanceCoefficients) -> np.ndarray:
    """Evaluate one balance on every sample: ln(X) @ b.

    Because the coefficients sum to zero this equals clr(X) @ b, so the
    values are invariant to per-row rescaling of X.
    """
    if X.n_parts != b.coeffs.shape[0]:
        raise DimensionMismatch(
            f"balance has {b.coeffs.shape[0]} coefficients, data has {X.n_parts} parts"
        )
    return np.log(X.values) @ b.coeffs


def pivot_basis(n_parts: int) -> np.ndarray:
    """Coefficient matrix of the pivot coordinate system, D x (D-1).

    Column j contrasts part j against the geometric mean of parts j+1..D;
    columns are orthonormal and zero-sum.
    """
    if n_parts < 2:
        raise ValueError("need at least 2 parts")
    d = n_parts
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
    logs = np.log(X.values)
    d = X.n_parts
    # suffix_sums[:, j] = sum of logs over columns j..D-1
    suffix_sums = np.cumsum(logs[:, ::-1], axis=1)[:, ::-1]
    tails = d - 1 - np.arange(d - 1)
    scales = np.sqrt(tails / (tails + 1.0))
    tail_means = suffix_sums[:, 1:] / tails
    return scales * (logs[:, :-1] - tail_means)


def inverse_pivot(Z, total: float = 1.0, part_names=None) -> CompositionMatrix:
    """Back-transform pivot coordinates to a composition closed to ``total``.

    Round trip: ``pivot_coordinates(inverse_pivot(Z))`` recovers Z within
    1e-9 for well-scaled inputs.
    """
    z = np.asarray(Z, dtype=float)
    if z.ndim != 2:
        raise ValueError("coordinates must be a 2-d matrix")
    clr_values = z @ pivot_basis(z.shape[1] + 1).T
    # Shift rows before exponentiating; row shifts cancel under closure.
    shifted = clr_values - clr_values.max(axis=1, keepdims=True)
    return closure(np.exp(shifted), total=total, part_names=part_names)
