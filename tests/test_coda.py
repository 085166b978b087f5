"""Tests for composition types and log-ratio transforms."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plspb import (
    BalanceBasis,
    ClrMatrix,
    CompositionMatrix,
    LatentModel,
    balance_values,
    center_columns,
    closure,
    clr,
    inverse_pivot,
    pivot_basis,
    pivot_coordinates,
    pls_pb,
    signs_to_coefficients,
)
from plspb.errors import DegenerateSplit, DimensionMismatch, ZeroPart

from conftest import random_composition, random_instance


class TestClosure:
    def test_proportional_rescale(self):
        X = closure(np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0]]), total=1.0)
        assert_allclose(X.values[0], [0.25, 0.25, 0.5])

    def test_symmetry(self):
        X = closure(np.array([[5.0, 5.0, 5.0, 5.0]] * 2), total=100.0)
        assert_allclose(X.values, 25.0)

    def test_zero_part_rejected(self):
        with pytest.raises(ZeroPart):
            closure(np.array([[2.0, 0.0, 2.0], [1.0, 1.0, 1.0]]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            closure(np.array([[2.0, -1.0, 2.0], [1.0, 1.0, 1.0]]))

    def test_row_totals(self, rng):
        raw = rng.uniform(0.1, 5.0, size=(7, 4))
        X = closure(raw, total=1e6)
        assert_allclose(X.values.sum(axis=1), 1e6)


class TestCompositionMatrix:
    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            CompositionMatrix(np.array([[1.0, 2.0]]))

    def test_values_read_only(self, rng):
        X = random_composition(rng, 3, 3)
        with pytest.raises(ValueError):
            X.values[0, 0] = 2.0

    def test_default_names(self, rng):
        X = random_composition(rng, 3, 4)
        assert X.part_names == ("V1", "V2", "V3", "V4")

    def test_take_parts(self, rng):
        X = random_composition(rng, 4, 5)
        sub = X.take_parts([0, 3])
        assert sub.part_names == ("V1", "V4")
        assert_allclose(sub.values, X.values[:, [0, 3]])


class TestClr:
    def test_identity_row(self):
        X = CompositionMatrix(np.ones((2, 3)))
        assert_allclose(clr(X).values, 0.0)

    def test_direct_evaluation(self):
        e = np.e
        X = CompositionMatrix(np.array([[e**2, e**-1, e**-1], [1.0, 1.0, 1.0]]))
        assert_allclose(clr(X).values[0], [2.0, -1.0, -1.0], atol=1e-12)

    def test_scale_invariance(self, rng):
        X = random_composition(rng, 10, 6)
        scale = rng.uniform(0.5, 20.0, size=(10, 1))
        Xs = CompositionMatrix(X.values * scale)
        assert np.max(np.abs(clr(Xs).values - clr(X).values)) < 1e-12

    def test_rows_sum_to_zero(self, rng):
        X = random_composition(rng, 8, 5)
        assert np.max(np.abs(clr(X).values.sum(axis=1))) < 1e-12

    def test_logcontrast_identity(self, rng):
        # ln(X) @ a == clr(X) @ a for every zero-sum a
        X = random_composition(rng, 12, 7)
        for _ in range(20):
            a = rng.standard_normal(7)
            a -= a.mean()
            lhs = np.log(X.values) @ a
            rhs = clr(X).values @ a
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestCenterColumns:
    def test_idempotent(self, rng):
        M = clr(random_composition(rng, 9, 4))
        once = center_columns(M)
        twice = center_columns(once)
        assert_allclose(twice.values, once.values, atol=1e-15)

    def test_identical_rows_vanish(self):
        X = CompositionMatrix(np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0]]))
        assert_allclose(center_columns(clr(X)).values, 0.0, atol=1e-15)

    def test_hand_example(self):
        M = ClrMatrix(np.array([[2.0, -1.0, -1.0], [0.0, 0.0, 0.0]]))
        centered = center_columns(M)
        assert_allclose(
            centered.values, [[1.0, -0.5, -0.5], [-1.0, 0.5, 0.5]], atol=1e-15
        )
        assert centered.centered

    def test_centered_flag_validated(self):
        with pytest.raises(ValueError):
            ClrMatrix(np.array([[2.0, -1.0, -1.0], [0.0, 0.0, 0.0]]), centered=True)


class TestSignsToCoefficients:
    def test_one_vs_one(self):
        b = signs_to_coefficients(np.array([1, -1, 0]))
        assert_allclose(b, [1 / np.sqrt(2), -1 / np.sqrt(2), 0.0], atol=1e-15)

    def test_one_vs_two(self):
        b = signs_to_coefficients(np.array([1, -1, -1]))
        assert_allclose(
            b,
            [np.sqrt(2.0 / 3.0), -1 / np.sqrt(6), -1 / np.sqrt(6)],
            atol=1e-15,
        )

    def test_two_vs_two(self):
        b = signs_to_coefficients(np.array([1, 1, -1, -1]))
        assert_allclose(b, [0.5, 0.5, -0.5, -0.5], atol=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSplit):
            signs_to_coefficients(np.array([1, 1, 0]))
        with pytest.raises(DegenerateSplit):
            signs_to_coefficients(np.array([0, -1, -1]))

    @pytest.mark.parametrize(
        "signs",
        [[1, 2, -1], [1, 0.5, -1], [1, np.nan, -1], [[1, -1], [-1, 1]], 1],
        ids=["two", "half", "nan", "matrix", "scalar"],
    )
    def test_malformed_signs_rejected(self, signs):
        with pytest.raises(ValueError):
            signs_to_coefficients(np.array(signs))

    def test_read_only(self):
        b = signs_to_coefficients([1, -1, 0])
        assert not b.flags.writeable

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_exhaustive_invariants(self, d):
        # every admissible sign vector yields a zero-sum unit-norm vector
        for combo in itertools.product((-1, 0, 1), repeat=d):
            signs = np.array(combo)
            if not (np.any(signs == 1) and np.any(signs == -1)):
                continue
            b = signs_to_coefficients(signs)
            assert abs(b.sum()) < 1e-12
            assert abs(b @ b - 1.0) < 1e-12
            assert np.array_equal(np.sign(b).astype(int), signs)

    def test_nested_split_orthogonal(self):
        # a balance refined inside one group of its parent is orthogonal to it
        parent = signs_to_coefficients(np.array([1, 1, -1, -1, 0]))
        child = signs_to_coefficients(np.array([1, -1, 0, 0, 0]))
        assert abs(parent @ child) < 1e-12
        other = signs_to_coefficients(np.array([0, 0, 1, -1, 0]))
        assert abs(parent @ other) < 1e-12
        assert abs(child @ other) < 1e-12


class TestBalanceChecks:
    def test_rotated_columns_rejected(self, rng):
        # a small rotation of two columns keeps them orthonormal and zero-sum
        # and keeps the sign of every nonzero entry (zeros fill in), but the
        # values leave the balance formula
        X, y = random_instance(rng, 20, 6)
        basis = pls_pb(X, y)
        B = basis.coefficient_matrix.copy()
        theta = 1e-3
        b0, b1 = B[:, 0].copy(), B[:, 1].copy()
        B[:, 0] = np.cos(theta) * b0 + np.sin(theta) * b1
        B[:, 1] = -np.sin(theta) * b0 + np.cos(theta) * b1
        assert np.max(np.abs(B.T @ B - np.eye(5))) < 1e-12
        signs = np.sign(B).astype(int)
        nonzero = basis.sign_matrix != 0
        assert np.array_equal(signs[nonzero], basis.sign_matrix[nonzero])
        with pytest.raises(ValueError, match="formula"):
            BalanceBasis(B, signs, covariances=basis.covariances)

    def test_basis_with_one_sided_columns_rejected(self):
        with pytest.raises(DegenerateSplit):
            BalanceBasis(np.eye(3)[:, :2], np.eye(3, dtype=int)[:, :2], variances=[1.0, 0.5])

    @pytest.mark.parametrize("index, change", [(1, 1e-9), (3, np.nan)])
    def test_entry_off_the_formula_rejected(self, index, change):
        # a valid basis whose first column is [1, -1, -1, 0]; one entry moves
        signs = np.array([[1, 0, -1], [-1, 1, -1], [-1, -1, -1], [0, 0, 1]])
        coeffs = np.column_stack([signs_to_coefficients(col) for col in signs.T])
        BalanceBasis(coeffs, signs, variances=[3.0, 2.0, 1.0])
        coeffs[index, 0] += change
        with pytest.raises(ValueError, match="formula"):
            BalanceBasis(coeffs, signs, variances=[3.0, 2.0, 1.0])


def _latent_model(weights, scores):
    return LatentModel(
        weights=np.array(weights, dtype=float),
        scores=np.array(scores, dtype=float),
        latent_coefficients=np.ones(len(weights[0])),
        x_mean=np.zeros(len(weights)),
        y_mean=0.0,
        n_components=len(weights[0]),
        kind="PLS",
    )


def _basis_with_covariances(covariances):
    signs = np.array([[1, 1], [-1, 1], [0, -1]])
    coeffs = np.column_stack([signs_to_coefficients(col) for col in signs.T])
    return BalanceBasis(coeffs, signs, covariances=covariances)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ClrMatrix(np.array([[np.nan, 0.0], [1.0, -1.0]])),
        lambda: _basis_with_covariances([np.nan, 1.0]),
        lambda: _latent_model([[1.0], [-1.0], [np.nan]], [[1.0], [0.0], [-1.0], [0.0]]),
        lambda: _latent_model(
            [[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]],
            [[1.0, 0.0], [0.0, np.nan], [-1.0, 0.0], [0.0, 1.0]],
        ),
    ],
    ids=["clr", "covariance", "weight", "score"],
)
def test_nan_rejected(build):
    # every check reads "not all(|x| <= tol)", which NaN fails
    with pytest.raises(ValueError):
        build()


class TestBalanceValues:
    def test_row_of_ones(self):
        X = CompositionMatrix(np.ones((3, 4)))
        b = signs_to_coefficients(np.array([1, 1, -1, -1]))
        assert_allclose(balance_values(X, b), 0.0)

    def test_two_part_formula(self):
        X = CompositionMatrix(np.array([[3.0, 1.0], [2.0, 8.0]]))
        b = signs_to_coefficients(np.array([1, -1]))
        expected = np.log(X.values[:, 0] / X.values[:, 1]) / np.sqrt(2)
        assert_allclose(balance_values(X, b), expected, atol=1e-15)

    def test_matches_clr_projection(self, rng):
        X = random_composition(rng, 15, 9)
        b = signs_to_coefficients(np.array([1, 1, 1, -1, -1, 0, 0, 0, -1]))
        assert np.max(np.abs(balance_values(X, b) - clr(X).values @ b)) < 1e-12

    def test_dimension_mismatch(self, rng):
        X = random_composition(rng, 4, 5)
        b = signs_to_coefficients(np.array([1, -1]))
        with pytest.raises(DimensionMismatch):
            balance_values(X, b)


class TestPivotCoordinates:
    def test_two_part_formula(self):
        X = CompositionMatrix(np.array([[3.0, 1.0], [5.0, 5.0]]))
        Z = pivot_coordinates(X)
        assert Z.shape == (2, 1)
        assert_allclose(Z[:, 0], np.sqrt(0.5) * np.log([3.0, 1.0]), atol=1e-14)

    def test_equal_parts_vanish(self):
        X = CompositionMatrix(np.full((3, 6), 2.5))
        assert_allclose(pivot_coordinates(X), 0.0)

    def test_first_coordinate_is_scaled_clr(self, rng):
        X = random_composition(rng, 10, 8)
        Z = pivot_coordinates(X)
        d = X.n_parts
        expected = np.sqrt(d / (d - 1.0)) * clr(X).values[:, 0]
        assert np.max(np.abs(Z[:, 0] - expected)) < 1e-12

    def test_basis_is_orthonormal(self):
        for d in (2, 3, 7, 40):
            V = pivot_basis(d)
            assert_allclose(V.T @ V, np.eye(d - 1), atol=1e-12)
            assert_allclose(V.sum(axis=0), 0.0, atol=1e-12)

    def test_matches_basis_projection(self, rng):
        X = random_composition(rng, 6, 9)
        via_basis = clr(X).values @ pivot_basis(9)
        assert_allclose(pivot_coordinates(X), via_basis, atol=1e-12)


class TestInversePivot:
    def test_zero_coordinates_give_equal_parts(self):
        X = inverse_pivot(np.zeros((3, 4)), total=1.0)
        assert_allclose(X.values, 0.2)

    def test_round_trip(self, rng):
        for n, d in [(5, 3), (20, 17), (50, 120)]:
            Z = rng.standard_normal((n, d - 1))
            X = inverse_pivot(Z, total=1.0)
            assert np.max(np.abs(pivot_coordinates(X) - Z)) < 1e-9

    def test_two_part_hand_inverse(self):
        z = np.array([[np.sqrt(0.5) * np.log(3.0)], [0.0]])
        X = inverse_pivot(z, total=1.0)
        assert_allclose(X.values[0], [0.75, 0.25], atol=1e-12)

    def test_rows_closed_to_total(self, rng):
        Z = rng.standard_normal((4, 6))
        X = inverse_pivot(Z, total=100.0)
        assert_allclose(X.values.sum(axis=1), 100.0)
