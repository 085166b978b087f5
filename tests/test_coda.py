"""Tests for composition types and log-ratio transforms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from plspb import (
    BalanceBasis,
    CompositionMatrix,
    LatentModel,
    LogContrastModel,
    closure,
    clr,
    fit_on_balances,
    inverse_pivot,
    pivot_basis,
    pivot_coordinates,
    pca_pb,
    pls_pb,
    pls_regression,
    signs_to_coefficients,
)
from plspb.errors import DegenerateSplit, DimensionMismatch, RankDeficient, ZeroPart

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

    def test_infinite_entry_rejected(self):
        # before any arithmetic: inf / inf would otherwise warn and give NaN
        with pytest.raises(ValueError, match="^composition values must be finite$"):
            closure(np.array([[2.0, np.inf, 2.0], [1.0, 1.0, 1.0]]))

    @pytest.mark.parametrize("total", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_total_rejected(self, total):
        # named as the total's fault, not the rescaled data's
        with pytest.raises(ValueError, match="^total must be finite and positive$"):
            closure(np.array([[2.0, 1.0, 2.0], [1.0, 1.0, 1.0]]), total=total)

    def test_row_totals(self, rng):
        raw = rng.uniform(0.1, 5.0, size=(7, 4))
        X = closure(raw, total=1e6)
        assert_allclose(X.values.sum(axis=1), 1e6)


class TestCompositionMatrix:
    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            CompositionMatrix(np.array([[1.0, 2.0]]))

    def test_one_d_table_rejected(self):
        with pytest.raises(ValueError, match="^composition values must be a 2-d matrix$"):
            CompositionMatrix(np.array([1.0, 2.0, 3.0]))

    def test_values_read_only(self, rng):
        X = random_composition(rng, 3, 3)
        with pytest.raises(ValueError):
            X.values[0, 0] = 2.0

    def test_default_names(self, rng):
        X = random_composition(rng, 3, 4)
        assert X.part_names == ("V1", "V2", "V3", "V4")


class TestClr:
    def test_identity_row(self):
        X = CompositionMatrix(np.ones((2, 3)))
        assert_allclose(clr(X), 0.0)

    def test_read_only_array(self, rng):
        C = clr(random_composition(rng, 3, 4))
        assert isinstance(C, np.ndarray) and C.shape == (3, 4)
        with pytest.raises(ValueError):
            C[0, 0] = 1.0

    def test_direct_evaluation(self):
        e = np.e
        X = CompositionMatrix(np.array([[e**2, e**-1, e**-1], [1.0, 1.0, 1.0]]))
        assert_allclose(clr(X)[0], [2.0, -1.0, -1.0], atol=1e-12)

    def test_scale_invariance(self, rng):
        X = random_composition(rng, 10, 6)
        scale = rng.uniform(0.5, 20.0, size=(10, 1))
        Xs = CompositionMatrix(X.values * scale)
        assert np.max(np.abs(clr(Xs) - clr(X))) < 1e-12

    def test_rows_sum_to_zero(self, rng):
        X = random_composition(rng, 8, 5)
        assert np.max(np.abs(clr(X).sum(axis=1))) < 1e-12

    def test_logcontrast_identity(self, rng):
        # ln(X) @ a == clr(X) @ a for every zero-sum a
        X = random_composition(rng, 12, 7)
        for _ in range(20):
            a = rng.standard_normal(7)
            a -= a.mean()
            lhs = np.log(X.values) @ a
            rhs = clr(X) @ a
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def check_070(signs):
    """0.7.0's entry and group checks of a sign vector or matrix, on np.isin."""
    if not np.all(np.isin(signs, (-1, 0, 1))):
        raise ValueError("sign entries must be in {-1, 0, +1}")
    if not (np.all(np.any(signs == 1, axis=0)) and np.all(np.any(signs == -1, axis=0))):
        raise DegenerateSplit("balance needs nonempty numerator and denominator")


def sign_outcome(check, signs):
    """The type and message of the ValueError ``check(signs)`` raises, or None."""
    try:
        check(np.asarray(signs))
    except ValueError as exc:
        return type(exc), str(exc)
    return None


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
        [[1, 2, -1], [1, 0.5, -1], [1, np.nan, -1], [[1, 1], [-1, 1], [0, 1]], 1,
         [[[1], [-1]]], np.zeros((3, 0), dtype=int)],
        ids=["two", "half", "nan", "matrix", "scalar", "3-d", "3x0"],
    )
    def test_malformed_signs_rejected(self, signs):
        # "matrix" is a valid first column next to one without a -1 part
        with pytest.raises(ValueError):
            signs_to_coefficients(np.array(signs))

    @pytest.mark.parametrize(
        "signs",
        [
            [1, 0.5, -1],
            [1, np.nan, -1],
            [1, 2, -1],
            [1, -2, -1],
            [1.0, 0.0, -1.0],
            [True, False, True],  # True and False equal 1 and 0; no -1 part
            np.array([True, False]),
            np.array([1, 0, -1], dtype=object),
            np.array([1, "0", -1], dtype=object),
            np.array(["1", "0", "-1"]),
            [[1, 0, -1], [-1, 1, 1]],
        ],
        ids=["half", "nan", "two", "minus-two", "float", "bool", "bool-pair", "object",
             "object-str", "str", "matrix"],
    )
    def test_entry_check_matches_isin(self, signs):
        # signs_to_coefficients compares with 1, 0 and -1; 0.7.0 used np.isin
        assert sign_outcome(signs_to_coefficients, signs) == sign_outcome(check_070, signs)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([int, float, bool, object]),
           shape=st.one_of(st.tuples(st.integers(1, 6)),
                           st.tuples(st.integers(1, 6), st.integers(1, 4))),
           clean=st.booleans())
    def test_checks_and_coefficients_match_the_reference(self, data, dtype, shape, clean):
        # entries from {-1, 0, 1} alone leave empty groups in small arrays;
        # otherwise also 0.5, 2 and NaN, as far as the dtype holds them
        values = {int: [-1, 0, 1, 2], bool: [False, True]}.get(dtype, [-1, 0, 1, 0.5, 2, np.nan])
        if clean and dtype is not bool:
            values = [-1, 0, 1]
        entries = data.draw(st.lists(st.sampled_from(values), min_size=int(np.prod(shape)),
                                     max_size=int(np.prod(shape))))
        signs = np.array(entries, dtype=dtype).reshape(shape)
        expected = sign_outcome(check_070, signs)
        if expected is not None:
            assert sign_outcome(signs_to_coefficients, signs) == expected
        else:
            plus, minus = signs == 1, signs == -1  # the reference: two wheres, summed
            r, s = plus.sum(axis=0), minus.sum(axis=0)
            pos, neg = np.sqrt(s / ((r + s) * r)), -np.sqrt(r / ((r + s) * s))
            reference = np.where(plus, pos, 0.0) + np.where(minus, neg, 0.0)
            b = signs_to_coefficients(signs)
            assert b.dtype == reference.dtype and b.shape == reference.shape
            assert b.tobytes() == reference.tobytes()

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
    def test_coefficients_follow_the_signs(self, rng):
        X, y = random_instance(rng, 20, 6)
        signs = pls_pb(X, y).sign_matrix
        basis = BalanceBasis(signs, [5.0, 4.0, 3.0, 2.0, 1.0])
        expected = np.column_stack([signs_to_coefficients(col) for col in signs.T])
        assert np.array_equal(basis.coefficient_matrix, expected)
        assert not basis.coefficient_matrix.flags.writeable
        # the matrix form is the vector form of every column, bit for bit
        matrix = signs_to_coefficients(signs)
        assert matrix.tobytes() == expected.tobytes() and not matrix.flags.writeable
        for d in range(2, 6):
            columns = np.array([c for c in itertools.product((-1, 0, 1), repeat=d)
                                if 1 in c and -1 in c]).T
            expected = np.column_stack([signs_to_coefficients(col) for col in columns.T])
            assert signs_to_coefficients(columns).tobytes() == expected.tobytes()

    def test_basis_with_one_sided_columns_rejected(self):
        with pytest.raises(DegenerateSplit):
            BalanceBasis(np.eye(3, dtype=int)[:, :2], [1.0, 0.5])

    @pytest.mark.parametrize("entry", [0.5, np.nan])
    def test_malformed_sign_entry_rejected(self, entry):
        # a valid basis whose entry [0, 1] moves off {-1, 0, +1}
        signs = np.array([[1.0, 0, -1], [-1, 1, -1], [-1, -1, -1], [0, 0, 1]])
        BalanceBasis(signs, [3.0, 2.0, 1.0])
        signs[0, 1] = entry
        with pytest.raises(ValueError, match="sign entries"):
            BalanceBasis(signs, [3.0, 2.0, 1.0])

    @pytest.mark.parametrize(
        "signs",
        [
            np.array([1, -1, 0]),
            np.zeros((3, 0), dtype=int),
            np.array([[1, 0], [-1, 0]]),
            np.ones((3, 3), dtype=int),
        ],
        ids=["vector", "3x0", "2x2", "3x3"],
    )
    def test_sign_matrix_shape_checked(self, signs):
        with pytest.raises(ValueError, match="D x k"):
            BalanceBasis(signs)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_leading_columns_accepted(self, rng, k):
        # the first k balances of a basis over D=6 parts, with k values each
        X, y = random_instance(rng, 20, 6)
        full = pls_pb(X, y)
        basis = BalanceBasis(full.sign_matrix[:, :k], full.ordering_values[:k])
        assert basis.n_parts == 6 and basis.n_balances == k
        assert np.array_equal(basis.coefficient_matrix, full.coefficient_matrix[:, :k])
        with pytest.raises(DimensionMismatch, match="one value per balance"):
            BalanceBasis(full.sign_matrix[:, :k], np.append(full.ordering_values[:k], 0.0))
        with pytest.raises(DimensionMismatch, match="one value per balance"):
            BalanceBasis(full.sign_matrix[:, :k], full.ordering_values[: k - 1])

    def test_ordering_values_and_part_count_checked(self, rng):
        basis = BalanceBasis([[1, 1], [-1, 1], [0, -1]])
        assert basis.ordering_values is None
        with pytest.raises(DimensionMismatch, match="basis has 3 parts, data has 4"):
            basis.coordinates(random_composition(rng, 5, 4))

    @pytest.mark.parametrize("signs, values", [
        ([[1], [-1], [0]], [np.nan]),
        ([[1, 1], [-1, 1], [0, -1]], [np.inf, 1.0]),
        ([[1, 1], [-1, 1], [0, -1]], [1.0, np.nan]),
        ([[1, 1], [-1, 1], [0, -1]], [1.0, -np.inf]),
    ], ids=["nan", "inf-first", "nan-last", "-inf-last"])
    def test_non_finite_ordering_values_rejected(self, signs, values):
        # named before the order check, which inf passes and nan fails
        with pytest.raises(ValueError, match="^ordering_values must be finite$"):
            BalanceBasis(signs, ordering_values=values)

    def test_increasing_ordering_values_rejected(self):
        signs = [[1, 1], [-1, 1], [0, -1]]
        # a rise within 1e-12 is a tie up to rounding
        assert BalanceBasis(signs, [1.0, 1.0 + 1e-13]).n_balances == 2
        with pytest.raises(ValueError, match="^ordering_values must be non-increasing$"):
            BalanceBasis(signs, [1.0, 2.0])

    def test_crossing_supports_rejected(self):
        # each column is a valid balance, but the supports neither nest nor
        # stay disjoint, so the columns are not orthogonal
        signs = np.array([[1, 1], [-1, 0], [0, -1]])
        with pytest.raises(ValueError, match="orthonormal"):
            BalanceBasis(signs)


def _latent_model(weights):
    return LatentModel(
        weights=np.array(weights, dtype=float),
        latent_coefficients=np.ones(len(weights[0])),
        x_mean=np.zeros(len(weights)),
        y_mean=0.0,
    )


def _basis_with_ordering(values):
    return BalanceBasis(np.array([[1, 1], [-1, 1], [0, -1]]), values)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _basis_with_ordering([np.nan, 1.0]), "must be finite"),
        (lambda: _latent_model([[1.0], [-1.0], [np.nan]]), "sum to zero"),
    ],
    ids=["covariance", "weight"],
)
def test_nan_rejected(build, message):
    # a NaN fails the finiteness check, or a check that reads
    # "not all(|x| <= tol)"
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("changes, error, message", [
    ({"weights": [1.0, -1.0, 0.0]}, DimensionMismatch, "^weights must be a parts x components matrix$"),
    ({"weights": [[1.0, 0.0, 1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, -1.0]],
      "latent_coefficients": [1.0] * 3},
     RankDeficient, "^3 components not representable for 3 parts$"),
    ({"latent_coefficients": [1.0, 1.0]}, DimensionMismatch, "^latent coefficients must have length k$"),
    ({"x_mean": [0.0, 0.0]}, DimensionMismatch, "^x_mean must have one entry per part$"),
], ids=["1-d-weights", "k-equals-D", "coefficients-length", "x_mean-length"])
def test_latent_model_shapes_checked(changes, error, message):
    fields = {"weights": [[1.0], [-1.0], [0.0]], "latent_coefficients": [1.0], "x_mean": [0.0] * 3,
              "y_mean": 0.0}
    LatentModel(**fields)
    with pytest.raises(error, match=message):
        LatentModel(**{**fields, **changes})


class TestBalanceValues:
    """A balance's values ln(X) @ b are the logcontrast model with
    coefficients b and intercept 0."""

    def test_row_of_ones(self):
        X = CompositionMatrix(np.ones((3, 4)))
        b = signs_to_coefficients(np.array([1, 1, -1, -1]))
        assert_allclose(LogContrastModel(b, 0.0).predict(X), 0.0)

    def test_two_part_formula(self):
        X = CompositionMatrix(np.array([[3.0, 1.0], [2.0, 8.0]]))
        b = signs_to_coefficients(np.array([1, -1]))
        expected = np.log(X.values[:, 0] / X.values[:, 1]) / np.sqrt(2)
        assert_allclose(LogContrastModel(b, 0.0).predict(X), expected, atol=1e-15)

    def test_matches_clr_projection(self, rng):
        # the model reads clr(X); zero-sum coefficients make that ln(X) @ b
        X = random_composition(rng, 15, 9)
        b = signs_to_coefficients(np.array([1, 1, 1, -1, -1, 0, 0, 0, -1]))
        values = LogContrastModel(b, 0.0).predict(X)
        assert np.max(np.abs(values - np.log(X.values) @ b)) < 1e-12

    def test_dimension_mismatch(self, rng):
        X = random_composition(rng, 4, 5)
        b = signs_to_coefficients(np.array([1, -1]))
        with pytest.raises(DimensionMismatch):
            LogContrastModel(b, 0.0).predict(X)


class TestLogContrastModel:
    def test_fields_read_only_and_named(self):
        model = LogContrastModel([0.5, -0.5], 2)
        assert model.intercept == 2.0 and model.n_parts == 2
        assert model.part_names == ("V1", "V2")
        with pytest.raises(ValueError):
            model.coefficients[0] = 1.0

    @pytest.mark.parametrize(
        "coefficients, intercept, names, error",
        [
            ([1.0], 0.0, None, DimensionMismatch),
            ([[1.0, -1.0]], 0.0, None, DimensionMismatch),
            ([np.nan, np.nan], 0.0, None, ValueError),
            ([1.0, -1.0], np.inf, None, ValueError),
            ([1.0, -1.0], 0.0, ("a",), ValueError),
            ([1.0, -1.0 + 1e-9], 0.0, None, ValueError),
        ],
        ids=["one-part", "matrix", "nan", "inf-intercept", "names", "nonzero-sum"],
    )
    def test_malformed_rejected(self, coefficients, intercept, names, error):
        with pytest.raises(error):
            LogContrastModel(coefficients, intercept, names)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 40),
        d=st.integers(2, 12),
        route=st.sampled_from(["pls-pb", "pca-pb", "pls"]),
        log_scales=st.lists(st.floats(-20.0, 20.0), min_size=8, max_size=8),
    )
    def test_row_rescaling_moves_no_prediction(self, seed, n, d, route, log_scales):
        # clr cancels each row's own factor, for the balance and the SIMPLS route
        rng = np.random.default_rng(seed)
        X, y = random_instance(rng, n, d)
        k = int(rng.integers(1, min(d - 1, n - 2) + 1))
        if route == "pls":
            model = pls_regression(X, y).logcontrast()
        else:
            basis = pls_pb(X, y) if route == "pls-pb" else pca_pb(X)
            model = fit_on_balances(X, y, basis, k)
        Xnew = random_composition(rng, 8, d)
        scaled = CompositionMatrix(Xnew.values * np.exp(log_scales)[:, None])
        yhat = model.predict(Xnew)
        assert np.max(np.abs(model.predict(scaled) - yhat)) <= 1e-11 * np.max(np.abs(yhat))

    def test_classify_cuts_at_threshold(self):
        X = CompositionMatrix(np.array([[1.0, 1.0], [np.e, 1.0], [1.0, np.e]]))
        model = LogContrastModel([0.5, -0.5], 0.5)  # predictions 0.5, 1.0, 0.0
        assert model.classify(X).tolist() == [1, 1, 0]
        assert model.classify(X, threshold=0.75).tolist() == [0, 1, 0]


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
        expected = np.sqrt(d / (d - 1.0)) * clr(X)[:, 0]
        assert np.max(np.abs(Z[:, 0] - expected)) < 1e-12

    def test_basis_is_orthonormal(self):
        for d in (2, 3, 7, 40):
            V = pivot_basis(d)
            assert_allclose(V.T @ V, np.eye(d - 1), atol=1e-12)
            assert_allclose(V.sum(axis=0), 0.0, atol=1e-12)

    def test_matches_basis_projection(self, rng):
        X = random_composition(rng, 6, 9)
        via_basis = clr(X) @ pivot_basis(9)
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

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0), (3,)])
    def test_coordinates_need_a_column(self, shape):
        # the error names the coordinates, not the part count pivot_basis would get
        with pytest.raises(ValueError, match="2-d matrix with at least one column"):
            inverse_pivot(np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_coordinates_must_be_finite(self, value):
        # rejected before the back-transform, which would warn on inf - inf
        Z = np.zeros((3, 4))
        Z[1, 2] = value
        with pytest.raises(ValueError, match="coordinates must be finite"):
            inverse_pivot(Z)

    @pytest.mark.parametrize("coordinates", [[[1e308, 1e308], [0.0, 0.0]],  # clr overflows
                                             [[700.0, 0.0], [0.0, 0.0]]])  # exp underflows
    def test_coordinates_out_of_the_float_range(self, coordinates):
        # the error names the coordinates' range, not the composition: no
        # overflow warning and no ZeroPart
        with pytest.raises(ValueError, match="out of range: .* span less than about 745"):
            inverse_pivot(coordinates)

    def test_subnormal_parts_are_kept(self):
        # a row spanning 735, inside the range: its small parts stay positive
        X = inverse_pivot([[600.0, 0.0], [0.0, 0.0]])
        assert np.all(X.values > 0) and X.values[0, 1] < 1e-300

    def test_rows_closed_to_total(self, rng):
        Z = rng.standard_normal((4, 6))
        X = inverse_pivot(Z, total=100.0)
        assert_allclose(X.values.sum(axis=1), 100.0)
