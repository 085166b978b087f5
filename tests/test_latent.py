"""Tests for the SIMPLS engine on clr coordinates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plspb import (
    CompositionMatrix,
    candidate_signs,
    clr,
    inverse_pivot,
    pls_pb,
    pls_regression,
)
from plspb.errors import BalanceError, ConstantResponse, DimensionMismatch, RankDeficient

from conftest import best_balance, random_composition, random_instance


def centered_clr(X):
    C = clr(X)
    return C - C.mean(axis=0)


def model_scores(model, X):
    """Training scores T = (clr(X) - x_mean) W of a fitted model."""
    return (clr(X) - model.x_mean) @ model.weights


def pinv_fitted(X, y):
    """Least-squares oracle: project y onto the centered clr column space."""
    Cc = centered_clr(X)
    yc = y - y.mean()
    return y.mean() + Cc @ np.linalg.pinv(Cc) @ yc


class TestPlsFit:
    def test_full_rank_matches_least_squares(self, rng):
        for _ in range(10):
            n = int(rng.integers(12, 30))
            d = int(rng.integers(3, 10))
            X, y = random_instance(rng, n, d)
            model = pls_regression(X, y, k=min(d - 1, n - 1))
            assert np.max(np.abs(model.logcontrast().predict(X) - pinv_fitted(X, y))) < 1e-6

    def test_default_fits_every_component_on_full_rank_data(self, rng):
        for n, d in ((20, 6), (12, 9), (6, 15)):
            X, y = random_instance(rng, n, d)
            model = pls_regression(X, y)
            assert model.n_components == min(d - 1, n - 1)
            assert np.max(np.abs(model.logcontrast().predict(X) - pinv_fitted(X, y))) < 1e-6

    def test_single_component_captures_planted_contrast(self, rng):
        # When the centered clr Gram matrix is the hyperplane projector,
        # the cross-product vector is proportional to any planted zero-sum
        # direction, so one component suffices. Achieved with coordinates
        # that are orthonormal and column-centered.
        n, d = 30, 6
        raw = rng.standard_normal((n, d - 1))
        Q = np.linalg.qr(raw - raw.mean(axis=0))[0]
        X = inverse_pivot(Q, total=1.0)
        a = rng.standard_normal(d)
        a -= a.mean()
        y = clr(X) @ a
        model = pls_regression(X, y, k=1)
        residual = y - model.logcontrast().predict(X)
        assert np.linalg.norm(residual) < 1e-6 * np.linalg.norm(y)
        # the cross-product deflates to rounding noise after one component:
        # the default stops there, an explicit second component is refused
        assert pls_regression(X, y).n_components == 1
        with pytest.raises(RankDeficient, match="component 2"):
            pls_regression(X, y, k=2)

    def test_first_weight_direction(self, rng):
        X, y = random_instance(rng, 25, 7)
        Xc = centered_clr(X)
        yc = y - y.mean()
        model = pls_regression(X, y, k=3)
        s = Xc.T @ yc
        expected = s / np.linalg.norm(s)
        got = model.weights[:, 0] / np.linalg.norm(model.weights[:, 0])
        agreement = abs(float(expected @ got))
        assert agreement == pytest.approx(1.0, abs=1e-10)

    def test_first_weight_is_pls_pb_root_loading(self, rng):
        # pls-pb's root loading H·g, with g the covariances of the centred log
        # parts with y, is the first SIMPLS weight, oriented the same way
        for _ in range(10):
            n, d = int(rng.integers(8, 40)), int(rng.integers(3, 15))
            X, y = random_instance(rng, n, d)
            hg = centered_clr(X).T @ (y - y.mean())
            hg /= np.linalg.norm(hg)
            if hg[np.argmax(np.abs(hg))] < 0:
                hg = -hg
            w = pls_regression(X, y, 1).weights[:, 0]
            assert np.max(np.abs(w / np.linalg.norm(w) - hg)) <= 1e-10
            coeffs, _ = best_balance(X, y, candidate_signs(w))
            _, tree = pls_pb(X, y, return_tree=True)
            assert np.array_equal(np.sign(coeffs), tree.chosen_signs)

    def test_scores_orthonormal(self, rng):
        X, y = random_instance(rng, 40, 12)
        model = pls_regression(X, y, k=8)
        scores = model_scores(model, X)
        gram = scores.T @ scores
        assert np.max(np.abs(gram - np.eye(8))) < 1e-8

    def test_weights_zero_sum(self, rng):
        X, y = random_instance(rng, 40, 12)
        model = pls_regression(X, y, k=10)
        assert np.max(np.abs(model.weights.sum(axis=0))) < 1e-10

    def test_first_component_covariance_dominates(self, rng):
        X, y = random_instance(rng, 35, 9)
        model = pls_regression(X, y, k=8)
        yc = y - y.mean()
        covs = np.abs(model_scores(model, X).T @ yc)
        assert np.all(covs[0] >= covs[1:] - 1e-10)

    def test_unit_score_norm_constraint(self, rng):
        X, y = random_instance(rng, 22, 5)
        model = pls_regression(X, y, k=4)
        assert_allclose(np.linalg.norm(model_scores(model, X), axis=0), 1.0, atol=1e-10)

    def test_sign_convention(self, rng):
        X, y = random_instance(rng, 20, 6)
        model = pls_regression(X, y, k=4)
        for j in range(4):
            col = model.weights[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_high_component_count_stays_in_hyperplane(self, rng):
        # late components divide by tiny score norms; the weights must stay
        # zero-sum and the scores orthogonal all the way to full rank
        X, y = random_instance(rng, 60, 50)
        model = pls_regression(X, y, k=49)
        scores = model_scores(model, X)
        gram = scores.T @ scores
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-8
        assert np.max(np.abs(model.weights.sum(axis=0))) < 1e-10

    def test_constant_response_rejected(self, rng):
        X = random_composition(rng, 10, 4)
        with pytest.raises(ConstantResponse):
            pls_regression(X, np.ones(10), k=1)

    def test_non_finite_response_rejected(self, rng):
        X, y = random_instance(rng, 10, 4)
        for bad in (np.nan, np.inf):
            y_bad = y.copy()
            y_bad[2] = bad
            with pytest.raises(BalanceError, match="finite"):
                pls_regression(X, y_bad, k=1)

    def test_excess_components_rejected(self, rng):
        X, y = random_instance(rng, 10, 4)
        with pytest.raises(RankDeficient):
            pls_regression(X, y, k=4)

    @pytest.mark.parametrize(
        "rows, y, message",
        [
            ([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0]], [0.0, 1.0], "clr data is constant"),
            # clr rows -c, +c, -c, +c against the centred response ±0.5
            ([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [2.0, 1.0]], [1.0, 1.0, 0.0, 0.0],
             "response is orthogonal to the clr data"),
        ],
        ids=["constant-clr", "orthogonal-response"],
    )
    def test_no_covariance_rejected(self, rows, y, message):
        with pytest.raises(RankDeficient, match=message):
            pls_regression(CompositionMatrix(rows), y)


class TestPrediction:
    def test_training_predictions_match_fit(self, rng):
        X, y = random_instance(rng, 20, 6)
        model = pls_regression(X, y, k=3)
        in_sample = model.y_mean + model_scores(model, X) @ model.latent_coefficients
        assert np.max(np.abs(model.logcontrast().predict(X) - in_sample)) < 1e-12

    def test_full_rank_predictions_match_least_squares(self, rng):
        X, y = random_instance(rng, 25, 6)
        model = pls_regression(X, y, k=5)
        assert np.max(np.abs(model.logcontrast().predict(X) - pinv_fitted(X, y))) < 1e-6

    def test_row_scale_invariance(self, rng):
        X, y = random_instance(rng, 18, 5)
        model = pls_regression(X, y, k=2)
        Xnew = random_composition(rng, 6, 5)
        scaled = CompositionMatrix(Xnew.values * rng.uniform(0.1, 10.0, size=(6, 1)))
        assert_allclose(
            model.logcontrast().predict(scaled), model.logcontrast().predict(Xnew), atol=1e-10
        )

    def test_component_truncation_is_nested(self, rng):
        X, y = random_instance(rng, 24, 7)
        full = pls_regression(X, y, k=5)
        sub = pls_regression(X, y, k=2)
        assert_allclose(
            full.logcontrast(2).predict(X), sub.logcontrast().predict(X), atol=1e-10
        )

    def test_logcontrast_is_the_component_model(self, rng):
        # coefficients W_k v_k sum to zero; the intercept is y_mean - x_mean·β
        X, y = random_instance(rng, 24, 7)
        model = pls_regression(X, y, k=4)
        Xnew = random_composition(rng, 9, 7)
        for k in range(1, 5):
            logcontrast = model.logcontrast(k)
            assert abs(logcontrast.coefficients.sum()) < 1e-12
            expected = model.y_mean + (clr(Xnew) - model.x_mean) @ (
                model.weights[:, :k] @ model.latent_coefficients[:k])
            assert_allclose(logcontrast.predict(Xnew), expected, atol=1e-12)
        assert np.array_equal(model.logcontrast().coefficients, model.logcontrast(4).coefficients)
        for k in (0, 5):
            with pytest.raises(RankDeficient):
                model.logcontrast(k)

    def test_dimension_mismatch(self, rng):
        X, y = random_instance(rng, 15, 5)
        model = pls_regression(X, y, k=2)
        with pytest.raises(DimensionMismatch):
            model.logcontrast().predict(random_composition(rng, 4, 6))


class TestClassify:
    def test_threshold_cut(self, rng):
        # two well-separated groups along one logcontrast
        n = 24
        labels = np.array([0, 1] * (n // 2), dtype=float)
        a = np.array([1.0, -1.0, 0.5, -0.5])
        a -= a.mean()
        logs = 3.0 * labels[:, None] * a[None, :] + 0.05 * rng.standard_normal((n, 4))
        X = CompositionMatrix(np.exp(logs))
        model = pls_regression(X, labels, k=1)
        labels_hat = model.logcontrast().classify(X, threshold=0.5)
        assert np.array_equal(labels_hat, labels.astype(int))

    def test_zero_threshold_marks_nonnegative(self, rng):
        X, y = random_instance(rng, 16, 5)
        model = pls_regression(X, y, k=2)
        scores = model.logcontrast().predict(X)
        expected = (scores >= 0).astype(int)
        assert np.array_equal(model.logcontrast().classify(X, threshold=0.0), expected)

    def test_explicit_scores(self, rng):
        X = random_composition(rng, 10, 4)
        y = np.array([0.9, 0.1] * 5)
        model = pls_regression(X, y, k=1)
        scores = model.logcontrast().predict(X)
        expected = (scores >= 0.5).astype(int)
        assert np.array_equal(model.logcontrast().classify(X), expected)
