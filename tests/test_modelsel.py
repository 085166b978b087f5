"""Tests for error metrics, balance-count models and cross-validation."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from plspb import (
    CompositionMatrix,
    CvResult,
    SimScenario,
    cross_validate,
    fit_on_balances,
    fold_indices,
    misclassification_error,
    mvn_sample,
    one_se_select,
    pca_pb,
    pivot_basis,
    pls_pb,
    pls_regression,
    rmsep,
    simulate_dataset,
)
from plspb import modelsel
from plspb.simgen import spawn_seeds
from plspb.modelsel import METRIC_ME, METRIC_RMSEP, PCA_PB, PLS_PB, PLS_RAW, _errors
from plspb.modelsel import _fold_predictions, aggregate_error_runs
from plspb.errors import (
    BalanceError,
    Collinear,
    DimensionMismatch,
    EmptyInput,
    NonBinary,
    RankDeficient,
    TooFewSamples,
)

from conftest import cv_oracle, partition_nodes, random_composition, random_instance


class TestRmsep:
    def test_perfect_prediction(self):
        assert rmsep(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_value(self):
        assert rmsep(np.array([0.0, 3.0]), np.array([0.0, 0.0])) == pytest.approx(
            np.sqrt(4.5)
        )

    def test_permutation_invariant(self, rng):
        y = rng.standard_normal(30)
        yhat = rng.standard_normal(30)
        perm = rng.permutation(30)
        assert rmsep(y, yhat) == pytest.approx(rmsep(y[perm], yhat[perm]), rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            rmsep(np.array([]), np.array([]))

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            y = rng.standard_normal(n)
            yhat = rng.standard_normal(n)
            brute = np.sqrt(sum((a - b) ** 2 for a, b in zip(y, yhat)) / n)
            assert abs(rmsep(y, yhat) - brute) < 1e-12

    @pytest.mark.parametrize("power", [-1000, -600, 600, 1000])
    def test_scales_exactly_with_a_power_of_two(self, rng, power):
        # the squares of 2^+-600 residuals leave the float range
        y, yhat = rng.standard_normal(30), rng.standard_normal(30)
        expected = np.ldexp(rmsep(y, yhat), power)
        assert rmsep(np.ldexp(y, power), np.ldexp(yhat, power)) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["y", "yhat"])
    def test_non_finite_rejected(self, name, bad):
        values = {"y": [1.0, 2.0], "yhat": [1.0, 1.0]}
        values[name] = [bad, 1.0]
        with pytest.raises(BalanceError, match=f"^{name} values must be finite$"):
            rmsep(values["y"], values["yhat"])


@pytest.mark.parametrize("error", [rmsep, misclassification_error])
def test_shape_mismatch_rejected(error):
    message = r"^y and yhat must have one shape, got \(2,\) and \(1,\)$"
    with pytest.raises(DimensionMismatch, match=message):
        error([1.0, 0.0], [1.0])


class TestMisclassificationError:
    def test_identical(self):
        assert misclassification_error(np.array([0, 1, 1]), np.array([0, 1, 1])) == 0.0

    def test_one_of_four(self):
        got = misclassification_error(np.array([0, 1, 1, 0]), np.array([0, 0, 1, 0]))
        assert got == 0.25

    def test_complement(self):
        y = np.array([0, 1, 0, 1, 1])
        assert misclassification_error(y, 1 - y) == 1.0

    def test_non_binary_rejected(self):
        with pytest.raises(NonBinary):
            misclassification_error(np.array([0, 2]), np.array([0, 1]))
        with pytest.raises(NonBinary):
            misclassification_error(np.array([0, 1]), np.array([0.5, 1.0]))


class TestOnePassErrors:
    """``_errors`` scores every column of a prediction matrix in one pass, each
    equal to the single-column function's value."""

    @pytest.mark.parametrize("power", [0, -600, 600])
    @pytest.mark.parametrize("n, k", [(1, 1), (7, 3), (1000, 20), (1037, 5)])
    def test_rmsep_of_every_column(self, rng, n, k, power):
        # the squares of 2^+-600 residuals leave the float range
        y = np.ldexp(rng.standard_normal(n), power)
        predictions = np.ldexp(rng.standard_normal((n, k)) * rng.uniform(0.1, 10, k), power)
        predictions[:, 0] = y  # a zero residual column
        errors = _errors(y, predictions, METRIC_RMSEP)
        assert errors.tolist() == [rmsep(y, col) for col in predictions.T]

    @pytest.mark.parametrize("n, k", [(1, 1), (9, 4), (1000, 20)])
    def test_misclassification_of_every_column(self, rng, n, k):
        y = rng.integers(0, 2, n).astype(float)
        labels = rng.integers(0, 2, (n, k)).astype(bool)
        errors = _errors(y, labels, METRIC_ME)
        assert errors.tolist() == [misclassification_error(y, col) for col in labels.T]


class TestOneSeSelect:
    def test_zero_sd_picks_argmin(self):
        assert one_se_select(np.array([5.0, 4.0, 3.0, 2.0]), np.zeros(4)) == 4

    def test_hand_example(self):
        means = np.array([5.0, 3.0, 2.9, 2.95])
        sds = np.full(4, 0.2)
        assert one_se_select(means, sds) == 2

    def test_single_entry(self):
        assert one_se_select(np.array([1.0]), np.array([0.5])) == 1

    def test_never_exceeds_argmin(self, rng):
        for _ in range(50):
            means = rng.uniform(0.5, 3.0, size=8)
            sds = rng.uniform(0.0, 0.5, size=8)
            assert one_se_select(means, sds) <= int(np.argmin(means)) + 1

    def test_ties_take_lowest_index(self):
        means = np.array([2.0, 1.0, 1.0])
        sds = np.array([0.0, 0.0, 5.0])
        assert one_se_select(means, sds) == 2

    @pytest.mark.parametrize("means, sds", [([np.nan, 1.0], [0.0, 0.0]), ([1.0, 2.0], [0.0, np.inf]),
                                            ([np.inf], [0.0])], ids=["nan-mean", "inf-sd", "inf-mean"])
    def test_non_finite_curves_rejected(self, means, sds):
        with pytest.raises(ValueError, match="finite"):
            one_se_select(means, sds)
        with pytest.raises(ValueError, match="finite"):
            CvResult(np.array(means), np.array(sds), "rmsep", 5, 1)

    @pytest.mark.parametrize("means, sds", [([[1.0, 0.5]], [[0.0, 0.0]]), ([1.0, 0.5], [0.0]),
                                            ([1.0], [[0.0]])], ids=["2-d", "unequal", "mixed"])
    def test_malformed_curves_rejected(self, means, sds):
        with pytest.raises(ValueError, match="^mean and sd curves must be 1-d with equal length$"):
            one_se_select(means, sds)
        with pytest.raises(ValueError, match="^error curves must be nonempty 1-d with one length$"):
            CvResult(means, sds, "rmsep", 5, 1)

    def test_empty_curves_rejected(self):
        with pytest.raises(EmptyInput, match="^need at least one candidate size$"):
            one_se_select([], [])
        with pytest.raises(ValueError, match="^error curves must be nonempty 1-d with one length$"):
            CvResult([], [], "rmsep", 5, 1)

    def test_negative_sd_rejected(self):
        # no count would fall under a threshold below the minimum
        with pytest.raises(ValueError, match="sd_error nonnegative"):
            one_se_select([1.0, 0.5], [0.0, -0.01])


class TestFitOnBalances:
    def test_full_size_fit_agrees_across_bases(self, rng):
        X, y = random_instance(rng, 25, 6)
        k = X.n_parts - 1
        fit_pls = fit_on_balances(X, y, pls_pb(X, y), k).predict(X)
        fit_pca = fit_on_balances(X, y, pca_pb(X), k).predict(X)
        assert np.max(np.abs(fit_pls - fit_pca)) < 1e-8

    def test_constant_response(self, rng):
        X = random_composition(rng, 15, 5)
        basis = pca_pb(X)
        model = fit_on_balances(X, np.full(15, 7.0), basis, 3)
        assert_allclose(model.coefficients, 0.0, atol=1e-12)
        assert model.intercept == pytest.approx(7.0)

    def test_planted_single_balance(self, rng):
        X, y0 = random_instance(rng, 30, 8)
        basis = pls_pb(X, y0)
        first = basis.coefficient_matrix[:, 0]
        y = 2.5 * np.log(X.values) @ first + 1.0
        model = fit_on_balances(X, y, basis, 1)
        assert np.max(np.abs(model.predict(X) - y)) < 1e-8

    def test_in_sample_error_non_increasing(self, rng):
        X, y = random_instance(rng, 30, 10)
        basis = pls_pb(X, y)
        errors = [
            rmsep(y, fit_on_balances(X, y, basis, k).predict(X))
            for k in range(1, X.n_parts)
        ]
        assert np.all(np.diff(errors) <= 1e-10)

    def test_collinear_when_too_few_rows(self, rng):
        X, y = random_instance(rng, 8, 12)
        basis = pls_pb(X, y)
        with pytest.raises(Collinear):
            fit_on_balances(X, y, basis, 9)


class TestFoldIndices:
    def test_partition_of_range(self, rng):
        folds = fold_indices(23, 5, rng)
        assert sorted(np.concatenate(folds).tolist()) == list(range(23))
        sizes = sorted(len(f) for f in folds)
        assert sizes == [4, 4, 5, 5, 5]

    def test_too_few_samples(self, rng):
        with pytest.raises(TooFewSamples, match="3 samples cannot fill 5 folds"):
            fold_indices(3, 5, rng)

    def test_one_fold_rejected(self, rng):
        with pytest.raises(ValueError, match="^folds must be at least 2, got 1$"):
            fold_indices(10, 1, rng)

    def test_seeded_reproducibility(self):
        a = fold_indices(17, 4, np.random.default_rng(5))
        b = fold_indices(17, 4, np.random.default_rng(5))
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)


class TestCrossValidate:
    @pytest.mark.parametrize(
        "method, folds",
        [
            pytest.param(method, folds, id=method if folds == 6 else f"{method}-3folds")
            for method in (PLS_PB, PCA_PB, PLS_RAW)
            for folds in (6, 3)
        ],
    )
    def test_leave_one_out_matches_oracle(self, rng, method, folds):
        # folds == n is leave-one-out; 3 folds hold out two rows each
        X, y = random_instance(rng, 6, 5)
        result = cross_validate(X, y, method, max_k=3, folds=folds, repeats=1, seed=11)
        expected = cv_oracle(X, y, method, 3, folds, seed=11)
        assert np.max(np.abs(result.mean_error - expected)) < 1e-10

    @pytest.mark.parametrize("method", [PLS_PB, PCA_PB, PLS_RAW])
    def test_fold_predictions_are_the_logcontrast_models(self, rng, method):
        # one QR and one triangular solve per fold predict, at every k, what
        # the fold's own LogContrastModel predicts for the rows it holds out
        X, y = random_instance(rng, 40, 12)
        max_k, folds, seed = 8, 4, 5
        stream = np.random.SeedSequence(seed).spawn(1)[0]
        got = _fold_predictions(np.log(X.values), y, method, max_k, folds,
                                np.random.default_rng(stream))
        result = cross_validate(X, y, method, max_k=max_k, folds=folds, seed=seed)
        assert np.array_equal(result.mean_error, [rmsep(y, col) for col in got.T])
        for test in fold_indices(X.n_samples, folds, np.random.default_rng(stream)):
            train = np.delete(np.arange(X.n_samples), test)
            X_train, y_train = CompositionMatrix(X.values[train]), y[train]
            if method == PLS_RAW:
                latent = pls_regression(X_train, y_train, max_k)
                models = [latent.logcontrast(k) for k in range(1, max_k + 1)]
            else:
                basis = pls_pb(X_train, y_train) if method == PLS_PB else pca_pb(X_train)
                models = [fit_on_balances(X_train, y_train, basis, k)
                          for k in range(1, max_k + 1)]
            want = np.column_stack([m.predict(CompositionMatrix(X.values[test])) for m in models])
            assert np.max(np.abs(got[test] - want)) <= 1e-10 * np.max(np.abs(want))

    def test_deterministic_given_seed(self, rng):
        X, y = random_instance(rng, 20, 6)
        a = cross_validate(X, y, PLS_PB, max_k=4, folds=5, repeats=2, seed=3)
        b = cross_validate(X, y, PLS_PB, max_k=4, folds=5, repeats=2, seed=3)
        assert np.array_equal(a.mean_error, b.mean_error)
        assert np.array_equal(a.sd_error, b.sd_error)
        assert a.selected_k == b.selected_k

    def test_different_seeds_differ(self, rng):
        X, y = random_instance(rng, 20, 6)
        a = cross_validate(X, y, PLS_PB, max_k=4, folds=5, repeats=1, seed=3)
        b = cross_validate(X, y, PLS_PB, max_k=4, folds=5, repeats=1, seed=4)
        assert not np.array_equal(a.mean_error, b.mean_error)

    def test_selected_k_respects_rule(self, rng):
        X, y = random_instance(rng, 24, 7)
        result = cross_validate(X, y, PCA_PB, max_k=6, folds=4, repeats=3, seed=9)
        assert result.selected_k == one_se_select(result.mean_error, result.sd_error)

    def test_misclassification_metric(self, rng):
        n = 24
        labels = np.array([0.0, 1.0] * (n // 2))
        a = np.array([1.5, -1.5, 0.7, -0.7, 0.0])
        a -= a.mean()
        logs = 2.0 * labels[:, None] * a[None, :] + 0.1 * rng.standard_normal((n, 5))
        X = CompositionMatrix(np.exp(logs))
        result = cross_validate(
            X, labels, PLS_PB, max_k=3, folds=4, repeats=2, seed=2, metric="me"
        )
        assert np.all(result.mean_error >= 0) and np.all(result.mean_error <= 1)
        assert result.mean_error[0] < 0.2

    def test_too_few_samples(self, rng):
        X, y = random_instance(rng, 4, 4)
        with pytest.raises(TooFewSamples, match="4 samples cannot fill 5 folds"):
            cross_validate(X, y, PLS_PB, max_k=2, folds=5)
        with pytest.raises(ValueError, match="^folds must be at least 2, got 1$"):
            cross_validate(X, y, PLS_PB, max_k=2, folds=1)
        # two folds of two rows: every basis build would see only two samples
        for method in (PLS_PB, PCA_PB):
            with pytest.raises(TooFewSamples, match="needs at least 3 samples, got 2"):
                cross_validate(X, y, method, max_k=1, folds=2)

    @pytest.mark.parametrize("method", [PLS_PB, PCA_PB])
    def test_training_folds_too_small_for_a_basis(self, rng, method, monkeypatch):
        X, y = random_instance(rng, 3, 4)

        def no_fit(*args):
            raise AssertionError("a fold was fitted")

        monkeypatch.setattr(modelsel, "_leading_signs", no_fit)
        message = "^3 samples in 3 folds: .* got 2 in a training fold$"
        with pytest.raises(TooFewSamples, match=message):
            cross_validate(X, y, method, max_k=1, folds=3)

    @pytest.mark.parametrize("method", [PLS_PB, PCA_PB, PLS_RAW])
    def test_one_row_test_folds(self, rng, method):
        # n = folds: every test fold holds one row
        X, y = random_instance(rng, 8, 6)
        result = cross_validate(X, y, method, max_k=3, folds=8, repeats=2, seed=4)
        again = cross_validate(X, y, method, max_k=3, folds=8, repeats=2, seed=4)
        assert np.all(np.isfinite(result.mean_error)) and np.all(np.isfinite(result.sd_error))
        assert np.array_equal(result.mean_error, again.mean_error)
        assert np.array_equal(result.sd_error, again.sd_error)

    def test_non_finite_response_rejected(self, rng):
        X, y = random_instance(rng, 12, 5)
        basis = pls_pb(X, y)
        y[4] = np.nan
        for method in (PLS_PB, PCA_PB, PLS_RAW):
            with pytest.raises(BalanceError, match="finite"):
                cross_validate(X, y, method, max_k=2, folds=4)
        with pytest.raises(BalanceError, match="finite"):
            fit_on_balances(X, y, basis, 2)

    @pytest.mark.parametrize("length", [11, 13], ids=["short", "long"])
    def test_response_length_checked(self, rng, length):
        X, _ = random_instance(rng, 12, 5)
        y = rng.standard_normal(length)
        for method in (PLS_PB, PCA_PB, PLS_RAW):
            with pytest.raises(DimensionMismatch, match="response length"):
                cross_validate(X, y, method, max_k=2, folds=4)

    def test_collinearity_found_inside_a_fold(self, rng):
        # a duplicated part leaves clr rank D-2, which only the fold fits see
        X0 = random_composition(rng, 30, 6)
        X = CompositionMatrix(np.column_stack([X0.values[:, :5], X0.values[:, 4]]))
        y = rng.standard_normal(30)
        for method in (PLS_PB, PCA_PB, PLS_RAW):
            result = cross_validate(X, y, method, max_k=4, folds=5)
            assert np.all(np.isfinite(result.mean_error))
        for method, error in ((PLS_PB, Collinear), (PCA_PB, Collinear), (PLS_RAW, RankDeficient)):
            with pytest.raises(error):
                cross_validate(X, y, method, max_k=5, folds=5)

    def test_max_k_bounds_checked(self, rng):
        X, y = random_instance(rng, 12, 5)
        with pytest.raises(ValueError):
            cross_validate(X, y, PLS_PB, max_k=5, folds=4)
        # wide data: the largest training fold of 12 rows in 5 folds holds 9
        X, y = random_instance(rng, 12, 30)
        with pytest.raises(RankDeficient, match="max_k=10 exceeds trainable rank 8"):
            cross_validate(X, y, PLS_RAW, max_k=10, folds=5)
        for method in (PLS_PB, PCA_PB):
            with pytest.raises(Collinear, match="max_k=10 regressors need more than 9 rows"):
                cross_validate(X, y, method, max_k=10, folds=5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"method": "lasso"}, "unknown method 'lasso'"),
            ({"metric": "mse"}, "unknown metric 'mse'"),
            ({"repeats": 0}, "^repeats must be at least 1, got 0$"),
        ],
        ids=["method", "metric", "repeats"],
    )
    def test_bad_arguments_rejected(self, rng, kwargs, message):
        X, y = random_instance(rng, 12, 5)
        with pytest.raises(ValueError, match=message):
            cross_validate(X, y, **{"method": PLS_PB, "max_k": 2, **kwargs})

    def test_one_block_curves_nearly_coincide_at_small_k(self):
        # in the single-block setting both balance systems recover the same
        # dominant contrast, so their error curves track each other closely
        from plspb import SimScenario, simulate_dataset
        from plspb.simgen import spawn_seeds

        curves = {PLS_PB: [], PCA_PB: []}
        for seed in spawn_seeds(500, 6):
            ds = simulate_dataset(SimScenario("one-block", seed=seed))
            for method in curves:
                result = cross_validate(
                    ds.X, ds.y, method, max_k=3, folds=5, repeats=1, seed=seed
                )
                curves[method].append(result.mean_error)
        mean_pls = np.mean(curves[PLS_PB], axis=0)
        mean_pca = np.mean(curves[PCA_PB], axis=0)
        assert np.max(np.abs(mean_pls - mean_pca) / mean_pca) < 0.1

    def test_training_rows_immune_to_test_mutation(self, rng):
        # fold models must depend on training rows only
        X, y = random_instance(rng, 18, 5)
        rng_folds = np.random.default_rng(77)
        folds = fold_indices(18, 3, rng_folds)
        test_idx = folds[0]
        train_idx = np.concatenate(folds[1:])
        mutated = X.values.copy()
        mutated[test_idx] = rng.uniform(5.0, 50.0, size=(len(test_idx), 5))
        X_mut = CompositionMatrix(mutated, X.part_names)
        y_mut = y.copy()
        y_mut[test_idx] = rng.standard_normal(len(test_idx))

        X_train = CompositionMatrix(X.values[train_idx])
        X_mut_train = CompositionMatrix(X_mut.values[train_idx])
        basis = pls_pb(X_train, y[train_idx])
        basis_mut = pls_pb(X_mut_train, y_mut[train_idx])
        assert np.array_equal(
            basis.coefficient_matrix, basis_mut.coefficient_matrix
        )
        fit = fit_on_balances(X_train, y[train_idx], basis, 2)
        fit_mut = fit_on_balances(X_mut_train, y_mut[train_idx], basis_mut, 2)
        assert np.array_equal(fit.coefficients, fit_mut.coefficients)
        assert fit.intercept == fit_mut.intercept


class TestAggregateErrorRuns:
    def test_mean_and_sd(self):
        errs = np.array([[1.0, 2.0], [3.0, 4.0]])
        result = aggregate_error_runs(errs, "rmsep", folds=5, repeats=2)
        assert_allclose(result.mean_error, [2.0, 3.0])
        assert_allclose(result.sd_error, [np.sqrt(2.0), np.sqrt(2.0)])

    @pytest.mark.parametrize("power", [-1000, 1000])
    def test_sd_scales_exactly_with_a_power_of_two(self, rng, power):
        errs = rng.uniform(1, 2, size=(4, 3))
        result = aggregate_error_runs(np.ldexp(errs, power), "rmsep", folds=5, repeats=4)
        reference = aggregate_error_runs(errs, "rmsep", folds=5, repeats=4)
        assert np.array_equal(result.sd_error, np.ldexp(reference.sd_error, power))
        assert np.array_equal(result.mean_error, np.ldexp(reference.mean_error, power))

    def test_single_run_zero_sd(self):
        result = aggregate_error_runs(np.array([[1.0, 0.5]]), "rmsep", 5, 1)
        assert_allclose(result.sd_error, 0.0)
        assert result.selected_k == 2

    @pytest.mark.parametrize("kwargs, message", [
        ({"metric": "bogus", "folds": 1.5, "repeats": True}, "^unknown metric 'bogus'$"),
        ({"folds": 1.5}, r"^folds=1\.5 is not an integer$"),
        ({"folds": 1}, "^folds must be at least 2, got 1$"),
        ({"repeats": True}, "^repeats=True is not an integer$"),
        ({"repeats": 0}, "^repeats must be at least 1, got 0$"),
    ])
    def test_recorded_settings_checked(self, kwargs, message):
        # the same checks cross_validate makes on the settings it records
        with pytest.raises(ValueError, match=message):
            aggregate_error_runs(np.ones((2, 3)), **{"metric": "rmsep", "folds": 5, "repeats": 2,
                                                     **kwargs})

    @pytest.mark.parametrize("errors", [np.ones(3), np.ones((0, 3)), np.ones((2, 3, 1))],
                             ids=["1-d", "no-runs", "3-d"])
    def test_error_matrix_checked(self, errors):
        with pytest.raises(ValueError, match="^need a runs x k error matrix$"):
            aggregate_error_runs(errors, "rmsep", 5, 2)

    def test_constructor_checks_the_settings(self):
        with pytest.raises(ValueError, match="^unknown metric 'bogus'$"):
            CvResult([1.0], [0.0], "bogus", folds=1.5, repeats=True)
        with pytest.raises(ValueError, match=r"^folds=1\.5 is not an integer$"):
            CvResult([1.0], [0.0], "rmsep", folds=1.5, repeats=True)
        with pytest.raises(ValueError, match="^repeats=True is not an integer$"):
            CvResult([1.0], [0.0], "me", folds=2, repeats=True)


# Every integer argument goes through one check: an int or a numpy integer,
# never a bool, else a ValueError naming the argument.
_NON_INTEGERS = {
    "cv-max_k-float": (lambda X, y: cross_validate(X, y, PLS_PB, max_k=2.5), "max_k"),
    "cv-max_k-bool": (lambda X, y: cross_validate(X, y, PLS_PB, max_k=True), "max_k"),
    "cv-repeats": (lambda X, y: cross_validate(X, y, PLS_PB, max_k=2, repeats=1.5), "repeats"),
    "cv-folds": (lambda X, y: cross_validate(X, y, PCA_PB, max_k=2, folds=2.5), "folds"),
    "fold_indices": (lambda X, y: fold_indices(10, 2.5, np.random.default_rng(0)), "folds"),
    "fit_on_balances": (lambda X, y: fit_on_balances(X, y, pls_pb(X, y), k=1.5), "k"),
    "pls_regression": (lambda X, y: pls_regression(X, y, 1.5), "k"),
    "logcontrast": (lambda X, y: pls_regression(X, y).logcontrast(1.5), "k"),
    "pls_pb-bool": (lambda X, y: pls_pb(X, y, max_k=True), "max_k"),
    "pca_pb-bool": (lambda X, y: pca_pb(X, max_k=np.True_), "max_k"),
    "cv-seed-float": (lambda X, y: cross_validate(X, y, PLS_PB, max_k=2, seed=1.5), "seed"),
    "cv-seed-bool": (lambda X, y: cross_validate(X, y, PLS_PB, max_k=2, seed=True), "seed"),
    "fold_indices-n": (lambda X, y: fold_indices(10.5, 2, np.random.default_rng(0)), "n"),
    "scenario-n": (lambda X, y: SimScenario("same-blocks", n=30.5, D=10, block_sizes=(2, 3)),
                   "n"),
    "scenario-D": (lambda X, y: SimScenario("same-blocks", n=30, D=10.5, block_sizes=(2, 3)),
                   "D"),
    "scenario-block": (lambda X, y: SimScenario("same-blocks", n=30, D=10, block_sizes=(2.7, 3)),
                       r"block_sizes\[0\]"),
    "scenario-seed-float": (lambda X, y: SimScenario("one-block", n=30, D=10, block_sizes=(2,),
                                                     seed=1.5), "seed"),
    "scenario-seed-bool": (lambda X, y: SimScenario("one-block", n=30, D=10, block_sizes=(2,),
                                                    seed=True), "seed"),
    "mvn_sample": (lambda X, y: mvn_sample(np.eye(2), 2.5, np.random.default_rng(0)), "n"),
    "pivot_basis": (lambda X, y: pivot_basis(3.5), "n_parts"),
    "spawn_seeds-seed": (lambda X, y: spawn_seeds(1.5, 2), "seed"),
    "spawn_seeds-count": (lambda X, y: spawn_seeds(1, 2.5), "count"),
}


@pytest.mark.parametrize("call, name", _NON_INTEGERS.values(), ids=_NON_INTEGERS.keys())
def test_non_integer_arguments_rejected(rng, call, name):
    X, y = random_instance(rng, 12, 5)
    with pytest.raises(ValueError, match=rf"^{name}=\S+ is not an integer$"):
        call(X, y)


def test_numpy_integers_accepted(rng):
    X, y = random_instance(rng, 12, 5)
    result = cross_validate(X, y, PLS_PB, max_k=np.int64(2), folds=np.int32(3), repeats=np.int8(2))
    assert np.array_equal(result.mean_error,
                          cross_validate(X, y, PLS_PB, max_k=2, folds=3, repeats=2).mean_error)
    basis = pls_pb(X, y, max_k=np.int16(3))
    assert basis.n_balances == 3
    fits = fit_on_balances(X, y, basis, np.int64(2)), fit_on_balances(X, y, basis, 2)
    model = pls_regression(X, y, np.uint8(2))
    assert model.n_components == 2
    fits += model.logcontrast(np.int64(1)), model.logcontrast(1)
    for a, b in (fits[:2], fits[2:]):
        assert np.array_equal(a.coefficients, b.coefficients) and a.intercept == b.intercept
    scenario = SimScenario("same-blocks", n=np.int64(30), D=np.int32(10),
                           block_sizes=(np.int64(2), np.uint8(3)), seed=np.int16(4))
    assert scenario.block_sizes == (2, 3) and scenario.seed == 4
    assert all(type(v) is int for v in (*scenario.block_sizes, scenario.seed))
    data = simulate_dataset(scenario)
    same = simulate_dataset(SimScenario("same-blocks", n=30, D=10, block_sizes=(2, 3), seed=4))
    assert np.array_equal(data.X.values, same.X.values) and np.array_equal(data.y, same.y)
    assert spawn_seeds(np.int64(3), np.int8(2)) == spawn_seeds(3, 2)
    assert np.array_equal(pivot_basis(np.int64(4)), pivot_basis(4))


# Counts below their least value name the argument, the bound and the value.
_BELOW_BOUND = {
    "cv-folds": (lambda X, y: cross_validate(X, y, PLS_PB, max_k=2, folds=1), "folds", 2, 1),
    "cv-repeats": (lambda X, y: cross_validate(X, y, PLS_PB, max_k=2, repeats=0), "repeats", 1, 0),
    "cv-seed": (lambda X, y: cross_validate(X, y, PLS_PB, max_k=2, seed=-1), "seed", 0, -1),
    "scenario-n": (lambda X, y: SimScenario("one-block", n=1, D=10, block_sizes=(2,)), "n", 2, 1),
    "scenario-D": (lambda X, y: SimScenario("one-block", n=30, D=2, block_sizes=(2,)), "D", 3, 2),
    "scenario-block": (lambda X, y: SimScenario("same-blocks", n=30, D=10, block_sizes=(2, 1)),
                       "block_sizes[1]", 2, 1),
    "scenario-seed": (lambda X, y: SimScenario("one-block", n=30, D=10, block_sizes=(2,),
                                               seed=-1), "seed", 0, -1),
    "spawn_seeds-seed": (lambda X, y: spawn_seeds(-1, 2), "seed", 0, -1),
    "spawn_seeds-count": (lambda X, y: spawn_seeds(1, -1), "count", 0, -1),
    "pivot_basis": (lambda X, y: pivot_basis(1), "n_parts", 2, 1),
    "mvn_sample": (lambda X, y: mvn_sample(np.eye(2), -1, np.random.default_rng(0)), "n", 0, -1),
}


@pytest.mark.parametrize("call, name, low, value", _BELOW_BOUND.values(),
                         ids=_BELOW_BOUND.keys())
def test_counts_below_their_bound_rejected(rng, call, name, low, value):
    X, y = random_instance(rng, 12, 5)
    message = rf"^{re.escape(name)} must be at least {low}, got {value}$"
    with pytest.raises(ValueError, match=message):
        call(X, y)


def test_counts_outside_their_range_rejected(rng):
    X, y = random_instance(rng, 12, 5)
    basis = pls_pb(X, y)
    with pytest.raises(ValueError, match=r"^max_k=5 outside 1\.\.4$"):
        cross_validate(X, y, PLS_PB, max_k=5, folds=4)
    for k in (0, 5):
        with pytest.raises(ValueError, match=rf"^k={k} outside 1\.\.4$"):
            fit_on_balances(X, y, basis, k)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), power=st.integers(-1000, 1000))
@example(seed=0, power=-1000)
@example(seed=1, power=1000)
def test_outputs_scale_exactly_with_y(seed, power):
    # pls_pb, pls_regression and cross_validate read y at a power-of-two
    # scale, so on y * 2^power their outputs are the unscaled ones, with each
    # score, coefficient and error times 2^power, bit for bit; at y * 10^+-200
    # the signs stay the same
    rng = np.random.default_rng(seed)
    X, y = random_instance(rng, int(rng.integers(15, 40)), int(rng.integers(3, 12)))
    scaled = np.ldexp(y, power)

    def assert_scaled(values, reference):
        assert np.array_equal(values, np.ldexp(reference, power))

    reference, reference_tree = pls_pb(X, y, return_tree=True)
    basis, tree = pls_pb(X, scaled, return_tree=True)
    assert np.array_equal(basis.sign_matrix, reference.sign_matrix)
    assert_scaled(basis.ordering_values, reference.ordering_values)
    for node, node_ref in zip(partition_nodes(tree), partition_nodes(reference_tree), strict=True):
        assert np.array_equal(node.chosen_signs, node_ref.chosen_signs)
        assert_scaled(node.chosen_value, node_ref.chosen_value)
        if node_ref.connecting_value is not None:
            assert_scaled(node.connecting_value, node_ref.connecting_value)
    max_k = int(rng.integers(1, X.n_parts))
    top = pls_pb(X, scaled, max_k=max_k)
    assert np.array_equal(top.sign_matrix, reference.sign_matrix[:, :max_k])
    assert_scaled(top.ordering_values, reference.ordering_values[:max_k])
    for decimal in (-200, 200):
        assert np.array_equal(pls_pb(X, y * 10.0**decimal).sign_matrix, reference.sign_matrix)

    model, model_ref = pls_regression(X, scaled), pls_regression(X, y)
    assert np.array_equal(model.weights, model_ref.weights)
    assert np.array_equal(model.x_mean, model_ref.x_mean)
    assert_scaled(model.latent_coefficients, model_ref.latent_coefficients)
    assert_scaled(model.y_mean, model_ref.y_mean)

    max_k = min(3, X.n_parts - 1)
    for method in (PLS_PB, PCA_PB, PLS_RAW):
        result = cross_validate(X, scaled, method, max_k, repeats=3, seed=seed % 7)
        result_ref = cross_validate(X, y, method, max_k, repeats=3, seed=seed % 7)
        assert_scaled(result.mean_error, result_ref.mean_error)
        assert_scaled(result.sd_error, result_ref.sd_error)
