"""Tests for error metrics, balance-count models and cross-validation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plspb import (
    CompositionMatrix,
    cross_validate,
    fit_on_balances,
    fold_indices,
    misclassification_error,
    one_se_select,
    pca_pb,
    pls_pb,
    rmsep,
)
from plspb.modelsel import PCA_PB, PLS_PB, PLS_RAW, aggregate_error_runs
from plspb.errors import (
    BalanceError,
    Collinear,
    DimensionMismatch,
    EmptyInput,
    NonBinary,
    RankDeficient,
    TooFewSamples,
)

from conftest import cv_oracle, random_composition, random_instance


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
        with pytest.raises(ValueError, match="need at least 2 folds"):
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
        with pytest.raises(ValueError, match="need at least 2 folds"):
            cross_validate(X, y, PLS_PB, max_k=2, folds=1)

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

        basis = pls_pb(X.take_samples(train_idx), y[train_idx])
        basis_mut = pls_pb(X_mut.take_samples(train_idx), y_mut[train_idx])
        assert np.array_equal(
            basis.coefficient_matrix, basis_mut.coefficient_matrix
        )
        fit = fit_on_balances(X.take_samples(train_idx), y[train_idx], basis, 2)
        fit_mut = fit_on_balances(
            X_mut.take_samples(train_idx), y_mut[train_idx], basis_mut, 2
        )
        assert np.array_equal(fit.coefficients, fit_mut.coefficients)
        assert fit.intercept == fit_mut.intercept


class TestAggregateErrorRuns:
    def test_mean_and_sd(self):
        errs = np.array([[1.0, 2.0], [3.0, 4.0]])
        result = aggregate_error_runs(errs, "rmsep", folds=5, repeats=2)
        assert_allclose(result.mean_error, [2.0, 3.0])
        assert_allclose(result.sd_error, [np.sqrt(2.0), np.sqrt(2.0)])

    def test_single_run_zero_sd(self):
        result = aggregate_error_runs(np.array([[1.0, 0.5]]), "rmsep", 5, 1)
        assert_allclose(result.sd_error, 0.0)
        assert result.selected_k == 2
