"""Tests for the block-covariance dataset generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from plspb import (
    SimScenario,
    build_sigma,
    marker_recovery,
    mvn_sample,
    pivot_coordinates,
    pls_pb,
    signs_to_coefficients,
    simulate_dataset,
)
from plspb.coda import ALGEBRA_TOL
from plspb.errors import DimensionMismatch, NotPositiveDefinite
from plspb.simgen import (
    CASES,
    CASE_DIFFERENT_BLOCKS,
    CASE_ONE_BLOCK,
    CASE_SAME_BLOCKS,
    response_from_coordinates,
    spawn_seeds,
)


class TestScenario:
    def test_case_defaults(self):
        assert SimScenario(CASE_ONE_BLOCK).block_sizes == (20,)
        assert SimScenario(CASE_SAME_BLOCKS).block_sizes == (20, 20, 20, 20)
        assert SimScenario(CASE_DIFFERENT_BLOCKS).block_sizes == (30, 10, 30, 10)

    def test_marker_overflow_rejected(self):
        with pytest.raises(ValueError):
            SimScenario(CASE_ONE_BLOCK, D=20, block_sizes=(20,))

    def test_one_block_must_be_single_even(self):
        with pytest.raises(ValueError):
            SimScenario(CASE_ONE_BLOCK, block_sizes=(10, 10))
        with pytest.raises(ValueError):
            SimScenario(CASE_ONE_BLOCK, block_sizes=(15,))

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            SimScenario("five-blocks")

    @pytest.mark.parametrize("noise_sd", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_noise_sd_finite_and_nonnegative(self, noise_sd):
        with pytest.raises(ValueError, match="noise_sd must be finite and nonnegative"):
            SimScenario(CASE_ONE_BLOCK, noise_sd=noise_sd)


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_beta_finite(self, bad):
        # a NaN beta entry would simulate an all-NaN response
        with pytest.raises(ValueError, match="beta must be finite"):
            SimScenario(CASE_ONE_BLOCK, n=5, D=25, beta=(1.0,) * 19 + (bad,))
        with pytest.raises(ValueError, match="beta must be finite"):
            SimScenario(CASE_ONE_BLOCK, n=5, D=25, beta=(bad,) * 20)


    def test_beta_length(self):
        with pytest.raises(ValueError, match="^beta must carry one value per marker coordinate$"):
            SimScenario(CASE_ONE_BLOCK, n=5, D=25, beta=(1.0,) * 19)


class TestBuildSigma:
    def test_tiny_one_block_exact(self):
        sigma = build_sigma(SimScenario(CASE_ONE_BLOCK, D=4, block_sizes=(2,)))
        expected = np.array(
            [[2.0, -0.5, 0.0], [-0.5, 2.0, 0.0], [0.0, 0.0, 1.0]]
        )
        assert_allclose(sigma, expected)

    def test_symmetric(self):
        for case in (CASE_ONE_BLOCK, CASE_SAME_BLOCKS, CASE_DIFFERENT_BLOCKS):
            sigma = build_sigma(SimScenario(case))
            assert np.array_equal(sigma, sigma.T)

    def test_one_block_outside_entries_zero(self):
        sigma = build_sigma(SimScenario(CASE_ONE_BLOCK, D=100, block_sizes=(20,)))
        outside = sigma[20:, :].copy()
        np.fill_diagonal(outside[:, 20:], 0.0)
        assert np.all(outside == 0.0)
        assert np.all(np.diag(sigma)[:20] == 2.0)
        assert np.all(np.diag(sigma)[20:] == 1.0)

    def test_alternating_sign_pattern(self):
        sigma = build_sigma(SimScenario(CASE_ONE_BLOCK, D=10, block_sizes=(4,)))
        # 1-based positions i, j: sign is (-1)^(i+j)
        assert sigma[0, 1] == -0.5
        assert sigma[0, 2] == 0.5
        assert sigma[1, 3] == 0.5

    def test_all_cases_positive_definite(self):
        for case in (CASE_ONE_BLOCK, CASE_SAME_BLOCKS, CASE_DIFFERENT_BLOCKS):
            sigma = build_sigma(SimScenario(case))
            np.linalg.cholesky(sigma)

    @settings(deadline=None)
    @given(data=st.data())
    def test_every_valid_scenario_positive_definite(self, data):
        # each marker block is 0.5 s P T P + (2 - 0.5 s) I with s <= 1 and T
        # positive semidefinite, and the noise coordinates have variance 1
        case = data.draw(st.sampled_from(CASES))
        if case == CASE_ONE_BLOCK:
            sizes = (2 * data.draw(st.integers(1, 30)),)
        else:
            sizes = tuple(data.draw(st.lists(st.integers(2, 30), min_size=1, max_size=6)))
        D = data.draw(st.integers(sum(sizes) + 2, sum(sizes) + 20))
        sigma = build_sigma(SimScenario(case, D=D, block_sizes=sizes))
        assert np.linalg.eigvalsh(sigma).min() >= 1 - 1e-12

    def test_same_blocks_strength_ordering(self):
        sigma = build_sigma(SimScenario(CASE_SAME_BLOCKS))
        # adjacent off-diagonal magnitude reflects block strength: block 1
        # strongest, block 2 weakest
        strengths = [abs(sigma[offset, offset + 1]) for offset in (0, 20, 40, 60)]
        assert strengths[0] == max(strengths)
        assert strengths[1] == min(strengths)

    def test_same_blocks_taper(self):
        sigma = build_sigma(SimScenario(CASE_SAME_BLOCKS))
        magnitudes = np.abs(sigma[0, 1:20])
        assert np.all(np.diff(magnitudes) < 0)

    def test_different_blocks_uniform_range(self):
        sigma = build_sigma(SimScenario(CASE_DIFFERENT_BLOCKS))
        for offset, size in zip((0, 30, 40, 70), (30, 10, 30, 10)):
            block = sigma[offset : offset + size, offset : offset + size]
            off = block[~np.eye(size, dtype=bool)]
            assert np.all(np.abs(off) == 0.5)
            assert np.all(np.diag(block) == 2.0)


class TestMvnSample:
    def test_deterministic(self):
        sigma = build_sigma(SimScenario(CASE_ONE_BLOCK, D=10, block_sizes=(4,)))
        a = mvn_sample(sigma, 20, np.random.default_rng(3))
        b = mvn_sample(sigma, 20, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_moments_identity_sigma(self):
        rng = np.random.default_rng(0)
        Z = mvn_sample(np.eye(5), 50000, rng)
        assert np.max(np.abs(Z.mean(axis=0))) < 0.05
        sample_cov = np.cov(Z, rowvar=False)
        assert np.max(np.abs(sample_cov - np.eye(5))) < 0.1

    def test_rejects_indefinite(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            mvn_sample(bad, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma, message", [
        # the Cholesky factor reads the lower triangle: this one drew a sample
        # covariance of -0.91 off the diagonal
        ([[1.0, 0.9], [-0.9, 1.0]], "^sigma must be symmetric$"),
        ([[1.0, 0.9 * (1 + 4 * ALGEBRA_TOL)], [0.9, 1.0]], "^sigma must be symmetric$"),
        ([[np.nan]], "^sigma must be finite$"),
        ([[np.inf]], "^sigma must be finite$"),
        ([[1.0, 0.0], [0.0, -np.inf]], "^sigma must be finite$"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "^sigma must be square$"),
        ([1.0, 1.0], "^sigma must be square$"),
    ], ids=["skew", "skew-past-tol", "nan", "inf", "-inf", "2x3", "1-d"])
    def test_rejects_bad_sigma(self, sigma, message):
        with pytest.raises(ValueError, match=message):
            mvn_sample(sigma, 5, np.random.default_rng(0))

    def test_symmetric_within_tolerance_accepted(self):
        # asymmetry up to 1e-12 of the largest |entry|, here 2, is rounding
        sigma = np.array([[2.0, 0.9], [0.9 + ALGEBRA_TOL, 1.0]])
        assert np.isfinite(mvn_sample(sigma, 5, np.random.default_rng(0))).all()


class TestSimulateDataset:
    def test_shapes_and_marker_count(self):
        ds = simulate_dataset(SimScenario(CASE_ONE_BLOCK, seed=5))
        assert ds.X.values.shape == (250, 100)
        assert ds.y.shape == (250,)
        assert int(ds.marker_mask.sum()) == 20
        assert np.all(ds.marker_mask[:20])

    def test_seed_reproducibility(self):
        a = simulate_dataset(SimScenario(CASE_SAME_BLOCKS, seed=42))
        b = simulate_dataset(SimScenario(CASE_SAME_BLOCKS, seed=42))
        assert np.array_equal(a.X.values, b.X.values)
        assert np.array_equal(a.y, b.y)
        c = simulate_dataset(SimScenario(CASE_SAME_BLOCKS, seed=43))
        assert not np.array_equal(a.y, c.y)

    def test_pivot_round_trip(self):
        ds = simulate_dataset(SimScenario(CASE_ONE_BLOCK, n=40, D=30, block_sizes=(6,), seed=1))
        assert np.max(np.abs(pivot_coordinates(ds.X) - ds.coordinates)) < 1e-9

    def test_noiseless_unit_beta_response(self):
        sc = SimScenario(
            CASE_ONE_BLOCK,
            n=50,
            D=30,
            block_sizes=(6,),
            seed=9,
            noise_sd=0.0,
            beta=(1.0,) * 6,
        )
        ds = simulate_dataset(sc)
        z = pivot_coordinates(ds.X)
        expected = z[:, 0] - z[:, 1] + z[:, 2] - z[:, 3] + z[:, 4] - z[:, 5]
        assert np.max(np.abs(ds.y - expected)) < 1e-8
        assert np.array_equal(ds.beta, np.ones(6))

    def test_alternating_signs_per_block(self):
        y0 = response_from_coordinates(
            np.eye(7), block_sizes=(2, 2), beta=np.array([1.0, 2.0, 3.0, 4.0])
        )
        assert_allclose(y0[:4], [1.0, -2.0, 3.0, -4.0])
        assert_allclose(y0[4:], 0.0)

    @pytest.mark.parametrize("shape", [(5, 3), (5, 0), (4,)])
    def test_too_few_coordinate_columns(self, shape):
        # 4 marker coordinates need 4 columns of Z: the error names them
        with pytest.raises(DimensionMismatch, match="needs 4 marker coordinate columns"):
            response_from_coordinates(np.zeros(shape), block_sizes=(2, 2), beta=np.ones(4))

    @pytest.mark.parametrize("beta, message", [
        (np.ones(3), "^beta must carry one value per marker coordinate$"),
        (np.ones((4, 1)), "^beta must carry one value per marker coordinate$"),
        (np.array([1.0, np.nan, 1.0, 1.0]), "^beta must be finite$"),
        (np.array([1.0, 1.0, np.inf, 1.0]), "^beta must be finite$"),
        (np.array([-np.inf, 1.0, 1.0, 1.0]), "^beta must be finite$"),
    ], ids=["short", "column", "nan", "inf", "-inf"])
    def test_bad_beta_rejected(self, beta, message):
        # a non-finite beta made a NaN response
        with pytest.raises(ValueError, match=message):
            response_from_coordinates(np.eye(5), block_sizes=(2, 2), beta=beta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_marker_coordinates_rejected(self, bad):
        Z = np.eye(5)
        Z[2, 4] = bad  # a noise coordinate: the response never reads it
        assert np.isfinite(response_from_coordinates(Z, (2, 2), np.ones(4))).all()
        Z[1, 3] = bad
        with pytest.raises(ValueError, match="^the marker coordinates of Z must be finite$"):
            response_from_coordinates(Z, (2, 2), np.ones(4))

    def test_response_ignores_noise_coordinates(self):
        sc = SimScenario(CASE_ONE_BLOCK, n=30, D=20, block_sizes=(4,), seed=13)
        ds = simulate_dataset(sc)
        coords = ds.coordinates.copy()
        coords[:, 4:] = np.random.default_rng(999).standard_normal(
            coords[:, 4:].shape
        )
        regenerated = response_from_coordinates(coords, sc.block_sizes, ds.beta)
        assert_allclose(ds.y - ds.noise, regenerated, atol=1e-12)

    def test_beta_range(self):
        ds = simulate_dataset(SimScenario(CASE_DIFFERENT_BLOCKS, seed=21))
        assert ds.beta.shape == (80,)
        assert np.all(ds.beta > 0.1 - 1e-12) and np.all(ds.beta < 1.0)


class TestMarkerRecovery:
    def test_full_support_counts_everything(self):
        mask = np.array([True, True, False, False])
        balance = signs_to_coefficients(np.array([1, 1, -1, -1]))
        rec = marker_recovery(balance, mask)
        assert rec.marker_rate == 1.0
        assert rec.nonmarker_rate == 1.0

    def test_disjoint_support_scores_zero(self):
        mask = np.array([True, True, False, False, False])
        balance = signs_to_coefficients(np.array([0, 0, 1, -1, 0]))
        rec = marker_recovery(balance, mask)
        assert rec.marker_rate == 0.0
        assert rec.nonmarker_rate == pytest.approx(2.0 / 3.0)

    def test_basis_uses_top_balance(self):
        ds = simulate_dataset(SimScenario(CASE_ONE_BLOCK, n=60, D=30, block_sizes=(6,), seed=2))
        basis = pls_pb(ds.X, ds.y)
        rec = marker_recovery(basis, ds.marker_mask)
        for top in (basis.coefficient_matrix[:, 0], basis.sign_matrix[:, 0]):
            direct = marker_recovery(top, ds.marker_mask)
            assert np.array_equal(rec.included, direct.included)

    def test_mask_length_checked(self):
        with pytest.raises(ValueError, match="mask length"):
            marker_recovery(np.array([1, -1, 0]), np.array([True, False]))


class TestSpawnSeeds:
    def test_deterministic_and_distinct(self):
        a = spawn_seeds(7, 10)
        b = spawn_seeds(7, 10)
        assert a == b
        assert len(set(a)) == 10
        assert spawn_seeds(8, 10) != a
