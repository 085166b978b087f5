"""Tests for principal balance construction."""

import heapq
import inspect
import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from plspb import (
    CompositionMatrix,
    SimScenario,
    candidate_signs,
    clr,
    pb,
    pca_pb,
    pls_pb,
    signs_to_coefficients,
    simulate_dataset,
)
from plspb.coda import _balance_entries
from plspb.errors import BalanceError, ConstantResponse, DegenerateSplit, OneSidedLoading
from plspb.errors import TooFewSamples
from conftest import balance_values, best_balance, exact_pls_node, nested_or_disjoint
from conftest import node_step, partition_nodes
from conftest import random_composition, random_instance


class TestCandidateSigns:
    def test_walkthrough(self):
        cands = candidate_signs(np.array([0.9, 0.1, -0.2, -0.8]))
        assert cands.T.tolist() == [
            [1, 0, 0, -1],
            [1, 0, -1, -1],
            [1, 1, -1, -1],
        ]
        assert not cands.flags.writeable

    def test_two_entries(self):
        cands = candidate_signs(np.array([1.0, -1.0]))
        assert cands.tolist() == [[1], [-1]]

    def test_support_grows_by_one(self, rng):
        p = rng.standard_normal(9)
        p[0] = abs(p[0]) + 0.1
        p[1] = -abs(p[1]) - 0.1
        cands = candidate_signs(p)
        assert cands.shape == (9, 8)
        assert np.array_equal(np.sum(cands != 0, axis=0), np.arange(2, 10))

    def test_nested_supports(self, rng):
        p = rng.standard_normal(7)
        p[0], p[1] = 1.0, -1.0
        cands = candidate_signs(p)
        for prev, nxt in zip(cands.T, cands.T[1:]):
            active = prev != 0
            assert np.array_equal(nxt[active], prev[active])

    def test_one_sided_rejected(self):
        with pytest.raises(OneSidedLoading):
            candidate_signs(np.array([0.3, 0.1, 0.7]))
        with pytest.raises(OneSidedLoading):
            candidate_signs(np.array([-0.3, -0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_loading_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            candidate_signs(np.array([1.0, bad, -1.0]))


class TestBestBalance:
    """The reference winner among arbitrary candidates, which the node and
    2-part checks below compare the builders with."""

    def test_single_candidate_returned(self, rng):
        X = random_composition(rng, 10, 4)
        y = rng.standard_normal(10)
        cand = np.array([1, -1, 0, 0])
        chosen, value = best_balance(X, y, cand[:, None])
        assert np.array_equal(chosen, signs_to_coefficients(cand))
        yc = y - y.mean()
        t = balance_values(X, chosen)
        tc = t - t.mean()
        assert value == pytest.approx(abs(tc @ yc) / 9.0, rel=1e-12)

    def test_planted_response_selects_its_candidate(self, rng):
        X = random_composition(rng, 20, 5)
        cands = np.array([
            [1, -1, 0, 0, 0],
            [1, -1, 1, 0, -1],
            [0, 1, -1, 1, -1],
        ]).T
        target = signs_to_coefficients(cands[:, 2])
        y = 3.0 * balance_values(X, target)
        chosen, _ = best_balance(X, y, cands)
        assert np.array_equal(chosen, target)

    @pytest.mark.parametrize(
        "cands, error",
        [
            (np.zeros((4, 0), dtype=int), ValueError),
            (np.array([1, -1, 0, 0]), ValueError),
            (np.array([[1], [-1], [0]]), ValueError),
            (np.array([[1], [-1], [2], [0]]), ValueError),
            (np.array([[1], [1], [0], [0]]), DegenerateSplit),
        ],
        ids=["empty", "vector", "short", "entry", "one-sided"],
    )
    def test_malformed_candidates_rejected(self, rng, cands, error):
        X = random_composition(rng, 10, 4)
        with pytest.raises(error):
            best_balance(X, rng.standard_normal(10), cands)

    def test_winner_dominates(self, rng):
        X = random_composition(rng, 15, 6)
        y = rng.standard_normal(15)
        p = clr(X).T @ (y - y.mean())
        cands = candidate_signs(p)
        _, value = best_balance(X, y, cands)
        yc = y - y.mean()
        for cand in cands.T:
            t = balance_values(X, signs_to_coefficients(cand))
            tc = t - t.mean()
            assert value >= abs(tc @ yc) / 14.0 - 1e-12


def check_basis(X, basis):
    d = X.n_parts
    B = basis.coefficient_matrix
    assert B.shape == (d, d - 1)
    assert np.max(np.abs(B.T @ B - np.eye(d - 1))) < 1e-10
    assert np.max(np.abs(B.sum(axis=0))) < 1e-12
    assert nested_or_disjoint(basis.sign_matrix)
    assert np.all(np.diff(basis.ordering_values) <= 1e-12)


class TestPlsPb:
    def test_two_parts_forced(self, rng):
        X = random_composition(rng, 8, 2)
        y = rng.standard_normal(8)
        basis = pls_pb(X, y)
        assert_allclose(np.abs(basis.coefficient_matrix[:, 0]), 1 / np.sqrt(2))

    def test_random_instances(self, rng):
        for _ in range(15):
            n = int(rng.integers(5, 40))
            d = int(rng.integers(2, 25))
            X, y = random_instance(rng, n, d)
            basis = pls_pb(X, y)
            check_basis(X, basis)

    def test_covariances_match_recomputation(self, rng):
        X, y = random_instance(rng, 25, 8)
        basis = pls_pb(X, y)
        coords = basis.coordinates(X)
        yc = y - y.mean()
        recomputed = np.abs((coords - coords.mean(0)).T @ yc) / (X.n_samples - 1)
        assert_allclose(basis.ordering_values, recomputed, atol=1e-12)

    def test_scale_invariant_signs(self, rng):
        for _ in range(5):
            n = int(rng.integers(10, 30))
            d = int(rng.integers(3, 14))
            X, y = random_instance(rng, n, d)
            basis = pls_pb(X, y)
            scaled = CompositionMatrix(
                X.values * rng.uniform(0.2, 5.0, size=(n, 1)), X.part_names
            )
            basis2 = pls_pb(scaled, y)
            assert np.array_equal(basis.sign_matrix, basis2.sign_matrix)

    def test_first_balance_beats_root_candidates(self, rng):
        # greedy optimality over the candidate list generated at the root
        for d in (3, 4, 5):
            X, y = random_instance(rng, 18, d)
            basis = pls_pb(X, y)
            yc = y - y.mean()
            p = clr(X).T @ yc
            p = p - p.mean() if not (np.any(p > 0) and np.any(p < 0)) else p
            for cand in candidate_signs(p).T:
                t = balance_values(X, signs_to_coefficients(cand))
                tc = t - t.mean()
                cand_cov = abs(tc @ yc) / (X.n_samples - 1)
                assert basis.ordering_values[0] >= cand_cov - 1e-10

    def test_tied_candidates_and_tied_lead(self, rng):
        # g is (1, t, -t, -1 - 1e-13) up to scale, t = sqrt(2) - 1. The two
        # extremes alone and all four parts both score sqrt(2) at the root,
        # a tie that goes to the fewest parts; the largest |entries| tie
        # within 1e-9, so the first one, part 0, is oriented positive. The
        # balance leaves parts 1 and 2 to a 2-part node.
        n = 40
        yc = rng.standard_normal(n)
        yc -= yc.mean()
        t = np.sqrt(2) - 1
        design = np.column_stack([np.ones(n), yc])
        noise = rng.standard_normal((n, 4))
        noise -= design @ np.linalg.lstsq(design, noise, rcond=None)[0]
        logs = np.outer(yc, [1.0, t, -t, -1.0 - 1e-13]) + noise
        basis = pls_pb(CompositionMatrix(np.exp(logs)), yc)
        assert basis.sign_matrix.T.tolist() == [[1, 0, 0, -1], [0, 1, -1, 0], [-1, 1, 1, -1]]
        scale = yc @ yc / (n - 1)
        assert_allclose(basis.ordering_values, [np.sqrt(2) * scale, np.sqrt(2) * t * scale, 0.0],
                        rtol=1e-9, atol=1e-12 * scale)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        d=st.integers(2, 20),
    )
    def test_response_scale_keeps_signs(self, seed, n, d):
        # ties are relative to the best score, so rescaling y moves nothing
        X, y = random_instance(np.random.default_rng(seed), n, d)
        signs = pls_pb(X, y).sign_matrix
        for c in (1e-14, 1e6):
            assert np.array_equal(pls_pb(X, c * y).sign_matrix, signs)

    def test_tiny_response_scale_on_simulated_data(self):
        data = simulate_dataset(SimScenario(case="same-blocks", n=100, D=100, seed=3))
        signs = pls_pb(data.X, data.y).sign_matrix
        assert np.array_equal(pls_pb(data.X, 1e-14 * data.y).sign_matrix, signs)

    def test_constant_response_rejected(self, rng):
        X = random_composition(rng, 10, 5)
        with pytest.raises(ConstantResponse):
            pls_pb(X, np.full(10, 3.3))

    def test_non_finite_response_rejected(self, rng):
        X, y = random_instance(rng, 10, 5)
        cands = np.array([[1], [-1], [0], [0], [0]])
        for bad in (np.nan, -np.inf):
            y[1] = bad
            with pytest.raises(BalanceError, match="finite"):
                pls_pb(X, y)
            with pytest.raises(BalanceError, match="finite"):
                best_balance(X, y, cands)

    def test_degenerate_composition_falls_back_deterministically(self):
        # proportional rows carry no relative information at all; the
        # builders must still return a valid, reproducible basis
        base = np.array([1.0, 2.0, 0.5, 4.0, 1.5])
        scales = np.array([1.0, 2.0, 3.0, 0.5, 1.1, 0.9])
        X = CompositionMatrix(np.outer(scales, base))
        y = np.arange(6.0)
        first = pls_pb(X, y)
        second = pls_pb(X, y)
        assert np.array_equal(first.coefficient_matrix, second.coefficient_matrix)
        check_basis(X, first)
        assert np.all(first.ordering_values < 1e-12)
        unsupervised = pca_pb(X)
        check_basis(X, unsupervised)
        assert np.all(unsupervised.ordering_values < 1e-12)

    def test_fitted_values_match_pca_basis(self, rng):
        # both bases span the clr hyperplane, so full regressions agree
        for _ in range(5):
            n = int(rng.integers(12, 30))
            d = int(rng.integers(3, 8))
            X, y = random_instance(rng, n, d)
            coords_pls = pls_pb(X, y).coordinates(X)
            coords_pca = pca_pb(X).coordinates(X)
            fitted = []
            for coords in (coords_pls, coords_pca):
                design = np.column_stack([np.ones(n), coords])
                beta = np.linalg.lstsq(design, y, rcond=None)[0]
                fitted.append(design @ beta)
            assert np.max(np.abs(fitted[0] - fitted[1])) < 1e-8


class TestPcaPb:
    def test_two_parts_forced(self, rng):
        X = random_composition(rng, 8, 2)
        basis = pca_pb(X)
        assert_allclose(np.abs(basis.coefficient_matrix[:, 0]), 1 / np.sqrt(2))

    def test_random_instances(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 40))
            d = int(rng.integers(2, 25))
            X = random_composition(rng, n, d)
            basis = pca_pb(X)
            check_basis(X, basis)

    def test_total_variance_preserved(self, rng):
        X = random_composition(rng, 30, 12)
        basis = pca_pb(X)
        C = clr(X)
        Cc = C - C.mean(axis=0)
        total = np.sum(Cc**2) / (X.n_samples - 1)
        assert abs(basis.ordering_values.sum() - total) < 1e-8

    def test_variances_match_recomputation(self, rng):
        X = random_composition(rng, 25, 7)
        basis = pca_pb(X)
        coords = basis.coordinates(X)
        centered = coords - coords.mean(axis=0)
        recomputed = (centered**2).sum(axis=0) / (X.n_samples - 1)
        assert_allclose(basis.ordering_values, recomputed, atol=1e-12)


def gram_with_spectrum(rng, eigenvalues, top=None):
    """A symmetric d x d matrix with the constant vector in its null space
    and the given d-1 eigenvalues on an orthonormal basis of the rest, so
    it is its own H G H; and that basis, one eigenvector per column. A zero-sum
    unit vector ``top`` is the first eigenvector."""
    d = len(eigenvalues) + 1
    first = rng.standard_normal((d, 1)) if top is None else np.asarray(top)[:, None]
    q, _ = np.linalg.qr(np.column_stack([np.ones(d), first, rng.standard_normal((d, d - 2))]))
    vectors = q[:, 1:]
    return (vectors * np.asarray(eigenvalues, dtype=float)) @ vectors.T, vectors


class TestTopEigenpair:
    """For node sizes in ``pb._SQUARING_PARTS``, ``_top_eigenpair`` squares
    H G H instead of calling eigh while that reaches rank one within
    ``pb._MAX_SQUARINGS`` squarings; otherwise it returns eigh's pair bit for
    bit, from the LAPACK kernel that ``np.linalg.eigh`` calls."""

    SIZES = (pb._SQUARING_PARTS.start, 64, 100, pb._SQUARING_PARTS.stop - 1)

    @staticmethod
    def squaring(gram, monkeypatch):
        def no_kernel(matrix, signature):
            raise AssertionError("eigh called on the squaring route")

        # np.linalg.eigh calls this kernel too, so either route to it fails
        with monkeypatch.context() as patch:
            patch.setattr(pb._umath_linalg, "eigh_lo", no_kernel)
            return pb._top_eigenpair(gram)

    @staticmethod
    def assert_matches_eigh(gram, value, vector):
        h = np.eye(gram.shape[0]) - 1 / gram.shape[0]  # H formed as a matrix
        eigenvalues, eigenvectors = np.linalg.eigh(h @ gram @ h)
        assert abs(np.linalg.norm(vector) - 1) <= 1e-14
        assert abs(vector @ eigenvectors[:, -1]) >= 1 - 1e-12
        assert abs(value - eigenvalues[-1]) <= 1e-12 * eigenvalues[-1]

    @pytest.mark.parametrize("d", SIZES)
    @pytest.mark.parametrize("n", [10, 150])
    def test_random_gram(self, rng, d, n, monkeypatch):
        gram = node_step(np.log(random_composition(rng, n, d).values), None)[1].gram
        self.assert_matches_eigh(gram, *self.squaring(gram, monkeypatch))

    @staticmethod
    def assert_is_eigh(gram, value, vector):
        eigenvalues, eigenvectors = np.linalg.eigh(centred_070(gram))
        assert value == eigenvalues[-1]
        assert np.array_equal(vector, eigenvectors[:, -1])

    @pytest.mark.parametrize("d", SIZES)
    def test_top_eigenvalues_1e_2_apart_still_square(self, rng, d, monkeypatch):
        # about 12 squarings, inside the cap of 16
        gram, _ = gram_with_spectrum(rng, [1.0, 0.99, *rng.uniform(0, 0.5, d - 3)])
        self.assert_matches_eigh(gram, *self.squaring(gram, monkeypatch))

    @pytest.mark.parametrize("d", SIZES)
    def test_close_top_eigenvalues(self, rng, d):
        # about 26 squarings would reach rank one: past the cap, eigh decides
        gram, _ = gram_with_spectrum(rng, [1.0, 1 - 1e-6, *rng.uniform(0, 0.5, d - 3)])
        self.assert_is_eigh(gram, *pb._top_eigenpair(gram))

    @pytest.mark.parametrize("d", SIZES)
    def test_top_eigenvalues_1e_3_apart_square_to_the_cap(self, rng, d, monkeypatch):
        # rank one at the 16th squaring: no proof may send it to eigh first
        gram, _ = gram_with_spectrum(rng, [1.0, 1 - 1e-3, *rng.uniform(0, 0.5, d - 3)])
        self.assert_matches_eigh(gram, *self.squaring(gram, monkeypatch))

    @pytest.mark.parametrize("d", SIZES)
    def test_top_eigenvector_zero_on_most_parts(self, rng, d, monkeypatch):
        # B's column of largest diagonal entry keeps v; a column where v is
        # zero would hold only rounding
        top = np.zeros(d)
        top[[1, 2]] = np.sqrt(0.5), -np.sqrt(0.5)
        gram, _ = gram_with_spectrum(rng, [1.0, *rng.uniform(0, 0.9, d - 2)], top)
        value, vector = self.squaring(gram, monkeypatch)
        self.assert_matches_eigh(gram, value, vector)
        assert abs(vector @ top) >= 1 - 1e-12

    @pytest.mark.parametrize("d", SIZES)
    def test_rank_one(self, rng, d, monkeypatch):
        gram, vectors = gram_with_spectrum(rng, [3.0, *np.zeros(d - 2)])
        value, vector = self.squaring(gram, monkeypatch)
        self.assert_matches_eigh(gram, value, vector)
        assert abs(vector @ vectors[:, 0]) >= 1 - 1e-12

    @pytest.mark.parametrize("d", SIZES)
    def test_equal_top_eigenvalues(self, rng, d):
        # never rank one: after the cap of squarings, eigh decides
        gram, _ = gram_with_spectrum(rng, [1.0, 1.0, *rng.uniform(0, 0.5, d - 3)])
        self.assert_is_eigh(gram, *pb._top_eigenpair(gram))

    @pytest.mark.parametrize("d", SIZES)
    def test_zero_block_takes_eigh(self, d):
        gram = np.zeros((d, d))
        eigenvalues, eigenvectors = np.linalg.eigh(gram)
        value, vector = pb._top_eigenpair(gram)
        assert value == eigenvalues[-1] == 0.0
        assert np.array_equal(vector, eigenvectors[:, -1])

    def test_dominant_negative_eigenvalue_takes_eigh(self, rng):
        # squaring finds the eigenvalue of largest magnitude, here -3 with a
        # positive trace: its Rayleigh quotient is negative, so eigh decides
        d = pb._SQUARING_PARTS.start
        gram, vectors = gram_with_spectrum(rng, [2.0, -3.0, 1.5, *np.zeros(d - 4)])
        value, vector = pb._top_eigenpair(gram)
        self.assert_is_eigh(gram, value, vector)
        assert abs(vector @ vectors[:, 0]) >= 1 - 1e-12

    @pytest.mark.parametrize("d", [pb._SQUARING_PARTS.start - 1, pb._SQUARING_PARTS.stop])
    def test_other_sizes_are_eigh(self, rng, d):
        gram = node_step(np.log(random_composition(rng, 40, d).values), None)[1].gram
        self.assert_is_eigh(gram, *pb._top_eigenpair(gram))

    @pytest.mark.parametrize("d", [*range(3, pb._SQUARING_PARTS.start),
                                   *range(pb._SQUARING_PARTS.stop, pb._SQUARING_PARTS.stop + 11)])
    def test_kernel_is_eigh_bit_for_bit(self, rng, d):
        # fails on any numpy whose kernel call differs from np.linalg.eigh's
        spectra = (
            rng.uniform(0, 1, d - 1),  # random
            [3.0, *np.zeros(d - 2)],  # rank one
            [1.0, 1.0, *rng.uniform(0, 0.5, d - 3)],  # equal top
            [2.0, -3.0, *rng.uniform(0, 1.5, d - 3)],  # dominant negative
        )
        for eigenvalues in spectra:
            gram, _ = gram_with_spectrum(rng, eigenvalues)
            self.assert_is_eigh(gram, *pb._top_eigenpair(gram))

    def test_kernel_failure_is_linalg_error(self, monkeypatch):
        # LAPACK's kernel fills NaN where np.linalg.eigh raises
        def failed_kernel(matrix, signature):
            return np.full(matrix.shape[:-1], np.nan), np.full(matrix.shape, np.nan)

        monkeypatch.setattr(pb._umath_linalg, "eigh_lo", failed_kernel)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            pb._top_eigenpair(np.eye(4))


def test_connecting_entries_are_balance_entries():
    # _partition takes a connecting column's entries on Python floats: IEEE
    # division and sqrt are correctly rounded, so they are bit for bit
    # _balance_entries(r, d - r), here for every 1 <= r < d <= 2000
    sizes = np.repeat(np.arange(2, 2001), np.arange(1, 2000))
    left_out = np.concatenate([np.arange(1, size) for size in range(2, 2001)])
    numerator, denominator = _balance_entries(left_out, sizes - left_out)
    pairs = list(zip(sizes.tolist(), left_out.tolist()))
    assert [math.sqrt((d - r) / (d * r)) for d, r in pairs] == numerator.tolist()
    assert [-math.sqrt(r / (d * (d - r))) for d, r in pairs] == denominator.tolist()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 49),
    d=st.integers(2, 29),
)
@example(seed=3, n=27, d=27)  # a 2-part node whose orientation rounding used to flip
def test_row_rescaling_keeps_both_bases(seed, n, d):
    # a composition's rows carry only ratios, so row scales c > 0 from
    # e^-20 to e^20 move neither sign matrix nor ordering values; the values
    # are computed from ln X, so their rounding is relative to the largest
    # value (the data scale), not to each value
    rng = np.random.default_rng(seed)
    X, y = random_instance(rng, n, d)
    scaled = CompositionMatrix(X.values * np.exp(rng.uniform(-20, 20, size=(n, 1))))
    for build in (lambda Z: pls_pb(Z, y), pca_pb):
        basis, rescaled = build(X), build(scaled)
        assert np.array_equal(rescaled.sign_matrix, basis.sign_matrix)
        scale = basis.ordering_values[0]
        assert_allclose(rescaled.ordering_values, basis.ordering_values, rtol=0, atol=1e-9 * scale)


class TestPartitionTree:
    def test_tree_balances_match_basis(self, rng):
        X, y = random_instance(rng, 20, 10)
        basis, tree = pls_pb(X, y, return_tree=True)
        collected = []

        def walk(node):
            if node is None:
                return
            collected.append(node.chosen_signs)
            if node.connecting_signs is not None:
                collected.append(node.connecting_signs)
            walk(node.zero_child)
            walk(node.numerator_child)
            walk(node.denominator_child)

        walk(tree)
        assert len(collected) == X.n_parts - 1
        assert all(not signs.flags.writeable for signs in collected)
        # same columns as the basis, up to the final sort
        got = {tuple(signs_to_coefficients(signs)) for signs in collected}
        want = {tuple(col) for col in basis.coefficient_matrix.T}
        assert got == want
        assert {tuple(s) for s in collected} == {tuple(s) for s in basis.sign_matrix.T}

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 30),
        d=st.integers(2, 25),
        builder=st.sampled_from(["pls-pb", "pca-pb"]),
    )
    def test_node_vectors_are_their_basis_columns(self, seed, n, d, builder):
        # balances are embedded over all D parts only when the tree is built
        X, y = random_instance(np.random.default_rng(seed), n, d)
        basis, tree = build(builder, X, y, return_tree=True)
        columns = {tuple(col): j for j, col in enumerate(basis.sign_matrix.T.tolist())}
        seen = []
        for node in partition_nodes(tree):
            for signs, value in ((node.chosen_signs, node.chosen_value),
                                 (node.connecting_signs, node.connecting_value)):
                if signs is None:
                    continue
                assert not signs.flags.writeable and signs.shape == (d,)
                j = columns[tuple(signs.tolist())]
                assert basis.ordering_values[j] == value
                seen.append(j)
        assert sorted(seen) == list(range(d - 1))

    def test_children_partition_the_node(self, rng):
        X, y = random_instance(rng, 15, 8)
        _, tree = pls_pb(X, y, return_tree=True)

        def walk(node):
            if node is None:
                return
            signs = node.chosen_signs
            num = {int(i) for i in np.flatnonzero(signs == 1)}
            den = {int(i) for i in np.flatnonzero(signs == -1)}
            rest = set(node.part_indices) - num - den
            for child, parts in (
                (node.numerator_child, num),
                (node.denominator_child, den),
                (node.zero_child, rest),
            ):
                if child is not None:
                    assert set(child.part_indices) == parts
                else:
                    assert len(parts) < 2
            walk(node.zero_child)
            walk(node.numerator_child)
            walk(node.denominator_child)

        walk(tree)

    def test_tree_serializes_to_json(self, rng):
        X, y = random_instance(rng, 12, 6)
        _, tree = pls_pb(X, y, return_tree=True)
        payload = tree.to_dict(X.part_names)
        text = json.dumps(payload)
        assert json.loads(text)["parts"] == list(X.part_names)


def build(builder, X, y, **kwargs):
    return pls_pb(X, y, **kwargs) if builder == "pls-pb" else pca_pb(X, **kwargs)


def assert_leading_columns(full, top, k):
    """The top-k basis is the full basis cut after k columns, bit for bit."""
    assert top.n_balances == k
    assert np.array_equal(top.sign_matrix, full.sign_matrix[:, :k])
    assert np.array_equal(top.coefficient_matrix, full.coefficient_matrix[:, :k])
    assert np.array_equal(top.ordering_values, full.ordering_values[:k])
    assert nested_or_disjoint(top.sign_matrix)


def every_node(indices):
    """4: the heap key of every node is 4 x its bound."""
    return 4.0


def odd_first_part(indices):
    """4 for the nodes whose first part is odd, else 1."""
    return 4.0 if indices[0] % 2 else 1.0


def loosened(step, factor):
    """A substitute node step whose heap key is ``factor(indices)`` times the
    node's bound, a power of two at least 1, while its ``signal`` still gets
    the true bound."""
    open_node, signal, *rest = step

    def loose_open(indices):
        bound, loading, state = open_node(indices)
        return factor(indices) * bound, loading, state

    def true_signal(indices, state, loading, key):
        return signal(indices, state, loading, key / factor(indices))

    return (loose_open, true_signal, *rest)


class TestTopK:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        d=st.integers(2, 30),
        builder=st.sampled_from(["pls-pb", "pca-pb"]),
        data=st.data(),
    )
    def test_leading_columns_of_the_full_build(self, seed, n, d, builder, data):
        X, y = random_instance(np.random.default_rng(seed), n, d)
        k = data.draw(st.integers(1, d - 1), label="k")
        full = build(builder, X, y)
        assert_leading_columns(full, build(builder, X, y, max_k=k), k)
        assert_leading_columns(full, build(builder, X, y, max_k=d - 1), d - 1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 80),
        d=st.integers(2, 64),
        copies=st.integers(1, 32),
        builder=st.sampled_from(["pls-pb", "pca-pb"]),
        data=st.data(),
    )
    @example(seed=1, n=30, d=64, copies=32, builder="pca-pb", data=None)
    def test_duplicated_parts(self, seed, n, d, copies, builder, data):
        # copies of other parts: exact zero eigenvalues of H G H and tied |p|
        # entries, also in nodes whose top eigenpair comes from squaring
        rng = np.random.default_rng(seed)
        X, y = random_instance(rng, n, d)
        values = X.values.copy()
        values[:, rng.integers(0, d, copies)] = values[:, rng.integers(0, d, copies)]
        X = CompositionMatrix(values)
        full = build(builder, X, y)
        check_basis(X, full)
        k = d // 2 if data is None else data.draw(st.integers(1, d - 1), label="k")
        assert_leading_columns(full, build(builder, X, y, max_k=k), k)

    @pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
    def test_simulated_data_every_k(self, builder):
        scenario = SimScenario(case="same-blocks", n=60, D=40, block_sizes=(4, 4, 4, 4), seed=2)
        data = simulate_dataset(scenario)
        full = build(builder, data.X, data.y)
        for k in range(1, 40):
            assert_leading_columns(full, build(builder, data.X, data.y, max_k=k), k)

    @pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
    def test_tied_scores_in_different_nodes_keep_preorder(self, rng, builder):
        # Three copies of a 3-part block: every part's copies form a constant
        # subcomposition, so several nodes score exactly 0. A cut inside the
        # run of zeros must keep the ones earliest in the tree's preorder.
        block = np.exp(rng.standard_normal((30, 3)))
        X = CompositionMatrix(np.hstack([block, block, block]))
        y = rng.standard_normal(30)
        full = build(builder, X, y)
        zeros = np.flatnonzero(full.ordering_values == 0.0)
        assert len(zeros) >= 3
        supports = full.sign_matrix[:, zeros] != 0
        assert np.any(~np.any(supports[:, :1] & supports[:, 1:], axis=0))  # disjoint: two nodes
        for k in range(1, 9):
            assert_leading_columns(full, build(builder, X, y, max_k=k), k)

    @pytest.mark.parametrize("max_k", [None, 3])
    @pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
    def test_each_node_enters_the_heap_once(self, rng, builder, max_k, monkeypatch):
        # a node of 3 or more parts is pushed once, with its final bound and
        # its loading, and a pca-pb node computes its top eigenpair once
        X, y = random_instance(rng, 30, 25)
        _, tree = build(builder, X, y, return_tree=True)
        pushed, eigenpairs, top_eigenpair = [], [], pb._top_eigenpair

        def heappush(heap, entry):
            # a node is (-bound, path, indices, loading, state), a kept score a float
            if isinstance(entry, tuple):
                pushed.append(entry[1])
            heapq.heappush(heap, entry)

        monkeypatch.setattr(pb, "heapq", SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
        monkeypatch.setattr(pb, "_top_eigenpair", lambda gram: eigenpairs.append(gram) or
                            top_eigenpair(gram))
        build(builder, X, y, max_k=max_k)
        assert pushed and len(set(pushed)) == len(pushed)
        assert len(eigenpairs) == (len(pushed) if builder == "pca-pb" else 0)
        if max_k is None:
            assert len(pushed) == sum(len(node.part_indices) >= 3 for node in partition_nodes(tree))

    @pytest.mark.parametrize("max_k", [None, 3])
    @pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
    def test_each_node_slices_the_statistics_once(self, rng, builder, max_k, monkeypatch):
        # a node of 2 or more parts takes its slice once, when its parent
        # opens it, and its heap entry carries it to its expansion: G[idx, idx]
        # for pca-pb, g[idx] for pls-pb, which has no G to slice
        X, y = random_instance(rng, 30, 25)
        slices, opened, pushed, built = [], [], [], []
        name, sliced = ("_pca_step", "gram") if builder == "pca-pb" else ("_pls_step", "cross")

        class CountingSlices(np.ndarray):
            def take(self, *args, **kwargs):
                slices.append(args)
                return np.asarray(super().take(*args, **kwargs))

            def __getitem__(self, key):
                slices.append(key)
                return np.asarray(super().__getitem__(key))

            def diagonal(self, *args, **kwargs):
                # a read of diag G counts as a slice: the bound screen takes
                # its node's trace from the state its open took
                slices.append(("diagonal", args))
                return np.asarray(super().diagonal(*args, **kwargs))

        factory, open_node = getattr(pb, name), pb._open_node

        def counting_step(*args):
            built.append(inspect.signature(factory).bind(*args).arguments)
            counted = built[-1][sliced].view(CountingSlices)
            return factory(**{**built[-1], sliced: counted})

        def counting_open_node(step, heap, finish, path, indices):
            if indices.shape[0] >= 2:
                opened.append(path)
            open_node(step, heap, finish, path, indices)

        def heappush(heap, entry):
            if isinstance(entry, tuple):  # a node: (-bound, path, indices, ...)
                pushed.append(entry)
            heapq.heappush(heap, entry)

        monkeypatch.setattr(pb, name, counting_step)
        monkeypatch.setattr(pb, "_open_node", counting_open_node)
        monkeypatch.setattr(pb, "heapq", SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
        build(builder, X, y, max_k=max_k)
        (stats,) = built
        assert opened and len(slices) == len(opened)
        assert pushed
        for _, _, indices, _, state in pushed:
            if builder == "pca-pb":
                assert state.tobytes() == stats["gram"][np.ix_(indices, indices)].tobytes()
                assert "cross" not in stats
            else:
                assert "gram" not in stats
                assert state.tobytes() == stats["cross"][indices].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        d=st.integers(3, 30),
        shape=st.sampled_from(["plain", "duplicated", "proportional"]),
        rescale=st.booleans(),
        y_power=st.sampled_from([-150, 150]),
    )
    @example(seed=1, n=20, d=16, shape="duplicated", rescale=True, y_power=150)
    @example(seed=2, n=20, d=16, shape="proportional", rescale=True, y_power=-150)
    def test_no_child_bound_exceeds_its_parents(self, seed, n, d, shape, rescale, y_power):
        # a node is keyed by its own bound: a unit zero-sum contrast on a
        # child's parts is one on its parent's, so no opened child's bound
        # exceeds its parent's by more than the stop slack
        log, y = screen_table(seed, n, d, shape, rescale, y_power)
        for response in (y, None):
            bounds = {}

            def heappush(heap, entry):
                if isinstance(entry, tuple):  # a node: (-bound, path, indices, ...)
                    bounds[entry[1]] = -entry[0]
                heapq.heappush(heap, entry)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pb, "heapq", SimpleNamespace(heappush=heappush,
                                                           heappop=heapq.heappop))
                pb._build(log, response)
            _, _, _, _, scale, _ = pb._statistics(log, response)  # tr G, or ||g||
            slack = max(pb._STOP_RTOL * float(scale), np.finfo(float).tiny)
            assert () in bounds
            for path, bound in bounds.items():
                assert not path or bound <= bounds[path[:-1]] + slack

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        d=st.integers(2, 30),
        shape=st.sampled_from(["plain", "duplicated", "proportional"]),
        builder=st.sampled_from(["pls-pb", "pca-pb"]),
        factor=st.sampled_from([every_node, odd_first_part]),
    )
    def test_any_expansion_order_keeps_every_byte(self, seed, n, d, shape, builder, factor):
        # a substitute step keys its nodes by 4 x their bound, on every node or
        # on those whose first part is odd, which reorders the expansions;
        # signal still gets the true bound. A key at or above the bound keeps
        # the stop rule sound, so the full and the top-k builds keep their
        # bytes, also where copied or proportional parts tie scores at 0
        log, y = screen_table(seed, n, d, shape, False, 0)
        response = y if builder == "pls-pb" else None
        for k in [None, *sorted({k for k in (1, 3, d // 2) if 1 <= k <= d - 1})]:
            want = pb._build(log, response, max_k=k)
            got = substituted(lambda step: loosened(step, factor),
                              lambda: pb._build(log, response, max_k=k))
            assert np.array_equal(got.sign_matrix, want.sign_matrix)
            assert got.ordering_values.tobytes() == want.ordering_values.tobytes()

    @pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
    def test_loosened_keys_reorder_the_expansions(self, rng, builder):
        # the property above is not vacuous: the odd-first-part keys expand
        # the same nodes of a full build in another order
        X, y = random_instance(rng, 30, 25)
        log, response = np.log(X.values), y if builder == "pls-pb" else None
        real, _ = recorded_decisions(log, response)
        loose, _ = recorded_decisions(log, response, lambda step: loosened(step, odd_first_part))
        assert sorted(real) == sorted(loose) and list(real) != list(loose)

    @pytest.mark.parametrize("max_k", [0, 6, -1, 2.5])
    def test_max_k_outside_range_rejected(self, rng, max_k):
        X, y = random_instance(rng, 12, 6)
        with pytest.raises(ValueError, match="max_k"):
            pls_pb(X, y, max_k=max_k)
        with pytest.raises(ValueError, match="max_k"):
            pca_pb(X, max_k=max_k)

    @pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
    def test_two_samples_rejected(self, builder):
        X = CompositionMatrix([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
        with pytest.raises(TooFewSamples, match="needs at least 3 samples, got 2"):
            build(builder, X, np.array([0.0, 1.0]))

    def test_tree_needs_the_full_basis(self, rng):
        # unexpanded subtrees would read as None, like single parts
        X, y = random_instance(rng, 12, 6)
        with pytest.raises(ValueError, match="return_tree"):
            pls_pb(X, y, max_k=4, return_tree=True)
        with pytest.raises(ValueError, match="return_tree"):
            pca_pb(X, max_k=1, return_tree=True)
        basis, tree = pca_pb(X, max_k=5, return_tree=True)
        assert basis.n_balances == 5 and tree is not None


def centred_070(gram):
    """H G H as 0.7.0 computed it, whose off-diagonal entry made a 2-part
    pca-pb node's direction (1, h)."""
    col_means = gram.sum(axis=0) / gram.shape[0]
    return gram - col_means[:, None] - col_means + col_means.sum() / gram.shape[0]


class TestTwoPartNodes:
    """A 2-part node is finished when its parent opens it: its only balance is
    +1 on its first part and -1 on its second, with no connecting balance."""

    @pytest.mark.parametrize("max_k", [None, 1])
    @pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
    def test_two_part_root(self, rng, builder, max_k):
        X, y = random_instance(rng, 12, 2)
        basis = build(builder, X, y, max_k=max_k)
        assert basis.sign_matrix.tolist() == [[1], [-1]]
        if builder == "pls-pb":
            _, score = best_balance(X, y, [[1], [-1]])
            assert basis.ordering_values[0] == score
        else:
            values = balance_values(X, basis.coefficient_matrix[:, 0])
            assert_allclose(basis.ordering_values[0], values.var(ddof=1), rtol=1e-12)

    @pytest.mark.parametrize("max_k", [None, 1])
    @pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
    def test_three_parts(self, rng, builder, max_k):
        checked = 0
        for _ in range(10):
            X, y = random_instance(rng, 12, 3)
            full, tree = build(builder, X, y, return_tree=True)
            if max_k is not None:
                assert_leading_columns(full, build(builder, X, y, max_k=max_k), max_k)
            for node in partition_nodes(tree)[1:]:  # the root has 3 parts
                idx = list(node.part_indices)
                assert node.chosen_signs[idx].tolist() == [1, -1]
                sub = CompositionMatrix(X.values[:, idx])
                if builder == "pls-pb":
                    expected = best_balance(sub, y, [[1], [-1]])[1]
                else:
                    expected = balance_values(sub, np.array([1, -1]) / np.sqrt(2)).var(ddof=1)
                assert_allclose(node.chosen_value, expected, rtol=1e-10)
                checked += 1
        assert checked

    @pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
    def test_proportional_pair_scores_exactly_zero(self, rng, builder):
        # Parts 1 and 4 are proportional, so every contrast between them is
        # constant; they end up alone in one node, which has no signal.
        values = np.exp(rng.standard_normal((20, 7)))
        values[:, 4] = 2.5 * values[:, 1]
        X = CompositionMatrix(values)
        y = np.log(values) @ rng.standard_normal(7) + 0.3 * rng.standard_normal(20)
        full, tree = build(builder, X, y, return_tree=True)
        (pair,) = [node for node in partition_nodes(tree) if node.part_indices == (1, 4)]
        assert pair.chosen_value == 0.0
        signs = np.zeros(7, dtype=int)
        signs[[1, 4]] = 1, -1
        (column,) = np.flatnonzero(np.all(full.sign_matrix == signs[:, None], axis=0))
        assert full.ordering_values[column] == 0.0
        for k in range(1, 7):
            assert_leading_columns(full, build(builder, X, y, max_k=k), k)

    def test_pca_pair_at_rounding_level_follows_the_eigenvector(self):
        # A near-proportional pair puts H G H at the rounding level of G. The
        # node keeps its score only when the top eigenvector of that computed
        # matrix is two-sided, as decided by the eigh the builder skips; its
        # c'Gc alone can be negative there.
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(100):
            n = int(rng.integers(5, 30))
            base = 5 * rng.standard_normal(n) + 30 * rng.standard_normal()
            eps = 10.0 ** rng.uniform(-15, -6)
            logs = np.column_stack([base, base + eps * rng.standard_normal(n)])
            X = CompositionMatrix(np.exp(logs))
            open_node, has_signal, scores, *_ = pb._statistics(np.log(X.values), None)
            _, vector, gram = open_node(np.arange(2))  # the top eigenpair of H G H, and G
            signal = has_signal(np.arange(2), gram, vector, 0.0)
            kept = signal and vector.max() > 0 > vector.min()
            paired = float(scores(pb.PAIR, gram)[0])
            assert pca_pb(X).ordering_values[0] == (paired if kept else 0.0) >= 0.0
            outcomes.add((kept, paired < 0))
        assert outcomes == {(True, False), (False, False), (False, True)}

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 30),
        log_scale=st.floats(-75, 75),
        cross_scale=st.floats(-150, 150),
        noise=st.none() | st.just(0.0) | st.floats(-17, 0),
        tie=st.booleans(),
    )
    @example(seed=0, n=5, log_scale=0.0, cross_scale=0.0, noise=0.0, tie=False)
    @example(seed=1, n=9, log_scale=0.0, cross_scale=0.0, noise=-9.0, tie=False)
    @example(seed=2, n=9, log_scale=75.0, cross_scale=150.0, noise=None, tie=False)
    @example(seed=3, n=9, log_scale=-75.0, cross_scale=-150.0, noise=None, tie=False)
    @example(seed=4, n=9, log_scale=1.0, cross_scale=-140.0, noise=None, tie=True)
    # energy^2 * p'p overflows on the unscaled G and p; the rank tests run
    # on both scaled by a power of two, so their products stay in range
    @example(seed=2105036288, n=14, log_scale=52.04975559505944, cross_scale=70.07713832211101,
             noise=None, tie=False)
    def test_pair_decision_matches_loading(self, seed, n, log_scale, cross_scale, noise, tie):
        # The 2-part node decides on Python floats what its step's exact
        # checks (bound 0) decide with numpy: a two-sided loading, or none;
        # its pair scores the node when they find signal, else 0.
        # Log tables at scale 10^log_scale give G from 1e-150 to 1e150 and g
        # at 10^cross_scale; the second part is unrelated (noise None),
        # proportional (0) or near-proportional to the first, so both sides of
        # the constant-subcomposition window occur. No step warns.
        rng = np.random.default_rng(seed)
        base = rng.standard_normal(n)
        if noise is None:
            second = rng.standard_normal(n)
        else:
            second = base + rng.standard_normal() + (noise and 10.0**noise) * rng.standard_normal(n)
        log = 10.0**log_scale * np.column_stack([base, second])
        y = 10.0 ** (cross_scale - log_scale) * rng.standard_normal(n)
        (_, signal, scores, pair, *_), gram_stats = node_step(log, None)
        idx, gram = np.arange(2), gram_stats.gram
        # pca-pb: the 2x2 slice of G decides
        direction = np.array([1.0, centred_070(gram)[0, 1]])
        expected = signal(idx, gram, direction, 0.0) and direction.max() > 0 > direction.min()
        assert pair(idx) == (float(scores(pb.PAIR, gram)[0]) if expected else 0.0)
        # pls-pb reads no G: H g[idx] decides, then its step's signal with the
        # bound ||H g[idx]||, whose exact checks run on the node's own Gram
        # block, here equal to G
        (_, signal, scores, pair, *_), stats = node_step(log, y)
        if tie:  # g_i = g_j
            tied = np.full(2, stats.cross[0])
            (_, signal, scores, pair, *_), stats = node_step(log, y, cross=tied)
        own = stats.cross - np.add.reduce(stats.cross) / 2  # H g[idx]
        expected = signal(idx, stats.cross, own, 0.0) and own.max() > 0 > own.min()
        assert not hasattr(stats, "gram")
        assert pair(idx) == (float(scores(pb.PAIR, stats.cross)[0]) if expected else 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 30),
        d=st.integers(2, 25),
        builder=st.sampled_from(["pls-pb", "pca-pb"]),
    )
    def test_two_part_nodes_in_trees(self, seed, n, d, builder):
        X, y = random_instance(np.random.default_rng(seed), n, d)
        _, tree = build(builder, X, y, return_tree=True)
        for node in partition_nodes(tree):
            if len(node.part_indices) != 2:
                continue
            assert node.connecting_signs is None and node.connecting_value is None
            assert node.zero_child is node.numerator_child is node.denominator_child is None
            assert node.chosen_signs[node.part_indices[0]] == 1
            assert node.chosen_signs[node.part_indices[1]] == -1


def screen_table(seed, n, d, shape, rescale, y_power):
    """A log table and response: plain, with duplicated parts, or with a
    proportional 2-4-part subcomposition; rows optionally rescaled by up to
    e^+-20, and y scaled by 10^y_power. From 10^+-150 on, the rank tests'
    products on the unscaled y and G leave the float range."""
    rng = np.random.default_rng(seed)
    log = rng.standard_normal((n, d))
    if shape == "duplicated":
        copies = rng.choice(d, size=2 * max(1, d // 4), replace=False)
        log[:, copies[1::2]] = log[:, copies[::2]]
    elif shape == "proportional":
        parts = rng.choice(d, size=min(d, int(rng.integers(2, 5))), replace=False)
        log[:, parts] = log[:, parts[:1]] + rng.standard_normal(len(parts))
    if rescale:
        log += rng.uniform(-20, 20, size=(n, 1))
    y = log @ rng.standard_normal(d) + 0.5 * rng.standard_normal(n)
    return log, 10.0**y_power * y


def substituted(wrap, run):
    """``run()`` with every build's node step replaced by ``wrap(step)``."""
    statistics = pb._statistics
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pb, "_statistics", lambda log, y: wrap(statistics(log, y)))
        return run()


def recorded_decisions(log, y, wrap=lambda step: step):
    """Each expanded node's signal and the score bound it was decided with,
    by its parts in the order asked, as one build of the full basis through
    the node step ``wrap(step)`` asks its ``signal``. 2-part nodes are decided
    inside the step's ``pair``, which scores them 0 without signal
    (``TestTwoPartNodes``)."""
    decisions = {}

    def recording(step):
        open_node, signal, *rest = wrap(step)

        def recording_signal(indices, state, loading, bound):
            decision = signal(indices, state, loading, bound)
            decisions[tuple(indices.tolist())] = decision, bound
            return decision

        return (open_node, recording_signal, *rest)

    _, tree = substituted(recording, lambda: pb._build(log, y, return_tree=True))
    return decisions, tree


def exact_checks(stats, indices, gram, loading):
    """The exact no-signal checks alone, without the bound screen, on a Gram
    block ``gram`` of the node's parts: ``_constant``, then for pls-pb (whose
    statistics hold g) the SIMPLS rank tests."""
    if pb._constant(stats.log, stats.log_sq, indices, gram):
        return False
    return not hasattr(stats, "cross") or not pb._rank_boundary(gram, loading)


def proven_by_bound(log, y, indices, bound):
    """Whether the bound screen, the first step of ``signal``, proves a
    node's signal: the exact checks after it find none on a constant log
    table, a zero Gram block and a zero loading."""
    (_, blind, *_), stats = node_step(log, y, log=np.zeros_like(log))
    d = indices.shape[0]
    state = np.zeros((d, d)) if y is None else stats.cross[indices]  # G[idx, idx] or g[idx]
    return blind(indices, state, np.zeros(d), bound)


class TestBoundScreen:
    """A node whose own score bound proves it has signal skips the exact
    no-signal checks, and for pls-pb, which forms no G, any other node runs
    them on its own Gram block: every decision made with the node's bound
    equals the exact checks alone (bound 0) on G."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        d=st.integers(3, 30),
        shape=st.sampled_from(["plain", "duplicated", "proportional"]),
        rescale=st.booleans(),
        y_power=st.sampled_from([0, -200, -150, -100, 100, 150, 200]),
    )
    @example(seed=0, n=30, d=12, shape="proportional", rescale=False, y_power=0)
    @example(seed=1, n=20, d=16, shape="duplicated", rescale=True, y_power=150)
    @example(seed=2, n=20, d=16, shape="proportional", rescale=True, y_power=-150)
    @example(seed=3, n=25, d=10, shape="proportional", rescale=False, y_power=100)
    def test_every_decision_matches_the_checks_on_g(self, seed, n, d, shape, rescale, y_power):
        log, y = screen_table(seed, n, d, shape, rescale, y_power)
        centred = log - log.mean(axis=0)
        gram = centred.T @ centred / (n - 1)  # the global G, formed here only
        for response in (y, None):
            _, stats = node_step(log, response)
            decisions, tree = recorded_decisions(log, response)
            expanded = {node.part_indices for node in partition_nodes(tree)}
            assert {parts for parts in expanded if len(parts) >= 3} <= decisions.keys()
            for parts, (decision, _) in decisions.items():
                idx = np.array(parts)
                block = gram[np.ix_(idx, idx)]
                if response is not None:
                    loading = stats.cross[idx] - np.add.reduce(stats.cross[idx]) / len(idx)
                else:
                    loading = pb._top_eigenpair(block)[1]
                assert decision is exact_checks(stats, idx, block, loading)

    @pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
    def test_constant_subcomposition_takes_the_exact_checks(self, builder):
        # parts 4-7 are proportional: their node has no signal, which only the
        # exact checks can decide; the bound proves every node with signal
        log, y = screen_table(0, 30, 12, "plain", False, 0)
        log[:, 4:8] = log[:, [4]] + np.arange(4)
        response = y if builder == "pls-pb" else None
        decisions, _ = recorded_decisions(log, response)
        assert decisions[(4, 5, 6, 7)][0] is False
        proven = {parts: proven_by_bound(log, response, np.array(parts), bound)
                  for parts, (_, bound) in decisions.items()}
        assert sum(proven.values()) >= 3
        assert all(proven[parts] or decision is False for parts, (decision, _) in decisions.items())

    def test_pls_statistics_form_no_gram(self, rng):
        # pls-pb reads g, diag G and the log scale; at 40 x 3000 a G would
        # take 72 MB
        log, y = rng.standard_normal((40, 3000)), rng.standard_normal(40)
        tracemalloc.start()
        try:
            pb._statistics(log, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        _, stats = node_step(log, y)
        assert not any(np.shape(value) == (3000, 3000) for value in vars(stats).values())
        assert peak < 10 * 2**20


class TestResponseScale:
    """pls-pb reads y at a power-of-two scale, and its rank tests run on G and
    the loading each scaled by a power of two, so no scale of y or of G takes
    its checks out of the float range."""

    @pytest.mark.parametrize("draw", [865, 1330, 1532])
    def test_small_tables_near_1e150_build_without_a_warning(self, draw):
        # three of 2000 such tables whose rank-test products, on the unscaled
        # y, leave the float range
        rng = np.random.default_rng(draw)
        n, d = rng.integers(3, 8), rng.integers(3, 30)
        X = CompositionMatrix(np.exp(5 * rng.standard_normal((n, d))))
        y = rng.standard_normal(n) * 1e150
        basis, tame = pls_pb(X, y), pls_pb(X, np.ldexp(y, -500))
        assert basis.n_balances == d - 1
        assert np.array_equal(basis.sign_matrix, tame.sign_matrix)
        assert np.array_equal(basis.ordering_values, np.ldexp(tame.ordering_values, 500))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        d=st.integers(3, 30),
        shape=st.sampled_from(["plain", "duplicated", "proportional"]),
        power=st.sampled_from([-600, 600]),
    )
    def test_rank_tests_decide_alike_on_scaled_g_and_loading(self, seed, n, d, shape, power):
        # the exact checks on G or the loading times 2^+-600, whose products
        # leave the float range unscaled, decide as the build did
        log, y = screen_table(seed, n, d, shape, False, 0)
        _, stats = node_step(log, y)
        decisions, _ = recorded_decisions(log, y)
        for parts, (decision, _) in decisions.items():
            idx = np.array(parts)
            block = log[:, idx] - log[:, idx].mean(axis=0)
            gram = block.T @ block / (n - 1)
            loading = stats.cross[idx] - np.add.reduce(stats.cross[idx]) / len(idx)
            for gram_power, loading_power in ((power, 0), (0, power)):
                scaled = np.ldexp(gram, gram_power), np.ldexp(loading, loading_power)
                assert exact_checks(stats, idx, *scaled) is decision


def brute_force_pls_node(p) -> float:
    """The largest |c'p| over every balance c on len(p) parts."""
    grid = np.array(list(itertools.product((-1, 0, 1), repeat=len(p)))).T
    grid = grid[:, (grid == 1).any(axis=0) & (grid == -1).any(axis=0)]
    return float(np.abs(signs_to_coefficients(grid).T @ p).max())


class TestExactNode:
    """The exact pls-pb node search in ``conftest.exact_pls_node``, the best
    (r, s) split of a node's loading, bounds the nested candidates of
    Martin-Fernandez et al. (Math. Geosci. 2018) that pls-pb chooses from."""

    @settings(max_examples=100, deadline=None)
    @given(p=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10)),
                      min_size=2, max_size=8))
    @example(p=[1.0, 1.0, 1.0])
    @example(p=[3.0, 1.0, 1.0, 0.0, -2.0, -2.0, -2.0, 5.0])
    def test_matches_brute_force(self, p):
        # ties and constant loadings included
        p = np.array(p)
        score, signs = exact_pls_node(p)
        assert score == pytest.approx(brute_force_pls_node(p), rel=1e-12, abs=1e-12)
        assert abs(signs_to_coefficients(signs) @ p) == pytest.approx(score, rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        d=st.integers(2, 30),
        skewed=st.booleans(),
    )
    def test_no_chosen_score_beats_the_exact_node(self, seed, n, d, skewed):
        # every node's chosen score is at most the exact optimum, and equals
        # it when the optimum is one of the node's nested candidates; a
        # lognormal beta skews the loadings, where the candidates miss it most.
        # The optimum is scored as pls-pb scores any balance, |c'g[idx]|: where
        # two parts' g nearly agree, that product and the (r, s) gap differ
        # by rounding, on some 2-part nodes by more than 1e-12 relative
        rng = np.random.default_rng(seed)
        log = rng.standard_normal((n, d))
        beta = rng.lognormal(0.0, 1.5, d) if skewed else rng.standard_normal(d)
        y = log @ beta + 0.5 * rng.standard_normal(n)
        (_, _, scores, *_), stats = node_step(log, y)
        decisions, tree = recorded_decisions(log, y)
        for node in partition_nodes(tree):
            idx = np.array(node.part_indices)
            p = stats.cross[idx] - np.add.reduce(stats.cross[idx]) / len(idx)
            _, signs = exact_pls_node(p)
            score = scores(signs_to_coefficients(signs)[:, None], stats.cross[idx])[0]
            oracle = math.ldexp(float(score), stats.exponent)
            assert node.chosen_value <= oracle * (1 + 1e-12)
            # a 2-part node's pair decides it, scoring it 0 without signal
            signal = decisions.get(node.part_indices, (node.chosen_value > 0,))[0]
            if not signal or not p.max() > 0 > p.min():
                continue  # no signal: scored 0, with no candidates
            nested = candidate_signs(p).T
            if any(np.array_equal(c, signs) or np.array_equal(c, -signs) for c in nested):
                assert node.chosen_value >= oracle * (1 - 1e-12)
