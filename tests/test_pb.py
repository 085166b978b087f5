"""Tests for principal balance construction."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from plspb import (
    CompositionMatrix,
    SimScenario,
    balance_values,
    best_balance,
    candidate_signs,
    clr,
    pca_pb,
    pls_pb,
    signs_to_coefficients,
    simulate_dataset,
)
from plspb.errors import BalanceError, ConstantResponse, DegenerateSplit, OneSidedLoading
from plspb.pb import nested_or_disjoint

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


class TestBestBalance:
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
        p = clr(X).values.T @ (y - y.mean())
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
        assert_allclose(basis.covariances, recomputed, atol=1e-12)

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
            p = clr(X).values.T @ yc
            p = p - p.mean() if not (np.any(p > 0) and np.any(p < 0)) else p
            for cand in candidate_signs(p).T:
                t = balance_values(X, signs_to_coefficients(cand))
                tc = t - t.mean()
                cand_cov = abs(tc @ yc) / (X.n_samples - 1)
                assert basis.covariances[0] >= cand_cov - 1e-10

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
        for bad in (np.nan, -np.inf):
            y[1] = bad
            with pytest.raises(BalanceError, match="finite"):
                pls_pb(X, y)

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
        assert np.all(first.covariances < 1e-12)
        unsupervised = pca_pb(X)
        check_basis(X, unsupervised)
        assert np.all(unsupervised.variances < 1e-12)

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
        C = clr(X).values
        Cc = C - C.mean(axis=0)
        total = np.sum(Cc**2) / (X.n_samples - 1)
        assert abs(basis.variances.sum() - total) < 1e-8

    def test_variances_match_recomputation(self, rng):
        X = random_composition(rng, 25, 7)
        basis = pca_pb(X)
        coords = basis.coordinates(X)
        centered = coords - coords.mean(axis=0)
        recomputed = (centered**2).sum(axis=0) / (X.n_samples - 1)
        assert_allclose(basis.variances, recomputed, atol=1e-12)


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
