"""Equivalence gate for the basis builders.

The reference below is the per-node construction, kept as a plain loop:
slice the node's parts, take clr, centre, fit a one-component SIMPLS or
PCA model, derive the nested candidates from its loading and score every
candidate from its balance values. The builders must reproduce its sign
matrices exactly and its ordering values within rtol 1e-9.

Policies are shared with the builders: ties within a relative 1e-12 of the
best score go to the candidate with the fewest active parts, and a node
without usable signal (constant subcomposition, or a rank boundary of the
one-component fit) keeps its first fallback candidate, the first part
against the last, scored 0 like its connecting balance.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plspb import (
    CompositionMatrix,
    candidate_signs,
    clr,
    pca_pb,
    pls_pb,
    signs_to_coefficients,
    simulate_dataset,
)
from plspb.coda import ClrMatrix
from plspb.errors import RankDeficient
from plspb.latent import pca_fit, pls_fit
from plspb.simgen import CASES, SimScenario

from conftest import random_instance

ORDERING_RTOL = 1e-9


def _score(logs, yc, coeffs):
    values = logs @ coeffs
    centred = values - values.mean()
    n = logs.shape[0]
    if yc is None:
        return float(centred @ centred / (n - 1))
    return float(abs(centred @ yc) / (n - 1))


def _reference_node(X, yc, indices, collected):
    d = indices.shape[0]
    if d < 2:
        return
    Xsub = X.take_parts(indices)
    logs = np.log(Xsub.values)
    raw = clr(Xsub).values
    centred = raw - raw.mean(axis=0)
    loading = None
    if np.linalg.norm(centred) > 1e-12 * max(1.0, np.linalg.norm(logs)):
        xclr = ClrMatrix(centred, centered=True)
        try:
            model = pca_fit(xclr, 1) if yc is None else pls_fit(xclr, yc, 1)
            loading = model.weights[:, 0]
        except RankDeficient:
            pass
    if loading is None:
        candidates = candidate_signs(np.linspace(1.0, -1.0, d))[:1]
        scores = [0.0]
    else:
        candidates = candidate_signs(loading)
        scores = [_score(logs, yc, signs_to_coefficients(c).coeffs) for c in candidates]
    best = max(scores)
    winner = next(j for j, s in enumerate(scores) if s >= best * (1 - 1e-12))
    signs = candidates[winner].signs

    def embed(local):
        full = np.zeros(X.n_parts, dtype=int)
        full[indices] = local
        return full

    collected.append((embed(signs), scores[winner]))
    if np.any(signs == 0):
        link = np.where(signs == 0, 1, -1)
        value = 0.0 if loading is None else _score(
            logs, yc, signs_to_coefficients(link).coeffs
        )
        collected.append((embed(link), value))
    for group in (0, 1, -1):
        _reference_node(X, yc, indices[signs == group], collected)


def reference_build(X, y=None):
    """Sign matrix and ordering values of the per-node construction."""
    yc = None if y is None else y - y.mean()
    collected = []
    _reference_node(X, yc, np.arange(X.n_parts), collected)
    values = np.array([v for _, v in collected])
    order = np.argsort(-values, kind="stable")
    signs = np.stack([s for s, _ in collected], axis=1)
    return signs[:, order], values[order]


def assert_matches_reference(X, y=None):
    basis = pca_pb(X) if y is None else pls_pb(X, y)
    signs, values = reference_build(X, y)
    assert np.array_equal(basis.sign_matrix, signs)
    assert_allclose(basis.ordering_values, values, rtol=ORDERING_RTOL, atol=0.0)


@pytest.mark.parametrize("case", CASES)
def test_simulated_datasets_match(case):
    data = simulate_dataset(SimScenario(case=case, n=250, D=100, seed=11))
    assert_matches_reference(data.X, data.y)
    assert_matches_reference(data.X)


def test_random_small_instances_match(rng):
    for d in range(2, 26):
        n = int(rng.integers(5, 40))
        X, y = random_instance(rng, n, d)
        assert_matches_reference(X, y)
        assert_matches_reference(X)


def _parts_of_nodes(tree):
    stack, found = [tree], []
    while stack:
        node = stack.pop()
        if node is None:
            continue
        found.append(set(node.part_indices))
        stack += [node.zero_child, node.numerator_child, node.denominator_child]
    return found


def _with_block(outer, block):
    """Two outer parts (first and last) around a block of inner parts."""
    X = np.empty((block.shape[0], 2 + block.shape[1]))
    X[:, 0], X[:, -1] = outer
    X[:, 1:-1] = block
    return CompositionMatrix(X)


def test_constant_subcomposition_falls_back(rng):
    # proportional inner parts: their subcomposition is the same in every
    # row. With this draw, rounding in G can leave tr(H G H) of the inner
    # block above the 1e-12 threshold, so the check has to read the data.
    n = 33
    outer = np.exp(rng.standard_normal((2, n)))
    block = np.outer(np.exp(rng.standard_normal(n)), np.exp(rng.standard_normal(4)))
    X = _with_block(outer, block)
    y = np.log(outer[0] / outer[1]) + 0.1 * rng.standard_normal(n)
    assert_matches_reference(X, y)
    assert_matches_reference(X)
    for basis, tree in (pls_pb(X, y, return_tree=True), pca_pb(X, return_tree=True)):
        assert {1, 2, 3, 4} in _parts_of_nodes(tree)
        assert np.all(basis.ordering_values[-3:] == 0.0)


def test_orthogonal_response_falls_back(rng):
    n = 30
    outer = np.exp(rng.standard_normal((2, n)))
    block = np.exp(rng.standard_normal((n, 4)))
    # rows 0 and 1 agree on the inner parts and differ on the outer ones, so
    # a response living on those two rows has zero covariance with every
    # inner log-ratio
    block[1] = block[0]
    outer[0, 1] = outer[0, 0] / 3.0
    outer[1, 1] = outer[1, 0] * 2.0
    X = _with_block(outer, block)
    y = np.zeros(n)
    y[0], y[1] = 1.0, -1.0
    basis, tree = pls_pb(X, y, return_tree=True)
    assert_matches_reference(X, y)
    assert {1, 2, 3, 4} in _parts_of_nodes(tree)
    assert np.all(basis.covariances[-3:] == 0.0)
