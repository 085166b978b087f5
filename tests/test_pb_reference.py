"""Equivalence gate for the basis builders.

The reference below is the per-node construction, kept as a plain loop:
slice the node's parts, take clr, centre, fit a one-component SIMPLS or
PCA model, derive the nested candidates from its loading and score every
candidate from its balance values. The one-component fits are the k=1
paths of the SIMPLS and SVD engines the package shipped up to 0.4.0,
kept here with every rank check. The builders must reproduce its sign
matrices exactly and its ordering values within rtol 1e-9.

The partition check ``nested_or_disjoint`` (in conftest) keeps its former
pairwise loop over support sets here as the reference for its matrix form,
and the nested candidates keep their former sign-matrix construction as the
reference for the fused one that ``candidate_signs`` and the recursion share.
The node step's orientation and candidate pass keep their 0.7.0 form, which
oriented the loading and then took |p| and its extremes a second time, and
``PartitionNode.to_dict`` keeps its 0.7.0 form, which found each group's
parts by ``np.flatnonzero`` over all D sign entries.

Policies are shared with the builders: ties within a relative 1e-12 of the
best score go to the candidate with the fewest active parts, and a node
without usable signal (constant subcomposition, or a rank boundary of the
one-component fit) keeps its first fallback candidate, the first part
against the last, scored 0 like its connecting balance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
from plspb.errors import RankDeficient
from plspb.pb import _candidates, _node_candidates
from plspb.simgen import CASES, SimScenario

from conftest import nested_or_disjoint, random_instance

ORDERING_RTOL = 1e-9
RANK_TOL = 1e-10


def _flip_to_positive_max(weights):
    """Flip columns in place so the largest |entry| of each weight is
    positive; magnitudes within a relative 1e-9 of the largest count as tied
    and the lowest index wins."""
    for j in range(weights.shape[1]):
        magnitudes = np.abs(weights[:, j])
        lead = int(np.flatnonzero(magnitudes >= magnitudes.max() * (1 - 1e-9))[0])
        if weights[lead, j] < 0:
            weights[:, j] = -weights[:, j]


def _check_components(X):
    n, d = X.shape
    if min(d - 1, n - 1) < 1:
        raise RankDeficient(f"k=1 outside 1..{min(d - 1, n - 1)} for {n}x{d} data")


def _pls_loading(X, yc):
    """First SIMPLS weight of centred response yc on centred clr data X."""
    _check_components(X)
    x_scale = np.linalg.norm(X)
    if x_scale == 0.0:
        raise RankDeficient("clr data is constant")
    s = X.T @ yc
    s0_norm = np.linalg.norm(s)
    if s0_norm == 0.0:
        raise RankDeficient("response is orthogonal to the clr data")
    s = s - s.mean()
    s_norm = np.linalg.norm(s)
    if s_norm <= RANK_TOL * s0_norm:
        raise RankDeficient("rank boundary reached at component 1")
    direction = s / s_norm
    t = X @ direction
    t_norm = np.linalg.norm(t)
    if t_norm <= RANK_TOL * x_scale:
        raise RankDeficient("rank boundary reached at component 1")
    loading = X.T @ (t / t_norm)
    loading = loading - loading.mean()
    if np.linalg.norm(loading) <= RANK_TOL * x_scale:
        raise RankDeficient("rank boundary reached at component 1")
    weights = (direction / t_norm)[:, None]
    _flip_to_positive_max(weights)
    return weights[:, 0]


def _pca_loading(X):
    """First principal direction of centred clr data X, by SVD."""
    _check_components(X)
    _, singular_values, vt = np.linalg.svd(X, full_matrices=False)
    if singular_values[0] == 0.0:
        raise RankDeficient("clr data is constant")
    effective_rank = int(np.sum(singular_values > RANK_TOL * singular_values[0]))
    if effective_rank < 1:
        raise RankDeficient(f"k=1 exceeds effective rank {effective_rank}")
    weights = vt[:1].T.copy()
    _flip_to_positive_max(weights)
    return weights[:, 0]


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
    Xsub = CompositionMatrix(X.values[:, indices])
    logs = np.log(Xsub.values)
    raw = clr(Xsub)
    centred = raw - raw.mean(axis=0)
    loading = None
    if np.linalg.norm(centred) > 1e-12 * max(1.0, np.linalg.norm(logs)):
        try:
            loading = _pca_loading(centred) if yc is None else _pls_loading(centred, yc)
        except RankDeficient:
            pass
    if loading is None:
        candidates = candidate_signs(np.linspace(1.0, -1.0, d))[:, :1]
        scores = [0.0]
    else:
        candidates = candidate_signs(loading)
        scores = [_score(logs, yc, signs_to_coefficients(c)) for c in candidates.T]
    best = max(scores)
    winner = next(j for j, s in enumerate(scores) if s >= best * (1 - 1e-12))
    signs = candidates[:, winner]

    def embed(local):
        full = np.zeros(X.n_parts, dtype=int)
        full[indices] = local
        return full

    collected.append((embed(signs), scores[winner]))
    if np.any(signs == 0):
        link = np.where(signs == 0, 1, -1)
        value = 0.0 if loading is None else _score(logs, yc, signs_to_coefficients(link))
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
    # pca-pb nodes of 20 to 149 parts take their top eigenpair by squaring
    for d in [*range(2, 26), 32, 48, 64]:
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
    assert np.all(basis.ordering_values[-3:] == 0.0)


def nested_or_disjoint_loop(sign_matrix) -> bool:
    s = np.asarray(sign_matrix)
    supports = [frozenset(np.flatnonzero(col != 0)) for col in s.T]
    for a in range(len(supports)):
        for b in range(a + 1, len(supports)):
            inter = supports[a] & supports[b]
            if not inter:
                continue
            if inter == supports[a]:
                inner, outer = a, b
            elif inter == supports[b]:
                inner, outer = b, a
            else:
                return False
            if len({s[i, outer] for i in supports[inner]}) != 1:
                return False
    return True


def test_nested_or_disjoint_matches_loop(rng):
    # random balances (both groups nonempty in every column), and bases
    # with one entry redrawn
    outcomes = set()
    for _ in range(3000):
        d, k = int(rng.integers(2, 8)), int(rng.integers(1, 6))
        signs = rng.integers(-1, 2, size=(d, k))
        if np.all(np.any(signs == 1, axis=0) & np.any(signs == -1, axis=0)):
            outcomes.add(nested_or_disjoint_loop(signs))
            assert nested_or_disjoint(signs) == nested_or_disjoint_loop(signs)
    for _ in range(200):
        X, y = random_instance(rng, 20, int(rng.integers(2, 16)))
        signs = pls_pb(X, y).sign_matrix.copy()
        assert nested_or_disjoint(signs) and nested_or_disjoint_loop(signs)
        signs[rng.integers(signs.shape[0]), rng.integers(signs.shape[1])] = rng.integers(-1, 2)
        if np.all(np.any(signs == 1, axis=0) & np.any(signs == -1, axis=0)):
            assert nested_or_disjoint(signs) == nested_or_disjoint_loop(signs)
    assert outcomes == {True, False}


def sign_matrix_loop(p):
    """Nested candidates of a two-sided loading, one per column: the two
    extremes, then the rest by decreasing |p| (stable), each entering with
    its sign, zeros as positive."""
    d = p.shape[0]
    i_max = int(np.argmax(p))
    i_min = int(np.argmin(p))
    order = np.argsort(-np.abs(p), kind="stable")
    step = np.zeros(d, dtype=int)
    step[order[(order != i_max) & (order != i_min)]] = np.arange(1, d - 1)
    signs = np.where(p >= 0, 1, -1)
    return np.where(step[:, None] <= np.arange(d - 1), signs[:, None], 0)


# few distinct values, so exact zeros, tied magnitudes and tied extremes are common
_ENTRIES = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(-3, 3)
_LOADINGS = st.integers(2, 60).flatmap(
    lambda d: st.lists(_ENTRIES, min_size=d, max_size=d)
).filter(lambda p: max(p) > 0 > min(p))


@settings(max_examples=300, deadline=None)
@given(p=_LOADINGS)
@example(p=[1.0, -1.0])
@example(p=[2.0, 0.0, -1.0, 2.0, 0.0, -2.0, 1.0, -1.0])
def test_fused_candidates_match_the_sign_matrix(p):
    p = np.array(p)
    signs = sign_matrix_loop(p)
    public = candidate_signs(p)
    assert public.dtype == signs.dtype and np.array_equal(public, signs)
    coeffs = _candidates(p, np.abs(p), p.argmax(), p.argmin())
    assert coeffs.tobytes() == signs_to_coefficients(candidate_signs(p)).tobytes()


def node_candidates_070(p):
    """0.7.0's node step from an unoriented loading: None when p is
    one-sided, else p oriented so its largest |entry| is positive (within
    1e-9 of it the first wins) and its fused candidates."""
    if not (p.max() > 0 > p.min()):
        return None
    magnitudes = np.abs(p)
    p = -p if p[(magnitudes >= magnitudes.max() * (1 - 1e-9)).argmax()] < 0 else p
    key = -np.abs(p)
    key[p.argmax()] = key[p.argmin()] = -np.inf
    order = key.argsort(kind="stable")
    rank = order.argsort()
    counts = np.arange(2, p.shape[0] + 1)
    active = rank[:, None] < counts
    positive = p >= 0
    r = positive[order].cumsum()[1:]
    s = counts - r
    coeffs = np.where(positive[:, None], np.sqrt(s / (counts * r)), -np.sqrt(r / (counts * s)))
    return active, np.where(positive, 1, -1), np.where(active, coeffs, 0.0)


# magnitudes tied within 1e-9 of the largest, with either sign in the lead
_NEAR_TIES = st.sampled_from([2.0, -2.0, 2.0 * (1 - 5e-10), -2.0 * (1 - 5e-10), 2.0 * (1 - 2e-9)])
_UNORIENTED = st.integers(2, 60).flatmap(
    lambda d: st.lists(_ENTRIES | _NEAR_TIES, min_size=d, max_size=d)
)


@settings(max_examples=150, deadline=None)
@given(p=_UNORIENTED)
@example(p=[-1.0, 1.0])
@example(p=[1.0, 2.0, 0.5])
@example(p=[-2.0, 2.0 * (1 - 5e-10), 1.0, -0.0])
def test_node_step_matches_the_070_orientation_and_candidates(p):
    p = np.array(p)
    got, want = _node_candidates(p), node_candidates_070(p)
    assert (got is None) == (want is None)
    if want is not None:
        active, signs, coeffs = want  # a candidate's signs are those of its coefficient column
        pairs = ((np.sign(got).astype(int), np.where(active, signs[:, None], 0)), (got, coeffs))
        for a, b in pairs:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def to_dict_070(node, part_names) -> dict:
    """``PartitionNode.to_dict`` as 0.7.0 wrote it."""
    payload = {"parts": [part_names[i] for i in node.part_indices]}
    for key, signs, value in (("balance", node.chosen_signs, node.chosen_value),
                              ("connecting", node.connecting_signs, node.connecting_value)):
        if signs is not None:
            payload[key] = {
                "numerator": [part_names[i] for i in np.flatnonzero(signs == 1)],
                "denominator": [part_names[i] for i in np.flatnonzero(signs == -1)],
                "value": value,
            }
    children = {
        key: to_dict_070(child, part_names)
        for key, child in zip(("zero", "numerator", "denominator"),
                              (node.zero_child, node.numerator_child, node.denominator_child))
        if child is not None
    }
    if children:
        payload["children"] = children
    return payload


@pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
def test_tree_dict_matches_the_070_form(builder, rng):
    simulated = [simulate_dataset(SimScenario(case=case, n=100, D=100, seed=2)) for case in CASES]
    instances = [(data.X, data.y) for data in simulated]
    instances += [random_instance(rng, n, d) for n, d in ((5, 2), (8, 3), (30, 17), (12, 40))]
    for X, y in instances:
        _, tree = pls_pb(X, y, return_tree=True) if builder == "pls-pb" else pca_pb(X, return_tree=True)
        assert tree.to_dict(X.part_names) == to_dict_070(tree, X.part_names)
