"""Shared test helpers: random instances and reference checks."""

import hashlib
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from plspb import CompositionMatrix, fold_indices, pb, pca_pb, pls_pb, rmsep
from plspb.coda import _check_response, signs_to_coefficients
from plspb.errors import DimensionMismatch
from plspb.latent import pls_regression
from plspb.modelsel import PLS_PB, PLS_RAW


def random_composition(rng, n, d, spread=1.0):
    """Lognormal part table, strictly positive by construction."""
    return CompositionMatrix(np.exp(spread * rng.standard_normal((n, d))))


def random_instance(rng, n, d, noise=0.5):
    """Composition plus a response driven by a random zero-sum logcontrast."""
    X = random_composition(rng, n, d)
    a = rng.standard_normal(d)
    a -= a.mean()
    y = np.log(X.values) @ a + noise * rng.standard_normal(n)
    return X, y


def nested_or_disjoint(sign_matrix: np.ndarray) -> bool:
    """Check the partition structure of a D x k basis sign matrix.

    In a valid sequential binary partition the supports of any two balances
    are either disjoint or nested, and a balance nested inside another sits
    entirely within one of the outer balance's sign groups.

    With S the support indicator of the columns, entry (a, b) of S'S counts
    the parts the supports of a and b share: it must be 0 or the smaller
    support size. When a's support lies inside b's, entry (a, b) of |S's|
    reaches that count only if b's signs agree over a's support.
    """
    s = np.asarray(sign_matrix, dtype=float)
    support = (s != 0).astype(float)
    overlap = support.T @ support
    size = np.diag(overlap)
    if not np.all((overlap == 0) | (overlap == np.minimum.outer(size, size))):
        return False
    inside = overlap == size[:, None]  # a's support within b's
    np.fill_diagonal(inside, False)
    return bool(np.all(np.abs(support.T @ s)[inside] == overlap[inside]))


def balance_values(X, b) -> np.ndarray:
    """Values ln(X) @ b of one balance, given its coefficient vector."""
    b = np.asarray(b, dtype=float)
    if b.shape != (X.n_parts,):
        raise DimensionMismatch(f"balance has shape {b.shape}, data has {X.n_parts} parts")
    return np.log(X.values) @ b


def best_balance(X, y, sign_matrix) -> tuple[np.ndarray, float]:
    """Reference winner among arbitrary candidates: the coefficient vector
    of the column of ``sign_matrix`` with the largest |cov| with y (n-1
    divisor), scored on the builders' statistics, which read y * 2^-e, and
    scaled back by 2^e, and that |cov|. Ties within a relative 1e-12 of the
    largest go to the fewest active parts, then to the lowest column."""
    signs = np.asarray(sign_matrix)
    if signs.ndim != 2 or signs.shape[0] != X.n_parts or signs.size == 0:
        raise ValueError("sign matrix must be parts x candidates, with a candidate")
    open_node, _, scores, _, _, exponent = pb._statistics(np.log(X.values),
                                                          _check_response(y, X.n_samples))
    _, _, cross = open_node(np.arange(X.n_parts))  # g over every part
    scores = np.ldexp(scores(signs_to_coefficients(signs), cross), exponent)
    tied = np.flatnonzero(scores >= scores.max() * (1 - pb._TIE_RTOL))
    winner = int(tied[np.argmin(np.abs(signs[:, tied]).sum(axis=0))])
    return signs_to_coefficients(signs[:, winner]), float(scores[winner])


def node_step(log, y, /, **changes):
    """``pb._statistics(log, y)``, the node step of pca-pb (y None) or pls-pb,
    and the statistics it was built on, by the names of ``pb._pca_step``'s or
    ``pb._pls_step``'s parameters. ``changes`` replace statistics by name
    before the step is built."""
    name = "_pca_step" if y is None else "_pls_step"
    factory, found = getattr(pb, name), {}

    def build(*args):
        found.update(inspect.signature(factory).bind(*args).arguments, **changes)
        return factory(**found)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pb, name, build)
        step = pb._statistics(log, y)
    return step, SimpleNamespace(**found)


def exact_pls_node(p) -> tuple[float, np.ndarray]:
    """The exact pls-pb node search on a node's loading p = H g[idx]: the
    best balance over all of them, as (score, sign vector). A balance with r
    numerator and s denominator parts scores |c'p| = sqrt(rs/(r+s)) times the
    gap between the means of p over its two sides, so for each (r, s) the r
    largest entries against the s smallest win, scored sqrt(rs/(r+s)) *
    (mean of top r - mean of bottom s). The first best (r, s) is returned."""
    p = np.asarray(p, dtype=float)
    d = p.shape[0]
    order = np.argsort(-p, kind="stable")
    counts = np.arange(1, d + 1)
    top = np.cumsum(p[order]) / counts  # mean of the r largest, r = 1..d
    bottom = np.cumsum(p[order[::-1]]) / counts  # mean of the s smallest
    r, s = counts[:, None], counts
    gaps = np.sqrt(r * s / (r + s)) * (top[:, None] - bottom)
    scores = np.where(r + s <= d, gaps, -np.inf)
    i, j = np.unravel_index(scores.argmax(), scores.shape)
    signs = np.zeros(d, dtype=int)
    signs[order[: i + 1]] = 1
    signs[order[d - j - 1 :]] = -1
    return float(scores[i, j]), signs


def partition_nodes(node):
    """Every node of a PartitionNode tree, in preorder."""
    if node is None:
        return []
    children = (node.zero_child, node.numerator_child, node.denominator_child)
    return [node, *(found for child in children for found in partition_nodes(child))]


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cv_oracle(X, y, method, max_k, folds, seed):
    """Brute-force one-repeat cross-validation on ``cross_validate``'s folds:
    one refit per fold, and one least-squares problem per size k."""
    n = X.n_samples
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    predictions = np.empty((n, max_k))
    for test in fold_indices(n, folds, rng):
        train = np.array([j for j in range(n) if j not in test])
        X_train = CompositionMatrix(X.values[train])
        if method == PLS_RAW:
            model = pls_regression(X_train, y[train], max_k)
            for k in range(1, max_k + 1):
                predictions[test, k - 1] = model.logcontrast(k).predict(X)[test]
            continue
        basis = pls_pb(X_train, y[train]) if method == PLS_PB else pca_pb(X_train)
        coords = basis.coordinates(X)
        for k in range(1, max_k + 1):
            design = np.column_stack([np.ones(len(train)), coords[train, :k]])
            coef = np.linalg.lstsq(design, y[train], rcond=None)[0]
            predictions[test, k - 1] = coef[0] + coords[test, :k] @ coef[1:]
    return np.array([rmsep(y, predictions[:, k - 1]) for k in range(1, max_k + 1)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
