"""Supervised and unsupervised principal balance construction.

Both builders grow a sequential binary partition of the parts. Every choice
depends on the data only through statistics computed once per build: with
Lc the column-centred log data, G = Lc'Lc / (n-1) and, for pls-pb,
g = Lc'(y - mean y) / (n-1). A node over the parts idx, with H the centring
projector on them, takes as loading H g[idx] (the one-component SIMPLS
direction of its subcomposition) for pls-pb, or the top eigenvector of
H G[idx, idx] H (its first principal direction) for pca-pb. The loading
yields d-1 nested candidates (see ``candidate_signs``), scored by |c'g[idx]|
or c'G[idx, idx]c; the best wins, and ties within a relative 1e-12 go to
the fewest active parts. The recursion descends into the parts left out of
the chosen balance, its numerator and its denominator.

A node without usable signal (constant subcomposition, zero H g[idx], or a
SIMPLS fit at its rank boundary) keeps its first part against its last, scored 0.

When a chosen balance leaves parts out, the subtree below the node would
only yield d-2 balances; the basis is completed with a connecting balance
that contrasts the left-out parts (numerator) against the included ones
(denominator). It is orthogonal to everything else in the subtree because
each side is constant over the support of any nested balance.

The D-1 balances are finally sorted by their score, non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coda import BalanceBasis, CompositionMatrix, _check_signs, _readonly
from .coda import signs_to_coefficient_matrix, signs_to_coefficients
from .errors import BalanceError, ConstantResponse, OneSidedLoading
from .latent import _flip_to_positive_max

_TIE_RTOL = 1e-12
# Relative thresholds of the no-signal fallbacks.
_CONSTANT_TOL = 1e-12
_RANK_TOL = 1e-10
# Rounding in G can move tr(H G[idx, idx] H) by about n * eps * tr(G[idx, idx]);
# below this share of tr(G[idx, idx]) the constant check reads the data.
_GRAM_NOISE = 1e-8


@dataclass(frozen=True)
class PartitionNode:
    """One node of the sequential binary partition tree.

    ``chosen_signs`` and ``connecting_signs`` are read-only sign vectors over
    all D parts; ``connecting_signs`` is None when the chosen balance uses every part.
    """

    part_indices: tuple[int, ...]
    chosen_signs: np.ndarray
    chosen_value: float
    connecting_signs: np.ndarray | None
    connecting_value: float | None
    zero_child: "PartitionNode | None"
    numerator_child: "PartitionNode | None"
    denominator_child: "PartitionNode | None"

    def to_dict(self, part_names) -> dict:
        """JSON-ready view of the subtree, labeling parts by name."""
        names = [part_names[i] for i in self.part_indices]
        payload: dict = {"parts": names}
        for key, signs, value in (
            ("balance", self.chosen_signs, self.chosen_value),
            ("connecting", self.connecting_signs, self.connecting_value),
        ):
            if signs is not None:
                payload[key] = {
                    "numerator": [part_names[i] for i in np.flatnonzero(signs == 1)],
                    "denominator": [part_names[i] for i in np.flatnonzero(signs == -1)],
                    "value": value,
                }
        children = {}
        for key, child in (
            ("zero", self.zero_child),
            ("numerator", self.numerator_child),
            ("denominator", self.denominator_child),
        ):
            if child is not None:
                children[key] = child.to_dict(part_names)
        if children:
            payload["children"] = children
        return payload


def _sign_matrix(p: np.ndarray) -> np.ndarray:
    """Columns are the d-1 nested candidates of a two-sided loading, in the
    activation order of ``candidate_signs``."""
    d = p.shape[0]
    i_max = int(np.argmax(p))
    i_min = int(np.argmin(p))
    order = np.argsort(-np.abs(p), kind="stable")
    step = np.zeros(d, dtype=int)
    step[order[(order != i_max) & (order != i_min)]] = np.arange(1, d - 1)
    signs = np.where(p >= 0, 1, -1)
    return np.where(step[:, None] <= np.arange(d - 1), signs[:, None], 0)


def candidate_signs(p) -> np.ndarray:
    """Derive the d-1 nested candidate sign patterns from a loading vector,
    as the columns of a read-only d x (d-1) int sign matrix.

    The first candidate marks only the extremes: +1 at the largest entry
    of p, -1 at the smallest. Each following candidate copies the previous
    one and activates the remaining entry of largest magnitude with the
    sign it has in p, so candidate j has exactly j+1 active parts and the
    last candidate uses every part. Exact zeros, should they occur, enter
    last and count as positive.

    Raises
    ------
    OneSidedLoading
        If p has no positive or no negative entry, so no contrast exists.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.shape[0] < 2:
        raise ValueError("loading must be a 1-d vector with at least 2 entries")
    if not (np.any(p > 0) and np.any(p < 0)):
        raise OneSidedLoading("loading entries all share one sign")
    return _readonly(_sign_matrix(p))


def _scores(coeffs: np.ndarray, gram: np.ndarray, cross) -> np.ndarray:
    """Score of each coefficient column: |cov| with the response when the
    cross-products are given, else the variance of the balance values."""
    if cross is not None:
        return np.abs(coeffs.T @ cross)
    return np.einsum("ij,ij->j", coeffs, gram @ coeffs)


def _winner(scores: np.ndarray, sign_matrix: np.ndarray) -> int:
    """Index of the best score; ties within a relative 1e-12 go to the
    fewest active parts, then to the lowest index."""
    tied = np.flatnonzero(scores >= scores.max() * (1 - _TIE_RTOL))
    return int(tied[np.argmin(np.abs(sign_matrix[:, tied]).sum(axis=0))])


@dataclass(frozen=True)
class _Statistics:
    """Everything the recursion reads from the data, computed once per build."""

    log: np.ndarray  # ln X, read only by the exact constant-subcomposition check
    log_sq: np.ndarray  # per-part sum over samples of ln^2 X: the log scale
    gram: np.ndarray  # G = Lc'Lc / (n-1)
    cross: np.ndarray | None  # g = Lc'(y - mean y) / (n-1), supervised only


def _statistics(X: CompositionMatrix, y) -> _Statistics:
    log = np.log(X.values)
    centred = log - log.mean(axis=0)
    n = X.n_samples
    cross = None if y is None else centred.T @ (y - y.mean()) / (n - 1)
    return _Statistics(log, (log * log).sum(axis=0), centred.T @ centred / (n - 1), cross)


def best_balance(Xsub: CompositionMatrix, y, sign_matrix) -> tuple[np.ndarray, float]:
    """Pick the candidate balance with the largest |cov| against y.

    ``sign_matrix`` holds one candidate per column, over the parts of
    ``Xsub``. Returns the winner's coefficient vector and its |cov|.
    Covariance uses the n-1 divisor. Ties within a relative 1e-12 of the
    largest |cov| are broken by the fewest active parts, then the lowest
    candidate index.
    """
    sign_matrix = np.asarray(sign_matrix)
    if sign_matrix.ndim != 2 or sign_matrix.shape[0] != Xsub.n_parts or sign_matrix.size == 0:
        raise ValueError("sign matrix must be parts x candidates, with a candidate")
    _check_signs(sign_matrix)
    y = np.asarray(y, dtype=float)
    if y.shape != (Xsub.n_samples,):
        raise ValueError("response length must match the sample count")
    stats = _statistics(Xsub, y)
    scores = _scores(signs_to_coefficient_matrix(sign_matrix), stats.gram, stats.cross)
    winner = _winner(scores, sign_matrix)
    return signs_to_coefficients(sign_matrix[:, winner]), float(scores[winner])


def _loading(stats: _Statistics, indices: np.ndarray, gram: np.ndarray, cross):
    """Oriented loading of a node, or None when the node has no usable signal."""
    n = stats.log.shape[0]
    col_means = gram.mean(axis=0)
    energy = float(np.trace(gram) - col_means.sum())  # tr(H G[idx, idx] H)
    # Constant subcomposition: the centred clr block, of squared norm (n-1) *
    # energy, is at most 1e-12 of its log scale; near zero the block decides.
    scale_sq = max(1.0, float(stats.log_sq[indices].sum()))
    if (n - 1) * energy <= _CONSTANT_TOL**2 * scale_sq + _GRAM_NOISE * (n - 1) * np.trace(gram):
        block = stats.log[:, indices]
        block = block - block.mean(axis=1, keepdims=True)
        if np.linalg.norm(block - block.mean(axis=0)) <= _CONSTANT_TOL * np.sqrt(scale_sq):
            return None
    if cross is None:
        centred_gram = gram - col_means[:, None] - col_means + col_means.mean()
        p = np.linalg.eigh(centred_gram)[1][:, -1]
    else:
        p = cross - cross.mean()
        # SIMPLS rank boundary: the score t = Xc p / ||p|| and the x-loading
        # Xc't / ||t|| must stay above 1e-10 of ||Xc||, where Xc'Xc is
        # (n-1) H G[idx, idx] H and ||Xc||^2 is (n-1) * energy.
        gp = gram @ p
        gp -= gp.mean()
        t_sq = float(p @ gp)
        tol = _RANK_TOL**2 * energy
        if t_sq <= tol * float(p @ p) or float(gp @ gp) <= tol * t_sq:
            return None
    if not (p.max() > 0 > p.min()):
        return None
    if p.shape[0] == 2:
        # +-(1, -1): an exact tie, so the first part stays positive; rounding in
        # G and g grows with the rows' log level past the tie tolerance.
        return np.array([1.0, -1.0])
    _flip_to_positive_max(p[:, None])
    return p


def _embed(signs: np.ndarray, indices: np.ndarray, n_parts: int) -> np.ndarray:
    """A node's sign pattern as a read-only vector over all parts."""
    full = np.zeros(n_parts, dtype=int)
    full[indices] = signs
    full.setflags(write=False)
    return full


def _build_partition(stats: _Statistics, indices: np.ndarray, collected: list):
    """Recursive sequential binary partition over ``indices``.

    Appends (full-space sign vector, score) pairs to ``collected`` and
    returns the PartitionNode for this subset, or None for single parts.
    """
    d = indices.shape[0]
    if d < 2:
        return None
    n_parts = stats.gram.shape[0]
    gram = stats.gram[np.ix_(indices, indices)]
    cross = None if stats.cross is None else stats.cross[indices]
    loading = _loading(stats, indices, gram, cross)
    if loading is None:
        signs = np.zeros(d, dtype=int)
        signs[0], signs[-1] = 1, -1
        score = 0.0
    else:
        sign_matrix = _sign_matrix(loading)
        scores = _scores(signs_to_coefficient_matrix(sign_matrix), gram, cross)
        winner = _winner(scores, sign_matrix)
        signs, score = sign_matrix[:, winner], float(scores[winner])
    chosen = _embed(signs, indices, n_parts)
    collected.append((chosen, score))

    connecting = connecting_score = None
    if np.any(signs == 0):
        link = np.where(signs == 0, 1, -1)
        connecting = _embed(link, indices, n_parts)
        link_coeffs = signs_to_coefficient_matrix(link[:, None])
        connecting_score = 0.0 if loading is None else float(_scores(link_coeffs, gram, cross)[0])
        collected.append((connecting, connecting_score))

    zero_child = _build_partition(stats, indices[signs == 0], collected)
    numerator_child = _build_partition(stats, indices[signs == 1], collected)
    denominator_child = _build_partition(stats, indices[signs == -1], collected)
    return PartitionNode(
        part_indices=tuple(int(i) for i in indices),
        chosen_signs=chosen,
        chosen_value=score,
        connecting_signs=connecting,
        connecting_value=connecting_score,
        zero_child=zero_child,
        numerator_child=numerator_child,
        denominator_child=denominator_child,
    )


def _assemble_basis(X: CompositionMatrix, collected, label: str) -> BalanceBasis:
    """Sort the kept sign patterns by score and turn them into coefficients;
    ``label`` names the ordering values. ``BalanceBasis`` validates them."""
    values = np.array([v for _, v in collected])
    order = np.argsort(-values, kind="stable")
    signs = np.stack([collected[j][0] for j in order], axis=1)
    coeffs = signs_to_coefficient_matrix(signs)
    return BalanceBasis(coeffs, signs, part_names=X.part_names, **{label: values[order]})


def pls_pb(X: CompositionMatrix, y, return_tree: bool = False):
    """Build the full supervised principal balance basis.

    Returns a BalanceBasis of D-1 orthonormal balances sorted by |cov|
    with the response, non-increasing. With ``return_tree=True`` also
    returns the PartitionNode tree describing the recursion.

    The response is centered once, globally; every node reuses it.
    """
    y = np.asarray(y, dtype=float)
    if X.n_samples < 3:
        raise ValueError("need at least 3 samples")
    if y.shape != (X.n_samples,):
        raise ValueError("response length must match the sample count")
    if not np.all(np.isfinite(y)):
        raise BalanceError("response values must be finite")
    if np.ptp(y) == 0.0:
        raise ConstantResponse("response has zero variance")
    collected: list = []
    tree = _build_partition(_statistics(X, y), np.arange(X.n_parts), collected)
    basis = _assemble_basis(X, collected, "covariances")
    return (basis, tree) if return_tree else basis


def pca_pb(X: CompositionMatrix, return_tree: bool = False):
    """Build the unsupervised principal balance basis.

    Same recursion as the supervised build, but each node's loading is the
    first principal direction of its subcomposition and candidates are
    scored by the variance of their balance values. Sorted by variance,
    non-increasing.
    """
    if X.n_samples < 3:
        raise ValueError("need at least 3 samples")
    collected: list = []
    tree = _build_partition(_statistics(X, None), np.arange(X.n_parts), collected)
    basis = _assemble_basis(X, collected, "variances")
    return (basis, tree) if return_tree else basis


def nested_or_disjoint(sign_matrix: np.ndarray) -> bool:
    """Check the partition structure of a basis sign matrix.

    In a valid sequential binary partition the supports of any two balances
    are either disjoint or nested, and a balance nested inside another sits
    entirely within one of the outer balance's sign groups.
    """
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
            outer_signs = {s[i, outer] for i in supports[inner]}
            if len(outer_signs) != 1:
                return False
    return True
