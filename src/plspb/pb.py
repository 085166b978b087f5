"""Supervised and unsupervised principal balance construction.

Both builders grow a sequential binary partition of the parts. Every choice
depends on the data only through statistics computed once per build: with
Lc the column-centred log data, G = Lc'Lc / (n-1) and, for pls-pb,
g = Lc'(y - mean y) / (n-1). A node over the parts idx, with H the centring
projector on them, takes as loading H g[idx] (the one-component SIMPLS
direction of its subcomposition) for pls-pb, or the top eigenvector of
H G[idx, idx] H (its first principal direction) for pca-pb. One fused pass
builds the coefficients of the loading's d-1 nested candidates, whose signs
are the columns of ``candidate_signs``; each is scored by |c'g[idx]| or
c'G[idx, idx]c, the best wins, and ties within a relative 1e-12 go to the
fewest active parts: candidate j has j+2, so the first tied one wins.
The node's children are the parts left out of the chosen balance, its
numerator and its denominator. A 2-part node's only balance is +1 on its
first part and -1 on its second; it is finished when its parent opens it.

A node without usable signal (constant subcomposition, zero H g[idx], or a
SIMPLS fit at its rank boundary) keeps its first part against its last, scored 0.

When a chosen balance leaves parts out, the subtree below the node would
only yield d-2 balances; the basis is completed with a connecting balance
that contrasts the left-out parts (numerator) against the included ones
(denominator). It is orthogonal to everything else in the subtree because
each side is constant over the support of any nested balance.

The balances are sorted by their score, non-increasing, and equal scores
keep the preorder of the tree: a node's chosen balance, its connecting
balance, then the subtrees of its zero, numerator and denominator children.
Each balance carries that position as its preorder key, the path of child
slots from the root followed by its own slot.

One best-first engine builds both the full basis and its leading k
balances. It expands nodes from a heap keyed by an upper bound on the score
of every balance inside the node. Any such balance is a unit zero-sum
contrast c on the node's parts, so for pls-pb |c'g[idx]| <= ||H g[idx]||
(Cauchy-Schwarz), and for pca-pb c'G[idx, idx]c is at most the top
eigenvalue of H G[idx, idx] H and at most its trace. A node's bound is the
smaller of its own and its parent's, so a pca-pb child inherits its
parent's top eigenvalue. A pca-pb node's own top eigenvalue comes from the
eigh its expansion needs anyway: on its first pop the node computes it and,
when it lowers the bound, goes back into the heap under it. The engine
stops once the k-th best kept score exceeds the largest open bound by a
slack of 1e-9 of the root's uncentred scale (||g|| or tr G): that slack
covers the rounding of scores and bounds, and being strictly positive it
keeps a pruned node from holding a balance tied with the k-th that comes
earlier in preorder. Every node's work depends only on its parts, so the
first k balances, their order and their scores are bit-identical to the
full build's. With k = D-1 the heap drains whatever the bounds, so the
full build computes none and expands every node once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .coda import BalanceBasis, CompositionMatrix, _check_response, _check_signs, _readonly
from .coda import signs_to_coefficient_matrix, signs_to_coefficients
from .errors import ConstantResponse, OneSidedLoading

_TIE_RTOL = 1e-12
# Relative thresholds of the no-signal fallbacks.
_CONSTANT_TOL = 1e-12
_RANK_TOL = 1e-10
# Rounding in G can move tr(H G[idx, idx] H) by about n * eps * tr(G[idx, idx]);
# below this share of tr(G[idx, idx]) the constant check reads the data.
_GRAM_NOISE = 1e-8
# The best-first stop slack, relative to the root's uncentred scale.
_STOP_RTOL = 1e-9


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
        for key, signs, value in (("balance", self.chosen_signs, self.chosen_value),
                                  ("connecting", self.connecting_signs, self.connecting_value)):
            if signs is not None:
                payload[key] = {
                    "numerator": [part_names[i] for i in np.flatnonzero(signs == 1)],
                    "denominator": [part_names[i] for i in np.flatnonzero(signs == -1)],
                    "value": value,
                }
        children = {
            key: child.to_dict(part_names)
            for key, child in zip(("zero", "numerator", "denominator"),
                                  (self.zero_child, self.numerator_child, self.denominator_child))
            if child is not None
        }
        if children:
            payload["children"] = children
        return payload


def _candidates(p: np.ndarray):
    """The d x (d-1) activity mask, the part signs (+1 where p >= 0, else -1)
    and the coefficient matrix of the nested candidates of a two-sided loading
    p: bit for bit ``signs_to_coefficient_matrix(candidate_signs(p))``."""
    key = -np.abs(p)
    key[p.argmax()] = key[p.argmin()] = -np.inf  # the two extremes first
    order = key.argsort(kind="stable")
    rank = order.argsort()
    counts = np.arange(2, p.shape[0] + 1)  # candidate j holds the first j+2 parts of the order
    active = rank[:, None] < counts
    positive = p >= 0
    r = positive[order].cumsum()[1:]  # of which r are positive
    s = counts - r
    coeffs = np.where(positive[:, None], np.sqrt(s / (counts * r)), -np.sqrt(r / (counts * s)))
    return active, np.where(positive, 1, -1), np.where(active, coeffs, 0.0)


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
    ValueError
        If p is not a finite 1-d vector with at least 2 entries.
    OneSidedLoading
        If p has no positive or no negative entry, so no contrast exists.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.shape[0] < 2 or not np.all(np.isfinite(p)):
        raise ValueError("loading must be a finite 1-d vector with at least 2 entries")
    if not (np.any(p > 0) and np.any(p < 0)):
        raise OneSidedLoading("loading entries all share one sign")
    active, signs, _ = _candidates(p)
    return _readonly(np.where(active, signs[:, None], 0))


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
    stats = _statistics(Xsub, _check_response(y, Xsub.n_samples))
    scores = _scores(signs_to_coefficient_matrix(sign_matrix), stats.gram, stats.cross)
    winner = _winner(scores, sign_matrix)
    return signs_to_coefficients(sign_matrix[:, winner]), float(scores[winner])


def _centred(gram: np.ndarray) -> np.ndarray:
    """H G[idx, idx] H."""
    col_means = gram.sum(axis=0) / gram.shape[0]
    return gram - col_means[:, None] - col_means + col_means.sum() / gram.shape[0]


def _top_eigenpair(gram: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenpair of H G[idx, idx] H: pca-pb's node bound and loading."""
    eigenvalues, eigenvectors = np.linalg.eigh(_centred(gram))
    return float(eigenvalues[-1]), eigenvectors[:, -1]


def _loading(stats: _Statistics, indices: np.ndarray, gram: np.ndarray, cross, direction):
    """Oriented loading of a node, or None when the node has no usable
    signal. ``direction`` is the top eigenvector of H G[idx, idx] H for
    pca-pb, None for pls-pb."""
    n, d = stats.log.shape[0], gram.shape[0]
    trace = gram.trace()
    energy = float(trace - (gram.sum(axis=0) / d).sum())  # tr(H G[idx, idx] H)
    # Constant subcomposition: the centred clr block, of squared norm (n-1) *
    # energy, is at most 1e-12 of its log scale; near zero the block decides.
    scale_sq = max(1.0, float(stats.log_sq[indices].sum()))
    if (n - 1) * energy <= _CONSTANT_TOL**2 * scale_sq + _GRAM_NOISE * (n - 1) * trace:
        block = stats.log[:, indices]
        block = block - block.sum(axis=1, keepdims=True) / d
        if np.linalg.norm(block - block.sum(axis=0) / n) <= _CONSTANT_TOL * np.sqrt(scale_sq):
            return None
    if cross is None:
        p = direction
    else:
        p = cross - cross.sum() / d
        # SIMPLS rank boundary: the score t = Xc p / ||p|| and the x-loading
        # Xc't / ||t|| must stay above 1e-10 of ||Xc||, where Xc'Xc is
        # (n-1) H G[idx, idx] H and ||Xc||^2 is (n-1) * energy.
        gp = gram @ p
        gp -= gp.sum() / d
        t_sq = float(p @ gp)
        tol = _RANK_TOL**2 * energy
        if t_sq <= tol * float(p @ p) or float(gp @ gp) <= tol * t_sq:
            return None
    if not (p.max() > 0 > p.min()):
        return None
    # Orient the largest |entry| positive; within 1e-9 of it the first wins.
    magnitudes = np.abs(p)
    return -p if p[(magnitudes >= magnitudes.max() * (1 - 1e-9)).argmax()] < 0 else p


def _embed(signs: np.ndarray, indices: np.ndarray, n_parts: int) -> np.ndarray:
    """A node's sign pattern as a read-only vector over all parts."""
    full = np.zeros(n_parts, dtype=int)
    full[indices] = signs
    full.setflags(write=False)
    return full


# Preorder slots below a node's path: its chosen and connecting balances,
# then its zero, numerator and denominator children. Keys are tuples of
# slots, and none is a prefix of another, so tuple order is preorder.
_CHOSEN, _CONNECTING = 0, 1
_CHILD_SLOTS = ((2, 0), (3, 1), (4, -1))  # (slot, side of the chosen signs)
# Coefficients of a 2-part node's balance (+1, -1), as one column.
PAIR = _readonly(signs_to_coefficient_matrix(np.array([[1], [-1]])))


def _open_node(stats: _Statistics, heap: list, finish, path: tuple, indices: np.ndarray, cap):
    """Push a node of at least 3 parts with its score bound, at most ``cap``
    (-inf in a full build, which keys it by -inf without computing one). A
    2-part node goes to ``finish`` at once, +1 on its first part (its loading
    +-(1, -1) is an exact tie), scored 0 when ``_loading`` finds no signal. For
    pca-pb that includes a one-sided top eigenvector of H G H, which on 2
    parts means an off-diagonal entry that is not negative: no eigh is run."""
    d = indices.shape[0]
    if d == 2:
        gram = stats.gram.take(indices, 0).take(indices, 1)
        cross = None if stats.cross is None else stats.cross[indices]
        direction = None if cross is not None else np.array([1.0, _centred(gram)[0, 1]])
        signal = _loading(stats, indices, gram, cross, direction) is not None
        score = float(_scores(PAIR, gram, cross)[0]) if signal else 0.0
        finish(path, indices, np.array([1, -1]), score)
        return
    if d < 3:
        return
    if cap == -np.inf:
        heapq.heappush(heap, (np.inf, path, indices, None))
        return
    if stats.cross is None:
        gram = stats.gram.take(indices, 0).take(indices, 1)
        own = gram.trace() - gram.sum() / d  # tr(H G[idx, idx] H)
    else:
        cross = stats.cross[indices]
        cross = cross - cross.sum() / d
        own = np.sqrt(cross @ cross)  # ||H g[idx]||
    heapq.heappush(heap, (-min(cap, float(own)), path, indices, None))


def _partition(stats: _Statistics, max_k: int):
    """Best-first sequential binary partition, stopped once its ``max_k``
    best balances are known.

    Returns the kept (sign vector over all parts, score) pairs in basis
    order, and the expanded nodes as {path: (indices, chosen signs, score,
    connecting signs, connecting score)}.
    """
    n_parts = stats.gram.shape[0]
    scale = stats.gram.trace() if stats.cross is None else np.linalg.norm(stats.cross)
    slack = max(_STOP_RTOL * float(scale), np.finfo(float).tiny)
    kept: list = []  # min-heap of (score, negated key, key, signs): the worst on top
    expanded: dict = {}

    def finish(path, indices, signs, score, link_score=None):
        """Record a node and keep its balances; a scored connecting balance takes its 0 parts."""
        chosen = _embed(signs, indices, n_parts)
        link = None if link_score is None else _embed(np.where(signs == 0, 1, -1), indices, n_parts)
        expanded[path] = (indices, chosen, score, link, link_score)
        for slot, value, balance in ((_CHOSEN, score, chosen), (_CONNECTING, link_score, link)):
            if balance is not None:
                key = path + (slot,)
                heapq.heappush(kept, (value, tuple(-s for s in key), key, balance))
                if len(kept) > max_k:
                    heapq.heappop(kept)

    # min-heap of (-bound, path, indices, top eigenpair once a pca-pb node has
    # it); in a full build every bound is -inf, so no node is re-queued.
    heap: list = []
    cap = -np.inf if max_k == n_parts - 1 else np.inf
    _open_node(stats, heap, finish, (), np.arange(n_parts), cap)

    while heap and not (len(kept) == max_k and kept[0][0] > slack - heap[0][0]):
        neg_bound, path, indices, eigenpair = heapq.heappop(heap)
        gram = stats.gram.take(indices, 0).take(indices, 1)
        if stats.cross is None and eigenpair is None:
            # A pca-pb node's first pop: its own top eigenvalue bounds its
            # balances, so it goes back under that bound if it is lower.
            eigenpair = _top_eigenpair(gram)
            if eigenpair[0] < -neg_bound:
                heapq.heappush(heap, (-eigenpair[0], path, indices, eigenpair))
                continue
        cross = None if stats.cross is None else stats.cross[indices]
        direction = None if eigenpair is None else eigenpair[1]
        d = indices.shape[0]
        loading = _loading(stats, indices, gram, cross, direction)
        if loading is None:  # the first part against the last: d-2 left out, as in candidate 0
            signs, score, winner = np.r_[1, np.zeros(d - 2, dtype=int), -1], 0.0, 0
        else:
            active, part_signs, coeffs = _candidates(loading)
            scores = _scores(coeffs, gram, cross)
            # Candidate j has j+2 active parts, so the first tied is the fewest.
            winner = int((scores >= scores.max() * (1 - _TIE_RTOL)).argmax())
            signs, score = np.where(active[:, winner], part_signs, 0), float(scores[winner])

        link_score = None
        r = d - 2 - winner  # candidate j leaves d-j-2 parts out
        if r:  # r left-out parts against d - r, by signs_to_coefficient_matrix's formula
            column = np.where(signs == 0, np.sqrt((d - r) / (d * r)), -np.sqrt(r / (d * (d - r))))
            link_score = 0.0 if loading is None else float(_scores(column[:, None], gram, cross)[0])
        finish(path, indices, signs, score, link_score)

        for slot, side in _CHILD_SLOTS:
            _open_node(stats, heap, finish, path + (slot,), indices[signs == side], -neg_bound)

    ranked = sorted(kept, key=lambda entry: (-entry[0], entry[2]))
    return [(entry[3], entry[0]) for entry in ranked], expanded


def _tree(expanded: dict, path: tuple = ()):
    """The PartitionNode at ``path`` of a fully expanded partition, or None
    for single parts."""
    if path not in expanded:
        return None
    # PartitionNode's fields: the 5 entries of ``expanded``, then the children
    indices, *balances = expanded[path]
    children = (_tree(expanded, path + (slot,)) for slot, _ in _CHILD_SLOTS)
    return PartitionNode(tuple(int(i) for i in indices), *balances, *children)


def _build(X: CompositionMatrix, y, max_k: int | None, return_tree: bool, label: str):
    """The leading ``max_k`` balances (all D-1 when None) as a ``BalanceBasis``,
    which validates them and derives their coefficients; ``label`` names the
    ordering values."""
    full = X.n_parts - 1
    k = full if max_k is None else max_k
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= full):
        raise ValueError(f"max_k={max_k} is not an integer in 1..{full}")
    if return_tree and k < full:
        # unexpanded subtrees would read as None, like single parts
        raise ValueError("return_tree needs the full basis (max_k=None)")
    ranked, expanded = _partition(_statistics(X, y), k)
    basis = BalanceBasis(
        np.stack([signs for signs, _ in ranked], axis=1),
        part_names=X.part_names,
        **{label: np.array([score for _, score in ranked])},
    )
    return (basis, _tree(expanded)) if return_tree else basis


def pls_pb(X: CompositionMatrix, y, max_k: int | None = None, return_tree: bool = False):
    """Build the supervised principal balance basis.

    Returns a BalanceBasis of the ``max_k`` leading orthonormal balances
    (all D-1 when None) sorted by |cov| with the response, non-increasing;
    they equal the first ``max_k`` columns of the full basis bit for bit.
    With ``return_tree=True``, which needs the full basis, also returns the
    PartitionNode tree describing the partition.

    The response is centered once, globally; every node reuses it.
    """
    if X.n_samples < 3:
        raise ValueError("need at least 3 samples")
    y = _check_response(y, X.n_samples)
    if np.ptp(y) == 0.0:
        raise ConstantResponse("response has zero variance")
    return _build(X, y, max_k, return_tree, "covariances")


def pca_pb(X: CompositionMatrix, max_k: int | None = None, return_tree: bool = False):
    """Build the unsupervised principal balance basis.

    Same partition as the supervised build, but each node's loading is the
    first principal direction of its subcomposition and candidates are
    scored by the variance of their balance values. Sorted by variance,
    non-increasing; ``max_k`` and ``return_tree`` as for ``pls_pb``.
    """
    if X.n_samples < 3:
        raise ValueError("need at least 3 samples")
    return _build(X, None, max_k, return_tree, "variances")


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
