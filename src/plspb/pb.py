"""Supervised and unsupervised principal balance construction.

Both builders grow a sequential binary partition of the parts by one engine,
``_partition``, which does not know the method: the heap, the stop rule, the
preorder keys, the connecting balances and the child slots. The method is
its node step, ``_pca_step`` or ``_pls_step``, which ``_statistics``, the one
place that reads it, builds once per build (see there).

Every choice depends on the data only through statistics computed once per
build: with Lc the column-centred log data, G = Lc'Lc / (n-1) for pca-pb, and
for pls-pb g = Lc'(y - mean y) / (n-1); pls-pb never forms G. A node over the
parts idx, with H the centring projector on them, takes as loading H g[idx]
(the one-component SIMPLS direction of its subcomposition) for pls-pb, or
the top eigenvector of H G[idx, idx] H (its first principal direction) for
pca-pb. pls-pb reads its response as y * 2^-e, which brings max|y| into
[0.5, 1): its statistics, bounds and scores are homogeneous in y, so this is
exact, and each kept score is scaled back by 2^e once, when returned. One
fused pass builds the loading's d-1 nested candidates as coefficient columns
c, whose signs are the columns of ``candidate_signs``; each is scored by
|c'g[idx]| or c'G[idx, idx]c, the best wins, and ties within a relative 1e-12
go to the fewest active parts: candidate j has j+2, so the first tied one wins.
The node's children are the parts left out of the chosen balance, its
numerator and its denominator. A 2-part node's only balance is +1 on its
first part and -1 on its second; it is finished when its parent opens it,
and ``pair`` decides its signal on Python floats.

A node without usable signal (constant subcomposition, zero H g[idx], or a
SIMPLS fit at its rank boundary) keeps its first part against its last,
scored 0. Its bound screens first (``_screened``), then the exact checks run:
``_constant`` on a Gram block and, for pls-pb, ``_rank_boundary``.

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

The engine builds both the full basis and its leading k balances. It expands
nodes from a heap keyed by an upper bound on the score of every balance
inside the node. Any such balance is a unit zero-sum contrast c on the
node's parts, so for pls-pb |c'g[idx]| <= ||H g[idx]|| (Cauchy-Schwarz), and
for pca-pb c'G[idx, idx]c is at most the top eigenvalue of H G[idx, idx] H.
Opened by its parent, a node enters the heap once with the bound, loading
and state of its step's ``open``, keyed by its own bound. That suffices: a
contrast on a child's parts is also one on its parent's, so no child's bound
exceeds its parent's beyond rounding, and the kept balances are the best by
score and preorder whatever order the nodes are expanded in. pca-pb's top
eigenpair comes from repeated squaring or from eigh's LAPACK kernel
(``_top_eigenpair``), and the route changes no output: the loading matters
only through the order and signs of its entries, scores come from G, and the
squaring's eigenvalue, a Rayleigh quotient, is within about 1e-15 of eigh's,
far inside the stop slack. Each balance is recorded once, and a min-heap of
the k best scores gives the k-th. The engine stops once it exceeds the
largest open bound by a slack of 1e-9 of the root's uncentred scale (||g||
or tr G): that slack covers the rounding of scores and bounds, and being
strictly positive it keeps a pruned node from holding a balance tied with
the k-th that comes earlier in preorder. Every node's work depends only on
its parts, so the first k balances, their order and their scores are
bit-identical to the full build's. With k = D-1 the heap drains whatever the
bounds, so the full build expands every node once.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .coda import BalanceBasis, CompositionMatrix, _balance_entries, _binary_exponent
from .coda import _check_integer, _check_response, _readonly, signs_to_coefficients
from .errors import ConstantResponse, OneSidedLoading, TooFewSamples
from .latent import _RANK_TOL

_TIE_RTOL = 1e-12
# Relative threshold of the constant-subcomposition fallback; the rank
# tests use SIMPLS's own ``_RANK_TOL``.
_CONSTANT_TOL = 1e-12
# Rounding in G can move tr(H G[idx, idx] H) by about n * eps * tr(G[idx, idx]);
# below this share of tr(G[idx, idx]) the constant check reads the data.
_GRAM_NOISE = 1e-8
# The best-first stop slack, relative to the root's uncentred scale.
_STOP_RTOL = 1e-9
# pca-pb's top eigenpair: nodes of these sizes square instead of calling
# eigh's LAPACK kernel, faster on one BLAS thread up to 18-19 parts. Squaring
# stays faster to about 200 parts on 250-sample Gram blocks: 150 is cautious.
_SQUARING_PARTS = range(20, 150)
_RANK_ONE_TOL = 1e-8
# A node not rank one after this many squarings has its top two eigenvalues
# within about 6e-4 of each other (an exactly repeated one never gets there)
# and takes eigh instead.
_MAX_SQUARINGS = 16


@dataclass(frozen=True)
class PartitionNode:
    """One node of the sequential binary partition tree.

    ``part_indices`` lists the node's parts in ascending order.
    ``chosen_signs`` and ``connecting_signs`` are read-only sign vectors over
    all D parts, zero outside the node's; ``connecting_signs`` is None when
    the chosen balance uses every part.
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
                own = signs.take(self.part_indices).tolist()
                payload[key] = {
                    "numerator": [name for name, s in zip(names, own) if s == 1],
                    "denominator": [name for name, s in zip(names, own) if s == -1],
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


def _candidates(p: np.ndarray, magnitudes: np.ndarray, hi, lo) -> np.ndarray:
    """The d x (d-1) coefficients of the nested candidates of a two-sided
    loading p, given |p| and its extremes hi, lo: bit for bit
    ``signs_to_coefficients(candidate_signs(p))``. A part enters a candidate
    with +1 where p >= 0, else -1, and no active entry is 0, so a candidate's
    signs are the signs of its column."""
    key = -magnitudes
    key[hi] = key[lo] = -np.inf  # the two extremes first
    order = key.argsort(kind="stable")
    rank = order.argsort()
    counts = np.arange(2, p.shape[0] + 1)  # candidate j holds the first j+2 parts of the order
    positive = p >= 0
    r = positive[order].cumsum()[1:]  # of which r are positive
    coeffs = np.where(positive[:, None], *_balance_entries(r, counts - r))
    return np.where(rank[:, None] < counts, coeffs, 0.0)


def _node_candidates(p: np.ndarray):
    """``_candidates`` of a node's loading p, oriented so its largest |entry| is
    positive (within 1e-9 of it the first wins); None when p is one-sided."""
    magnitudes, hi, lo = np.abs(p), p.argmax(), p.argmin()
    if not p[hi] > 0 > p[lo]:
        return None
    if p[(magnitudes >= max(p[hi], -p[lo]) * (1 - 1e-9)).argmax()] < 0:
        p = -p  # its extremes are still hi and lo
    return _candidates(p, magnitudes, hi, lo)


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
    return _readonly(np.sign(_candidates(p, np.abs(p), p.argmax(), p.argmin())).astype(int))


def _screened(n: int, log_sq, indices: np.ndarray, trace, beta: float) -> bool:
    """Whether a node's score bound proves it has signal, given its tr G[idx, idx] and its
    step's beta (0 proves nothing). Every unit zero-sum contrast u on its parts has
    u'H G[idx, idx] H u >= beta: the top eigenvalue for pca-pb, and for pls-pb ||p||^2 / v_y
    with p = H g[idx], by Cauchy-Schwarz on p'u = (Lc H u)'(y - mean y) / (n-1). So
    energy >= beta, t^2 >= p'p beta and ||H G H p||^2 >= t^2 beta, and once (n-1) beta exceeds
    twice the window's threshold, at least 1e-8 of the trace (the 2 absorbs the rounding of
    traces), neither ``_constant`` nor a rank test, at 1e-20 of the energy, fires."""
    scale_sq = max(1.0, float(np.add.reduce(log_sq[indices])))
    return (n - 1) * beta > 2 * (_CONSTANT_TOL**2 * scale_sq + _GRAM_NOISE * (n - 1) * float(trace))


def _constant(log: np.ndarray, log_sq, indices: np.ndarray, gram: np.ndarray) -> bool:
    """Whether a node is a constant subcomposition, given its Gram block
    ``gram``: the centred clr block, of squared norm (n-1) * tr(H gram H), is
    at most 1e-12 of its log scale; inside the window the log block decides."""
    n, d = log.shape[0], indices.shape[0]
    scale_sq = max(1.0, float(np.add.reduce(log_sq[indices])))
    trace = gram.trace()
    energy = float(trace - np.add.reduce(np.add.reduce(gram) / d))  # tr(H G[idx, idx] H)
    if (n - 1) * energy <= _CONSTANT_TOL**2 * scale_sq + _GRAM_NOISE * (n - 1) * trace:
        block = log[:, indices]
        block = block - np.add.reduce(block, 1, keepdims=True) / d
        return np.linalg.norm(block - np.add.reduce(block) / n) <= _CONSTANT_TOL * np.sqrt(scale_sq)
    return False


def _rank_boundary(gram: np.ndarray, loading: np.ndarray) -> bool:
    """pls-pb's SIMPLS rank tests on a node's Gram block: whether the score
    t = Xc p / ||p|| or the x-loading Xc't / ||t|| is at most 1e-10 of ||Xc||,
    with Xc'Xc = (n-1) H G H. Both are homogeneous in p and in G, so each is
    scaled by a power of two: exact, and every product in range."""
    d, trace = gram.shape[0], gram.trace()
    energy = float(trace - np.add.reduce(np.add.reduce(gram) / d))
    shift = _binary_exponent(trace)
    p = np.ldexp(loading, -_binary_exponent(loading))
    gp = np.ldexp(gram, -shift) @ p
    gp -= np.add.reduce(gp) / d
    t_sq = float(p @ gp)
    tol = _RANK_TOL**2 * math.ldexp(energy, -shift)
    return t_sq <= tol * float(p @ p) or float(gp @ gp) <= tol * t_sq


def _top_eigenpair(gram: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenpair of A = H G[idx, idx] H: pca-pb's node bound and loading.

    For a node size in ``_SQUARING_PARTS``, B = A / tr A is squared and rescaled
    to trace 1 until the B just squared was rank one (1 - tr B^2 at most
    ``_RANK_ONE_TOL``), at most ``_MAX_SQUARINGS`` times: B is then v v' up
    to about 1e-16, and A times B's column of largest diagonal entry,
    normalised, is v, with its Rayleigh quotient as the eigenvalue. Other
    sizes, a trace <= 0, a B not rank one after the last squaring and a
    non-positive quotient (a negative eigenvalue of larger magnitude) take
    eigh's pair bit for bit from the LAPACK kernel under ``np.linalg.eigh``,
    called directly, raising eigh's LinAlgError if the kernel fails."""
    d = gram.shape[0]
    col_means = np.add.reduce(gram) / d
    centred = gram - col_means[:, None] - col_means + np.add.reduce(col_means) / d
    if d in _SQUARING_PARTS and (trace := centred.trace()) > 0:
        power = centred / trace
        for _ in range(_MAX_SQUARINGS):
            power = power @ power
            purity = power.trace()  # tr B^2 of the B just squared
            power /= purity
            if 1 - purity <= _RANK_ONE_TOL:
                vector = centred @ power[:, power.diagonal().argmax()]
                vector /= np.sqrt(vector @ vector)
                value = float(vector @ centred @ vector)
                if value > 0:
                    return value, vector
                break
    eigenvalues, eigenvectors = _umath_linalg.eigh_lo(centred, signature="d->dd")
    if math.isnan(value := float(eigenvalues[-1])):  # the kernel's NaN for a LAPACK failure
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return value, eigenvectors[:, -1]


def _pca_step(log, log_sq, gram):
    """pca-pb's node step over G: a node's state is G[idx, idx], its bound
    and loading the top eigenpair of H G[idx, idx] H, and c scores c'G[idx, idx]c.
    A 2-part node decides on Python floats, in the exact checks' operation
    order: the sign of (H G H)[0, 1], unless the window leaves it to them."""
    n = log.shape[0]

    def open_node(indices):
        block = gram.take(indices, 0).take(indices, 1)
        return (*_top_eigenpair(block), block)

    def signal(indices, block, loading, bound):
        screened = _screened(n, log_sq, indices, block.trace(), bound)
        return screened or not _constant(log, log_sq, indices, block)

    def scores(coeffs, block):
        return np.einsum("ij,ij->j", coeffs, block @ coeffs)

    def pair(indices):
        block = gram.take(indices, 0).take(indices, 1)
        (g00, g01), (g10, g11) = block.tolist()
        m0, m1 = (g00 + g10) / 2, (g01 + g11) / 2
        trace, energy = g00 + g11, g00 + g11 - (m0 + m1)  # energy = tr(H G H)
        h = ((g01 - m0) - m1) + (m0 + m1) / 2  # (H G H)[0, 1], as _top_eigenpair computes it
        scale_sq = max(1.0, sum(log_sq[indices].tolist()))
        window = (n - 1) * energy <= _CONSTANT_TOL**2 * scale_sq + _GRAM_NOISE * (n - 1) * trace
        if h < 0 and not (window and _constant(log, log_sq, indices, block)):
            return float(scores(PAIR, block)[0])
        return 0.0

    return open_node, signal, scores, pair, gram.trace(), 0


def _pls_step(log, log_sq, variances, cross, means, response_var, exponent: int):
    """pls-pb's node step over g, forming no G: a node's state is g[idx], its
    loading p = H g[idx] with bound ||p||, and c scores |c'g[idx]|. The exact
    checks run on the node's own Gram block B'B / (n-1), B its column-centred
    log block. A 2-part node needs a two-sided p, on Python floats."""
    n = log.shape[0]

    def open_node(indices):
        own = cross[indices]
        loading = own - np.add.reduce(own) / indices.shape[0]
        return float(np.sqrt(loading @ loading)), loading, own

    def signal(indices, own, loading, bound):
        if _screened(n, log_sq, indices, np.add.reduce(variances[indices]),
                     bound * bound / response_var):
            return True
        block = log[:, indices] - means[indices]
        block = block.T @ block / (n - 1)
        return not (_constant(log, log_sq, indices, block) or _rank_boundary(block, loading))

    def scores(coeffs, own):
        return np.abs(coeffs.T @ own)

    def pair(indices):
        c0, c1 = (own := cross[indices]).tolist()
        p0, p1 = c0 - (c0 + c1) / 2, c1 - (c0 + c1) / 2
        if not (p0 > 0 > p1 or p1 > 0 > p0):
            return 0.0
        usable = signal(indices, own, np.array([p0, p1]), (p0 * p0 + p1 * p1) ** 0.5)
        return float(scores(PAIR, own)[0]) if usable else 0.0

    return open_node, signal, scores, pair, np.linalg.norm(cross), exponent


def _statistics(log: np.ndarray, y):
    """The build's node step, the one place that reads which method runs:
    ``_pca_step`` over G when y is None, else ``_pls_step`` over g, diag G and
    v_y, reading y as y * 2^-e, max|y * 2^-e| in [0.5, 1); both read ln X and
    its per-part sum of squares. A step is (open, signal, scores, pair, scale,
    exponent): ``open(idx)`` slices a node once and returns (bound, loading,
    state); ``signal(idx, state, loading, bound)``; ``scores(coeffs, state)``;
    ``pair(idx)``, a 2-part node's score; the root's uncentred scale; 2^e."""
    n, means = log.shape[0], log.mean(axis=0)
    centred = log * log
    log_sq = np.add.reduce(centred)
    np.subtract(log, means, out=centred)  # one n x D buffer: a fresh one costs page faults
    if y is None:
        return _pca_step(log, log_sq, centred.T @ centred / (n - 1))
    exponent = _binary_exponent(y)
    residual = np.ldexp(y, -exponent)
    residual -= residual.mean()
    variances = np.einsum("ij,ij->j", centred, centred) / (n - 1)
    return _pls_step(log, log_sq, variances, centred.T @ residual / (n - 1), means,
                     float(residual @ residual) / (n - 1), exponent)


def _embed(signs: np.ndarray, indices: np.ndarray, n_parts: int) -> np.ndarray:
    """A node's sign pattern as a read-only vector over all parts."""
    full = np.zeros(n_parts, dtype=int)
    full[indices] = signs
    return _readonly(full)


# Preorder slots below a node's path: its chosen and connecting balances,
# then its zero, numerator and denominator children. Keys are tuples of
# slots, and none is a prefix of another, so tuple order is preorder.
_CHOSEN, _CONNECTING = 0, 1
_CHILD_SLOTS = ((2, 0), (3, 1), (4, -1))  # (slot, side of the chosen signs)
# Coefficients of a 2-part node's balance (+1, -1), as one column.
PAIR = signs_to_coefficients(np.array([[1], [-1]]))


def _open_node(step, heap: list, finish, path: tuple, indices: np.ndarray):
    """Push a node of 3 or more parts once with its step's ``open``, keyed by
    its own bound. A 2-part node goes to ``finish`` at once, +1 on its first
    part (its loading +-(1, -1) is an exact tie), scored by ``pair``; no eigh."""
    d = indices.shape[0]
    if d == 2:
        finish(path + (_CHOSEN,), indices, np.array([1, -1]), step[3](indices))
    elif d > 2:
        bound, loading, state = step[0](indices)
        heapq.heappush(heap, (-bound, path, indices, loading, state))


def _partition(step, n_parts: int, max_k: int) -> dict:
    """Best-first sequential binary partition of ``n_parts`` parts by a node
    ``step``, stopped once its ``max_k`` best balances, by score then
    preorder, are known. Returns them in basis order as {preorder key:
    (indices, signs over them, score)}, scores scaled back by 2^e. A node at
    ``path`` was expanded when ``path + (_CHOSEN,)`` is a key;
    ``path + (_CONNECTING,)`` holds its connecting balance, if any."""
    _, signal, scores_of, _, scale, exponent = step
    slack = max(_STOP_RTOL * float(scale), np.finfo(float).tiny)
    balances: list = []  # (score, key, indices, signs), in the order finished
    best: list = []  # min-heap of the max_k best scores: the k-th on top

    def finish(key, indices, signs, score):
        balances.append((score, key, indices, signs))
        heapq.heappush(best, score)
        if len(best) > max_k:
            heapq.heappop(best)

    heap: list = []  # min-heap of (-bound, path, indices, loading, state)
    _open_node(step, heap, finish, (), np.arange(n_parts))

    while heap and not (len(best) == max_k and best[0] > slack - heap[0][0]):
        neg_bound, path, indices, loading, state = heapq.heappop(heap)
        d = indices.shape[0]
        coeffs = _node_candidates(loading) if signal(indices, state, loading, -neg_bound) else None
        if coeffs is None:  # the first part against the last: d-2 left out, as in candidate 0
            signs, score, winner = np.r_[1, np.zeros(d - 2, dtype=int), -1], 0.0, 0
        else:
            scores = scores_of(coeffs, state)
            # Candidate j has j+2 active parts, so the first tied is the fewest.
            winner = int((scores >= scores.max() * (1 - _TIE_RTOL)).argmax())
            signs, score = np.sign(coeffs[:, winner]).astype(int), float(scores[winner])
        finish(path + (_CHOSEN,), indices, signs, score)

        r = d - 2 - winner  # candidate j leaves d-j-2 parts out
        if r:  # a connecting balance: the r left-out parts against the d - r others
            left_out = signs == 0  # entries _balance_entries(r, d - r), on Python floats
            column = np.where(left_out, math.sqrt((d - r) / (d * r)), -math.sqrt(r / (d * (d - r))))
            link_score = 0.0 if coeffs is None else float(scores_of(column[:, None], state)[0])
            finish(path + (_CONNECTING,), indices, np.where(left_out, 1, -1), link_score)

        for slot, side in _CHILD_SLOTS:
            _open_node(step, heap, finish, path + (slot,), indices[signs == side])

    balances.sort(key=lambda balance: (-balance[0], balance[1]))
    return {key: (indices, signs, math.ldexp(score, exponent))
            for score, key, indices, signs in balances[:max_k]}


def _tree(balances: dict, n_parts: int, path: tuple = ()):
    """The PartitionNode at ``path`` of a full partition's balances, or None
    for single parts."""
    if path + (_CHOSEN,) not in balances:
        return None
    indices, signs, value = balances[path + (_CHOSEN,)]
    _, link, link_value = balances.get(path + (_CONNECTING,), (None, None, None))
    link = None if link is None else _embed(link, indices, n_parts)
    children = (_tree(balances, n_parts, path + (slot,)) for slot, _ in _CHILD_SLOTS)
    return PartitionNode(tuple(indices.tolist()), _embed(signs, indices, n_parts), value,
                         link, link_value, *children)


def _leading_signs(log: np.ndarray, y, k: int):
    """The D x k sign matrix of the leading k balances of ln X, pls-pb on a
    checked response y or pca-pb when y is None, their scores and
    ``_partition``'s balances by preorder key. Unchecked against
    ``BalanceBasis``; ``cross_validate`` takes each fold's basis from it,
    ``_build`` every other."""
    if y is not None and np.ptp(y) == 0.0:
        raise ConstantResponse("response has zero variance")
    balances = _partition(_statistics(log, y), log.shape[1], k)
    parts, local, scores = zip(*balances.values())
    signs = np.zeros((log.shape[1], k), dtype=int)
    columns = np.repeat(np.arange(k), [indices.shape[0] for indices in parts])
    signs[np.concatenate(parts), columns] = np.concatenate(local)
    return signs, scores, balances


def _build(log: np.ndarray, y, max_k: int | None = None, return_tree=False, part_names=None):
    """``pls_pb`` on ln X and a checked response y, or ``pca_pb`` when y is
    None: the leading ``max_k`` balances (all D-1 when None) as a validated
    ``BalanceBasis``."""
    if log.shape[0] < 3:
        raise TooFewSamples(f"a basis build needs at least 3 samples, got {log.shape[0]}")
    n_parts = log.shape[1]
    k = n_parts - 1 if max_k is None else _check_integer(max_k, "max_k", 1, n_parts - 1)
    if return_tree and k < n_parts - 1:
        # unexpanded subtrees would read as None, like single parts
        raise ValueError("return_tree needs the full basis (max_k=None)")
    signs, scores, balances = _leading_signs(log, y, k)
    basis = BalanceBasis(signs, np.array(scores), part_names)
    return (basis, _tree(balances, n_parts)) if return_tree else basis


def pls_pb(X: CompositionMatrix, y, max_k: int | None = None, return_tree: bool = False):
    """Build the supervised principal balance basis.

    Returns a BalanceBasis of the ``max_k`` leading orthonormal balances
    (all D-1 when None) sorted by |cov| with the response, non-increasing;
    they equal the first ``max_k`` columns of the full basis bit for bit.
    With ``return_tree=True``, which needs the full basis, also returns the
    PartitionNode tree describing the partition.

    The response is centered once, globally; every node reuses it.
    """
    return _build(np.log(X.values), _check_response(y, X.n_samples), max_k, return_tree,
                  X.part_names)


def pca_pb(X: CompositionMatrix, max_k: int | None = None, return_tree: bool = False):
    """Build the unsupervised principal balance basis.

    Same partition as the supervised build, but each node's loading is the
    first principal direction of its subcomposition and candidates are
    scored by the variance of their balance values. Sorted by variance,
    non-increasing; ``max_k`` and ``return_tree`` as for ``pls_pb``.
    """
    return _build(np.log(X.values), None, max_k, return_tree, X.part_names)

