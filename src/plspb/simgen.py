"""Synthetic benchmark generator for marker recovery studies.

Datasets are built in pivot coordinate space: a block covariance matrix
ties the first coordinates together (the markers), samples are drawn from
a centered multivariate normal, back-transformed to compositions, and the
response is an alternating-sign linear combination of the marker
coordinates plus Gaussian noise.

Three block layouts are supported:

- ``one-block``: a single block of 2r marker coordinates with variance 2,
  covariance 0.5 * (-1)^(i+j) inside the block and independent unit-variance
  noise coordinates elsewhere.
- ``same-blocks``: equally sized blocks whose within-block covariances taper
  linearly away from the diagonal, with per-block strengths ordered so the
  first block is strongest and the second weakest.
- ``different-blocks``: blocks of varying size sharing one covariance range
  and a common diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coda import ALGEBRA_TOL, BalanceBasis, CompositionMatrix, _check_integer, inverse_pivot
from .errors import DimensionMismatch, NotPositiveDefinite

CASE_ONE_BLOCK = "one-block"
CASE_SAME_BLOCKS = "same-blocks"
CASE_DIFFERENT_BLOCKS = "different-blocks"
CASES = (CASE_ONE_BLOCK, CASE_SAME_BLOCKS, CASE_DIFFERENT_BLOCKS)

DEFAULT_BLOCK_SIZES = {
    CASE_ONE_BLOCK: (20,),
    CASE_SAME_BLOCKS: (20, 20, 20, 20),
    CASE_DIFFERENT_BLOCKS: (30, 10, 30, 10),
}

# Per-block taper strengths for the same-blocks case: block 1 strongest,
# block 2 weakest; cycled when more blocks are requested.
SAME_BLOCK_STRENGTHS = (1.0, 0.4, 0.8, 0.6)

_MARKER_DIAGONAL = 2.0
_NOISE_DIAGONAL = 1.0
_OFFDIAG_SCALE = 0.5


@dataclass(frozen=True)
class SimScenario:
    """Declarative description of one synthetic setting.

    ``block_sizes`` counts pivot coordinates per marker block; None picks
    the case default. ``beta`` fixes the response coefficients instead of
    drawing them uniformly from (0.1, 1) per dataset.
    """

    case: str
    n: int = 250
    D: int = 100
    block_sizes: tuple[int, ...] | None = None
    seed: int = 0
    noise_sd: float = 1.0
    beta: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}; expected one of {CASES}")
        _check_integer(self.n, "n", 2)
        _check_integer(self.D, "D", 3)
        sizes = self.block_sizes
        if sizes is None:
            sizes = DEFAULT_BLOCK_SIZES[self.case]
        # stored as Python ints, which a simulate manifest writes as JSON
        sizes = tuple(int(_check_integer(s, f"block_sizes[{i}]", 2)) for i, s in enumerate(sizes))
        if sum(sizes) >= self.D - 1:
            raise ValueError(
                f"{sum(sizes)} marker coordinates leave no noise coordinates at D={self.D}"
            )
        if self.case == CASE_ONE_BLOCK:
            if len(sizes) != 1:
                raise ValueError("the one-block case takes a single block")
            if sizes[0] % 2 != 0:
                raise ValueError("the one-block marker count must be even (2r)")
        if not 0 <= self.noise_sd < np.inf:  # False for NaN
            raise ValueError("noise_sd must be finite and nonnegative")
        beta = self.beta
        if beta is not None:
            beta = tuple(float(b) for b in beta)
            if len(beta) != sum(sizes):
                raise ValueError("beta must carry one value per marker coordinate")
            if not np.all(np.isfinite(beta)):
                raise ValueError("beta must be finite")
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "seed", int(_check_integer(self.seed, "seed", 0)))

    @property
    def n_marker_coordinates(self) -> int:
        return sum(self.block_sizes)


@dataclass(frozen=True)
class SimulatedDataset:
    """One generated dataset plus the pieces needed to audit it."""

    X: CompositionMatrix
    y: np.ndarray
    marker_mask: np.ndarray
    beta: np.ndarray
    noise: np.ndarray
    coordinates: np.ndarray


@dataclass(frozen=True)
class RecoveryResult:
    """Which parts one balance includes, split by marker status."""

    included: np.ndarray
    marker_rate: float
    nonmarker_rate: float


def build_sigma(scenario: SimScenario) -> np.ndarray:
    """Block covariance matrix of the pivot coordinates, (D-1) x (D-1).

    Entries follow the case layout described in the module docstring, with
    the alternating sign pattern (-1)^(i+j) taken over 1-based coordinate
    positions. The matrix is positive definite for every valid scenario:
    a marker block is 0.5·s·P·T·P + (2 − 0.5·s)·I with strength s ≤ 1,
    P the diagonal ±1 parity matrix and T the all-ones matrix or the
    Bartlett taper 1 − |i−j|/size, both positive semidefinite, so its
    smallest eigenvalue is at least 1.5, and the noise coordinates have
    variance 1.
    """
    m = scenario.D - 1
    sigma = np.eye(m) * _NOISE_DIAGONAL
    offset = 0
    for b, size in enumerate(scenario.block_sizes):
        pos = np.arange(offset, offset + size)
        parity = np.where((pos[:, None] + pos[None, :]) % 2 == 0, 1.0, -1.0)
        if scenario.case == CASE_SAME_BLOCKS:
            strength = SAME_BLOCK_STRENGTHS[b % len(SAME_BLOCK_STRENGTHS)]
            taper = 1.0 - np.abs(pos[:, None] - pos[None, :]) / size
            block = _OFFDIAG_SCALE * strength * parity * taper
        else:
            block = _OFFDIAG_SCALE * parity
        np.fill_diagonal(block, _MARKER_DIAGONAL)
        sigma[offset : offset + size, offset : offset + size] = block
        offset += size
    return sigma


def mvn_sample(sigma: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n rows from N(0, sigma) through a Cholesky factor. Sigma must be
    finite and symmetric within 1e-12 of its largest |entry|: the factor
    reads only its lower triangle."""
    _check_integer(n, "n", 0)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("sigma must be square")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be finite")
    if np.abs(sigma - sigma.T).max(initial=0.0) > ALGEBRA_TOL * np.abs(sigma).max(initial=0.0):
        raise ValueError("sigma must be symmetric")
    try:
        factor = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("sigma is not positive definite") from exc
    return rng.standard_normal((n, sigma.shape[0])) @ factor.T


def response_from_coordinates(Z, block_sizes, beta) -> np.ndarray:
    """Noise-free response: alternating-sign sum of marker coordinates.

    Within every block, odd local positions enter positively and even ones
    negatively, each weighted by its beta coefficient.
    """
    Z = np.asarray(Z, dtype=float)
    beta = np.asarray(beta, dtype=float)
    total = sum(block_sizes)
    if beta.shape != (total,):
        raise ValueError("beta must carry one value per marker coordinate")
    if Z.ndim != 2 or Z.shape[1] < total:
        raise DimensionMismatch(f"Z of shape {Z.shape} needs {total} marker coordinate columns")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    if not np.all(np.isfinite(Z[:, :total])):
        raise ValueError("the marker coordinates of Z must be finite")
    signs = np.concatenate(
        [np.where(np.arange(size) % 2 == 0, 1.0, -1.0) for size in block_sizes]
    )
    return Z[:, :total] @ (signs * beta)


def simulate_dataset(scenario: SimScenario) -> SimulatedDataset:
    """Generate one dataset from a scenario, fully determined by its seed.

    Draw order from the seeded stream: coordinates, then beta (when not
    fixed), then the noise vector.
    """
    rng = np.random.default_rng(scenario.seed)
    sigma = build_sigma(scenario)
    coords = mvn_sample(sigma, scenario.n, rng)
    total = scenario.n_marker_coordinates
    if scenario.beta is not None:
        beta = np.asarray(scenario.beta, dtype=float)
    else:
        beta = rng.uniform(0.1, 1.0, size=total)
    noise = scenario.noise_sd * rng.standard_normal(scenario.n)
    y = response_from_coordinates(coords, scenario.block_sizes, beta) + noise
    X = inverse_pivot(coords, total=1.0)
    marker_mask = np.zeros(scenario.D, dtype=bool)
    marker_mask[:total] = True
    return SimulatedDataset(
        X=X,
        y=y,
        marker_mask=marker_mask,
        beta=beta,
        noise=noise,
        coordinates=coords,
    )


def marker_recovery(basis_or_balance, marker_mask) -> RecoveryResult:
    """Score how well a balance covers the marker parts.

    For a basis the first (top-ranked) balance is inspected; any other
    argument is read as one balance's coefficient or sign vector. A part
    counts as included when its entry is nonzero.
    """
    if isinstance(basis_or_balance, BalanceBasis):
        basis_or_balance = basis_or_balance.sign_matrix[:, 0]
    included = np.asarray(basis_or_balance) != 0
    marker_mask = np.asarray(marker_mask, dtype=bool)
    if marker_mask.shape != included.shape:
        raise ValueError("marker mask length must match the part count")
    n_markers = int(marker_mask.sum())
    n_other = int((~marker_mask).sum())
    marker_rate = float(included[marker_mask].mean()) if n_markers else 0.0
    nonmarker_rate = float(included[~marker_mask].mean()) if n_other else 0.0
    return RecoveryResult(
        included=included, marker_rate=marker_rate, nonmarker_rate=nonmarker_rate
    )


def spawn_seeds(seed: int, count: int) -> list[int]:
    """Derive reproducible per-run integer seeds from one master seed."""
    _check_integer(count, "count", 0)
    children = np.random.SeedSequence(_check_integer(seed, "seed", 0)).spawn(count)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]
