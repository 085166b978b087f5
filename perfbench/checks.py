"""Output checks written independently of plspb.

Two kinds: comparison with reference outputs recorded for the default seed,
and structural properties that hold for any seed. Each check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

# Ordering values are compared relative to their size, the gate a change to
# the basis builders must pass: the same sign matrices, ordering within 1e-9.
BUILD_RTOL = 1e-9
# CV error curves may move in the last digits when the fold arithmetic is
# reordered; the selected size must not move at all.
CV_RTOL = 1e-8
ORTHONORMAL_TOL = 1e-9


def nested_or_disjoint(signs: np.ndarray) -> bool:
    """True when every pair of balance supports is disjoint or nested, and a
    nested balance lies inside one sign group of the balance around it."""
    s = np.asarray(signs)
    support = (s != 0).astype(np.int64)
    size = support.sum(axis=0)
    shared = support.T @ support
    pos = (s == 1).astype(np.int64).T @ support  # pos[b, a]: parts of a in b's numerator
    neg = (s == -1).astype(np.int64).T @ support
    a_in_b = shared == size[None, :]  # [b, a]: a's support inside b's
    overlapping = (shared > 0) & ~np.eye(s.shape[1], dtype=bool)
    if np.any(overlapping & ~(a_in_b | a_in_b.T)):
        return False
    inner_ok = (pos == size[None, :]) | (neg == size[None, :])
    return not np.any(overlapping & a_in_b & ~inner_ok)


def basis_properties(coeffs, signs, ordering) -> list[str]:
    """Problems with a D x (D-1) balance basis, for any input data."""
    b = np.asarray(coeffs, dtype=float)
    s = np.asarray(signs)
    v = np.asarray(ordering, dtype=float)
    d = b.shape[0]
    problems = []
    if b.shape != (d, d - 1) or s.shape != b.shape or v.shape != (d - 1,):
        return [f"shapes coeffs {b.shape}, signs {s.shape}, ordering {v.shape}"]
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(v))):
        return ["non-finite coefficients or ordering values"]
    if np.max(np.abs(b.T @ b - np.eye(d - 1))) > ORTHONORMAL_TOL:
        problems.append("columns are not orthonormal")
    if np.max(np.abs(b.sum(axis=0))) > ORTHONORMAL_TOL:
        problems.append("columns do not sum to zero")
    if np.any(np.sign(b).astype(int) != s):
        problems.append("sign matrix disagrees with coefficient signs")
    if not nested_or_disjoint(s):
        problems.append("balances do not form a nested-or-disjoint partition")
    if np.any(np.diff(v) > 1e-12 * max(1.0, float(np.max(np.abs(v))))):
        problems.append("ordering values increase")
    return problems


def basis_matches(signs, ordering, ref_signs, ref_ordering) -> list[str]:
    """Problems against a recorded basis: exact signs, ordering within rtol."""
    if not np.array_equal(np.asarray(signs), ref_signs):
        return ["sign matrix differs from the reference"]
    if not np.allclose(ordering, ref_ordering, rtol=BUILD_RTOL, atol=0.0):
        return [f"ordering values differ from the reference beyond rtol {BUILD_RTOL}"]
    return []


def cv_properties(selected_k: int, mean_error, sd_error, max_k: int) -> list[str]:
    mean = np.asarray(mean_error, dtype=float)
    sd = np.asarray(sd_error, dtype=float)
    if mean.shape != (max_k,) or sd.shape != (max_k,):
        return [f"error curves have shape {mean.shape}, expected ({max_k},)"]
    problems = []
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(sd))):
        problems.append("non-finite CV errors")
    elif np.any(mean < 0):
        problems.append("negative CV errors")
    if not 1 <= selected_k <= max_k:
        problems.append(f"selected_k={selected_k} outside 1..{max_k}")
    return problems


def cv_matches(selected_k: int, mean_error, ref_selected_k: int, ref_mean_error) -> list[str]:
    if selected_k != ref_selected_k:
        return [f"selected_k {selected_k} differs from reference {ref_selected_k}"]
    if not np.allclose(mean_error, ref_mean_error, rtol=CV_RTOL, atol=0.0):
        return [f"mean_error differs from the reference beyond rtol {CV_RTOL}"]
    return []


def rerun_report(stdout: str, expected: set[str]) -> tuple[list[str], int]:
    """Problems in ``plspb rerun`` output, and its MISMATCH/MISSING count."""
    statuses = {}
    bad = 0
    for line in stdout.splitlines():
        status, _, name = line.partition(" ")
        if status in ("OK", "MISMATCH", "MISSING"):
            statuses[name] = status
            bad += status != "OK"
    problems = [f"{status} {name}" for name, status in sorted(statuses.items()) if status != "OK"]
    missing = expected - set(statuses)
    if missing:
        problems.append(f"rerun did not verify {sorted(missing)}")
    return problems, bad
