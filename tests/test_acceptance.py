"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines and per-criterion timings. The Monte Carlo criteria (5 and 6) use
fresh seeded datasets per run; their thresholds are qualitative orderings,
not exact value reproductions.
"""

import time

import numpy as np
import pytest

from plspb import (
    CompositionMatrix,
    SimScenario,
    candidate_signs,
    clr,
    cross_validate,
    fit_on_balances,
    marker_recovery,
    misclassification_error,
    mvn_sample,
    one_se_select,
    pca_pb,
    pivot_coordinates,
    pls_pb,
    pls_regression,
    rmsep,
    signs_to_coefficients,
    simulate_dataset,
)
from plspb.cli import main as cli_main
from plspb.fileio import write_composition_csv, write_response_csv
from plspb.modelsel import PCA_PB, PLS_PB
from plspb.simgen import build_sigma, spawn_seeds

from conftest import nested_or_disjoint, random_composition, random_instance, sha256_file


def report(number: int, name: str, ok: bool, detail: str, started: float):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} "
          f"[{detail}; {elapsed:.1f}s]")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_orthonormality_suite():
    started = time.time()
    rng = np.random.default_rng(1001)
    worst_gram = worst_sum = 0.0
    nesting_ok = True
    for _ in range(200):
        d = int(rng.integers(3, 61))
        n = int(rng.integers(10, 301))
        X, y = random_instance(rng, n, d)
        for basis in (pls_pb(X, y), pca_pb(X)):
            B = basis.coefficient_matrix
            assert B.shape == (d, d - 1)
            worst_gram = max(worst_gram, np.max(np.abs(B.T @ B - np.eye(d - 1))))
            worst_sum = max(worst_sum, np.max(np.abs(B.sum(axis=0))))
            nesting_ok = nesting_ok and nested_or_disjoint(basis.sign_matrix)
    ok = worst_gram < 1e-10 and worst_sum < 1e-12 and nesting_ok
    report(
        1,
        "orthonormality suite",
        ok,
        f"max |BtB-I|={worst_gram:.2e}, max |col sum|={worst_sum:.2e}, "
        f"nesting={'ok' if nesting_ok else 'violated'}",
        started,
    )


def test_criterion_2_basis_equivalence():
    started = time.time()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(3, 12))
        n = int(rng.integers(d + 2, 60))
        X, y = random_instance(rng, n, d)
        k = d - 1
        fit_pls = fit_on_balances(X, y, pls_pb(X, y), k).predict(X)
        fit_pca = fit_on_balances(X, y, pca_pb(X), k).predict(X)
        worst = max(worst, np.max(np.abs(fit_pls - fit_pca)))
    report(
        2,
        "full-size fits agree across bases",
        worst < 1e-8,
        f"max fitted-value gap={worst:.2e}",
        started,
    )


def test_criterion_3_full_rank_pls_least_squares():
    started = time.time()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(30):
        d = int(rng.integers(3, 11))
        n = int(rng.integers(d + 1, 40))
        X, y = random_instance(rng, n, d)
        model = pls_regression(X, y, k=d - 1)
        C = clr(X)
        Cc = C - C.mean(axis=0)
        oracle = y.mean() + Cc @ np.linalg.pinv(Cc) @ (y - y.mean())
        worst = max(worst, np.max(np.abs(model.logcontrast().predict(X) - oracle)))
    report(
        3,
        "full-rank PLS equals least squares",
        worst < 1e-6,
        f"max prediction gap={worst:.2e}",
        started,
    )


def test_criterion_4_candidate_walkthrough():
    started = time.time()
    cands = candidate_signs(np.array([0.9, 0.1, -0.2, -0.8]))
    signs_ok = cands.T.tolist() == [
        [1, 0, 0, -1],
        [1, 0, -1, -1],
        [1, 1, -1, -1],
    ]
    expected = [
        np.array([1 / np.sqrt(2), 0.0, 0.0, -1 / np.sqrt(2)]),
        np.array([np.sqrt(2.0 / 3.0), 0.0, -1 / np.sqrt(6), -1 / np.sqrt(6)]),
        np.array([0.5, 0.5, -0.5, -0.5]),
    ]
    worst = max(
        np.max(np.abs(signs_to_coefficients(c) - e))
        for c, e in zip(cands.T, expected)
    )
    report(
        4,
        "candidate construction walkthrough",
        signs_ok and worst < 1e-12,
        f"signs {'match' if signs_ok else 'differ'}, max coeff err={worst:.2e}",
        started,
    )


def test_criterion_5_one_block_marker_recovery():
    started = time.time()
    rates = {PLS_PB: [], PCA_PB: []}
    noise_rates = {PLS_PB: [], PCA_PB: []}
    for seed in spawn_seeds(1005, 100):
        ds = simulate_dataset(SimScenario("one-block", n=250, D=100, seed=seed))
        for method, basis in (
            (PLS_PB, pls_pb(ds.X, ds.y)),
            (PCA_PB, pca_pb(ds.X)),
        ):
            rec = marker_recovery(basis, ds.marker_mask)
            rates[method].append(rec.marker_rate)
            noise_rates[method].append(rec.nonmarker_rate)
    means = {m: float(np.mean(rates[m])) for m in rates}
    noise_means = {m: float(np.mean(noise_rates[m])) for m in noise_rates}
    ok = all(means[m] >= 0.70 and noise_means[m] <= 0.20 for m in rates)
    report(
        5,
        "one-block marker recovery over 100 runs",
        ok,
        f"marker inclusion pls-pb={means[PLS_PB]:.3f}, pca-pb={means[PCA_PB]:.3f}; "
        f"noise inclusion pls-pb={noise_means[PLS_PB]:.3f}, "
        f"pca-pb={noise_means[PCA_PB]:.3f}",
        started,
    )


@pytest.mark.parametrize("case", ["same-blocks", "different-blocks"])
def test_criterion_6_multi_block_rmsep_ordering(case):
    started = time.time()
    errors = {PLS_PB: [], PCA_PB: []}
    for seed in spawn_seeds(1006, 100):
        ds = simulate_dataset(SimScenario(case, n=250, D=100, seed=seed))
        for method in (PLS_PB, PCA_PB):
            result = cross_validate(
                ds.X, ds.y, method, max_k=1, folds=5, repeats=1, seed=seed
            )
            errors[method].append(result.mean_error[0])
    mean_pls = float(np.mean(errors[PLS_PB]))
    mean_pca = float(np.mean(errors[PCA_PB]))
    ratio = mean_pls / mean_pca
    report(
        6,
        f"one-balance RMSEP ordering ({case})",
        mean_pls < mean_pca and ratio <= 0.8,
        f"mean RMSEP pls-pb={mean_pls:.3f}, pca-pb={mean_pca:.3f}, ratio={ratio:.3f}",
        started,
    )


def test_criterion_7_one_se_rule():
    started = time.time()
    selected = one_se_select(np.array([5.0, 3.0, 2.9, 2.95]), np.full(4, 0.2))
    report(
        7,
        "one-standard-error hand example",
        selected == 2,
        f"selected k={selected}, expected 2",
        started,
    )


def test_criterion_8_cli_manifest_determinism(tmp_path):
    started = time.time()
    rng = np.random.default_rng(1008)
    X, y = random_instance(rng, 14, 6)
    write_composition_csv(tmp_path / "X.csv", X)
    write_response_csv(tmp_path / "y.csv", y)
    data_args = [
        "--data", str(tmp_path / "X.csv"), "--response-file", str(tmp_path / "y.csv"),
    ]
    commands = {
        "simulate": ["simulate", "--case", "one-block", "--n", "30", "--d", "12",
                     "--blocks", "4", "--seed", "3"],
        "simulate-blocks": ["simulate", "--case", "different-blocks", "--n", "20",
                            "--d", "90", "--seed", "9"],
        "fit": ["fit", *data_args, "--method", "pls-pb"],
        "cv": ["cv", *data_args, "--method", "pca-pb", "--max-k", "3",
               "--folds", "4", "--repeats", "2", "--seed", "5"],
        "recover": ["recover", "--case", "one-block", "--n", "25", "--d", "10",
                    "--blocks", "4", "--runs", "3", "--seed", "7"],
    }
    verified = 0
    for label, argv in commands.items():
        out = tmp_path / label
        assert cli_main(argv + ["--out", str(out)]) == 0
        replay = tmp_path / f"{label}-replay"
        code = cli_main(
            ["rerun", "--manifest", str(out / "manifest.json"), "--out", str(replay)]
        )
        assert code == 0, f"{label}: rerun reported hash mismatch"
        import json

        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert sha256_file(replay / name) == digest, f"{label}/{name} differs"
        verified += 1
    report(
        8,
        "manifest reruns are byte-identical",
        verified == 5,
        f"{verified}/5 commands reproduced",
        started,
    )


def test_criterion_9_metric_formulas():
    started = time.time()
    rng = np.random.default_rng(1009)
    worst_rmsep = worst_me = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        y = rng.standard_normal(n)
        yhat = rng.standard_normal(n)
        brute = np.sqrt(sum((a - b) ** 2 for a, b in zip(y, yhat)) / n)
        worst_rmsep = max(worst_rmsep, abs(rmsep(y, yhat) - brute))
        labels = rng.integers(0, 2, size=n)
        guesses = rng.integers(0, 2, size=n)
        brute_me = sum(int(a != b) for a, b in zip(labels, guesses)) / n
        worst_me = max(
            worst_me, abs(misclassification_error(labels, guesses) - brute_me)
        )
    ok = worst_rmsep < 1e-12 and worst_me < 1e-12
    report(
        9,
        "metric formulas against brute force",
        ok,
        f"max rmsep err={worst_rmsep:.2e}, max me err={worst_me:.2e}",
        started,
    )


def test_criterion_10_generator_statistics():
    started = time.time()
    scenario = SimScenario("one-block", n=50000, D=100, block_sizes=(20,), seed=1010)
    sigma = build_sigma(scenario)
    rng = np.random.default_rng(scenario.seed)
    Z = mvn_sample(sigma, scenario.n, rng)
    sample_cov = np.cov(Z, rowvar=False)
    cov_gap = float(np.max(np.abs(sample_cov - sigma)))
    ds = simulate_dataset(scenario)
    roundtrip = float(np.max(np.abs(pivot_coordinates(ds.X) - ds.coordinates)))
    ok = cov_gap < 0.1 and roundtrip < 1e-9
    report(
        10,
        "generator covariance and round trip",
        ok,
        f"max |cov gap|={cov_gap:.3f}, pivot round-trip={roundtrip:.2e}",
        started,
    )
