"""The three plspb workloads.

Each workload makes its inputs from the workload seed in ``setup``, and
then runs ops: ``prepare`` (not timed), ``run`` (the timed op), ``check``
(not timed; a list of problems, empty when the output is correct) and
``cleanup`` (not timed). Ops cycle through ``POOL`` distinct inputs, so
set-up cost does not grow as the program gets faster.

- build: six basis builds at the paper's scale (250 x 100), one of each
  builder on one dataset from each simulator case. Exercises the pb/coda/
  latent recursion; modelsel and fileio do no work.
- cv: one 5-fold repeat of ``cross_validate`` at max_k=20 for pls-pb,
  pca-pb and raw pls on one n=1000, D=100 dataset. Twice the paper's
  max_k gives the per-k OLS and prediction in modelsel their weight.
- cli: ``plspb simulate``, ``plspb fit --method pls-pb`` and ``plspb
  rerun`` of the fit manifest through ``plspb.cli.main``. Carries file
  reading and writing, hashing and the CLI orchestration.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from plspb import cli, modelsel, pb, simgen

import checks

POOL = 8
REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CASES = ("one-block", "same-blocks", "different-blocks")
BUILD_SHAPE = (250, 100)
CV_SHAPE = (1000, 100)
CV_CASE = "same-blocks"
CV_METHODS = ("pls-pb", "pca-pb", "pls")
CV_MAX_K = 20
CV_FOLDS = 5
CLI_SHAPE = (500, 200)
FIT_OUTPUTS = {"coefficients.csv", "signs.csv", "tree.json"}


def derive_seed(*key: int) -> int:
    """A 32-bit seed determined by the workload seed and an input index."""
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


def _dataset(case: str, shape: tuple[int, int], seed: int):
    n, d = shape
    return simgen.simulate_dataset(simgen.SimScenario(case=case, n=n, D=d, seed=seed))


class Build:
    name = "build"
    reference = None

    def setup(self, seed: int):
        self.seed = seed
        self.inputs = [
            [_dataset(case, BUILD_SHAPE, derive_seed(seed, j, c)) for c, case in enumerate(CASES)]
            for j in range(POOL)
        ]

    def load_reference(self):
        with np.load(REFERENCE_DIR / "build.npz") as ref:
            self.reference = (ref["signs"], ref["ordering"])

    def prepare(self, i: int):
        return i % POOL

    def run(self, j):
        out = []
        for data in self.inputs[j]:
            out.append(pb.pls_pb(data.X, data.y))
            out.append(pb.pca_pb(data.X))
        return out

    def check(self, j, bases) -> list[str]:
        problems = []
        for b, basis in enumerate(bases):
            label = f"input {j} basis {b}: "
            found = checks.basis_properties(
                basis.coefficient_matrix, basis.sign_matrix, basis.ordering_values
            )
            if self.reference is not None:
                signs, ordering = self.reference
                k = j * len(bases) + b
                found += checks.basis_matches(
                    basis.sign_matrix, basis.ordering_values, signs[k], ordering[k]
                )
            problems += [label + p for p in found]
        return problems

    def cleanup(self, j):
        pass


class CrossValidation:
    name = "cv"
    reference = None

    def setup(self, seed: int):
        self.seed = seed
        self.data = _dataset(CV_CASE, CV_SHAPE, derive_seed(seed))

    def load_reference(self):
        self.reference = json.loads((REFERENCE_DIR / "cv.json").read_text())["ops"]

    def prepare(self, i: int):
        return i % POOL

    def run(self, j):
        fold_seed = derive_seed(self.seed, j)
        return [
            modelsel.cross_validate(
                self.data.X, self.data.y, method, max_k=CV_MAX_K, folds=CV_FOLDS, seed=fold_seed
            )
            for method in CV_METHODS
        ]

    def check(self, j, results) -> list[str]:
        problems = []
        for method, result in zip(CV_METHODS, results):
            found = checks.cv_properties(
                result.selected_k, result.mean_error, result.sd_error, CV_MAX_K
            )
            if self.reference is not None:
                ref = self.reference[j][method]
                found += checks.cv_matches(
                    result.selected_k, result.mean_error, ref["selected_k"], ref["mean_error"]
                )
            problems += [f"input {j} {method}: {p}" for p in found]
        return problems

    def cleanup(self, j):
        pass


class Cli:
    name = "cli"

    def __init__(self, work_root: Path):
        self.work_root = work_root

    def setup(self, seed: int):
        self.seed = seed
        self.work_root.mkdir(parents=True, exist_ok=True)
        self.rerun_mismatch = 0

    def load_reference(self):
        pass  # rerun verifies its own recorded hashes for every seed

    def prepare(self, i: int):
        return derive_seed(self.seed, i % POOL), Path(tempfile.mkdtemp(dir=self.work_root))

    def run(self, ctx):
        sim_seed, tmp = ctx
        n, d = CLI_SHAPE
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes = [
                cli.main(["simulate", "--n", str(n), "--d", str(d), "--seed", str(sim_seed),
                          "--out", str(tmp / "sim")]),
                cli.main(["fit", "--data", str(tmp / "sim" / "X.csv"),
                          "--response-file", str(tmp / "sim" / "y.csv"),
                          "--method", "pls-pb", "--out", str(tmp / "fit")]),
                cli.main(["rerun", "--manifest", str(tmp / "fit" / "manifest.json"),
                          "--out", str(tmp / "replay")]),
            ]
        return codes, stdout.getvalue()

    def check(self, ctx, output) -> list[str]:
        _, tmp = ctx
        codes, stdout = output
        if codes != [0, 0, 0]:
            return [f"exit codes {codes}"]
        problems, bad = checks.rerun_report(stdout, FIT_OUTPUTS)
        self.rerun_mismatch += bad
        coeffs = np.loadtxt(tmp / "fit" / "coefficients.csv", delimiter=",", dtype=str)
        signs = np.loadtxt(tmp / "fit" / "signs.csv", delimiter=",", dtype=str)
        problems += checks.basis_properties(
            coeffs[1:, 1:].astype(float), signs[1:, 1:].astype(int), coeffs[0, 1:].astype(float)
        )
        return problems

    def cleanup(self, ctx):
        shutil.rmtree(ctx[1], ignore_errors=True)


def make(name: str, out_dir: Path):
    if name == "build":
        return Build()
    if name == "cv":
        return CrossValidation()
    if name == "cli":
        return Cli(out_dir / "work")
    raise ValueError(f"unknown workload {name!r}")
