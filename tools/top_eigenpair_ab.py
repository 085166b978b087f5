#!/usr/bin/env python3
"""In-process A/B timing of pca-pb's top eigenpair, a node-step layer that
perfbench's trace does not wrap.

Run from the repository root:

    python3 tools/top_eigenpair_ab.py --seed 0 --rounds 15

It records every matrix that ``pb._top_eigenpair`` receives in the pca-pb
part of perfbench's ``build`` and ``cv`` ops: the three pca-pb builds of
each ``build`` input and the pca-pb ``cross_validate`` of each ``cv``
input, over the whole input pool. It then times, in rounds that alternate
which side runs first, ``pb._top_eigenpair`` and ``eigh`` of the same
centred matrix (the route of every node before squaring) over those
matrices, and then the pca-pb ops themselves with each of the two in
``pb._top_eigenpair``'s place (``*_ops``). It prints per-op milliseconds
(median and quartiles over the rounds) as JSON, with BLAS pinned to one
thread as in perfbench, and exits 1 if the two routes disagree on any matrix
or if a workload records no matrix, or no squared one.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from plspb import modelsel, pb  # noqa: E402


def eigh_pair(gram):
    """The top eigenpair of H G H by eigh, as every node took it before."""
    d = gram.shape[0]
    col_means = np.add.reduce(gram) / d
    centred = gram - col_means[:, None] - col_means + np.add.reduce(col_means) / d
    eigenvalues, eigenvectors = np.linalg.eigh(centred)
    return float(eigenvalues[-1]), eigenvectors[:, -1]


def recorded(op):
    """Every matrix pb._top_eigenpair receives while op() runs."""
    found, original = [], pb._top_eigenpair

    def record(gram):
        found.append(gram)
        return original(gram)

    pb._top_eigenpair = record
    try:
        op()
    finally:
        pb._top_eigenpair = original
    return found


def pca_ops(name, seed):
    """The pca-pb part of every op in the workload's input pool."""
    if name == "build":
        build = workloads.Build()
        build.setup(seed)
        ops = [lambda j=j: [pb.pca_pb(data.X) for data in build.inputs[j]]
               for j in range(workloads.POOL)]
    else:
        cv = workloads.CrossValidation()
        cv.setup(seed)
        ops = [lambda j=j: modelsel.cross_validate(
                   cv.data.X, cv.data.y, "pca-pb", max_k=workloads.CV_MAX_K,
                   folds=workloads.CV_FOLDS, seed=workloads.derive_seed(seed, j))
               for j in range(workloads.POOL)]
    return ops


def routed(pair, ops):
    """Run every op with ``pb._top_eigenpair`` replaced by ``pair``."""
    original = pb._top_eigenpair
    pb._top_eigenpair = pair
    try:
        for op in ops:
            op()
    finally:
        pb._top_eigenpair = original


def agree(grams):
    for gram in grams:
        value, vector = pb._top_eigenpair(gram)
        reference, ref_vector = eigh_pair(gram)
        if abs(vector @ ref_vector) < 1 - 1e-12 or abs(value - reference) > 1e-12 * abs(reference):
            return False
    return True


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=15, help="timing rounds, at least 2")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2: the quartiles need two values")
    report, ok = {"seed": args.seed, "rounds": args.rounds}, True
    for name in ("build", "cv"):
        ops = pca_ops(name, args.seed)
        grams = [gram for op in ops for gram in recorded(op)]
        squared = sum(gram.shape[0] in pb._SQUARING_PARTS for gram in grams)
        # no matrix, or no squared one, means the ops no longer reach
        # pb._top_eigenpair through the module: the comparison would be vacuous
        ok &= bool(squared) and agree(grams)
        times = {key: [] for key in ("eigh", "route", "eigh_ops", "route_ops")}
        sides = (("eigh", eigh_pair), ("route", pb._top_eigenpair))
        for r in range(args.rounds):
            for side, pair in sides if r % 2 == 0 else sides[::-1]:
                start = time.perf_counter()
                for gram in grams:
                    pair(gram)
                middle = time.perf_counter()
                routed(pair, ops)
                times[side].append((middle - start) * 1e3 / workloads.POOL)
                times[side + "_ops"].append((time.perf_counter() - middle) * 1e3 / workloads.POOL)
        report[name] = {
            "matrices_per_op": len(grams) / workloads.POOL,
            "squared_per_op": squared / workloads.POOL,
            **{f"{key}_ms_per_op": quartiles(values) for key, values in times.items()},
        }
    report["routes_agree"] = ok
    print(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
