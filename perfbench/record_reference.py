#!/usr/bin/env python3
"""Record the reference outputs of the build and cv workloads for seed 0.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record_reference.py

Writes ``perfbench/reference/build.npz`` (sign matrix and ordering values
of every basis in the build pool) and ``perfbench/reference/cv.json``
(selected size and mean error curve of every method in every cv op of the
pool). Every output must first pass the property checks.
"""

import json
import sys

import run  # first: pins BLAS to one thread before numpy loads

run._import_plspb()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _outputs(workload):
    workload.setup(workloads.REFERENCE_SEED)
    for j in range(workloads.POOL):
        output = workload.run(j)
        problems = workload.check(j, output)
        if problems:
            raise SystemExit(f"{workload.name} input {j}: {problems}")
        yield output


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    bases = [basis for output in _outputs(workloads.Build()) for basis in output]
    np.savez_compressed(
        workloads.REFERENCE_DIR / "build.npz",
        signs=np.stack([b.sign_matrix.astype(np.int8) for b in bases]),
        ordering=np.stack([b.ordering_values for b in bases]),
    )
    ops = [
        {
            method: {"selected_k": r.selected_k, "mean_error": [float(v) for v in r.mean_error]}
            for method, r in zip(workloads.CV_METHODS, results)
        }
        for results in _outputs(workloads.CrossValidation())
    ]
    payload = {"seed": workloads.REFERENCE_SEED, "max_k": workloads.CV_MAX_K,
               "rtol": checks.CV_RTOL, "ops": ops}
    (workloads.REFERENCE_DIR / "cv.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(f"recorded {len(bases)} bases and {len(ops)} cv ops for seed {workloads.REFERENCE_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
