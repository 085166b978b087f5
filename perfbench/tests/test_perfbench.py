"""Self-tests of the benchmark: its checks, its wrappers and its names.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def build_output():
    build = workloads.Build()
    build.setup(workloads.REFERENCE_SEED)
    build.load_reference()
    return build, build.run(0)


@pytest.fixture(scope="module")
def cv_output():
    cv = workloads.CrossValidation()
    cv.setup(workloads.REFERENCE_SEED)
    cv.load_reference()
    return cv, cv.run(0)


def test_build_reference_accepts_recorded_output(build_output):
    build, bases = build_output
    assert build.check(0, bases) == []


def test_flipped_sign_is_rejected_by_reference_and_properties(build_output):
    build, bases = build_output
    basis = bases[0]
    signs = basis.sign_matrix.copy()
    col = 5
    row = int(np.flatnonzero(signs[:, col])[0])
    signs[row, col] = -signs[row, col]
    ref_signs, ref_ordering = build.reference
    assert checks.basis_matches(signs, basis.ordering_values, ref_signs[0], ref_ordering[0])
    assert checks.basis_properties(basis.coefficient_matrix, signs, basis.ordering_values)
    coeffs = basis.coefficient_matrix.copy()
    coeffs[row, col] = -coeffs[row, col]
    assert checks.basis_properties(coeffs, signs, basis.ordering_values)


def test_perturbed_ordering_is_rejected(build_output):
    build, bases = build_output
    ordering = bases[0].ordering_values * (1 + 1e-7)
    ref_signs, ref_ordering = build.reference
    assert checks.basis_matches(bases[0].sign_matrix, ordering, ref_signs[0], ref_ordering[0])


def test_partition_check():
    # columns are balances over four parts
    overlapping = np.array([[1, 0], [-1, 1], [0, -1], [0, 0]])
    nested = np.array([[1, 1], [1, -1], [-1, 0], [-1, 0]])
    straddling = np.array([[1, 1], [-1, 0], [-1, -1], [0, 0]])
    assert not checks.nested_or_disjoint(overlapping)
    assert checks.nested_or_disjoint(nested)
    assert not checks.nested_or_disjoint(straddling)


def test_cv_reference_accepts_and_rejects(cv_output):
    cv, results = cv_output
    assert cv.check(0, results) == []
    result = results[0]
    ref = cv.reference[0][workloads.CV_METHODS[0]]
    perturbed = np.array(result.mean_error)
    perturbed[3] *= 1 + 1e-6
    assert checks.cv_matches(result.selected_k, perturbed, ref["selected_k"], ref["mean_error"])
    assert checks.cv_matches(result.selected_k + 1, result.mean_error,
                             ref["selected_k"], ref["mean_error"])
    perturbed[3] = np.nan
    assert checks.cv_properties(result.selected_k, perturbed, result.sd_error, workloads.CV_MAX_K)


def test_rerun_report_counts_mismatches():
    out = "pls-pb: 9 balances\nOK coefficients.csv\nMISMATCH signs.csv\nOK tree.json\n"
    problems, bad = checks.rerun_report(out, workloads.FIT_OUTPUTS)
    assert bad == 1 and problems == ["MISMATCH signs.csv"]
    problems, bad = checks.rerun_report("OK tree.json\n", workloads.FIT_OUTPUTS)
    assert bad == 0 and problems


def _current(wrap):
    owner, attr = tracing._resolve(wrap)
    return vars(owner).get(attr, getattr(owner, attr))


def test_wrappers_restore_original_attributes():
    before = {(w.module, w.attribute): _current(w) for w in tracing.WRAPS}
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        assert tracing.wrapped_attributes() == [f"{m}.{a}" for m, a in before]
        with pytest.raises(RuntimeError):
            tracing.require_unwrapped()
    after = {(w.module, w.attribute): _current(w) for w in tracing.WRAPS}
    assert all(after[key] is before[key] for key in before)
    tracing.require_unwrapped()


def test_wrappers_restore_after_an_error():
    before = {(w.module, w.attribute): _current(w) for w in tracing.WRAPS}
    with pytest.raises(ZeroDivisionError):
        with tracing.Installed(tracing.Tracer()):
            1 / 0
    assert all(_current(w) is before[(w.module, w.attribute)] for w in tracing.WRAPS)


def test_missing_call_site_warns_and_counts_zero():
    gone = tracing.Wrap("plspb.pb", "no_such_function", "latent.pls_fit")
    warn = io.StringIO()
    tracer = tracing.Tracer()
    with tracing.Installed(tracer, wraps=(gone,), warn=warn) as installed:
        pass
    assert installed.missing == [gone]
    assert "no_such_function" in warn.getvalue()
    values = tracing.per_layer_metrics(tracer, 1, {}, tracing.Tracer(), 0)
    assert values["latent.pls_fit.calls"] == 0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["outer", 0, 100, -1, 0],
        ["inner", 10, 40, 0, 0],
        ["leaf", 15, 25, 1, 0],
        ["inner", 50, 70, 0, 0],
    ]
    totals = tracer.span_totals()
    assert totals["outer"]["self_ns"] == 50
    assert totals["inner"]["ns"] == 50 and totals["inner"]["self_ns"] == 40
    assert tracer.top_level_ns() == 100
    assert tracer.span_totals({0: 2.0})["outer"]["self_ns"] == 100


def test_tail_is_the_eleventh_largest():
    values = list(range(1, 41))
    assert run.tail(values) == (30, 75.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_declared_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[key]
    }
