"""Outside-in tracing of plspb: wrap the call sites between its modules.

Each entry of ``WRAPS`` names an attribute that one plspb module looks up
when it calls into another layer (``plspb.pb.pls_fit`` is the name ``pb``
uses to call ``latent``), plus the span it records. Installing the table
replaces those attributes with recording wrappers; removing it puts the
originals back. The program itself is not changed.

A call site that a later version of plspb removes or renames is skipped
with a warning, and the metrics built from it read 0, so the same table
keeps measuring across refactors.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

MARKER = "__perfbench_original__"


def _count_kept(tracer, args, kwargs, result):
    basis = result[0] if isinstance(result, tuple) else result  # (basis, tree) with return_tree
    tracer.count("pb.kept", basis.n_balances)


def _count_candidates(tracer, args, kwargs, result):
    tracer.count("pb.candidates", len(result))


def _count_rows(key: str, position: int):
    def count(tracer, args, kwargs, result):
        tracer.count(key, args[position].n_samples)

    return count


def _count_heldout(tracer, args, kwargs, result):
    # Each row is held out once per repeat and predicted once per k there.
    method = args[2] if len(args) > 2 else kwargs["method"]
    if method in ("pls-pb", "pca-pb"):
        X = args[0] if args else kwargs["X"]
        max_k = result.mean_error.shape[0]
        tracer.count("modelsel.heldout_rows", X.n_samples * max_k * result.repeats)


def _count_file_bytes(key: str):
    def count(tracer, args, kwargs, result):
        tracer.count(key, os.path.getsize(args[0]))

    return count


@dataclass(frozen=True)
class Wrap:
    module: str
    attribute: str  # "name" or "Class.method"
    span: str
    after: Callable | None = None


_READ = _count_file_bytes("fileio.read.bytes")
_WRITE = _count_file_bytes("fileio.write.bytes")

WRAPS = (
    # coda: slicing, transforms and the validated types, counted where built
    Wrap("plspb.coda", "CompositionMatrix.take_parts", "coda.take_parts"),
    Wrap("plspb.coda", "CompositionMatrix.take_samples", "coda.take_samples"),
    Wrap("plspb.pb", "clr", "coda.clr"),
    Wrap("plspb.latent", "clr", "coda.clr"),
    Wrap("plspb.coda", "SignVector.__post_init__", "coda.sign_vector"),
    Wrap("plspb.coda", "BalanceCoefficients.__post_init__", "coda.balance_coefficients"),
    Wrap("plspb.coda", "BalanceBasis.__post_init__", "coda.balance_basis"),
    Wrap("plspb.coda", "BalanceBasis.coordinates", "coda.coordinates",
         _count_rows("coda.coordinates.rows", 1)),
    # latent: node fits called by pb, the raw-PLS route called by modelsel
    Wrap("plspb.pb", "pls_fit", "latent.pls_fit"),
    Wrap("plspb.pb", "pca_fit", "latent.pca_fit"),
    Wrap("plspb.modelsel", "pls_regression", "latent.pls_regression"),
    Wrap("plspb.cli", "pls_regression", "latent.pls_regression"),
    Wrap("plspb.modelsel", "predict_components", "latent.predict_components"),
    # pb: the two builders, wherever they are called from
    Wrap("plspb.pb", "pls_pb", "pb.pls_pb", _count_kept),
    Wrap("plspb.modelsel", "pls_pb", "pb.pls_pb", _count_kept),
    Wrap("plspb.cli", "pls_pb", "pb.pls_pb", _count_kept),
    Wrap("plspb.pb", "pca_pb", "pb.pca_pb", _count_kept),
    Wrap("plspb.modelsel", "pca_pb", "pb.pca_pb", _count_kept),
    Wrap("plspb.cli", "pca_pb", "pb.pca_pb", _count_kept),
    Wrap("plspb.pb", "candidate_signs", "pb.candidate_signs", _count_candidates),
    # modelsel
    Wrap("plspb.modelsel", "cross_validate", "modelsel.cross_validate", _count_heldout),
    Wrap("plspb.cli", "cross_validate", "modelsel.cross_validate", _count_heldout),
    Wrap("plspb.modelsel", "fit_on_balances", "modelsel.fit_on_balances"),
    Wrap("plspb.modelsel", "BalanceModel.predict", "modelsel.predict",
         _count_rows("modelsel.predict.rows", 1)),
    # simgen
    Wrap("plspb.simgen", "simulate_dataset", "simgen.simulate_dataset"),
    Wrap("plspb.cli", "simulate_dataset", "simgen.simulate_dataset"),
    # fileio: cli calls these through the module, so one wrap covers every caller
    Wrap("plspb.fileio", "read_composition_csv", "fileio.read", _READ),
    Wrap("plspb.fileio", "read_response_csv", "fileio.read", _READ),
    Wrap("plspb.fileio", "read_json", "fileio.read", _READ),
    Wrap("plspb.fileio", "write_composition_csv", "fileio.write", _WRITE),
    Wrap("plspb.fileio", "write_response_csv", "fileio.write", _WRITE),
    Wrap("plspb.fileio", "write_basis_csv", "fileio.write", _WRITE),
    Wrap("plspb.fileio", "write_sign_csv", "fileio.write", _WRITE),
    Wrap("plspb.fileio", "write_cv_csv", "fileio.write", _WRITE),
    Wrap("plspb.fileio", "write_recovery_csv", "fileio.write", _WRITE),
    Wrap("plspb.fileio", "write_json", "fileio.write", _WRITE),
    Wrap("plspb.fileio", "sha256_file", "fileio.sha256", _count_file_bytes("fileio.sha256.bytes")),
    # cli
    Wrap("plspb.cli", "main", "cli.main"),
)

# Per-layer metrics of each span name. "calls", "ms" and "self_ms" come from
# the spans; "rows" and "bytes" from counters. Every value is per op, except
# the ratios and the set-up figures.
_SPAN_METRICS = (
    ("coda.take_parts", ("calls", "ms")),
    ("coda.take_samples", ("calls", "ms")),
    ("coda.clr", ("calls", "ms")),
    ("coda.sign_vector", ("calls", "ms")),
    ("coda.balance_coefficients", ("calls", "ms")),
    ("coda.balance_basis", ("calls", "ms")),
    ("coda.coordinates", ("calls", "rows", "ms")),
    ("latent.pls_fit", ("calls", "ms")),
    ("latent.pca_fit", ("calls", "ms")),
    ("latent.pls_regression", ("calls", "ms")),
    ("latent.predict_components", ("calls", "ms")),
    ("pb.pls_pb", ("calls", "ms", "self_ms")),
    ("pb.pca_pb", ("calls", "ms", "self_ms")),
    ("modelsel.cross_validate", ("calls", "ms", "self_ms")),
    ("modelsel.fit_on_balances", ("calls", "ms")),
    ("modelsel.predict", ("calls", "ms", "rows")),
    ("simgen.simulate_dataset", ("calls", "ms")),
    ("fileio.read", ("calls", "ms", "bytes")),
    ("fileio.write", ("calls", "ms", "bytes")),
    ("fileio.sha256", ("calls", "ms", "bytes")),
    ("cli.main", ("calls", "ms", "self_ms")),
)

_UNITS = {
    "calls": "calls/op", "ms": "ms/op", "self_ms": "ms/op", "rows": "rows/op", "bytes": "bytes/op",
}

PER_LAYER = tuple(
    (f"{span}.{kind}", _UNITS[kind]) for span, kinds in _SPAN_METRICS for kind in kinds
) + (
    ("pb.candidates", "count/op"),
    ("pb.useful_ratio", "ratio"),
    ("modelsel.predict_useful_ratio", "ratio"),
    ("simgen.simulate_dataset.setup_calls", "calls"),
    ("simgen.simulate_dataset.setup_ms", "ms"),
    ("cli.rerun_mismatch", "count/op"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
)


class Tracer:
    """Spans and counters kept in memory for one traced phase.

    A span is [name, start_ns, end_ns, parent index, op id]; parent -1 marks
    a top-level span of its op. Spans nest strictly because the benchmark
    runs one thread.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, after):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        setattr(traced, MARKER, fn)
        return traced

    def span_totals(self, factors: dict[int, float] | None = None) -> dict[str, dict[str, float]]:
        """Calls, total ns and self ns (total minus direct children) per name,
        each span's times scaled by the factor of its op (1 if none given)."""
        factors = factors or {}
        totals: dict[str, dict[str, float]] = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, _, op) in enumerate(self.spans):
            scale = factors.get(op, 1.0)
            entry = totals.setdefault(name, {"calls": 0, "ns": 0.0, "self_ns": 0.0})
            entry["calls"] += 1
            entry["ns"] += (end - start) * scale
            entry["self_ns"] += (end - start - child_ns[index]) * scale
        return totals

    def top_level_ns(self) -> int:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path: Path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


def _resolve(wrap: Wrap):
    """(owner object, attribute name) for a wrap, or None if it is gone."""
    try:
        owner = importlib.import_module(wrap.module)
    except ImportError:
        return None
    *path, attr = wrap.attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Installed:
    """Context manager that installs the wrap table and always restores it."""

    def __init__(self, tracer: Tracer, wraps=WRAPS, warn=sys.stderr):
        self.tracer = tracer
        self.wraps = wraps
        self.warn = warn
        self.missing: list[Wrap] = []
        self._saved: list[tuple[object, str, bool, object]] = []

    def __enter__(self):
        try:
            for wrap in self.wraps:
                found = _resolve(wrap)
                if found is None:
                    self.missing.append(wrap)
                    print(f"warning: {wrap.module}.{wrap.attribute} not found; "
                          f"{wrap.span} counts no calls from it", file=self.warn)
                    continue
                owner, attr = found
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else getattr(owner, attr)
                self._saved.append((owner, attr, own, original))
                setattr(owner, attr, self.tracer.wrap(original, wrap.span, wrap.after))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def wrapped_attributes(wraps=WRAPS) -> list[str]:
    """Names in the wrap table that currently hold a wrapper."""
    found = []
    for wrap in wraps:
        resolved = _resolve(wrap)
        if resolved is not None and hasattr(getattr(*resolved), MARKER):
            found.append(f"{wrap.module}.{wrap.attribute}")
    return found


def require_unwrapped() -> None:
    """Raise if any plspb attribute in the table is still wrapped."""
    found = wrapped_attributes()
    if found:
        raise RuntimeError(f"untraced run found wrapped attributes: {found}")


def per_layer_metrics(
    tracer: Tracer, ops: int, factors: dict[int, float], setup: Tracer, rerun_mismatch: int
) -> dict:
    """Per-layer values of one traced phase over ``ops`` ops (without trace.*).

    ``factors`` maps an op id to its speed factor, which scales span times
    the way the op's own time is scaled."""
    totals = tracer.span_totals(factors)
    counters = tracer.counters
    values: dict[str, float] = {}
    for span, kinds in _SPAN_METRICS:
        entry = totals.get(span, {"calls": 0, "ns": 0, "self_ns": 0})
        for kind in kinds:
            if kind == "calls":
                value = entry["calls"]
            elif kind == "ms":
                value = entry["ns"] / 1e6
            elif kind == "self_ms":
                value = entry["self_ns"] / 1e6
            else:
                value = counters.get(f"{span}.{kind}", 0)
            values[f"{span}.{kind}"] = value / ops
    candidates = counters.get("pb.candidates", 0)
    predicted = counters.get("modelsel.predict.rows", 0)
    values["pb.candidates"] = candidates / ops
    values["pb.useful_ratio"] = counters.get("pb.kept", 0) / candidates if candidates else 0.0
    values["modelsel.predict_useful_ratio"] = (
        counters.get("modelsel.heldout_rows", 0) / predicted if predicted else 0.0
    )
    setup_sim = setup.span_totals().get("simgen.simulate_dataset", {"calls": 0, "ns": 0})
    values["simgen.simulate_dataset.setup_calls"] = setup_sim["calls"]
    values["simgen.simulate_dataset.setup_ms"] = setup_sim["ns"] / 1e6
    values["cli.rerun_mismatch"] = rerun_mismatch / ops
    return values
