#!/usr/bin/env python3
"""Benchmark of plspb, timed from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # build, cv and cli

Each workload runs in one process with BLAS pinned to one thread. With
``--trace 0`` the ops run untraced and the last line of standard output is
a JSON object with the end-to-end metrics. With ``--trace 1`` half the
time runs untraced (for the tracing overhead) and whole cycles of the
input pool then run with the call sites between plspb's modules wrapped;
the JSON holds the per-layer metrics. Every op's output is checked:
against recorded references for seed 0, by structural properties for any
seed. Full results, the environment stamp and the spans of traced runs
are written under ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

PIN_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Before numpy loads: BLAS reads these once, when it starts its threads.
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("build", "cv", "cli")
SETUP_PROBES = 4

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_plspb():
    """Import plspb from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "plspb" / "__init__.py").is_file():
        raise SystemExit(f"error: no plspb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import plspb

    if Path(plspb.__file__).resolve().parent != (SRC / "plspb").resolve():
        raise SystemExit(f"error: imported plspb from {plspb.__file__}, not {SRC}")
    return plspb


# -- environment stamp -------------------------------------------------------


def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, ops: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    status = _git("status", "--porcelain")
    digest = hashlib.sha256()
    for path in sorted((SRC / "plspb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pin": {var: os.environ.get(var) for var in PIN_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "ops": ops,
    }


# -- measurement -------------------------------------------------------------


class Phase:
    """Latency, CPU time, machine speed and failures of a run of ops."""

    def __init__(self):
        self.latency_ms: list[float] = []  # as measured
        self.cpu_ms: list[float] = []
        self.factors: list[float] = []  # to the calibration's reference speed
        self.op_ids: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self, workload, i: int, timed: bool = True, tracer=None) -> None:
        ctx = workload.prepare(i)
        if tracer is not None:
            tracer.op = i
        before = speed.calibrate_ms()
        c0 = time.process_time()
        t0 = time.perf_counter_ns()
        try:
            output = workload.run(ctx)
            problems = None
        except Exception as exc:  # a failed op is counted, never retried
            problems = [f"op {i}: {type(exc).__name__}: {exc}"]
        t1 = time.perf_counter_ns()
        c1 = time.process_time()
        after = speed.calibrate_ms()
        if problems is None:
            try:
                problems = [f"op {i}: {p}" for p in workload.check(ctx, output)]
            except Exception as exc:
                problems = [f"op {i}: check raised {type(exc).__name__}: {exc}"]
        workload.cleanup(ctx)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        if timed:
            self.latency_ms.append((t1 - t0) / 1e6)
            self.cpu_ms.append(1000.0 * (c1 - c0))
            self.factors.append(speed.factor(before, after))
            self.op_ids.append(i)

    def merge(self, other: "Phase") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    def normalized_ms(self) -> list[float]:
        return [t * f for t, f in zip(self.latency_ms, self.factors)]

    def ops_per_s(self, normalized: bool = True) -> float:
        latency = self.normalized_ms() if normalized else self.latency_ms
        return 1000.0 * len(latency) / sum(latency)


def tail(latency_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest sample, and the percentile it sits at. With ten samples or
    fewer, the largest one at the 100th."""
    ordered = sorted(latency_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(phase: Phase, run: Phase, setup_s: float) -> tuple[dict, dict]:
    latency_ms = phase.normalized_ms()
    tail_ms, tail_pct = tail(latency_ms)
    n = len(latency_ms)
    values = {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(latency_ms),
        "op_ms_tail": tail_ms,
        "ops_per_s": phase.ops_per_s(),
        "cpu_ms_per_op": sum(c * f for c, f in zip(phase.cpu_ms, phase.factors)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (run.attempted - run.failed) / run.attempted,
    }
    info = {
        "tail_percentile": tail_pct,
        "samples": n,
        "fail_frac": run.failed / run.attempted,
        "raw_op_ms_p50": statistics.median(phase.latency_ms),
        "raw_ops_per_s": phase.ops_per_s(normalized=False),
        "speed_factor_p50": statistics.median(phase.factors),
        "latency_ms": phase.latency_ms,
        "speed_factors": phase.factors,
    }
    return values, info


def setup_factor() -> float:
    speed.calibrate_ms()  # the first unit in a process pays one-off costs
    return speed.REFERENCE_MS / statistics.median(speed.calibrate_ms() for _ in range(3))


def measure_setup(args, own_setup_s: float) -> tuple[float, list[float]]:
    """Median set-up time over this process and fresh probe processes,
    because importing is paid once per process."""
    samples = [own_setup_s]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def run_untraced(workload, args, setup_s, setup_samples, warmup: Phase):
    tracing.require_unwrapped()
    phase = Phase()
    deadline = time.perf_counter() + args.seconds
    i = 1
    while time.perf_counter() < deadline:
        phase.run_op(workload, i)
        i += 1
    tracing.require_unwrapped()
    run = Phase()
    run.merge(warmup)
    run.merge(phase)
    values, info = end_to_end(phase, run, setup_s)
    info["setup_samples_s"] = setup_samples
    return values, info, run


def run_cycles(phase: Phase, workload, i: int, budget_s: float, tracer=None) -> int:
    """Whole cycles of the input pool while the next one still fits in the
    budget (at least one), so every phase sees the same inputs."""
    import workloads

    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for _ in range(workloads.POOL):
            phase.run_op(workload, i, tracer=tracer)
            i += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) > budget_s:
            return i


def run_traced(workload, args, warmup: Phase):
    """Untraced cycles in the first half of the time, traced ones in the
    second; the per-layer metrics come from the traced cycles. Span times
    are scaled by the speed factor of their op, like the op times."""
    import workloads

    tracing.require_unwrapped()
    half = args.seconds / 2
    plain = Phase()
    i = run_cycles(plain, workload, workloads.POOL, half)

    setup_tracer = tracing.Tracer()
    with tracing.Installed(setup_tracer, warn=io.StringIO()):
        workload.setup(args.seed)

    tracer = tracing.Tracer()
    traced = Phase()
    mismatch_before = getattr(workload, "rerun_mismatch", 0)
    with tracing.Installed(tracer) as installed:
        run_cycles(traced, workload, i, half, tracer=tracer)
    tracing.require_unwrapped()
    ops = len(traced.latency_ms)
    mismatch = getattr(workload, "rerun_mismatch", 0) - mismatch_before
    factors = dict(zip(traced.op_ids, traced.factors))
    layers = tracing.per_layer_metrics(tracer, ops, factors, setup_tracer, mismatch)
    layers["trace.ops_per_s"] = traced.ops_per_s()
    layers["trace.untraced_ops_per_s"] = plain.ops_per_s()
    layers["trace.overhead"] = plain.ops_per_s() / traced.ops_per_s() - 1.0
    layers["trace.coverage"] = tracer.top_level_ns() / 1e6 / sum(traced.latency_ms)
    values = {name: layers[name] for name, _ in tracing.PER_LAYER}
    run = Phase()
    for phase in (warmup, plain, traced):
        run.merge(phase)
    info = {
        "traced_ops": ops,
        "untraced_ops": len(plain.latency_ms),
        "spans": len(tracer.spans),
        "missing_call_sites": [f"{w.module}.{w.attribute}" for w in installed.missing],
    }
    tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.json")
    return values, info, run


def _report(args, values: dict, units: dict, info: dict, run: Phase, env: dict) -> dict:
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  "
          f"ops {run.attempted}  failed {run.failed}")
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'fail_frac':<40} {info['fail_frac']:>14.6g} ratio")
        print(f"  op_ms_tail is p{info['tail_percentile']:.1f} of {info['samples']} samples")
    for problem in run.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace, info=info,
                  environment=env, problems=run.problems)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("env " + json.dumps(env, sort_keys=True))
    return result


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    _import_plspb()
    import workloads

    workload = workloads.make(args.workload, OUT)
    workload.setup(args.seed)
    own_setup_s = (time.perf_counter() - _T0) * setup_factor()
    if args.setup_probe:
        print(repr(own_setup_s))
        return 0
    if args.seed == workloads.REFERENCE_SEED:
        workload.load_reference()

    if args.trace:
        warmup = Phase()  # a whole cycle, so both phases compared see warm inputs
        for j in range(workloads.POOL):
            warmup.run_op(workload, j, timed=False)
        values, info, run = run_traced(workload, args, warmup)
        units = dict(tracing.PER_LAYER)
    else:
        setup_s, setup_samples = measure_setup(args, own_setup_s)
        warmup = Phase()
        warmup.run_op(workload, 0, timed=False)
        values, info, run = run_untraced(workload, args, setup_s, setup_samples, warmup)
        units = dict(END_TO_END)
    env = environment(args.seed, run.attempted)
    result = _report(args, values, units, info, run, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
