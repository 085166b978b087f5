"""Command line interface: simulate, fit, cv, recover, rerun.

Every command resolves its parameters into a plain config dictionary,
executes a pure runner on it and records a manifest (config, seed, tool
version, output hashes) next to the outputs. ``rerun`` replays a manifest
into a fresh directory and verifies the hashes, so any run can be checked
for bit-exact reproducibility.
"""

from __future__ import annotations

import argparse
import datetime
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, fileio
from .coda import default_part_names
from .errors import BalanceError, NonBinary
from .latent import pls_regression
from .modelsel import (
    METHODS,
    METRIC_ME,
    METRIC_RMSEP,
    PCA_PB,
    PLS_PB,
    PLS_RAW,
    aggregate_error_runs,
    cross_validate,
)
from .pb import pca_pb, pls_pb
from .simgen import CASES, SimScenario, marker_recovery, simulate_dataset, spawn_seeds

MANIFEST_NAME = "manifest.json"
_SHA256 = re.compile(r"[0-9a-f]{64}")
_PLAIN_NAME = re.compile(r"[^/\\\0]+")  # no path separator or NUL


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(out_dir: Path, command: str, config: dict, extra: dict | None = None):
    outputs = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == MANIFEST_NAME or path.is_dir():
            continue
        outputs[path.name] = fileio.sha256_file(path)
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "tool_version": __version__,
        "created_utc": _utc_now(),
        "outputs": outputs,
    }
    if extra:
        manifest.update(extra)
    fileio.write_json(out_dir / MANIFEST_NAME, manifest)
    return manifest


def _map_runs(run, tasks, jobs: int) -> list:
    """``run`` over every task, in a process pool when ``jobs`` > 1;
    ``jobs`` must be at least 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, tasks))
    return [run(task) for task in tasks]


def _prepare_out(config: dict) -> Path:
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _run_seeds(config: dict) -> list[int]:
    """One seed per run of a simulation study; ``runs`` must be at least 1."""
    if config["runs"] < 1:
        raise ValueError(f"runs must be at least 1, got {config['runs']}")
    return spawn_seeds(config["seed"], config["runs"])


def _scenario_from_config(config: dict, seed: int | None = None) -> SimScenario:
    return SimScenario(
        case=config["case"],
        n=config["n"],
        D=config["d"],
        block_sizes=tuple(config["blocks"]) if config.get("blocks") else None,
        seed=config["seed"] if seed is None else seed,
        noise_sd=config.get("noise_sd", 1.0),
    )


def _load_data(config: dict, require_response: bool = True):
    X, response = fileio.read_composition_csv(
        config["data"], response_col=config.get("response_col")
    )
    if response is None and config.get("response_file"):
        response = fileio.read_response_csv(config["response_file"])
    if response is None:
        if require_response:
            raise ValueError("need --response-col or --response-file")
        return X, None
    if response.shape[0] != X.n_samples:
        raise ValueError("response length does not match the data table")
    if config.get("binary") and not np.all(np.isin(response, (0.0, 1.0))):
        raise NonBinary("--binary needs a 0/1-coded response")
    return X, response


# -- simulate ----------------------------------------------------------------


def run_simulate(config: dict) -> Path:
    out_dir = _prepare_out(config)
    scenario = _scenario_from_config(config)
    dataset = simulate_dataset(scenario)
    fileio.write_composition_csv(out_dir / "X.csv", dataset.X)
    fileio.write_response_csv(out_dir / "y.csv", dataset.y)
    _write_manifest(
        out_dir,
        "simulate",
        config,
        extra={
            "dataset": {
                "case": scenario.case,
                "n": scenario.n,
                "d": scenario.D,
                "block_sizes": list(scenario.block_sizes),
                "noise_sd": scenario.noise_sd,
                "beta": [float(b) for b in dataset.beta],
                "marker_mask": [bool(m) for m in dataset.marker_mask],
            }
        },
    )
    return out_dir


# -- fit ---------------------------------------------------------------------


def run_fit(config: dict) -> Path:
    out_dir = _prepare_out(config)
    method = config["method"]
    X, y = _load_data(config, require_response=method != PCA_PB)
    if method in (PLS_PB, PCA_PB):
        if method == PLS_PB:
            basis, tree = pls_pb(X, y, return_tree=True)
        else:
            basis, tree = pca_pb(X, return_tree=True)
        fileio.write_basis_csv(out_dir / "coefficients.csv", basis)
        fileio.write_sign_csv(out_dir / "signs.csv", basis)
        fileio.write_json(out_dir / "tree.json", tree.to_dict(X.part_names))
        print(f"{method}: {basis.n_balances} balances over {X.n_parts} parts")
    elif method == PLS_RAW:
        model = pls_regression(X, y, config.get("k"))
        # latent_coefficients are the scores' cross-products with y - ȳ
        covariances = np.abs(model.latent_coefficients) / (X.n_samples - 1)
        fileio.write_matrix_csv(out_dir / "weights.csv", X.part_names, model.weights, covariances)
        fileio.write_json(
            out_dir / "model.json",
            {
                "kind": "PLS",
                "n_components": model.n_components,
                "latent_coefficients": [float(v) for v in model.latent_coefficients],
                "x_mean": [float(v) for v in model.x_mean],
                "y_mean": model.y_mean,
            },
        )
        print(f"pls: {model.n_components} components over {X.n_parts} parts")
    else:
        raise ValueError(f"unknown method {method!r}")
    _write_manifest(out_dir, "fit", config)
    return out_dir


# -- cv ----------------------------------------------------------------------


def _cv_fresh_run(args):
    """One simulation run of the fresh-data mode (top level for pickling)."""
    config, run_seed, methods = args
    scenario = _scenario_from_config(config, seed=run_seed)
    dataset = simulate_dataset(scenario)
    out = {}
    for method in methods:
        result = cross_validate(
            dataset.X,
            dataset.y,
            method,
            max_k=config["max_k"],
            folds=config["folds"],
            repeats=1,
            seed=run_seed,
            metric=config["metric"],
        )
        out[method] = result.mean_error
    return out


def run_cv(config: dict) -> Path:
    out_dir = _prepare_out(config)
    methods = list(METHODS) if config.get("all_methods") else [config["method"]]
    metric = config["metric"]
    rows = []
    selected = {}
    if config.get("data"):
        X, y = _load_data(config)
        for method in methods:
            result = cross_validate(
                X,
                y,
                method,
                max_k=config["max_k"],
                folds=config["folds"],
                repeats=config["repeats"],
                seed=config["seed"],
                metric=metric,
            )
            selected[method] = result.selected_k
            for i, k in enumerate(result.component_counts):
                rows.append((method, k, result.mean_error[i], result.sd_error[i]))
    else:
        # fresh-data mode: one new dataset per run, 1 repeat of k-fold each
        runs = config["runs"]
        tasks = [(config, seed, methods) for seed in _run_seeds(config)]
        results = _map_runs(_cv_fresh_run, tasks, config.get("jobs", 1))
        for method in methods:
            errors = np.stack([res[method] for res in results])
            summary = aggregate_error_runs(
                errors, metric, folds=config["folds"], repeats=runs
            )
            selected[method] = summary.selected_k
            for i, k in enumerate(summary.component_counts):
                rows.append((method, k, summary.mean_error[i], summary.sd_error[i]))
    fileio.write_cv_csv(out_dir / "cv.csv", rows)
    for method in methods:
        print(f"{method}: selected k = {selected[method]} ({metric})")
    _write_manifest(out_dir, "cv", config, extra={"selected_k": selected})
    return out_dir


# -- recover -----------------------------------------------------------------


def _recover_run(args):
    """First-balance inclusion flags for one fresh dataset."""
    config, run_seed, methods = args
    scenario = _scenario_from_config(config, seed=run_seed)
    dataset = simulate_dataset(scenario)
    out = {}
    for method in methods:
        basis = (
            pls_pb(dataset.X, dataset.y, max_k=1)
            if method == PLS_PB
            else pca_pb(dataset.X, max_k=1)
        )
        out[method] = marker_recovery(basis, dataset.marker_mask).included
    return out


def run_recover(config: dict) -> Path:
    out_dir = _prepare_out(config)
    methods = [PLS_PB, PCA_PB] if config["method"] == "all" else [config["method"]]
    runs = config["runs"]
    tasks = [(config, seed, methods) for seed in _run_seeds(config)]
    results = _map_runs(_recover_run, tasks, config.get("jobs", 1))
    counts = {
        method: np.sum([res[method] for res in results], axis=0).astype(int)
        for method in methods
    }
    fileio.write_recovery_csv(
        out_dir / "recovery.csv", default_part_names(config["d"]), counts, runs
    )
    for method in methods:
        print(f"{method}: mean inclusions per run = {counts[method].sum() / runs:.1f}")
    _write_manifest(out_dir, "recover", config)
    return out_dir


# -- rerun -------------------------------------------------------------------

_RUNNERS = {
    "simulate": run_simulate,
    "fit": run_fit,
    "cv": run_cv,
    "recover": run_recover,
}


def _output_ok(name, digest) -> bool:
    """Whether a manifest's outputs entry names a file of the replay
    directory itself, other than the manifest, by its sha256 hex digest."""
    return (
        isinstance(digest, str)
        and _SHA256.fullmatch(digest) is not None
        and _PLAIN_NAME.fullmatch(name) is not None
        and name not in (".", "..", MANIFEST_NAME)
    )


def run_rerun(manifest_path: str, out: str) -> bool:
    """Replay a recorded command into ``out`` and compare output hashes."""
    manifest = fileio.read_json(manifest_path)
    if not (isinstance(manifest, dict) and {"command", "config", "outputs"} <= manifest.keys()):
        raise ValueError(f"{manifest_path}: a manifest needs command, config and outputs")
    if not isinstance(manifest["command"], str) or manifest["command"] not in _RUNNERS:
        raise ValueError(f"{manifest_path}: unknown command {manifest['command']!r}")
    if not isinstance(manifest["config"], dict):
        raise ValueError(f"{manifest_path}: config must be an object")
    if not isinstance(manifest["outputs"], dict):
        raise ValueError(f"{manifest_path}: outputs must be an object of file names and digests")
    for name, digest in manifest["outputs"].items():
        if not _output_ok(name, digest):
            raise ValueError(
                f"{manifest_path}: outputs {name!r}: {digest!r} is not a plain file name "
                "with a sha256 hex digest"
            )
    config = dict(manifest["config"], out=out)
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    options = [a for a in commands.choices[manifest["command"]]._actions if a.dest != "help"]
    missing = sorted({a.dest for a in options} - config.keys())
    if missing:
        raise ValueError(f"{manifest_path}: config lacks {', '.join(missing)}")
    for action in options:
        value = config.get(action.dest)
        if action.dest != "out" and not _config_value_ok(action, value):
            raise ValueError(
                f"{manifest_path}: config {action.dest}={value!r} is not a valid "
                f"{action.option_strings[0]} value"
            )
    out_dir = _RUNNERS[manifest["command"]](config)
    ok = True
    for name, digest in manifest["outputs"].items():
        produced = out_dir / name
        if not produced.exists():
            status = "MISSING"
        else:
            status = "OK" if fileio.sha256_file(produced) == digest else "MISMATCH"
        ok = ok and status == "OK"
        print(f"{status} {name}")
    return ok


# -- argument parsing --------------------------------------------------------


def _block_sizes(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _add_scenario_flags(parser):
    parser.add_argument("--case", choices=CASES, default="one-block")
    parser.add_argument("--n", type=int, default=250, help="sample count")
    parser.add_argument("--d", type=int, default=100, help="part count")
    parser.add_argument(
        "--blocks",
        type=_block_sizes,
        default=None,
        help="comma-separated marker block sizes (default: case layout)",
    )
    parser.add_argument("--noise-sd", type=float, default=1.0)


def _add_data_flags(parser):
    parser.add_argument("--data", help="samples-by-parts CSV with a header row")
    parser.add_argument(
        "--response-col", help="name of the response column inside --data"
    )
    parser.add_argument(
        "--response-file", help="single-column response CSV (header + values)"
    )
    parser.add_argument(
        "--binary", action="store_true", help="treat the response as 0/1 labels"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plspb",
        description="Principal balances for compositional regression and classification",
    )
    parser.add_argument("--version", action="version", version=f"plspb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_scenario_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit a balance basis or a PLS model")
    _add_data_flags(p)
    p.add_argument("--method", choices=METHODS, default=PLS_PB)
    p.add_argument(
        "--k", type=int, default=None,
        help="components for --method pls (default: up to the rank boundary)",
    )
    p.add_argument("--out", required=True)

    p = sub.add_parser("cv", help="cross-validated model size selection")
    _add_data_flags(p)
    _add_scenario_flags(p)
    p.add_argument("--method", choices=METHODS, default=PLS_PB)
    p.add_argument(
        "--all-methods", action="store_true", help="run pls-pb, pca-pb and pls"
    )
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--repeats", type=int, default=1, help="fold reshuffles (--data mode)")
    p.add_argument("--runs", type=int, default=100, help="fresh datasets (scenario mode)")
    p.add_argument("--metric", choices=(METRIC_RMSEP, METRIC_ME), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("recover", help="marker inclusion counts over fresh datasets")
    _add_scenario_flags(p)
    p.add_argument("--method", choices=(PLS_PB, PCA_PB, "all"), default="all")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rerun", help="replay a manifest and verify output hashes")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    return parser


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What each option type parses to, as a test on a config value read back
# from JSON; an option without a type holds a string.
_TYPE_CHECKS = {
    int: _is_int,
    float: lambda v: _is_int(v) or isinstance(v, float),
    _block_sizes: lambda v: isinstance(v, list) and all(_is_int(x) for x in v),
    None: lambda v: isinstance(v, str),
}


def _config_value_ok(action: argparse.Action, value) -> bool:
    """Whether the option ``action`` could have given ``value``: None when
    it is optional without a default, one of its choices, a flag's bool, or
    a value of its type."""
    if value is None:
        return action.default is None and not action.required
    if action.choices is not None:
        return value in action.choices
    if action.nargs == 0:  # a store_true flag
        return isinstance(value, bool)
    return _TYPE_CHECKS[action.type](value)


def _config_from_args(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "command"}
    if args.command == "cv":
        if config.get("metric") is None:
            config["metric"] = METRIC_ME if config.get("binary") else METRIC_RMSEP
        if config["metric"] == METRIC_ME:
            config["binary"] = True
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            return 0 if run_rerun(args.manifest, args.out) else 1
        config = _config_from_args(args)
        _RUNNERS[args.command](config)
        return 0
    except (BalanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
