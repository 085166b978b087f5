"""Command line interface: simulate, fit, cv, recover, rerun.

Every command hands its parsed options, as a plain config dictionary, to a
runner. The runner computes everything first, then writes its outputs and a
manifest (that config, tool version, the sha256 of each file the command
wrote) in one call, so a command that fails writes nothing.
``rerun`` replays a manifest into a fresh directory and compares the
digests of the files the replay wrote, so any run can be checked for
bit-exact reproducibility.
"""

from __future__ import annotations

import argparse
import datetime
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, fileio
from .coda import _check_integer, default_part_names
from .errors import BalanceError
from .latent import pls_regression
from .modelsel import (
    METHODS,
    METRIC_ME,
    METRIC_RMSEP,
    PCA_PB,
    PLS_PB,
    aggregate_error_runs,
    cross_validate,
)
from .pb import pca_pb, pls_pb
from .simgen import CASES, SimScenario, marker_recovery, simulate_dataset, spawn_seeds

MANIFEST_NAME = "manifest.json"
_SHA256 = re.compile(r"[0-9a-f]{64}")
_PLAIN_NAME = re.compile(r"[^/\\\0]+")  # no path separator or NUL


def _write_outputs(command: str, config: dict, outputs: dict, extra: dict | None = None) -> dict:
    """Make the ``--out`` directory, write each of ``outputs``, {file name:
    (writer, *args)}, as ``writer(path, *args)`` and record the manifest
    next to them, listing the sha256 of exactly those files; return it.
    A runner calls this once, after it has computed everything, so a
    command that fails writes nothing."""
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": config,
        "tool_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {name: writer(out_dir / name, *args)
                    for name, (writer, *args) in outputs.items()},
        **(extra or {}),
    }
    fileio.write_json(out_dir / MANIFEST_NAME, manifest)
    return manifest


def _map_runs(run, tasks, jobs: int) -> list:
    """``run`` over every task, in a process pool when ``jobs`` > 1."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it slows every start-up
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, tasks))
    return [run(task) for task in tasks]


def _scenario_from_config(config: dict, seed: int | None = None) -> SimScenario:
    return SimScenario(
        case=config["case"],
        n=config["n"],
        D=config["d"],
        block_sizes=config["blocks"],
        seed=config["seed"] if seed is None else seed,
        noise_sd=config["noise_sd"],
    )


def _load_data(config: dict, require_response: bool = True):
    X, response = fileio.read_composition_csv(
        config["data"], response_col=config["response_col"]
    )
    if response is None and config["response_file"]:
        response = fileio.read_response_csv(config["response_file"])
    if response is None:
        if require_response:
            raise ValueError("need --response-col or --response-file")
        return X, None
    if response.shape[0] != X.n_samples:
        raise ValueError("response length does not match the data table")
    return X, response


# -- simulate ----------------------------------------------------------------


def run_simulate(config: dict) -> dict:
    scenario = _scenario_from_config(config)
    dataset = simulate_dataset(scenario)
    return _write_outputs(
        "simulate",
        config,
        {
            "X.csv": (fileio.write_composition_csv, dataset.X),
            "y.csv": (fileio.write_response_csv, dataset.y),
        },
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


# -- fit ---------------------------------------------------------------------


def run_fit(config: dict) -> dict:
    method = config["method"]
    X, y = _load_data(config, require_response=method != PCA_PB)
    if method in (PLS_PB, PCA_PB):
        if method == PLS_PB:
            basis, tree = pls_pb(X, y, return_tree=True)
        else:
            basis, tree = pca_pb(X, return_tree=True)
        outputs = {
            "coefficients.csv": (fileio.write_basis_csv, basis),
            "signs.csv": (fileio.write_sign_csv, basis),
            "tree.json": (fileio.write_json, tree.to_dict(X.part_names)),
        }
        summary = f"{basis.n_balances} balances"
    else:  # pls
        model = pls_regression(X, y, config["k"])
        # latent_coefficients are the scores' cross-products with y - ȳ
        covariances = np.abs(model.latent_coefficients) / (X.n_samples - 1)
        payload = {
            "kind": "PLS",
            "n_components": model.n_components,
            "latent_coefficients": [float(v) for v in model.latent_coefficients],
            "x_mean": [float(v) for v in model.x_mean],
            "y_mean": model.y_mean,
        }
        outputs = {
            "weights.csv": (fileio.write_matrix_csv, X.part_names, model.weights, covariances),
            "model.json": (fileio.write_json, payload),
        }
        summary = f"{model.n_components} components"
    manifest = _write_outputs("fit", config, outputs)
    print(f"{method}: {summary} over {X.n_parts} parts")
    return manifest


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
            seed=run_seed,
        )
        out[method] = result.mean_error
    return out


def run_cv(config: dict) -> dict:
    methods = list(METHODS) if config["all_methods"] else [config["method"]]
    jobs = _check_integer(config["jobs"], "jobs", 1)  # in every mode, pooled or not
    if config["binary"] and not config["data"]:
        raise ValueError("--binary needs --data: the simulator makes only continuous responses")
    metric = METRIC_ME if config["binary"] else METRIC_RMSEP
    results = {}
    if config["data"]:
        X, y = _load_data(config)
        for method in methods:
            results[method] = cross_validate(
                X,
                y,
                method,
                max_k=config["max_k"],
                folds=config["folds"],
                repeats=config["repeats"],
                seed=config["seed"],
                metric=metric,
            )
    else:
        # fresh-data mode: one new dataset per run, 1 repeat of k-fold each
        runs = _check_integer(config["runs"], "runs", 1)
        tasks = [(config, seed, methods) for seed in spawn_seeds(config["seed"], runs)]
        curves = _map_runs(_cv_fresh_run, tasks, jobs)
        for method in methods:
            errors = np.stack([curve[method] for curve in curves])
            results[method] = aggregate_error_runs(
                errors, metric, folds=config["folds"], repeats=runs
            )
    selected = {method: result.selected_k for method, result in results.items()}
    rows = [(method, *row) for method, result in results.items()
            for row in zip(result.component_counts, result.mean_error, result.sd_error)]
    manifest = _write_outputs("cv", config, {"cv.csv": (fileio.write_cv_csv, rows)},
                              extra={"selected_k": selected})
    for method in methods:
        print(f"{method}: selected k = {selected[method]} ({metric})")
    return manifest


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


def run_recover(config: dict) -> dict:
    methods = [PLS_PB, PCA_PB] if config["method"] == "all" else [config["method"]]
    runs = _check_integer(config["runs"], "runs", 1)
    tasks = [(config, seed, methods) for seed in spawn_seeds(config["seed"], runs)]
    results = _map_runs(_recover_run, tasks, _check_integer(config["jobs"], "jobs", 1))
    counts = {
        method: np.sum([res[method] for res in results], axis=0).astype(int)
        for method in methods
    }
    manifest = _write_outputs("recover", config, {
        "recovery.csv": (fileio.write_recovery_csv, default_part_names(config["d"]), counts, runs)
    })
    for method in methods:
        print(f"{method}: mean inclusions per run = {counts[method].sum() / runs:.1f}")
    return manifest


# -- rerun -------------------------------------------------------------------

# Each runner writes its outputs and returns the manifest it recorded.
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


def run_rerun(manifest_path: str, out: str, parser: argparse.ArgumentParser) -> bool:
    """Replay a recorded command into ``out`` and compare the digests of the
    files it writes with the recorded ones; ``parser`` is ``build_parser()``'s,
    whose options the recorded config must match."""
    manifest = fileio.read_json(manifest_path)
    if not (isinstance(manifest, dict) and {"command", "config", "outputs"} <= manifest.keys()):
        raise ValueError(f"{manifest_path}: a manifest needs command, config and outputs")
    if not isinstance(manifest["command"], str) or manifest["command"] not in _RUNNERS:
        raise ValueError(f"{manifest_path}: unknown command {manifest['command']!r}")
    if not isinstance(manifest["config"], dict):
        raise ValueError(f"{manifest_path}: config must be an object")
    if not isinstance(manifest["outputs"], dict):
        raise ValueError(f"{manifest_path}: outputs must be an object of file names and digests")
    if not manifest["outputs"]:
        raise ValueError(f"{manifest_path}: outputs lists no file, so a replay would check nothing")
    for name, digest in manifest["outputs"].items():
        if not _output_ok(name, digest):
            raise ValueError(
                f"{manifest_path}: outputs {name!r}: {digest!r} is not a plain file name "
                "with a sha256 hex digest"
            )
    config = dict(manifest["config"], out=out)
    commands = next(a for a in parser._actions if a.dest == "command")
    actions = [a for a in commands.choices[manifest["command"]]._actions if a.dest != "help"]
    for action in actions:
        if action.dest not in config:
            raise ValueError(f"{manifest_path}: config lacks {action.dest}")
    for action in actions:
        value = config[action.dest]
        if not _config_value_ok(action, value):
            raise ValueError(
                f"{manifest_path}: config {action.dest}={value!r} is not a valid "
                f"{action.option_strings[0]} value"
            )
    recorded = manifest.get("tool_version", "(unrecorded)")
    if recorded != __version__:
        print(f"note: manifest written by plspb {recorded}, replayed by {__version__}; "
              "written bytes may differ", file=sys.stderr)
    produced = _RUNNERS[manifest["command"]](config)["outputs"]
    ok = True
    for name, digest in manifest["outputs"].items():
        if name not in produced:
            status = "MISSING"
        else:
            status = "OK" if produced[name] == digest else "MISMATCH"
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
    p.add_argument(
        "--binary", action="store_true", help="0/1 --data response; scores misclassification error"
    )
    _add_scenario_flags(p)
    p.add_argument("--method", choices=METHODS, default=PLS_PB)
    p.add_argument(
        "--all-methods", action="store_true", help="run pls-pb, pca-pb and pls"
    )
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--repeats", type=int, default=1, help="fold reshuffles (--data mode)")
    p.add_argument("--runs", type=int, default=100, help="fresh datasets (scenario mode)")
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


def _config_value_ok(action: argparse.Action, value) -> bool:
    """Whether the option ``action`` could have recorded ``value``: None when
    it is optional without a default, a flag's bool, or else a value that is
    no bool, lies in its choices, and that its own ``type`` (an untyped
    option: the text itself) rebuilds from its command-line text, the
    comma-joined list for ``--blocks``."""
    if value is None:
        return action.default is None and not action.required
    if action.nargs == 0:  # a store_true flag
        return isinstance(value, bool)
    if isinstance(value, bool) or (action.choices is not None and value not in action.choices):
        return False
    try:
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        return (action.type or str)(text) == value
    except ValueError:
        return False


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            return 0 if run_rerun(args.manifest, args.out, parser) else 1
        _RUNNERS[args.command]({k: v for k, v in vars(args).items() if k != "command"})
        return 0
    except (BalanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
