"""End-to-end tests of the command line surface."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plspb import CompositionMatrix, __version__, cli, fit_on_balances, pca_pb, pls_pb
from plspb.cli import main
from plspb.fileio import (
    read_composition_csv,
    read_response_csv,
    write_composition_csv,
    write_response_csv,
)
from plspb.modelsel import PCA_PB, PLS_PB

from conftest import cv_oracle, random_instance, sha256_file


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_reproducible_and_shaped(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--case", "one-block", "--seed", 7, "--out", out1) == 0
        assert run_cli("simulate", "--case", "one-block", "--seed", 7, "--out", out2) == 0
        assert (out1 / "X.csv").read_bytes() == (out2 / "X.csv").read_bytes()
        assert (out1 / "y.csv").read_bytes() == (out2 / "y.csv").read_bytes()
        rows = read_rows(out1 / "X.csv")
        assert len(rows) == 251 and len(rows[0]) == 100

    def test_different_blocks_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "--case", "different-blocks", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset"]["block_sizes"] == [30, 10, 30, 10]
        assert sum(manifest["dataset"]["marker_mask"]) == 80

    @pytest.mark.parametrize("noise_sd", ["nan", "inf", "-inf"])
    def test_non_finite_noise_sd_rejected(self, tmp_path, capsys, noise_sd):
        out = tmp_path / "sim"
        argv = ("simulate", "--n", 20, "--d", 8, "--blocks", "4", f"--noise-sd={noise_sd}")
        assert run_cli(*argv, "--out", out) == 2
        assert capsys.readouterr().err == "error: noise_sd must be finite and nonnegative\n"
        assert not out.exists()  # rejected before anything was written

    def test_round_trips_through_readers(self, tmp_path):
        out = tmp_path / "run"
        run_cli("simulate", "--n", 20, "--d", 8, "--blocks", "4", "--out", out)
        X, none = read_composition_csv(out / "X.csv")
        assert none is None
        assert X.values.shape == (20, 8)
        y = read_response_csv(out / "y.csv")
        assert y.shape == (20,)


class TestFit:
    def test_two_part_toy(self, tmp_path):
        data = tmp_path / "toy.csv"
        data.write_text("a,b,y\n1.0,3.0,0.1\n2.0,1.0,0.9\n4.0,1.0,1.7\n8.0,1.0,2.2\n")
        out = tmp_path / "fit"
        code = run_cli(
            "fit", "--data", data, "--response-col", "y", "--method", "pls-pb",
            "--out", out,
        )
        assert code == 0
        rows = read_rows(out / "coefficients.csv")
        values = sorted(float(r[1]) for r in rows[1:])
        assert values == pytest.approx([-1 / np.sqrt(2), 1 / np.sqrt(2)], abs=1e-12)

    def test_bases_span_same_space(self, tmp_path, rng):
        X, y = random_instance(rng, 15, 6)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        write_composition_csv(data_dir / "X.csv", X)
        write_response_csv(data_dir / "y.csv", y)
        for method in (PLS_PB, PCA_PB):
            assert run_cli(
                "fit", "--data", data_dir / "X.csv", "--response-file",
                data_dir / "y.csv", "--method", method, "--out", tmp_path / method,
            ) == 0
        bases = []
        for method in (PLS_PB, PCA_PB):
            rows = read_rows(tmp_path / method / "coefficients.csv")
            bases.append(np.array([[float(v) for v in row[1:]] for row in rows[1:]]))
        projectors = [b @ b.T for b in bases]
        assert np.max(np.abs(projectors[0] - projectors[1])) < 1e-8

    def test_tree_written(self, tmp_path, rng):
        X, y = random_instance(rng, 12, 5)
        write_composition_csv(tmp_path / "X.csv", X)
        write_response_csv(tmp_path / "y.csv", y)
        out = tmp_path / "fit"
        run_cli(
            "fit", "--data", tmp_path / "X.csv", "--response-file",
            tmp_path / "y.csv", "--out", out,
        )
        tree = json.loads((out / "tree.json").read_text())
        assert set(tree["parts"]) == set(X.part_names)
        assert "balance" in tree

    def test_pls_method_writes_model(self, tmp_path, rng):
        X, y = random_instance(rng, 14, 6)
        write_composition_csv(tmp_path / "X.csv", X)
        write_response_csv(tmp_path / "y.csv", y)
        out = tmp_path / "pls"
        assert run_cli(
            "fit", "--data", tmp_path / "X.csv", "--response-file",
            tmp_path / "y.csv", "--method", "pls", "--k", 3, "--out", out,
        ) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["n_components"] == 3
        rows = read_rows(out / "weights.csv")
        assert len(rows) == 7 and len(rows[0]) == 4

    def test_pls_method_default_k_at_paper_scale(self, tmp_path):
        # the fit reaches least squares near component 40 of 250 x 100 data;
        # without --k it stops there instead of failing at the rank boundary
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--case", "one-block", "--seed", 0, "--out", sim) == 0
        out = tmp_path / "pls"
        assert run_cli(
            "fit", "--data", sim / "X.csv", "--response-file", sim / "y.csv",
            "--method", "pls", "--out", out,
        ) == 0
        model = json.loads((out / "model.json").read_text())
        assert 1 <= model["n_components"] < 99
        assert len(read_rows(out / "weights.csv")[0]) == 1 + model["n_components"]

    def test_missing_response_errors(self, tmp_path, rng):
        X, _ = random_instance(rng, 10, 4)
        write_composition_csv(tmp_path / "X.csv", X)
        code = run_cli(
            "fit", "--data", tmp_path / "X.csv", "--out", tmp_path / "fit"
        )
        assert code == 2

    def test_non_finite_response_errors(self, tmp_path, rng, capsys):
        X, y = random_instance(rng, 10, 4)
        y[3] = np.nan
        write_composition_csv(tmp_path / "X.csv", X)
        write_response_csv(tmp_path / "y.csv", y)
        code = run_cli(
            "fit", "--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv",
            "--method", "pls-pb", "--out", tmp_path / "fit",
        )
        assert code == 2
        assert "response values must be finite" in capsys.readouterr().err

    def test_pca_pb_without_response(self, tmp_path, rng):
        X, _ = random_instance(rng, 10, 4)
        write_composition_csv(tmp_path / "X.csv", X)
        out = tmp_path / "fit"
        assert run_cli(
            "fit", "--data", tmp_path / "X.csv", "--method", "pca-pb", "--out", out
        ) == 0
        assert (out / "coefficients.csv").exists()

    def test_names_needing_quotes(self, tmp_path, rng):
        # metabolite names such as 2,3-butanediol need CSV quoting; every
        # table keeps its rows as wide as its header and reruns OK
        X, y = random_instance(rng, 30, 5)
        names = ("2,3-butanediol", 'say "hi"', "line\nbreak", "cr\rname", "plain")
        write_composition_csv(tmp_path / "X.csv", CompositionMatrix(X.values, names))
        write_response_csv(tmp_path / "y.csv", y, name="y,1")
        inputs = ("--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv")
        for method in ("pls-pb", "pca-pb", "pls"):
            out = tmp_path / method
            assert run_cli("fit", *inputs, "--method", method, "--out", out) == 0
            tables = [name for name in json.loads((out / "manifest.json").read_text())["outputs"]
                      if name.endswith(".csv")]
            assert tables
            for table in tables:
                header, *rows = read_rows(out / table)
                assert all(len(row) == len(header) for row in rows)
                assert [row[0] for row in rows] == list(names)
            assert run_cli("rerun", "--manifest", out / "manifest.json",
                           "--out", tmp_path / f"{method}-replay") == 0

    def test_zero_entry_errors(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("a,b,c\n1.0,0.0,2.0\n1.0,1.0,1.0\n")
        code = run_cli(
            "fit", "--data", data, "--response-file", "missing.csv",
            "--out", tmp_path / "fit",
        )
        assert code == 2


class TestCv:
    def test_golden_loo_curve(self, tmp_path, rng):
        # 12-sample fixture cross-checked against the brute-force oracle
        X, y = random_instance(rng, 12, 5)
        write_composition_csv(tmp_path / "X.csv", X)
        write_response_csv(tmp_path / "y.csv", y)
        out = tmp_path / "cv"
        assert run_cli(
            "cv", "--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv",
            "--method", "pls-pb", "--max-k", 3, "--folds", 12, "--repeats", 1,
            "--seed", 0, "--out", out,
        ) == 0
        rows = read_rows(out / "cv.csv")
        assert rows[0] == ["method", "k", "mean_error", "sd_error"]
        got = np.array([float(r[2]) for r in rows[1:]])
        expected = cv_oracle(X, y, PLS_PB, 3, folds=12, seed=0)
        assert np.max(np.abs(got - expected)) < 1e-10
        assert all(float(r[3]) == 0.0 for r in rows[1:])

    def test_me_metric_bounded(self, tmp_path, rng):
        n = 20
        labels = np.array([0.0, 1.0] * (n // 2))
        a = np.array([1.0, -1.0, 0.4, -0.4, 0.0])
        a -= a.mean()
        logs = 1.5 * labels[:, None] * a[None, :] + 0.2 * rng.standard_normal((n, 5))
        from plspb import CompositionMatrix

        X = CompositionMatrix(np.exp(logs))
        write_composition_csv(tmp_path / "X.csv", X)
        write_response_csv(tmp_path / "y.csv", labels)
        out = tmp_path / "cv"
        assert run_cli(
            "cv", "--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv",
            "--binary", "--method", "pls-pb", "--max-k", 3, "--folds", 4,
            "--out", out,
        ) == 0
        rows = read_rows(out / "cv.csv")
        errors = [float(r[2]) for r in rows[1:]]
        assert all(0.0 <= e <= 1.0 for e in errors)

    def test_metric_option_is_gone(self, tmp_path, capsys):
        # --binary is cv's one classification switch
        with pytest.raises(SystemExit) as exc:
            run_cli("cv", "--max-k", 2, "--metric", "me", "--out", tmp_path / "cv")
        assert exc.value.code == 2
        assert "unrecognized arguments: --metric me" in capsys.readouterr().err
        assert not (tmp_path / "cv").exists()

    def test_fit_has_no_binary_option(self, tmp_path, capsys):
        # --binary belongs to cv, where it picks the metric
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", "--data", tmp_path / "X.csv", "--binary", "--out", tmp_path / "fit")
        assert exc.value.code == 2
        assert "unrecognized arguments: --binary" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_fresh_mode_parallel_matches_serial(self, tmp_path):
        args = [
            "cv", "--case", "one-block", "--n", 24, "--d", 8, "--blocks", "4",
            "--runs", 3, "--max-k", 2, "--folds", 4, "--seed", 11,
        ]
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        assert run_cli(*args, "--jobs", 1, "--out", out1) == 0
        assert run_cli(*args, "--jobs", 2, "--out", out2) == 0
        assert (out1 / "cv.csv").read_bytes() == (out2 / "cv.csv").read_bytes()

    def test_multi_block_ordering_small_k(self, tmp_path):
        # fresh-data mode, same-blocks layout: the supervised basis beats the
        # unsupervised one at every small model size
        out = tmp_path / "cv"
        assert run_cli(
            "cv", "--case", "same-blocks", "--runs", 4, "--max-k", 3,
            "--folds", 5, "--all-methods", "--seed", 600, "--jobs", 2,
            "--out", out,
        ) == 0
        rows = read_rows(out / "cv.csv")
        curve = {
            (r[0], int(r[1])): float(r[2]) for r in rows[1:]
        }
        for k in (1, 2, 3):
            assert curve[("pls-pb", k)] < curve[("pca-pb", k)]

    def test_all_methods_table(self, tmp_path, rng):
        X, y = random_instance(rng, 16, 5)
        write_composition_csv(tmp_path / "X.csv", X)
        write_response_csv(tmp_path / "y.csv", y)
        out = tmp_path / "cv"
        assert run_cli(
            "cv", "--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv",
            "--all-methods", "--max-k", 3, "--folds", 4, "--out", out,
        ) == 0
        rows = read_rows(out / "cv.csv")
        methods = {r[0] for r in rows[1:]}
        assert methods == {"pls-pb", "pca-pb", "pls"}
        assert len(rows) == 1 + 3 * 3


class TestRecover:
    def test_counts_bounded_by_runs(self, tmp_path):
        out = tmp_path / "rec"
        assert run_cli(
            "recover", "--case", "one-block", "--n", 24, "--d", 10, "--blocks", "4",
            "--runs", 1, "--seed", 4, "--out", out,
        ) == 0
        rows = read_rows(out / "recovery.csv")
        assert rows[0] == ["part", "method", "inclusion_count", "runs"]
        counts = [int(r[2]) for r in rows[1:]]
        assert set(counts) <= {0, 1}
        assert {r[1] for r in rows[1:]} == {"pls-pb", "pca-pb"}

    def test_multi_run_counts(self, tmp_path):
        out = tmp_path / "rec"
        assert run_cli(
            "recover", "--case", "one-block", "--n", 20, "--d", 8, "--blocks", "4",
            "--runs", 3, "--method", "pls-pb", "--seed", 4, "--out", out,
        ) == 0
        rows = read_rows(out / "recovery.csv")
        assert all(0 <= int(r[2]) <= 3 for r in rows[1:])
        assert all(r[3] == "3" for r in rows[1:])

    def test_majority_of_runs_hit_most_markers(self, tmp_path):
        # at benchmark scale the top balance should cover at least 15 of the
        # 20 marker parts in a majority of 20 seeded runs
        out = tmp_path / "rec"
        assert run_cli(
            "recover", "--case", "one-block", "--runs", 20, "--method", "pls-pb",
            "--seed", 31, "--out", out,
        ) == 0
        rows = read_rows(out / "recovery.csv")
        counts = np.array([int(r[2]) for r in rows[1:]])

        from plspb import SimScenario, marker_recovery, simulate_dataset
        from plspb.simgen import spawn_seeds

        per_run = []
        tally = np.zeros(100, dtype=int)
        for seed in spawn_seeds(31, 20):
            ds = simulate_dataset(SimScenario("one-block", seed=seed))
            rec = marker_recovery(pls_pb(ds.X, ds.y), ds.marker_mask)
            per_run.append(int(rec.included[:20].sum()))
            tally += rec.included.astype(int)
        assert np.array_equal(counts, tally)
        assert sum(hits >= 15 for hits in per_run) > 10

    def test_recovery_matches_library(self, tmp_path):
        # single run duplicates a direct library computation
        out = tmp_path / "rec"
        run_cli(
            "recover", "--case", "one-block", "--n", 30, "--d", 12, "--blocks", "6",
            "--runs", 1, "--method", "pls-pb", "--seed", 9, "--out", out,
        )
        from plspb import SimScenario, marker_recovery, simulate_dataset
        from plspb.simgen import spawn_seeds

        seed = spawn_seeds(9, 1)[0]
        ds = simulate_dataset(SimScenario("one-block", n=30, D=12, block_sizes=(6,), seed=seed))
        rec = marker_recovery(pls_pb(ds.X, ds.y), ds.marker_mask)
        rows = read_rows(out / "recovery.csv")
        got = np.array([int(r[2]) for r in rows[1:]], dtype=bool)
        assert np.array_equal(got, rec.included)


_INTS = st.integers(-10**6, 10**6)

# Command-line texts for each option type of the parser, blanks and signs
# included where the type accepts them
OPTION_TEXT = {
    int: st.one_of(_INTS.map(str), _INTS.map(lambda i: f" {i:+05d} ")),
    float: st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     _INTS.map(str), st.sampled_from(["1e3", " .5 ", "-0", "1_0.5"])),
    cli._block_sizes: st.lists(_INTS.map(str), min_size=1, max_size=5).map(", ".join),
    None: st.text(),
}


def _write_labelled_table(tmp_path):
    """X.csv of 20 samples over 5 parts, and y.csv of their 0/1 labels."""
    labels = np.array([0.0, 1.0] * 10)
    X = CompositionMatrix(np.exp(labels[:, None] * [1.0, -1.0, 0.4, -0.4, 0.0]
                                 + 0.5 * np.random.default_rng(3).standard_normal((20, 5))))
    write_composition_csv(tmp_path / "X.csv", X)
    write_response_csv(tmp_path / "y.csv", labels)


class TestRerun:
    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--case", "same-blocks", "--n", "20", "--d", "90", "--seed", "5"),
            ("recover", "--case", "one-block", "--n", "20", "--d", "8", "--blocks", "4", "--runs", "2", "--seed", "1"),
        ],
    )
    def test_rerun_reproduces_outputs(self, tmp_path, argv):
        out = tmp_path / "orig"
        assert run_cli(*argv, "--out", out) == 0
        replay = tmp_path / "replay"
        assert run_cli("rerun", "--manifest", out / "manifest.json", "--out", replay) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert sha256_file(replay / name) == digest

    @pytest.mark.parametrize("command, extra", [("cv", ("--max-k", 2)), ("recover", ())])
    def test_zero_runs_rejected(self, tmp_path, capsys, command, extra):
        argv = (command, "--n", 20, "--d", 8, "--blocks", "4", "--seed", 1, *extra)
        assert run_cli(*argv, "--runs", 0, "--out", tmp_path / "direct") == 2
        assert capsys.readouterr().err.startswith("error: runs must be at least 1")
        # the same config replayed from a manifest
        out = tmp_path / "orig"
        assert run_cli(*argv, "--runs", 1, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["runs"] = 0
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("rerun", "--manifest", out / "manifest.json", "--out", tmp_path / "r") == 2
        assert capsys.readouterr().err.startswith("error: runs must be at least 1")

    @pytest.mark.parametrize("command, extra", [("cv", ("--max-k", 2)), ("recover", ()),
                                                pytest.param("cv", ("--max-k", 2, "--data"),
                                                             id="cv-data")])
    def test_zero_jobs_rejected(self, tmp_path, capsys, command, extra):
        argv = (command, "--n", 20, "--d", 8, "--blocks", "4", "--runs", 1, "--seed", 1, *extra)
        if "--data" in extra:  # a table, which --data mode reads without a pool
            assert run_cli("simulate", *argv[1:7], "--out", tmp_path / "sim") == 0
            argv += (tmp_path / "sim" / "X.csv", "--response-file", tmp_path / "sim" / "y.csv")
        assert run_cli(*argv, "--jobs", 0, "--out", tmp_path / "direct") == 2
        assert capsys.readouterr().err.startswith("error: jobs must be at least 1")
        assert not (tmp_path / "direct").exists()
        out = tmp_path / "orig"
        assert run_cli(*argv, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["jobs"] = 0
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("rerun", "--manifest", out / "manifest.json", "--out", tmp_path / "r") == 2
        assert capsys.readouterr().err.startswith("error: jobs must be at least 1")

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("recover", "runs", "4"),
            ("recover", "n", 2.5),
            ("recover", "seed", True),
            ("recover", "case", "bogus"),
            ("recover", "blocks", "4"),
            ("recover", "noise_sd", "1.0"),
            ("cv", "binary", "yes"),
            ("cv", "max_k", None),
            ("cv", "data", 5),
            ("recover", "blocks", []),
            ("recover", "noise_sd", float("nan")),
            ("recover", "n", 4.0),
        ],
    )
    def test_config_value_types_checked(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "orig"
        extra = ("--max-k", 2) if command == "cv" else ()
        argv = (command, "--n", 20, "--d", 8, "--blocks", "4", "--runs", 1, *extra)
        assert run_cli(*argv, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"][key] = value
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("rerun", "--manifest", out / "manifest.json", "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"config {key}={value!r} is not a valid" in err
        assert not (tmp_path / "r").exists()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_recorded_configs_pass_the_check(self, data):
        # main records the parsed options of any argv the parser accepts as
        # they are, and rerun's check hands that config on to the runner
        parser = cli.build_parser()
        command = data.draw(st.sampled_from(["simulate", "fit", "cv", "recover"]))
        commands = next(a for a in parser._actions if a.dest == "command")
        argv = [command]
        for action in commands.choices[command]._actions:
            if action.dest in ("help", "out") or not (action.required or data.draw(st.booleans())):
                continue
            flag = action.option_strings[0]
            if action.nargs == 0:
                argv.append(flag)
            else:
                texts = st.sampled_from(action.choices) if action.choices else OPTION_TEXT[action.type]
                argv.append(f"{flag}={data.draw(texts)}")
        runs = []

        def runner(config):
            runs.append(config)
            return cli._write_outputs(command, config, {})

        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(cli._RUNNERS, {command: runner}):
            argv += ["--out", tmp]
            assert cli.main(argv) == 0
            manifest = json.loads((Path(tmp) / "manifest.json").read_text(encoding="utf-8"))
            assert cli.main(["rerun", "--manifest", str(Path(tmp) / "manifest.json"),
                             "--out", tmp]) == 0
        config = {k: v for k, v in vars(parser.parse_args(argv)).items() if k != "command"}
        assert runs == [config, config]
        assert manifest["config"] == config
        assert set(manifest) == {"command", "config", "tool_version", "created_utc", "outputs"}

    @pytest.mark.parametrize(
        "binary, metric, status",
        [(False, "rmsep", "OK"), (True, "me", "OK"), (True, "rmsep", "MISMATCH")],
        ids=["rmsep", "binary-me", "binary-rmsep"],
    )
    def test_manifest_with_a_metric_replays(self, tmp_path, capsys, binary, metric, status):
        # a 0.7.0 cv config holds the former --metric option: me exactly when
        # --binary is set, except --binary --metric rmsep (RMSEP on 0/1 labels).
        # --binary alone now picks the metric, so only that one replays to
        # another cv.csv
        _write_labelled_table(tmp_path)
        out = tmp_path / "orig"
        argv = ("cv", "--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv",
                "--all-methods", "--max-k", 3, "--folds", 4, "--out", out)
        assert run_cli(*argv, *(("--binary",) if metric == "me" else ())) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"].update(binary=binary, metric=metric)
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        code = run_cli("rerun", "--manifest", out / "manifest.json", "--out", tmp_path / "r")
        assert code == (0 if status == "OK" else 1)
        assert capsys.readouterr().out.splitlines()[-1] == f"{status} cv.csv"

    @pytest.mark.parametrize("binary", [True, False])
    def test_fit_manifest_with_binary_replays(self, tmp_path, capsys, binary):
        # a 0.7.0 fit config holds the former fit --binary flag, which changed
        # no output; rerun reads only the keys of fit's options
        _write_labelled_table(tmp_path)
        out = tmp_path / "orig"
        assert run_cli("fit", "--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv",
                       "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["binary"] = binary
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("rerun", "--manifest", out / "manifest.json", "--out", tmp_path / "r") == 0
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "OK coefficients.csv", "OK signs.csv", "OK tree.json"]

    @pytest.mark.parametrize("version, note", [
        ("0.7.0", f"note: manifest written by plspb 0.7.0, replayed by {__version__}; "
                  "written bytes may differ\n"),
        (None, f"note: manifest written by plspb (unrecorded), replayed by {__version__}; "
               "written bytes may differ\n"),
        (__version__, ""),
    ], ids=["older", "unrecorded", "same"])
    def test_other_version_noted(self, tmp_path, capsys, version, note):
        # stderr carries the note; stdout and the exit code are the replay's own
        _write_labelled_table(tmp_path)
        out = tmp_path / "orig"
        assert run_cli("fit", "--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv",
                       "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        if version is None:
            del manifest["tool_version"]
        else:
            manifest["tool_version"] = version
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("rerun", "--manifest", out / "manifest.json", "--out", tmp_path / "r") == 0
        captured = capsys.readouterr()
        assert captured.err == note
        assert captured.out.splitlines() == ["pls-pb: 4 balances over 5 parts", "OK coefficients.csv",
                                             "OK signs.csv", "OK tree.json"]

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"command": "simulate"\xff}', "not valid utf-8 text (byte 22)"),
            (b'{"command": ', "not valid JSON (Expecting value: line 1 column 13 (char 12))"),
        ],
        ids=["not-utf8", "not-json"],
    )
    def test_unreadable_manifest_named(self, tmp_path, capsys, content, message):
        manifest = tmp_path / "bad.json"
        manifest.write_bytes(content)
        assert run_cli("rerun", "--manifest", manifest, "--out", tmp_path / "r") == 2
        assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "first, second, own",
        [
            (("fit", "--method", "pls-pb"), ("fit", "--method", "pls", "--k", 3),
             {"weights.csv", "model.json"}),
            (("fit", "--method", "pls-pb"), ("cv", "--all-methods", "--max-k", 2), {"cv.csv"}),
            (("fit", "--method", "pca-pb"),
             ("recover", "--n", 20, "--d", 8, "--blocks", "4", "--runs", 2), {"recovery.csv"}),
        ],
        ids=["fit", "cv", "recover"],
    )
    def test_manifest_lists_only_its_own_outputs(self, tmp_path, capsys, first, second, own):
        # a second command into the same --out lists only the files it wrote,
        # not those the first command left there, and so reruns OK
        data = tmp_path / "sim"
        assert run_cli("simulate", "--n", 30, "--d", 8, "--blocks", "4", "--out", data) == 0
        inputs = ("--data", data / "X.csv", "--response-file", data / "y.csv")
        out = tmp_path / "out"
        assert run_cli(*first, *inputs, "--out", out) == 0
        assert run_cli(*second, *(inputs if second[0] != "recover" else ()), "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == own
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        capsys.readouterr()
        assert run_cli("rerun", "--manifest", out / "manifest.json", "--out", tmp_path / "r") == 0
        printed = capsys.readouterr().out.splitlines()
        assert sorted(line for line in printed if line.split()[0] in ("OK", "MISMATCH", "MISSING")) \
            == [f"OK {name}" for name in sorted(own)]

    def test_output_the_replay_did_not_write_is_missing(self, tmp_path, capsys):
        # the replay directory already holds the recorded file, but the
        # replayed command does not write it
        out = tmp_path / "orig"
        run_cli("simulate", "--n", 20, "--d", 8, "--blocks", "4", "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"]["extra.csv"] = hashlib.sha256(b"extra\n").hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        replay = tmp_path / "r"
        replay.mkdir()
        (replay / "extra.csv").write_bytes(b"extra\n")
        capsys.readouterr()
        assert run_cli("rerun", "--manifest", out / "manifest.json", "--out", replay) == 1
        assert capsys.readouterr().out.splitlines() == ["OK X.csv", "OK y.csv", "MISSING extra.csv"]

    def test_rerun_detects_divergence(self, tmp_path):
        out = tmp_path / "orig"
        run_cli("simulate", "--n", 20, "--d", 8, "--blocks", "4", "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"]["X.csv"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("rerun", "--manifest", out / "manifest.json", "--out", tmp_path / "r") == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.pop("command"), "needs command, config and outputs"),
            (lambda m: m.pop("config"), "needs command, config and outputs"),
            (lambda m: m.pop("outputs"), "needs command, config and outputs"),
            (lambda m: m.update(command="train"), "unknown command 'train'"),
            (lambda m: m["config"].pop("seed"), "config lacks seed"),
            (lambda m: m.update(config=[1]), "config must be an object"),
            (lambda m: m.update(outputs=["X.csv"]), "outputs must be an object"),
            (
                lambda m: m["outputs"].update({"../sim/X.csv": m["outputs"]["X.csv"]}),
                "outputs '../sim/X.csv'",
            ),
            (lambda m: m["outputs"].update({"manifest.json": "0" * 64}), "outputs 'manifest.json'"),
            (lambda m: m["outputs"].update({"X.csv": "0" * 63}), "not a plain file name"),
            (lambda m: m["outputs"].update({"X.csv": None}), "not a plain file name"),
        ],
        ids=[
            "no-command",
            "no-config",
            "no-outputs",
            "unknown-command",
            "missing-config-key",
            "config-not-object",
            "outputs-not-object",
            "output-outside-replay",
            "output-is-manifest",
            "output-digest-short",
            "output-digest-not-string",
        ],
    )
    def test_bad_manifest_errors(self, tmp_path, capsys, edit, message):
        out = tmp_path / "orig"
        run_cli("simulate", "--n", 20, "--d", 8, "--blocks", "4", "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        edit(manifest)
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("rerun", "--manifest", out / "manifest.json", "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "r").exists()  # rejected before anything ran


def _six_part_table(tmp_path):
    assert run_cli("simulate", "--n", 20, "--d", 6, "--blocks", 2, "--out", tmp_path / "sim") == 0
    return tmp_path / "sim"


def _response_file(tmp_path, n):
    write_response_csv(tmp_path / "y_other.csv", np.arange(n, dtype=float))
    return tmp_path / "y_other.csv"


class TestFailedCommand:
    @pytest.mark.parametrize(
        "prepare, message",
        [
            (lambda tmp: ("fit", "--data", tmp / "missing.csv", "--response-file", tmp / "y.csv"),
             "No such file or directory"),
            (lambda tmp: ("cv", "--data", _six_part_table(tmp) / "X.csv",
                          "--response-file", tmp / "sim" / "y.csv", "--max-k", 9),
             "max_k=9 outside 1..5"),
            (lambda tmp: ("fit", "--data", _six_part_table(tmp) / "X.csv",
                          "--response-file", _response_file(tmp, 19)),
             "response length does not match the data table"),
            (lambda tmp: ("cv", "--data", _six_part_table(tmp) / "X.csv",
                          "--response-file", tmp / "sim" / "y.csv", "--binary", "--max-k", 2),
             "misclassification error needs a 0/1-coded response"),
            (lambda tmp: ("cv", "--case", "one-block", "--n", 30, "--d", 8, "--blocks", "4",
                          "--runs", 1, "--max-k", 2, "--binary"),
             "--binary needs --data"),
            (lambda tmp: ("recover", "--n", 30, "--d", 8, "--blocks", "2", "--runs", 2,
                          "--seed", -1),
             "seed must be at least 0, got -1"),
            (lambda tmp: ("simulate", "--n", 1), "n must be at least 2, got 1"),
        ],
        ids=["fit-missing-data", "cv-max-k-above-d-1", "fit-response-length", "cv-binary-continuous",
             "cv-binary-simulated", "recover-negative-seed", "simulate-one-sample"],
    )
    def test_writes_nothing(self, tmp_path, capsys, prepare, message):
        argv = prepare(tmp_path)
        capsys.readouterr()
        assert run_cli(*argv, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()


class TestEncoding:
    def test_utf8_files_under_an_ascii_locale(self, tmp_path):
        # Every text read and write names UTF-8: under the C locale with
        # EncodingWarning as an error, a table with non-ASCII part names is
        # fitted and replayed to the same bytes as in this process.
        X, y = random_instance(np.random.default_rng(4), 20, 5)
        names = ("α", "β", "ℓ", "part ü", "p5")
        write_composition_csv(tmp_path / "X.csv", type(X)(X.values, names))
        write_response_csv(tmp_path / "y.csv", y)
        argv = ["fit", "--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv"]
        assert run_cli(*argv, "--out", tmp_path / "here") == 0
        script = (
            "import sys; from plspb.cli import main; "
            "sys.exit(main(sys.argv[1:6] + ['--out', sys.argv[6]]) "
            "or main(['rerun', '--manifest', sys.argv[6] + '/manifest.json', '--out', sys.argv[7]]))"
        )
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                               os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", script, *map(str, argv), str(tmp_path / "ascii"), str(tmp_path / "replay")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        for name in ("coefficients.csv", "signs.csv", "tree.json"):
            assert (tmp_path / "ascii" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
        assert "α".encode() in (tmp_path / "ascii" / "signs.csv").read_bytes()


class TestIngestion:
    def test_response_column_inside_data(self, tmp_path, rng):
        X, y = random_instance(rng, 10, 4)
        table = np.column_stack([X.values, y])
        lines = [",".join(list(X.part_names) + ["resp"])]
        for row in table:
            lines.append(",".join(repr(float(v)) for v in row))
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        loaded, resp = read_composition_csv(data, response_col="resp")
        assert loaded.part_names == X.part_names
        assert np.allclose(resp, y)
        out = tmp_path / "fit"
        assert run_cli(
            "fit", "--data", data, "--response-col", "resp", "--out", out
        ) == 0

    def test_byte_order_mark(self, tmp_path, rng, capsys):
        # a table saved as Excel's "CSV UTF-8" starts with a byte order mark:
        # --response-col still finds its first column, the fit writes the
        # plain table's bytes, and rerun replays it
        X, y = random_instance(rng, 10, 4)
        lines = [",".join(["y", *X.part_names])]
        lines += [",".join(map(repr, row)) for row in np.column_stack([y, X.values]).tolist()]
        text = ("\n".join(lines) + "\n").encode()
        (tmp_path / "plain.csv").write_bytes(text)
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text)
        for name in ("plain", "bom"):
            assert run_cli("fit", "--data", tmp_path / f"{name}.csv", "--response-col", "y",
                           "--out", tmp_path / f"fit-{name}") == 0
        for name in ("coefficients.csv", "signs.csv", "tree.json"):
            assert (tmp_path / "fit-bom" / name).read_bytes() == \
                (tmp_path / "fit-plain" / name).read_bytes()
        capsys.readouterr()
        assert run_cli("rerun", "--manifest", tmp_path / "fit-bom" / "manifest.json",
                       "--out", tmp_path / "replay") == 0
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "OK coefficients.csv", "OK signs.csv", "OK tree.json"]

    def test_input_files_not_mutated(self, tmp_path, rng):
        X, y = random_instance(rng, 10, 4)
        write_composition_csv(tmp_path / "X.csv", X)
        write_response_csv(tmp_path / "y.csv", y)
        before = sha256_file(tmp_path / "X.csv"), sha256_file(tmp_path / "y.csv")
        run_cli(
            "fit", "--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv",
            "--out", tmp_path / "fit",
        )
        after = sha256_file(tmp_path / "X.csv"), sha256_file(tmp_path / "y.csv")
        assert before == after

    def test_blank_lines_skipped(self, tmp_path):
        (tmp_path / "X.csv").write_text("a,b\n1,2\n\n3,4\n\n")
        (tmp_path / "y.csv").write_text("y\n1.5\n\n2.5\n")
        X, _ = read_composition_csv(tmp_path / "X.csv")
        assert np.array_equal(X.values, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(read_response_csv(tmp_path / "y.csv"), [1.5, 2.5])

    @pytest.mark.parametrize(
        "reader, text",
        [
            (read_composition_csv, "a,b\n1,2\n\n3\n"),
            (read_composition_csv, "a,b\n1,2\n\n3,4,5\n"),
            (read_response_csv, "y\n1.5\n\n2.5,3.5\n"),
        ],
        ids=["short", "long", "response"],
    )
    def test_ragged_row_named(self, tmp_path, reader, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="ragged rows: line 4 has"):
            reader(path)

    @pytest.mark.parametrize("bad_file", ["data", "response"])
    @pytest.mark.parametrize("rows", [5, 3000], ids=["short", "past-first-chunk"])
    def test_invalid_utf8_named_with_its_byte(self, tmp_path, capsys, rng, bad_file, rows):
        # The decoder reports positions within its read chunk; the error gives
        # the byte offset in the whole file.
        X, y = random_instance(rng, rows, 3)
        write_composition_csv(tmp_path / "X.csv", X)
        write_response_csv(tmp_path / "y.csv", y)
        path = tmp_path / ("X.csv" if bad_file == "data" else "y.csv")
        good = path.read_bytes()
        path.write_bytes(good + b"1\xff\n")
        code = run_cli(
            "fit", "--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv",
            "--out", tmp_path / "fit",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: not valid utf-8 text (byte {len(good) + 1})\n"


class TestSelfChecks:
    def test_emitted_basis_is_orthonormal(self, tmp_path, rng):
        X, y = random_instance(rng, 18, 7)
        write_composition_csv(tmp_path / "X.csv", X)
        write_response_csv(tmp_path / "y.csv", y)
        out = tmp_path / "fit"
        run_cli(
            "fit", "--data", tmp_path / "X.csv", "--response-file", tmp_path / "y.csv",
            "--out", out,
        )
        rows = read_rows(out / "coefficients.csv")
        B = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert np.max(np.abs(B.T @ B - np.eye(6))) < 1e-10

    def test_fit_on_balances_roundtrip_from_files(self, tmp_path, rng):
        # CSV round trip preserves enough precision to refit identically
        X, y = random_instance(rng, 15, 5)
        write_composition_csv(tmp_path / "X.csv", X)
        write_response_csv(tmp_path / "y.csv", y)
        X2, _ = read_composition_csv(tmp_path / "X.csv")
        y2 = read_response_csv(tmp_path / "y.csv")
        basis = pls_pb(X, y)
        basis2 = pls_pb(X2, y2)
        assert np.array_equal(basis.sign_matrix, basis2.sign_matrix)
        m1 = fit_on_balances(X, y, basis, 2)
        m2 = fit_on_balances(X2, y2, basis2, 2)
        assert np.allclose(m1.coefficients, m2.coefficients)
