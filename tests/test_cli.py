"""End-to-end tests of the command line surface."""

import csv
import json

import numpy as np
import pytest

from plspb import fit_on_balances, pca_pb, pls_pb
from plspb.cli import main
from plspb.fileio import (
    read_composition_csv,
    read_response_csv,
    sha256_file,
    write_composition_csv,
    write_response_csv,
)
from plspb.modelsel import PCA_PB, PLS_PB

from conftest import cv_oracle, random_instance


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

    @pytest.mark.parametrize("command, extra", [("cv", ("--max-k", 2)), ("recover", ())])
    def test_zero_jobs_rejected(self, tmp_path, capsys, command, extra):
        argv = (command, "--n", 20, "--d", 8, "--blocks", "4", "--runs", 1, "--seed", 1, *extra)
        assert run_cli(*argv, "--jobs", 0, "--out", tmp_path / "direct") == 2
        assert capsys.readouterr().err.startswith("error: jobs must be at least 1")
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
            ("cv", "metric", "mse"),
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
