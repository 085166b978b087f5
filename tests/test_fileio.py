"""CSV and JSON readers and writers: exact bytes, bit-exact round trips,
and the reader's syntax and error messages."""

import csv
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plspb import BalanceBasis, CompositionMatrix, fileio
from plspb.cli import main
from plspb.fileio import (
    read_composition_csv,
    read_json,
    read_response_csv,
    write_composition_csv,
    write_basis_csv,
    write_cv_csv,
    write_json,
    write_matrix_csv,
    write_recovery_csv,
    write_response_csv,
    write_sign_csv,
)
from plspb.pb import pca_pb, pls_pb
from plspb.simgen import CASES, SimScenario, simulate_dataset

from conftest import random_instance


# -- the per-cell formatting of 0.7.0, kept as the reference ------------------


def _fmt(x) -> str:
    return repr(float(x))


def _text(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def reference_composition(X) -> bytes:
    return _text([",".join(X.part_names)] + [",".join(_fmt(v) for v in row) for row in X.values])


def reference_response(y, name="y") -> bytes:
    return _text([name] + [_fmt(v) for v in np.asarray(y, dtype=float)])


def reference_matrix(part_names, matrix, column_values) -> bytes:
    lines = ["part," + ",".join(_fmt(v) for v in column_values)]
    for name, row in zip(part_names, matrix):
        lines.append(name + "," + ",".join(_fmt(v) for v in row))
    return _text(lines)


# repr switches to exponent notation below 1e-4 and from 1e16 on; the rest
# are the extremes of the double range
BOUNDARIES = [
    1e-4, 1e-5, 9.999999999999999e-05, 9999999999999998.0, 1e16, 1.0000000000000002e16,
    5e-324, 2.2250738585072014e-308, 1.7e308, 1.7976931348623157e308, 0.1, 1.0, 123.456,
]
finite = st.floats(allow_nan=False, allow_infinity=False)
boundary = st.sampled_from(BOUNDARIES)
signed = st.one_of(boundary, boundary.map(lambda v: -v), finite)
positive = st.one_of(boundary, st.floats(min_value=5e-324, max_value=1.7976931348623157e308))
shapes = st.tuples(st.integers(2, 6), st.integers(2, 6))


def _table(draw, shape, cells):
    size = shape[0] * shape[1]
    return np.array(draw(st.lists(cells, min_size=size, max_size=size))).reshape(shape)


@st.composite
def compositions(draw):
    values = _table(draw, draw(shapes), positive)
    return CompositionMatrix(values, tuple(f"p{j}" for j in range(values.shape[1])))


@st.composite
def matrices(draw):
    matrix = _table(draw, draw(shapes), signed)
    columns = draw(st.lists(signed, min_size=matrix.shape[1], max_size=matrix.shape[1]))
    return matrix, np.array(columns)


# part names with the characters that need CSV quoting, and any other text
# that UTF-8 encodes (no lone surrogate); the writer rejects a name that
# starts or ends with a blank, which the reader strips
names = st.text(st.one_of(st.sampled_from(',"\r\n'),
                          st.characters(codec="utf-8", exclude_characters="\0")),
                min_size=1, max_size=8).filter(lambda name: name == name.strip())


def csv_bytes(rows) -> bytes:
    """The rows as ``csv.writer``'s default dialect quotes them (CR and LF
    quoted as line-end characters), each ended by LF."""
    lines = []
    for row in rows:
        out = io.StringIO()
        csv.writer(out).writerow(row)
        lines.append(out.getvalue().removesuffix("\r\n"))
    return _text(lines)


class TestWriters:
    @settings(max_examples=60, deadline=None)
    @given(X=compositions(), y=st.lists(signed, min_size=1, max_size=12), pm=matrices())
    def test_bytes_match_per_cell_repr(self, X, y, pm):
        matrix, columns = pm
        names = tuple(f"x{i}" for i in range(matrix.shape[0]))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            digests = [
                write_composition_csv(tmp / "X.csv", X),
                write_response_csv(tmp / "y.csv", y),
                write_matrix_csv(tmp / "m.csv", names, matrix, columns),
            ]
            # each writer returns the sha256 of the bytes it wrote
            for name, digest in zip(("X.csv", "y.csv", "m.csv"), digests):
                assert digest == hashlib.sha256((tmp / name).read_bytes()).hexdigest()
            assert (tmp / "X.csv").read_bytes() == reference_composition(X)
            assert (tmp / "y.csv").read_bytes() == reference_response(y)
            assert (tmp / "m.csv").read_bytes() == reference_matrix(names, matrix, columns)
            # read -> write is bit-exact, and so the second write is the same file
            X2, _ = read_composition_csv(tmp / "X.csv")
            y2 = read_response_csv(tmp / "y.csv")
            assert X2.part_names == X.part_names
            assert X2.values.tobytes() == X.values.tobytes()
            assert y2.tobytes() == np.asarray(y, dtype=float).tobytes()
            write_composition_csv(tmp / "X2.csv", X2)
            assert (tmp / "X2.csv").read_bytes() == (tmp / "X.csv").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(part_names=st.lists(names, min_size=2, max_size=6))
    def test_names_quoted_as_csv_quotes_them(self, part_names):
        X = CompositionMatrix(np.arange(1.0, 2 * len(part_names) + 1).reshape(2, -1),
                              tuple(part_names))
        counts = np.arange(len(part_names))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_composition_csv(tmp / "X.csv", X)
            write_response_csv(tmp / "y.csv", [1.5], name=part_names[0])
            write_recovery_csv(tmp / "recovery.csv", part_names, {"pls-pb": counts}, 9)
            assert (tmp / "X.csv").read_bytes() == csv_bytes([part_names, *X.values.tolist()])
            assert (tmp / "y.csv").read_bytes() == csv_bytes([[part_names[0]], [1.5]])
            assert (tmp / "recovery.csv").read_bytes() == csv_bytes(
                [["part", "method", "inclusion_count", "runs"],
                 *([name, "pls-pb", c, 9] for name, c in zip(part_names, counts.tolist()))])
            X2, _ = read_composition_csv(tmp / "X.csv")
            assert X2.part_names == X.part_names
            assert X2.values.tobytes() == X.values.tobytes()

    @pytest.mark.parametrize(
        "part_names", [(" a", "b "), ("a", "b\t"), ("a", "\ud800")],
        ids=["blanks", "tab", "surrogate"],
    )
    def test_unwritable_names_rejected(self, tmp_path, part_names):
        # " a" and "b " would read back as "a" and "b"; a lone surrogate is no UTF-8
        X = CompositionMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), part_names)
        writes = [
            lambda: write_composition_csv(tmp_path / "X.csv", X),
            lambda: write_response_csv(tmp_path / "y.csv", [1.0, 2.0], name=part_names[1]),
            lambda: write_recovery_csv(tmp_path / "r.csv", part_names, {"pls-pb": [1, 2]}, 3),
        ]
        for write in writes:
            with pytest.raises(ValueError) as caught:
                write()
            assert repr(part_names[1]) in str(caught.value)
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_and_signed_zero(self, tmp_path):
        y = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0]
        write_response_csv(tmp_path / "y.csv", y, name="resp")
        assert (tmp_path / "y.csv").read_bytes() == b"resp\nnan\ninf\n-inf\n-0.0\n0.0\n"
        assert read_response_csv(tmp_path / "y.csv").tobytes() == np.array(y).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 40), k=st.integers(1, 40))
    def test_sign_text_equals_str_of_each_sign(self, seed, d, k):
        # the writer joins prebuilt cell texts; 0.7.0 called str on each int
        signs = np.random.default_rng(seed).integers(-1, 2, size=(d, k))
        basis = SimpleNamespace(sign_matrix=signs, part_names=[f"p{i}" for i in range(d)],
                                n_balances=k)
        expected = ["part," + ",".join(f"b{j + 1}" for j in range(k))]
        expected += [f"p{i}," + ",".join(map(str, row)) for i, row in enumerate(signs.tolist())]
        with tempfile.TemporaryDirectory() as tmp:
            write_sign_csv(Path(tmp) / "signs.csv", basis)
            assert (Path(tmp) / "signs.csv").read_bytes() == _text(expected)

    def test_sign_cv_and_recovery_text(self, tmp_path, rng):
        X, y = random_instance(rng, 12, 4)
        basis = pls_pb(X, y)
        write_sign_csv(tmp_path / "signs.csv", basis)
        expected = ["part," + ",".join(f"b{j + 1}" for j in range(3))]
        for name, row in zip(basis.part_names, basis.sign_matrix):
            expected.append(name + "," + ",".join(str(int(v)) for v in row))
        assert (tmp_path / "signs.csv").read_bytes() == _text(expected)

        rows = [("pls-pb", 1, np.float64(0.5), 1e-5), ("pls", np.int64(2), 1e16, 0.0)]
        write_cv_csv(tmp_path / "cv.csv", rows)
        assert (tmp_path / "cv.csv").read_bytes() == _text(
            ["method,k,mean_error,sd_error", "pls-pb,1,0.5,1e-05", "pls,2,1e+16,0.0"]
        )

        counts = {"pls-pb": np.array([3, 0]), "pca-pb": np.array([1, 2])}
        write_recovery_csv(tmp_path / "recovery.csv", ("a", "b"), counts, 3)
        assert (tmp_path / "recovery.csv").read_bytes() == _text(
            ["part,method,inclusion_count,runs",
             "a,pca-pb,1,3", "b,pca-pb,2,3", "a,pls-pb,3,3", "b,pls-pb,0,3"]
        )

    def test_basis_without_ordering_values_rejected(self, tmp_path):
        # its header row would have no values to carry
        basis = BalanceBasis([[1, 1], [-1, 1], [0, -1]])
        with pytest.raises(ValueError, match="needs its ordering_values"):
            write_basis_csv(tmp_path / "coefficients.csv", basis)
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 30),
        d=st.integers(2, 25),
        builder=st.sampled_from(["pls-pb", "pca-pb"]),
        top=st.booleans(),
    )
    def test_basis_bytes_match_per_cell_repr(self, seed, n, d, builder, top):
        X, y = random_instance(np.random.default_rng(seed), n, d)
        self.check_basis_bytes(X, y, builder, min(3, d - 1) if top else None)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("builder", ["pls-pb", "pca-pb"])
    @pytest.mark.parametrize("max_k", [None, 5])
    def test_simulated_basis_bytes_match_per_cell_repr(self, case, builder, max_k):
        data = simulate_dataset(SimScenario(case=case, n=100, D=100, seed=3))
        self.check_basis_bytes(data.X, data.y, builder, max_k)

    @staticmethod
    def check_basis_bytes(X, y, builder, max_k):
        # write_basis_csv picks each cell from its column's three texts; the
        # per-cell repr of write_matrix_csv is the reference
        basis = pls_pb(X, y, max_k=max_k) if builder == "pls-pb" else pca_pb(X, max_k=max_k)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "coefficients.csv"
            digest = write_basis_csv(path, basis)
            written = path.read_bytes()
        assert written == reference_matrix(
            basis.part_names, basis.coefficient_matrix, basis.ordering_values
        )
        assert digest == hashlib.sha256(written).hexdigest()


# -- JSON: one line of compact, key-sorted json.dumps text ---------------------

NOT_JSON = [np.int64(1), np.float32(0.5), np.bool_(True), {1, 2}, frozenset(), b"x", 1j]


class TestJson:
    @pytest.mark.parametrize("bad", NOT_JSON, ids=repr)
    @pytest.mark.parametrize("where", ["value", "list item", "dict value", "dict key"])
    def test_type_error_messages(self, tmp_path, bad, where):
        # json's own TypeError, raised before the file is opened
        value = {"value": bad, "list item": ["a", bad], "dict value": {"k": bad},
                 "dict key": {bad: 1} if bad.__hash__ else {"k": [bad]}}[where]
        with pytest.raises(TypeError) as want:
            json.dumps(value, sort_keys=True)
        with pytest.raises(TypeError) as got:
            write_json(tmp_path / "t.json", value)
        assert str(got.value) == str(want.value)
        assert not (tmp_path / "t.json").exists()

    def test_file_is_utf8_text_with_its_digest(self, tmp_path):
        payload = {"parts": ["α", "b\n"], "value": -0.0, "empty": [{}, []], "z": [1e16, None]}
        digest = write_json(tmp_path / "t.json", payload)
        data = (tmp_path / "t.json").read_bytes()
        assert data == b'{"empty":[{},[]],"parts":["\\u03b1","b\\n"],"value":-0.0,"z":[1e+16,null]}\n'
        assert digest == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("method", ["pls-pb", "pca-pb", "pls"])
    def test_fit_files_round_trip(self, tmp_path, monkeypatch, method):
        # every payload a real fit hands to write_json reads back equal
        written = {}

        def recording(path, payload):
            written[Path(path).name] = payload
            return write_json(path, payload)

        monkeypatch.setattr(fileio, "write_json", recording)
        X = CompositionMatrix(np.random.default_rng(4).lognormal(size=(12, 6)))
        write_composition_csv(tmp_path / "X.csv", X)
        write_response_csv(tmp_path / "y.csv", np.arange(12.0))
        assert main(["fit", "--method", method, "--data", str(tmp_path / "X.csv"),
                     "--response-file", str(tmp_path / "y.csv"), "--out", str(tmp_path / "fit")]) == 0
        json_file = "model.json" if method == "pls" else "tree.json"
        assert set(written) == {json_file, "manifest.json"}
        for name, payload in written.items():
            data = (tmp_path / "fit" / name).read_bytes()
            assert data == (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()
            assert read_json(tmp_path / "fit" / name) == payload


class TestReader:
    def read(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_bytes(text.encode())
        X, _ = read_composition_csv(path)
        return X

    @pytest.mark.parametrize(
        "text",
        [
            '"a","b"\n"1.5",2\n3,"4e0"\n',  # quoted cells
            " a , b \n 1.5 , 2\t\n3,  4 \n",  # blanks around cells
            "a,b\r\n1.5,2\r\n\r\n3,4\r\n",  # CRLF line ends
            "a,b\r1.5,2\r3,4\r",  # CR line ends
            "\n\na,b\n1.5,2\n3,4",  # blank lines before the header, no final newline
        ],
        ids=["quoted", "spaces", "crlf", "cr", "leading-blank-lines"],
    )
    def test_accepted_syntax(self, tmp_path, text):
        X = self.read(tmp_path, text)
        assert X.part_names == ("a", "b")
        assert np.array_equal(X.values, [[1.5, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n\n\n", "\n", ""])
    def test_header_only_needs_a_sample(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need a header row and at least one sample"):
                self.read(tmp_path, text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n3,\n", "non-numeric cell on line 3"),  # trailing empty cell
            ("a,b\n1,2\n\n3,x\n", "non-numeric cell on line 4"),
            ("\n\na,b\n1,2\n3\n", "ragged rows: line 5 has 1 cells, the header has 2"),
            ("a,b\r\n1,2\r\n3,4,5\r\n", "ragged rows: line 3 has 3 cells"),
            ("a,b,c\n1,2\n3,4\n", "ragged rows: line 2 has 2 cells, the header has 3"),
            ('a,b\n1,"2\n3"\n', "non-numeric cell on line 3"),  # a quoted line break
        ],
        ids=["trailing-empty", "non-numeric", "ragged-after-blanks", "ragged-crlf",
             "every-row-narrow", "quoted-newline"],
    )
    def test_faults_named_by_line(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=message):
            self.read(tmp_path, text)

    @pytest.mark.parametrize(
        "read, text, message",
        [
            (lambda path: read_composition_csv(path, response_col="y"), "a,b\n1,2\n",
             "no column named 'y'"),
            (read_response_csv, "y,z\n1,2\n", "expected one header cell and one value per row"),
        ],
        ids=["response-col-absent", "response-two-columns"],
    )
    def test_missing_columns_named(self, tmp_path, read, text, message):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts a table with a byte order mark, which is
        # not part of its first name
        text = "y,a,b\n0.5,1.5,2\n1,3,4\n".encode()  # y is a part when not split off
        (tmp_path / "plain.csv").write_bytes(text)
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text)
        for response_col in (None, "y"):
            (X, y), (X_bom, y_bom) = (read_composition_csv(tmp_path / name, response_col)
                                      for name in ("plain.csv", "bom.csv"))
            assert X_bom.part_names == X.part_names == (("a", "b") if response_col else
                                                        ("y", "a", "b"))
            assert np.array_equal(X_bom.values, X.values)
            assert (y_bom is y is None) or np.array_equal(y_bom, y)
        (tmp_path / "y.csv").write_bytes(b"\xef\xbb\xbfy\n0.5\n-1\n")
        assert np.array_equal(read_response_csv(tmp_path / "y.csv"), [0.5, -1.0])
        (tmp_path / "ragged.csv").write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged rows: line 3 has 1 cells, the header has 2"):
            read_composition_csv(tmp_path / "ragged.csv")

    def test_digit_separators_rejected(self, tmp_path):
        # float() reads 1_000; C strtod, and so the table reader, does not
        with pytest.raises(ValueError, match="1_000"):
            self.read(tmp_path, "a,b\n1_000,2\n3,4\n")
