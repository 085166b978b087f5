"""CSV and JSON readers/writers with byte-reproducible formatting.

Floats are written with ``repr``, the shortest representation that round
trips exactly, so rerunning a command with the same inputs reproduces its
output files byte for byte. Tables are read by numpy's C text reader.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from .coda import BalanceBasis, CompositionMatrix

RESPONSE_COLUMN = "y"


def _fault(path: Path, width: int, fallback) -> ValueError:
    """The error naming the first body line that is not ``width`` numbers,
    found by re-reading the table with ``csv``; else ``fallback``."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        next(rows, None)
        for row in rows:
            if len(row) != width:
                return ValueError(f"{path}: ragged rows: line {reader.line_num} has "
                                  f"{len(row)} cells, the header has {width}")
            try:
                list(map(float, row))
            except ValueError as exc:
                return ValueError(f"{path}: non-numeric cell on line {reader.line_num} ({exc})")
    return ValueError(f"{path}: {fallback}")


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header cells and float body of a CSV file. ``csv`` reads the header
    and numpy's C reader the body, whose cells are C ``strtod`` numbers,
    optionally quoted or padded by blanks. Blank lines are skipped; every
    other row must be as wide as the header."""
    try:
        with path.open(newline="") as fh, warnings.catch_warnings():
            header = next(filter(None, csv.reader(fh)), [])
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # checked below
            try:
                data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
            except ValueError as exc:
                raise _fault(path, len(header), exc) from exc
        if len(data) == 0:
            raise ValueError(f"{path}: need a header row and at least one sample")
        if data.shape[1] != len(header):
            raise _fault(path, len(header), "rows are not as wide as the header")
    except UnicodeDecodeError as exc:
        try:  # the decoder counts from its last read chunk: find the byte in the whole file
            path.read_bytes().decode(exc.encoding)
        except UnicodeDecodeError as whole:
            exc = whole
        raise ValueError(f"{path}: not valid {exc.encoding} text (byte {exc.start})") from exc
    return header, data


def read_composition_csv(path, response_col=None):
    """Load a samples-by-parts table; first row holds the part names.

    Returns (CompositionMatrix, response or None). When ``response_col``
    names a column it is split off as the response vector.
    """
    path = Path(path)
    header, data = _read_table(path)
    header = [name.strip() for name in header]
    response = None
    if response_col is not None:
        if response_col not in header:
            raise ValueError(f"{path}: no column named {response_col!r}")
        j = header.index(response_col)
        response = data[:, j]
        data = np.delete(data, j, axis=1)
        header = header[:j] + header[j + 1 :]
    return CompositionMatrix(data, tuple(header)), response


def read_response_csv(path) -> np.ndarray:
    """Load a single-column response file written by ``write_response_csv``."""
    path = Path(path)
    header, data = _read_table(path)
    if len(header) != 1:
        raise ValueError(f"{path}: expected one header cell and one value per row")
    return data[:, 0]


def _write_table(path, header, body, lead=None, fmt=repr) -> None:
    """Write the ``header`` cells, then one line per row of the 2-d array
    ``body``, its cells formatted by ``fmt`` and led by the matching entry
    of ``lead`` when given. ``repr`` of a float is its shortest exact text."""
    rows = map(",".join, (map(fmt, row) for row in body.tolist()))
    if lead is not None:
        rows = map(",".join, zip(lead, rows))
    Path(path).write_text("\n".join([",".join(header), *rows]) + "\n")


def write_composition_csv(path, X: CompositionMatrix) -> None:
    _write_table(path, X.part_names, X.values)


def write_response_csv(path, y, name: str = RESPONSE_COLUMN) -> None:
    _write_table(path, [name], np.asarray(y, dtype=float)[:, None])


def write_matrix_csv(path, part_names, matrix, column_values) -> None:
    """Float matrix with parts as rows; the header row carries one value
    per column (a score such as |cov| or variance)."""
    header = ["part", *map(repr, np.asarray(column_values, dtype=float).tolist())]
    _write_table(path, header, np.asarray(matrix, dtype=float), lead=part_names)


def write_basis_csv(path, basis: BalanceBasis) -> None:
    """Coefficient matrix, parts as rows; the header row carries the
    ordering values (|cov| or variance) of each balance."""
    write_matrix_csv(path, basis.part_names, basis.coefficient_matrix, basis.ordering_values)


def write_sign_csv(path, basis: BalanceBasis) -> None:
    header = ["part", *(f"b{j + 1}" for j in range(basis.n_balances))]
    _write_table(path, header, basis.sign_matrix, lead=basis.part_names, fmt=str)


def write_cv_csv(path, rows) -> None:
    """Cross-validation curves as (method, k, mean_error, sd_error) rows."""
    lead = [f"{method},{int(k)}" for method, k, _, _ in rows]
    errors = np.array([(mean, sd) for _, _, mean, sd in rows], dtype=float)
    _write_table(path, ["method", "k", "mean_error", "sd_error"], errors, lead=lead)


def write_recovery_csv(path, part_names, counts_by_method, runs: int) -> None:
    """Inclusion counts in long format: part, method, inclusion_count, runs."""
    methods = sorted(counts_by_method)
    lead = [f"{name},{method}" for method in methods for name in part_names]
    counts = np.concatenate([np.asarray(counts_by_method[m], dtype=int) for m in methods])
    body = np.column_stack([counts, np.full_like(counts, runs)])
    _write_table(path, ["part", "method", "inclusion_count", "runs"], body, lead, fmt=str)


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path):
    """Parse a JSON file; one that is not UTF-8 JSON raises a ValueError naming it."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid {exc.encoding} text (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
