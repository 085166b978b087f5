"""CSV and JSON readers/writers with byte-reproducible formatting.

Floats are written with ``repr``, the shortest representation that round
trips exactly, so rerunning a command with the same inputs reproduces its
output files byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .coda import BalanceBasis, CompositionMatrix

RESPONSE_COLUMN = "y"


def _fmt(x) -> str:
    return repr(float(x))


def read_composition_csv(path, response_col=None):
    """Load a samples-by-parts table; first row holds the part names.

    Returns (CompositionMatrix, response or None). When ``response_col``
    names a column it is split off as the response vector.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one sample")
    header = [name.strip() for name in rows[0]]
    try:
        data = np.array([[float(cell) for cell in row] for row in rows[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric cell ({exc})") from exc
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: ragged rows")
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
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or len(rows[0]) != 1:
        raise ValueError(f"{path}: expected one header cell and one value per row")
    return np.array([float(row[0]) for row in rows[1:]])


def write_composition_csv(path, X: CompositionMatrix) -> None:
    lines = [",".join(X.part_names)]
    for row in X.values:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_response_csv(path, y, name: str = RESPONSE_COLUMN) -> None:
    lines = [name] + [_fmt(v) for v in np.asarray(y, dtype=float)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_matrix_csv(path, part_names, matrix, column_values) -> None:
    """Float matrix with parts as rows; the header row carries one value
    per column (a score such as |cov| or variance)."""
    lines = ["part," + ",".join(_fmt(v) for v in column_values)]
    for name, row in zip(part_names, matrix):
        lines.append(name + "," + ",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_basis_csv(path, basis: BalanceBasis) -> None:
    """Coefficient matrix, parts as rows; the header row carries the
    ordering values (|cov| or variance) of each balance."""
    write_matrix_csv(path, basis.part_names, basis.coefficient_matrix, basis.ordering_values)


def write_sign_csv(path, basis: BalanceBasis) -> None:
    header = "part," + ",".join(f"b{j+1}" for j in range(basis.n_balances))
    lines = [header]
    for name, row in zip(basis.part_names, basis.sign_matrix):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_cv_csv(path, rows) -> None:
    """Cross-validation curves as (method, k, mean_error, sd_error) rows."""
    lines = ["method,k,mean_error,sd_error"]
    for method, k, mean, sd in rows:
        lines.append(f"{method},{int(k)},{_fmt(mean)},{_fmt(sd)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_recovery_csv(path, part_names, counts_by_method, runs: int) -> None:
    """Inclusion counts in long format: part, method, inclusion_count, runs."""
    lines = ["part,method,inclusion_count,runs"]
    for method in sorted(counts_by_method):
        counts = counts_by_method[method]
        for name, count in zip(part_names, counts):
            lines.append(f"{name},{method},{int(count)},{runs}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()
