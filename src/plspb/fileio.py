"""CSV and JSON readers/writers with byte-reproducible formatting.

Floats are written with ``repr``, the shortest representation that round
trips exactly, so rerunning a command with the same inputs reproduces its
output files byte for byte. Every file is UTF-8 text whatever the locale; a
table read may start with a byte order mark, as Excel writes one. Every
writer returns the sha256 hex digest of the bytes it wrote.
Tables are read by numpy's C text reader.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import warnings
from pathlib import Path

import numpy as np

from .coda import BalanceBasis, CompositionMatrix, _readonly

RESPONSE_COLUMN = "y"
_SIGN_TEXT = _readonly(np.array(["-1", "0", "1"], dtype=object))  # indexed by sign + 1
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _fault(path: Path, width: int, fallback) -> ValueError:
    """The error naming the first body line that is not ``width`` numbers,
    found by re-reading the table with ``csv``; else ``fallback``."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
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
        with path.open(newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
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


def _write_text(path, text: str) -> str:
    """Write ``text`` to ``path`` as UTF-8; the sha256 hex digest of its bytes."""
    data = text.encode("utf-8")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _quoted(names) -> list[str]:
    """Part or response names as cells, quoted as ``csv``'s minimal quoting
    quotes them: a name holding a comma, a double quote, CR or LF goes in
    double quotes, each of its own doubled. One scan decides the table.
    The reader strips blanks from names, so a name that starts or ends with
    one raises a ValueError instead of reading back as another name."""
    names = list(names)
    padded = [n for n in names if n != n.strip()]
    if padded:
        raise ValueError(f"names {padded!r} start or end with a blank, which reading strips")
    if _NEEDS_QUOTES.search("".join(names)) is None:
        return names
    return ['"' + n.replace('"', '""') + '"' if _NEEDS_QUOTES.search(n) else n for n in names]


def _write_table(path, header, body, lead=None) -> str:
    """Write the ``header`` cells, quoted as names, then one line per row of
    the 2-d array ``body``, its cells written by ``repr``, which is exact,
    unless they are already text (object dtype), and led by the matching
    entry of ``lead``, if any."""
    rows = body.tolist()
    rows = map(",".join, rows if body.dtype == object else (map(repr, row) for row in rows))
    if lead is not None:
        rows = map(",".join, zip(lead, rows))
    return _write_text(path, "\n".join([",".join(_quoted(header)), *rows]) + "\n")


def _score_header(column_values) -> list[str]:
    return ["part", *map(repr, np.asarray(column_values, dtype=float).tolist())]


def write_composition_csv(path, X: CompositionMatrix) -> str:
    return _write_table(path, X.part_names, X.values)


def write_response_csv(path, y, name: str = RESPONSE_COLUMN) -> str:
    return _write_table(path, [name], np.asarray(y, dtype=float)[:, None])


def write_matrix_csv(path, part_names, matrix, column_values) -> str:
    """Float matrix with parts as rows; the header row carries one value
    per column (a score such as |cov| or variance)."""
    return _write_table(path, _score_header(column_values), np.asarray(matrix, dtype=float),
                        lead=_quoted(part_names))


def write_basis_csv(path, basis: BalanceBasis) -> str:
    """Coefficient matrix, parts as rows; the header row carries the
    ordering values (|cov| or variance) of each balance. Each column holds
    one negative value (its minimum), 0.0 and one positive value (its
    maximum), so its cells are picked from those three texts by sign + 1:
    the bytes of ``write_matrix_csv`` with one ``repr`` per column."""
    if basis.ordering_values is None:
        raise ValueError("a basis written to CSV needs its ordering_values")
    b = basis.coefficient_matrix
    k = b.shape[1]
    texts = np.array([[*map(repr, b.min(axis=0).tolist())], ["0.0"] * k,
                      [*map(repr, b.max(axis=0).tolist())]], dtype=object)
    cells = texts[basis.sign_matrix + 1, np.arange(k)]
    return _write_table(path, _score_header(basis.ordering_values), cells,
                        lead=_quoted(basis.part_names))


def write_sign_csv(path, basis: BalanceBasis) -> str:
    header = ["part", *(f"b{j + 1}" for j in range(basis.n_balances))]
    return _write_table(path, header, _SIGN_TEXT[basis.sign_matrix + 1],
                        lead=_quoted(basis.part_names))


def write_cv_csv(path, rows) -> str:
    """Cross-validation curves as (method, k, mean_error, sd_error) rows."""
    lead = [f"{method},{int(k)}" for method, k, _, _ in rows]
    errors = np.array([(mean, sd) for _, _, mean, sd in rows], dtype=float)
    return _write_table(path, ["method", "k", "mean_error", "sd_error"], errors, lead=lead)


def write_recovery_csv(path, part_names, counts_by_method, runs: int) -> str:
    """Inclusion counts in long format: part, method, inclusion_count, runs."""
    methods = sorted(counts_by_method)
    names = _quoted(part_names)
    lead = [f"{name},{method}" for method in methods for name in names]
    counts = np.concatenate([np.asarray(counts_by_method[m], dtype=int) for m in methods])
    body = np.column_stack([counts, np.full_like(counts, runs)])
    return _write_table(path, ["part", "method", "inclusion_count", "runs"], body, lead)


def write_json(path, payload) -> str:
    """One line of compact, key-sorted JSON; a value json cannot write
    raises its TypeError before the file is opened."""
    return _write_text(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def read_json(path):
    """Parse a JSON file; one that is not UTF-8 JSON raises a ValueError naming it."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid {exc.encoding} text (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
