"""CSV/text ingestion with schema validation and cell-level error reporting.

Row numbers in error messages are 1-based file line numbers (blank lines
count). All schemas reject NaN/Inf and non-numeric cells, and a file that does
not decode as text is a ValidationError naming the file.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys

import numpy as np

from .errors import ValidationError
from .hc_core import PValueSeries
from .hct import LabeledMatrix

__all__ = [
    "ingest_pvalues",
    "ingest_labeled",
    "ingest_plain",
    "ingest_pairs",
]


def _parse_cell(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"non-numeric cell {text!r}", row=row, column=column) from None
    if not math.isfinite(value):
        raise ValidationError(f"non-finite cell {text!r}", row=row, column=column)
    return value


@contextlib.contextmanager
def open_text(path, **kwargs):
    """``open(path, **kwargs)`` for reading text; a decode error while the
    block reads raises ValidationError naming the file."""
    with open(path, **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not {exc.encoding} text ({exc.reason})") from None


def _read_table(path):
    """(stripped header, its file line, data rows as (file line, cells) pairs) of a
    CSV file, blank lines skipped."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = ((reader.line_num, row) for row in reader if any(cell.strip() for cell in row))
        first = next(rows, None)
        if first is None:
            raise ValidationError(f"{path}: empty file")
        data = list(rows)
    line, header = first
    return [h.strip() for h in header], line, data


def _matrix(path, line, header, rows) -> np.ndarray:
    """Float matrix of data rows that each hold one cell per header name."""
    if not rows:
        raise ValidationError(f"{path}: no data rows", row=line)
    data = []
    for i, row in rows:
        if len(row) != len(header):
            raise ValidationError(f"expected {len(header)} cells, got {len(row)}", row=i)
        data.append([_parse_cell(cell, i, header[j]) for j, cell in enumerate(row)])
    return np.asarray(data)


def ingest_pvalues(path, column=None) -> PValueSeries:
    """P-values from a one-value-per-line text file or a named CSV column."""
    if column is None:
        column = "pvalue"
        with open_text(path) as fh:
            cells = [(i, line.strip()) for i, line in enumerate(fh, start=1) if line.strip()]
        if not cells:
            raise ValidationError(f"{path}: empty file")
    else:
        header, line, rows = _read_table(path)
        if column not in header:
            raise ValidationError(f"column {column!r} not found in header {header}", row=line)
        j = header.index(column)
        if not rows:
            raise ValidationError(f"{path}: no data rows", row=line)
        cells = []
        for i, row in rows:
            if j >= len(row):
                raise ValidationError("missing cell", row=i, column=column)
            cells.append((i, row[j]))
    values = []
    for i, text in cells:
        v = _parse_cell(text, i, column)
        if not 0.0 < v <= 1.0:
            raise ValidationError(f"P-value {v} outside (0, 1]", row=i, column=column)
        values.append(v)
    return PValueSeries.from_unsorted(values)


def ingest_labeled(path) -> LabeledMatrix:
    """Labeled sample matrix: header, first column 'label' in {-1, +1}.

    A {1, 2} label alphabet is remapped (1 -> +1, 2 -> -1) with a warning on
    stderr. A label error names the first data line at fault.
    """
    header, line, rows = _read_table(path)
    if header[0].lower() != "label":
        raise ValidationError(f"first column must be 'label', got {header[:1]}", row=line)
    names = header[1:]
    if not names:
        raise ValidationError("no feature columns", row=line)
    matrix = _matrix(path, line, ["label"] + names, rows)
    labels = matrix[:, 0]
    bad = labels != labels.astype(int)
    if bad.any():
        raise ValidationError("labels must be integers", row=rows[bad.argmax()][0], column="label")
    labels = labels.astype(int)
    present = set(labels.tolist())
    if present <= {1, 2} and 2 in present:
        print("warning: labels {1, 2} remapped to {+1, -1} (1 -> +1, 2 -> -1)", file=sys.stderr)
        labels = np.where(labels == 1, 1, -1)
    elif not present <= {-1, 1}:
        # At fault: the first line by which the labels fit neither alphabet.
        at = max(np.argmax(~np.isin(labels, a)) for a in ((-1, 1), (1, 2)))
        raise ValidationError(f"label alphabet must be {{-1, +1}} or {{1, 2}}, got {sorted(present)}",
                              row=rows[at][0], column="label")
    return LabeledMatrix(matrix[:, 1:], labels, names)


def ingest_plain(path):
    """Numeric matrix with a header row; returns (matrix, column names)."""
    header, line, rows = _read_table(path)
    return _matrix(path, line, header, rows), header


def ingest_pairs(path):
    """Two numeric columns (x, y by name if present, else the first two)."""
    header, line, rows = _read_table(path)
    if len(header) < 2:
        raise ValidationError("need two columns for bivariate pairs", row=line)
    matrix = _matrix(path, line, header, rows)
    if "x" in header and "y" in header:
        ix, iy = header.index("x"), header.index("y")
    else:
        ix, iy = 0, 1
    return matrix[:, ix], matrix[:, iy]
