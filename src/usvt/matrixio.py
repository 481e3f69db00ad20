"""CSV interchange format for matrices with missing entries.

One row per matrix row, comma-separated decimal literals. An optional
header row carries generic column names. The reader takes the literal
token ``NA`` as a missing entry; the writer writes fully observed
matrices (estimates), so it never writes ``NA``. Floats are written with
``repr``, so a write/read round trip reproduces every value exactly.

The reader parses each row in one pass; a row that pass cannot take (a
wrong width, a non-finite value, a ``_`` or non-ASCII character, or a field
``float`` rejects, as ``NA`` with spaces does) is checked field by field,
stripped, in file order, and accepted or reported as its first fault.
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixFormatError
from .linalg import as_matrix

__all__ = ["NA_TOKEN", "read_matrix_csv", "write_matrix_csv"]

NA_TOKEN = "NA"


def read_matrix_csv(path, header: bool = False):
    """Parse a matrix file into ``(values, mask)``.

    ``mask`` is True where a number was present; missing (``NA``) positions
    carry value 0.0. Malformed content raises :class:`MatrixFormatError`
    with the offending 1-based line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    # Drop a single trailing newline artifact, keep interior blank lines
    # so they are reported as errors at the right place.
    if lines and lines[-1] == "":
        lines.pop()
    start = 2 if header else 1
    data_lines = lines[1:] if header else lines
    if not data_lines:
        raise MatrixFormatError("no matrix rows found")
    width = len(data_lines[0].split(","))
    values = np.empty((len(data_lines), width))
    mask = np.empty((len(data_lines), width), dtype=bool)
    for i, line in enumerate(data_lines):
        if "_" in line or not line.isascii() or not _fill(line.split(","), values[i], mask[i]):
            _fill(_parse_row(line, start + i, width), values[i], mask[i])
    return values, mask


def _fill(fields, values, mask):
    """Parse ``fields`` into the rows ``values`` and ``mask``; False where
    the row must go to :func:`_parse_row`."""
    if len(fields) != len(values):
        return False
    mask[:] = seen = [f != NA_TOKEN for f in fields]
    try:
        values[:] = [float(f) if s else 0.0 for f, s in zip(fields, seen)]
    except ValueError:
        return False
    return np.isfinite(values).all()


def _parse_row(line, lineno, width):
    """The stripped fields of ``line`` (a non-ASCII one unstripped), or the
    :class:`MatrixFormatError` of its first fault."""
    fields = [f.strip() if f.isascii() else f for f in line.split(",")]
    if fields == [""]:
        raise MatrixFormatError("blank row", line=lineno)
    if len(fields) != width:
        raise MatrixFormatError(f"expected {width} fields, found {len(fields)}", line=lineno)
    for field in fields:
        try:
            if "_" in field or not field.isascii():
                raise ValueError(field)
            finite = field == NA_TOKEN or np.isfinite(float(field))
        except ValueError:
            raise MatrixFormatError(
                f"not a number or {NA_TOKEN!r}: {field!r}", line=lineno) from None
        if not finite:
            raise MatrixFormatError(f"non-finite value {field!r}", line=lineno)
    return fields


def write_matrix_csv(path, values, header: bool = False) -> None:
    """Write a fully observed matrix with full round-trip precision, with a
    ``c0,c1,...`` header row when ``header`` is set."""
    values = as_matrix(values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(",".join(f"c{j}" for j in range(values.shape[1])) + "\n")
        for row in values:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
