"""CSV interchange format for matrices with missing entries.

One row per matrix row, comma-separated decimal literals. An optional
header row carries generic column names. The reader takes the literal
token ``NA`` as a missing entry; the writer writes fully observed
matrices (estimates), so it never writes ``NA``. Floats are written with
``repr``, so a write/read round trip reproduces every value exactly.
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
    rows = []
    width = None
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
    for offset, line in enumerate(data_lines):
        lineno = start + offset
        fields = [f.strip() for f in line.split(",")]
        if fields == [""]:
            raise MatrixFormatError("blank row", line=lineno)
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise MatrixFormatError(
                f"expected {width} fields, found {len(fields)}", line=lineno
            )
        row_vals = []
        row_mask = []
        for field in fields:
            if field == NA_TOKEN:
                row_vals.append(0.0)
                row_mask.append(False)
            else:
                try:
                    value = float(field)
                except ValueError:
                    raise MatrixFormatError(
                        f"not a number or {NA_TOKEN!r}: {field!r}", line=lineno
                    ) from None
                if not np.isfinite(value):
                    raise MatrixFormatError(f"non-finite value {field!r}", line=lineno)
                row_vals.append(value)
                row_mask.append(True)
        rows.append((row_vals, row_mask))
    values = np.array([r[0] for r in rows], dtype=float)
    mask = np.array([r[1] for r in rows], dtype=bool)
    return values, mask


def write_matrix_csv(path, values, header: bool = False) -> None:
    """Write a fully observed matrix with full round-trip precision, with a
    ``c0,c1,...`` header row when ``header`` is set."""
    values = as_matrix(values)
    lines = []
    if header:
        lines.append(",".join(f"c{j}" for j in range(values.shape[1])))
    lines.extend(",".join(map(repr, row)) for row in values.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
