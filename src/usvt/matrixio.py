"""CSV interchange format for matrices with missing entries.

One row per matrix row, comma-separated decimal literals. An optional
header row carries generic column names. The reader takes the literal
token ``NA`` as a missing entry; the writer writes fully observed
matrices (estimates), so it never writes ``NA``. Each float is written as
``repr`` writes it, by an exact vectorised path with ``repr`` as the
per-entry fallback, so a write/read round trip reproduces every value.

The reader takes UTF-8 text with universal newlines, and reports the
line of the first byte that is not UTF-8. It has two paths. A body of
plain fields (the bytes ``0-9 . e E + - ,``, space, tab, newlines and
``NA`` fields; numpy strips the spaces and tabs around a field as the
per-row path does) is parsed in one call of numpy's text parser. Any
other body, and a plain one that parser rejects or that overflows, goes
to the per-row path, the only one that reports a malformed row: each
row's fields are stripped and checked in file order, and the row is
accepted or reported as its first fault.

Every file the package writes (this estimate CSV, and the harness's
reports) goes through :func:`_rewrite`: an existing file is written over
in place and then cut to the length written, not truncated to zero first.
On ext4, whose ``auto_da_alloc`` heuristic makes a truncate to zero wait
for the old data's write-back, truncating first stalled a rerun to the
same path by tens of milliseconds per small report and most of a second
per large estimate. Neither way is atomic or synced to disk: a reader
that runs alongside, or a crash mid-write, may see new bytes followed by
old ones, where truncating first showed a short file.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import stat

import numpy as np

from .errors import MatrixFormatError
from .linalg import as_matrix

__all__ = ["NA_TOKEN", "read_matrix_csv", "write_matrix_csv"]

NA_TOKEN = "NA"


def read_matrix_csv(path, header: bool = False):
    """Parse a matrix file into ``(values, mask)``.

    ``mask`` is True where a number was present; missing (``NA``) positions
    carry value 0.0. Malformed content raises :class:`MatrixFormatError`
    with the offending 1-based line number. A plain body, padded or not,
    is parsed in one pass (:func:`_read_plain`); any other is checked row by
    row (:func:`_parse_row`).
    """
    with open(path, "rb") as fh:  # newlines as text mode reads them
        raw = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw.isascii():  # ASCII is UTF-8; decoded again only for the per-row path
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise MatrixFormatError(f"not UTF-8: byte 0x{raw[err.start]:02x}",
                                    line=raw.count(b"\n", 0, err.start) + 1) from None
    plain = _read_plain(raw.partition(b"\n")[2] if header else raw)
    if plain is not None:
        return plain
    lines = raw.decode("utf-8").split("\n")
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
        values[i], mask[i] = _parse_row(line, start + i, width)
    return values, mask


def _read_plain(body):
    """``(values, mask)`` of a body of plain fields, or None where the
    per-row path must read it."""
    if not body or body.translate(None, b"0123456789.eE+-, \t\nNA"):
        return None
    if body[:1] == b"\n" or b"\n\n" in body:  # a blank line, which loadtxt skips
        return None
    try:  # NA becomes -nan, so a field that holds more than a padded NA is no number
        values = np.loadtxt(io.BytesIO(body.replace(b"NA", b"-nan")), delimiter=",",
                            comments=None, ndmin=2)
    except ValueError:  # a ragged row or a field float rejects
        return None
    if np.isinf(values).any():  # an overflow such as 1e400
        return None
    mask = ~np.isnan(values)
    values[~mask] = 0.0
    return values, mask


def _parse_row(line, lineno, width):
    """``(values, seen)`` of ``line``'s fields, stripped (a non-ASCII one
    unstripped): each one's float, 0.0 for ``NA``, and whether it is a
    number; or the :class:`MatrixFormatError` of its first fault."""
    fields = [f.strip() if f.isascii() else f for f in line.split(",")]
    if fields == [""]:
        raise MatrixFormatError("blank row", line=lineno)
    if len(fields) != width:
        raise MatrixFormatError(f"expected {width} fields, found {len(fields)}", line=lineno)
    values = []
    for field in fields:
        try:
            if "_" in field or not field.isascii():
                raise ValueError(field)
            value = 0.0 if field == NA_TOKEN else float(field)
        except ValueError:
            raise MatrixFormatError(
                f"not a number or {NA_TOKEN!r}: {field!r}", line=lineno) from None
        if not math.isfinite(value):
            raise MatrixFormatError(f"non-finite value {field!r}", line=lineno)
        values.append(value)
    return values, [f != NA_TOKEN for f in fields]


@contextlib.contextmanager
def _rewrite(path, mode, **kw):
    """``open(path, mode, **kw)`` for writing without truncating an existing
    file; on exit, however the block ends, a regular file is cut to the
    length written (a device such as ``/dev/null``, or a pipe, cannot be).
    The bytes, a symlink followed, a hard link's shared inode and a new
    file's permissions are those of ``open(path, "w")``; a failed write
    leaves only the bytes written before it. Not atomic: until the cut, the
    file holds the new bytes followed by the old file's tail."""
    def keep_contents(file, flags):
        return os.open(file, flags & ~os.O_TRUNC, 0o666)

    with open(path, mode, opener=keep_contents, **kw) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def write_matrix_csv(path, values, header: bool = False) -> None:
    """Write a fully observed matrix, each float as ``repr`` writes it (so it
    reads back exactly), a block of rows at a time (:func:`_format_rows`),
    with a ``c0,c1,...`` header row when ``header`` is set. An existing file
    is written over in place and then cut to length (:func:`_rewrite`), so a
    rewrite does not wait on ext4's flush of a truncated file; the write is
    not atomic."""
    values = as_matrix(values)
    rows = max(1, _BLOCK // values.shape[1])
    with _rewrite(path, "wb") as fh:
        if header:
            fh.write(",".join(f"c{j}" for j in range(values.shape[1])).encode() + b"\n")
        for start in range(0, values.shape[0], rows):
            fh.write(_format_rows(values[start:start + rows])[0])


# Shortest round-trip digits by exact array arithmetic (Steele & White,
# PLDI 1990; Adams, "Ryu", PLDI 2018) for the entries repr writes positionally.
_BLOCK = 8192  # entries formatted at a time; bounds the writer's memory
_POW10 = 10.0 ** np.arange(23)  # every one an exact double
_I10 = 10 ** np.arange(18, dtype=np.int64)


def _split(a):
    """Veltkamp's split of ``a`` into halves of at most 26 bits."""
    c = a * 134217729.0  # 2**27 + 1
    head = c - (c - a)
    return head, a - head


def _scaled(a, s):
    """``(d, r)``: the integer ``d`` nearest ``a * 10**s`` (the even one at
    a tie) and ``r = a * 10**s - d``, exact wherever ``a * 10**s >= 2**53``."""
    hi = a * _POW10[s]
    ah, at = _split(a)
    ph, pt = _POW10_HEAD[s], _POW10_TAIL[s]
    lo = at * pt - (((hi - ah * ph) - at * ph) - ah * pt)  # Dekker: a * 10**s == hi + lo
    j = np.rint(lo)  # from 2**53 up, hi is an even integer
    return np.rint(hi).astype(np.int64) + j.astype(np.int64), lo - j


def _shortest(a):
    """For each ``a`` (1e-4 <= a < 1e16), repr's pick: the nearest of the
    shortest decimals that read back as ``a``. The nearest 16-digit decimal
    reads back if any 16-digit one does (the rounding interval is symmetric;
    a power of two, where it is not, is here a decimal of at most 16 digits).
    Where it does, the nearest 15-digit one is tried: any decimal of at most
    15 digits that reads back is that one, as half an ulp, under
    1.2 * 10**(e - 15), is less than half a unit of its 15th digit; so it is
    the pick, stripped of its trailing zeros. At 17 digits a tie goes to the
    even one. Returns the 17 digits padded with zeros, digit count ``k``,
    point position ``decpt``, and ``unsure`` where a tie leaves the pick open."""
    e = np.floor(np.log10(a)).astype(np.int64)
    d, r = _scaled(a, 16 - e)
    bad = np.flatnonzero((d < _I10[16]) | (d >= _I10[17]))
    while bad.size:  # log10 can put e one off next to a power of ten
        e[bad] += np.where(d[bad] < _I10[16], -1, 1)
        d[bad], r[bad] = _scaled(a[bad], 16 - e[bad])
        bad = bad[(d[bad] < _I10[16]) | (d[bad] >= _I10[17])]
    unsure, k, best = np.zeros(a.shape, bool), np.full(a.shape, 17), d.copy()
    live, dl, rl, el, al = np.arange(a.size), d, r, e, a
    for n in (16, 15):
        # dn, the integer nearest (d + r) / p, is floor((d + p/2 + r) / p).
        p = _I10[17 - n]
        dn = (dl + (p // 2 - (rl < 0))) // p
        tie = (rl == 0) & (dn * p == dl + p // 2)
        # float(dn * 10**(e + 1 - n)), one correctly rounded operation on exact doubles.
        up = np.maximum(el + 1 - n, 0)
        reads = dn * _POW10[up] / _POW10[n - 1 - el + up] == al
        if n == 16:
            # From 2**53 up, a's half-ulp exceeds half a unit of dn, so the
            # nearest 16-digit decimal always reads back.
            reads |= dn >= 2**53
        unsure[live[tie & reads]] = True
        keep = np.flatnonzero(reads & ~tie)
        live, dl, rl, el, al = live[keep], dl[keep], rl[keep], el[keep], al[keep]
        k[live] = n
        best[live] = dn[keep]
    ds = best[live]
    for t in (8, 4, 2, 1):  # strip the 15-digit picks' trailing zeros
        zero = ds % _I10[t] == 0
        ds[zero] //= _I10[t]
        k[live[zero]] -= t
    best[live] = ds
    # best < 10**k: 10**(e + 1) > a, and it reads back as a double >= itself.
    return best * _I10[17 - k], k, e + 1, unsure


def _layouts():
    """For each (decpt, k), the mask ANDed into an entry's 40-byte slot:
    separator, sign, ``0.`` and three zeros, then 17 digits, each after a
    byte for the point; the slot holds 0xFF wherever the mask writes."""
    t = np.zeros((20, 17, 40), np.uint8)
    for decpt in range(-3, 17):
        for k in range(1, 18):
            row = t[decpt + 3, k - 1]
            row[7:7 + 2 * max(k, decpt + 1):2] = 0xFF
            if decpt <= 0:
                row[2:4 - decpt] = np.frombuffer(b"0." + b"0" * -decpt, np.uint8)
            else:
                row[6 + 2 * decpt] = ord(".")
    return t.reshape(340, 40).view("<u8").astype(np.uint64).T.copy()


_POW10_HEAD, _POW10_TAIL = _split(_POW10)
_LAYOUT = _layouts()
_DIGIT_PAIRS = np.full((10000, 8), 0xFF, np.uint8)  # each 4-digit group
_DIGIT_PAIRS[:, 1::2] = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
_DIGIT_PAIRS = _DIGIT_PAIRS.view("<u8").astype(np.uint64).ravel()


def _format_rows(rows):
    """The CSV lines of the 2-D float array ``rows`` as bytes, and the
    number of entries formatted by ``repr`` itself: nonzero |x| outside
    [1e-4, 1e16), and the rare tie."""
    x = rows.ravel()
    a = np.abs(x)
    fast = np.flatnonzero((a >= 1e-4) & (a < 1e16))
    digits, key = np.zeros(x.size, np.int64), np.full(x.size, 4 * 17)  # zeros: "0.0"
    digits[fast], k, decpt, unsure = _shortest(a[fast])
    key[fast] = (decpt + 3) * 17 + k - 1
    slow = a != 0
    slow[fast[~unsure]] = False
    slow = np.flatnonzero(slow)
    # Each entry's slot is 5 little-endian words, one per row of ``words``.
    words = np.empty((5, x.size), np.uint64)
    for i, p in enumerate(_I10[16::-4]):  # the leading digit, then 4-digit groups
        group = digits // p
        digits = digits - group * p
        words[i] = _DIGIT_PAIRS[group]
    words[0] = words[0] >> 56 << 56 | 0x00FFFFFFFFFF0000
    words &= _LAYOUT.take(key, axis=1)
    words[0] |= np.signbit(x) * np.uint64(ord("-") << 8)
    patch = np.zeros((slow.size, 40), np.uint8)
    patch[:, 1:] = np.array([repr(v) for v in x[slow].tolist()], "S39").view("u1").reshape(-1, 39)
    words[:, slow] = patch.view("<u8").T
    # The first byte of a slot separates it from the entry before.
    words[0].reshape(rows.shape)[:, 1:] |= ord(",")
    words[0, ::rows.shape[1]] |= ord("\n")
    # Each line's text begins with its newline: move it to the end.
    return words.T.astype("<u8").tobytes().translate(None, b"\0")[1:] + b"\n", slow.size
