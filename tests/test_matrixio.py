import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from usvt.errors import MatrixFormatError
from usvt.generators import gen_low_rank
from usvt.matrixio import NA_TOKEN, _format_rows, read_matrix_csv, write_matrix_csv
from usvt.rng import make_rng


def test_round_trip_exact(tmp_path):
    path = tmp_path / "m.csv"
    values = make_rng(1).uniform(-1, 1, (7, 5))
    write_matrix_csv(path, values)
    back, mask = read_matrix_csv(path)
    assert np.array_equal(back, values)  # repr round-trips doubles exactly
    assert mask.all()


def test_round_trip_with_mask_and_header(tmp_path):
    # The writer writes fully observed matrices; the NA entries are put
    # into its output by hand.
    path = tmp_path / "m.csv"
    rng = make_rng(2)
    values = rng.uniform(0, 1, (6, 4))
    mask = rng.random((6, 4)) < 0.5
    write_matrix_csv(path, values, header=True)
    header, *rows = path.read_text().splitlines()
    assert header == "c0,c1,c2,c3"
    rows = [",".join(field if seen else NA_TOKEN
                     for field, seen in zip(row.split(","), seen_row))
            for row, seen_row in zip(rows, mask)]
    path.write_text("\n".join([header, *rows]) + "\n")
    back, back_mask = read_matrix_csv(path, header=True)
    assert np.array_equal(back_mask, mask)
    assert np.array_equal(back[mask], values[mask])
    assert np.all(back[~mask] == 0.0)


def test_na_token_parsing(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.5,NA\nNA,-2.25\n")
    values, mask = read_matrix_csv(path)
    assert values[0, 0] == 1.5 and values[1, 1] == -2.25
    assert not mask[0, 1] and not mask[1, 0]


def test_malformed_field_reports_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix_csv(path)
    assert err.value.line == 2
    assert "oops" in str(err.value)


def test_ragged_row_reports_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix_csv(path)
    assert err.value.line == 2


def test_header_shifts_line_numbers(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1.0,2.0\nbad,4.0\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix_csv(path, header=True)
    assert err.value.line == 3


def test_empty_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(MatrixFormatError):
        read_matrix_csv(path)


def test_blank_interior_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0\n\n2.0\n")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix_csv(path)
    assert err.value.line == 2


def test_infinite_value_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("inf,1.0\n")
    with pytest.raises(MatrixFormatError):
        read_matrix_csv(path)


def test_written_text_pinned(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.array([[-0.0, 5e-324], [1e16, 0.1]]), header=True)
    assert path.read_text() == "c0,c1\n-0.0,5e-324\n1e+16,0.1\n"


def _reference_read(path, header=False):
    """The field-by-field reader that the one-pass reader replaced, kept as
    the reference that it must match: same arrays, or the same error. One
    rule is added to it: a field holding ``_`` or a non-ASCII character
    (left unstripped) is not a number, though ``float`` would take it."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    start = 2 if header else 1
    data_lines = lines[1:] if header else lines
    if not data_lines:
        raise MatrixFormatError("no matrix rows found")
    for offset, line in enumerate(data_lines):
        lineno = start + offset
        fields = [f.strip() if f.isascii() else f for f in line.split(",")]
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
                    if "_" in field or not field.isascii():
                        raise ValueError(field)
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


def _outcome(read, path, header):
    """What ``read`` makes of ``path``: the dtype, shape and bytes of both
    arrays, or the error's message and line."""
    try:
        values, mask = read(path, header=header)
    except MatrixFormatError as err:
        return "error", str(err), err.line
    return ("arrays", values.dtype.str, values.shape, values.tobytes(),
            mask.dtype.str, mask.shape, mask.tobytes())


_PAD = st.sampled_from(["", "", " ", "\t", " \t "])
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_0", "-0", "+.5", "1e-3", "2.5E+2", "-0.0", "\u0661\u0662"]),
)
_FAULTS = st.one_of(
    st.none(),
    st.tuples(st.just("ragged"), st.booleans()),
    st.just(("trailing comma",)),
    st.tuples(st.just("blank line"), st.sampled_from(["", " ", "\t"])),
    st.tuples(st.just("token"), st.sampled_from(
        ["oops", "", "na", "N A", "NA NA", "1,5", "0x10", "--1", "1e", "\u00a0NA"])),
    st.tuples(st.just("token"), st.sampled_from(
        ["inf", "-inf", "nan", "NaN", "Infinity", "1e400", "-1e999"])),
)


@st.composite
def _csv_cases(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    cells = [[draw(_PAD) + (NA_TOKEN if draw(st.booleans()) else draw(_NUMBER)) + draw(_PAD)
              for _ in range(cols)] for _ in range(rows)]
    fault = draw(_FAULTS)
    if fault is not None:
        i = draw(st.integers(0, rows - 1))
        if fault[0] == "ragged":
            cells[i] = cells[i][:-1] if fault[1] else cells[i] + ["1.0"]
        elif fault[0] == "trailing comma":
            cells[i] = cells[i] + [""]
        elif fault[0] == "token":
            cells[i][draw(st.integers(0, cols - 1))] = draw(_PAD) + fault[1] + draw(_PAD)
    lines = [",".join(row) for row in cells]
    if fault is not None and fault[0] == "blank line":
        lines.insert(draw(st.integers(0, rows)), fault[1])
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(f"c{j}" for j in range(cols)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return text, header


@settings(max_examples=300, deadline=None)
@given(case=_csv_cases())
def test_reader_matches_reference(tmp_path_factory, case):
    text, header = case
    path = tmp_path_factory.mktemp("differential") / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (_outcome(read_matrix_csv, path, header)
            == _outcome(_reference_read, path, header))


@pytest.mark.parametrize("row, field", [
    ("1_0,2", "1_0"),
    ("2,1e1_0", "1e1_0"),
    ("\u0661\u0662,2", "\u0661\u0662"),
    ("1,\uff13", "\uff13"),
    ("\u00a0NA,2", "\u00a0NA"),
    ("1, 2\u2003", " 2\u2003"),
])
def test_underscore_and_non_ascii_are_not_numbers(tmp_path, row, field):
    # float() takes each of these fields as a number or strips the space.
    path = tmp_path / "m.csv"
    path.write_text(f"1,2\n{row}\n3,4\n", encoding="utf-8")
    with pytest.raises(MatrixFormatError) as err:
        read_matrix_csv(path)
    assert err.value.line == 2
    assert str(err.value) == f"line 2: not a number or 'NA': {field!r}"


@pytest.mark.parametrize("text, header", [
    ("1.0\nNA\n-2.5\n 3 \nNA \n", False),
    ("c0\n", True),
    ("c0,c1\r\n", True),
    (" NA ,\t1.0\n2.0,NA\t\n", False),
])
def test_reader_matches_reference_cases(tmp_path, text, header):
    # A tall one-column file, two header-only files, and rows that only the
    # field-by-field parse accepts.
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (_outcome(read_matrix_csv, path, header)
            == _outcome(_reference_read, path, header))


def _repr_text(values):
    """The text the writer must produce: each entry as ``repr`` writes it."""
    return "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()).encode()


def _ulp_neighbours(values, steps=3):
    """``values`` and their neighbours up to ``steps`` ulps either side."""
    out = [values]
    for direction in (np.inf, -np.inf):
        v = values
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


def _fixed_families():
    """Seeded doubles at and next to the edges of the writer's exact path."""
    rng = make_rng(23)
    short = np.array([round(v, int(d)) for v, d in zip(
        rng.uniform(-1, 1, 2000) * 10.0 ** rng.integers(-4, 16, 2000), rng.integers(0, 8, 2000))])
    lo, hi = np.array([1e-4, 1e16]).view(np.int64)
    return {
        "powers of two": 2.0 ** np.arange(-20, 61),
        "powers of ten": _ulp_neighbours(10.0 ** np.arange(-6, 18)),
        "short decimals": _ulp_neighbours(short),
        "integers": np.concatenate([2.0**53 + np.arange(-40, 41), 1e16 + np.arange(-40, 41)]),
        "1e-4": _ulp_neighbours(np.array([1e-4, -1e-4])),
        "zeros": np.array([0.0, -0.0]),
        "fast-path bits": rng.integers(lo, hi, 200_000).view(np.float64)
                          * rng.choice([-1, 1], 200_000),
    }


_FAMILIES = _fixed_families()


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_written_bytes_equal_repr(tmp_path, family):
    values = _FAMILIES[family]
    width = min(40, values.size)
    values = values[: values.size - values.size % width].reshape(-1, width)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, values)
    assert path.read_bytes() == _repr_text(values)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)),
              elements=st.floats(allow_nan=False, allow_infinity=False,
                                allow_subnormal=True)))
def test_written_bytes_equal_repr_any_double(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("repr") / "m.csv"
    write_matrix_csv(path, values)
    assert path.read_bytes() == _repr_text(values)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_few_entries_go_to_repr(seed):
    values = gen_low_rank(400, 400, 5, seed)
    text, slow = _format_rows(values)
    assert text == _repr_text(values)
    assert slow <= 0.05 * values.size


def test_writer_memory_is_bounded(tmp_path):
    values = make_rng(4).uniform(-1, 1, (1000, 1000))
    tracemalloc.start()
    try:
        write_matrix_csv(tmp_path / "m.csv", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
