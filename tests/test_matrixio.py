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
        ["oops", "", "na", "N A", "NA NA", "1,5", "0x10", "--1", "1e", "\u00a0NA",
         "-NA", "+NA", "NA-", "1NA", "NAN", "\n"])),
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


_PLAIN_NUMBER = st.one_of(
    st.just(NA_TOKEN),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["+.5", "1.", "-0", "2E5", "1e-3", "1e400", "-1e999", "0e0"]),
)


@st.composite
def _plain_cases(draw):
    """Files of the bytes the one-pass parse takes (digits, signs, ``.``,
    ``e``, ``E``, ``NA``, spaces, tabs, commas and newlines), valid or with
    one fault."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    cells = [[draw(_PAD) + draw(_PLAIN_NUMBER) + draw(_PAD) for _ in range(cols)]
             for _ in range(rows)]
    fault = draw(st.sampled_from([None, None, "token", "blank line", "trailing comma"]))
    if fault == "token":
        cells[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(
            st.text("0123456789.eE+-NA \t", max_size=5))
    elif fault == "trailing comma":
        cells[draw(st.integers(0, rows - 1))].append("")
    lines = [",".join(row) for row in cells]
    if fault == "blank line":
        lines.insert(draw(st.integers(0, rows)), "")
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(f"c{j}" for j in range(cols)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline, 2 * newline]))
    return text, header


@settings(max_examples=300, deadline=None)
@given(case=_plain_cases())
def test_plain_reader_matches_reference(tmp_path_factory, case):
    text, header = case
    path = tmp_path_factory.mktemp("plain") / "m.csv"
    path.write_bytes(text.encode("ascii"))
    assert (_outcome(read_matrix_csv, path, header)
            == _outcome(_reference_read, path, header))


@pytest.mark.parametrize("newline, header", [("\n", False), ("\r\n", True)])
def test_plain_file_is_parsed_in_one_pass(tmp_path, monkeypatch, newline, header):
    rng = make_rng(6)
    values = rng.choice([-1.0, 0.5, 1.0, 1e-3], (3, 1000))
    seen = rng.random((3, 1000)) < 0.5
    lines = [",".join(repr(v) if s else NA_TOKEN for v, s in zip(row, seen_row))
             for row, seen_row in zip(values.tolist(), seen.tolist())]
    if header:
        lines.insert(0, ",".join(f"c{j}" for j in range(1000)))
    path = tmp_path / "m.csv"
    path.write_bytes((newline.join(lines) + newline).encode("ascii"))
    expected = _outcome(_reference_read, path, header)

    def per_row(*args):
        raise AssertionError("the per-row path ran")

    monkeypatch.setattr("usvt.matrixio._parse_row", per_row)
    assert _outcome(read_matrix_csv, path, header) == expected
    assert expected[0] == "arrays"


@pytest.mark.parametrize("separator", [", ", "\t,"])
def test_padded_file_is_parsed_in_one_pass(tmp_path, monkeypatch, separator):
    rng = make_rng(7)
    values = rng.choice([-1.0, 0.5, 1.0, 1e-3], (3, 1000))
    seen = rng.random((3, 1000)) < 0.5
    lines = [separator.join(repr(v) if s else NA_TOKEN for v, s in zip(row, seen_row))
             for row, seen_row in zip(values.tolist(), seen.tolist())]
    path = tmp_path / "m.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    expected = _outcome(_reference_read, path, False)

    def per_row(*args):
        raise AssertionError("the per-row path ran")

    monkeypatch.setattr("usvt.matrixio._parse_row", per_row)
    assert _outcome(read_matrix_csv, path, False) == expected
    assert expected[0] == "arrays"


@pytest.mark.parametrize("data, header, line, byte", [
    (b"1.0,\xff\n", False, 1, "0xff"),
    (b"1,2\r\n3,4\r5,\xe9\n", False, 3, "0xe9"),
    (b"c0,c\x801\n1,2\n", True, 1, "0x80"),
    (b"1,2\n3,NA\n\xc3", False, 3, "0xc3"),
])
def test_undecodable_byte_reports_line(tmp_path, data, header, line, byte):
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    with pytest.raises(MatrixFormatError) as err:
        read_matrix_csv(path, header=header)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: not UTF-8: byte {byte}"


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
    ("\n", False),
    ("\r\n\r\n", False),
    ("c0\n\n", True),
    ("1,-NA\n", False),
    ("+NA,1\n", False),
    ("NA-,1\n", False),
    ("1NA,2\n", False),
    ("NAN\n", False),
    ("NANA,NA\n", False),
    ("NA,N\nA,NA\n", False),
    ("NA,1\n1e400,NA\n", False),
    ("1\x0b,NA\n\x0cNA,-2.5\n", False),
    ("c0,c1\nNA\x1f, 3\n4,\x0bNA\n", True),
])
def test_reader_matches_reference_cases(tmp_path, text, header):
    # A tall one-column file, two header-only files, rows that only the
    # field-by-field parse accepts, bodies of newlines only, plain fields
    # that only look like NA or overflow, and valid rows whose padding
    # (vertical tab, form feed, unit separator) only the per-row path takes.
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
    # Ten seeded decimals of each digit count k at each exponent e, as float() reads them.
    digits = make_rng(29)
    decimals = np.array([float(f"{m}e{e + 1 - k}") for k in range(1, 18) for e in range(-4, 16)
                         for m in digits.integers(10 ** (k - 1), 10 ** k, 10)])
    return {
        "powers of two": 2.0 ** np.arange(-20, 61),
        "powers of ten": _ulp_neighbours(10.0 ** np.arange(-6, 18)),
        "short decimals": _ulp_neighbours(short),
        "integers": np.concatenate([2.0**53 + np.arange(-40, 41), 1e16 + np.arange(-40, 41)]),
        "1e-4": _ulp_neighbours(np.array([1e-4, -1e-4])),
        "every digit count": _ulp_neighbours(decimals),
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


def test_powers_of_two_take_the_exact_path():
    # Every power of two in [1e-4, 1e16), where the rounding interval is
    # not symmetric, and matrices of short binary values.
    powers = 2.0 ** np.arange(-13, 54)
    assert powers[0] >= 1e-4 > powers[0] / 2 and powers[-1] < 1e16 <= 2 * powers[-1]
    rng = make_rng(7)
    for values in (np.concatenate([powers, -powers])[None, :],
                   rng.choice([-1.0, 1.0], (20, 50)), rng.integers(-4, 5, (20, 50)) * 0.5):
        text, slow = _format_rows(values)
        assert text == _repr_text(values)
        assert slow == 0


def test_writer_memory_is_bounded(tmp_path):
    values = make_rng(4).uniform(-1, 1, (1000, 1000))
    tracemalloc.start()
    try:
        write_matrix_csv(tmp_path / "m.csv", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
