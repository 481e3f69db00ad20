import numpy as np
import pytest

from usvt.errors import MatrixFormatError
from usvt.matrixio import NA_TOKEN, read_matrix_csv, write_matrix_csv
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
