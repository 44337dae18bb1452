"""Tests for the loss-file reader and the atomic CSV writer."""

import csv
import math

import numpy as np
import pytest

from xolopt.dataio import read_loss_csv, write_csv_atomic
from xolopt.errors import LossParseError


def _read(tmp_path, text):
    path = tmp_path / "claims.csv"
    path.write_text(text)
    return read_loss_csv(path)


@pytest.mark.parametrize("text,expected", [
    ("1.5\n0\n2e3\n", [1.5, 0.0, 2000.0]),                    # no header
    ("loss\n1.5\n0.25\n", [1.5, 0.25]),                        # a header alone
    ("id,LOSS,region\n7,1.5,north\n8,2.5,south\n", [1.5, 2.5]),  # among several
    ("\n\nloss\n\n1.5\n ,\n2.5\n\n", [1.5, 2.5]),           # blank lines
    ('loss\n"1.5"\n" 2.5 "\n', [1.5, 2.5]),                     # quoted cells
    ("id,loss\n1,1_000.5\n2, -0.0 \n", [1000.5, -0.0]),         # what float() takes
])
def test_reader_returns_the_loss_column(tmp_path, text, expected):
    got = _read(tmp_path, text)
    assert got.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in expected]


@pytest.mark.parametrize("text,line,message", [
    ("loss\n1.5\nabc\n2\n", 3, "not a number: 'abc'"),
    ("loss\n1.5\n\n-2\n", 4, "negative loss: '-2'"),
    ("1.5\n2\ninf\n", 3, "non-finite loss: 'inf'"),
    ("loss\n1\nnan\n-1\n", 3, "non-finite loss: 'nan'"),
    ("loss\n1\n-inf\n", 3, "non-finite loss: '-inf'"),
    ("loss\n1\n-3\nnan\n", 3, "negative loss: '-3'"),
    ("id,loss\n1,2\n3\n", 3, "row has no column 2"),
    ("id,loss\n1,2\n2,\n", 3, "not a number: ''"),
    ("1.5,2.5\n3,4\n", 1, "multi-column input needs a header with a 'loss' column"),
    ("\namount\n1\n", 2, "not a number: 'amount'"),
])
def test_reader_names_the_line_of_a_bad_record(tmp_path, text, line, message):
    with pytest.raises(LossParseError) as info:
        _read(tmp_path, text)
    assert str(info.value) == message
    assert info.value.line == line


@pytest.mark.parametrize("text", ["", "\n\n", "loss\n", "loss\n\n , \n"])
def test_reader_refuses_a_file_without_records(tmp_path, text):
    with pytest.raises(LossParseError, match="^no loss records found$") as info:
        _read(tmp_path, text)
    assert info.value.line == 0


def test_numeric_rows_keep_their_plain_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv_atomic(path, ("n", "x", "ok"), [(3, 0.1234567891, True), (4, float("nan"), False)])
    assert path.read_text() == "n,x,ok\n3,0.123457,true\n4,,false\n"


def test_cell_with_a_comma_stays_one_field(tmp_path):
    path = tmp_path / "curve.csv"
    error = "DomainError: var level must be in (0, 1), got 1.0"
    write_csv_atomic(
        path, ("param", "d_hat", "ci_lo", "ci_hi", "error"),
        [(0.9, 1.5, 1.2, 1.8, ""), (1.0, float("nan"), float("nan"), float("nan"), error)],
    )
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [5, 5, 5]
    assert rows[2][4] == error


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_float_array_writes_the_text_of_its_rows_as_tuples(tmp_path, columns):
    """An array is formatted in one pass; each row reads as the tuple of its
    Python floats would, NaN as an empty cell."""
    values = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, 1.7976931348623157e308,
                       -2.5e15, 123456789.0, 0.1234567891, 1.0, math.nan, -math.nan,
                       math.inf, -math.inf, 1e-5, 1e16, 2.0 / 3.0])
    rng = np.random.default_rng(3)
    table = np.column_stack([rng.permutation(values) for _ in range(columns)])
    table = np.vstack([table, np.full((1, columns), math.nan)])  # a row of gaps only
    header = tuple(f"c{i}" for i in range(columns))
    write_csv_atomic(tmp_path / "array.csv", header, table)
    got = (tmp_path / "array.csv").read_bytes()
    # rows of numpy scalars, and of Python floats
    for rows in ([tuple(row) for row in table], [tuple(row) for row in table.tolist()]):
        write_csv_atomic(tmp_path / "tuples.csv", header, rows)
        assert got == (tmp_path / "tuples.csv").read_bytes()
    assert got.endswith((b'""\n' if columns == 1 else b"," * (columns - 1) + b"\n"))
