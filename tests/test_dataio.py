"""Tests for the atomic CSV writer."""

import csv
import math

import numpy as np
import pytest

from xolopt.dataio import write_csv_atomic


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
