"""Tests for the atomic CSV writer."""

import csv

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
