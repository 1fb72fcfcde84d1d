import csv

import numpy as np
import pytest

from rotshock import csvio
from rotshock.csvio import read_csv, write_csv
from tests import csv_oracle

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
           -2.2250738585072014e-308, 0.1, 1.0, 123456789.0]


def columns(n, seed=0):
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return {
        "special": np.resize(SPECIAL, n),
        "wide": wide,
        "unit": rng.random(n),
        "index": np.arange(n),
        "label": [f"run_{i}" for i in range(n)],
    }


@pytest.mark.parametrize("n", [1, csvio._BLOCK, csvio._BLOCK + 1])
def test_write_csv_matches_per_row_oracle(tmp_path, n):
    cols = columns(n)
    write_csv(tmp_path / "new.csv", cols)
    csv_oracle.write_csv(tmp_path / "old.csv", cols)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\n") == n + 1


def test_text_cells_are_rfc4180_quoted(tmp_path):
    text = ["plain", "[-0.058, 0.001]", 'say "hi"', "two\nlines"]
    write_csv(tmp_path / "t.csv", {"i": np.arange(4), "text": text, "x": np.ones(4)})
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "text", "x"]
    assert [r[1] for r in rows[1:]] == text
    assert all(len(r) == 3 for r in rows)


def test_read_csv_round_trips_floats(tmp_path):
    cols = {k: v for k, v in columns(300, seed=1).items() if k != "label"}
    write_csv(tmp_path / "f.csv", cols)
    back = read_csv(tmp_path / "f.csv")
    assert list(back) == list(cols)
    for k, v in cols.items():
        np.testing.assert_array_equal(back[k], v)


def repeated_columns(n1, n2, seed=0):
    """2-D float columns whose rows or columns repeat, with special values."""
    rng = np.random.default_rng(seed)
    row = np.resize(SPECIAL, n2) * rng.choice([1.0, -1.0], n2)
    col = np.resize(SPECIAL[::-1], n1)
    near = np.broadcast_to(np.where(row == 0.0, 0.0, row), (n1, n2)).copy()
    near[-1, np.flatnonzero(near[-1] == 0.0)] = -0.0  # bit-different last row
    return {
        "rows_repeat": np.broadcast_to(row, (n1, n2)),
        "cols_repeat": np.broadcast_to(col[:, None], (n1, n2)),
        "nan_rows": np.full((n1, n2), np.nan),
        "inf_rows": np.broadcast_to(np.resize([np.inf, -np.inf], n2), (n1, n2)),
        "neg_zero": np.full((n1, n2), -0.0),
        "near_repeat": near,
        "plain": rng.standard_normal((n1, n2)),
        "index": np.arange(n1 * n2),
    }


@pytest.mark.parametrize("n1,n2", [(1, 1), (4, 11), (csvio._BLOCK + 1, 3)])
def test_repeated_rows_and_columns_match_oracle(tmp_path, n1, n2):
    cols = repeated_columns(n1, n2)
    write_csv(tmp_path / "new.csv", cols)
    csv_oracle.write_csv(tmp_path / "old.csv", cols)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_repeat_detection_is_bitwise():
    cols = repeated_columns(4, 11)
    for name in ("rows_repeat", "cols_repeat", "nan_rows", "inf_rows", "neg_zero"):
        assert csvio._column(cols[name])[0] == "%s", name
    # a -0.0 where the first row holds 0.0 breaks the row repeat
    assert csvio._column(cols["near_repeat"])[0] == "%.17g"
    assert csvio._column(cols["plain"])[0] == "%.17g"

