import csv
from decimal import Decimal

import numpy as np
import pytest

from rotshock import csvio, lagrangian
from rotshock.cli import _solve, parse_config
from rotshock.csvio import read_csv, write_csv
from tests import csv_oracle
from tests.conftest import DEMO_CONFIG

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


@pytest.mark.parametrize("n", [1, csvio._BLOCK - 1, csvio._BLOCK, csvio._BLOCK + 1])
def test_write_csv_matches_per_row_oracle(tmp_path, n):
    cols = columns(n)
    write_csv(tmp_path / "new.csv", cols)
    csv_oracle.write_csv(tmp_path / "old.csv", cols)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\n") == n + 1


def test_write_csv_refuses_columns_of_different_lengths(tmp_path):
    # it used to write min(len) rows: here the single line "1,1.5"
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError, match=r"differ in length: \{'a': 3, 'b': 1\}"):
        write_csv(path, {"a": [1, 2, 3], "b": [1.5]})
    assert not path.exists()


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
        assert csvio._column(cols[name])[1] is not None, name
    # a -0.0 where the first row holds 0.0 breaks the row repeat
    assert csvio._column(cols["near_repeat"])[1] is None
    assert csvio._column(cols["plain"])[1] is None


def assert_same_as_oracle(tmp_path, cols):
    write_csv(tmp_path / "new.csv", cols)
    csv_oracle.write_csv(tmp_path / "old.csv", cols)
    new, old = (tmp_path / "new.csv").read_bytes(), (tmp_path / "old.csv").read_bytes()
    if new != old:
        pairs = zip(new.decode().splitlines(), old.decode().splitlines())
        line, (got, want) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        pytest.fail(f"line {line}: {got!r} != {want!r}")


def test_random_bit_patterns_match_oracle(tmp_path):
    """1e6 doubles drawn as raw bits, so that every binary exponent is as
    likely as any other, with subnormals, zeros, infinities and NaNs of
    both signs; and 5e5 more whose binary exponent keeps them within
    1e-99 and 1e99, where the decimal exponent has two digits."""
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64)
    bits[::97] &= np.uint64(0x800F_FFFF_FFFF_FFFF)   # exponent field 0: subnormals and zeros
    bits[1::389] |= np.uint64(0x7FF0_0000_0000_0000)  # exponent field all ones: inf and nan
    x = bits.view(np.float64)
    x[2::1009] = np.resize([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], x[2::1009].size)
    assert np.isnan(x).any() and (x == 0).any() and (np.abs(x) < 2.2250738585072014e-308).any()
    mantissa = rng.integers(0, 2**53, 500_000, dtype=np.uint64)  # with the sign bit
    exponent = rng.integers(1023 - 328, 1023 + 329, mantissa.size).astype(np.uint64)
    near = (((mantissa >> np.uint64(52)) << np.uint64(63)) | (exponent << np.uint64(52))
            | (mantissa & np.uint64(2**52 - 1))).view(np.float64)
    assert 1e-100 < np.abs(near).min() and np.abs(near).max() < 1e100
    cols = {f"c{i}": c for i, c in enumerate([*x.reshape(4, -1), *near.reshape(2, -1)])}
    assert_same_as_oracle(tmp_path, cols)
    assert (tmp_path / "new.csv").read_bytes().count(b"\n") == 250_001


def ulp_neighbours(values, k=3):
    """Each of ``values`` with the k doubles above and below it, of both signs."""
    out = []
    for v in values:
        up = down = v
        out.append(v)
        for _ in range(k):
            with np.errstate(over="ignore"):  # above the largest double is inf
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    out = np.array(out)
    return np.concatenate([out, -out])


def test_notation_edges_match_oracle(tmp_path):
    """%g switches to exponent notation below 1e-4 and from 1e17 on; the
    digit count changes at every power of ten; three-digit exponents, the
    powers of ten and round 17-digit integers are formatted by %.17g."""
    edges = [1e-5, 1e-4, 1e16, 1e17, 1.0, 10.0, 0.1, 100.0, 120.0, 1e15, 99999999999999990.0,
             1e-99, 1e99, 1e100, 1e-100, 1e-308, 2.2250738585072014e-308, 5e-324,
             1.7976931348623157e308, 123456789012345680.0, 0.000123, 0.5, 3.0]
    powers = 10.0 ** np.arange(-120, 121)
    x = np.concatenate([ulp_neighbours(edges), ulp_neighbours(powers, k=1)])
    assert_same_as_oracle(tmp_path, {"x": x})


def test_exact_ties_round_half_even(tmp_path):
    """An odd N times 2**-j has j decimal places, the last a 5; where it has
    18 significant digits, it is an exact tie at the 17th, which %.17g
    rounds to even (1 + 2**-17 gives 1.0000076293945312)."""
    m = np.arange(1, 2**17, 2)
    ties = {
        "one": 1.0 + m / 2.0**17,
        "neg": -1.0 - m / 2.0**17,
        "large": (2.0**34 + m) / 2.0**10,                       # about 1.7e7
        "small": np.resize(np.arange(1049, 10486, 2), m.size) / 2.0**20,  # 0.001 to 0.01
    }
    for col in ties.values():
        digits = Decimal(float(col[-1])).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert "%.17g" % ties["one"][0] == "1.0000076293945312"
    assert_same_as_oracle(tmp_path, ties)


def test_text_cell_with_nul_is_refused(tmp_path):
    with pytest.raises(ValueError, match="NUL"):
        write_csv(tmp_path / "t.csv", {"x": np.ones(2), "text": ["a", "b\0c"]})


def test_demo_field_files_match_oracle(tmp_path, monkeypatch):
    """Both field files of the 129x65 demo, with the extras ``solve`` adds,
    are the oracle's bytes."""
    res = _solve(parse_config(DEMO_CONFIG))
    x2m, x2p = res.eulerian_heights()
    files = {
        "fields_minus.csv": (res.sup.V, {"x2": x2m}),
        "fields_plus.csv": (res.downstream_field(), {"x2": x2p, "y1_phys": res.front.Y1}),
    }
    for name, (field, extras) in files.items():
        field.write_csv(tmp_path / name, extra_columns=extras)
    monkeypatch.setattr(lagrangian, "write_csv", csv_oracle.write_csv)
    for name, (field, extras) in files.items():
        field.write_csv(tmp_path / f"oracle_{name}", extra_columns=extras)
        assert (tmp_path / name).read_bytes() == (tmp_path / f"oracle_{name}").read_bytes(), name
