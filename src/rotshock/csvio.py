"""The CSV artifact format: a header line of names, then one line per row.

Floats are written with %.17g, which round-trips every binary64 value; other
cells with %s, a text cell holding a comma, quote or newline quoted per RFC 4180.
A 2-D column is written in row-major order.
"""

import numpy as np

from .errors import ConfigError

# Rows formatted per write: a whole 257x129 field file at once takes 13% more peak memory.
_BLOCK = 256


def _quote(s):
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\n\r') else s


def _formatted(values):
    return np.array(["%.17g" % v for v in values.tolist()], dtype=object)


def _column(values):
    """(cell format, flat cells) of one column, in row-major order.

    A 2-D float64 column whose rows all repeat its first row bit for bit
    (so -0.0 and 0.0 differ) is formatted once per row entry and tiled; one
    whose columns all repeat its first column is formatted once per column
    entry and repeated.  The cells are the same strings either way.
    """
    a = np.asarray(values)
    if a.dtype.kind != "f":
        return "%s", np.array([_quote(str(v)) for v in a.ravel().tolist()], dtype=object)
    if a.dtype == np.float64 and a.ndim == 2 and a.size:
        bits = a.view(np.uint64)
        if (bits == bits[:1]).all():
            return "%s", np.tile(_formatted(a[0]), a.shape[0])
        if (bits == bits[:, :1]).all():
            return "%s", np.repeat(_formatted(a[:, 0]), a.shape[1])
    return "%.17g", a.ravel()


def write_csv(path, columns):
    """Write ``columns``, an ordered mapping from name to values, to ``path``."""
    fmts, cols = zip(*(_column(v) for v in columns.values()))
    row = ",".join(fmts) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(0, cols[0].size, _BLOCK):
            fh.write("".join(row % r for r in zip(*(c[i:i + _BLOCK].tolist() for c in cols))))


def read_csv(path):
    """Read a numeric CSV artifact into a dict from column name to float array.

    A file without data rows, with a row whose cell count differs from the
    header's or with a non-numeric cell raises ``ConfigError`` naming it.
    """
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        rows = [line for line in fh if line.strip()]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if data.shape[1] != len(names):
        raise ConfigError(f"{path}: {data.shape[1]} cells per row under {len(names)} names")
    return {n: data[:, i] for i, n in enumerate(names)}
