"""The CSV artifact format: a header line of names, then one line per row.

Floats are written with %.17g, which round-trips every binary64 value; other
cells with %s, a text cell holding a comma, quote or newline quoted per RFC 4180.
"""

import numpy as np

# Rows formatted per write: a whole 257x129 field file at once takes 13% more peak memory.
_BLOCK = 256


def _quote(s):
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\n\r') else s


def write_csv(path, columns):
    """Write ``columns``, an ordered mapping from name to values, to ``path``."""
    cols = [np.asarray(v).ravel() for v in columns.values()]
    floats = [c.dtype.kind == "f" for c in cols]
    cols = [c if f else np.array([_quote(str(v)) for v in c.tolist()], dtype=object)
            for c, f in zip(cols, floats)]
    row = ",".join("%.17g" if f else "%s" for f in floats) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(0, cols[0].size, _BLOCK):
            fh.write("".join(row % r for r in zip(*(c[i:i + _BLOCK].tolist() for c in cols))))


def read_csv(path):
    """Read a numeric CSV artifact into a dict from column name to float array."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {n: data[:, i] for i, n in enumerate(names)}
