"""The CSV artifact format: a header line of names, then one line per row.

Floats are written with %.17g, which round-trips every binary64 value; other
cells with %s, a text cell holding a comma, quote or newline quoted per RFC 4180.
A 2-D column is written in row-major order.

Every float cell holds the bytes of ``"%.17g" % v``, but most cells get them
from numpy arithmetic on a block of lines at a time.  For 10**e <= |v| <
10**(e+1) the 17 digits are D = round(|v| 10**(16-e)).  The product is
formed exactly enough to certify that rounding: 10**(16-e) is held as
``hi + lo`` to 2**-106 relative, from exact integer ratios at import, and
Dekker's exact two-product (Numer. Math. 18 (1971) 224) splits |v| hi into
the integer p and a rest, so that |v| 10**(16-e) = p + t within 2**-47.  Where t lies more
than ``_TIE`` from a half-integer, D = p + rint(t) is the correct rounding.
Every other cell goes through ``"%.17g"`` itself: zeros, subnormals,
infinities, NaN, |v| outside [1e-99, 1e99) (three-digit exponents), exact
and near ties, D = 10**16 or a rounding up to 10**17, and integers of 10 or
more that end in 0 (``%g`` would strip their zeros).

A float cell takes 48 bytes of a NUL-padded block: sign and leading
``0.000``, the 17 digits each followed by a slot for the point, and
``e+dd``; the digits come four at a time from a table whose trailing zeros
are NUL.  Dropping the NULs with one ``bytes.translate`` per block leaves
``%g``'s stripped text.  Blocks of ``_BLOCK`` lines bound the memory the
writer adds to a run; the file's bytes do not depend on them.
"""

import numpy as np

from .errors import ConfigError

# Lines per block, set by peak memory: a block holds 48 bytes per float cell
# (0.7 MB for the 7 columns of a field file) and its temporaries about as
# much again; writing a 257x129 field file peaks at 1.35-1.53 MB (traced),
# against 0.84-1.15 MB for one "%.17g" per cell.  Larger blocks write no
# faster.
_BLOCK = 2048
_EMAX = 99   # the largest |e| on the numpy path: two-digit exponents
_CELL = 6    # 8-byte words per float cell, see _floats
_TEXT = 44   # bytes of a float cell that can hold text; the separator follows
# Bound on the error of t: the rounding of lo (2**-106 relative to hi, times
# |v| hi < 2**57) and of the product |v| lo err by at most 2**-49 each, the
# sum with Dekker's rest (|t| < 2**5) by 2**-48.  _TIE leaves a factor of 128.
_TIE = 2.0 ** -40


def _split(a):
    """Veltkamp's split of ``a`` into halves of 26 bits: a = hi + lo exactly."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _words(rows):
    """Each row of the byte strings ``rows`` (at most 8 bytes, NUL-padded) as one 8-byte word."""
    return np.array(rows, dtype="S8").view(np.uint64)


def _tables():
    """(hi, lo, hi's two halves, zeros, head, quads, tail, point) for the numpy path.

    ``hi[e + _EMAX] + lo[e + _EMAX]`` is 10**(16-e), with hi the nearest
    double and lo the nearest double to the rest.  ``zeros[g]`` counts the
    trailing zeros of g < 10000 as four digits.  The rest are 8-byte words
    of a cell (see ``_floats``): ``head[50 * negative + 10 * z + d]`` holds
    the sign, for z > 0 ``0.`` and z - 1 zeros, and the digit d; ``quads[g]``
    the four digits of g, each followed by an empty point slot, and
    ``quads[10000 + g]`` the same with g's trailing zeros NUL;
    ``tail[100 * (e < 0) + |e|]`` is ``e-dd`` or ``e+dd`` and ``tail[200]``
    is empty; ``point[j]`` has ``.`` in the slot after digit j and
    ``point[16]`` is empty.
    """
    hi, lo = [], []
    for e in range(-_EMAX, _EMAX + 1):
        # 10**(16-e) = num / den; int / int is rounded correctly
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        m, s = (num / den).as_integer_ratio()
        hi.append(m / s)
        lo.append((num * s - m * den) / (den * s))
    hi = np.array(hi)
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # of 0..9999
    zero = np.logical_and.accumulate(digits[::-1] == 0)[::-1]  # digits k.. all 0
    quads = np.zeros((2, 10000, 8), np.uint8)
    quads[:, :, ::2] = 48 + digits.T
    quads[1, :, ::2][zero.T] = 0
    quads = quads.view(np.uint64).ravel()
    zeros = zero.sum(axis=0)
    head = _words([(s + ("0." + "0" * (z - 1) if z else "")).rjust(6, "\0") + str(d)
                   for s in ("", "-") for z in range(5) for d in range(10)])
    tail = _words([f"e{s}{e:02d}" for s in "+-" for e in range(100)] + [""])
    point = _words(["\0" * 7 + "."] + ["\0" * (2 * (j % 4) + 1) + "." for j in range(15)] + [""])
    return hi, np.array(lo), *_split(hi), zeros, head, quads, tail, point


_TABLES = _tables()  # at import: see the comment after _formatted


def _floats(x, cell):
    """Write ``"%.17g" % v`` for the float64 vector ``x`` into ``cell``,
    an ``(x.size, _CELL)`` array of 8-byte words, one row per value.

    A row's 48 bytes are: the sign and the ``0.000`` of fixed notation
    below 1, as far as needed (bytes 0-5); digit j of the 17 in byte 6 + 2j
    and the slot for a point after it in byte 7 + 2j; ``e+dd`` (bytes
    40-43); and NUL, which the writer drops, in every byte left unused.
    The point, where it is written, follows digit e in fixed notation
    (1e-4 <= |v| < 1e17) and digit 0 otherwise.
    """
    hi, lo, hi1, hi2, zeros, head, quads, tail, point = _TABLES
    ax = np.abs(x)
    fast = (ax >= 1e-99) & (ax < 1e99)
    ax = np.where(fast, ax, 1.0)
    e = np.clip(np.floor(np.log10(ax)).astype(np.int64), -_EMAX, _EMAX)
    k = e + _EMAX
    p = ax * hi[k]
    a1, a2 = _split(ax)
    t = ((a1 * hi1[k] - p) + a1 * hi2[k] + a2 * hi1[k] + a2 * hi2[k]) + ax * lo[k]
    d = p.astype(np.int64) + np.rint(t).astype(np.int64)
    # D > 10**16 also rejects an exponent e one too high, D < 10**17 one too low
    fast &= (np.abs(t - np.floor(t) - 0.5) > _TIE) & (d > 10**16) & (d < 10**17)
    d = np.where(fast, d, 10**16)
    upper = d // 10**8
    lower = d - upper * 10**8
    groups = (upper // 10**4 % 10**4, upper % 10**4, lower // 10**4, lower % 10**4)
    g1, g2, g3, g4 = groups
    tz = np.where(g4 > 0, zeros[g4], 4 + np.where(g3 > 0, zeros[g3], 4 + np.where(
        g2 > 0, zeros[g2], 4 + zeros[g1])))  # trailing zeros of D

    fixed = (e >= -4) & (e < 17)
    after = np.where(fixed, e, 0)  # the digit a point follows; < 0 for 0.000ddd
    # an integer whose last digit before the point is 0 would lose that 0
    fast &= (after <= 0) | (tz < 17 - after)
    dot = np.where((after >= 0) & (tz < 16 - after), after, 16)
    dot_word = np.where(dot == 0, 0, (dot + 3) // 4)
    dots = point[dot]
    words = [head[50 * (x < 0) + 10 * np.where(fixed & (e < 0), -e, 0) + upper // 10**8]]
    # a group's trailing zeros are NUL only where every later digit is 0
    for g, later_zero in zip(groups, ((g2 == 0) & (lower == 0), lower == 0, g4 == 0, True)):
        words.append(quads[g + 10000 * later_zero])
    for i, w in enumerate(words):
        cell[:, i] = np.where(dot_word == i, w | dots, w)
    cell[:, -1] = tail[np.where(fixed, 200, 100 * (e < 0) + np.abs(e))]

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{8 * _CELL}")
        cell[slow] = text.view(np.uint64).reshape(-1, _CELL)


def _quote(s):
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\n\r') else s


def _text(cells):
    """The ``(len(cells), width)`` NUL-padded byte matrix of the strings ``cells``."""
    raw = [s.encode() for s in cells]
    if any(b"\0" in s for s in raw):
        raise ValueError("a CSV text cell cannot hold a NUL character")
    m = np.array(raw, dtype=bytes)
    return m.view(np.uint8).reshape(len(raw), m.itemsize)


def _column(values):
    """``(cells, repeat)`` of one column, in row-major order.

    ``cells`` is a float64 vector, formatted a block at a time, or a
    ``(k, width)`` byte matrix of k formatted cells.  ``repeat`` is None
    where line i holds cell i, and ``(q, m)`` where it holds cell i // q % m:
    a 2-D float column whose rows all repeat its first row bit for bit (so
    -0.0 and 0.0 differ) is formatted once per row entry, one whose columns
    all repeat its first column once per column entry.  The bytes are the
    same either way.
    """
    a = np.asarray(values)
    if a.dtype.kind != "f":
        return _text([_quote(str(v)) for v in a.ravel().tolist()]), None
    a = a.astype(np.float64, copy=False)
    if a.ndim == 2 and a.size:
        bits = a.view(np.uint64)
        if (bits == bits[:1]).all():
            return _formatted(a[0]), (1, a.shape[1])
        if (bits == bits[:, :1]).all():
            return _formatted(a[:, 0]), (a.shape[1], a.shape[0])
    return a.ravel(), None


def _formatted(x):
    cell = np.zeros((x.size, _CELL), np.uint64)
    _floats(x, cell)
    return cell.view(np.uint8)[:, :_TEXT]


# The tables (2.3 ms) and one pass of the numpy path (0.5 ms) run at import.
# Run at the first write instead, after a solve, their allocations and
# numpy's first-use ones landed above the solver's freed arrays and kept
# the C heap from shrinking: the peak memory of repeated 257x129 solves
# rose 3.8%.
_formatted(np.array([0.25, -3e-5]))


def _lines(columns, start, stop):
    """The bytes of data lines ``start`` to ``stop - 1``.

    Each column takes the same bytes of every line of the block, its cell's
    text and then the separator, from a multiple of 8 so that float cells
    are whole words.
    """
    widths = [_TEXT if cells.ndim == 1 else cells.shape[1] for cells, _ in columns]
    offsets = np.cumsum([0] + [-(-(w + 1) // 8) * 8 for w in widths])
    raw = bytearray((stop - start) * offsets[-1])
    block = np.frombuffer(raw, np.uint8).reshape(stop - start, offsets[-1])
    for (cells, repeat), width, at in zip(columns, widths, offsets):
        if repeat is None:
            rows = slice(start, stop)
        else:
            rows = np.arange(start, stop) // repeat[0] % repeat[1]
        if cells.ndim == 1:
            _floats(cells[rows], block.view(np.uint64)[:, at // 8:at // 8 + _CELL])
        else:
            block[:, at:at + width] = cells[rows]
        block[:, at + width] = 44  # ','
    block[:, at + width] = 10  # '\n'
    return raw.translate(None, b"\0")


def write_csv(path, columns):
    """Write ``columns``, an ordered mapping from name to values, to ``path``."""
    cols = [_column(v) for v in columns.values()]
    n = min(np.size(v) for v in columns.values())
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for start in range(0, n, _BLOCK):
            fh.write(_lines(cols, start, min(start + _BLOCK, n)))


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
