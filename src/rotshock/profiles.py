"""One-dimensional data profiles (boundary data, wall shape, upstream speed).

A profile is a smooth scalar function of one variable that we can also
differentiate.  Three concrete sources are supported:

* polynomial coefficients in ascending order, ``[c0, c1, ...]``,
* a two-column table ``(x, f)`` interpolated by a cubic spline,
* an arbitrary callable (differentiated by a spline fit on demand).

``Spline`` is the not-a-knot cubic spline of the tables.  It reproduces
``scipy.interpolate.CubicSpline`` (default ``bc_type``), its derivatives
and their evaluation bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

__all__ = ["Profile", "Spline", "is_number", "profile_from_json"]


def is_number(v):
    """A finite int or float; not a bool (JSON true/false would pass as 1/0)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


class Spline:
    """Piecewise polynomial on the knots ``x`` (n >= 2), ``c[j, i]`` the
    coefficient of (q - x[i])**(k - j) on interval i, k the degree.  The
    layout and the arithmetic are those of ``scipy.interpolate.PPoly``.
    """

    def __init__(self, x, c):
        self.x = x
        self.c = c

    @classmethod
    def not_a_knot(cls, x, y):
        """The not-a-knot cubic spline through (x[i], y[i]); x strictly
        increasing with n >= 4 nodes, y of shape (n,).

        Knot slopes as ``CubicSpline`` solves for them (``_knot_slopes``),
        then the Hermite coefficients as ``CubicHermiteSpline`` forms them.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.size < 4 or y.shape != x.shape:
            raise ValueError(f"a not-a-knot spline needs >= 4 knots and one value per knot "
                             f"(got x {x.shape}, y {y.shape})")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("a not-a-knot spline needs finite knots and values")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        s = _knot_slopes(x, dx, slope)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        return cls(x, np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])))

    def derivative(self, nu):
        """The nu-th derivative, its coefficients scaled by p!/(p-nu)! for
        each power p, as ``PPoly.derivative`` scales them."""
        k = self.c.shape[0] - 1
        factor = np.array([math.perm(k - j, nu) for j in range(k + 1 - nu)], dtype=float)
        return Spline(self.x, self.c[:k + 1 - nu] * factor[:, None])

    def __call__(self, q):
        """Values at ``q``, extrapolated by the end polynomials outside the knots.

        Interval i holds x[i] <= q < x[i+1], the last one is closed; with
        s = q - x[i] the terms c[k] + c[k-1]*s + c[k-2]*s**2 + ... are added
        from a zero in that order, each power one product more than the last,
        as ``PPoly`` evaluates them.
        """
        q = np.asarray(q, dtype=float)
        i = np.clip(np.searchsorted(self.x, q, "right") - 1, 0, self.x.size - 2)
        c = self.c[:, i]
        s = q - self.x[i]
        out = 0.0 + c[-1]
        power = s
        for j in range(c.shape[0] - 2, -1, -1):
            out = out + c[j] * power
            if j:
                power = power * s
        return out


def _knot_slopes(x, dx, slope):
    """Knot slopes of the not-a-knot spline: ``CubicSpline``'s tridiagonal
    system, solved as LAPACK ``dgtsv`` (which ``solve_banded`` calls) solves it.

    ``dgtsv`` eliminates row by row with ``fact = dl/d``, interchanging rows
    i and i+1 when |dl[i]| > |d[i]|, then substitutes back; here in Python
    floats, one per row.  A row that was not interchanged has a zero second
    superdiagonal, whose term the back substitution leaves out: it only
    subtracts a zero.
    """
    n = x.size
    b = np.empty(n)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    w = x[2] - x[0]
    b[0] = ((dx[0] + 2 * w) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / w
    w = x[-1] - x[-3]
    b[-1] = (dx[-1]**2 * slope[-2] + (2 * w + dx[-1]) * dx[-2] * slope[-1]) / w

    d = [float(dx[1]), *(2 * (dx[:-1] + dx[1:])).tolist(), float(dx[-2])]
    du = [float(x[2] - x[0]), *dx[:-1].tolist()]
    dl = [*dx[1:].tolist(), float(x[-1] - x[-3])]
    du2 = [0.0] * (n - 2)
    fact = [0.0] * (n - 1)
    swap = [False] * (n - 1)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact[i] = dl[i] / d[i]
            d[i + 1] -= fact[i] * du[i]
        else:
            swap[i] = True
            fact[i] = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact[i] * temp
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact[i] * du2[i]
            du[i] = temp

    rows = b.tolist()
    for i in range(n - 1):
        if swap[i]:
            rows[i], rows[i + 1] = rows[i + 1], rows[i] - fact[i] * rows[i + 1]
        else:
            rows[i + 1] -= fact[i] * rows[i]
    rows[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        rows[i] -= du[i] * rows[i + 1]
        if i < n - 2 and du2[i]:
            rows[i] -= du2[i] * rows[i + 2]
        rows[i] /= d[i]
    return np.array(rows)


class Profile:
    """Scalar function on an interval with derivatives up to order 3."""

    def __init__(self, fun, derivs):
        self._fun = fun
        self._derivs = derivs  # tuple of callables f', f'', f'''

    def __call__(self, x):
        return self._fun(np.asarray(x, dtype=float))

    def deriv(self, k=1):
        if not 1 <= k <= 3:
            raise ValueError("only derivatives of order 1..3 are kept")
        return self._derivs[k - 1]

    @classmethod
    def from_poly(cls, coeffs):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        p = np.polynomial.Polynomial(coeffs)
        ds = tuple(p.deriv(k) for k in (1, 2, 3))
        return cls(lambda x: p(np.asarray(x, dtype=float)), ds)

    @classmethod
    def from_table(cls, x, f, label="table"):
        x = np.asarray(x, dtype=float)
        f = np.asarray(f, dtype=float)
        if x.ndim != 1 or x.size < 4 or np.any(np.diff(x) <= 0):
            raise ConfigError(f"{label}: table needs >=4 strictly increasing abscissae")
        s = Spline.not_a_knot(x, f)
        ds = tuple(s.derivative(k) for k in (1, 2, 3))
        return cls(s, ds)

    @classmethod
    def from_callable(cls, fun, lo, hi, n=513, label="callable"):
        x = np.linspace(lo, hi, n)
        return cls.from_table(x, fun(x), label=label)

    @classmethod
    def constant(cls, value):
        return cls.from_poly([value])


def profile_from_json(value, key, base_dir=".", interval=None):
    """Build a profile from a JSON config value.

    Accepted forms: number (constant), list of numbers (ascending polynomial
    coefficients), or ``{"table": "<csv path>"}`` with two comma separated
    columns ``x,f`` and an optional header line.  Every number must be
    finite and no boolean: anything else raises ``ConfigError`` naming ``key``.
    A table must cover ``interval`` (lo, hi), the interval ``key`` is read on
    when one is given: a spline extrapolated past its data is no datum.
    """
    import os

    if isinstance(value, (int, float)):
        if not is_number(value):
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        return Profile.constant(float(value))
    if isinstance(value, list):
        if not value or not all(is_number(v) for v in value):
            raise ConfigError(
                f"{key}: polynomial coefficients must be a non-empty list of finite numbers")
        return Profile.from_poly(value)
    if isinstance(value, dict):
        extra = set(value) - {"table"}
        if extra:
            raise ConfigError(f"{key}: unknown keys {sorted(extra)}")
        path = value.get("table")
        if not isinstance(path, str):
            raise ConfigError(f"{key}.table: expected a file path string")
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        if not os.path.exists(full):
            raise ConfigError(f"{key}.table: file not found: {full}")
        try:
            data = np.loadtxt(full, delimiter=",", skiprows=_header_rows(full))
        except ValueError as exc:
            raise ConfigError(f"{key}.table: cannot parse {full}: {exc}") from exc
        if data.ndim != 2 or data.shape[1] < 2:
            raise ConfigError(f"{key}.table: expected two columns in {full}")
        if not np.isfinite(data[:, :2]).all():
            raise ConfigError(f"{key}.table: non-finite value in {full}")
        prof = Profile.from_table(data[:, 0], data[:, 1], label=key)
        lo, hi = data[0, 0], data[-1, 0]
        if interval is not None and not (lo <= interval[0] and hi >= interval[1]):
            raise ConfigError(f"{key}.table: covers [{lo:g}, {hi:g}], but {key} is read on "
                              f"[{interval[0]:g}, {interval[1]:g}]")
        return prof
    raise ConfigError(f"{key}: expected number, coefficient list, or {{'table': path}}")


def _header_rows(path):
    with open(path) as fh:
        first = fh.readline()
    try:
        [float(v) for v in first.strip().split(",")[:2]]
        return 0
    except ValueError:
        return 1
