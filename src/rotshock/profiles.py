"""One-dimensional data profiles (boundary data, wall shape, upstream speed).

A profile is a smooth scalar function of one variable that we can also
differentiate.  Three concrete sources are supported:

* polynomial coefficients in ascending order, ``[c0, c1, ...]``,
* a two-column table ``(x, f)`` interpolated by a cubic spline,
* an arbitrary callable (differentiated by a spline fit on demand).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigError

__all__ = ["Profile", "is_number", "profile_from_json"]


def is_number(v):
    """A finite int or float; not a bool (JSON true/false would pass as 1/0)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


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
        s = CubicSpline(x, f)
        ds = tuple(s.derivative(k) for k in (1, 2, 3))
        return cls(s, ds)

    @classmethod
    def from_callable(cls, fun, lo, hi, n=513, label="callable"):
        x = np.linspace(lo, hi, n)
        return cls.from_table(x, fun(x), label=label)

    @classmethod
    def constant(cls, value):
        return cls.from_poly([value])


def profile_from_json(value, key, base_dir="."):
    """Build a profile from a JSON config value.

    Accepted forms: number (constant), list of numbers (ascending polynomial
    coefficients), or ``{"table": "<csv path>"}`` with two comma separated
    columns ``x,f`` and an optional header line.  Every number must be
    finite and no boolean: anything else raises ``ConfigError`` naming ``key``.
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
        return Profile.from_table(data[:, 0], data[:, 1], label=key)
    raise ConfigError(f"{key}: expected number, coefficient list, or {{'table': path}}")


def _header_rows(path):
    with open(path) as fh:
        first = fh.readline()
    try:
        [float(v) for v in first.strip().split(",")[:2]]
        return 0
    except ValueError:
        return 1
