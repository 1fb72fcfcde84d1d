"""Reflection extension of a profile from [0,1] to [0,2], used only by tests.

``extension_coefficients`` solves for the weights of the cubic-exact
reflection and ``extend_profile`` evaluates a profile on the extended grid.
The background no longer extends its profiles; the tests keep checking the
construction here.
"""

import numpy as np

from rotshock.background import DEFAULT_NODES


def extension_coefficients():
    """Coefficients c_1..c_4 of the cubic-exact reflection extension.

    They solve sum_k c_k (-1/k)^j = 1 for j = 0..3, so that
    f_e(y) = sum_k c_k f(1 + (1-y)/k) matches f and its first three
    derivatives at y = 1 and is exact for cubic polynomials.
    """
    k = np.arange(1, 5, dtype=float)
    V = np.vander(-1.0 / k, 4, increasing=True).T  # V[j, i] = (-1/k_i)^j
    c = np.linalg.solve(V, np.ones(4))
    return c


def extend_profile(f, n=DEFAULT_NODES):
    """Extend a profile given on [0,1] to [0,2].

    ``f`` is a callable evaluable on [0,1] (e.g. a cubic spline through nodal
    samples).  Returns ``(y, values)`` on a uniform grid over [0,2] with
    2*(n-1)+1 nodes; the lower half reproduces f, the upper half is the
    reflected combination with the Vandermonde coefficients.
    """
    c = extension_coefficients()
    y = np.linspace(0.0, 2.0, 2 * (n - 1) + 1)
    vals = np.empty_like(y)
    lower = y <= 1.0
    vals[lower] = f(y[lower])
    yu = y[~lower]
    acc = np.zeros_like(yu)
    for k in range(1, 5):
        acc += c[k - 1] * f(1.0 + (1.0 - yu) / k)
    vals[~lower] = acc
    return y, vals
