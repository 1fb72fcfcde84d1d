"""Second-order finite differences and trapezoid quadrature on uniform grids.

Central stencils inside, 3-point one-sided stencils on the boundary rows.
Axis 0 is the marching/streamwise direction, axis 1 the transverse one.
The trapezoid rule on grid nodes is stated once, here: the elliptic
assembly, the compatibility defect, the J functionals, the front and the
height reconstruction all use it, so the discrete identities between them
hold exactly.
"""

import numpy as np

__all__ = ["d1", "d2", "trap_w", "trap", "cumtrap"]


def d1(f, h):
    """d/d(axis 0)."""
    out = np.empty_like(f)
    out[1:-1, :] = (f[2:, :] - f[:-2, :]) / (2 * h)
    out[0, :] = (-3 * f[0, :] + 4 * f[1, :] - f[2, :]) / (2 * h)
    out[-1, :] = (3 * f[-1, :] - 4 * f[-2, :] + f[-3, :]) / (2 * h)
    return out


def d2(f, h):
    """d/d(axis 1), the last axis; also differentiates 1-D arrays."""
    f = np.asarray(f)
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2 * h)
    out[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2 * h)
    out[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2 * h)
    return out


def trap_w(n):
    """Trapezoid weights (1/2, 1, ..., 1, 1/2) on n nodes, unit spacing."""
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def trap(v, h):
    """Trapezoid rule for the nodal values ``v`` (1-D) with spacing ``h``."""
    return float(np.sum(v * trap_w(len(v))) * h)


def cumtrap(v, h):
    """Cumulative trapezoid rule along the last axis, starting from 0."""
    out = np.zeros(np.shape(v))
    out[..., 1:] = np.cumsum(0.5 * (v[..., 1:] + v[..., :-1]) * h, axis=-1)
    return out
