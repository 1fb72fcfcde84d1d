"""Second-order finite differences and trapezoid quadrature on uniform grids.

Central stencils inside, 3-point one-sided stencils on the boundary rows.
Axis 0 is the marching/streamwise direction, axis 1 the transverse one.
The trapezoid rule on grid nodes is stated once, here: the elliptic
assembly, the compatibility defect, the J functionals, the front and the
height reconstruction all use it, so the discrete identities between them
hold exactly.  ``cumsimpson``, the cumulative Simpson rule of the inflow's
flux perturbation over the background grid (``lagrangian.inlet_maps`` at
sigma > 0), reproduces ``scipy.integrate.cumulative_simpson`` bit for bit.
"""

import numpy as np

__all__ = ["d1", "d2", "trap_w", "trap", "cumtrap", "cumsimpson"]


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


def _simpson_halves(y, dx):
    """Simpson integral over the first subinterval of each node triple,
    the unequal-interval formula (x21, x32 the widths of the triple)."""
    x21 = dx[..., :-1]
    x32 = dx[..., 1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[..., :-2]
                      + (3 + x21x21_x31x32 + x21_x31) * y[..., 1:-1]
                      - x21x21_x31x32 * y[..., 2:])


def cumsimpson(y, x):
    """Cumulative Simpson rule of ``y`` over the nodes ``x`` along the last
    axis, starting from 0; at least 3 nodes.

    ``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)`` operation for
    operation: each subinterval takes the quadratic through its node triple,
    the left triple (the "h1" half) on even subintervals and the right one
    (the "h2" half, the formula on the reversed nodes) on odd ones and on the
    last, and one ``cumsum`` adds them up.
    """
    y = np.asarray(y, dtype=float)
    dx = np.diff(np.broadcast_to(np.asarray(x, dtype=float), y.shape), axis=-1)
    h1 = _simpson_halves(y, dx)
    h2 = np.flip(_simpson_halves(np.flip(y, axis=-1), np.flip(dx, axis=-1)), axis=-1)
    sub = np.empty(dx.shape)
    sub[..., :-1:2] = h1[..., ::2]
    sub[..., 1::2] = h2[..., ::2]
    sub[..., -1] = h2[..., -1]
    out = np.zeros(y.shape)
    out[..., 1:] = np.cumsum(sub, axis=-1)
    return out
