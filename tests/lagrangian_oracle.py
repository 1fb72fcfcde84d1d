"""Reference helpers for the mass-coordinate map, used only by tests.

``x2_of_y`` recovers the physical height at any Lagrangian point by cubic
interpolation in y1 and a trapezoid integral in y2 with a partial-interval
correction; it checks ``RunResult.eulerian_heights`` at grid nodes.
``characteristic_speeds`` gives the characteristic slopes of the y1-marching
system in closed form.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from rotshock.errors import InvalidStateError
from rotshock.fd import cumtrap
from rotshock.lagrangian import LagrangianGrid


def x2_of_y(rho_u1, grid: LagrangianGrid, y1, y2, m=None, m_bar=None):
    """Physical height x2 at Lagrangian point(s) (y1, y2).

    ``rho_u1`` is the nodal mass-flux density on ``grid``.  The integrand
    1/(rho*u1) is interpolated in y1 (cubic) at the query abscissa and
    integrated in y2 by the trapezoid rule with a partial-interval
    correction at the endpoint.
    """
    m = grid.m if m is None else m
    m_bar = grid.m_bar if m_bar is None else m_bar
    rho_u1 = np.asarray(rho_u1, dtype=float)
    if np.any(rho_u1 <= 0.0):
        raise InvalidStateError(
            f"rho*u1 must stay positive for an invertible map (min {rho_u1.min():.3e})"
        )
    gy1, gy2 = grid.y1, grid.y2
    if grid.n1 >= 4:
        col = CubicSpline(gy1, 1.0 / rho_u1, axis=0)(float(y1))
    else:
        w = np.clip((float(y1) - grid.y1a) / (grid.y1b - grid.y1a), 0.0, 1.0)
        col = (1.0 - w) / rho_u1[0] + w / rho_u1[-1]
    cum = cumtrap(col, grid.h2)
    y2q = np.atleast_1d(np.asarray(y2, dtype=float))
    j = np.clip(np.searchsorted(gy2, y2q, side="right") - 1, 0, grid.n2 - 2)
    frac = y2q - gy2[j]
    fj = col[j]
    fq = fj + (col[j + 1] - fj) * (frac / grid.h2)
    out = (m / m_bar) * (cum[j] + 0.5 * (fj + fq) * frac)
    return out if np.ndim(y2) else float(out[0])


@dataclass(frozen=True)
class CharSpeeds:
    """Characteristic slopes of the y1-marching system (complex when subsonic)."""

    lam_plus: complex
    lam_minus: complex
    real: bool


def characteristic_speeds(u1, u2, c, rho, m, m_bar) -> CharSpeeds:
    """Roots lambda+- = (m/m_bar)(-u2 +- u1*sqrt(M1^2+M2^2-1)) / (rho |u|^2).

    Real pair iff M1^2 + M2^2 >= 1; complex-conjugate pair (elliptic regime)
    otherwise.
    """
    speed_sq = u1 * u1 + u2 * u2
    if speed_sq == 0.0:
        raise InvalidStateError("characteristic speeds undefined at |u| = 0")
    disc = (speed_sq) / (c * c) - 1.0
    pref = m / (m_bar * rho * speed_sq)
    if disc >= 0.0:
        root = u1 * np.sqrt(disc)
        return CharSpeeds(pref * (-u2 + root), pref * (-u2 - root), True)
    root = u1 * np.sqrt(-disc) * 1j
    return CharSpeeds(pref * (-u2 + root), pref * (-u2 - root), False)
