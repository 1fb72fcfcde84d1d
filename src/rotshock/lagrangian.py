"""Mass-flux (Lagrangian) coordinates for the nozzle flow.

The vertical coordinate is replaced by the scaled stream function
y2 = (m_bar/m) * int_0^x2 rho*u1 dx2', which maps the physical nozzle
(curved upper wall at x2 = 1 + sigma*g(x1)) onto the fixed rectangle
[0, L] x [0, m_bar].  Here

    m_bar = int_0^1 rho_minus*u_minus dx2          (background mass flux)
    m     = int_0^1 (rho_minus*u_minus + sigma*rho_en*u1_en) dx2

with rho_en the density of the perturbed inflow state.  All PDE solves
happen on the rectangle; the physical vertical position is recovered a
posteriori from x2 = (m/m_bar) int_0^y2 1/(rho*u1) ds.

Cumulative integrals of solution fields use the trapezoid rule on grid
nodes (``fd.cumtrap``), which preserves the discrete telescoping used in
conservation checks; the smooth background maps use composite Simpson
quadrature on the background grid.

A field is read off the grid at given y1 positions (the shock front) by
``Field.trace``: a cubic spline in y1 per component, evaluated column by
column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from .csvio import write_csv
from .errors import ConfigError, InvalidStateError
from .profiles import Profile
from .thermo import GasModel, rho_P

__all__ = [
    "Geometry",
    "LagrangianGrid",
    "Field",
    "hatted_background",
    "HattedProfiles",
    "inlet_maps",
]


@dataclass(frozen=True)
class Geometry:
    """Nozzle of length L with upper wall x2 = 1 + sigma*g(x1), sigma the
    perturbation size that ``PerturbationConfig`` holds."""

    L: float
    g: Profile

    def __post_init__(self):
        if self.L <= 0.0:
            raise ConfigError(f"nozzle length must be positive, got {self.L}")
        vals = [abs(float(self.g(0.0)))] + [
            abs(float(self.g.deriv(k)(0.0))) for k in (1, 2, 3)
        ]
        scale = max(1.0, max(abs(float(self.g(x))) for x in (0.5 * self.L, self.L)))
        if max(vals) > 1e-10 * scale:
            raise ConfigError(
                "wall shape g must vanish with its first three derivatives at "
                f"x1=0 (got {vals})"
            )


@dataclass(frozen=True)
class LagrangianGrid:
    """Uniform tensor grid on [y1a, y1b] x [0, m_bar]."""

    n1: int
    n2: int
    y1a: float
    y1b: float
    m: float
    m_bar: float

    def __post_init__(self):
        if self.n1 < 3 or self.n2 < 3:
            raise ConfigError(f"grid needs at least 3 nodes per direction ({self.n1}x{self.n2})")
        if not (self.m > 0.0 and self.m_bar > 0.0):
            raise InvalidStateError(f"mass fluxes must be positive: m={self.m}, m_bar={self.m_bar}")

    @property
    def y1(self):
        return np.linspace(self.y1a, self.y1b, self.n1)

    @property
    def y2(self):
        return np.linspace(0.0, self.m_bar, self.n2)

    @property
    def h1(self):
        return (self.y1b - self.y1a) / (self.n1 - 1)

    @property
    def h2(self):
        return self.m_bar / (self.n2 - 1)


@dataclass
class Field:
    """Named nodal components on a LagrangianGrid (axis 0 = y1, axis 1 = y2).

    The y1-splines that ``trace`` reads are built on first use and dropped
    when ``__setitem__`` replaces their component.
    """

    grid: LagrangianGrid
    data: dict = field(default_factory=dict)
    _splines: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = (self.grid.n1, self.grid.n2)
        for name, arr in self.data.items():
            if arr.shape != shape:
                raise InvalidStateError(
                    f"component {name!r} has shape {arr.shape}, expected {shape}"
                )

    def __getitem__(self, name):
        return self.data[name]

    def __setitem__(self, name, arr):
        self.data[name] = np.asarray(arr, dtype=float)
        self._splines.pop(name, None)

    def trace(self, name, psi):
        """Cubic spline in y1 of component ``name`` at y1 = psi.

        ``psi`` is a scalar (one y2-profile at a fixed y1) or one abscissa
        per y2 column.  Each column is evaluated with the spline's own
        piecewise coefficients in scipy's order, so the values equal
        ``CubicSpline(y1, comp, axis=0)(psi)`` (its diagonal for per-column
        psi) bit for bit.
        """
        spl = self._splines.get(name)
        if spl is None:
            spl = self._splines[name] = CubicSpline(self.grid.y1, self.data[name], axis=0)
        x = spl.x
        psi = np.asarray(psi, dtype=float)
        i = np.clip(np.searchsorted(x, psi, side="right") - 1, 0, x.size - 2)
        c = spl.c[:, i] if psi.ndim == 0 else spl.c[:, i, np.arange(psi.size)]
        s = psi - x[i]
        return c[3] + c[2] * s + c[1] * (s * s) + c[0] * (s * s * s)

    def copy(self):
        return Field(self.grid, {k: v.copy() for k, v in self.data.items()})

    def write_csv(self, path, extra_columns=None):
        """Dump as CSV with columns y1, y2, <components...>[, extras]."""
        g = self.grid
        shape = (g.n1, g.n2)
        write_csv(path, {"y1": np.broadcast_to(g.y1[:, None], shape),
                         "y2": np.broadcast_to(g.y2, shape),
                         **self.data, **(extra_columns or {})})


@dataclass
class HattedProfiles:
    """Background profiles re-parametrised by the mass coordinate y2.

    For each side s in {"m", "p"} (upstream/downstream) the dict ``vals[s]``
    holds nodal arrays on ``y2`` for u, rho, P, S, B, c2 (sound speed
    squared), Msq, and exact-chain derivatives du, dS, dB (d/dy2).  ``x2``
    is the inverse Lagrangian map X2(y2); the mass flux rho*u agrees on the
    two sides by construction.
    """

    y2: np.ndarray
    m_bar: float
    x2: np.ndarray
    vals: dict
    gas: GasModel

    def __getitem__(self, key):
        side, name = key
        return self.vals[side][name]


def inlet_maps(bg, pert=None):
    """Mass fluxes and the entrance height over the mass coordinate.

    Returns (m, m_bar, x2_of_y2), x2_of_y2 a cubic spline of x2 over y2,
    from the inflow flux perturbed by ``pert`` when its sigma is > 0 and
    from the background flux otherwise.
    """
    x2 = bg.x2
    flux0 = bg.mass_flux
    cum0 = cumulative_simpson(flux0, x=x2, initial=0.0)
    m_bar = float(cum0[-1])
    sigma = 0.0 if pert is None else pert.sigma
    if sigma == 0.0:
        m = m_bar
        cum = cum0
    else:
        u1 = bg.u_m + sigma * pert.u1_en(x2)
        u2 = sigma * pert.u2_en(x2)
        S = bg.S_m + sigma * pert.S_en(x2)
        B = bg.B_m + sigma * pert.B_en(x2)
        rho_en, _ = rho_P(S, B, u1, u2, bg.gas)
        integrand = flux0 + sigma * rho_en * pert.u1_en(x2)
        if np.any(integrand <= 0.0):
            raise InvalidStateError("perturbed inflow reverses: mass-flux density <= 0")
        cum = cumulative_simpson(integrand, x=x2, initial=0.0)
        m = float(cum[-1])
    # y2 = (m_bar/m) * cum(x2); strictly increasing
    y2_nodes = (m_bar / m) * cum
    y2_nodes[-1] = m_bar  # exact upper end
    return m, m_bar, CubicSpline(y2_nodes, x2)


def hatted_background(bg, n2=129) -> HattedProfiles:
    """Sample the background in Lagrangian coordinates on n2 nodes of [0, m_bar]."""
    _, mb, x2_of_y2 = inlet_maps(bg)
    y2 = np.linspace(0.0, mb, n2)
    x2q = np.clip(x2_of_y2(y2), 0.0, 1.0)
    # one spline through all 16 columns: its coefficients equal those of one
    # spline per column bit for bit
    names = [q + "_" + side for side in ("m", "p") for q in ("u", "rho", "P", "S", "B")]
    slopes = [q + "_" + side for side in ("m", "p") for q in ("u", "S", "B")]
    cols = np.column_stack([bg.profile(n) for n in names] + [bg.deriv[n] for n in slopes])
    at = dict(zip(names + ["d" + n for n in slopes], CubicSpline(bg.x2, cols)(x2q).T.copy()))
    # chain rule dq/dy2 = (dq/dx2) / (rho*u), with exact x-derivatives
    flux = at["rho_m"] * at["u_m"]
    g = bg.gas.gamma
    vals = {}
    for side in ("m", "p"):
        u, rho, P = at["u_" + side], at["rho_" + side], at["P_" + side]
        c2 = g * P / rho
        vals[side] = {
            "u": u, "rho": rho, "P": P, "S": at["S_" + side], "B": at["B_" + side],
            "c2": c2, "Msq": u * u / c2, "du": at["du_" + side] / flux,
            "dS": at["dS_" + side] / flux, "dB": at["dB_" + side] / flux,
        }
    hp = HattedProfiles(y2=y2, m_bar=mb, x2=x2q, vals=vals, gas=bg.gas)
    flux_m = vals["m"]["rho"] * vals["m"]["u"]
    flux_p = vals["p"]["rho"] * vals["p"]["u"]
    worst = np.abs(flux_m - flux_p).max() / np.abs(flux_m).max()
    if worst > 1e-10:
        raise InvalidStateError(f"hatted mass fluxes disagree by {worst:.3e}")
    return hp

