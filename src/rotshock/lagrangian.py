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
conservation checks.  The background's mass coordinate ``bg.y2`` is a closed
form; only the inflow's flux perturbation is integrated, by ``fd.cumsimpson``
(``scipy.integrate.cumulative_simpson`` bit for bit), so its quadrature error
is multiplied by sigma.

Values between nodes come from one interpolant, ``lagrange``: the heights
x2(y2) of the hatted background, the inverse inlet maps and the front traces
of ``Field.trace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .background import special_solution
from .csvio import write_csv
from .errors import ConfigError, InvalidStateError
from .fd import cumsimpson
from .profiles import Profile
from .thermo import GasModel, rho_P

__all__ = [
    "Geometry",
    "LagrangianGrid",
    "Field",
    "hatted_background",
    "HattedProfiles",
    "inlet_maps",
    "lagrange",
]

# nodes of the interpolant ``lagrange``: degree 5
LAGRANGE_NODES = 6
_STENCIL = np.arange(LAGRANGE_NODES)[:, None]
_OFF_DIAGONAL = ~np.eye(LAGRANGE_NODES, dtype=bool)[:, :, None]


def lagrange(x, q):
    """(rows, w): the LAGRANGE_NODES nodes of the strictly increasing ``x``
    around each q[j] (the first or last ones near the ends), located by
    ``searchsorted``, and their Lagrange weights, exactly 1 and 0 at a node:
    sum(w[:, j] * y[rows[:, j]]) is the polynomial through (x, y) at q[j].
    """
    m = min(LAGRANGE_NODES, x.size)
    q = np.asarray(q, dtype=float).reshape(-1)
    first = np.searchsorted(x, q, "right") - 1 - (m - 1) // 2
    rows = np.clip(first, 0, x.size - m) + _STENCIL[:m]
    xs = x[rows]
    # l_j = prod_{k != j} (q - x_k) / prod_{k != j} (x_j - x_k)
    off = _OFF_DIAGONAL[:m, :m]
    return rows, (np.where(off, q - xs, 1.0).prod(axis=1)
                  / np.where(off, xs[:, None] - xs, 1.0).prod(axis=1))


def _sample(x, y, q):
    """The rows of ``y`` (one per node of ``x``, any columns after) at ``q``."""
    rows, w = lagrange(x, q)
    return np.einsum("ij,ij...->j...", w, y[rows])


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
    """Named nodal components on a LagrangianGrid (axis 0 = y1, axis 1 = y2):
    (n1, n2) arrays, or the (n2,) y2-row of a component that rides along y1,
    as S and B do.  ``write_csv`` repeats a row on every y1 node."""

    grid: LagrangianGrid
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        shapes = ((self.grid.n1, self.grid.n2), (self.grid.n2,))
        for name, arr in self.data.items():
            if arr.shape not in shapes:
                raise InvalidStateError(
                    f"component {name!r} has shape {arr.shape}, expected one of {shapes}"
                )

    def __getitem__(self, name):
        return self.data[name]

    def trace(self, name, psi):
        """Component ``name`` at y1 = psi, by ``lagrange`` in y1.

        ``psi`` is a scalar (one y2-profile at a fixed y1) or one abscissa
        per y2 column; at a node the trace is the stored row.  A y2-row
        component has no y1-dependence to trace: ``InvalidStateError``.
        """
        arr = self.data[name]
        if arr.ndim == 1:
            raise InvalidStateError(f"component {name!r} is a y2-row; it rides along y1")
        rows, w = lagrange(self.grid.y1, psi)
        return (w * np.take_along_axis(arr, rows, axis=0)).sum(axis=0)

    def write_csv(self, path, extra_columns=None):
        """Dump as CSV with columns y1, y2, <components...>[, extras]."""
        g = self.grid
        columns = {"y1": g.y1[:, None], "y2": g.y2, **self.data}
        write_csv(path, {**{k: np.broadcast_to(v, (g.n1, g.n2)) for k, v in columns.items()},
                         **(extra_columns or {})})


@dataclass
class HattedProfiles:
    """Background profiles re-parametrised by the mass coordinate y2.

    For each side s in {"m", "p"} (upstream/downstream) the dict ``vals[s]``
    holds nodal arrays on ``y2`` for u, rho, P, S, B, c2 (sound speed
    squared), Msq, and exact-chain derivatives du, dS (d/dy2).  ``x2``
    is the inverse Lagrangian map X2(y2); the mass flux rho*u agrees on the
    two sides by construction, to round-off.
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

    Returns (m, m_bar, x2_of_y2), x2_of_y2 the ``lagrange`` interpolant of
    x2 over y2.  At sigma = 0 that is the background's own mass coordinate
    ``bg.y2`` and m = m_bar; at sigma > 0 the inflow flux perturbed by
    ``pert`` adds sigma times the ``cumulative_simpson`` integral of its
    perturbation.
    """
    x2 = bg.x2
    m_bar = m = bg.m_bar
    y2_nodes = bg.y2
    sigma = 0.0 if pert is None else pert.sigma
    if sigma != 0.0:
        u1 = bg.u_m + sigma * pert.u1_en(x2)
        u2 = sigma * pert.u2_en(x2)
        S = bg.S_m + sigma * pert.S_en(x2)
        B = bg.B_m + sigma * pert.B_en(x2)
        rho_en, _ = rho_P(S, B, u1, u2, bg.gas)
        flux_en = rho_en * pert.u1_en(x2)
        if np.any(bg.mass_flux + sigma * flux_en <= 0.0):
            raise InvalidStateError("perturbed inflow reverses: mass-flux density <= 0")
        cum = bg.y2 + sigma * cumsimpson(flux_en, x2)
        m = float(cum[-1])
        # y2 = (m_bar/m) * cum(x2); strictly increasing
        y2_nodes = (m_bar / m) * cum
        y2_nodes[-1] = m_bar  # exact upper end
    return m, m_bar, lambda y2: _sample(y2_nodes, x2, y2)


def hatted_background(bg, n2) -> HattedProfiles:
    """Sample the background in Lagrangian coordinates on n2 nodes of [0, m_bar].

    The heights x2(y2) are read by ``lagrange`` over ``bg.y2``; there the
    pressure is P_top + beta (m_bar - y2) on the upstream side, and
    ``special_solution`` gives both sides' states and their x2-derivatives.
    """
    mb = bg.m_bar
    y2 = np.linspace(0.0, mb, n2)
    x2q = np.clip(_sample(bg.y2, bg.x2, y2), 0.0, 1.0)
    at, deriv = special_solution(bg.spec, bg.gas, x2q, bg.spec.P_top + bg.gas.beta * (mb - y2))
    # chain rule dq/dy2 = (dq/dx2) / (rho*u), with exact x-derivatives
    flux = at["rho_m"] * at["u_m"]
    g = bg.gas.gamma
    vals = {}
    for side in ("m", "p"):
        u, rho, P = at["u_" + side], at["rho_" + side], at["P_" + side]
        c2 = g * P / rho
        vals[side] = {
            "u": u, "rho": rho, "P": P, "S": at["S_" + side], "B": at["B_" + side],
            "c2": c2, "Msq": u * u / c2, "du": deriv["u_" + side] / flux,
            "dS": deriv["S_" + side] / flux,
        }
    return HattedProfiles(y2=y2, m_bar=mb, x2=x2q, vals=vals, gas=bg.gas)
