"""Shock linearization coefficients and the initial shock approximation.

The linearized problems for the velocity perturbations on either side of the
shock take divergence form after multiplication by integrating factors

    b2 = u_hat(0)/u_hat(y2),
    b4 = (u_hat/u_hat(0)) * exp(-(S_hat-S_hat(0))/gamma - int beta/(rho_hat c_hat^2)),
    b1 = (1 - M_hat^2) b2 / (rho_hat u_hat),     b3 = b4 / (rho_hat u_hat),

(b1 is positive downstream, negative upstream).  Linearizing the jump
conditions couples the downstream traces to the upstream ones through

    u1dot_plus = fa1 * u1dot_minus,      Sdot_plus = fa2 * u1dot_minus + sigma*S_en,

where (fa1, fa2) come from the explicit inverse of the 2x2 trace matrices,
and the linearized exit-pressure condition brings in fa3 = -fa2 * P_plus /
((gamma-1) rho_plus u_plus).  Solvability of the downstream elliptic problem
then pins the shock position: J1(psi_bar) = J2, where J1 collects the
shock-trace and wall contributions and J2 the exit data.  Both functionals
are evaluated with the same trapezoid weights as the elliptic assembly, so
the root of J1 - J2 is exactly the discretely compatible position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fd
from .elliptic import EllipticProblem, solve
from .errors import (
    ConfigError,
    DegenerateBackgroundError,
    DegenerateSelectionError,
    IncompatibleDataError,
    NoAdmissibleShockError,
)
from .lagrangian import Field, LagrangianGrid

__all__ = [
    "ShockCoefficients",
    "ShockFront",
    "InitialApproximation",
    "b_coefficients",
    "eq2_zero_order",
    "eq2_sb_source",
    "coefficients",
    "J_functionals",
    "find_shock_position",
    "position_bracket",
    "solve_linear_subsonic",
    "downstream_nodes",
    "shock_slope",
    "initial_approximation",
]

# position search: J1 samples, relative tolerance on |J1 - J2|, most steps
POSITION_SAMPLES = 33
POSITION_TOL = 1e-10
POSITION_MAX_ITER = 60


def b_coefficients(hat, side):
    """Integrating-factor profiles (b1, b2, b3, b4) on the hatted y2 grid."""
    u = hat[side, "u"]
    rho = hat[side, "rho"]
    S = hat[side, "S"]
    Msq = hat[side, "Msq"]
    P = hat[side, "P"]
    g = hat.gas.gamma
    b2 = u[0] / u
    # int_0^y2 beta/(rho c^2) = ln(P(0)/P)/gamma, since dP/dy2 = -beta
    b4 = (u / u[0]) * np.exp(-(S - S[0]) / g - np.log(P[0] / P) / g)
    b1 = (1.0 - Msq) * b2 / (rho * u)
    b3 = b4 / (rho * u)
    return b1, b2, b3, b4


def eq2_zero_order(hat, side):
    """Coefficient of u1dot in eq2 linearized at the hatted background of ``side``."""
    g = hat.gas.gamma
    u, rho = hat[side, "u"], hat[side, "rho"]
    return (-rho * hat[side, "du"] + hat.gas.beta * u / hat[side, "c2"]
            + rho * u * hat[side, "dS"] / g)


def eq2_sb_source(hat, side, S, B, dS, dB):
    """Entropy/Bernoulli source of eq2 linearized at the hatted background of ``side``.

    S, B are the transported perturbations and dS, dB their y2-differences,
    taken with the stencil of the caller's scheme.
    """
    g = hat.gas.gamma
    beta = hat.gas.beta
    rho = hat[side, "rho"]
    return (hat[side, "P"] / (g - 1.0) * dS - beta / (g - 1.0) * S
            - rho * dB + (beta / hat[side, "c2"] + rho * hat[side, "dS"] / g) * B)


@dataclass
class ShockCoefficients:
    """Nodal profiles of the shock-linearization coefficients.

    b1p..b4p are the downstream integrating factors; fa1, fa2, fa3 couple
    the downstream traces to u1dot_minus.  P_jump, the downstream squared
    Mach number and the common mass flux rho*u feed the trace corrections
    and the slope update of the iteration.
    """

    y2: np.ndarray
    b1p: np.ndarray
    b2p: np.ndarray
    b3p: np.ndarray
    b4p: np.ndarray
    fa1: np.ndarray
    fa2: np.ndarray
    fa3: np.ndarray
    P_jump: np.ndarray
    Mp_sq: np.ndarray
    mass_flux: np.ndarray


def coefficients(hat) -> ShockCoefficients:
    """All shock-linearization coefficient profiles for a hatted background."""
    g = hat.gas.gamma
    up, um = hat["p", "u"], hat["m", "u"]
    rp = hat["p", "rho"]
    Pp, Pm = hat["p", "P"], hat["m", "P"]
    Mp, Mm = hat["p", "Msq"], hat["m", "Msq"]
    if np.any(np.abs(Mp - 1.0) < 1e-12) or np.any(np.abs(Mm - 1.0) < 1e-12):
        raise DegenerateBackgroundError("sonic background state on the shock trace")
    b1p, b2p, b3p, b4p = b_coefficients(hat, "p")
    if np.any(b1p <= 0.0):
        raise DegenerateBackgroundError("downstream b1 must be positive (subsonic side)")

    Pj = Pp - Pm
    # trace coupling from the explicit 2x2 inverse:
    # (u1dot+, Sdot+) = Minv_plus * Mminus * (u1dot-, Sdot-)
    fa1 = (Mp / Mm) * (Mm - 1.0) / (Mp - 1.0)
    fa2 = (g - 1.0) * (Mm - 1.0) * Pj / (Pp * um)
    fa3 = -(Mm - 1.0) * Pj / (rp * up * um)
    return ShockCoefficients(
        y2=hat.y2, b1p=b1p, b2p=b2p, b3p=b3p, b4p=b4p,
        fa1=fa1, fa2=fa2, fa3=fa3,
        P_jump=Pj, Mp_sq=Mp, mass_flux=rp * up,
    )


@dataclass
class JFunctionals:
    """Position functional J1 and exit functional J2.

    J1(psi_bar) uses u1dot_minus read on the shock line by ``Field.trace``
    (degree 5 in y1); its wall term integrates g' with the trapezoid weights of the
    downstream grid so that sigma*(J1(psi_bar) - J2) is exactly the discrete
    compatibility defect of the linearized downstream problem.
    """

    J1: callable
    J2: float


def J_functionals(coeffs: ShockCoefficients, lin: Field, pert, hat, n1_sub):
    y2 = coeffs.y2
    h2 = y2[1] - y2[0]
    sigma = pert.sigma
    w_int = (coeffs.fa3 - coeffs.fa1) * coeffs.b1p
    wall_c = coeffs.b2p[-1] * hat["p", "u"][-1]
    gp = pert.geometry.g.deriv(1)

    x2q = hat.x2  # background entrance map (linear theory)
    Pp = hat["p", "P"]
    rup = coeffs.mass_flux
    up = hat["p", "u"]
    g = hat.gas.gamma
    J2 = fd.trap(
        coeffs.b1p * (
            pert.P_ex(x2q) / rup
            + Pp * pert.S_en(x2q) / ((g - 1.0) * rup)
            - pert.B_en(x2q) / up
        ),
        h2,
    )

    def J1(psi_bar):
        tr = lin.trace("u1", psi_bar)
        term1 = fd.trap(w_int * tr, h2) / sigma if sigma > 0.0 else 0.0
        z1 = np.linspace(float(psi_bar), pert.geometry.L, n1_sub)
        term2 = wall_c * fd.trap(gp(z1), z1[1] - z1[0])
        return term1 + term2

    return JFunctionals(J1=J1, J2=J2)


def position_bracket(bracket, L):
    """The position bracket, by default the whole duct (0, L); ``ConfigError``
    unless it lies inside [0, L]."""
    lo, hi = bracket or (0.0, L)
    if not (0.0 <= lo and hi <= L):
        raise ConfigError(f"solver.psi_bracket = [{lo:g}, {hi:g}] is not "
                          f"inside the duct [0, L = {L:g}]")
    return lo, hi


def find_shock_position(J1, J2, bracket):
    """The one root of J1(psi) = J2 on the bracket.

    ``POSITION_SAMPLES`` samples of J1 locate every sign change of J1 - J2
    (a sample where J1 = J2 exactly is a root itself); secant steps guarded
    by bisection refine each to |J1 - J2| <= POSITION_TOL * scale within
    ``POSITION_MAX_ITER`` steps; scale, the largest of |J2| and the sampled
    |J1|, carries the data's velocity units.  J1 need not be monotone.  No
    root, or more than one, raises ``NoAdmissibleShockError``; the latter names each root
    and the sign of J1' there.
    """
    lo, hi = bracket
    if not hi > lo:
        raise NoAdmissibleShockError(f"empty bracket ({lo}, {hi})")
    ps = np.linspace(lo, hi, POSITION_SAMPLES)
    js = np.array([J1(p) for p in ps])
    scale = max(np.abs(js).max(), abs(J2))
    if np.abs(js - js[0]).max() <= 1e-10 * scale:
        raise DegenerateSelectionError(
            "J1 is flat on the bracket: the shock position is arbitrary"
        )
    s = np.sign(js - J2)
    # (root, sign of J1' there)
    roots = [(float(ps[k]), js[min(k + 1, POSITION_SAMPLES - 1)] - js[max(k - 1, 0)])
             for k in np.flatnonzero(s == 0.0)]
    for k in np.flatnonzero(s[:-1] * s[1:] < 0.0):
        # sgn * (J1 - J2) rises through zero on (a, b)
        sgn = s[k + 1]
        f = lambda p: sgn * (J1(p) - J2)
        a, b = ps[k], ps[k + 1]
        fa, fb = f(a), f(b)
        for _ in range(POSITION_MAX_ITER):
            # secant candidate, fall back to bisection when it leaves (a, b)
            xs = b - fb * (b - a) / (fb - fa) if fb != fa else 0.5 * (a + b)
            if not a < xs < b:
                xs = 0.5 * (a + b)
            fx = f(xs)
            if abs(fx) <= POSITION_TOL * scale:
                break
            if fx < 0.0:
                a, fa = xs, fx
            else:
                b, fb = xs, fx
        else:
            raise NoAdmissibleShockError(
                f"root refinement stalled: |J1-J2|={abs(fx):.3e} after "
                f"{POSITION_MAX_ITER} iterations")
        roots.append((float(xs), sgn))
    if not roots:
        raise NoAdmissibleShockError(
            f"exit functional J2={J2:.6e} outside the attainable range "
            f"[{js.min():.6e}, {js.max():.6e}]"
        )
    if len(roots) > 1:
        raise NoAdmissibleShockError(
            f"J1 = J2 has {len(roots)} roots, psi_bar = " + ", ".join(
                f"{r:.6g} (J1' {'>' if d > 0.0 else '<'} 0)" for r, d in sorted(roots))
            + ": the shock position is not unique; a bracket around one selects it")
    return roots[0][0]


def subsonic_sb_source(hat, S_row, B_row, h2):
    """Downstream ``eq2_sb_source`` of the row profiles S_row, B_row.

    S_row, B_row are the transported downstream perturbation profiles; their
    derivatives use the same second-order stencils as the residual audit so
    the two cancel exactly at linear order.
    """
    return eq2_sb_source(hat, "p", S_row, B_row, fd.d2(S_row, h2), fd.d2(B_row, h2))


def solve_linear_subsonic(coeffs: ShockCoefficients, psi_bar, lin: Field, pert, hat, n1_sub):
    """Linearized downstream flow on [psi_bar, L] x [0, m_bar].

    Shock trace data come from the linearized jump conditions, the exit data
    from the linearized pressure condition, the wall data from the slip
    condition; S and B ride along y1, and ``V`` holds their y2-rows.
    Delegates to the elliptic solver with the b-coefficients, which gates
    the data defect at ``DEFECT_TOL``.
    """
    sigma, L = pert.sigma, pert.geometry.L
    g = hat.gas.gamma
    y2 = coeffs.y2
    n2 = len(y2)
    h2 = y2[1] - y2[0]
    grid = LagrangianGrid(n1_sub, n2, psi_bar, L, lin.grid.m, hat.m_bar)
    tr = lin.trace("u1", psi_bar)
    x2q = hat.x2
    S_en = pert.S_en(x2q)
    B_en = pert.B_en(x2q)
    Sdot = coeffs.fa2 * tr + sigma * S_en
    Bdot = sigma * B_en
    rup = coeffs.mass_flux
    h1_data = coeffs.fa1 * tr
    h2_data = (
        -sigma * pert.P_ex(x2q) / rup
        + coeffs.fa3 * tr
        - hat["p", "P"] * sigma * S_en / ((g - 1.0) * rup)
        + sigma * B_en / hat["p", "u"]
    )
    gp = pert.geometry.g.deriv(1)
    h3_data = sigma * hat["p", "u"][-1] * gp(grid.y1)
    H2 = np.broadcast_to(coeffs.b3p * subsonic_sb_source(hat, Sdot, Bdot, h2), (n1_sub, n2))
    prob = EllipticProblem(
        psi_bar, L, hat.m_bar, n1_sub, n2,
        coeffs.b1p, coeffs.b2p, coeffs.b3p, coeffs.b4p,
        np.zeros((n1_sub, n2)), H2, h1_data, h2_data, h3_data,
    )
    try:
        sol = solve(prob)
    except IncompatibleDataError as exc:
        raise IncompatibleDataError(
            f"shock position psi_bar={psi_bar:.8f} inconsistent with the data",
            exc.defect,
        ) from None
    V = Field(grid, {"u1": sol.v1, "u2": sol.v2, "S": Sdot, "B": Bdot})
    return V, sol


class ShockFront:
    """The shock front and its shock-fitted coordinates on the downstream grid.

    ``grid`` is the downstream ``LagrangianGrid``: the front's position
    psi_bar is ``grid.y1a``, the exit L is ``grid.y1b``, the z1 nodes are
    ``grid.y1`` and y2 is ``grid.y2``.  The nodal front is psi(y2) =
    psi_bar + psi_sharp_dev - int_{y2}^{m_bar} psi_prime, with psi(m_bar) =
    psi_bar + psi_sharp_dev exact by construction.  Y1(z1, y2) = z1 +
    (L - z1) (psi(y2) - psi_bar) / (L - psi_bar) sends z1 = psi_bar onto the
    front and z1 = L onto the exit.  The front carries ``psi``, the
    per-column factors of d/dy1 = fac1 d/dz1 and d/dy2 = d/dz2 - (L - z1)
    tilt d/dz1, and the top-wall abscissa ``Y1_wall``, taken from
    psi_sharp_dev itself rather than from the wall row of ``Y1`` (the two
    differ in the last bit).  The full-grid arrays ``Y1`` and ``dY1_dz2``
    are built on first use.  Construction validates the front: it must stay
    inside the duct.
    """

    def __init__(self, grid: LagrangianGrid, psi_sharp_dev, psi_prime):
        self.grid = grid
        self.psi_sharp_dev = psi_sharp_dev
        self.psi_prime = psi_prime
        psi_bar, L, z1, y2 = grid.y1a, grid.y1b, grid.y1, grid.y2
        cum = fd.cumtrap(psi_prime, y2[1] - y2[0])
        self.psi = psi = psi_bar + psi_sharp_dev - (cum[-1] - cum)
        if not (0.0 < psi.min() and psi.max() < L):
            raise NoAdmissibleShockError(
                f"front leaves the duct: psi range [{psi.min():.6f}, {psi.max():.6f}], L={L}"
            )
        self._to_exit = L - z1
        self._span = L - psi_bar
        gap = L - psi
        self.fac1 = self._span / gap
        self.tilt = psi_prime / gap
        self.Y1_wall = z1 + self._to_exit * psi_sharp_dev / self._span

    @property
    def psi_bar(self):
        return self.grid.y1a

    @property
    def psi_sharp(self):
        return self.psi_bar + self.psi_sharp_dev

    @cached_property
    def dY1_dz2(self):
        return (self._to_exit[:, None] / self._span) * self.psi_prime[None, :]

    @cached_property
    def Y1(self):
        return (self.grid.y1[:, None] + self._to_exit[:, None]
                * (self.psi - self.psi_bar)[None, :] / self._span)


def shock_slope(V_plus, lin: Field, coeffs: ShockCoefficients):
    """Linear front slope (m / (m_bar [P_hat])) (u2dot_plus - u2dot_minus) on V_plus's grid,
    whose y1a is the front's position psi_bar."""
    jump = np.abs(coeffs.P_jump)
    if jump.min() <= 1e-12 * jump.max():
        raise DegenerateBackgroundError("pressure jump vanishes: degenerate shock")
    u2m = lin.trace("u2", V_plus.grid.y1a)
    u2p = V_plus["u2"][0]
    return (V_plus.grid.m / (V_plus.grid.m_bar * coeffs.P_jump)) * (u2p - u2m)


def downstream_nodes(L, psi, h1):
    """Downstream node count matching the upstream y1 spacing h1 on [psi, L]."""
    return max(9, int(round((L - psi) / h1)) + 1)


@dataclass
class InitialApproximation:
    V_plus: Field
    front: ShockFront
    diagnostics: dict


def initial_approximation(coeffs: ShockCoefficients, lin: Field, pert, hat, bracket=None):
    """Shock position from J1(psi_bar) = J2 and the linear two-phase approximation.

    ``lin`` is the linear upstream march of ``supersonic.solve_linear``.  At
    sigma = 0 the position is arbitrary, bracket or not:
    ``DegenerateSelectionError``.  ``find_shock_position`` searches
    ``position_bracket(bracket, L)``, by default the whole duct (0, L), and
    raises ``NoAdmissibleShockError`` unless J1 = J2 has exactly one root
    there.  The downstream grid has ``downstream_nodes`` at the bracket's
    midpoint, and the linear subsonic solve gates at ``elliptic.DEFECT_TOL``.
    """
    L = pert.geometry.L
    if pert.sigma == 0.0:
        raise DegenerateSelectionError("sigma = 0: the shock position is arbitrary")
    bracket = position_bracket(bracket, L)
    n1_sub = downstream_nodes(L, 0.5 * (bracket[0] + bracket[1]), lin.grid.h1)
    jf = J_functionals(coeffs, lin, pert, hat, n1_sub)
    psi_bar = find_shock_position(jf.J1, jf.J2, bracket)
    V_plus, esol = solve_linear_subsonic(coeffs, psi_bar, lin, pert, hat, n1_sub)
    front = ShockFront(V_plus.grid, 0.0, shock_slope(V_plus, lin, coeffs))
    diag = {"psi_bar": psi_bar, "J2": jf.J2, "J1_at_psi_bar": jf.J1(psi_bar),
            "bracket": bracket, "defect": esol.defect}
    return InitialApproximation(V_plus=V_plus, front=front, diagnostics=diag)
