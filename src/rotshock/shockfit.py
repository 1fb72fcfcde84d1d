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

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from . import fd
from .elliptic import EllipticProblem, solve
from .errors import (
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
    "selection_bracket",
    "find_shock_position",
    "solve_linear_subsonic",
    "shock_slope",
    "initial_approximation",
]

# position search: J1 samples, relative tolerance on |J1 - J2|, most steps
POSITION_SAMPLES = 33
POSITION_TOL = 1e-10
POSITION_MAX_ITER = 60
# largest linear response per unit sigma of the initial approximation
AMPLIFICATION_BOUND = 1e4


def b_coefficients(hat, side):
    """Integrating-factor profiles (b1, b2, b3, b4) on the hatted y2 grid."""
    u = hat[side, "u"]
    rho = hat[side, "rho"]
    S = hat[side, "S"]
    c2 = hat[side, "c2"]
    Msq = hat[side, "Msq"]
    beta = hat.gas.beta
    g = hat.gas.gamma
    b2 = u[0] / u
    if beta == 0.0:
        integ = np.zeros_like(u)
    else:
        integ = cumulative_simpson(beta / (rho * c2), x=hat.y2, initial=0.0)
    b4 = (u / u[0]) * np.exp(-(S - S[0]) / g - integ)
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

    b1p..b4p and b1m..b4m are the integrating factors of either side;
    fa1, fa2, fa3 couple the downstream traces to u1dot_minus.  P_jump, the
    squared Mach numbers of either side and the common mass flux rho*u feed
    the trace corrections and the slope update of the iteration.
    """

    y2: np.ndarray
    b1p: np.ndarray
    b2p: np.ndarray
    b3p: np.ndarray
    b4p: np.ndarray
    b1m: np.ndarray
    b2m: np.ndarray
    b3m: np.ndarray
    b4m: np.ndarray
    fa1: np.ndarray
    fa2: np.ndarray
    fa3: np.ndarray
    P_jump: np.ndarray
    Mp_sq: np.ndarray
    Mm_sq: np.ndarray
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
    b1m, b2m, b3m, b4m = b_coefficients(hat, "m")
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
        b1m=b1m, b2m=b2m, b3m=b3m, b4m=b4m,
        fa1=fa1, fa2=fa2, fa3=fa3,
        P_jump=Pj, Mp_sq=Mp, Mm_sq=Mm, mass_flux=rp * up,
    )


@dataclass
class JFunctionals:
    """Position functional J1 and exit functional J2.

    J1(psi_bar) uses u1dot_minus interpolated (cubic in y1) on the shock
    line; its wall term integrates g' with the trapezoid weights of the
    downstream grid so that sigma*(J1(psi_bar) - J2) is exactly the discrete
    compatibility defect of the linearized downstream problem.
    """

    J1: callable
    J2: float


def J_functionals(coeffs: ShockCoefficients, lin_sup, pert, hat, n1_sub, L):
    y2 = coeffs.y2
    h2 = y2[1] - y2[0]
    V = lin_sup.V
    sigma = pert.sigma
    w_int = (coeffs.fa3 - coeffs.fa1) * coeffs.b1p
    wall_c = coeffs.b2p[-1] * hat["p", "u"][-1]
    gp = pert.geometry.g.deriv(1)

    x2q = hat.x2  # background entrance map (linear theory)
    Pp = hat["p", "P"]
    rup = hat["p", "rho"] * hat["p", "u"]
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
        tr = V.trace("u1", psi_bar)
        term1 = fd.trap(w_int * tr, h2) / sigma if sigma > 0.0 else 0.0
        z1 = np.linspace(float(psi_bar), L, n1_sub)
        term2 = wall_c * fd.trap(gp(z1), z1[1] - z1[0])
        return term1 + term2

    return JFunctionals(J1=J1, J2=J2)


@dataclass
class SelectionBracket:
    lo: float
    hi: float
    case: str            # "increasing" (condition i) or "decreasing" (condition ii)
    slope_integral: float
    F_bound: float
    C_minus: float
    diagnostics: dict


def selection_bracket(coeffs: ShockCoefficients, lin_sup, pert, hat, L) -> SelectionBracket:
    """Admissible interval (0, L_plus) on which J1 is provably monotone.

    L_plus = |I| / F with I the slope integral of J1 at psi_bar = 0 and F a
    computable bound on |J1''| built from the measured supersonic
    amplification (the sup norm of the linear solution and its first two
    y1-derivatives, divided by sigma) and the wall curvature.
    """
    sigma = pert.sigma
    y2 = coeffs.y2
    h2 = y2[1] - y2[0]
    if sigma <= 0.0:
        raise DegenerateSelectionError("sigma = 0: the shock position is arbitrary")
    comp = coeffs.b1p * (coeffs.fa3 - coeffs.fa1) / coeffs.b1m
    dcomp = CubicSpline(y2, comp).derivative()(y2)
    u2_en_y2 = pert.u2_en(hat.x2)
    I = fd.trap(dcomp * coeffs.b2m * u2_en_y2, h2)

    grid = lin_sup.V.grid
    h1 = grid.h1
    u1 = lin_sup.V["u1"]
    d1 = np.gradient(u1, h1, axis=0, edge_order=2)
    d11 = np.gradient(d1, h1, axis=0, edge_order=2)
    supnorm = max(
        max(np.abs(lin_sup.V[k]).max() for k in ("u1", "u2", "S", "B")),
        np.abs(d1).max(), np.abs(d11).max(),
    )
    C_minus = supnorm / sigma
    gpp = pert.geometry.g.deriv(2)
    g2max = float(np.abs(gpp(np.linspace(0.0, L, 513))).max())
    F = C_minus * fd.trap(np.abs((coeffs.fa3 - coeffs.fa1) * coeffs.b1p), h2) \
        + coeffs.b2p[-1] * hat["p", "u"][-1] * g2max
    scale = max(np.abs(comp).max() * np.abs(coeffs.b2m).max() * max(1.0, np.abs(u2_en_y2).max()), 1e-300)
    if abs(I) <= 1e-11 * scale:
        raise DegenerateSelectionError(
            f"J1 slope integral {I:.3e} vanishes: no admissible position selection "
            "(flat-nozzle/no-rotation regime)"
        )
    L_star = abs(I) / F
    hi = 0.999 * min(L_star, L)
    case = "increasing" if I > 0.0 else "decreasing"
    return SelectionBracket(
        lo=0.0, hi=hi, case=case, slope_integral=I, F_bound=F, C_minus=C_minus,
        diagnostics={"L_star": L_star, "g2max": g2max, "supersonic_amplification": C_minus},
    )


def find_shock_position(J1, J2, bracket):
    """Root of J1(psi) = J2 on a bracket where sampled J1 is strictly monotone.

    Bracketed bisection of ``POSITION_SAMPLES`` samples refined by secant
    steps; ties resolve toward the smaller psi.  |J1(root) - J2| <=
    POSITION_TOL * scale on success, within ``POSITION_MAX_ITER`` steps.
    """
    lo, hi = bracket
    if not hi > lo:
        raise NoAdmissibleShockError(f"empty bracket ({lo}, {hi})")
    ps = np.linspace(lo, hi, POSITION_SAMPLES)
    js = np.array([J1(p) for p in ps])
    scale = max(np.abs(js).max(), abs(J2), 1.0)
    dj = np.diff(js)
    if np.abs(js - js[0]).max() <= 1e-10 * scale:
        raise DegenerateSelectionError(
            "J1 is flat on the bracket: the shock position is arbitrary"
        )
    if not (np.all(dj > 0.0) or np.all(dj < 0.0)):
        raise NoAdmissibleShockError("sampled J1 is not strictly monotone on the bracket")
    if not (min(js[0], js[-1]) <= J2 <= max(js[0], js[-1])):
        raise NoAdmissibleShockError(
            f"exit functional J2={J2:.6e} outside the attainable range "
            f"[{min(js[0], js[-1]):.6e}, {max(js[0], js[-1]):.6e}]"
        )
    sgn = 1.0 if js[-1] > js[0] else -1.0
    f = lambda p: sgn * (J1(p) - J2)
    k = int(np.searchsorted(sgn * (js - J2), 0.0))
    a, b = ps[max(k - 1, 0)], ps[min(k, POSITION_SAMPLES - 1)]
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return float(a)
    if fb == 0.0:
        return float(b)
    x, fx = a, fa
    for _ in range(POSITION_MAX_ITER):
        # secant candidate, fall back to bisection when it leaves (a, b)
        if fb != fa:
            xs = b - fb * (b - a) / (fb - fa)
        else:
            xs = 0.5 * (a + b)
        if not a < xs < b:
            xs = 0.5 * (a + b)
        fx = f(xs)
        x = xs
        if abs(fx) <= POSITION_TOL * scale:
            return float(x)
        if fx < 0.0:
            a, fa = xs, fx
        else:
            b, fb = xs, fx
    raise NoAdmissibleShockError(
        f"root refinement stalled: |J1-J2|={abs(fx):.3e} after {POSITION_MAX_ITER} iterations"
    )


def subsonic_sb_source(hat, S_row, B_row, h2):
    """Downstream ``eq2_sb_source`` of the row profiles S_row, B_row.

    S_row, B_row are the transported downstream perturbation profiles; their
    derivatives use the same second-order stencils as the residual audit so
    the two cancel exactly at linear order.
    """
    return eq2_sb_source(hat, "p", S_row, B_row, fd.d2(S_row, h2), fd.d2(B_row, h2))


def solve_linear_subsonic(coeffs: ShockCoefficients, psi_bar, lin_sup, pert, hat,
                          n1_sub, L, defect_tol=1e-9):
    """Linearized downstream flow on [psi_bar, L] x [0, m_bar].

    Shock trace data come from the linearized jump conditions, the exit data
    from the linearized pressure condition, the wall data from the slip
    condition; S and B ride along y1.  Delegates to the elliptic solver with
    the b-coefficients; the data defect must stay below defect_tol.
    """
    sigma = pert.sigma
    g = hat.gas.gamma
    y2 = coeffs.y2
    n2 = len(y2)
    h2 = y2[1] - y2[0]
    grid = LagrangianGrid(n1_sub, n2, psi_bar, L, lin_sup.V.grid.m, hat.m_bar)
    tr = lin_sup.V.trace("u1", psi_bar)
    x2q = hat.x2
    S_en = pert.S_en(x2q)
    B_en = pert.B_en(x2q)
    Sdot = coeffs.fa2 * tr + sigma * S_en
    Bdot = sigma * B_en
    rup = hat["p", "rho"] * hat["p", "u"]
    h1_data = coeffs.fa1 * tr
    h2_data = (
        -sigma * pert.P_ex(x2q) / rup
        + coeffs.fa3 * tr
        - hat["p", "P"] * sigma * S_en / ((g - 1.0) * rup)
        + sigma * B_en / hat["p", "u"]
    )
    gp = pert.geometry.g.deriv(1)
    h3_data = sigma * hat["p", "u"][-1] * gp(grid.y1)
    H2 = np.broadcast_to(coeffs.b3p * subsonic_sb_source(hat, Sdot, Bdot, h2),
                         (n1_sub, n2)).copy()
    prob = EllipticProblem(
        psi_bar, L, hat.m_bar, n1_sub, n2,
        coeffs.b1p, coeffs.b2p, coeffs.b3p, coeffs.b4p,
        np.zeros((n1_sub, n2)), H2, h1_data, h2_data, h3_data,
    )
    try:
        sol = solve(prob, defect_tol)
    except IncompatibleDataError as exc:
        raise IncompatibleDataError(
            f"shock position psi_bar={psi_bar:.8f} inconsistent with the data",
            exc.defect,
        ) from None
    V = Field(grid, {
        "u1": sol.v1, "u2": sol.v2,
        "S": np.broadcast_to(Sdot, (n1_sub, n2)).copy(),
        "B": np.broadcast_to(Bdot, (n1_sub, n2)).copy(),
    })
    return V, sol


@dataclass
class ShockFront:
    """psi_bar + accumulated slope: psi(y2) = psi_bar + psi_sharp_dev
    - int_{y2}^{m_bar} psi_prime, with psi(m_bar) = psi_bar + psi_sharp_dev
    exact by construction."""

    psi_bar: float
    psi_sharp_dev: float         # psi(m_bar) - psi_bar
    psi_prime: np.ndarray
    y2: np.ndarray

    @property
    def psi_sharp(self):
        return self.psi_bar + self.psi_sharp_dev

    def psi(self):
        cum = fd.cumtrap(self.psi_prime, self.y2[1] - self.y2[0])
        return self.psi_bar + self.psi_sharp_dev - (cum[-1] - cum)

    def validate(self, L):
        p = self.psi()
        if not (0.0 < p.min() and p.max() < L):
            raise NoAdmissibleShockError(
                f"front leaves the duct: psi range [{p.min():.6f}, {p.max():.6f}], L={L}"
            )
        return p


def shock_slope(V_plus, lin_sup, psi_bar, coeffs: ShockCoefficients, m, m_bar):
    """Linear front slope: (m / (m_bar [P_hat])) * (u2dot_plus - u2dot_minus) at the shock."""
    scale = np.abs(coeffs.P_jump).max()
    if np.abs(coeffs.P_jump).min() <= 1e-12 * max(scale, 1.0):
        raise DegenerateBackgroundError("pressure jump vanishes: degenerate shock")
    u2m = lin_sup.V.trace("u2", psi_bar)
    u2p = V_plus["u2"][0]
    return (m / (m_bar * coeffs.P_jump)) * (u2p - u2m)


@dataclass
class InitialApproximation:
    V_plus: Field
    front: ShockFront
    coeffs: ShockCoefficients
    diagnostics: dict


def initial_approximation(hat, pert, lin_sup, m, L, n1_sub, bracket, defect_tol=1e-9):
    """Locate psi_bar in ``bracket`` and assemble the linear two-phase approximation."""
    co = coefficients(hat)
    jf = J_functionals(co, lin_sup, pert, hat, n1_sub, L)
    psi_bar = find_shock_position(jf.J1, jf.J2, bracket)
    V_plus, esol = solve_linear_subsonic(co, psi_bar, lin_sup, pert, hat,
                                         n1_sub, L, defect_tol=defect_tol)
    slope = shock_slope(V_plus, lin_sup, psi_bar, co, m, hat.m_bar)
    front = ShockFront(psi_bar=psi_bar, psi_sharp_dev=0.0, psi_prime=slope, y2=co.y2)
    front.validate(L)
    sigma = pert.sigma
    amp = np.nan
    if sigma > 0.0:
        amp = max(
            max(np.abs(V_plus[k]).max() for k in ("u1", "u2", "S", "B")),
            np.abs(slope).max(),
        ) / sigma
        if amp > AMPLIFICATION_BOUND:
            raise NoAdmissibleShockError(
                f"linear response {amp:.3e} exceeds the bound "
                f"{AMPLIFICATION_BOUND:.1e}: data too violent for the linear theory"
            )
    diag = {
        "psi_bar": psi_bar, "J2": jf.J2, "J1_at_psi_bar": jf.J1(psi_bar),
        "bracket": tuple(bracket), "defect": esol.defect,
        "amplification": amp,
    }
    return InitialApproximation(V_plus=V_plus, front=front, coeffs=co, diagnostics=diag)
