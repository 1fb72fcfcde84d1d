"""Nonlinear iteration for the transonic shock with a free boundary.

Starting from the linear two-phase approximation, the scheme repeats:

1. pin the wall intercept psi_sharp of the front so that the linearized
   downstream problem is discretely solvable (scalar root of the
   compatibility defect),
2. assemble shock/exit/wall data and interior sources as operator defects:
   each right-hand side is (frozen linear operator applied to the current
   iterate) minus (full nonlinear operator, written in the shock-fitted
   z-coordinates, applied to the current full state), so the fixed point
   satisfies the nonlinear equations and jump conditions exactly up to
   discretization,
3. solve the secant's root problem by the two-potential elliptic solver,
   the pass's one solvability gate: a defect above ``elliptic.DEFECT_TOL``
   raises ``IncompatibleDataError`` before either potential is solved,
4. update the front slope from the transverse-momentum jump relation.

On the demo configuration the map contracts the fields and the front slope
by about 1e-3 + 0.12 sigma per pass (measured, 65x33 to 257x129), which is
O(sigma) only above sigma of about 1e-2; psi_sharp is re-solved in every pass
and settles within the root tolerance of ``solve_psi_sharp``.  Sources are
well balanced: the discrete residual of the exact background is subtracted,
so sigma = 0 reproduces the background to machine precision.

The free front is one object, ``shockfit.ShockFront``, built on the
downstream grid, whose y1-ends are psi_bar and L.  Its shock-fitted change
of coordinates maps the fixed rectangle [psi_bar, L] x [0, m_bar] onto the
subsonic region between the front psi(y2) and the exit.  One front is built
per (psi_sharp_dev, psi'); the step assembly, the residual audit, the
reconstructed heights and the CLI's physical abscissa all take their
derivative factors and wall abscissa from it.

``solve_transonic`` and the ``initial`` subcommand share one setup:
``setup_upstream`` builds the hatted profiles, the perturbed inlet maps,
the shock coefficients and the linear upstream march, whose grid is the
upstream grid.  The ``verify`` subcommand builds its context from the
fields that ``solve`` stored instead.
``shockfit.initial_approximation`` places the shock from J1(psi_bar) = J2
on that march and builds the linear two-phase approximation in one call.
``build_context`` runs the setup (or takes one built before, as a sweep
over the exit pressure shares it), the nonlinear march (Newton's method
from the background plus the same linear march) and the front placement
(``initial_approximation``, or at sigma = 0 the midpoint of the bracket),
and freezes an ``IterationContext``, the one thing it returns.  m and m_bar
are read from a ``LagrangianGrid`` (the front's psi_bar and L from the
downstream one), L elsewhere from ``pert.geometry`` and the gas from
``hat``; nothing keeps copies.

Within one pass the downstream state is fixed and only the front moves:
``solve_psi_sharp`` builds the state's ``_PassTerms`` (full state, front
row, z-derivatives and linear operators) once and every secant evaluation
of ``assemble_step_data`` combines them with the current ``ShockFront``.  The
residual audit evaluates both regions with the same operator; the upstream
region is its own identity map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fd
from .elliptic import EllipticProblem, compatibility_defect, solve
from .errors import (ConfigError, DegenerateSelectionError, InvalidStateError,
                     NonConvergenceError)
from .lagrangian import Field, LagrangianGrid, hatted_background, inlet_maps
from .shockfit import (
    ShockCoefficients,
    ShockFront,
    coefficients,
    downstream_nodes,
    eq2_zero_order,
    initial_approximation,
    position_bracket,
    subsonic_sb_source,
)
from .supersonic import solve_linear, solve_nonlinear
from .thermo import rho_P

__all__ = [
    "TransonicOptions",
    "IterationState",
    "ResidualReport",
    "IterationContext",
    "assemble_step_data",
    "solve_psi_sharp",
    "apply_T",
    "run",
    "residuals",
    "setup_upstream",
    "check_audit_grid",
    "build_context",
    "solve_transonic",
    "RunResult",
]


# the fixed point is reached once an update is at most FIXED_POINT_TOL, within
# FIXED_POINT_MAX_ITER passes
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 50
# most psi_sharp secant steps
PSI_SHARP_MAX_ITER = 60
# reach of the one-sided boundary closures: the residual audit leaves out a
# frame of this many nodes on every side of each region
AUDIT_FRAME = 3


@dataclass
class TransonicOptions:
    """Grid, residual gate and position bracket of ``solve_transonic``.

    ``tol_res`` is the gate of the CLI's ``solve`` and ``verify`` on the
    audited residuals.  ``psi_bracket`` bounds the position search
    (default: the whole duct (0, L)) and lies inside [0, L]; at sigma = 0
    its midpoint places the front.  The rest is fixed: every elliptic solve
    gates at ``elliptic.DEFECT_TOL``, ``run`` stops at an update of
    ``FIXED_POINT_TOL`` within ``FIXED_POINT_MAX_ITER`` passes, and the
    Newton solve of the upstream flow runs with the defaults of
    ``supersonic.solve_nonlinear`` (update tolerance 1e-12, at most 30
    steps).  The CLI's defaults of the ``solver`` section are these fields.
    """

    nx: int = 129
    ny: int = 65
    tol_res: float = 1e-6
    psi_bracket: tuple = None


@dataclass
class IterationState:
    """Downstream perturbation on the fixed z-rectangle plus front unknowns."""

    u1: np.ndarray
    u2: np.ndarray
    S: np.ndarray
    psi_prime: np.ndarray
    psi_sharp_dev: float
    iter: int = 0
    update_norm: float = np.inf

    def norm_from(self, other):
        """Max field difference plus max slope difference plus |intercept difference|."""
        return (
            max(
                np.abs(self.u1 - other.u1).max(),
                np.abs(self.u2 - other.u2).max(),
                np.abs(self.S - other.S).max(),
            )
            + np.abs(self.psi_prime - other.psi_prime).max()
        ) + abs(self.psi_sharp_dev - other.psi_sharp_dev)


@dataclass
class ResidualReport:
    """Deviation-from-background residuals of the converged solution.

    pde_residual subtracts the discrete background residual (well-balanced
    form, what the scheme actually drives to zero); pde_residual_raw is the
    plain discrete residual of the transformed system and carries the O(h^2)
    floor of the background itself.  PDE residuals are maxima over nodes at
    least three cells from the boundary: the outer rings fall inside the
    reach of the one-sided boundary closures and of the corner layers; their
    maxima are reported separately under details["pde_frame"].
    """

    pde_residual: float
    rh_residual: float
    exit_residual: float
    wall_residual: float
    defect: float
    pde_residual_raw: float = np.nan
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = [self.pde_residual, self.rh_residual, self.exit_residual,
                self.wall_residual, self.defect]
        if not all(np.isfinite(v) for v in vals):
            raise InvalidStateError(f"non-finite residual entries: {vals}")


@dataclass
class IterationContext:
    """Everything frozen during the fixed-point loop; the upstream grid is ``sup.V.grid``."""

    hat: object
    coeffs: ShockCoefficients
    pert: object
    grid_plus: LagrangianGrid
    sup: object                      # nonlinear supersonic solution
    initial_state: IterationState
    B_row: np.ndarray = field(init=False)  # transported downstream Bernoulli perturbation
    E2: np.ndarray = field(init=False, repr=False)       # background defect of eq2
    cc_plus: np.ndarray = field(init=False, repr=False)  # zero-order coefficient of the linear eq2

    def __post_init__(self):
        hat = self.hat
        self.cc_plus = eq2_zero_order(hat, "p")
        self.E2 = _background_defect(hat, "p", self.grid_plus)
        self.B_row = self.sup.V["B"][0, :] - hat["m", "B"]


def _background_defect(hat, side, grid):
    """Discrete residual of eq2 at the hatted background of one side on ``grid`` (y2-profile)."""
    g, h2 = hat.gas.gamma, grid.h2
    u, rho = hat[side, "u"], hat[side, "rho"]
    disc = (rho * u * fd.d2(u, h2) + hat[side, "P"] / (g - 1.0) * fd.d2(hat[side, "S"], h2)
            - rho * fd.d2(hat[side, "B"], h2))
    return (grid.m_bar / grid.m) * (hat.gas.beta - disc)


def _full_plus(ctx, state):
    hat = ctx.hat
    u1 = state.u1 + hat["p", "u"][None, :]
    u2 = state.u2
    S = state.S + hat["p", "S"][None, :]
    B = np.broadcast_to(ctx.B_row + hat["p", "B"], u1.shape)
    rho, P = rho_P(S, B, u1, u2, hat.gas)
    return {"u1": u1, "u2": u2, "S": S, "B": B, "rho": rho, "P": P}


def _front(ctx, psi_sharp_dev, psi_prime):
    """(ShockFront, upstream state on the front) for one front.

    The upstream velocities are read on the front by ``Field.trace``; S and B
    are transported along y1, so their front values are the entrance rows.
    """
    front = ShockFront(ctx.grid_plus, psi_sharp_dev, psi_prime)
    V = ctx.sup.V
    minus = {"u1": V.trace("u1", front.psi), "u2": V.trace("u2", front.psi),
             "S": V["S"][0], "B": V["B"][0]}
    minus["rho"], minus["P"] = rho_P(minus["S"], minus["B"], minus["u1"], minus["u2"],
                                     ctx.hat.gas)
    return front, minus


class _PassTerms:
    """The parts of the step data and of the residual audit fixed by one state.

    The full downstream state, its front row (``plus``, with rho and P), the
    front-independent parts of the transformed residuals and the frozen
    linear operators applied to the state do not move while
    ``solve_psi_sharp`` moves the front, so a pass builds them once, each on
    first use.
    """

    def __init__(self, ctx, state):
        self.ctx = ctx
        self.state = state

    @cached_property
    def full(self):
        return _full_plus(self.ctx, self.state)

    @cached_property
    def plus(self):
        return {k: v[0, :] for k, v in self.full.items()}

    @cached_property
    def residual(self):
        return _ResidualTerms(self.ctx.grid_plus, self.ctx.hat.gas, self.full)

    @cached_property
    def linear_ops(self):
        """(lam1, lam2): the linear momentum operators at the iterate, the
        current entropy/Bernoulli source taken off lam2."""
        ctx, state = self.ctx, self.state
        hat = ctx.hat
        h1, h2 = ctx.grid_plus.h1, ctx.grid_plus.h2
        rup = ctx.coeffs.mass_flux
        rup_du = hat["p", "rho"] * hat["p", "du"]
        lam1 = ((1.0 - hat["p", "Msq"])[None, :] * fd.d1(state.u1, h1)
                - rup_du[None, :] * state.u2 + rup[None, :] * fd.d2(state.u2, h2))
        sb_cur = subsonic_sb_source(hat, state.S[0, :], ctx.B_row, h2)
        lam2 = (fd.d1(state.u2, h1) - rup[None, :] * fd.d2(state.u1, h2)
                + ctx.cc_plus[None, :] * state.u1)
        return lam1, lam2 - sb_cur[None, :]


def _rh_jumps(minus, plus, k):
    """Mass and normal-momentum jump functionals across the front.

    ``k`` multiplies the tangential terms: (m_bar/m) psi' gives the
    Rankine-Hugoniot residuals, [u2]/[P] the step data G1, G2.
    """
    mass = (1.0 / (plus["rho"] * plus["u1"]) - 1.0 / (minus["rho"] * minus["u1"])
            + k * (plus["u2"] / plus["u1"] - minus["u2"] / minus["u1"]))
    momentum = (plus["u1"] + plus["P"] / (plus["rho"] * plus["u1"])
                - minus["u1"] - minus["P"] / (minus["rho"] * minus["u1"])
                + k * (plus["P"] * plus["u2"] / plus["u1"]
                       - minus["P"] * minus["u2"] / minus["u1"]))
    return mass, momentum


def _heights(grid, rho, u1):
    """Physical heights x2 = (m/m_bar) int_0^y2 1/(rho u1) along the last axis of ``grid``."""
    return (grid.m / grid.m_bar) * fd.cumtrap(1.0 / (rho * u1), grid.h2)


class _ResidualTerms:
    """N1, N2 of the transformed system on ``grid`` for one full state of ``gas``.

    The z-derivatives of u1, u2, S, B and their coefficients depend on the
    state alone; ``N(fac1, cross)`` combines them with the factors of a
    ``ShockFront``, d/dy1 = fac1 d/dz1 and d/dy2 = d/dz2 - cross d/dz1.  The
    upstream region passes fac1 = 1, cross = 0 (the identity map).
    """

    def __init__(self, grid, gas, full):
        g = gas.gamma
        self.beta = gas.beta
        self.mfac = mfac = grid.m_bar / grid.m
        u1, u2, rho, P = full["u1"], full["u2"], full["rho"], full["P"]
        c2 = g * P / rho
        M1 = u1 / np.sqrt(c2)
        M2 = u2 / np.sqrt(c2)
        self.d1 = {k: fd.d1(full[k], grid.h1) for k in ("u1", "u2", "S", "B")}
        self.d2 = {k: fd.d2(full[k], grid.h2) for k in ("u1", "u2", "S", "B")}
        self.a11 = 1.0 - M1**2
        self.a12 = M1 * M2
        self.ru1 = mfac * rho * u1
        self.ru2 = mfac * rho * u2
        self.P_g = P / (g - 1.0)
        self.rho = rho

    def N(self, fac1, cross):
        def dy1(k):
            return fac1 * self.d1[k]

        def dy2(k):
            return self.d2[k] - cross * self.d1[k]

        N1 = (self.a11 * dy1("u1") - self.a12 * dy1("u2")
              - self.ru2 * dy2("u1") + self.ru1 * dy2("u2"))
        N2 = (dy1("u2") - self.ru2 * dy2("u2") - self.ru1 * dy2("u1")
              + self.beta - self.mfac * (self.P_g * dy2("S") - self.rho * dy2("B")))
        return N1, N2


@dataclass
class StepData:
    H1: np.ndarray
    H2: np.ndarray
    g1: np.ndarray   # new transported entropy perturbation
    g2: np.ndarray   # shock trace of u1
    g3: np.ndarray   # wall trace of u2
    g4: np.ndarray   # exit trace of u1
    g0: np.ndarray   # slope-update correction
    G0: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray


def assemble_step_data(state: IterationState, ctx: IterationContext,
                       psi_sharp_dev, terms=None) -> StepData:
    """Boundary data and interior sources for one linearized solve.

    Shock data invert the 2x2 trace coupling applied to the current traces
    minus the *full nonlinear* jump functionals (G1 scaled by the mass flux,
    matching the linearization); the exit datum embeds the full nonlinear
    exit-pressure defect; interior sources are the operator defects of the
    momentum equations.  All of them vanish identically at zero
    perturbation.  ``terms``, the ``_PassTerms`` of ``state``, is built here
    when not given; the result is the same either way.
    """
    hat = ctx.hat
    co = ctx.coeffs
    g = hat.gas.gamma
    sigma = ctx.pert.sigma
    grid = ctx.grid_plus
    front, minus = _front(ctx, psi_sharp_dev, state.psi_prime)
    if terms is None:
        terms = _PassTerms(ctx, state)
    full, plus = terms.full, terms.plus

    # ---- wall datum
    gp = ctx.pert.geometry.g.deriv(1)
    g3 = sigma * (hat["p", "u"][-1] + state.u1[:, -1]) * gp(front.Y1_wall)

    # ---- jump functionals on the front
    Pj = plus["P"] - minus["P"]
    if np.any(np.abs(Pj) < 1e-10 * np.abs(co.P_jump).max()):
        raise InvalidStateError("pressure jump collapsed on the front")
    u2j = plus["u2"] - minus["u2"]
    G0 = u2j - (grid.m_bar / grid.m) * state.psi_prime * Pj
    G1, G2 = _rh_jumps(minus, plus, u2j / Pj)

    # trace corrections: (g2, g1) = current traces - Minv_plus (mu*G1, G2)
    Mp = co.Mp_sq
    det = -(Mp - 1.0) / ((g - 1.0) * g * Mp)
    up = hat["p", "u"]
    d1v = co.mass_flux * G1
    d2v = G2
    corr_u1 = (-d2v / (g - 1.0)) / det
    corr_S = (-(Mp - 1.0) / (g * Mp) * d1v + (Mp - 1.0) / up * d2v) / det
    g2 = state.u1[0, :] - corr_u1
    g1 = state.S[0, :] - corr_S

    # ---- exit datum
    PL = full["P"][-1, :]
    arg = _heights(grid, full["rho"][-1, :], full["u1"][-1, :])
    rup = co.mass_flux
    Pp_hat = hat["p", "P"]
    g4 = (
        -sigma * ctx.pert.P_ex(arg) / rup
        - Pp_hat * g1 / ((g - 1.0) * rup)
        + ctx.B_row / up
        + (PL - Pp_hat + rup * state.u1[-1, :] + Pp_hat * state.S[-1, :] / (g - 1.0)
           - hat["p", "rho"] * ctx.B_row) / rup
    )

    # ---- slope correction
    g0 = (grid.m_bar * co.P_jump / grid.m) * state.psi_prime - state.u2[0, :] + G0

    # ---- interior sources: operator defects of the two momentum equations
    N1, N2 = terms.residual.N(front.fac1, front.cross)
    lam1, lam2 = terms.linear_ops
    f1 = lam1 - N1
    f2 = lam2 - N2 + ctx.E2[None, :]

    H1 = (co.b2p / rup)[None, :] * f1
    sb_new = subsonic_sb_source(hat, g1, ctx.B_row, grid.h2)
    H2 = co.b3p[None, :] * (sb_new[None, :] + f2)

    return StepData(H1=H1, H2=H2, g1=g1, g2=g2, g3=g3, g4=g4, g0=g0,
                    G0=G0, G1=G1, G2=G2, f1=f1, f2=f2)


def _problem_from_data(ctx, data: StepData) -> EllipticProblem:
    grid = ctx.grid_plus
    co = ctx.coeffs
    return EllipticProblem(
        grid.y1a, grid.y1b, grid.m_bar, grid.n1, grid.n2,
        co.b1p, co.b2p, co.b3p, co.b4p,
        data.H1, data.H2, data.g2, data.g4, data.g3,
    )


def solve_psi_sharp(state: IterationState, ctx: IterationContext):
    """Root of the solvability functional over the front wall-intercept.

    Secant iteration on psi_sharp_dev; the functional is the discrete
    compatibility defect of the assembled downstream problem, so the
    subsequent elliptic solve is solvable by construction.  The root is
    accepted at the rounding floor of the assembled quadratures, |J| <=
    1e-13 * max(1, max|b1p| * m_bar), tested at every evaluation, the last
    of ``PSI_SHARP_MAX_ITER`` steps too.  A step whose front leaves the duct
    raises ``NoAdmissibleShockError`` from ``ShockFront``.  Returns
    (psi_sharp_dev, StepData, EllipticProblem) at the root.
    """
    psi_bar = ctx.grid_plus.y1a
    L = ctx.pert.geometry.L
    terms = _PassTerms(ctx, state)

    def J(s):
        data = assemble_step_data(state, ctx, s, terms)
        prob = _problem_from_data(ctx, data)
        return compatibility_defect(prob), (s, data, prob)

    s0 = state.psi_sharp_dev
    J0, root = J(s0)
    sigma = ctx.pert.sigma
    # rounding floor of the assembled quadratures; below it J counts as zero
    tol = 1e-13 * max(1.0, float(np.abs(ctx.coeffs.b1p).max()) * ctx.grid_plus.m_bar)
    if abs(J0) <= tol:
        return root
    ds = max(1e-3 * max(sigma, 1e-6) * (L - psi_bar), 1e-9)
    s1 = s0 + ds
    J1, root = J(s1)
    for _ in range(PSI_SHARP_MAX_ITER):
        if abs(J1) <= tol:
            break
        dJ = (J1 - J0) / (s1 - s0)
        if abs(dJ) * (L - psi_bar) <= 1e-3 * tol:
            raise DegenerateSelectionError(
                f"solvability functional is flat in psi_sharp (slope {dJ:.3e})"
            )
        s0, J0, s1 = s1, J1, s1 - J1 / dJ
        J1, root = J(s1)
    if abs(J1) > tol:
        raise NonConvergenceError(
            f"psi_sharp root search stalled at |J|={abs(J1):.3e} (tol {tol:.3e})"
        )
    return root


def apply_T(state: IterationState, ctx: IterationContext):
    """One application of the iteration map; returns (new_state, esol).

    ``esol`` is the downstream elliptic solution at the root of
    ``solve_psi_sharp``; its ``defect`` is the compatibility defect of that
    problem, and ``solve`` raises ``IncompatibleDataError`` when it is above
    ``elliptic.DEFECT_TOL``.
    """
    s_sharp, data, prob = solve_psi_sharp(state, ctx)
    esol = solve(prob)
    grid = ctx.grid_plus
    psi_prime_new = (grid.m / (grid.m_bar * ctx.coeffs.P_jump)) * (esol.v2[0, :] + data.g0)
    new = IterationState(
        u1=esol.v1, u2=esol.v2,
        S=np.broadcast_to(data.g1, esol.v1.shape).copy(),
        psi_prime=psi_prime_new,
        psi_sharp_dev=s_sharp,
        iter=state.iter + 1,
    )
    new.update_norm = new.norm_from(state)
    return new, esol


def run(ctx: IterationContext):
    """Iterate the map to its fixed point; returns (state, log).

    The loop stops at an update of at most ``FIXED_POINT_TOL`` or raises
    ``NonConvergenceError`` after ``FIXED_POINT_MAX_ITER`` passes; inside a
    pass the front's duct check, the gas-state checks and the elliptic
    solvability gate raise their own typed errors.
    """
    state = ctx.initial_state
    log = []
    prev_update = None
    for _ in range(FIXED_POINT_MAX_ITER):
        state_new, esol = apply_T(state, ctx)
        upd = state_new.update_norm
        kappa = upd / prev_update if (prev_update and prev_update > 0.0) else np.nan
        log.append({
            "iter": state_new.iter, "update_norm": upd,
            "psi_sharp": ctx.grid_plus.y1a + state_new.psi_sharp_dev,
            "defect": esol.defect, "kappa_estimate": kappa,
        })
        state = state_new
        prev_update = upd
        if upd <= FIXED_POINT_TOL:
            return state, log
    raise NonConvergenceError(
        f"fixed point not reached in {FIXED_POINT_MAX_ITER} iterations "
        f"(last update {state.update_norm:.3e})",
        [row["update_norm"] for row in log],
    )


def residuals(ctx: IterationContext, state: IterationState, last_defect=0.0) -> ResidualReport:
    """Residual audit of a two-phase state on the original coordinates.

    PDE residuals are reported in well-balanced form (deviation from the
    discretely evaluated background), with the raw value kept alongside;
    jump conditions use the upstream state interpolated onto the front.
    """
    hat = ctx.hat
    gas = hat.gas
    sigma = ctx.pert.sigma
    Vm = ctx.sup.V
    gm, gp_grid = Vm.grid, ctx.grid_plus

    core = (slice(AUDIT_FRAME, -AUDIT_FRAME), slice(AUDIT_FRAME, -AUDIT_FRAME))

    def region_maxima(N1, N2, E2):
        """(well-balanced core, raw core, well-balanced whole-region) maxima."""
        R = np.maximum(np.abs(N1), np.abs(N2 - E2[None, :]))
        return R[core].max(), max(np.abs(N1)[core].max(), np.abs(N2)[core].max()), R.max()

    # Each region's _ResidualTerms is a temporary, so the two sets of
    # derivative arrays are never alive at once.
    # --- upstream region (identity map)
    rho_m, P_m = rho_P(Vm["S"], Vm["B"], Vm["u1"], Vm["u2"], gas)
    fullm = {"u1": Vm["u1"], "u2": Vm["u2"], "S": Vm["S"], "B": Vm["B"],
             "rho": rho_m, "P": P_m}
    wb_m, raw_m, frame_m = region_maxima(
        *_ResidualTerms(gm, gas, fullm).N(1.0, 0.0),
        _background_defect(hat, "m", gm))

    # --- downstream region (z-grid, shock-fitted derivatives)
    front, minus = _front(ctx, state.psi_sharp_dev, state.psi_prime)
    terms = _PassTerms(ctx, state)
    full, plus = terms.full, terms.plus
    wb_p, raw_p, frame_p = region_maxima(*terms.residual.N(front.fac1, front.cross), ctx.E2)

    # --- jump conditions on the front
    k = (gp_grid.m_bar / gp_grid.m) * state.psi_prime
    r1, r2 = _rh_jumps(minus, plus, k)
    r3 = (plus["u2"] - minus["u2"]) - k * (plus["P"] - minus["P"])
    r4 = plus["B"] - minus["B"]
    rh = max(np.abs(r).max() for r in (r1, r2, r3, r4))

    # --- exit pressure
    x2_exit = _heights(gp_grid, full["rho"][-1], full["u1"][-1])
    Pex_target = hat["p", "P"] + sigma * ctx.pert.P_ex(x2_exit)
    exit_res = float(np.abs(full["P"][-1] - Pex_target).max())

    # --- wall slip conditions
    gp = ctx.pert.geometry.g.deriv(1)
    wall_m = np.abs(Vm["u2"][:, -1] / Vm["u1"][:, -1] - sigma * gp(gm.y1)).max()
    wall_p = np.abs(full["u2"][:, -1] / full["u1"][:, -1] - sigma * gp(front.Y1_wall)).max()
    wall_b = max(np.abs(Vm["u2"][:, 0]).max(), np.abs(full["u2"][:, 0]).max())
    wall = float(max(wall_m, wall_p, wall_b))

    return ResidualReport(
        pde_residual=float(max(wb_p, wb_m)),
        rh_residual=float(rh),
        exit_residual=exit_res,
        wall_residual=wall,
        defect=float(last_defect),
        pde_residual_raw=float(max(raw_p, raw_m)),
        details={
            "rh_parts": tuple(float(np.abs(r).max()) for r in (r1, r2, r3, r4)),
            "pde_minus": float(wb_m), "pde_plus": float(wb_p),
            "pde_frame": float(max(frame_m, frame_p)),
        },
    )


@dataclass
class RunResult:
    """Converged state, audit, pass log and context; C1, kappa and ``front``,
    the converged ``ShockFront`` on the downstream grid with its map, derive
    from them."""

    state: IterationState
    report: ResidualReport
    log: list
    ctx: IterationContext

    @property
    def sup(self):
        return self.ctx.sup

    @property
    def psi_bar(self):
        return self.ctx.grid_plus.y1a

    @property
    def psi_sharp(self):
        return self.psi_bar + self.state.psi_sharp_dev

    @property
    def C1_measured(self):
        sigma = self.ctx.pert.sigma
        return abs(self.log[0]["psi_sharp"] - self.psi_bar) / sigma if sigma > 0.0 else 0.0

    @property
    def kappa_final(self):
        kappas = [r["kappa_estimate"] for r in self.log if np.isfinite(r["kappa_estimate"])]
        return max(kappas) if kappas else np.nan

    @cached_property
    def front(self) -> ShockFront:
        return ShockFront(self.ctx.grid_plus, self.state.psi_sharp_dev, self.state.psi_prime)

    def downstream_field(self) -> Field:
        full = _full_plus(self.ctx, self.state)
        return Field(self.ctx.grid_plus,
                     {k: full[k] for k in ("u1", "u2", "S", "B")})

    def eulerian_heights(self):
        """x2 arrays for the upstream grid and the downstream z-grid."""
        ctx = self.ctx
        Vm = ctx.sup.V
        rho_m, _ = rho_P(Vm["S"], Vm["B"], Vm["u1"], Vm["u2"], ctx.hat.gas)
        x2m = _heights(Vm.grid, rho_m, Vm["u1"])
        grid = ctx.grid_plus
        full = _full_plus(ctx, self.state)
        dxdz2 = (full["u2"] / full["u1"]) * self.front.dY1_dz2 \
            + (grid.m / grid.m_bar) / (full["rho"] * full["u1"])
        return x2m, fd.cumtrap(dxdz2, grid.h2)


def setup_upstream(bg, pert, opts: TransonicOptions):
    """The setup every entry point shares: (hat, inlet_maps(bg, pert), coefficients(hat), lin).

    ``lin`` is the linear upstream march, a ``Field`` on the upstream grid.
    """
    hat = hatted_background(bg, n2=opts.ny)
    inlet = inlet_maps(bg, pert)
    grid_minus = LagrangianGrid(opts.nx, opts.ny, 0.0, pert.geometry.L, *inlet[:2])
    return hat, inlet, coefficients(hat), solve_linear(hat, pert, grid_minus)


def check_audit_grid(opts: TransonicOptions):
    """``ConfigError`` unless the nx x ny grid leaves the residual audit a core.

    The audit leaves out a frame of ``AUDIT_FRAME`` nodes on every side, so
    a grid that ``residuals`` can audit needs at least 7 nodes each way.
    """
    least = 2 * AUDIT_FRAME + 1
    if min(opts.nx, opts.ny) < least:
        raise ConfigError(
            f"solver.nx = {opts.nx}, solver.ny = {opts.ny}: the residual audit leaves out "
            f"a frame of {AUDIT_FRAME} nodes on every side, so a solved grid needs at "
            f"least {least} nodes each way")


def build_context(bg, pert, opts: TransonicOptions, setup=None):
    """Setup, nonlinear march and front placement; returns the ``IterationContext``.

    ``check_audit_grid`` runs first.  ``setup`` is the ``(hat, inlet,
    coeffs, lin)`` of ``setup_upstream(bg, pert, opts)`` when the caller
    already has it (a sweep over a key the setup does not read builds it
    once for all its points); by default it is built here.  After the
    setup, the Newton solve of the nonlinear march starts
    from the hatted background plus the linear march, on every path; on the
    demo configuration it takes 2 steps.  At sigma > 0 the front is placed by
    ``initial_approximation`` (in ``opts.psi_bracket``) and the loop starts
    from the linear approximation, which is not kept.  At sigma = 0 the front
    is fixed at the midpoint of ``position_bracket(opts.psi_bracket, L)``,
    the bracket and the check of ``initial_approximation``, on
    ``downstream_nodes`` at the upstream spacing, and the loop starts from
    zero perturbation.
    """
    check_audit_grid(opts)
    L = pert.geometry.L
    hat, inlet, coeffs, lin = setup or setup_upstream(bg, pert, opts)
    grid_minus = lin.grid
    sup = solve_nonlinear(hat, pert, grid_minus, bg, lin=lin, inlet=inlet)
    if pert.sigma > 0.0:
        initial = initial_approximation(coeffs, lin, pert, hat, opts.psi_bracket)
        V_plus = initial.V_plus
        grid_plus = V_plus.grid
        init_state = IterationState(u1=V_plus["u1"], u2=V_plus["u2"], S=V_plus["S"],
                                    psi_prime=initial.front.psi_prime, psi_sharp_dev=0.0)
    else:
        lo, hi = position_bracket(opts.psi_bracket, L)
        psi_bar = 0.5 * (lo + hi)
        n1 = downstream_nodes(L, psi_bar, grid_minus.h1)
        grid_plus = LagrangianGrid(n1, opts.ny, psi_bar, L, grid_minus.m, grid_minus.m_bar)
        shape = (n1, opts.ny)
        init_state = IterationState(u1=np.zeros(shape), u2=np.zeros(shape),
                                    S=np.zeros(shape), psi_prime=np.zeros(opts.ny),
                                    psi_sharp_dev=0.0)
    return IterationContext(hat=hat, coeffs=coeffs, pert=pert, grid_plus=grid_plus, sup=sup,
                            initial_state=init_state)


def solve_transonic(bg, pert, opts: TransonicOptions = None, setup=None) -> RunResult:
    """Full pipeline: supersonic solves, shock location, nonlinear iteration.

    ``setup``, the ``(hat, inlet, coeffs, lin)`` of ``setup_upstream(bg,
    pert, opts)``, is passed on to ``build_context``; without it the setup
    is built here.  It may be shared by solves that differ only in what the
    setup does not read: the exit pressure ``pert.P_ex``, ``tol_res`` and
    ``psi_bracket``.  The Newton march always runs per solve.
    """
    opts = opts or TransonicOptions()
    ctx = build_context(bg, pert, opts, setup=setup)
    state, log = run(ctx)
    report = residuals(ctx, state, last_defect=log[-1]["defect"])
    return RunResult(state=state, report=report, log=log, ctx=ctx)
