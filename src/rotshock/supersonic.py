"""Supersonic flow ahead of the shock: linearized and nonlinear marching.

In Lagrangian coordinates the upstream problem is hyperbolic with y1 as the
marching direction.  Entropy and Bernoulli ride along y1 unchanged, so only
the velocity pair is marched:

    (1 - M1^2) d1 u1 - M1 M2 d1 u2 - (mb/m) rho u2 d2 u1 + (mb/m) rho u1 d2 u2 = 0
    d1 u2 - (mb/m) rho u2 d2 u2 - (mb/m) rho u1 d2 u1 + beta
        = (mb/m) (P/(gamma-1) d2 S - rho d2 B)

The linearization of this system at the hatted background is marched for the
initial approximation.  Both use a MacCormack two-step predictor-corrector
(forward-difference predictor, backward corrector), which is the
second-order scheme the characteristic structure calls for and is stable up
to CFL 1 against the slopes 1/lambda+-.  In the nonlinear scheme each
half-step takes its coefficients at the state of its own row, so the
corrector is implicit in the row it produces; the scheme is solved by
Newton's method, one frozen-coefficient march of the correction per step.

The nonlinear right-hand side is evaluated in well-balanced form, i.e. the
discretely evaluated background residual is subtracted, so the unperturbed
background is an exact fixed point of the march at sigma = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fd
from .errors import CflError, ConfigError, InvalidStateError, NonConvergenceError
from .lagrangian import Field, Geometry, LagrangianGrid, inlet_maps
from .profiles import Profile
from .shockfit import b_coefficients, eq2_sb_source, eq2_zero_order
from .thermo import rho_P

__all__ = [
    "PerturbationConfig",
    "SupersonicSolution",
    "FluxIdentityReport",
    "entrance_profiles",
    "inflow_state",
    "solve_linear",
    "flux_identity",
    "solve_nonlinear",
]

# largest marching CFL number
CFL_LIMIT = 0.95
# Newton stops at an update of NEWTON_TOL * max|u_hat| within NEWTON_MAX_ITER steps
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 30


@dataclass(frozen=True)
class PerturbationConfig:
    """Inflow/exit/wall perturbation of size sigma.

    The entrance profiles live on the physical height x2 in [0,1]; the exit
    pressure profile on [0, 1+sigma*g(L)]; the wall shape is carried by the
    geometry.  u2_en must vanish at both corners of the entrance.
    """

    sigma: float
    u1_en: Profile
    u2_en: Profile
    S_en: Profile
    B_en: Profile
    P_ex: Profile
    geometry: Geometry

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ConfigError(f"sigma must be non-negative, got {self.sigma}")
        ends = (abs(float(self.u2_en(0.0))), abs(float(self.u2_en(1.0))))
        scale = float(np.max(np.abs(self.u2_en(np.linspace(0, 1, 65)))))
        if max(ends) > 1e-10 * scale:
            raise ConfigError(f"u2_en must vanish at x2=0 and x2=1 (got {ends})")


@dataclass
class SupersonicSolution:
    """Result of ``solve_nonlinear``.

    V holds the full flow state (S and B as the entrance rows, which ride
    along y1) and ``update_history`` the max-norm of each Newton step's
    update (one march each).  ``picard_iters``, its length, predates it.
    """

    V: Field
    update_history: list

    @property
    def picard_iters(self):
        return len(self.update_history)


@dataclass
class FluxIdentityReport:
    """Discrete check of the conservation identity along the duct.

    lhs(y1) = int b1m * u1dot dy2 should equal
    rhs(y1) = sigma * int b1m * u1_en dy2 - sigma * b2m(m_bar) u_hat(m_bar) g(y1).
    """

    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def max_violation(self):
        return float(np.abs(self.lhs - self.rhs).max())


def entrance_profiles(hat, pert: PerturbationConfig, inlet=None):
    """Inflow perturbation profiles re-parametrised to the mass coordinate.

    Given ``inlet``, the result of ``inlet_maps(bg, pert)``, the
    entrance height is x2(y2) computed from the perturbed inflow flux (and
    the perturbed total flux m); otherwise the background map is used, which
    keeps the linear problem exactly proportional to sigma.
    """
    if inlet is not None:
        m, _, x2_of_y2 = inlet
        x2q = np.clip(x2_of_y2(hat.y2), 0.0, 1.0)
    else:
        m = hat.m_bar
        x2q = hat.x2
    return m, {
        "u1_en": pert.u1_en(x2q),
        "u2_en": pert.u2_en(x2q),
        "S_en": pert.S_en(x2q),
        "B_en": pert.B_en(x2q),
    }


def inflow_state(hat, pert: PerturbationConfig, inlet):
    """(m, entrance state) that ``solve_nonlinear`` imposes on the upstream grid.

    The entrance state maps u1 and u2, the first row of the march, and S and
    B, the rows that ride along y1, to their y2-profiles.
    ``inlet`` is ``inlet_maps(bg, pert)``; at sigma = 0 the background map
    is used instead, so m is m_bar.
    """
    sigma = pert.sigma
    m, en = entrance_profiles(hat, pert, inlet if sigma > 0.0 else None)
    return m, {"u1": hat["m", "u"] + sigma * en["u1_en"], "u2": sigma * en["u2_en"],
               "S": hat["m", "S"] + sigma * en["S_en"], "B": hat["m", "B"] + sigma * en["B_en"]}


def _d2dir(q, h2, forward):
    """MacCormack one-sided difference along axis -1, 2nd-order at the edges."""
    out = np.empty_like(q)
    if forward:
        out[..., :-1] = (q[..., 1:] - q[..., :-1]) / h2
        out[..., -1] = (3 * q[..., -1] - 4 * q[..., -2] + q[..., -3]) / (2 * h2)
    else:
        out[..., 1:] = (q[..., 1:] - q[..., :-1]) / h2
        out[..., 0] = (-3 * q[..., 0] + 4 * q[..., 1] - q[..., 2]) / (2 * h2)
    return out


def _check_cfl(mu_max, h1, h2):
    cfl = mu_max * h1 / h2
    if cfl > CFL_LIMIT:
        raise CflError(
            f"marching CFL {cfl:.3f} exceeds {CFL_LIMIT}; increase the y1 resolution "
            f"(characteristic slope {mu_max:.3f}, h1={h1:.4g}, h2={h2:.4g})"
        )
    return cfl


def _couplings(k11, k12, k21, k22):
    """(..., 2, 2, n2) coupling array [[k11, k12], [k21, k22]] (broadcast)."""
    k = np.broadcast_arrays(k11, k12, k21, k22)
    return np.stack(k, axis=-2).reshape(k[0].shape[:-1] + (2, 2, k[0].shape[-1]))


# one-sided second-order edge stencils of _d2dir, times h2
_EDGE_F = np.array([0.5, -2.0, 1.5])
_EDGE_B = np.array([-1.5, 2.0, -0.5])


def _march(grid, K, L_pred, L_corr, s_f, s_b, inflow, wa, wb, L_impl=None):
    """MacCormack march of the frozen-coefficient row system

        p[i+1] = w[i] + h1 (K[i] D+ w[i] + L_pred[i] w[i] + s_f[i])
        w[i+1] = (w[i] + p[i+1] + h1 (K[i+1] D- p[i+1] + L_corr[i+1] p[i+1]
                                      + L_impl[i+1] w[i+1] + s_b[i+1])) / 2

    for w = (u1, u2), with the couplings broadcastable to (n1, 2, 2, n2), the
    sources to (n1, 2, n2), and the walls u2 = 0 at y2 = 0 and u2 = wa[i] u1
    + wb[i] at the top imposed on p and w.  D+ and D- are the forward and
    backward differences of ``_d2dir``.  Returns the (n1, n2) histories of u1
    and u2.

    Each half-step contracts one coefficient row with a stacked state: the
    predictor is p = A[i] . [w; Dw; 1] and the corrector u = B[i+1] . [Dp; p;
    1; w], where D is the forward (predictor) or backward (corrector)
    undivided difference along y2.  A and B carry the identity, the
    corrector's 1/2, the sources and both walls of the row they produce; B
    also carries the pointwise inverse of I - h1/2 L_impl.
    """
    n1, n2 = grid.n1, grid.n2
    h1 = grid.h1
    eye = np.eye(2)[:, :, None]
    A = np.empty((n1, 2, 5, n2))
    np.multiply(L_pred, h1, out=A[:, :, 0:2])
    A[:, 0, 0] += 1.0
    A[:, 1, 1] += 1.0
    np.multiply(K, h1 / grid.h2, out=A[:, :, 2:4])
    np.multiply(s_f, h1, out=A[:, :, 4])
    B = np.empty((n1, 2, 7, n2))
    np.multiply(A[:, :, 2:4], 0.5, out=B[:, :, 0:2])
    B[:, :, 2:4] = 0.5 * (h1 * L_corr + eye)
    np.multiply(s_b, 0.5 * h1, out=B[:, :, 4])
    B[:, :, 5:7] = 0.5 * eye
    if L_impl is not None:
        # E w[i+1] = B[i+1] . Z with E = I - h1/2 L_impl[i+1]; at a wall column
        # the u1 row is solved with u2 = wa u1 + wb substituted, and the u2 row
        # is left to the wall step below
        E = np.multiply(L_impl, -0.5 * h1)
        E[:, 0, 0] += 1.0
        E[:, 1, 1] += 1.0
        B[:, 0, 4, -1] -= E[:, 0, 1, -1] * wb
        E[:, 0, 0, -1] += E[:, 0, 1, -1] * wa
        walls = [0, -1]
        E[:, 0, 1, walls] = E[:, 1, 0, walls] = 0.0
        E[:, 1, 1, walls] = 1.0
        # E <- E^-1 = adj(E) / det(E), then B <- E B pointwise in blocks of rows
        det = E[:, 0, 0] * E[:, 1, 1] - E[:, 0, 1] * E[:, 1, 0]
        e00 = E[:, 0, 0].copy()
        E[:, 0, 0] = E[:, 1, 1]
        E[:, 1, 1] = e00
        E[:, 0, 1] *= -1.0
        E[:, 1, 0] *= -1.0
        E /= det[:, None, None]
        del det, e00
        for r in range(0, n1, 128):
            B[r:r + 128] = np.einsum("imkj,ikcj->imcj", E[r:r + 128], B[r:r + 128])
        del E
    # A[i] and B[i+1] produce row i+1: u2 = 0 at the bottom, wa u1 + wb at the top
    for C in (A[:-1], B[1:]):
        C[:, 1, :, 0] = 0.0
        C[:, 1, :, -1] = wa[1:, None] * C[:, 0, :, -1]
        C[:, 1, 4, -1] += wb[1:]
    W = np.empty((2, n1, n2))
    W[:, 0] = inflow
    # rows of Z: [Dp; p; 1; w; Dw; 1], so the corrector reads Z[:7], the predictor Z[5:]
    Z = np.empty((10, n2))
    dp, p, w, dw = Z[0:2], Z[2:4], Z[5:7], Z[7:9]
    Z[4] = Z[9] = 1.0
    w[:] = W[:, 0]
    tf = np.empty((2, 5, n2))
    tb = np.empty((2, 7, n2))
    for i in range(n1 - 1):
        np.subtract(w[:, 1:], w[:, :-1], out=dw[:, :-1])
        np.matmul(w[:, -3:], _EDGE_F, out=dw[:, -1])
        np.add.reduce(np.multiply(A[i], Z[5:], out=tf), axis=1, out=p)
        np.subtract(p[:, 1:], p[:, :-1], out=dp[:, 1:])
        np.matmul(p[:, :3], _EDGE_B, out=dp[:, 0])
        np.add.reduce(np.multiply(B[i + 1], Z[:7], out=tb), axis=1, out=w)
        W[:, i + 1] = w
    return W[0], W[1]


def solve_linear(hat, pert: PerturbationConfig, grid: LagrangianGrid) -> Field:
    """March the linearized system; returns the dotted solution as a ``Field``
    (u1, u2, S, B are the dotted variables, all O(sigma); S, B are y2-rows).

    All data enter proportionally to sigma (the entrance re-parametrisation
    uses the background map), so the solution is exactly linear in sigma.
    ``flux_identity`` checks its discrete conservation identity.
    """
    sigma = pert.sigma
    u_hat = hat["m", "u"]
    rho_hat = hat["m", "rho"]
    Msq = hat["m", "Msq"]
    if np.any(Msq <= 1.0):
        raise InvalidStateError("background must be supersonic for the upstream march")
    du_hat = hat["m", "du"]
    mu_max = float(np.max(rho_hat * u_hat / np.sqrt(Msq - 1.0)))
    _check_cfl(mu_max, grid.h1, grid.h2)

    # entrance data on the mass coordinate (background map: sigma-linear)
    _, en = entrance_profiles(hat, pert)
    Sdot = sigma * en["S_en"]
    Bdot = sigma * en["B_en"]
    cc = eq2_zero_order(hat, "m")

    def src(forward):
        return eq2_sb_source(hat, "m", Sdot, Bdot, _d2dir(Sdot, grid.h2, forward),
                             _d2dir(Bdot, grid.h2, forward))

    inv = 1.0 / (1.0 - Msq)
    K = _couplings(0.0, -rho_hat * u_hat * inv, rho_hat * u_hat, 0.0)
    Lc = _couplings(0.0, rho_hat * du_hat * inv, -cc, 0.0)
    s_f, s_b = (np.stack([np.zeros(grid.n2), src(fw)]) for fw in (True, False))
    wall = sigma * u_hat[-1] * pert.geometry.g.deriv(1)(grid.y1)
    inflow = (sigma * en["u1_en"], sigma * en["u2_en"])
    u1dot, u2dot = _march(grid, K, Lc, Lc, s_f, s_b, inflow, np.zeros(grid.n1), wall)

    return Field(grid, {"u1": u1dot, "u2": u2dot, "S": Sdot, "B": Bdot})


def flux_identity(lin: Field, hat, pert: PerturbationConfig):
    """``FluxIdentityReport`` of the linear solution ``lin`` of ``solve_linear``."""
    sigma = pert.sigma
    grid = lin.grid
    u_hat = hat["m", "u"]
    _, en = entrance_profiles(hat, pert)
    b1m, b2m, _, _ = b_coefficients(hat, "m")
    lhs = (lin["u1"] * (b1m * fd.trap_w(grid.n2))).sum(axis=1) * grid.h2
    rhs = sigma * fd.trap(b1m * en["u1_en"], grid.h2) \
        - sigma * b2m[-1] * u_hat[-1] * pert.geometry.g(grid.y1)
    return FluxIdentityReport(lhs=lhs, rhs=rhs)


class _Frozen(NamedTuple):
    """Coefficient scalars of the nonlinear march at one state."""

    rho: np.ndarray
    P: np.ndarray
    c2: np.ndarray
    M1sq: np.ndarray
    M12: np.ndarray
    inv: np.ndarray  # 1 / (1 - M1^2)
    a: np.ndarray  # (mb/m) rho u1
    b: np.ndarray  # (mb/m) rho u2


def _frozen(u1, u2, rho, P, gamma, mfac):
    """``_Frozen`` at (u1, u2) with density rho and pressure P.

    Plain arithmetic, so a complex state carries complex-step derivatives.
    """
    c2 = gamma * P / rho
    M1sq = u1 * u1 / c2
    return _Frozen(rho, P, c2, M1sq, u1 * u2 / c2, 1.0 / (1.0 - M1sq),
                   mfac * rho * u1, mfac * rho * u2)


def _coupling(f):
    """K of d1 w = K d2 w + s: the u2 equation reads d1 u2 = a d2 u1 + b d2 u2
    + s2, and eq1 solved for d1 u1 reads d1 u1 = (M12 d1 u2 + b d2 u1 - a d2 u2)
    / (1 - M1^2)."""
    return _couplings(f.inv * (f.M12 * f.a + f.b), f.inv * (f.M12 * f.b - f.a),
                      f.a, f.b)


def _rate(f, U, D, src, gas, mfac, jacobian=False):
    """K D + s, (2, n1, n2), at the (2, n1, n2) state U for the y2-difference
    D = (D1, D2) and src = (d2S, d2B, rbg), the transported-field differences
    and background residual of one difference direction; with ``jacobian``
    also its (2, 2, n1, n2) derivative [m, k] in u_k at fixed D.

    The u2 row is r2 = a D1 + b D2 + s2 and the u1 row inv t with t = M12 r2
    + b D1 - a D2, which is ``_coupling`` times D plus s1 = inv M12 s2.

    The derivative is the product rule through rho_P at fixed S and B:
    drho/du_k = -rho u_k / c2, dP/du_k = -rho u_k and dc2/du_k = -(gamma-1)
    u_k.  Collected, it reads J[m, k] = X_m u_k + Z_mk: X_m carries the
    dependence through |u|^2 and Z_mk the explicit u_k in a, b, M1sq, M12.

    Rows are independent; they go in blocks of 256 so that a block's
    temporaries stay in cache.
    """
    rate = np.empty_like(U)
    J = np.empty((2,) + U.shape) if jacobian else None
    for r in range(0, U.shape[1], 256):
        rows = slice(r, r + 256)
        _rate_rows(_Frozen(*(q[rows] for q in f)), U[:, rows], D[:, rows], src, gas,
                   mfac, rate[:, rows], None if J is None else J[:, :, rows])
    return (rate, J) if jacobian else rate


def _rate_rows(f, U, D, src, gas, mfac, rate, J):
    """``_rate`` on a block of rows, into ``rate`` and (unless None) ``J``."""
    d2S, d2B, rbg = src
    g = gas.gamma
    u1, u2 = U
    D1, D2 = D
    r2 = rate[1]
    np.multiply(f.a, D1, out=r2)
    r2 += f.b * D2
    r2 += mfac * (f.P / (g - 1.0) * d2S - f.rho * d2B) - gas.beta - rbg
    M12r2 = f.M12 * r2
    t = M12r2 + f.b * D1
    t -= f.a * D2
    np.multiply(f.inv, t, out=rate[0])
    if J is None:
        return
    # dr2/du_k = X1 u_k + Z1k, Z1k = (mb/m) rho D_k
    X1 = r2 + (gas.beta + rbg)
    X1 += f.P * (mfac * d2S)
    X1 /= -f.c2
    np.multiply(X1, U, out=J[1])
    Z10 = mfac * f.rho
    Z11 = Z10 * D2
    Z10 *= D1
    J[1, 0] += Z10
    J[1, 1] += Z11
    # d(inv t)/du_k = X0 u_k + Z0k
    X0 = ((g - 1.0) * f.inv * f.M1sq - 1.0) * t
    X0 += g * M12r2
    X0 /= f.c2
    X0 += f.M12 * X1
    X0 *= f.inv
    np.multiply(X0, U, out=J[0])
    J[0, 0] += f.inv * (f.M12 * Z10 - Z11 + (2.0 * f.inv * u1 * t + u2 * r2) / f.c2)
    J[0, 1] += f.inv * (f.M12 * Z11 + Z10 + u1 * r2 / f.c2)


def solve_nonlinear(hat, pert: PerturbationConfig, grid: LagrangianGrid, bg,
                    lin=None, inlet=None):
    """Newton's method for the nonlinear upstream flow.

    The discrete problem is the MacCormack scheme with the coefficients of
    each half-step taken at the state of its own row, which the frozen-
    coefficient march cannot solve in one pass: the corrector's
    coefficients sit on the row it produces.  Each Newton step linearizes
    the scheme about the current iterate, including the dependence of the
    coefficients on (u1, u2) through rho_P, and marches the correction with
    one ``_march`` call: the predictor gains the zero-order coupling of its
    coefficients, the corrector an implicit one that is folded into its
    coefficient rows, and the source is the scheme residual of the iterate.
    The iterate meets the inflow and wall conditions, so the correction
    marches homogeneous ones.  The background residual is subtracted
    discretely, so sigma = 0 converges in one step; a damping factor 0.8 is
    applied whenever the update norm grows.

    The iteration starts from the background plus ``lin``, the linear
    solution of ``solve_linear`` on the same grid, when it is given, and from
    the background otherwise.  The warm start is O(sigma^2) from the
    solution instead of O(sigma); on the demo configuration it converges in
    2 steps.  ``update_history`` of the result lists the update of each
    Newton step.  ``inlet`` is ``inlet_maps(bg, pert)`` when the caller
    already has it; otherwise it is built from ``bg``.

    The solve ends at an update of at most ``NEWTON_TOL`` * max|u_hat|, so
    the same flow in other velocity units takes the same steps, and raises
    ``NonConvergenceError`` after ``NEWTON_MAX_ITER``.  No sigma is refused
    up front: a flow the march cannot carry stops in the gas-state,
    supersonic or CFL check of each step.
    """
    sigma = pert.sigma
    gas = hat.gas
    g = gas.gamma
    beta = gas.beta
    if sigma > 0.0 and inlet is None:
        inlet = inlet_maps(bg, pert)
    m, entry = inflow_state(hat, pert, inlet)
    mfac = hat.m_bar / m
    u_hat = hat["m", "u"]
    n1, n2, h1, h2 = grid.n1, grid.n2, grid.h1, grid.h2

    # transported characteristic fields (rows constant in y1)
    S_row, B_row = entry["S"], entry["B"]
    rho_hat = hat["m", "rho"]
    P_hat = hat["m", "P"]
    # per difference direction (forward, backward): d2 S, d2 B and the discrete
    # background residual of eq2 (well balancing); eq1 vanishes identically at
    # the background, where u2 = 0
    srcs = [(_d2dir(S_row, h2, fw), _d2dir(B_row, h2, fw),
             rho_hat * u_hat * _d2dir(u_hat, h2, fw) - beta
             + (P_hat / (g - 1.0) * _d2dir(hat["m", "S"], h2, fw)
                - rho_hat * _d2dir(hat["m", "B"], h2, fw)))
            for fw in (True, False)]

    def freeze(U):
        u1, u2 = U
        rho, P = rho_P(S_row, B_row, u1, u2, gas)
        f = _frozen(u1, u2, rho, P, g, mfac)
        Mtot = f.M1sq + u2 * u2 / f.c2
        if np.any(Mtot <= 1.0):
            raise InvalidStateError(
                f"flow leaves the supersonic regime (min M^2 = {Mtot.min():.4f})"
            )
        if np.any(np.abs(1.0 - f.M1sq) < 1e-10):
            raise CflError("sonic in the marching direction: M1 -> 1")
        mu = rho * np.sqrt(u1 * u1 + u2 * u2) / np.sqrt(Mtot - 1.0) * mfac
        _check_cfl(float(mu.max()), h1, h2)
        return f

    def linearize(U):
        """K, the predictor and corrector Jacobians and the corrector source
        of the Newton step at U, in ``_march``'s layout."""
        f = freeze(U)
        rate, J_pred = _rate(f, U, _d2dir(U, h2, True), srcs[0], gas, mfac, True)
        # predictor of the iterate; its row 0 stands in for a row -1 and is not read
        p = np.empty_like(U)
        p[:, 0] = U[:, 0]
        p[:, 1:] = U[:, :-1] + h1 * rate[:, :-1]
        p[1, 1:, 0] = 0.0
        p[1, 1:, -1] = wall[1:] * p[0, 1:, -1]
        # the corrector's defect in d1 units is the step's source
        res, J_corr = _rate(f, U, _d2dir(p, h2, False), srcs[1], gas, mfac, True)
        res[:, 1:] -= (2.0 * U[:, 1:] - U[:, :-1] - p[:, 1:]) / h1
        res[:, 0] = 0.0
        return (_coupling(f), J_pred.transpose(2, 0, 1, 3),
                J_corr.transpose(2, 0, 1, 3), res.transpose(1, 0, 2))

    wall = sigma * pert.geometry.g.deriv(1)(grid.y1)
    if lin is None:
        U = np.stack([np.broadcast_to(u_hat, (n1, n2)), np.zeros((n1, n2))])
    else:
        U = np.stack([u_hat + lin["u1"], lin["u2"]])
    U[:, 0] = (entry["u1"], entry["u2"])
    U[1, 1:, 0] = 0.0
    U[1, 1:, -1] = wall[1:] * U[0, 1:, -1]
    no_wb = np.zeros(n1)
    tol = NEWTON_TOL * np.abs(u_hat).max()
    history = []
    prev_update = np.inf
    for _ in range(NEWTON_MAX_ITER):
        K, J_pred, J_corr, res = linearize(U)
        d1, d2 = _march(grid, K, J_pred, 0.0, 0.0, res, 0.0, wall, no_wb, J_corr)
        del K, J_pred, J_corr, res
        upd = max(np.abs(d1).max(), np.abs(d2).max())
        if upd > prev_update and upd > tol:
            d1 *= 0.8
            d2 *= 0.8
            upd = 0.8 * upd
        U[0] += d1
        U[1] += d2
        history.append(float(upd))
        if upd <= tol:
            break
        prev_update = upd
    else:
        raise NonConvergenceError(
            f"Newton failed to reach {tol:.1e} in {NEWTON_MAX_ITER} steps", history
        )

    freeze(U)  # final supersonicity + CFL audit
    V = Field(grid, {"u1": U[0], "u2": U[1], "S": S_row, "B": B_row})
    return SupersonicSolution(V=V, update_history=history)
