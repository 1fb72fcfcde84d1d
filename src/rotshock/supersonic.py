"""Supersonic flow ahead of the shock: linearized and nonlinear marching.

In Lagrangian coordinates the upstream problem is hyperbolic with y1 as the
marching direction.  Entropy and Bernoulli ride along y1 unchanged, so only
the velocity pair is marched:

    (1 - M1^2) d1 u1 - M1 M2 d1 u2 - (mb/m) rho u2 d2 u1 + (mb/m) rho u1 d2 u2 = 0
    d1 u2 - (mb/m) rho u2 d2 u2 - (mb/m) rho u1 d2 u1 + beta
        = (mb/m) (P/(gamma-1) d2 S - rho d2 B)

The linearization of this system at the hatted background is marched for the
initial approximation; the nonlinear system is solved by Picard iteration
with coefficients frozen at the previous iterate.  Both use a MacCormack
two-step predictor-corrector (forward-difference predictor, backward
corrector), which is the second-order scheme the characteristic structure
calls for and is stable up to CFL 1 against the slopes 1/lambda+-.

The nonlinear right-hand side is evaluated in well-balanced form, i.e. the
discretely evaluated background residual is subtracted, so the unperturbed
background is an exact fixed point of the march at sigma = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fd
from .errors import CflError, ConfigError, InvalidStateError, NonConvergenceError
from .lagrangian import Field, Geometry, LagrangianGrid, inlet_maps
from .profiles import Profile
from .thermo import rho_P

__all__ = [
    "PerturbationConfig",
    "SupersonicSolution",
    "FluxIdentityReport",
    "entrance_profiles",
    "solve_linear",
    "solve_nonlinear",
]


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
        scale = max(1.0, float(np.max(np.abs(self.u2_en(np.linspace(0, 1, 65))))))
        if max(ends) > 1e-10 * scale:
            raise ConfigError(f"u2_en must vanish at x2=0 and x2=1 (got {ends})")


@dataclass
class SupersonicSolution:
    """Marched flow field.

    kind == "linear": V holds the first-order perturbation (u1,u2,S,B are
    the dotted variables, all O(sigma)).  kind == "nonlinear": V holds the
    full flow state.
    """

    V: Field
    kind: str
    picard_iters: int
    final_update: float
    update_history: list


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


def entrance_profiles(hat, pert: PerturbationConfig, bg, perturbed_map):
    """Inflow perturbation profiles re-parametrised to the mass coordinate.

    With ``perturbed_map`` the entrance height is x2(y2) computed from the
    perturbed inflow flux (and the perturbed total flux m); otherwise the
    background map is used, which keeps the linear problem exactly
    proportional to sigma.
    """
    if perturbed_map:
        m, m_bar, x2_of_y2, _ = inlet_maps(bg, pert, pert.sigma)
        x2q = np.clip(x2_of_y2(hat.y2), 0.0, 1.0)
    else:
        m, m_bar = hat.m_bar, hat.m_bar
        x2q = hat.x2
    return m, {
        "u1_en": pert.u1_en(x2q),
        "u2_en": pert.u2_en(x2q),
        "S_en": pert.S_en(x2q),
        "B_en": pert.B_en(x2q),
    }


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


def _check_cfl(mu_max, h1, h2, limit=0.95):
    cfl = mu_max * h1 / h2
    if cfl > limit:
        raise CflError(
            f"marching CFL {cfl:.3f} exceeds {limit}; increase the y1 resolution "
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


def _march(grid, K, L, s_f, s_b, inflow, wa, wb):
    """MacCormack march of the frozen-coefficient row system

        d1 w = K d2 w + L w + s,   w = (u1, u2),

    with K, L broadcastable to (n1, 2, 2, n2), the sources s_f (forward
    predictor) and s_b (backward corrector) to (n1, 2, n2), and the walls
    u2 = 0 at y2 = 0 and u2 = wa[i] u1 + wb[i] at the top.
    Returns the (n1, n2) histories of u1 and u2.

    Each half-step contracts one coefficient row with a stacked state: the
    predictor is p = A[i] . [w; Dw; 1] and the corrector u = B[i+1] . [Dp; p;
    1; w], where D is the forward (predictor) or backward (corrector)
    undivided difference along y2.  A and B carry the identity, the
    corrector's 1/2, the sources and both walls of the row they produce.
    """
    n1, n2 = grid.n1, grid.n2
    h1 = grid.h1
    eye = np.eye(2)[:, :, None]
    A = np.empty((n1, 2, 5, n2))
    A[:, :, 0:2] = h1 * L + eye
    np.multiply(K, h1 / grid.h2, out=A[:, :, 2:4])
    np.multiply(s_f, h1, out=A[:, :, 4])
    B = np.empty((n1, 2, 7, n2))
    np.multiply(A[:, :, 2:4], 0.5, out=B[:, :, 0:2])
    B[:, :, 2:4] = 0.5 * (h1 * L + eye)
    np.multiply(s_b, 0.5 * h1, out=B[:, :, 4])
    B[:, :, 5:7] = 0.5 * eye
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


def solve_linear(hat, pert: PerturbationConfig, grid: LagrangianGrid):
    """March the linearized system; returns the dotted solution and the
    discrete flux-identity report.

    All data enter proportionally to sigma (the entrance re-parametrisation
    uses the background map), so the solution is exactly linear in sigma.
    """
    from .shockfit import b_coefficients

    sigma = pert.sigma
    g = hat.gas.gamma
    beta = hat.gas.beta
    u_hat = hat["m", "u"]
    rho_hat = hat["m", "rho"]
    P_hat = hat["m", "P"]
    c2_hat = hat["m", "c2"]
    Msq = hat["m", "Msq"]
    if np.any(Msq <= 1.0):
        raise InvalidStateError("background must be supersonic for the upstream march")
    du_hat = hat["m", "du"]
    dS_hat = hat["m", "dS"]
    mu_max = float(np.max(rho_hat * u_hat / np.sqrt(Msq - 1.0)))
    _check_cfl(mu_max, grid.h1, grid.h2)

    # entrance data on the mass coordinate (background map: sigma-linear)
    _, en = entrance_profiles(hat, pert, None, perturbed_map=False)
    Sdot = sigma * en["S_en"]
    Bdot = sigma * en["B_en"]
    cc = -rho_hat * du_hat + beta * u_hat / c2_hat + rho_hat * u_hat * dS_hat / g

    def src(forward):
        return (
            P_hat / (g - 1.0) * _d2dir(Sdot, grid.h2, forward)
            - beta / (g - 1.0) * Sdot
            - rho_hat * _d2dir(Bdot, grid.h2, forward)
            + (beta / c2_hat + rho_hat * dS_hat / g) * Bdot
        )

    inv = 1.0 / (1.0 - Msq)
    K = _couplings(0.0, -rho_hat * u_hat * inv, rho_hat * u_hat, 0.0)
    Lc = _couplings(0.0, rho_hat * du_hat * inv, -cc, 0.0)
    s_f, s_b = (np.stack([np.zeros(grid.n2), src(fw)]) for fw in (True, False))
    wall = sigma * u_hat[-1] * pert.geometry.g.deriv(1)(grid.y1)
    inflow = (sigma * en["u1_en"], sigma * en["u2_en"])
    u1dot, u2dot = _march(grid, K, Lc, s_f, s_b, inflow, np.zeros(grid.n1), wall)

    V = Field(grid, {
        "u1": u1dot, "u2": u2dot,
        "S": np.broadcast_to(Sdot, u1dot.shape).copy(),
        "B": np.broadcast_to(Bdot, u1dot.shape).copy(),
    })
    sol = SupersonicSolution(V=V, kind="linear", picard_iters=1,
                             final_update=0.0, update_history=[])

    b1m, b2m, _, _ = b_coefficients(hat, "m")
    lhs = (u1dot * (b1m * fd.trap_w(grid.n2))).sum(axis=1) * grid.h2
    rhs_id = sigma * fd.trap(b1m * en["u1_en"], grid.h2) \
        - sigma * b2m[-1] * u_hat[-1] * pert.geometry.g(grid.y1)
    return sol, FluxIdentityReport(lhs=lhs, rhs=rhs_id)


def solve_nonlinear(hat, pert: PerturbationConfig, grid: LagrangianGrid, bg,
                    tol=1e-12, max_iter=25, sigma_threshold=0.05, lin=None):
    """Picard iteration for the nonlinear upstream flow.

    Each sweep marches the system with the advection/thermodynamic
    coefficients frozen at the previous iterate; the background residual is
    subtracted discretely so sigma = 0 converges in one sweep.  A damping
    factor 0.8 is applied whenever the update norm grows.

    The iteration starts from the background plus ``lin``, the linear
    solution of ``solve_linear`` on the same grid, when it is given, and from
    the background otherwise.  The warm start is O(sigma^2) from the fixed
    point instead of O(sigma) and saves one sweep at desk-scale sigma; the
    fixed point is the same.
    """
    sigma = pert.sigma
    if sigma > sigma_threshold:
        raise ConfigError(
            f"sigma={sigma} above the configured supersonic threshold {sigma_threshold}"
        )
    gas = hat.gas
    g = gas.gamma
    beta = gas.beta
    m, en = entrance_profiles(hat, pert, bg, perturbed_map=sigma > 0.0)
    mfac = hat.m_bar / m
    u_hat = hat["m", "u"]

    # transported characteristic fields (rows constant in y1)
    S_row = hat["m", "S"] + sigma * en["S_en"]
    B_row = hat["m", "B"] + sigma * en["B_en"]
    d2S = {fw: _d2dir(S_row, grid.h2, fw) for fw in (True, False)}
    d2B = {fw: _d2dir(B_row, grid.h2, fw) for fw in (True, False)}
    rho_hat = hat["m", "rho"]
    P_hat = hat["m", "P"]
    # discrete background residual of eq2 (well balancing); eq1 vanishes
    # identically at the background, where u2 = 0
    rbg = {fw: (rho_hat * u_hat * _d2dir(u_hat, grid.h2, fw) - beta
                + (P_hat / (g - 1.0) * _d2dir(hat["m", "S"], grid.h2, fw)
                   - rho_hat * _d2dir(hat["m", "B"], grid.h2, fw)))
           for fw in (True, False)}

    def freeze(Vfield):
        u1 = Vfield["u1"]
        u2 = Vfield["u2"]
        rho, P = rho_P(np.broadcast_to(S_row, u1.shape),
                       np.broadcast_to(B_row, u1.shape), u1, u2, gas)
        c2 = g * P / rho
        M1sq = u1 * u1 / c2
        M12 = u1 * u2 / c2
        Mtot = M1sq + u2 * u2 / c2
        if np.any(Mtot <= 1.0):
            raise InvalidStateError(
                f"flow leaves the supersonic regime (min M^2 = {Mtot.min():.4f})"
            )
        if np.any(np.abs(1.0 - M1sq) < 1e-10):
            raise CflError("sonic in the marching direction: M1 -> 1")
        mu = rho * np.sqrt(u1 * u1 + u2 * u2) / np.sqrt(Mtot - 1.0) * mfac
        _check_cfl(float(mu.max()), grid.h1, grid.h2)
        return rho, P, M1sq, M12

    # iterate: previous-field coefficients, linear march per sweep
    if lin is None:
        V = Field(grid, {
            "u1": np.broadcast_to(u_hat, (grid.n1, grid.n2)).copy(),
            "u2": np.zeros((grid.n1, grid.n2)),
        })
    else:
        V = Field(grid, {"u1": u_hat + lin.V["u1"], "u2": lin.V["u2"].copy()})
    inflow = (u_hat + sigma * en["u1_en"], sigma * en["u2_en"])
    wall = sigma * pert.geometry.g.deriv(1)(grid.y1)
    history = []
    prev_update = np.inf
    for it in range(1, max_iter + 1):
        rho, P, M1sq, M12 = freeze(V)
        a = mfac * rho * V["u1"]
        b = mfac * rho * V["u2"]
        inv = 1.0 / (1.0 - M1sq)
        # d1 u2 = a d2 u1 + b d2 u2 + s2, and eq1 solved for d1 u1:
        # d1 u1 = (M12 d1 u2 + b d2 u1 - a d2 u2) / (1 - M1^2)
        K = _couplings(inv * (M12 * a + b), inv * (M12 * b - a), a, b)
        s = {}
        for fw in (True, False):
            s2 = mfac * (P / (g - 1.0) * d2S[fw] - rho * d2B[fw]) - beta - rbg[fw]
            s[fw] = np.stack([inv * M12 * s2, s2], axis=1)
        u1n, u2n = _march(grid, K, 0.0, s[True], s[False], inflow,
                          wall, np.zeros(grid.n1))
        upd = max(np.abs(u1n - V["u1"]).max(), np.abs(u2n - V["u2"]).max())
        if upd > prev_update and upd > tol:
            u1n = V["u1"] + 0.8 * (u1n - V["u1"])
            u2n = V["u2"] + 0.8 * (u2n - V["u2"])
            upd = 0.8 * upd
        V["u1"], V["u2"] = u1n, u2n
        history.append(float(upd))
        prev_update = upd
        if upd <= tol:
            break
    else:
        raise NonConvergenceError(
            f"Picard failed to reach {tol:.1e} in {max_iter} sweeps", history
        )

    freeze(V)  # final supersonicity + CFL audit
    V["S"] = np.broadcast_to(S_row, (grid.n1, grid.n2)).copy()
    V["B"] = np.broadcast_to(B_row, (grid.n1, grid.n2)).copy()
    return SupersonicSolution(V=V, kind="nonlinear", picard_iters=len(history),
                              final_update=history[-1], update_history=history)
