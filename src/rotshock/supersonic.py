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

from .errors import CflError, ConfigError, InvalidStateError, NonConvergenceError
from .lagrangian import Field, Geometry, LagrangianGrid, inlet_maps
from .profiles import Profile
from .thermo import rho_P

__all__ = [
    "PerturbationConfig",
    "SupersonicSolution",
    "FluxIdentityReport",
    "entrance_profiles",
    "transport_SB",
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


def transport_SB(hat, grid: LagrangianGrid, sigma, S_en_y2, B_en_y2):
    """Total entropy/Bernoulli fields: entrance values replicated along y1."""
    S_row = hat["m", "S"] + sigma * np.asarray(S_en_y2, dtype=float)
    B_row = hat["m", "B"] + sigma * np.asarray(B_en_y2, dtype=float)
    S = np.broadcast_to(S_row, (grid.n1, grid.n2)).copy()
    B = np.broadcast_to(B_row, (grid.n1, grid.n2)).copy()
    return Field(grid, {"S": S, "B": B})


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


def _march(grid, rhs, inflow, wall_top, damping_state=None):
    """Generic MacCormack march of a 2-component row state.

    rhs(u1_row, u2_row, i_coeff_row, forward) -> (r1, r2);
    wall_top(y1_value, u1_row) -> scalar wall value of u2.
    Returns the (n1, n2, 2) history of rows.
    """
    n1, n2 = grid.n1, grid.n2
    h1 = grid.h1
    y1 = grid.y1
    u1 = np.empty((n1, n2))
    u2 = np.empty((n1, n2))
    u1[0], u2[0] = inflow
    for i in range(n1 - 1):
        r1, r2 = rhs(u1[i], u2[i], i, True)
        p1 = u1[i] + h1 * r1
        p2 = u2[i] + h1 * r2
        p2[0] = 0.0
        p2[-1] = wall_top(y1[i + 1], p1)
        q1, q2 = rhs(p1, p2, i + 1, False)
        u1[i + 1] = 0.5 * (u1[i] + p1 + h1 * q1)
        u2[i + 1] = 0.5 * (u2[i] + p2 + h1 * q2)
        u2[i + 1, 0] = 0.0
        u2[i + 1, -1] = wall_top(y1[i + 1], u1[i + 1])
    return u1, u2


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

    src_f, src_b = src(True), src(False)
    gprime = pert.geometry.g.deriv(1)
    wall_coef = sigma * u_hat[-1]

    def rhs(w1, w2, i, forward):
        d2w1 = _d2dir(w1, grid.h2, forward)
        d2w2 = _d2dir(w2, grid.h2, forward)
        r2 = rho_hat * u_hat * d2w1 - cc * w1 + (src_f if forward else src_b)
        r1 = (rho_hat * du_hat * w2 - rho_hat * u_hat * d2w2) / (1.0 - Msq)
        return r1, r2

    inflow = (sigma * en["u1_en"], sigma * en["u2_en"])
    u1dot, u2dot = _march(grid, rhs, inflow, lambda y1v, _w1: wall_coef * float(gprime(y1v)))

    V = Field(grid, {
        "u1": u1dot, "u2": u2dot,
        "S": np.broadcast_to(Sdot, u1dot.shape).copy(),
        "B": np.broadcast_to(Bdot, u1dot.shape).copy(),
    })
    sol = SupersonicSolution(V=V, kind="linear", picard_iters=1,
                             final_update=0.0, update_history=[])

    b1m, b2m, _, _ = b_coefficients(hat, "m")
    w2q = np.ones(grid.n2); w2q[0] = w2q[-1] = 0.5
    lhs = (u1dot * (b1m * w2q)).sum(axis=1) * grid.h2
    gvals = pert.geometry.g(grid.y1)
    rhs_id = sigma * float(((b1m * en["u1_en"]) * w2q).sum() * grid.h2) \
        - sigma * b2m[-1] * u_hat[-1] * gvals
    return sol, FluxIdentityReport(lhs=lhs, rhs=rhs_id)


def solve_nonlinear(hat, pert: PerturbationConfig, grid: LagrangianGrid, bg,
                    tol=1e-12, max_iter=25, sigma_threshold=0.05):
    """Picard iteration for the nonlinear upstream flow.

    Each sweep marches the system with the advection/thermodynamic
    coefficients frozen at the previous iterate; the background residual is
    subtracted discretely so sigma = 0 converges in one sweep.  A damping
    factor 0.8 is applied whenever the update norm grows.
    """
    sigma = pert.sigma
    if sigma > sigma_threshold:
        raise ConfigError(
            f"sigma={sigma} above the configured supersonic threshold {sigma_threshold}"
        )
    gas = hat.gas
    g = gas.gamma
    beta = gas.beta
    m_bar = hat.m_bar
    m, en = entrance_profiles(hat, pert, bg, perturbed_map=sigma > 0.0)
    mfac = m_bar / m
    u_hat = hat["m", "u"]

    # transported characteristic fields (rows constant in y1)
    S_row = hat["m", "S"] + sigma * en["S_en"]
    B_row = hat["m", "B"] + sigma * en["B_en"]
    d2S = {fw: _d2dir(S_row, grid.h2, fw) for fw in (True, False)}
    d2B = {fw: _d2dir(B_row, grid.h2, fw) for fw in (True, False)}
    d2u_hat = {fw: _d2dir(u_hat, grid.h2, fw) for fw in (True, False)}
    d2S_hat = {fw: _d2dir(hat["m", "S"], grid.h2, fw) for fw in (True, False)}
    d2B_hat = {fw: _d2dir(hat["m", "B"], grid.h2, fw) for fw in (True, False)}

    rho_hat = hat["m", "rho"]
    P_hat = hat["m", "P"]

    def bg_residual(forward):
        # discrete background residual of eq2 (well balancing); eq1 vanishes
        # identically at the background, where u2 = 0
        return (rho_hat * u_hat * d2u_hat[forward] - beta
                + (P_hat / (g - 1.0) * d2S_hat[forward] - rho_hat * d2B_hat[forward]))

    rbg = {fw: bg_residual(fw) for fw in (True, False)}

    gprime = pert.geometry.g.deriv(1)

    def wall_top(y1v, u1_row):
        return sigma * float(gprime(y1v)) * u1_row[-1]

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
        mu = rho * np.hypot(u1, u2) / np.sqrt(Mtot - 1.0) * mfac
        _check_cfl(float(mu.max()), grid.h1, grid.h2)
        return {"rho": rho, "P": P, "M1sq": M1sq, "M12": M12}

    # iterate: previous-field coefficients, linear march per sweep
    V = Field(grid, {
        "u1": np.broadcast_to(u_hat, (grid.n1, grid.n2)).copy(),
        "u2": np.zeros((grid.n1, grid.n2)),
    })
    history = []
    prev_update = np.inf
    for it in range(1, max_iter + 1):
        cf = freeze(V)

        def rhs(u1_row, u2_row, i, forward, cf=cf):
            rho = cf["rho"][i]
            M1sq = cf["M1sq"][i]
            M12 = cf["M12"][i]
            P = cf["P"][i]
            u1k = V["u1"][i]
            u2k = V["u2"][i]
            d2u1 = _d2dir(u1_row, grid.h2, forward)
            d2u2 = _d2dir(u2_row, grid.h2, forward)
            r2 = (mfac * rho * (u2k * d2u2 + u1k * d2u1) - beta
                  + mfac * (P / (g - 1.0) * d2S[forward] - rho * d2B[forward]))
            r2 = r2 - rbg[forward]
            r1 = (M12 * r2 + mfac * rho * (u2k * d2u1 - u1k * d2u2)) / (1.0 - M1sq)
            return r1, r2

        inflow = (u_hat + sigma * en["u1_en"], sigma * en["u2_en"])
        u1n, u2n = _march(grid, rhs, inflow, wall_top)
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
