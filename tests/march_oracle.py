"""Row-by-row reference for the supersonic MacCormack march.

The upstream march as it was written before ``rotshock.supersonic._march``
became a frozen-coefficient kernel: one ``rhs`` closure per half-step that
differences the row, indexes the frozen coefficient rows and recomputes the
coefficient products, and a ``wall_top`` callback evaluating g' one node at
a time.  ``nonlinear`` is the Picard iteration the package used before it
solved the upstream flow by Newton's method; ``newton_step`` is one Newton
step, marched row by row with complex-step derivatives and a 2x2 solve per
column.  Tests compare the kernel against them.  Only the values are
reproduced here; the regime and CFL guards live in the package.
"""

import numpy as np

from rotshock.lagrangian import inlet_maps
from rotshock.supersonic import _d2dir, entrance_profiles
from rotshock.thermo import rho_P


def march(grid, rhs, inflow, wall_top):
    """MacCormack march of a 2-component row state.

    rhs(u1_row, u2_row, i_coeff_row, forward) -> (r1, r2);
    wall_top(y1_value, u1_row) -> scalar wall value of u2.
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


def linear(hat, pert, grid):
    """(u1dot, u2dot) of the linearized march."""
    sigma = pert.sigma
    g = hat.gas.gamma
    beta = hat.gas.beta
    u_hat = hat["m", "u"]
    rho_hat = hat["m", "rho"]
    P_hat = hat["m", "P"]
    c2_hat = hat["m", "c2"]
    Msq = hat["m", "Msq"]
    du_hat = hat["m", "du"]
    dS_hat = hat["m", "dS"]

    _, en = entrance_profiles(hat, pert)
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
    return march(grid, rhs, inflow, lambda y1v, _w1: wall_coef * float(gprime(y1v)))


def _nonlinear_data(hat, pert, grid, bg):
    """Entrance data, transported rows and well-balancing residual of the
    nonlinear march."""
    sigma = pert.sigma
    gas = hat.gas
    g = gas.gamma
    beta = gas.beta
    m, en = entrance_profiles(hat, pert, inlet_maps(bg, pert, sigma) if sigma > 0.0 else None)
    u_hat = hat["m", "u"]
    S_row = hat["m", "S"] + sigma * en["S_en"]
    B_row = hat["m", "B"] + sigma * en["B_en"]
    d2u_hat = {fw: _d2dir(u_hat, grid.h2, fw) for fw in (True, False)}
    d2S_hat = {fw: _d2dir(hat["m", "S"], grid.h2, fw) for fw in (True, False)}
    d2B_hat = {fw: _d2dir(hat["m", "B"], grid.h2, fw) for fw in (True, False)}
    rho_hat = hat["m", "rho"]
    P_hat = hat["m", "P"]
    return {
        "sigma": sigma, "gas": gas, "g": g, "beta": beta,
        "mfac": hat.m_bar / m, "u_hat": u_hat, "S_row": S_row, "B_row": B_row,
        "d2S": {fw: _d2dir(S_row, grid.h2, fw) for fw in (True, False)},
        "d2B": {fw: _d2dir(B_row, grid.h2, fw) for fw in (True, False)},
        "rbg": {fw: (rho_hat * u_hat * d2u_hat[fw] - beta
                     + (P_hat / (g - 1.0) * d2S_hat[fw] - rho_hat * d2B_hat[fw]))
                for fw in (True, False)},
        "inflow": (u_hat + sigma * en["u1_en"], sigma * en["u2_en"]),
        "gprime": pert.geometry.g.deriv(1),
    }


def nonlinear(hat, pert, grid, bg, tol=1e-12, max_iter=25):
    """(u1, u2, update history) of the Picard iteration; stops silently
    after ``max_iter`` sweeps."""
    data = _nonlinear_data(hat, pert, grid, bg)
    sigma, gas, g, beta, mfac, u_hat, S_row, B_row, d2S, d2B, rbg, gprime = (
        data[k] for k in ("sigma", "gas", "g", "beta", "mfac", "u_hat", "S_row",
                          "B_row", "d2S", "d2B", "rbg", "gprime"))

    def wall_top(y1v, u1_row):
        return sigma * float(gprime(y1v)) * u1_row[-1]

    def freeze(u1, u2):
        rho, P = rho_P(np.broadcast_to(S_row, u1.shape),
                       np.broadcast_to(B_row, u1.shape), u1, u2, gas)
        c2 = g * P / rho
        return {"rho": rho, "P": P, "M1sq": u1 * u1 / c2, "M12": u1 * u2 / c2}

    U1 = np.broadcast_to(u_hat, (grid.n1, grid.n2)).copy()
    U2 = np.zeros((grid.n1, grid.n2))
    history = []
    prev_update = np.inf
    for _ in range(max_iter):
        cf = freeze(U1, U2)

        def rhs(u1_row, u2_row, i, forward, cf=cf, U1=U1, U2=U2):
            rho = cf["rho"][i]
            M1sq = cf["M1sq"][i]
            M12 = cf["M12"][i]
            P = cf["P"][i]
            u1k = U1[i]
            u2k = U2[i]
            d2u1 = _d2dir(u1_row, grid.h2, forward)
            d2u2 = _d2dir(u2_row, grid.h2, forward)
            r2 = (mfac * rho * (u2k * d2u2 + u1k * d2u1) - beta
                  + mfac * (P / (g - 1.0) * d2S[forward] - rho * d2B[forward]))
            r2 = r2 - rbg[forward]
            r1 = (M12 * r2 + mfac * rho * (u2k * d2u1 - u1k * d2u2)) / (1.0 - M1sq)
            return r1, r2

        u1n, u2n = march(grid, rhs, data["inflow"], wall_top)
        upd = max(np.abs(u1n - U1).max(), np.abs(u2n - U2).max())
        if upd > prev_update and upd > tol:
            u1n = U1 + 0.8 * (u1n - U1)
            u2n = U2 + 0.8 * (u2n - U2)
            upd = 0.8 * upd
        U1, U2 = u1n, u2n
        history.append(float(upd))
        prev_update = upd
        if upd <= tol:
            break
    return U1, U2, history


def _rho_P(S, B, u1, u2, gas):
    """The closed form of ``rho_P`` without its guards, so a complex state
    passes through."""
    g = gas.gamma
    lnarg = np.log((g - 1.0) / g) + np.log(B - 0.5 * (u1 * u1 + u2 * u2))
    return np.exp((lnarg - S) / (g - 1.0)), np.exp(g * (lnarg - S / g) / (g - 1.0))


def newton_step(hat, pert, grid, bg):
    """(u1, u2) after one Newton step on the nonlinear MacCormack scheme from
    the background, marched row by row.

    The start is the background with the inflow row and both walls imposed.
    The predictor and the corrector use the Picard ``rhs`` with coefficients
    at the iterate's row; their derivatives in the coefficient state are
    taken by complex step, and the implicit corrector is solved per column
    with ``np.linalg.solve``, its u2 row replaced by the wall condition at
    both wall columns.
    """
    data = _nonlinear_data(hat, pert, grid, bg)
    sigma, gas, g, beta, mfac = (data[k] for k in ("sigma", "gas", "g", "beta", "mfac"))
    n1, n2, h1 = grid.n1, grid.n2, grid.h1
    gp = [sigma * float(data["gprime"](y)) for y in grid.y1]

    def rate(uk, d2u, forward):
        """(r1, r2) of the Picard rhs with coefficients at the row state uk."""
        rho, P = _rho_P(data["S_row"], data["B_row"], uk[0], uk[1], gas)
        c2 = g * P / rho
        M1sq = uk[0] * uk[0] / c2
        M12 = uk[0] * uk[1] / c2
        r2 = (mfac * rho * (uk[1] * d2u[1] + uk[0] * d2u[0]) - beta
              + mfac * (P / (g - 1.0) * data["d2S"][forward] - rho * data["d2B"][forward]))
        r2 = r2 - data["rbg"][forward]
        r1 = (M12 * r2 + mfac * rho * (uk[1] * d2u[0] - uk[0] * d2u[1])) / (1.0 - M1sq)
        return np.array([r1, r2])

    def jac(uk, d2u, forward):
        """(2, 2, n2) derivative [m, k] of ``rate`` in uk[k] at fixed d2u."""
        J = np.empty((2, 2, n2))
        for k in range(2):
            uc = uk.astype(complex)
            uc[k] += 1e-30j
            J[:, k] = rate(uc, d2u, forward).imag / 1e-30
        return J

    def K_times(uk, dw, forward):
        return rate(uk, dw, forward) - rate(uk, np.zeros_like(dw), forward)

    def d2(w, forward):
        return np.array([_d2dir(w[0], grid.h2, forward), _d2dir(w[1], grid.h2, forward)])

    def walls(w, i):
        w[1, 0] = 0.0
        w[1, -1] = gp[i] * w[0, -1]

    U = np.empty((n1, 2, n2))
    U[:, 0] = data["u_hat"]
    U[:, 1] = 0.0
    U[0] = data["inflow"]
    for i in range(1, n1):
        walls(U[i], i)
    dU = np.zeros_like(U)
    for i in range(n1 - 1):
        # the iterate's predictor and corrector defect
        Dp = d2(U[i], True)
        p = U[i] + h1 * rate(U[i], Dp, True)
        walls(p, i + 1)
        Dm = d2(p, False)
        F = U[i + 1] - 0.5 * (U[i] + p + h1 * rate(U[i + 1], Dm, False))
        # the linearized predictor and corrector on the step
        dp = dU[i] + h1 * (K_times(U[i], d2(dU[i], True), True)
                           + np.einsum("mkj,kj->mj", jac(U[i], Dp, True), dU[i]))
        walls(dp, i + 1)
        rhs = 0.5 * (dU[i] + dp + h1 * K_times(U[i + 1], d2(dp, False), False)) - F
        E = np.eye(2)[None] - 0.5 * h1 * jac(U[i + 1], Dm, False).transpose(2, 0, 1)
        for j, wa in ((0, 0.0), (n2 - 1, gp[i + 1])):
            E[j, 1] = (-wa, 1.0)
            rhs[1, j] = 0.0
        dU[i + 1] = np.linalg.solve(E, rhs.T[:, :, None])[:, :, 0].T
    return U[:, 0] + dU[:, 0], U[:, 1] + dU[:, 1]


def frozen_march(grid, K, L_pred, L_corr, s_f, s_b, inflow, wa, wb, L_impl):
    """(u1, u2) of the frozen-coefficient row system of ``_march``, each
    corrector row solved per column with ``np.linalg.solve``, its u2 row
    replaced by the wall condition at both wall columns."""
    n1, h1 = grid.n1, grid.h1

    def d2(w, forward):
        return np.array([_d2dir(w[0], grid.h2, forward), _d2dir(w[1], grid.h2, forward)])

    def times(C, w):
        return np.einsum("mkj,kj->mj", C, w)

    W = np.empty((n1, 2, grid.n2))
    W[0] = inflow
    for i in range(n1 - 1):
        w = W[i]
        p = w + h1 * (times(K[i], d2(w, True)) + times(L_pred[i], w) + s_f[i])
        p[1, 0] = 0.0
        p[1, -1] = wa[i + 1] * p[0, -1] + wb[i + 1]
        rhs = 0.5 * (w + p + h1 * (times(K[i + 1], d2(p, False)) + times(L_corr[i + 1], p)
                                   + s_b[i + 1]))
        E = np.eye(2)[None] - 0.5 * h1 * L_impl[i + 1].transpose(2, 0, 1)
        for j, a, b in ((0, 0.0, 0.0), (-1, wa[i + 1], wb[i + 1])):
            E[j, 1] = (-a, 1.0)
            rhs[1, j] = b
        W[i + 1] = np.linalg.solve(E, rhs.T[:, :, None])[:, :, 0].T
    return W[:, 0], W[:, 1]
