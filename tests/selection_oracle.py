"""Oracle of the paper's selection Lemma, used only by tests.

``selection_bracket`` gives the interval on which J1 is provably monotone,
so that J1 = J2 has at most one root there.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from rotshock import fd
from rotshock.errors import DegenerateSelectionError
from rotshock.lagrangian import Field
from rotshock.shockfit import ShockCoefficients, b_coefficients


@dataclass
class SelectionBracket:
    lo: float
    hi: float
    case: str            # "increasing" (condition i) or "decreasing" (condition ii)
    slope_integral: float
    C_minus: float


def selection_bracket(coeffs: ShockCoefficients, lin: Field, pert, hat) -> SelectionBracket:
    """Admissible interval (0, L_plus) on which J1 is provably monotone.

    L_plus = |I| / F with I the slope integral of J1 at psi_bar = 0 and F a
    computable bound on |J1''| built from the measured supersonic
    amplification (the sup norm of the linear solution and its first two
    y1-derivatives, divided by sigma) and the wall curvature.  The paper's
    sufficient condition for a unique position; the solver does not need it,
    as ``find_shock_position`` counts the roots on any bracket.
    """
    sigma, L = pert.sigma, pert.geometry.L
    y2 = coeffs.y2
    h2 = y2[1] - y2[0]
    if sigma <= 0.0:
        raise DegenerateSelectionError("sigma = 0: the shock position is arbitrary")
    b1m, b2m, _, _ = b_coefficients(hat, "m")
    comp = coeffs.b1p * (coeffs.fa3 - coeffs.fa1) / b1m
    dcomp = CubicSpline(y2, comp).derivative()(y2)
    u2_en_y2 = pert.u2_en(hat.x2)
    I = fd.trap(dcomp * b2m * u2_en_y2, h2)

    h1 = lin.grid.h1
    d1 = np.gradient(lin["u1"], h1, axis=0, edge_order=2)
    d11 = np.gradient(d1, h1, axis=0, edge_order=2)
    supnorm = max(
        max(np.abs(lin[k]).max() for k in ("u1", "u2", "S", "B")),
        np.abs(d1).max(), np.abs(d11).max(),
    )
    C_minus = supnorm / sigma
    gpp = pert.geometry.g.deriv(2)
    g2max = float(np.abs(gpp(np.linspace(0.0, L, 513))).max())
    F = C_minus * fd.trap(np.abs((coeffs.fa3 - coeffs.fa1) * coeffs.b1p), h2) \
        + coeffs.b2p[-1] * hat["p", "u"][-1] * g2max
    scale = max(np.abs(comp).max() * np.abs(b2m).max() * max(1.0, np.abs(u2_en_y2).max()), 1e-300)
    if abs(I) <= 1e-11 * scale:
        raise DegenerateSelectionError(
            f"J1 slope integral {I:.3e} vanishes: no admissible position selection "
            "(flat-nozzle/no-rotation regime)"
        )
    L_star = abs(I) / F
    hi = 0.999 * min(L_star, L)
    case = "increasing" if I > 0.0 else "decreasing"
    return SelectionBracket(lo=0.0, hi=hi, case=case, slope_integral=I, C_minus=C_minus)
