"""Normal transonic shock profiles in a flat nozzle with Coriolis force.

With rotation the pre/post-shock states cannot be constant: they depend on
the vertical coordinate x2 through the inverse squared Mach number
d = 1/M^2 of the incoming flow, which must satisfy

    d'(x2) = (beta*gamma/u_minus(x2)) * (d - 1),     d(1) = 1/M_top^2 < 1,

solved in closed form by an exponential of the integral of beta*gamma/u_minus.
The upstream pressure follows from the vertical momentum balance
P' = -beta*rho*u, the density from rho = gamma*P/(d*u^2), and the downstream
(subsonic) state from the normal Rankine-Hugoniot relations applied height by
height.  The shock position itself is arbitrary for these profiles.

Profiles are sampled on a vertical grid, which ``lagrangian.lagrange``
interpolates; first derivatives come from exact chain rules, not from
differencing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import write_csv
from .errors import ConfigError, DegenerateBackgroundError
from .fd import cumsimpson
from .profiles import Profile
from .thermo import GasModel, GasState, entropy_bernoulli

__all__ = [
    "UpstreamSpec",
    "BackgroundSolution",
    "solve_mach_profile",
    "upstream_state",
    "downstream_state",
    "rh_residual",
    "build_background",
    "write_background_csv",
]

DEFAULT_NODES = 1025


@dataclass(frozen=True)
class UpstreamSpec:
    """Incoming flow data: u_minus(x2) on [0,1], Mach and pressure at the top wall."""

    u_minus: Profile
    M_top: float
    P_top: float

    def __post_init__(self):
        if self.M_top <= 1.0:
            raise DegenerateBackgroundError(
                f"upstream must be supersonic at the wall: M_top={self.M_top}"
            )
        if self.P_top <= 0.0:
            raise ConfigError(f"P_top must be positive, got {self.P_top}")
        x = np.linspace(0.0, 1.0, 257)
        umin = float(np.min(self.u_minus(x)))
        if umin <= 0.0:
            raise ConfigError(f"u_minus must stay positive (min {umin})")


def solve_mach_profile(spec: UpstreamSpec, m: GasModel, n=DEFAULT_NODES):
    """Inverse squared Mach number d(x2) on a uniform grid of n nodes.

    Uses the closed form d = 1 + (d(1)-1) exp(-int_x2^1 beta*gamma/u_minus);
    the integral is a composite Simpson cumulative quadrature on the grid.
    """
    x2 = np.linspace(0.0, 1.0, n)
    u = spec.u_minus(x2)
    d1 = 1.0 / spec.M_top**2
    if m.beta == 0.0:
        return x2, np.full(n, d1)
    integrand = m.beta * m.gamma / u
    cum = cumsimpson(integrand, x2)
    tail = cum[-1] - cum  # int_x2^1
    d = 1.0 + (d1 - 1.0) * np.exp(-tail)
    return x2, d


def upstream_state(spec: UpstreamSpec, x2, d, m: GasModel):
    """Upstream (rho, u, P) profiles from d(x2).

    P satisfies P' = -beta*rho*u, i.e. P = P_top * exp(int_x2^1 beta*gamma/(d*u)),
    and rho = gamma*P/(d*u^2).
    """
    u = spec.u_minus(x2)
    if m.beta == 0.0:
        P = np.full_like(u, spec.P_top)
    else:
        integrand = m.beta * m.gamma / (d * u)
        cum = cumsimpson(integrand, x2)
        P = spec.P_top * np.exp(cum[-1] - cum)
    rho = m.gamma * P / (d * u**2)
    return rho, u, P


def downstream_state(rho_m, u_m, P_m, m: GasModel):
    """Subsonic state behind a normal shock, height by height.

    Applies the normal Rankine-Hugoniot relations: the Prandtl form
    u_plus = 2(gamma-1) B_minus / ((gamma+1) u_minus), the momentum balance
    for P_plus, and mass conservation for rho_plus.
    """
    g = m.gamma
    Msq = u_m**2 * rho_m / (g * P_m)
    if np.any(Msq < 1.0 - 1e-13):
        raise DegenerateBackgroundError(
            f"upstream must be supersonic pointwise (min M^2 = {np.min(Msq):.6f})"
        )
    B_m = 0.5 * u_m**2 + g * P_m / ((g - 1.0) * rho_m)
    u_p = 2.0 * (g - 1.0) / ((g + 1.0) * u_m) * B_m
    P_p = 2.0 * rho_m * u_m**2 / (g + 1.0) - (g - 1.0) / (g + 1.0) * P_m
    rho_p = rho_m * u_m / u_p
    return rho_p, u_p, P_p


def rh_residual(left: GasState, right: GasState, m: GasModel):
    """Signed jumps (mass, momentum, Bernoulli) of the normal shock relations."""
    g = m.gamma
    r_mass = right.rho * right.u1 - left.rho * left.u1
    r_mom = (right.rho * right.u1**2 + right.P) - (left.rho * left.u1**2 + left.P)
    B_r = 0.5 * (right.u1**2 + right.u2**2) + g * right.P / ((g - 1.0) * right.rho)
    B_l = 0.5 * (left.u1**2 + left.u2**2) + g * left.P / ((g - 1.0) * left.rho)
    return r_mass, r_mom, B_r - B_l


@dataclass
class BackgroundSolution:
    """Sampled background profiles on [0,1].

    Attribute names ending in ``_m``/``_p`` hold the upstream/downstream
    profiles; ``deriv`` maps profile names to exact chain-rule first
    derivatives.
    """

    gas: GasModel
    spec: UpstreamSpec
    x2: np.ndarray
    d: np.ndarray
    rho_m: np.ndarray
    u_m: np.ndarray
    P_m: np.ndarray
    rho_p: np.ndarray
    u_p: np.ndarray
    P_p: np.ndarray
    S_m: np.ndarray
    B_m: np.ndarray
    S_p: np.ndarray
    B_p: np.ndarray
    deriv: dict = field(default_factory=dict)

    def profile(self, name):
        return getattr(self, name)

    @property
    def mass_flux(self):
        """rho_minus * u_minus (= rho_plus * u_plus pointwise)."""
        return self.rho_m * self.u_m


def build_background(spec: UpstreamSpec, m: GasModel, n=DEFAULT_NODES) -> BackgroundSolution:
    """Construct and sanity-check the full background solution."""
    x2, d = solve_mach_profile(spec, m, n)
    rho_m, u_m, P_m = upstream_state(spec, x2, d, m)
    rho_p, u_p, P_p = downstream_state(rho_m, u_m, P_m, m)
    g = m.gamma
    S_m, B_m = entropy_bernoulli(rho_m, u_m, 0.0, P_m, m)
    S_p, B_p = entropy_bernoulli(rho_p, u_p, 0.0, P_p, m)

    # exact chain-rule derivatives (u' analytic from the profile)
    du = spec.u_minus.deriv(1)(x2)
    dd = m.beta * g / u_m * (d - 1.0)
    dP_m = -m.beta * rho_m * u_m
    drho_m = rho_m * (dP_m / P_m - dd / d - 2.0 * du / u_m)
    dB = u_m * du + g / (g - 1.0) * (dP_m * rho_m - P_m * drho_m) / rho_m**2
    dS_m = dP_m / P_m - g * drho_m / rho_m
    du_p = 2.0 * (g - 1.0) / (g + 1.0) * (dB * u_m - B_m * du) / u_m**2
    dP_p = (2.0 * (drho_m * u_m**2 + 2.0 * rho_m * u_m * du) - (g - 1.0) * dP_m) / (g + 1.0)
    drho_p = (drho_m * u_m + rho_m * du) / u_p - rho_m * u_m * du_p / u_p**2
    dS_p = dP_p / P_p - g * drho_p / rho_p
    deriv = {
        "d": dd, "u_m": du, "P_m": dP_m, "rho_m": drho_m, "B_m": dB, "S_m": dS_m,
        "u_p": du_p, "P_p": dP_p, "rho_p": drho_p, "B_p": dB, "S_p": dS_p,
    }

    sol = BackgroundSolution(
        gas=m, spec=spec, x2=x2, d=d,
        rho_m=rho_m, u_m=u_m, P_m=P_m, rho_p=rho_p, u_p=u_p, P_p=P_p,
        S_m=S_m, B_m=B_m, S_p=S_p, B_p=B_p, deriv=deriv,
    )
    _validate(sol)
    return sol


def _validate(sol: BackgroundSolution):
    m = sol.gas
    d = sol.d
    d_top = d[-1]
    if m.beta > 0.0:
        if not (np.all(np.diff(d) < 0.0) and d[0] < 1.0 and np.all(d[:-1] > d_top)):
            raise DegenerateBackgroundError(
                f"d must decrease strictly within ({d_top:.6f}, 1): range "
                f"[{d.min():.6f}, {d.max():.6f}]"
            )
    Msq_p = sol.u_p**2 * sol.rho_p / (m.gamma * sol.P_p)
    if np.any(Msq_p >= 1.0):
        raise DegenerateBackgroundError(
            f"downstream not subsonic (max M+^2 = {Msq_p.max():.6f})"
        )
    jumps = np.stack(
        rh_residual(
            GasState(sol.rho_m, sol.u_m, 0.0, sol.P_m),
            GasState(sol.rho_p, sol.u_p, 0.0, sol.P_p),
            m,
        )
    )
    # each jump over its own upstream flux: mass, momentum, Bernoulli
    worst = np.abs(jumps / [sol.mass_flux, sol.mass_flux * sol.u_m + sol.P_m, sol.B_m]).max()
    if worst > 1e-10:
        raise DegenerateBackgroundError(f"relative Rankine-Hugoniot jump {worst:.3e} > 1e-10")


def write_background_csv(sol: BackgroundSolution, path):
    """Dump the background profiles as a CSV artifact."""
    cols = ("x2", "d", "rho_m", "u_m", "P_m", "rho_p", "u_p", "P_p")
    write_csv(path, {c: sol.profile(c) for c in cols})
