"""Normal transonic shock profiles in a flat nozzle with Coriolis force.

With rotation the pre/post-shock states cannot be constant: they depend on
the vertical coordinate x2 through the inverse squared Mach number
d = 1/M^2 of the incoming flow, which must satisfy

    d'(x2) = (beta*gamma/u_minus(x2)) * (d - 1),     d(1) = 1/M_top^2 < 1.

On the mass coordinate y2 = int_0^x2 rho*u the vertical momentum balance
reads dP/dy2 = -beta and (1 - M^2) P keeps its top-wall value, so every
profile is an elementary function of one quadrature, the transit time
U(x2) = int_0^x2 dx/u_minus.  The downstream (subsonic) state follows from
the normal Rankine-Hugoniot relations height by height; the shock position
is arbitrary for these profiles.  ``special_solution`` evaluates both sides,
with exact chain-rule first derivatives, on [0, 1] here and on the mass
coordinate in ``lagrangian.hatted_background``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import write_csv
from .errors import ConfigError, DegenerateBackgroundError
from .profiles import Profile
from .thermo import GasModel, GasState, entropy_bernoulli

__all__ = [
    "UpstreamSpec",
    "BackgroundSolution",
    "special_solution",
    "downstream_state",
    "rh_residual",
    "build_background",
    "write_background_csv",
]

DEFAULT_NODES = 1025
# numpy.polynomial.legendre.leggauss(8), the transit time's rule on [-1, 1]; computing
# it would start numpy's eigensolver, 0.6 MB of peak memory in every process
GAUSS_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                        -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                        0.7966664774136267, 0.9602898564975362])
GAUSS_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                          0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                          0.22238103445337443, 0.10122853629037706])


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
    profiles; ``y2`` is the mass coordinate int_0^x2 rho_m u_m at the nodes
    and ``deriv`` maps profile names to exact chain-rule first derivatives.
    """

    gas: GasModel
    spec: UpstreamSpec
    x2: np.ndarray
    y2: np.ndarray
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

    @property
    def m_bar(self):
        """The background mass flux int_0^1 rho_minus * u_minus."""
        return float(self.y2[-1])


def _transit_time(u_minus: Profile, x2):
    """U(x2) = int_0^x2 dx/u_minus at the increasing nodes ``x2`` (x2[0] = 0),
    by 8-point Gauss-Legendre on every interval."""
    half = 0.5 * np.diff(x2)
    q = (x2[:-1] + half)[:, None] + half[:, None] * GAUSS_NODES
    U = np.zeros_like(x2)
    U[1:] = np.cumsum(half * (1.0 / u_minus(q) @ GAUSS_WEIGHTS))
    return U


def special_solution(spec: UpstreamSpec, m: GasModel, x2, P):
    """(profiles, deriv): both sides' states and their exact x2-derivatives at
    the heights ``x2``, where the upstream pressure is ``P``; (1 - M^2) P keeps
    its top-wall value, so d = P / (P + (M_top^2 - 1) P_top)."""
    g = m.gamma
    d = P / (P + (spec.M_top**2 - 1.0) * spec.P_top)
    u_m = spec.u_minus(x2)
    rho_m = g * P / (d * u_m**2)
    rho_p, u_p, P_p = downstream_state(rho_m, u_m, P, m)
    S_m, B_m = entropy_bernoulli(rho_m, u_m, 0.0, P, m)
    S_p, B_p = entropy_bernoulli(rho_p, u_p, 0.0, P_p, m)

    # exact chain-rule derivatives (u' analytic from the profile)
    du = spec.u_minus.deriv(1)(x2)
    dd = m.beta * g / u_m * (d - 1.0)
    dP_m = -m.beta * rho_m * u_m
    drho_m = rho_m * (dP_m / P - dd / d - 2.0 * du / u_m)
    dB = u_m * du + g / (g - 1.0) * (dP_m * rho_m - P * drho_m) / rho_m**2
    dS_m = dP_m / P - g * drho_m / rho_m
    du_p = 2.0 * (g - 1.0) / (g + 1.0) * (dB * u_m - B_m * du) / u_m**2
    dP_p = (2.0 * (drho_m * u_m**2 + 2.0 * rho_m * u_m * du) - (g - 1.0) * dP_m) / (g + 1.0)
    drho_p = (drho_m * u_m + rho_m * du) / u_p - rho_m * u_m * du_p / u_p**2
    dS_p = dP_p / P_p - g * drho_p / rho_p
    profiles = {
        "d": d, "rho_m": rho_m, "u_m": u_m, "P_m": P, "rho_p": rho_p, "u_p": u_p,
        "P_p": P_p, "S_m": S_m, "B_m": B_m, "S_p": S_p, "B_p": B_p,
    }
    deriv = {
        "d": dd, "u_m": du, "P_m": dP_m, "rho_m": drho_m, "B_m": dB, "S_m": dS_m,
        "u_p": du_p, "P_p": dP_p, "rho_p": drho_p, "B_p": dB, "S_p": dS_p,
    }
    return profiles, deriv


def build_background(spec: UpstreamSpec, m: GasModel, n=DEFAULT_NODES) -> BackgroundSolution:
    """Construct and sanity-check the background on n nodes of [0, 1].

    With a = gamma*beta and top = P_top M_top^2, P = P_top + top expm1(a (U(1) - U))
    and y2 = gamma top e^(a U(1)) (1 - e^(-a U)) / a.  The flow exists while
    d(0) < 1 and y2 increases from node to node, both to round-off.
    """
    x2 = np.linspace(0.0, 1.0, n)
    U = _transit_time(spec.u_minus, x2)
    a = m.gamma * m.beta
    top = spec.P_top * spec.M_top**2
    # (1 - e^(-a U))/a is U to round-off once a U(1) is below eps, where a
    # subnormal a would lose its digits; a large a U(1) overflows to inf and
    # nan here, and the check names it
    small = a * U[-1] <= np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        P = spec.P_top + top * np.expm1(a * (U[-1] - U))
        y2 = m.gamma * top * np.exp(a * U[-1]) * (U if small else -np.expm1(-a * U) / a)
        d0 = P[0] / (P[0] + (spec.M_top**2 - 1.0) * spec.P_top)
        if not (np.isfinite(y2[-1]) and d0 < 1.0 and np.all(np.diff(y2) > 0.0)):
            raise DegenerateBackgroundError(
                "upstream not supersonic at the bottom wall, or its mass coordinate not "
                f"increasing, to round-off: d(0) = {d0:.6g}, m_bar = {y2[-1]:.6g} "
                f"(gamma*beta*U(1) = {a * U[-1]:.6g})"
            )
    profiles, deriv = special_solution(spec, m, x2, P)
    sol = BackgroundSolution(gas=m, spec=spec, x2=x2, y2=y2, deriv=deriv, **profiles)
    _validate(sol)
    return sol


def _validate(sol: BackgroundSolution):
    m = sol.gas
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
