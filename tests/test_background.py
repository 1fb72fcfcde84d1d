import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotshock as rs
from rotshock.background import solve_mach_profile, upstream_state, downstream_state
from rotshock.profiles import Profile
from tests.background_oracle import extend_profile, extension_coefficients


def rk4_mach_ode(u_minus, gas, d_top, n):
    """Independent oracle: RK4 integration of d' = (beta*gamma/u)(d-1),
    marching downward from x2 = 1."""
    x = np.linspace(1.0, 0.0, n)
    h = x[1] - x[0]
    d = np.empty(n)
    d[0] = d_top
    f = lambda xx, dd: gas.beta * gas.gamma / u_minus(xx) * (dd - 1.0)
    for i in range(n - 1):
        k1 = f(x[i], d[i])
        k2 = f(x[i] + h / 2, d[i] + h / 2 * k1)
        k3 = f(x[i] + h / 2, d[i] + h / 2 * k2)
        k4 = f(x[i] + h, d[i] + h * k3)
        d[i + 1] = d[i] + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x[::-1], d[::-1]


def test_mach_profile_beta_zero(upstream_spec, gas_classic):
    _, d = solve_mach_profile(upstream_spec, gas_classic, 257)
    assert np.abs(d - 0.25).max() == 0.0


def test_mach_profile_constant_u_closed_form(upstream_spec, gas_rot):
    x, d = solve_mach_profile(upstream_spec, gas_rot, 1025)
    exact = 1.0 + (0.25 - 1.0) * np.exp(-0.1 * 1.4 * (1.0 - x) / 2.0)
    assert np.abs(d - exact).max() <= 1e-13


def test_mach_profile_vs_rk4_oracle(gas_rot):
    u = Profile.from_poly([2.0, 0.3, -0.2])  # nonconstant upstream speed
    spec = rs.UpstreamSpec(u, 1.8, 1.2)
    n = 513
    x, d = solve_mach_profile(spec, gas_rot, n)
    xr, dr = rk4_mach_ode(u, gas_rot, 1.0 / 1.8**2, 4 * (n - 1) + 1)
    assert np.abs(d - dr[::4]).max() <= 1e-10


def test_mach_profile_rejects_subsonic_top(gas_rot):
    with pytest.raises(rs.DegenerateBackgroundError):
        rs.UpstreamSpec(Profile.constant(2.0), 0.9, 1.0)


def test_upstream_state_beta_zero(upstream_spec, gas_classic):
    x, d = solve_mach_profile(upstream_spec, gas_classic, 257)
    rho, u, P = upstream_state(upstream_spec, x, d, gas_classic)
    assert np.abs(P - 1.0).max() == 0.0
    assert np.abs(rho - 1.4).max() <= 1e-14


def test_upstream_momentum_balance_richardson(gas_rot):
    # P' + beta*rho*u -> 0 at O(h^2): error ratio ~ 4 between halved grids
    u = Profile.from_poly([2.0, 0.3])
    spec = rs.UpstreamSpec(u, 2.0, 1.0)
    errs = []
    for n in (129, 257):
        x, d = solve_mach_profile(spec, gas_rot, n)
        rho, uu, P = upstream_state(spec, x, d, gas_rot)
        dP = np.gradient(P, x, edge_order=2)
        errs.append(np.abs(dP + gas_rot.beta * rho * uu)[1:-1].max())
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0


def test_downstream_classical_values(bg_classic):
    assert np.abs(bg_classic.u_p - 0.75).max() <= 1e-12
    assert np.abs(bg_classic.P_p - 4.5).max() <= 1e-12
    assert np.abs(bg_classic.rho_p - 56.0 / 15.0).max() <= 1e-12
    # cross-check against the textbook normal-shock ratios at M = 2
    M2 = 4.0
    g = 1.4
    assert 4.5 == pytest.approx((2 * g * M2 - (g - 1)) / (g + 1), rel=1e-15)
    assert 0.75 / 2.0 == pytest.approx(((g - 1) * M2 + 2) / ((g + 1) * M2), rel=1e-15)


def test_downstream_sonic_fixed_point(gas_classic):
    # M = 1 upstream: the jump map is the identity
    rho, u, P = np.array([1.4]), np.array([1.0]), np.array([1.0])
    rp, up_, Pp = downstream_state(rho, u, P, gas_classic)
    assert up_[0] == pytest.approx(1.0, rel=1e-14)
    assert Pp[0] == pytest.approx(1.0, rel=1e-14)
    assert rp[0] == pytest.approx(1.4, rel=1e-14)


def test_downstream_rejects_subsonic(gas_classic):
    with pytest.raises(rs.DegenerateBackgroundError):
        downstream_state(np.array([1.4]), np.array([0.5]), np.array([1.0]), gas_classic)


def test_downstream_momentum_balance(bg_rot, gas_rot):
    errs = []
    for n in (257, 513):
        spec = bg_rot.spec
        bg = rs.build_background(spec, gas_rot, n)
        dP = np.gradient(bg.P_p, bg.x2, edge_order=2)
        errs.append(np.abs(dP + gas_rot.beta * bg.rho_p * bg.u_p)[1:-1].max())
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_momentum_flux_ode(bg_rot, gas_rot):
    # (rho_- u_-^2)' = -beta*gamma*rho_- u_- with O(h^2) convergence
    errs = []
    for n in (257, 513):
        bg = rs.build_background(bg_rot.spec, gas_rot, n)
        q = bg.rho_m * bg.u_m**2
        dq = np.gradient(q, bg.x2, edge_order=2)
        errs.append(np.abs(dq + gas_rot.beta * gas_rot.gamma * bg.mass_flux)[1:-1].max())
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_rh_residual_trivial(gas_classic):
    s = rs.GasState(1.0, 2.0, 0.0, 1.0)
    assert rs.rh_residual(s, s, gas_classic) == (0.0, 0.0, 0.0)


def test_rh_residual_background(bg_rot, gas_rot):
    jumps = rs.rh_residual(
        rs.GasState(bg_rot.rho_m, bg_rot.u_m, 0.0, bg_rot.P_m),
        rs.GasState(bg_rot.rho_p, bg_rot.u_p, 0.0, bg_rot.P_p), gas_rot)
    assert max(np.abs(j).max() for j in jumps) <= 1e-10


def test_rh_residual_pressure_linearity(gas_classic):
    left = rs.GasState(1.4, 2.0, 0.0, 1.0)
    right = rs.GasState(56 / 15, 0.75, 0.0, 4.5)
    eps = 1e-3
    r0 = rs.rh_residual(left, right, gas_classic)
    r1 = rs.rh_residual(left, rs.GasState(right.rho, right.u1, right.u2, right.P + eps),
                        gas_classic)
    assert r1[1] - r0[1] == pytest.approx(eps, rel=1e-12)


def test_extension_coefficients_identities():
    c = extension_coefficients()
    k = np.arange(1, 5, dtype=float)
    res = [c.sum() - 1.0, -np.sum(c / k) - 1.0, np.sum(c / k**2) - 1.0,
           -np.sum(c / k**3) - 1.0]
    assert max(abs(r) for r in res) <= 1e-12
    # oracle: independent least-squares solve of the same system
    V = np.vander(-1.0 / k, 4, increasing=True).T
    c_ls, *_ = np.linalg.lstsq(V, np.ones(4), rcond=None)
    assert np.abs(c - c_ls).max() <= 1e-9


def test_extension_constant():
    y, v = extend_profile(lambda x: np.ones_like(x), n=129)
    assert np.abs(v - 1.0).max() <= 1e-12


def test_extension_linear():
    y, v = extend_profile(lambda x: np.asarray(x), n=129)
    assert np.abs(v - y).max() <= 1e-12


def test_extension_cubic_exact():
    f = lambda x: 1.0 + 2 * x - 3 * x**2 + 0.5 * x**3
    y, v = extend_profile(f, n=257)
    assert np.abs(v - f(y)).max() <= 1e-11


def test_extension_matches_derivatives_at_join():
    f = lambda x: np.sin(1.3 * x)  # smooth non-polynomial
    y, v = extend_profile(f, n=2049)
    h = y[1] - y[0]
    i = np.searchsorted(y, 1.0)
    assert y[i] == pytest.approx(1.0, abs=1e-14)
    # one-sided derivative estimates from both sides up to third order
    for order, tol in ((1, 1e-6), (2, 1e-4), (3, 5e-2)):
        lo = v[i - 4:i + 1]
        hi = v[i:i + 5]
        dl = np.polyfit(y[i - 4:i + 1] - 1.0, lo, 4)[-1 - order] * math.factorial(order)
        dh = np.polyfit(y[i:i + 5] - 1.0, hi, 4)[-1 - order] * math.factorial(order)
        assert dh == pytest.approx(dl, abs=tol), f"derivative order {order}"


def test_background_invariants(bg_rot):
    assert np.all(np.diff(bg_rot.d) < 0)
    assert bg_rot.d[0] < 1.0
    assert bg_rot.d[-1] == pytest.approx(0.25, rel=1e-14)


def test_beta_to_zero_classical_limit(upstream_spec, gas_classic):
    bg = rs.build_background(upstream_spec, gas_classic)
    for name in ("rho_m", "u_m", "P_m", "rho_p", "u_p", "P_p"):
        prof = bg.profile(name)
        assert np.abs(prof - prof[0]).max() <= 1e-12, name


@settings(derandomize=True, deadline=None, max_examples=40)
@given(gamma=st.floats(1.05, 3.0, exclude_min=True), beta=st.floats(0.0, 1.0),
       M_top=st.floats(1.05, 10.0, exclude_min=True))
def test_background_is_a_shock_or_a_typed_error(gamma, beta, M_top):
    # either a degenerate background, named, or pointwise jump conditions at
    # round-off with a subsonic downstream
    gas = rs.GasModel(gamma, beta)
    try:
        bg = rs.build_background(rs.UpstreamSpec(Profile.constant(2.0), M_top, 1.0), gas)
    except rs.DegenerateBackgroundError:
        return
    jumps = rs.rh_residual(rs.GasState(bg.rho_m, bg.u_m, 0.0, bg.P_m),
                           rs.GasState(bg.rho_p, bg.u_p, 0.0, bg.P_p), gas)
    assert max(np.abs(j).max() for j in jumps) <= 1e-10
    assert np.all(bg.u_p**2 * bg.rho_p < gamma * bg.P_p)
