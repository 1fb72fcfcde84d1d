import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

import rotshock as rs
from rotshock.lagrangian import inlet_maps
from rotshock.profiles import Profile
from tests.conftest import make_pert
from tests.lagrangian_oracle import characteristic_speeds, x2_of_y


class FluxStub:
    """Minimal background stand-in with a prescribed entrance mass flux."""

    def __init__(self, flux_fun, gas):
        self.x2 = np.linspace(0.0, 1.0, 1025)
        self.mass_flux = flux_fun(self.x2)
        self.gas = gas


def test_geometry_rejects_bad_wall():
    with pytest.raises(rs.ConfigError):
        rs.Geometry(2.0, Profile.from_poly([0.0, 1.0]))  # g'(0) != 0


def test_mass_fluxes_constant(gas_classic):
    bg = FluxStub(lambda x: np.full_like(x, 2.8), gas_classic)
    pert = make_pert(0.0, 0.0)
    m, m_bar = inlet_maps(bg, pert)[:2]
    assert m == m_bar == pytest.approx(2.8, rel=1e-14)


def test_mass_fluxes_linear_flux(gas_classic):
    bg = FluxStub(lambda x: 2.0 + x, gas_classic)
    m, m_bar = inlet_maps(bg, make_pert(0.0, 0.0))[:2]
    assert m_bar == pytest.approx(2.5, rel=1e-13)


def test_mass_fluxes_positive_perturbation(bg_rot):
    geom = rs.Geometry(2.0, Profile.from_poly([0.0]))
    pert = rs.PerturbationConfig(1e-2, Profile.constant(0.5), Profile.constant(0.0),
                                 Profile.constant(0.0), Profile.constant(0.0),
                                 Profile.constant(0.0), geom)
    m, m_bar = inlet_maps(bg_rot, pert)[:2]
    assert m > m_bar


def test_x2_of_y_constant_flux(gas_classic):
    q = 2.8
    grid = rs.LagrangianGrid(65, 129, 0.0, 2.0, q, q)
    field = np.full((65, 129), q)
    y = np.linspace(0, q, 57)
    out = x2_of_y(field, grid, 1.3, y)
    assert np.abs(out - y / q).max() <= 1e-13


def test_x2_of_y_zero(gas_classic):
    grid = rs.LagrangianGrid(17, 33, 0.0, 2.0, 1.0, 1.0)
    assert x2_of_y(np.full((17, 33), 3.0), grid, 0.5, 0.0) == 0.0


def test_x2_of_y_rejects_reversed_flow():
    grid = rs.LagrangianGrid(17, 33, 0.0, 2.0, 1.0, 1.0)
    field = np.full((17, 33), 3.0)
    field[5, 7] = -0.1
    with pytest.raises(rs.InvalidStateError):
        x2_of_y(field, grid, 0.5, 0.5)


def test_round_trip_background(bg_rot):
    hat = rs.hatted_background(bg_rot, n2=1025)
    grid = rs.LagrangianGrid(1025, 1025, 0.0, 2.0, hat.m_bar, hat.m_bar)
    field = np.broadcast_to(hat["m", "rho"] * hat["m", "u"], (1025, 1025)).copy()
    y2_of_x2 = CubicSpline(bg_rot.x2, cumulative_simpson(bg_rot.mass_flux, x=bg_rot.x2,
                                                         initial=0.0))
    x2q = np.linspace(0.0, 1.0, 1025)
    y2q = np.clip(y2_of_x2(x2q), 0.0, hat.m_bar)
    back = x2_of_y(field, grid, 1.0, y2q)
    assert np.abs(back - x2q).max() <= 1e-8


def test_hatted_constant_background(bg_classic):
    # constant-profile background: the hatted profiles are the same constants
    # and the map is affine, y2 = (rho*u) * x2
    hat = rs.hatted_background(bg_classic, n2=65)
    q = 1.4 * 2.0
    assert np.abs(hat.x2 - hat.y2 / q).max() <= 1e-12
    for side, name, val in (("m", "u", 2.0), ("p", "u", 0.75), ("m", "rho", 1.4)):
        assert np.abs(hat[side, name] - val).max() <= 1e-12
    assert hat.x2[0] == 0.0


@pytest.mark.parametrize("n2", [65, 129])
def test_hatted_profiles_match_per_column_splines(bg_rot, n2):
    # the six-node Lagrange samples agree with one CubicSpline per column and
    # with the spline's inverse inlet map (measured to 7.4e-16)
    hat = rs.hatted_background(bg_rot, n2=n2)
    cum = cumulative_simpson(bg_rot.mass_flux, x=bg_rot.x2, initial=0.0)
    x2q = np.clip(CubicSpline(cum, bg_rot.x2)(hat.y2), 0.0, 1.0)
    assert np.abs(hat.x2 - x2q).max() <= 1e-13
    flux = CubicSpline(bg_rot.x2, bg_rot.rho_m)(x2q) * CubicSpline(bg_rot.x2, bg_rot.u_m)(x2q)

    def close(a, b):
        return np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    for side in ("m", "p"):
        for name in ("u", "rho", "P", "S", "B"):
            ref = CubicSpline(bg_rot.x2, bg_rot.profile(f"{name}_{side}"))(x2q)
            assert close(hat[side, name], ref), (side, name)
        for name in ("u", "S", "B"):
            ref = CubicSpline(bg_rot.x2, bg_rot.deriv[f"{name}_{side}"])(x2q) / flux
            assert close(hat[side, "d" + name], ref), (side, name)
        c2 = bg_rot.gas.gamma * hat[side, "P"] / hat[side, "rho"]
        assert np.array_equal(hat[side, "c2"], c2)
        assert np.array_equal(hat[side, "Msq"], hat[side, "u"] ** 2 / c2)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(gamma=st.floats(1.05, 2.0, exclude_min=True),
       beta=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
       M_top=st.floats(1.05, 3.0, exclude_min=True), P_top=st.floats(0.1, 10.0),
       u0=st.floats(1.5, 4.0), u1=st.floats(-0.25, 0.25), u2=st.floats(-0.25, 0.25),
       n2=st.sampled_from([33, 65, 129]))
@example(gamma=1.4, beta=0.1, M_top=2.0, P_top=1.0, u0=2.0, u1=0.0, u2=0.0, n2=65)
def test_hatted_background_closed_form(gamma, beta, M_top, P_top, u0, u1, u2, n2):
    # on the mass coordinate dP/dy2 = -beta and (1 - M^2) P is constant, so
    # with U = int_0^1 dx/u_minus the upstream side is known in closed form:
    #   P = P_top + beta (m_bar - y2),  M^2 = 1 + (M_top^2 - 1) P_top / P,
    #   m_bar = P_top M_top^2 expm1(gamma beta U) / beta  (gamma P_top M_top^2 U at 0).
    # The bound is the background's own Simpson error on its 1025 nodes,
    # which reaches 1.7e-9 at the corners of this box (1e-15 on the demo)
    u = Profile.from_poly([u0, u0 * u1, u0 * u2])
    bg = rs.build_background(rs.UpstreamSpec(u, M_top, P_top), rs.GasModel(gamma, beta))
    hat = rs.hatted_background(bg, n2)
    x, w = np.polynomial.legendre.leggauss(40)
    U = 0.5 * float(np.sum(w / u(0.5 * (x + 1.0))))
    gbU = gamma * beta * U
    m_bar = P_top * M_top**2 * (np.expm1(gbU) / beta if beta > 0.0 else gamma * U)
    P = hat["m", "P"]
    assert hat.m_bar == pytest.approx(m_bar, rel=1e-8)
    assert np.abs(P - (P_top + beta * (hat.m_bar - hat.y2))).max() <= 1e-8 * P.max()
    Msq = 1.0 + (M_top**2 - 1.0) * P_top / P
    assert np.abs(hat["m", "Msq"] - Msq).max() <= 1e-8 * Msq.max()


def test_hatted_flux_agreement(hat_rot):
    fm = hat_rot["m", "rho"] * hat_rot["m", "u"]
    fp = hat_rot["p", "rho"] * hat_rot["p", "u"]
    assert np.abs(fm - fp).max() <= 1e-10 * np.abs(fm).max()


def test_hatted_map_monotone(hat_rot):
    assert np.all(np.diff(hat_rot.x2) > 0)


def test_char_speeds_supersonic():
    cs = characteristic_speeds(2.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    assert cs.real
    assert cs.lam_plus == pytest.approx(np.sqrt(3) / 2, rel=1e-14)
    assert cs.lam_minus == pytest.approx(-np.sqrt(3) / 2, rel=1e-14)


def test_char_speeds_subsonic_flag():
    cs = characteristic_speeds(0.5, 0.1, 1.0, 1.0, 1.0, 1.0)
    assert not cs.real
    assert cs.lam_plus == np.conj(cs.lam_minus)


def test_char_speeds_sonic():
    cs = characteristic_speeds(1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    assert cs.real
    assert cs.lam_plus == cs.lam_minus == 0.0


def test_char_speeds_rejects_rest():
    with pytest.raises(rs.InvalidStateError):
        characteristic_speeds(0.0, 0.0, 1.0, 1.0, 1.0, 1.0)


def test_field_csv_round_trip(tmp_path):
    grid = rs.LagrangianGrid(5, 7, 0.0, 1.0, 2.0, 2.0)
    rng = np.random.default_rng(0)
    f = rs.Field(grid, {"u1": rng.standard_normal((5, 7)),
                        "u2": rng.standard_normal((5, 7))})
    path = tmp_path / "field.csv"
    f.write_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (35, 4)
    assert np.abs(data[:, 2].reshape(5, 7) - f["u1"]).max() == 0.0


def test_jacobian_positivity_guard():
    grid = rs.LagrangianGrid(9, 9, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(rs.InvalidStateError):
        x2_of_y(np.zeros((9, 9)), grid, 0.5, 0.5)


def same_bits(a, b):
    """Equal values, including the sign of zeros."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def random_field(rng, n1, n2):
    grid = rs.LagrangianGrid(n1, n2, 0.3, 1.7, 1.0, 1.0)
    return rs.Field(grid, {"u1": rng.standard_normal((n1, n2)),
                           "u2": rng.standard_normal((n1, n2))})


def poly_field(rng, n1, n2, degree):
    """A field whose columns are random polynomials of ``degree`` in y1, and
    the polynomial itself."""
    grid = rs.LagrangianGrid(n1, n2, 0.3, 1.7, 1.0, 1.0)
    coef = rng.standard_normal((degree + 1, n2))

    def exact(y1):
        return sum(c * np.asarray(y1) ** k for k, c in enumerate(coef))

    return rs.Field(grid, {"u1": exact(grid.y1[:, None])}), exact


@pytest.mark.parametrize("n1,n2", [(6, 7), (33, 17), (129, 65)])
def test_field_trace_reproduces_quintics(n1, n2):
    # inside the grid and in the first and last intervals, for a scalar psi
    # (one profile) and for one psi per column
    rng = np.random.default_rng(n1)
    for degree in range(6):
        f, exact = poly_field(rng, n1, n2, degree)
        y1 = f.grid.y1
        psi = rng.uniform(y1[0], y1[-1], n2)
        psi[:2] = rng.uniform(y1[0], y1[1], 2)
        psi[2:4] = rng.uniform(y1[-2], y1[-1], 2)
        scale = np.abs(f["u1"]).max()
        assert np.abs(f.trace("u1", psi) - np.diagonal(exact(psi[:, None]))).max() <= 1e-14 * scale
        for p in (psi[0], psi[2], psi[-1], y1[0], y1[-1]):
            assert np.abs(f.trace("u1", p) - exact(p)).max() <= 1e-14 * scale


@pytest.mark.parametrize("n1,n2", [(3, 4), (4, 5), (5, 7), (6, 3), (33, 17), (129, 65)])
def test_field_trace_returns_the_rows_at_nodes(n1, n2):
    rng = np.random.default_rng(n1)
    f = random_field(rng, n1, n2)
    y1 = f.grid.y1
    for k in ("u1", "u2"):
        for i in range(n1):
            assert same_bits(f.trace(k, y1[i]), f[k][i])
            assert same_bits(f.trace(k, np.full(n2, y1[i])), f[k][i])
        rows = rng.integers(0, n1, n2)
        assert same_bits(f.trace(k, y1[rows]), f[k][rows, np.arange(n2)])


@pytest.mark.parametrize("n1,n2", [(4, 5), (33, 17), (129, 65)])
def test_field_trace_per_column_is_the_scalar_trace(n1, n2):
    rng = np.random.default_rng(n1)
    f = random_field(rng, n1, n2)
    y1 = f.grid.y1
    psi = rng.uniform(y1[0], y1[-1], n2)
    psi[:2] = y1[0], y1[-1]
    for k in ("u1", "u2"):
        column_by_column = [f.trace(k, p)[j] for j, p in enumerate(psi)]
        assert same_bits(f.trace(k, psi), np.array(column_by_column))


@pytest.mark.parametrize("n1", [3, 4, 5])
def test_field_trace_small_grids_use_every_row(n1):
    # the polynomial of degree n1 - 1 through all rows is reproduced;
    # one degree more is not
    rng = np.random.default_rng(n1)
    f, exact = poly_field(rng, n1, 9, n1 - 1)
    psi = rng.uniform(0.3, 1.7, 9)
    assert np.abs(f.trace("u1", psi) - np.diagonal(exact(psi[:, None]))).max() <= 1e-13
    assert np.abs(f.trace("u1", 0.9) - exact(0.9)).max() <= 1e-13
    f, exact = poly_field(rng, n1, 9, n1)
    assert np.abs(f.trace("u1", psi) - np.diagonal(exact(psi[:, None]))).max() > 1e-6


def test_field_trace_is_sixth_order():
    errs = []
    for n1 in (17, 33, 65, 129):
        grid = rs.LagrangianGrid(n1, 3, 0.0, 1.0, 1.0, 1.0)
        f = rs.Field(grid, {"s": np.repeat(np.sin(3.0 * grid.y1)[:, None], 3, axis=1)})
        psi = np.linspace(0.0, 1.0, 1001)
        errs.append(max(np.abs(f.trace("s", p) - np.sin(3.0 * p)).max() for p in psi))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert ratios.min() >= 40.0, ratios


def test_field_trace_near_the_global_spline_on_a_converged_front(accept_run):
    # the discretisation bound of the change from the not-a-knot spline
    # over all rows; measured 2.5e-12
    V, psi = accept_run.sup.V, accept_run.front.psi
    for k in ("u1", "u2"):
        spline = CubicSpline(V.grid.y1, V[k], axis=0)
        assert np.abs(V.trace(k, psi) - np.diagonal(spline(psi))).max() <= 1e-11
