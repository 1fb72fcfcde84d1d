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


def test_geometry_rejects_bad_wall():
    with pytest.raises(rs.ConfigError):
        rs.Geometry(2.0, Profile.from_poly([0.0, 1.0]))  # g'(0) != 0


def simpson_m_bar(bg):
    return float(cumulative_simpson(bg.mass_flux, x=bg.x2, initial=0.0)[-1])


def test_mass_fluxes_constant(bg_classic):
    # beta = 0 and u_minus = 2: the flux rho*u = 1.4 * 2 is constant
    m, m_bar = inlet_maps(bg_classic, make_pert(0.0, 0.0))[:2]
    assert m == m_bar == bg_classic.m_bar == pytest.approx(2.8, rel=1e-14)
    assert m_bar == pytest.approx(simpson_m_bar(bg_classic), rel=1e-14)


def test_mass_fluxes_linear_flux(gas_classic):
    # beta = 0: rho*u = gamma P_top M_top^2 / u_minus = 5.6 / u_minus, so
    # u_minus = 5.6 / (2 + x2) makes the flux 2 + x2 and m_bar = 2.5
    u = Profile(lambda x: 5.6 / (2.0 + x), (lambda x: -5.6 / (2.0 + x) ** 2,
                                            lambda x: 11.2 / (2.0 + x) ** 3,
                                            lambda x: -33.6 / (2.0 + x) ** 4))
    bg = rs.build_background(rs.UpstreamSpec(u, 2.0, 1.0), gas_classic)
    assert np.abs(bg.mass_flux - (2.0 + bg.x2)).max() <= 1e-14
    m, m_bar = inlet_maps(bg, make_pert(0.0, 0.0))[:2]
    assert m == m_bar == bg.m_bar == pytest.approx(2.5, rel=1e-13)
    assert m_bar == pytest.approx(simpson_m_bar(bg), rel=1e-13)


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
    # the closed-form hatted profiles agree with one CubicSpline per
    # background column and with the spline's inverse inlet map (measured to
    # 2.9e-15)
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
        for name in ("u", "S"):
            ref = CubicSpline(bg_rot.x2, bg_rot.deriv[f"{name}_{side}"])(x2q) / flux
            assert close(hat[side, "d" + name], ref), (side, name)
        c2 = bg_rot.gas.gamma * hat[side, "P"] / hat[side, "rho"]
        assert np.array_equal(hat[side, "c2"], c2)
        assert np.array_equal(hat[side, "Msq"], hat[side, "u"] ** 2 / c2)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(gamma=st.floats(1.05, 3.0, exclude_min=True),
       beta=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
       M_top=st.floats(1.05, 3.0, exclude_min=True), P_top=st.floats(0.1, 10.0),
       u=st.tuples(st.floats(1.5, 4.0), st.floats(-0.25, 0.25), st.floats(-0.25, 0.25))
       .map(lambda c: (c[0], c[0] * c[1], c[0] * c[2])),
       n2=st.sampled_from([33, 65, 129]))
@example(gamma=1.4, beta=0.1, M_top=2.0, P_top=1.0, u=(2.0, 0.0, 0.0), n2=65)
# three flows outside the box: a steeply falling u_minus (min 0.093), and two
# strong rotations (P from 10 to 4528 on the first)
@example(gamma=1.785, beta=0.287, M_top=2.617, P_top=0.504, u=(1.8525, -0.9804, -0.7792),
         n2=65)
@example(gamma=3.0, beta=1.0, M_top=3.0, P_top=10.0, u=(1.0, -0.25, -0.25), n2=65)
@example(gamma=2.0, beta=0.5, M_top=3.0, P_top=0.1, u=(1.5, -0.375, -0.375), n2=65)
def test_hatted_background_closed_form(gamma, beta, M_top, P_top, u, n2):
    # on the mass coordinate dP/dy2 = -beta and (1 - M^2) P is constant, so
    # with U = int_0^1 dx/u_minus the upstream side is known in closed form:
    #   P = P_top + beta (m_bar - y2),  M^2 = 1 + (M_top^2 - 1) P_top / P,
    #   m_bar = P_top M_top^2 expm1(gamma beta U) / beta  (gamma P_top M_top^2 U at 0).
    # The background evaluates these at round-off (worst 3.3e-15 over 400
    # random flows of this box); U here is 20-point Gauss-Legendre on 16 panels
    u = Profile.from_poly(u)
    bg = rs.build_background(rs.UpstreamSpec(u, M_top, P_top), rs.GasModel(gamma, beta))
    hat = rs.hatted_background(bg, n2)
    x, w = np.polynomial.legendre.leggauss(20)
    U = sum(float(np.sum(w / u((k + 0.5 * (x + 1.0)) / 16))) for k in range(16)) / 32
    gbU = gamma * beta * U
    m_bar = P_top * M_top**2 * (np.expm1(gbU) / beta if beta > 0.0 else gamma * U)
    P = hat["m", "P"]
    assert hat.m_bar == pytest.approx(m_bar, rel=1e-13)
    assert np.abs(P - (P_top + beta * (hat.m_bar - hat.y2))).max() <= 1e-13 * P.max()
    Msq = 1.0 + (M_top**2 - 1.0) * P_top / P
    assert np.abs(hat["m", "Msq"] - Msq).max() <= 1e-13 * Msq.max()
    fm, fp = (hat[side, "rho"] * hat[side, "u"] for side in ("m", "p"))
    assert np.abs(fm - fp).max() <= 1e-13 * np.abs(fm).max()


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


@pytest.mark.parametrize("n1,n2", [(5, 7), (7, 7), (700, 5)])
def test_field_csv_writes_a_row_component_on_every_y1_node(tmp_path, n1, n2):
    # a field holding the y2-rows of S and B writes the bytes of the same
    # field with (n1, n2) copies, -0.0 included, past the writer's blocks too
    grid = rs.LagrangianGrid(n1, n2, 0.0, 1.0, 2.0, 2.0)
    rng = np.random.default_rng(1)
    u1, u2 = rng.standard_normal((2, n1, n2))
    S = np.append(rng.standard_normal(n2 - 1), -0.0)
    B = 3.0 + rng.standard_normal(n2)
    rows = rs.Field(grid, {"u1": u1, "u2": u2, "S": S, "B": B})
    copies = rs.Field(grid, {"u1": u1, "u2": u2, "S": np.tile(S, (n1, 1)),
                             "B": np.tile(B, (n1, 1))})
    rows.write_csv(tmp_path / "rows.csv", extra_columns={"x2": 2.0 * u1})
    copies.write_csv(tmp_path / "copies.csv", extra_columns={"x2": 2.0 * u1})
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "copies.csv").read_bytes()


def test_field_holds_rows_and_grids_only():
    grid = rs.LagrangianGrid(9, 5, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(rs.InvalidStateError, match="component 'S' has shape"):
        rs.Field(grid, {"S": np.zeros(9)})


def test_field_trace_refuses_a_row_component():
    # a y2-row rides along y1: there is nothing to trace
    grid = rs.LagrangianGrid(9, 5, 0.0, 1.0, 1.0, 1.0)
    f = rs.Field(grid, {"u1": np.zeros((9, 5)), "S": np.zeros(5)})
    assert np.array_equal(f.trace("u1", 0.5), np.zeros(5))
    with pytest.raises(rs.InvalidStateError, match="'S' is a y2-row"):
        f.trace("S", 0.5)


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
