import numpy as np
import pytest
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
    # one spline through the 16 stacked columns against one spline per column
    hat = rs.hatted_background(bg_rot, n2=n2)
    x2q = hat.x2
    flux = CubicSpline(bg_rot.x2, bg_rot.rho_m)(x2q) * CubicSpline(bg_rot.x2, bg_rot.u_m)(x2q)
    for side in ("m", "p"):
        for name in ("u", "rho", "P", "S", "B"):
            ref = CubicSpline(bg_rot.x2, bg_rot.profile(f"{name}_{side}"))(x2q)
            assert np.array_equal(hat[side, name], ref), (side, name)
        for name in ("u", "S", "B"):
            ref = CubicSpline(bg_rot.x2, bg_rot.deriv[f"{name}_{side}"])(x2q) / flux
            assert np.array_equal(hat[side, "d" + name], ref), (side, name)
        c2 = bg_rot.gas.gamma * hat[side, "P"] / hat[side, "rho"]
        assert np.array_equal(hat[side, "c2"], c2)
        assert np.array_equal(hat[side, "Msq"], hat[side, "u"] ** 2 / c2)
    # the same holds for arbitrary data
    rng = np.random.default_rng(3)
    x = np.sort(rng.random(200))
    y = rng.standard_normal((200, 16)) * 10.0 ** rng.integers(-5, 5, 16)
    xq = rng.random(77)
    both = CubicSpline(x, y)(xq)
    for k in range(16):
        assert np.array_equal(both[:, k], CubicSpline(x, y[:, k])(xq)), k


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


@pytest.mark.parametrize("n1,n2", [(5, 7), (33, 17), (129, 65)])
def test_field_trace_matches_cubic_spline(n1, n2):
    rng = np.random.default_rng(n1)
    for _ in range(20):
        f = random_field(rng, n1, n2)
        y1 = f.grid.y1
        ref = {k: CubicSpline(y1, f[k], axis=0) for k in ("u1", "u2")}
        psi = rng.uniform(y1[0], y1[-1], n2)
        # exact breakpoints, both ends, and the last interval just below the exit
        psi[:3] = y1[rng.integers(0, n1, 3)]
        psi[3], psi[4], psi[5] = y1[0], y1[-1], np.nextafter(y1[-1], 0.0)
        for k, spl in ref.items():
            assert same_bits(f.trace(k, psi), np.diagonal(spl(psi)))
            for p in (psi[0], y1[0], y1[n1 // 2], y1[-1], float(psi[-1])):
                assert same_bits(f.trace(k, p), spl(p))


def test_field_trace_fresh_spline_after_setitem():
    rng = np.random.default_rng(7)
    f = random_field(rng, 17, 9)
    y1 = f.grid.y1
    psi = rng.uniform(y1[0], y1[-1], 9)
    before = f.trace("u1", psi)
    u2_before = f.trace("u2", psi)
    new = rng.standard_normal((17, 9))
    f["u1"] = new
    after = f.trace("u1", psi)
    assert same_bits(after, np.diagonal(CubicSpline(y1, new, axis=0)(psi)))
    assert not np.array_equal(before, after)
    assert same_bits(f.trace("u2", psi), u2_before)
