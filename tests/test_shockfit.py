import dataclasses
import re

import numpy as np
import pytest

import rotshock as rs
from rotshock import elliptic, fd, shockfit
from rotshock.cli import parse_config
from rotshock.iteration import setup_upstream
from rotshock.lagrangian import HattedProfiles, inlet_maps
from rotshock.profiles import Profile
from rotshock.shockfit import (
    J_functionals,
    ShockFront,
    b_coefficients,
    coefficients,
    downstream_nodes,
    find_shock_position,
    initial_approximation,
    shock_slope,
    solve_linear_subsonic,
)
from rotshock.supersonic import solve_linear
from tests.conftest import DEMO_CONFIG, L_DUCT, make_pert, make_pert_strong
from tests.selection_oracle import selection_bracket


@pytest.fixture(scope="module")
def grid65(hat_rot):
    return rs.LagrangianGrid(129, 65, 0.0, L_DUCT, hat_rot.m_bar, hat_rot.m_bar)


@pytest.fixture(scope="module")
def lin_rot(hat_rot, grid65):
    sol = solve_linear(hat_rot, make_pert_strong(1e-3), grid65)
    return sol


def test_classical_trace_coefficient(bg_classic):
    hat = rs.hatted_background(bg_classic, n2=33)
    co = coefficients(hat)
    assert np.abs(co.fa1 + 0.375).max() <= 1e-12  # (Mp/Mm)(Mm-1)/(Mp-1) at M=2
    assert np.abs(co.Mp_sq - 1.0 / 3.0).max() <= 1e-12


def test_fa2_closed_form(hat_rot):
    co = coefficients(hat_rot)
    g = 1.4
    expect = (g - 1.0) * (hat_rot["m", "Msq"] - 1.0) * co.P_jump / (hat_rot["p", "P"] * hat_rot["m", "u"])
    assert np.abs(co.fa2 - expect).max() <= 1e-12
    # consistency with the exit coefficient
    expect_fa3 = -co.fa2 * hat_rot["p", "P"] / ((g - 1.0) * co.mass_flux)
    assert np.abs(co.fa3 - expect_fa3).max() <= 1e-13


def _trace_matrix(hat, side):
    """2x2 matrices coupling (u1dot, Sdot) in the linearized G1, G2 of one side."""
    Msq, u, g = hat[side, "Msq"], hat[side, "u"], hat.gas.gamma
    M = np.empty((len(u), 2, 2))
    M[:, 0, 0] = (Msq - 1.0) / u
    M[:, 0, 1] = 1.0 / (g - 1.0)
    M[:, 1, 0] = (Msq - 1.0) / (g * Msq)
    M[:, 1, 1] = 0.0
    return M


@pytest.mark.parametrize("bg_name", ["bg_rot", "bg_classic"])
def test_trace_coefficients_match_2x2_inverse(bg_name, request):
    # fa1, fa2 are the first column of Minv_plus @ M_minus, written out in
    # closed form in coefficients()
    hat = rs.hatted_background(request.getfixturevalue(bg_name), n2=65)
    co = coefficients(hat)
    prod = np.linalg.inv(_trace_matrix(hat, "p")) @ _trace_matrix(hat, "m")
    assert np.allclose(prod[:, 0, 0], co.fa1, rtol=1e-12, atol=1e-12)
    assert np.allclose(prod[:, 1, 0], co.fa2, rtol=1e-11, atol=1e-12)
    assert np.allclose(prod[:, 0, 1], 0.0, atol=1e-12)
    assert np.allclose(prod[:, 1, 1], 1.0, rtol=1e-12)


def test_b_coefficients_classical(bg_classic):
    hat = rs.hatted_background(bg_classic, n2=33)
    for side in ("m", "p"):
        b1, b2, b3, b4 = b_coefficients(hat, side)
        assert np.abs(b2 - 1.0).max() <= 1e-13
        assert np.abs(b4 - 1.0).max() <= 1e-13
    b1m, *_ = b_coefficients(hat, "m")
    b1p, *_ = b_coefficients(hat, "p")
    assert np.all(b1m < 0)  # supersonic side
    assert np.all(b1p > 0)  # subsonic side


def test_b_coefficients_positive_rotating(hat_rot):
    co = coefficients(hat_rot)
    b1m, b2m, b3m, b4m = b_coefficients(hat_rot, "m")
    for arr in (co.b2p, co.b3p, co.b4p, b2m, b3m, b4m, co.b1p):
        assert np.all(arr > 0)
    assert np.all(b1m < 0)
    assert np.all(co.fa1 < 0)  # transonic background
    assert np.all(co.P_jump > 0)
    assert np.all(co.Mp_sq < 1.0) and np.all(hat_rot["m", "Msq"] > 1.0)


def test_equal_mach_identity():
    # hypothetical equal states on both sides: trace coupling is the identity
    n = 17
    y2 = np.linspace(0.0, 1.0, n)
    side = {"u": np.full(n, 0.5), "rho": np.full(n, 1.0), "P": np.full(n, 1.0),
            "S": np.zeros(n), "B": np.full(n, 3.625), "c2": np.full(n, 1.4),
            "Msq": np.full(n, 0.25 / 1.4), "du": np.zeros(n), "dS": np.zeros(n)}
    hat = HattedProfiles(y2=y2, m_bar=1.0, x2=y2, vals={"m": side, "p": dict(side)},
                         gas=rs.GasModel(1.4, 0.0))
    co = coefficients(hat)
    assert np.abs(co.fa1 - 1.0).max() <= 1e-14
    assert np.abs(co.fa2).max() <= 1e-14


def test_J_zero_data(hat_rot, grid65):
    zero = Profile.constant(0.0)
    geom = rs.Geometry(L_DUCT, zero)
    pert = rs.PerturbationConfig(0.0, zero, zero, zero, zero, zero, geom)
    lin = solve_linear(hat_rot, pert, grid65)
    jf = J_functionals(coefficients(hat_rot), lin, pert, hat_rot, 65)
    assert jf.J2 == 0.0
    assert jf.J1(0.5) == 0.0


def test_J1_flat_nozzle_classical(bg_classic):
    # beta = 0, flat wall, u2_en = 0: the flux identity makes J1 constant
    hat = rs.hatted_background(bg_classic, n2=65)
    grid = rs.LagrangianGrid(129, 65, 0.0, L_DUCT, hat.m_bar, hat.m_bar)
    geom = rs.Geometry(L_DUCT, Profile.from_poly([0.0]))
    pert = rs.PerturbationConfig(1e-3, Profile.from_poly([0.2, 0.1]),
                                 Profile.constant(0.0), Profile.constant(0.0),
                                 Profile.constant(0.0), Profile.constant(0.0), geom)
    lin = solve_linear(hat, pert, grid)
    jf = J_functionals(coefficients(hat), lin, pert, hat, 65)
    vals = np.array([jf.J1(p) for p in np.linspace(0.1, 1.6, 12)])
    assert np.abs(vals - vals[0]).max() <= 2e-6  # O(h^2) conservation drift


def test_J1_at_zero_matches_closed_form(hat_rot, grid65, lin_rot):
    pert = make_pert_strong(1e-3)
    co = coefficients(hat_rot)
    jf = J_functionals(co, lin_rot, pert, hat_rot, 65)
    # closed form: the wall term integrates g' exactly, g(L) - g(0)
    V = lin_rot
    w_int = (co.fa3 - co.fa1) * co.b1p
    g = pert.geometry.g
    closed = (fd.trap(w_int * V.trace("u1", V.grid.y1a), co.y2[1] - co.y2[0]) / pert.sigma
              + co.b2p[-1] * hat_rot["p", "u"][-1] * (float(g(L_DUCT)) - float(g(V.grid.y1a))))
    # quadrature tolerance: wall term uses the discrete grid integral of g'
    assert jf.J1(0.0) == pytest.approx(closed, abs=5e-4)


def test_find_root_linear():
    psi = find_shock_position(lambda p: 2 * p + 1, 2.0, (0.0, 1.0))
    assert psi == pytest.approx(0.5, abs=1e-10)


def test_find_root_flat_degenerate():
    with pytest.raises(rs.DegenerateSelectionError):
        find_shock_position(lambda p: 1.0, 1.0, (0.0, 1.0))


def test_find_root_out_of_range():
    with pytest.raises(rs.NoAdmissibleShockError):
        find_shock_position(lambda p: p, 5.0, (0.0, 1.0))


def test_find_root_monotone_family():
    # bisection + secant converges within 60 iterations on curved monotone J1
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.0, 2.0)
        c = rng.uniform(0.1, 2.0)
        J1 = lambda p, a=a, b=b, c=c: a * p + b * np.tanh(3 * p) + c * p**3
        target = J1(rng.uniform(0.05, 0.95))
        psi = find_shock_position(J1, target, (0.0, 1.0))
        scale = max(1.0, abs(target), abs(J1(0.0)), abs(J1(1.0)))
        assert abs(J1(psi) - target) <= 1e-10 * scale


def test_selection_bracket_case_i(hat_rot, grid65):
    pert = make_pert_strong(1e-3)
    lin = solve_linear(hat_rot, pert, grid65)
    br = selection_bracket(coefficients(hat_rot), lin, pert, hat_rot)
    assert br.case == "increasing"
    assert br.slope_integral > 0
    assert 0.0 < br.hi < L_DUCT
    assert br.C_minus > 0


def test_selection_bracket_degenerate_beta_zero(bg_classic):
    hat = rs.hatted_background(bg_classic, n2=65)
    grid = rs.LagrangianGrid(129, 65, 0.0, L_DUCT, hat.m_bar, hat.m_bar)
    pert = make_pert_strong(1e-3)
    lin = solve_linear(hat, pert, grid)
    with pytest.raises(rs.DegenerateSelectionError):
        selection_bracket(coefficients(hat), lin, pert, hat)


def test_linear_subsonic_zero_data(hat_rot, grid65):
    pert = make_pert(0.0, 0.0)
    lin = solve_linear(hat_rot, pert, grid65)
    co = coefficients(hat_rot)
    V, esol = solve_linear_subsonic(co, 0.6, lin, pert, hat_rot, 65)
    assert max(np.abs(V[k]).max() for k in ("u1", "u2", "S", "B")) == 0.0


def test_linear_subsonic_transport_rows(hat_rot, lin_rot, monkeypatch):
    monkeypatch.setattr(elliptic, "DEFECT_TOL", 1e9)
    pert = make_pert_strong(1e-3)
    co = coefficients(hat_rot)
    V, _ = solve_linear_subsonic(co, 0.6, lin_rot, pert, hat_rot, 65)
    assert V["S"].shape == (V.grid.n2,)


def test_linear_subsonic_defect_gate(hat_rot, grid65, bg_rot, tuned_pex):
    # a position far from the solvable one must be rejected
    pert = make_pert(1e-3, tuned_pex)
    lin = solve_linear(hat_rot, pert, grid65)
    co = coefficients(hat_rot)
    with pytest.raises(rs.IncompatibleDataError):
        solve_linear_subsonic(co, 0.05, lin, pert, hat_rot, 89)


def test_shock_slope_properties(hat_rot, grid65, lin_rot, monkeypatch):
    monkeypatch.setattr(elliptic, "DEFECT_TOL", 1e9)
    pert = make_pert_strong(1e-3)
    co = coefficients(hat_rot)
    V, _ = solve_linear_subsonic(co, 0.6, lin_rot, pert, hat_rot, 65)
    sl = shock_slope(V, lin_rot, co)
    # u2 data vanish on the bottom wall on both sides: slope is exactly 0 there
    assert sl[0] == 0.0
    # linearity in the fields
    V2 = rs.Field(V.grid, {k: 2.0 * v for k, v in V.data.items()})
    lin2 = solve_linear(hat_rot, make_pert_strong(2e-3), grid65)
    sl2 = shock_slope(V2, lin2, co)
    assert np.abs(sl2 - 2.0 * sl).max() <= 1e-14


def test_front_reconstruction():
    y2 = np.linspace(0.0, 2.9, 65)
    slope = 1e-3 * np.sin(np.pi * y2 / 2.9)
    f = ShockFront(rs.LagrangianGrid(17, 65, 0.8, 2.0, 2.9, 2.9), 2e-3, slope)
    psi = f.psi
    assert psi[-1] == 0.8 + 2e-3  # exact by construction
    assert f.psi_sharp == pytest.approx(0.802)
    with pytest.raises(rs.NoAdmissibleShockError):
        ShockFront(rs.LagrangianGrid(17, 65, 1.99, 2.0, 2.9, 2.9), 0.5, slope)


def test_initial_approximation_consistency(bg_rot, hat_rot, tuned_pex):
    # the march grid carries the perturbed mass flux m, which the slope reads
    pert = make_pert(1e-3, tuned_pex)
    m, m_bar, _ = inlet_maps(bg_rot, pert)
    lin = solve_linear(hat_rot, pert, rs.LagrangianGrid(129, 65, 0.0, L_DUCT, m, m_bar))
    init = initial_approximation(coefficients(hat_rot), lin, pert, hat_rot,
                                 bracket=(0.35, 0.9))
    d = init.diagnostics
    scale = max(1.0, abs(d["J2"]))
    assert abs(d["J1_at_psi_bar"] - d["J2"]) <= 1e-10 * scale
    assert abs(d["defect"]) <= 1e-9
    assert 0.35 < d["psi_bar"] < 0.9
    assert init.front.grid.y1b == L_DUCT
    assert 0.0 < init.front.psi.min() and init.front.psi.max() < L_DUCT


@pytest.fixture(scope="module")
def demo_setup_65x33():
    """The demo configuration and its upstream setup at 65x33."""
    cfg = parse_config(DEMO_CONFIG)
    opts = rs.TransonicOptions(nx=65, ny=33)
    bg = rs.build_background(cfg.upstream, cfg.gas)
    return cfg.pert, setup_upstream(bg, cfg.pert, opts)


@pytest.mark.parametrize("bracket", [None, (0.35, 0.9)])
def test_initial_approximation_sigma_zero_is_degenerate(demo_setup_65x33, bracket):
    pert, (hat, _, co, lin) = demo_setup_65x33
    pert0 = dataclasses.replace(pert, sigma=0.0)
    with pytest.raises(rs.DegenerateSelectionError,
                       match="sigma = 0: the shock position is arbitrary"):
        initial_approximation(co, lin, pert0, hat, bracket)


def _roots_named(exc):
    """(psi_bar, sign of J1') of every root a ``NoAdmissibleShockError`` names."""
    return [(float(r), 1 if d == ">" else -1)
            for r, d in re.findall(r"([0-9.]+) \(J1' ([<>]) 0\)", str(exc))]


def test_initial_approximation_default_search_names_both_roots(demo_setup_65x33):
    # without a bracket the search covers (0, L), where the demo configuration
    # has two roots; the error names each and the sign of J1' there
    pert, (hat, _, co, lin) = demo_setup_65x33
    with pytest.raises(rs.NoAdmissibleShockError, match="J1 = J2 has 2 roots") as err:
        initial_approximation(co, lin, pert, hat)
    roots = _roots_named(err.value)
    assert [d for _, d in roots] == [-1, 1]
    assert [r for r, _ in roots] == pytest.approx([0.6177, 1.3566], abs=1e-4)
    assert "selection_bracket" not in str(err.value)


def test_initial_approximation_given_bracket_error_unwrapped(demo_setup_65x33):
    # J1 spans about [-9.96e-3, -9.62e-3] on (0.35, 0.4), J2 is -1.215e-2: the
    # search fails, and the caller's bracket is not re-described
    pert, (hat, _, co, lin) = demo_setup_65x33
    with pytest.raises(rs.NoAdmissibleShockError) as err:
        initial_approximation(co, lin, pert, hat, (0.35, 0.4))
    msg = str(err.value)
    assert "outside the attainable range" in msg
    assert "the search ran on" not in msg
    assert "selection_bracket" not in msg


@pytest.fixture(scope="module", params=[(65, 33), (129, 65)], ids=["65x33", "129x65"])
def demo_setup(request):
    """The demo configuration and its upstream setup, which P_ex does not enter."""
    cfg = parse_config(DEMO_CONFIG)
    nx, ny = request.param
    bg = rs.build_background(cfg.upstream, cfg.gas)
    return cfg.pert, setup_upstream(bg, cfg.pert, rs.TransonicOptions(nx=nx, ny=ny))


@pytest.mark.parametrize("P_ex,expected", [
    (-0.065, (0.827, 1.152)), (-0.0561, (0.618, 1.357)), (-0.047, (0.406, 1.552)),
])
def test_two_roots_across_the_band(demo_setup, P_ex, expected):
    # across this band of exit pressures J1 = J2 has two roots on (0, L):
    # J1 falls through J2 at the left one and rises through it at the right
    pert, (hat, _, co, lin) = demo_setup
    pert = dataclasses.replace(pert, P_ex=Profile.from_poly([P_ex]))
    with pytest.raises(rs.NoAdmissibleShockError, match="has 2 roots") as err:
        initial_approximation(co, lin, pert, hat)
    roots = _roots_named(err.value)
    assert [d for _, d in roots] == [-1, 1]
    assert [r for r, _ in roots] == pytest.approx(expected, abs=1e-3)
    # each named root is a sign change of J1 - J2 with the named orientation
    L = pert.geometry.L
    jf = J_functionals(co, lin, pert, hat, downstream_nodes(L, 0.5 * L, lin.grid.h1))
    for r, d in roots:
        assert d * (jf.J1(r - 1e-3) - jf.J2) < 0.0 < d * (jf.J1(r + 1e-3) - jf.J2)


def test_two_roots_independent_of_sample_count(demo_setup, monkeypatch):
    pert, (hat, _, co, lin) = demo_setup
    found = []
    for n in (shockfit.POSITION_SAMPLES, 2 * shockfit.POSITION_SAMPLES):
        monkeypatch.setattr(shockfit, "POSITION_SAMPLES", n)
        with pytest.raises(rs.NoAdmissibleShockError, match="has 2 roots") as err:
            initial_approximation(co, lin, pert, hat)
        found.append(_roots_named(err.value))
    assert [d for _, d in found[1]] == [d for _, d in found[0]]
    assert [r for r, _ in found[1]] == pytest.approx([r for r, _ in found[0]], abs=1e-5)


def test_find_root_several_roots_named():
    with pytest.raises(rs.NoAdmissibleShockError, match="has 3 roots") as err:
        find_shock_position(lambda p: np.cos(3 * np.pi * p), 0.0, (0.0, 1.0))
    roots = _roots_named(err.value)
    assert [d for _, d in roots] == [-1, 1, -1]
    assert [r for r, _ in roots] == pytest.approx([1 / 6, 1 / 2, 5 / 6], abs=1e-6)


def test_non_monotone_bracket_solves():
    # (0.35, 1.2) holds one root of J1 = J2, and J1 turns inside it
    cfg = parse_config(DEMO_CONFIG)
    bg = rs.build_background(cfg.upstream, cfg.gas)
    opts = dataclasses.replace(cfg.options, psi_bracket=(0.35, 1.2))
    hat, _, co, lin = setup_upstream(bg, cfg.pert, opts)
    jf = J_functionals(co, lin, cfg.pert, hat, downstream_nodes(2.0, 0.775, lin.grid.h1))
    dj = np.diff([jf.J1(p) for p in np.linspace(0.35, 1.2, 33)])
    assert dj.min() < 0.0 < dj.max()
    res = rs.solve_transonic(bg, cfg.pert, opts)
    assert res.psi_bar == pytest.approx(0.61804006, abs=1e-8)
    assert len(res.log) == 3
