import numpy as np
import pytest

import rotshock as rs
from rotshock.profiles import Profile
from rotshock.supersonic import entrance_profiles, solve_linear, solve_nonlinear, transport_SB
from tests import march_oracle
from tests.conftest import L_DUCT, make_pert, make_pert_strong


@pytest.fixture(scope="module")
def grid65(hat_rot):
    return rs.LagrangianGrid(129, 65, 0.0, L_DUCT, hat_rot.m_bar, hat_rot.m_bar)


def test_perturbation_config_corner_check():
    geom = rs.Geometry(2.0, Profile.from_poly([0.0]), 1e-3)
    with pytest.raises(rs.ConfigError):
        rs.PerturbationConfig(1e-3, Profile.constant(0.0), Profile.constant(1.0),
                              Profile.constant(0.0), Profile.constant(0.0),
                              Profile.constant(0.0), geom)


def test_transport_fields_background(hat_rot, grid65):
    f = transport_SB(hat_rot, grid65, 0.0, np.zeros(65), np.zeros(65))
    assert np.abs(f["S"] - hat_rot["m", "S"][None, :]).max() == 0.0
    assert np.abs(f["B"] - hat_rot["m", "B"][None, :]).max() == 0.0


def test_transport_fields_perturbed(hat_rot, grid65):
    prof = np.sin(np.pi * grid65.y2 / hat_rot.m_bar)
    f = transport_SB(hat_rot, grid65, 1e-3, prof, 0 * prof)
    dev = f["S"] - hat_rot["m", "S"][None, :]
    assert np.abs(dev - 1e-3 * prof[None, :]).max() <= 1e-16
    # exactly constant along y1
    assert np.abs(np.diff(f["S"], axis=0)).max() == 0.0
    assert np.abs(np.diff(f["B"], axis=0)).max() == 0.0


def test_linear_zero_data(hat_rot, grid65):
    pert = make_pert(0.0, 0.0)
    sol, flux = solve_linear(hat_rot, pert, grid65)
    assert max(np.abs(sol.V[k]).max() for k in ("u1", "u2", "S", "B")) == 0.0
    assert flux.max_violation == 0.0


def test_linear_exact_sigma_scaling(hat_rot, grid65):
    s1, _ = solve_linear(hat_rot, make_pert(1e-3, 0.0), grid65)
    s2, _ = solve_linear(hat_rot, make_pert(2e-3, 0.0), grid65)
    for k in ("u1", "u2", "S", "B"):
        assert np.abs(s2.V[k] - 2.0 * s1.V[k]).max() <= 1e-16


def test_flux_identity_no_wall(bg_rot, hat_rot, grid65):
    # g = 0 and u2_en = 0: the transverse flux integral is constant in y1
    geom = rs.Geometry(L_DUCT, Profile.from_poly([0.0]), 1e-3)
    pert = rs.PerturbationConfig(1e-3, Profile.from_poly([0.2, 0.1]),
                                 Profile.constant(0.0), Profile.constant(0.0),
                                 Profile.constant(0.0), Profile.constant(0.0), geom)
    sol, flux = solve_linear(hat_rot, pert, grid65)
    assert np.abs(flux.lhs - flux.lhs[0]).max() <= 2e-7  # O(h^2) conservation drift
    assert flux.max_violation <= 2e-7


def test_flux_identity_refinement(hat_rot, bg_rot):
    # violation <= C h^2 with stable C, three independent data sets
    datasets = [
        make_pert(1e-3, 0.0),
        make_pert_strong(1e-3),
        rs.PerturbationConfig(
            1e-3, Profile.from_poly([0.1]),
            Profile.from_callable(lambda x: np.sin(2 * np.pi * x), 0, 1),
            Profile.from_poly([0.0, 0.2]), Profile.from_poly([0.1]),
            Profile.constant(0.0),
            rs.Geometry(L_DUCT, Profile.from_poly([0, 0, 0, 0, 0.3 / L_DUCT**4]), 1e-3)),
    ]
    for pert in datasets:
        consts = []
        for nx, ny in ((65, 33), (129, 65), (257, 129)):
            hat = rs.hatted_background(bg_rot, n2=ny)
            grid = rs.LagrangianGrid(nx, ny, 0.0, L_DUCT, hat.m_bar, hat.m_bar)
            _, flux = solve_linear(hat, pert, grid)
            consts.append(flux.max_violation / grid.h2**2)
        consts = np.array(consts)
        assert consts.max() / consts.min() <= 2.5, consts


def test_linear_self_convergence(bg_rot):
    pert = make_pert_strong(1e-3)
    sols = {}
    for nx, ny in ((65, 33), (129, 65), (257, 129)):
        hat = rs.hatted_background(bg_rot, n2=ny)
        grid = rs.LagrangianGrid(nx, ny, 0.0, L_DUCT, hat.m_bar, hat.m_bar)
        sol, _ = solve_linear(hat, pert, grid)
        sols[(nx, ny)] = sol.V
    e1 = np.abs(sols[(65, 33)]["u1"] - sols[(257, 129)]["u1"][::4, ::4]).max()
    e2 = np.abs(sols[(129, 65)]["u1"] - sols[(257, 129)]["u1"][::2, ::2]).max()
    assert 3.0 <= e1 / e2 <= 6.0  # ~4 for a second-order scheme


def test_nonlinear_sigma_zero(hat_rot, grid65, bg_rot):
    sol = solve_nonlinear(hat_rot, make_pert(0.0, 0.0), grid65, bg_rot)
    assert sol.picard_iters == 1
    # the well-balanced source cancels the background to rounding
    assert sol.final_update <= 1e-14
    assert np.abs(sol.V["u1"] - hat_rot["m", "u"][None, :]).max() <= 1e-14
    assert np.abs(sol.V["u2"]).max() <= 1e-14


def test_nonlinear_wall_condition(hat_rot, grid65, bg_rot):
    pert = make_pert_strong(1e-3)
    sol = solve_nonlinear(hat_rot, pert, grid65, bg_rot)
    gp = pert.geometry.g.deriv(1)(grid65.y1)
    lhs = sol.V["u2"][:, -1]
    rhs = 1e-3 * gp * sol.V["u1"][:, -1]
    assert np.abs(lhs - rhs).max() <= 1e-15
    assert np.abs(sol.V["u2"][:, 0]).max() == 0.0


def test_nonlinear_transport_rows_exact(hat_rot, grid65, bg_rot):
    sol = solve_nonlinear(hat_rot, make_pert_strong(1e-3), grid65, bg_rot)
    assert np.abs(np.diff(sol.V["S"], axis=0)).max() == 0.0
    assert np.abs(np.diff(sol.V["B"], axis=0)).max() == 0.0


def test_nonlinear_supersonic_guard(hat_rot, grid65, bg_rot):
    from rotshock.thermo import rho_P
    sol = solve_nonlinear(hat_rot, make_pert_strong(1e-2), grid65, bg_rot)
    rho, P = rho_P(sol.V["S"], sol.V["B"], sol.V["u1"], sol.V["u2"], hat_rot.gas)
    Msq = (sol.V["u1"]**2 + sol.V["u2"]**2) * rho / (1.4 * P)
    assert Msq.min() > 1.0


def test_nonlinear_close_to_linear_quadratically(hat_rot, grid65, bg_rot):
    sigmas = [1e-2, 5e-3, 2.5e-3]
    diffs = []
    for s in sigmas:
        pert = make_pert_strong(s)
        lin, _ = solve_linear(hat_rot, pert, grid65)
        sup = solve_nonlinear(hat_rot, pert, grid65, bg_rot)
        diffs.append(max(
            np.abs(sup.V["u1"] - hat_rot["m", "u"][None, :] - lin.V["u1"]).max(),
            np.abs(sup.V["u2"] - lin.V["u2"]).max(),
            np.abs(sup.V["S"] - hat_rot["m", "S"][None, :] - lin.V["S"]).max(),
        ))
    slope = np.polyfit(np.log(sigmas), np.log(diffs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_sigma_threshold(hat_rot, grid65, bg_rot):
    with pytest.raises(rs.ConfigError):
        solve_nonlinear(hat_rot, make_pert(0.1, 0.0), grid65, bg_rot,
                        sigma_threshold=0.05)


def test_cfl_guard(hat_rot, bg_rot):
    # deliberately coarse in y1: characteristic bound violated
    grid = rs.LagrangianGrid(9, 129, 0.0, L_DUCT, hat_rot.m_bar, hat_rot.m_bar)
    with pytest.raises(rs.CflError):
        solve_linear(hat_rot, make_pert(1e-3, 0.0), grid)


def test_entrance_maps_agree_at_sigma_zero(hat_rot, bg_rot):
    pert = make_pert(0.0, 0.0)
    m_a, en_a = entrance_profiles(hat_rot, pert, bg_rot, perturbed_map=False)
    assert m_a == hat_rot.m_bar
    assert np.abs(en_a["u1_en"] - pert.u1_en(hat_rot.x2)).max() <= 1e-15


@pytest.mark.parametrize("nx,ny", [(65, 33), (129, 65), (1025, 65)])
def test_march_matches_row_oracle(bg_rot, nx, ny):
    hat = rs.hatted_background(bg_rot, n2=ny)
    grid = rs.LagrangianGrid(nx, ny, 0.0, L_DUCT, hat.m_bar, hat.m_bar)

    def assert_close(new, ref):
        scale = max(np.abs(ref[0]).max(), np.abs(ref[1]).max())
        for a, b in zip(new, ref):
            assert np.abs(a - b).max() <= 1e-13 * scale

    for sigma in (0.0, 1e-3, 1e-2):
        pert = make_pert_strong(sigma)
        lin, _ = solve_linear(hat, pert, grid)
        assert_close((lin.V["u1"], lin.V["u2"]), march_oracle.linear(hat, pert, grid))
        # tol = inf stops after one sweep frozen at the background
        one = solve_nonlinear(hat, pert, grid, bg_rot, tol=np.inf)
        assert_close((one.V["u1"], one.V["u2"]),
                     march_oracle.nonlinear(hat, pert, grid, bg_rot, max_iter=1)[:2])
        sup = solve_nonlinear(hat, pert, grid, bg_rot)
        u1, u2, history = march_oracle.nonlinear(hat, pert, grid, bg_rot)
        assert sup.picard_iters == len(history)
        assert_close((sup.V["u1"], sup.V["u2"]), (u1, u2))
