
import numpy as np
import pytest

import rotshock as rs
from rotshock.lagrangian import inlet_maps
from rotshock.profiles import Profile
from rotshock import supersonic as sp
from rotshock.supersonic import entrance_profiles, flux_identity, solve_linear, solve_nonlinear
from rotshock.thermo import rho_P
from tests import march_oracle
from tests.conftest import L_DUCT, make_pert, make_pert_strong


@pytest.fixture(scope="module")
def grid65(hat_rot):
    return rs.LagrangianGrid(129, 65, 0.0, L_DUCT, hat_rot.m_bar, hat_rot.m_bar)


def test_perturbation_config_corner_check():
    geom = rs.Geometry(2.0, Profile.from_poly([0.0]))
    with pytest.raises(rs.ConfigError):
        rs.PerturbationConfig(1e-3, Profile.constant(0.0), Profile.constant(1.0),
                              Profile.constant(0.0), Profile.constant(0.0),
                              Profile.constant(0.0), geom)


def _entropy_pert(sigma):
    """Entrance entropy perturbation sin(pi x2) only; flat walls."""
    zero = Profile.constant(0.0)
    geom = rs.Geometry(L_DUCT, Profile.from_poly([0.0]))
    return rs.PerturbationConfig(sigma, zero, zero,
                                 Profile.from_callable(lambda x: np.sin(np.pi * x), 0, 1),
                                 zero, zero, geom)


def test_transport_fields_background(bg_rot, hat_rot, grid65):
    # S and B of the nonlinear upstream flow are the entrance rows carried along y1
    f = solve_nonlinear(hat_rot, _entropy_pert(0.0), grid65, bg_rot).V
    assert np.abs(f["S"] - hat_rot["m", "S"][None, :]).max() == 0.0
    assert np.abs(f["B"] - hat_rot["m", "B"][None, :]).max() == 0.0


def test_transport_fields_perturbed(bg_rot, hat_rot, grid65):
    pert = _entropy_pert(1e-3)
    prof = entrance_profiles(hat_rot, pert, inlet_maps(bg_rot, pert))[1]["S_en"]
    f = solve_nonlinear(hat_rot, pert, grid65, bg_rot).V
    dev = f["S"] - hat_rot["m", "S"][None, :]
    assert np.abs(dev - 1e-3 * prof[None, :]).max() <= 1e-16
    # exactly constant along y1
    assert np.abs(np.diff(f["S"], axis=0)).max() == 0.0
    assert np.abs(np.diff(f["B"], axis=0)).max() == 0.0


def test_linear_zero_data(hat_rot, grid65):
    pert = make_pert(0.0, 0.0)
    sol = solve_linear(hat_rot, pert, grid65)
    flux = flux_identity(sol, hat_rot, pert)
    assert max(np.abs(sol[k]).max() for k in ("u1", "u2", "S", "B")) == 0.0
    assert flux.max_violation == 0.0


def test_linear_exact_sigma_scaling(hat_rot, grid65):
    s1 = solve_linear(hat_rot, make_pert(1e-3, 0.0), grid65)
    s2 = solve_linear(hat_rot, make_pert(2e-3, 0.0), grid65)
    for k in ("u1", "u2", "S", "B"):
        assert np.abs(s2[k] - 2.0 * s1[k]).max() <= 1e-16


def test_flux_identity_no_wall(bg_rot, hat_rot, grid65):
    # g = 0 and u2_en = 0: the transverse flux integral is constant in y1
    geom = rs.Geometry(L_DUCT, Profile.from_poly([0.0]))
    pert = rs.PerturbationConfig(1e-3, Profile.from_poly([0.2, 0.1]),
                                 Profile.constant(0.0), Profile.constant(0.0),
                                 Profile.constant(0.0), Profile.constant(0.0), geom)
    flux = flux_identity(solve_linear(hat_rot, pert, grid65), hat_rot, pert)
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
            rs.Geometry(L_DUCT, Profile.from_poly([0, 0, 0, 0, 0.3 / L_DUCT**4]))),
    ]
    for pert in datasets:
        consts = []
        for nx, ny in ((65, 33), (129, 65), (257, 129)):
            hat = rs.hatted_background(bg_rot, n2=ny)
            grid = rs.LagrangianGrid(nx, ny, 0.0, L_DUCT, hat.m_bar, hat.m_bar)
            flux = flux_identity(solve_linear(hat, pert, grid), hat, pert)
            consts.append(flux.max_violation / grid.h2**2)
        consts = np.array(consts)
        assert consts.max() / consts.min() <= 2.5, consts


def test_linear_self_convergence(bg_rot):
    pert = make_pert_strong(1e-3)
    sols = {}
    for nx, ny in ((65, 33), (129, 65), (257, 129)):
        hat = rs.hatted_background(bg_rot, n2=ny)
        grid = rs.LagrangianGrid(nx, ny, 0.0, L_DUCT, hat.m_bar, hat.m_bar)
        sol = solve_linear(hat, pert, grid)
        sols[(nx, ny)] = sol
    e1 = np.abs(sols[(65, 33)]["u1"] - sols[(257, 129)]["u1"][::4, ::4]).max()
    e2 = np.abs(sols[(129, 65)]["u1"] - sols[(257, 129)]["u1"][::2, ::2]).max()
    assert 3.0 <= e1 / e2 <= 6.0  # ~4 for a second-order scheme


def test_nonlinear_sigma_zero(hat_rot, grid65, bg_rot):
    sol = solve_nonlinear(hat_rot, make_pert(0.0, 0.0), grid65, bg_rot)
    assert sol.picard_iters == 1
    # the well-balanced source cancels the background to rounding
    assert sol.update_history[-1] <= 1e-14
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


@pytest.mark.parametrize("sigma", [1e-3, 1e-2])
def test_warm_start_same_fixed_point_fewer_sweeps(hat_rot, grid65, bg_rot, sigma):
    # starting from background + linear march reaches the background start's
    # solution; the Newton step counts (warm, cold) are pinned
    steps = {1e-3: (3, 4), 1e-2: (4, 5)}[sigma]
    pert = make_pert_strong(sigma)
    lin = solve_linear(hat_rot, pert, grid65)
    cold = solve_nonlinear(hat_rot, pert, grid65, bg_rot)
    warm = solve_nonlinear(hat_rot, pert, grid65, bg_rot, lin=lin)
    scale = max(np.abs(cold.V["u1"]).max(), np.abs(cold.V["u2"]).max())
    for k in ("u1", "u2"):
        assert np.abs(warm.V[k] - cold.V[k]).max() <= 1e-13 * scale
    assert (warm.picard_iters, cold.picard_iters) == steps
    assert warm.update_history[0] < 0.1 * cold.update_history[0]


def test_warm_start_sigma_zero(hat_rot, grid65, bg_rot):
    pert = make_pert(0.0, 0.0)
    lin = solve_linear(hat_rot, pert, grid65)
    sol = solve_nonlinear(hat_rot, pert, grid65, bg_rot, lin=lin)
    assert sol.picard_iters == 1
    assert sol.update_history[-1] <= 1e-14


def test_newton_jacobian_matches_complex_step(hat_rot, gas_rot):
    # dK and ds+- of the Newton linearization against complex-step derivatives
    # of the same coefficient formulas, with rho and P from the closed form of
    # rho_P, at random supersonic states and differences
    rng = np.random.default_rng(11)
    n1, n2, mfac, h = 4, hat_rot["m", "u"].size, 1.0 + 0.01 * rng.random(), 1e-30
    S, B = hat_rot["m", "S"], hat_rot["m", "B"]

    def frozen(U):
        return sp._frozen(U[0], U[1], *march_oracle._rho_P(S, B, U[0], U[1], gas_rot),
                          gas_rot.gamma, mfac)

    def close(a, b):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    for _ in range(5):
        U = np.stack([hat_rot["m", "u"] * (1.0 + 0.05 * rng.standard_normal((n1, n2))),
                      0.2 * rng.standard_normal((n1, n2))])
        f = frozen(U)
        assert np.all(f.M1sq > 1.0)
        srcs = [tuple(rng.standard_normal(n2) for _ in range(3)) for _ in range(2)]
        D = rng.standard_normal((2, n1, n2))
        K = sp._coupling(f)
        for src in srcs:
            zero = np.zeros_like(D)
            ds = sp._rate(f, U, zero, src, gas_rot, mfac, True)[1]
            rate, J = sp._rate(f, U, D, src, gas_rot, mfac, True)
            # the rate is K D + s with the K that the march is given
            close(rate - sp._rate(f, U, zero, src, gas_rot, mfac),
                  np.einsum("imlj,lij->mij", K, D))
            for k in range(2):
                Uc = U.astype(complex)
                Uc[k] += h * 1j
                fc = frozen(Uc)
                close(ds[:, k], sp._rate(fc, Uc, zero, src, gas_rot, mfac).imag / h)
                close(J[:, k], sp._rate(fc, Uc, D, src, gas_rot, mfac).imag / h)
                dK = sp._coupling(fc).imag / h
                for l in range(2):
                    e = np.zeros_like(D)
                    e[l] = 1.0
                    Je = sp._rate(f, U, e, src, gas_rot, mfac, True)[1]
                    close(Je[:, k] - ds[:, k], dK[:, :, l].transpose(1, 0, 2))


def test_march_implicit_coupling_matches_column_solves():
    # _march with distinct predictor and corrector couplings, an implicit
    # coupling and an inhomogeneous top wall, on random coefficients
    rng = np.random.default_rng(5)
    grid = rs.LagrangianGrid(9, 7, 0.0, 0.08, 1.0, 1.0)
    n1, n2 = grid.n1, grid.n2
    K, L_pred, L_corr, L_impl = rng.standard_normal((4, n1, 2, 2, n2))
    s_f, s_b = rng.standard_normal((2, n1, 2, n2))
    wa, wb = rng.standard_normal((2, n1))
    inflow = rng.standard_normal((2, n2))
    new = sp._march(grid, K, L_pred, L_corr, s_f, s_b, inflow, wa, wb, L_impl)
    ref = march_oracle.frozen_march(grid, K, L_pred, L_corr, s_f, s_b, inflow, wa, wb, L_impl)
    scale = max(np.abs(ref[0]).max(), np.abs(ref[1]).max())
    for a, b in zip(new, ref):
        assert np.abs(a - b).max() <= 1e-13 * scale


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
        lin = solve_linear(hat_rot, pert, grid65)
        sup = solve_nonlinear(hat_rot, pert, grid65, bg_rot)
        diffs.append(max(
            np.abs(sup.V["u1"] - hat_rot["m", "u"][None, :] - lin["u1"]).max(),
            np.abs(sup.V["u2"] - lin["u2"]).max(),
            np.abs(sup.V["S"] - hat_rot["m", "S"][None, :] - lin["S"]).max(),
        ))
    slope = np.polyfit(np.log(sigmas), np.log(diffs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_no_sigma_ceiling(hat_rot, grid65, bg_rot):
    # sigma = 0.1 is admitted: the Newton march converges, and returning at
    # all means the flow passed the final gas-state and supersonicity audit
    sup = solve_nonlinear(hat_rot, make_pert(0.1, 0.0), grid65, bg_rot)
    assert sup.picard_iters == 4 and sup.update_history[-1] <= 1e-12
    V = sup.V
    rho, P = rho_P(V["S"], V["B"], V["u1"], V["u2"], hat_rot.gas)
    Msq = (V["u1"] ** 2 + V["u2"] ** 2) * rho / (hat_rot.gas.gamma * P)
    assert Msq.min() > 1.0


def test_cfl_guard(hat_rot, bg_rot):
    # deliberately coarse in y1: characteristic bound violated
    grid = rs.LagrangianGrid(9, 129, 0.0, L_DUCT, hat_rot.m_bar, hat_rot.m_bar)
    with pytest.raises(rs.CflError):
        solve_linear(hat_rot, make_pert(1e-3, 0.0), grid)


def test_entrance_maps_agree_at_sigma_zero(hat_rot, bg_rot):
    pert = make_pert(0.0, 0.0)
    m_a, en_a = entrance_profiles(hat_rot, pert)
    assert m_a == hat_rot.m_bar
    assert np.abs(en_a["u1_en"] - pert.u1_en(hat_rot.x2)).max() <= 1e-15


@pytest.mark.parametrize("nx,ny", [(65, 33), (129, 65), (1025, 65)])
def test_march_matches_row_oracle(bg_rot, nx, ny, monkeypatch):
    hat = rs.hatted_background(bg_rot, n2=ny)
    grid = rs.LagrangianGrid(nx, ny, 0.0, L_DUCT, hat.m_bar, hat.m_bar)

    def assert_close(new, ref):
        scale = max(np.abs(ref[0]).max(), np.abs(ref[1]).max())
        for a, b in zip(new, ref):
            assert np.abs(a - b).max() <= 1e-13 * scale

    for sigma in (0.0, 1e-3, 1e-2):
        pert = make_pert_strong(sigma)
        lin = solve_linear(hat, pert, grid)
        assert_close((lin["u1"], lin["u2"]), march_oracle.linear(hat, pert, grid))
        # NEWTON_TOL = inf stops after one Newton step from the background
        with monkeypatch.context() as mp:
            mp.setattr(sp, "NEWTON_TOL", np.inf)
            one = solve_nonlinear(hat, pert, grid, bg_rot)
        assert_close((one.V["u1"], one.V["u2"]), march_oracle.newton_step(hat, pert, grid, bg_rot))
        sup = solve_nonlinear(hat, pert, grid, bg_rot)
        u1, u2, history = march_oracle.nonlinear(hat, pert, grid, bg_rot)
        assert_close((sup.V["u1"], sup.V["u2"]), (u1, u2))
        # Newton takes fewer steps than Picard takes sweeps, and converges
        # quadratically where the update is above round-off; Picard's
        # updates fall by a constant factor and fail the same bound
        if sigma > 0.0:
            assert sup.picard_iters < len(history)
        else:
            assert sup.picard_iters == 1
        h = sup.update_history
        for prev, nxt in zip(h, h[1:]):
            assert nxt < 1e-12 or nxt <= 10.0 * prev * prev
