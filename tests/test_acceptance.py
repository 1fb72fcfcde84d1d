"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time

import numpy as np
import pytest

import rotshock as rs
from rotshock.elliptic import compatibility_defect, solve
from rotshock.lagrangian import inlet_maps
from rotshock.profiles import Profile
from rotshock.shockfit import (
    J_functionals,
    coefficients,
    find_shock_position,
    selection_bracket,
)
from rotshock.supersonic import flux_identity, solve_linear, solve_nonlinear
from tests.conftest import L_DUCT, make_pert, make_pert_strong
from tests.sparse_oracle import solvability_sum
from tests.test_elliptic import manufactured, unit_problem


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_background_oracle():
    gas = rs.GasModel(1.4, 0.0)
    spec = rs.UpstreamSpec(Profile.constant(2.0), 2.0, 1.0)
    t0 = time.perf_counter()
    bg = rs.build_background(spec, gas, n=1025)
    dt = time.perf_counter() - t0
    errs = (np.abs(bg.u_p - 0.75).max(), np.abs(bg.P_p - 4.5).max(),
            np.abs(bg.rho_p - 56.0 / 15.0).max())
    ok = max(errs) <= 1e-12 and dt < 1.0
    report(1, "background normal-shock oracle", ok,
           f"max |(u+,P+,rho+)-(0.75,4.5,56/15)| = {max(errs):.2e} "
           f"(tol 1e-12), runtime {dt:.3f}s (< 1s)")


def test_criterion_2_mach_ode_and_rh(bg_rot):
    x = bg_rot.x2
    exact = 1.0 + (0.25 - 1.0) * np.exp(-0.1 * 1.4 * (1.0 - x) / 2.0)
    e_ode = np.abs(bg_rot.d - exact).max()
    jumps = rs.rh_residual(
        rs.GasState(bg_rot.rho_m, bg_rot.u_m, 0.0, bg_rot.P_m),
        rs.GasState(bg_rot.rho_p, bg_rot.u_p, 0.0, bg_rot.P_p), bg_rot.gas)
    e_rh = max(np.abs(j).max() for j in jumps)
    ok = e_ode <= 1e-10 and e_rh <= 1e-10
    report(2, "Mach ODE closed form + rotating RH residuals", ok,
           f"ODE error {e_ode:.2e} (tol 1e-10), pointwise RH {e_rh:.2e} (tol 1e-10)")


def test_criterion_3_elliptic():
    errs = []
    for n in (65, 129):
        prob, v1, v2 = manufactured(n, n)
        sol = solve(prob)
        errs.append(max(np.abs(sol.v1 - v1).max(), np.abs(sol.v2 - v2).max()))
    ratio = errs[0] / errs[1]

    n = 41
    y = np.linspace(0, 1, n)
    p = unit_problem(n, H1=np.outer(np.sin(2 * y) + 0.3, np.cos(3 * y)),
                     h1=np.sin(5 * y), h2=np.cos(2 * y),
                     h3=0.7 * np.sin(3 * y) + 0.2,
                     lam=[1 + 0.5 * y, 2 - y**2 / 2, 1 + y, 3 - y])
    d = compatibility_defect(p)
    tele = abs(solvability_sum(p) - d)

    p_bad = unit_problem(33, h3=np.ones(33))
    try:
        solve(p_bad, defect_tol=1e-9)
        rejected, defect_val = False, np.nan
    except rs.IncompatibleDataError as exc:
        rejected, defect_val = True, exc.defect

    ok = (3.5 <= ratio <= 4.5 and tele <= 1e-12
          and rejected and abs(defect_val - 1.0) <= 1e-12)
    report(3, "elliptic solver", ok,
           f"MMS ratio 65->129 = {ratio:.3f} (in [3.5,4.5]), telescoped defect "
           f"identity residual {tele:.2e} (tol 1e-12), incompatible data "
           f"rejected with defect {defect_val:.12f} (expected 1)")


def test_criterion_4_flux_identity(bg_rot):
    datasets = [
        make_pert(1e-3, -0.05),
        make_pert_strong(1e-3),
        rs.PerturbationConfig(
            1e-3, Profile.from_poly([0.1]),
            Profile.from_callable(lambda x: np.sin(2 * np.pi * x), 0, 1),
            Profile.from_poly([0.0, 0.2]), Profile.from_poly([0.1]),
            Profile.constant(0.0),
            rs.Geometry(L_DUCT, Profile.from_poly([0, 0, 0, 0, 0.3 / L_DUCT**4]))),
    ]
    details = []
    ok = True
    for k, pert in enumerate(datasets):
        consts = []
        for nx, ny in ((65, 33), (129, 65), (257, 129)):
            hat = rs.hatted_background(bg_rot, n2=ny)
            grid = rs.LagrangianGrid(nx, ny, 0.0, L_DUCT, hat.m_bar, hat.m_bar)
            flux = flux_identity(solve_linear(hat, pert, grid), hat, pert)
            consts.append(flux.max_violation / grid.h2**2)
        spread = max(consts) / min(consts)
        details.append(f"set{k}: C in [{min(consts):.3g},{max(consts):.3g}] "
                       f"(spread {spread:.2f})")
        ok = ok and spread <= 2.5
    report(4, "supersonic flux identity O(h^2) with stable constant", ok,
           "; ".join(details))


def test_criterion_5_shock_position(bg_classic, bg_rot):
    # (a) no rotation, flat nozzle: the position functional is flat
    hat0 = rs.hatted_background(bg_classic, n2=65)
    grid0 = rs.LagrangianGrid(129, 65, 0.0, L_DUCT, hat0.m_bar, hat0.m_bar)
    zero = Profile.constant(0.0)
    geom0 = rs.Geometry(L_DUCT, zero)
    pert0 = rs.PerturbationConfig(1e-3, Profile.constant(0.2), zero, zero, zero,
                                  Profile.constant(0.3), geom0)
    lin0 = solve_linear(hat0, pert0, grid0)
    jf0 = J_functionals(coefficients(hat0), lin0, pert0, hat0, 65, L_DUCT)
    vals = np.array([jf0.J1(p) for p in np.linspace(0.05, 1.9, 25)])
    flat = np.abs(vals - vals[0]).max()
    with pytest.raises(rs.DegenerateSelectionError):
        find_shock_position(jf0.J1, jf0.J2, (0.05, 1.9))

    # (b) rotating case with admissible data: unique root in the computed
    # bracket of the monotonicity condition
    hat = rs.hatted_background(bg_rot, n2=65)
    grid = rs.LagrangianGrid(129, 65, 0.0, L_DUCT, hat.m_bar, hat.m_bar)

    def pert_for(amp):
        return rs.PerturbationConfig(
            1e-3, Profile.from_poly([0.05]),
            Profile.from_callable(lambda x: np.sin(np.pi * x), 0, 1),
            Profile.from_poly([0.02]), Profile.from_poly([0.01]),
            Profile.from_poly([amp]),
            rs.Geometry(L_DUCT, Profile.from_poly([0.0])))

    lin = solve_linear(hat, pert_for(0.0), grid)
    co = coefficients(hat)
    br = selection_bracket(co, lin, pert_for(0.0), hat, L_DUCT)
    n1_sub = max(9, int(round((L_DUCT - 0.5 * br.hi) / grid.h1)) + 1)
    jfA = J_functionals(co, lin, pert_for(0.0), hat, n1_sub, L_DUCT)
    jfB = J_functionals(co, lin, pert_for(1.0), hat, n1_sub, L_DUCT)
    target = 0.5 * (jfA.J1(0.25 * br.hi) + jfA.J1(0.75 * br.hi))
    amp = (target - jfA.J2) / (jfB.J2 - jfA.J2)
    pert = pert_for(amp)
    jf = J_functionals(co, lin, pert, hat, n1_sub, L_DUCT)
    psi_bar = find_shock_position(jf.J1, jf.J2, (br.lo, br.hi))
    scale = max(1.0, abs(jf.J2))
    root_err = abs(jf.J1(psi_bar) - jf.J2)
    ok = (flat <= 1e-10 and br.case == "increasing"
          and br.lo < psi_bar < br.hi and root_err <= 1e-10 * scale)
    report(5, "shock-position selection", ok,
           f"flat-nozzle J1 variation {flat:.2e} (tol 1e-10); rotating case: "
           f"bracket (0,{br.hi:.4f}) [Lemma condition (i)], root psi_bar = "
           f"{psi_bar:.6f} inside, |J1-J2| = {root_err:.2e} (tol 1e-10*scale)")


def test_criterion_6_nonlinear_iteration(bg_rot, tuned_pex):
    t0 = time.perf_counter()
    pert = make_pert(1e-3, tuned_pex)
    opts = rs.TransonicOptions(nx=129, ny=65, psi_bracket=(0.35, 0.9))
    res = rs.solve_transonic(bg_rot, pert, opts)
    dt = time.perf_counter() - t0

    res4 = rs.solve_transonic(bg_rot, make_pert(1e-4, tuned_pex), opts)
    # the first map application absorbs the grid-consistency offset into the
    # front intercept; the contraction factor of the map proper is the update
    # ratio of the iterations after that transient
    kappa3 = res.log[-1]["kappa_estimate"]
    kappa4 = res4.log[-1]["kappa_estimate"]
    rep = res.report
    bound = 10 * 1e-3 * max(res.C1_measured, 1e-12)
    ok = (len(res.log) <= 20
          and kappa3 <= 0.5 and kappa4 < kappa3
          and rep.pde_residual <= 1e-6 and rep.rh_residual <= 1e-6
          and abs(res.psi_sharp - res.psi_bar) <= bound
          and dt <= 300.0)
    report(6, "nonlinear iteration", ok,
           f"{len(res.log)} iterations (<=20), kappa(1e-3) = {kappa3:.2e} <= 0.5, "
           f"kappa(1e-4) = {kappa4:.2e} < kappa(1e-3), PDE residual "
           f"{rep.pde_residual:.2e} and RH residual {rep.rh_residual:.2e} "
           f"(tol 1e-6), |psi_sharp - psi_bar| = "
           f"{abs(res.psi_sharp - res.psi_bar):.2e} <= {bound:.2e}, "
           f"runtime {dt:.1f}s (<= 300s)")


def test_criterion_7_scaling_laws(bg_rot, hat_rot, tuned_pex):
    # (a) solution-norm / sigma stable within 10 percent across two decades
    opts = rs.TransonicOptions(nx=129, ny=65, psi_bracket=(0.35, 0.9))
    ratios = []
    for s in (1e-2, 1e-3):
        res = rs.solve_transonic(bg_rot, make_pert(s, tuned_pex), opts)
        st = res.state
        norm = (max(np.abs(st.u1).max(), np.abs(st.u2).max(), np.abs(st.S).max())
                + np.abs(st.psi_prime).max())
        ratios.append(norm / s)
    stable = abs(ratios[0] - ratios[1]) / max(ratios) <= 0.10

    # (b) nonlinear-minus-linear supersonic closeness scales as sigma^2
    grid = rs.LagrangianGrid(129, 65, 0.0, L_DUCT, hat_rot.m_bar, hat_rot.m_bar)
    sigmas = [1e-2, 5e-3, 2.5e-3]
    diffs = []
    for s in sigmas:
        pert = make_pert_strong(s)
        lin = solve_linear(hat_rot, pert, grid)
        sup = solve_nonlinear(hat_rot, pert, grid, bg_rot)
        diffs.append(max(
            np.abs(sup.V["u1"] - hat_rot["m", "u"][None, :] - lin.V["u1"]).max(),
            np.abs(sup.V["u2"] - lin.V["u2"]).max(),
            np.abs(sup.V["S"] - hat_rot["m", "S"][None, :] - lin.V["S"]).max()))
    slope = np.polyfit(np.log(sigmas), np.log(diffs), 1)[0]
    ok = stable and 1.8 <= slope <= 2.2
    report(7, "scaling laws", ok,
           f"norm/sigma = {ratios[0]:.5f} vs {ratios[1]:.5f} "
           f"(rel diff {abs(ratios[0]-ratios[1])/max(ratios):.2%}, tol 10%); "
           f"closeness slope {slope:.3f} (in [1.8, 2.2])")
