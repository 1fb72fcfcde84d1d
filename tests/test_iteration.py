import dataclasses
import json
import os

import numpy as np
import pytest

import rotshock as rs
from rotshock import elliptic, iteration, shockfit
from rotshock.cli import build_config, main, parse_config
from rotshock.elliptic import compatibility_defect
from rotshock.iteration import (
    StepData,
    _PassTerms,
    apply_T,
    assemble_step_data,
    build_context,
    residuals,
    solve_psi_sharp,
    solve_transonic,
)
from rotshock.shockfit import ShockFront
from rotshock.thermo import rho_P
from tests.conftest import DEMO_CONFIG, L_DUCT, count_calls, make_pert
from tests.lagrangian_oracle import x2_of_y

def build_ctx(bg, pert):
    """sigma = 0 context around an arbitrary fixed shock position (no root search):
    the midpoint 0.6 of the bracket."""
    return build_context(bg, pert, rs.TransonicOptions(nx=129, ny=65, psi_bracket=(0.2, 1.0)))


@pytest.fixture(scope="module")
def ctx_zero(bg_rot):
    return build_ctx(bg_rot, make_pert(0.0, 0.0))


def test_front_map_identity():
    # a flat front at psi_bar: the map and its factors are exactly trivial
    z1 = np.linspace(0.7, 2.0, 11)
    fm = ShockFront(rs.LagrangianGrid(11, 33, 0.7, 2.0, 2.9, 2.9), 0.0, np.zeros(33))
    assert np.all(fm.Y1 == z1[:, None])
    assert np.all(fm.Y1_wall == z1)
    assert np.all(fm.fac1 == 1.0)
    assert np.all(fm.cross == 0.0)
    assert np.all(fm.dY1_dz2 == 0.0)


def test_front_map_end_rows():
    # z1 = psi_bar lands on the front, z1 = L on the exit
    y2 = np.linspace(0.0, 2.9, 65)
    fm = ShockFront(rs.LagrangianGrid(11, 65, 0.7, 2.0, 2.9, 2.9), 5e-4,
                    1e-3 * np.sin(np.pi * y2 / 2.9))
    assert np.abs(fm.Y1[0] - fm.psi).max() <= 1e-15
    assert np.all(fm.Y1[-1] == 2.0)


def test_front_map_wall_row(accept_run):
    # the top row of Y1 and Y1_wall (built from psi_sharp_dev) agree to 1 ulp
    fm = accept_run.front
    assert np.all(np.abs(fm.Y1[:, -1] - fm.Y1_wall) <= np.spacing(np.abs(fm.Y1_wall)))


def _front_map_factor_errors(n2):
    """Max errors of fac1 and cross against centred differences of z1(y1, y2)."""
    L, psi_bar, dev, a, m = 2.0, 0.7, 5e-4, 0.05, 2.9
    y2 = np.linspace(0.0, m, n2)
    fm = ShockFront(rs.LagrangianGrid(17, n2, psi_bar, L, m, m), dev,
                    a * np.cos(np.pi * y2 / m))

    def psi(s):  # the front whose slope is a cos(pi y2 / m), in closed form
        return psi_bar + dev + a * m / np.pi * np.sin(np.pi * s / m)

    def z1(y1, s):  # inverse map
        return psi_bar + (L - psi_bar) * (y1 - psi(s)) / (L - psi(s))

    d = y2[1] - y2[0]
    dz_dy1 = (z1(fm.Y1 + d, y2) - z1(fm.Y1 - d, y2)) / (2 * d)
    dz_dy2 = (z1(fm.Y1, y2 + d) - z1(fm.Y1, y2 - d)) / (2 * d)
    # d/dy1 = fac1 d/dz1 and d/dy2 = d/dz2 - cross d/dz1
    return np.abs(fm.fac1 - dz_dy1).max(), np.abs(fm.cross + dz_dy2).max()


def test_front_map_derivative_factors():
    coarse, fine = _front_map_factor_errors(33), _front_map_factor_errors(65)
    for ec, ef in zip(coarse, fine):
        assert ec <= 1e-4
        assert 3.5 <= ec / ef <= 4.5


def test_front_map_rejects_front_at_exit():
    with pytest.raises(rs.NoAdmissibleShockError):
        ShockFront(rs.LagrangianGrid(5, 33, 1.9, 2.0, 2.9, 2.9), 0.2, np.zeros(33))


def test_step_data_zero_perturbation(ctx_zero):
    # all sources vanish at zero perturbation (to the rounding noise carried
    # by the sigma = 0 upstream march)
    data = assemble_step_data(ctx_zero.initial_state, ctx_zero, 0.0)
    for arr in (data.f1, data.f2, data.g1, data.g2, data.g3, data.g4, data.g0,
                data.H1, data.H2, data.G0, data.G1, data.G2):
        assert np.abs(arr).max() <= 1e-13


def _assert_step_data_equal(a, b):
    for f in dataclasses.fields(StepData):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def test_step_data_pass_terms_match_fresh_assembly(accept_run):
    # one pass's terms serve every front of the secant: the assembly with
    # them equals a fresh assembly, field for field and bit for bit
    ctx = accept_run.ctx
    state = ctx.initial_state
    terms = _PassTerms(ctx, state)
    for dev in (0.0, accept_run.state.psi_sharp_dev):
        _assert_step_data_equal(assemble_step_data(state, ctx, dev, terms),
                                assemble_step_data(state, ctx, dev))
    s, data, _ = solve_psi_sharp(state, ctx)
    _assert_step_data_equal(data, assemble_step_data(state, ctx, s))


def test_one_perturbed_inlet_map_per_context(bg_rot, tuned_pex, monkeypatch):
    # hatted_background builds the background map, setup_upstream the
    # perturbed one, which the nonlinear march reuses
    import rotshock.iteration
    import rotshock.lagrangian
    import rotshock.supersonic
    calls = []
    orig = rotshock.lagrangian.inlet_maps

    def counted(bg, pert=None):
        calls.append(0.0 if pert is None else pert.sigma)
        return orig(bg, pert)

    for mod in (rotshock.lagrangian, rotshock.iteration, rotshock.supersonic):
        monkeypatch.setattr(mod, "inlet_maps", counted)
    build_context(bg_rot, make_pert(1e-3, tuned_pex),
                  rs.TransonicOptions(nx=129, ny=65, psi_bracket=(0.35, 0.9)))
    assert calls == [0.0, 1e-3]


def test_one_coefficients_call_per_setup(tmp_path, monkeypatch, capsys):
    # without psi_bracket the position search and the initial approximation
    # share the setup's coefficients; on the demo configuration the search
    # then finds two roots on (0, L)
    cfg = parse_config(DEMO_CONFIG)
    opts = dataclasses.replace(cfg.options, nx=65, ny=33, psi_bracket=None)
    bg = rs.build_background(cfg.upstream, cfg.gas)
    calls = count_calls(monkeypatch, shockfit, "coefficients")
    with pytest.raises(rs.NoAdmissibleShockError, match="J1 = J2 has 2 roots"):
        solve_transonic(bg, cfg.pert, opts)
    assert len(calls) == 1
    # `rotshock initial` makes the same single call
    calls.clear()
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({**cfg.raw, "solver": {**cfg.raw["solver"], "psi_bracket": None}}))
    argv = ["initial", "--config", str(conf), "--out", str(tmp_path / "o"), "--grid", "65", "33"]
    assert main(argv) == 3
    assert "J1 = J2 has 2 roots" in capsys.readouterr().err
    assert len(calls) == 1


def test_psi_sharp_zero_data(ctx_zero):
    s, _, prob = solve_psi_sharp(ctx_zero.initial_state, ctx_zero)
    assert s == 0.0
    assert abs(compatibility_defect(prob)) <= 1e-13


def test_psi_sharp_leaving_the_range_is_no_admissible_shock():
    # a downstream state far from the approximation drives the secant for
    # psi_sharp to a front that leaves the duct; ShockFront rejects it
    cfg = parse_config(DEMO_CONFIG)
    bg = rs.build_background(cfg.upstream, cfg.gas)
    ctx = build_context(bg, cfg.pert, dataclasses.replace(cfg.options, nx=65, ny=33))
    state = dataclasses.replace(ctx.initial_state, u1=ctx.initial_state.u1 + 0.01)
    with pytest.raises(rs.NoAdmissibleShockError, match="front leaves the duct"):
        solve_psi_sharp(state, ctx)


def test_apply_T_ZERO_is_fixed_point(ctx_zero):
    new, esol = apply_T(ctx_zero.initial_state, ctx_zero)
    assert new.update_norm <= 1e-13
    assert abs(esol.defect) <= 1e-13


def test_pass_defect_is_the_root_problem_defect(accept_run):
    # the pass's solve reports the defect of the problem the secant stopped on
    ctx = accept_run.ctx
    _, _, prob = solve_psi_sharp(ctx.initial_state, ctx)
    _, esol = apply_T(ctx.initial_state, ctx)
    assert esol.defect == compatibility_defect(prob)


def test_incompatible_pass_raises_before_any_potential(accept_run, monkeypatch):
    # the elliptic solve is the pass's one solvability gate: a defect above
    # its tolerance stops the pass before either potential is solved
    ctx = accept_run.ctx
    monkeypatch.setattr(iteration, "solve", lambda p: elliptic.solve(p, defect_tol=1e-30))
    kinds = []
    orig = elliptic.solve_scalar

    def counted(kind, *args, **kwargs):
        kinds.append(kind)
        return orig(kind, *args, **kwargs)

    monkeypatch.setattr(elliptic, "solve_scalar", counted)
    with pytest.raises(rs.IncompatibleDataError) as exc:
        apply_T(ctx.initial_state, ctx)
    assert abs(exc.value.defect) > 1e-30
    assert kinds == []


def test_flat_solvability_functional_is_degenerate(accept_run, monkeypatch):
    # a defect that does not move with psi_sharp has no root to find
    monkeypatch.setattr(iteration, "compatibility_defect", lambda prob: 1.0)
    ctx = accept_run.ctx
    with pytest.raises(rs.DegenerateSelectionError, match="flat in psi_sharp"):
        solve_psi_sharp(ctx.initial_state, ctx)


def test_psi_sharp_search_cap_is_non_convergence(accept_run, monkeypatch):
    # with no secant step allowed the search stops after its two start values
    monkeypatch.setattr(iteration, "PSI_SHARP_MAX_ITER", 0)
    ctx = accept_run.ctx
    with pytest.raises(rs.NonConvergenceError, match="psi_sharp root search stalled"):
        solve_psi_sharp(ctx.initial_state, ctx)


def test_psi_sharp_search_tests_its_last_evaluation(accept_run, monkeypatch):
    # the search from the initial state takes two secant steps (|J| 9.6e-12,
    # then 5.4e-15 against tol 1e-13): with a cap of 2 the last evaluation is
    # the root, returned bit for bit as without a cap; a cap of 1 stops above tol
    ctx = accept_run.ctx
    s_default = solve_psi_sharp(ctx.initial_state, ctx)[0]
    monkeypatch.setattr(iteration, "PSI_SHARP_MAX_ITER", 2)
    assert solve_psi_sharp(ctx.initial_state, ctx)[0] == s_default
    monkeypatch.setattr(iteration, "PSI_SHARP_MAX_ITER", 1)
    with pytest.raises(rs.NonConvergenceError, match=r"stalled at \|J\|=9\.6"):
        solve_psi_sharp(ctx.initial_state, ctx)


def test_pass_cap_is_non_convergence(accept_run, monkeypatch, tmp_path, capsys):
    # the acceptance solve takes 3 passes: a cap of 2 raises with the updates
    # of those 2 passes, and `solve` on the demo configuration exits 4
    assert len(accept_run.log) == 3
    monkeypatch.setattr(iteration, "FIXED_POINT_MAX_ITER", 2)
    with pytest.raises(rs.NonConvergenceError, match="not reached in 2 iterations") as exc:
        iteration.run(accept_run.ctx)
    assert type(exc.value) is rs.NonConvergenceError
    assert exc.value.history == [row["update_norm"] for row in accept_run.log[:2]]
    assert main(["solve", "--config", DEMO_CONFIG, "--out", str(tmp_path)]) == 4
    assert "error: fixed point not reached in 2 iterations" in capsys.readouterr().err


def test_step_data_quadratic_in_state(bg_rot):
    # scaling the whole perturbation state by t quarters the sources when t
    # halves: they are quadratic-and-higher remainders (strong data, where
    # the quadratic part dominates the discretization floor)
    from tests.conftest import make_pert_strong
    res = solve_transonic(bg_rot, make_pert_strong(5e-3),
                          rs.TransonicOptions(nx=129, ny=65,
                                              psi_bracket=(0.7, 1.6)))
    st, ctx = res.state, res.ctx
    # the constant flux-renormalisation forcing beta*(1 - m_bar/m) belongs to
    # f2 by construction; remove it so the pure remainder is measured
    grid = ctx.grid_plus
    offset = ctx.hat.gas.beta * (1.0 - grid.m_bar / grid.m)
    norms = []
    ts = (0.5, 0.25, 0.125)
    for t in ts:
        from dataclasses import replace

        ctx_t = replace(ctx)
        ctx_t.B_row = t * ctx.B_row
        s2 = replace(st)
        s2.u1 = t * st.u1
        s2.u2 = t * st.u2
        s2.S = t * st.S
        s2.psi_prime = t * st.psi_prime
        d = assemble_step_data(s2, ctx_t, t * st.psi_sharp_dev)
        norms.append(max(np.abs(d.f1).max(), np.abs(d.f2 + offset).max()))
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    assert 1.8 <= slope <= 2.4


def test_step_data_quadratic_scaling_sigma(bg_rot):
    # across sigma-runs with strong data the source norms follow sigma^2
    from tests.conftest import make_pert_strong
    norms = []
    sigmas = [1e-2, 5e-3, 2.5e-3]
    for s in sigmas:
        res = solve_transonic(bg_rot, make_pert_strong(s),
                              rs.TransonicOptions(nx=129, ny=65,
                                                  psi_bracket=(0.7, 1.6)))
        st, ctx = res.state, res.ctx
        data = assemble_step_data(st, ctx, st.psi_sharp_dev)
        norms.append(max(np.abs(data.f1).max(), np.abs(data.f2).max()))
    slope = np.polyfit(np.log(sigmas), np.log(norms), 1)[0]
    assert 1.8 <= slope <= 2.4


def test_psi_sharp_sigma_family(bg_rot):
    # the sigma-differenced intercept deviation is linear in sigma (the
    # sigma-independent part is the O(h^2) consistency offset, amplified by
    # 1/J1'; it cancels in differences)
    from tests.conftest import make_pert_strong
    ps = []
    sigmas = [1e-2, 5e-3, 2.5e-3]
    for s in sigmas:
        res = solve_transonic(bg_rot, make_pert_strong(s),
                              rs.TransonicOptions(nx=129, ny=65,
                                                  psi_bracket=(0.7, 1.6)))
        ps.append(res.state.psi_sharp_dev)
        assert abs(res.state.psi_sharp_dev) / s <= 10.0
    ratio = (ps[0] - ps[1]) / (ps[1] - ps[2])
    assert ratio == pytest.approx(2.0, abs=0.4)


def test_psi_sharp_exit_pressure_sensitivity(bg_rot, tuned_pex):
    # finite-difference oracle: perturbing the exit pressure shifts the root
    # by -deltaJ / (dJ/ds)
    res = solve_transonic(bg_rot, make_pert(1e-3, tuned_pex),
                          rs.TransonicOptions(nx=129, ny=65,
                                              psi_bracket=(0.35, 0.9)))
    ctx, st = res.ctx, res.state
    from rotshock.iteration import _problem_from_data

    J = lambda c, sv: compatibility_defect(
        _problem_from_data(c, assemble_step_data(st, c, sv)))
    s0 = st.psi_sharp_dev
    ds = 1e-6
    dJds = (J(ctx, s0 + ds) - J(ctx, s0 - ds)) / (2 * ds)
    assert abs(dJds) > 0
    pert2 = make_pert(1e-3, tuned_pex + 2e-4)
    # the march does not read P_ex: the same context with the new exit pressure
    ctx2 = dataclasses.replace(ctx, pert=pert2, initial_state=st)
    s2, _, _ = solve_psi_sharp(st, ctx2)
    deltaJ = J(ctx2, s0)
    assert np.sign(s2 - s0) == np.sign(-deltaJ / dJds)
    assert s2 - s0 == pytest.approx(-deltaJ / dJds, rel=0.1)


def test_pairwise_contraction(accept_run):
    # contraction measured on two distinct iteration states (the map is
    # non-normal: rough off-trajectory directions can transiently amplify,
    # the iteration sequence itself contracts geometrically)
    ctx = accept_run.ctx
    s1 = ctx.initial_state
    t1, _ = apply_T(s1, ctx)
    s2 = t1
    t2, _ = apply_T(s2, ctx)
    kappa = t2.norm_from(t1) / s2.norm_from(s1)
    assert 0.0 < kappa <= 0.5


@pytest.mark.parametrize("sigma", [1e-4, 1e-3, 1e-2])
def test_contraction_per_component(sigma):
    # kick u1 and u2 of the converged demo state by 1e-7 sin(pi z1) sin(pi z2)
    # (z scaled to the unit square) and apply the map twice: the fields plus
    # the slope come back by a factor of about 1e-3 + 0.12 sigma per pass.
    # psi_sharp is re-solved in every pass and reported apart, without a gate:
    # it moves by about 2e-7 in the first pass and settles within the root
    # tolerance of solve_psi_sharp
    def distance(a, b):
        return (max(np.abs(a.u1 - b.u1).max(), np.abs(a.u2 - b.u2).max(),
                    np.abs(a.S - b.S).max())
                + np.abs(a.psi_prime - b.psi_prime).max())

    raw = parse_config(DEMO_CONFIG).raw
    raw["nozzle"]["sigma"] = sigma
    cfg = build_config(raw, os.path.dirname(DEMO_CONFIG))
    res = solve_transonic(rs.build_background(cfg.upstream, cfg.gas), cfg.pert, cfg.options)
    ctx, fixed = res.ctx, res.state
    grid = ctx.grid_plus
    z1 = (grid.y1 - grid.y1a) / (grid.y1b - grid.y1a)
    kick = 1e-7 * np.outer(np.sin(np.pi * z1), np.sin(np.pi * grid.y2 / grid.y2[-1]))
    state = dataclasses.replace(fixed, u1=fixed.u1 + kick, u2=fixed.u2 + kick)
    dist, psi_sharp_moves = [distance(state, fixed)], []
    for _ in range(2):
        state, _ = apply_T(state, ctx)
        dist.append(distance(state, fixed))
        psi_sharp_moves.append(abs(state.psi_sharp_dev - fixed.psi_sharp_dev))
    factors = [dist[1] / dist[0], dist[2] / dist[1]]
    print(f"\nCONTRACTION sigma={sigma:g}: fields+slope factor per pass "
          f"{factors[0]:.2e}, {factors[1]:.2e}; |psi_sharp - fixed point| "
          f"{psi_sharp_moves[0]:.2e}, {psi_sharp_moves[1]:.2e}")
    assert all(0.0 < f <= 1e-2 for f in factors)


def test_run_sigma_zero(bg_rot):
    res = solve_transonic(bg_rot, make_pert(0.0, 0.0),
                          rs.TransonicOptions(nx=65, ny=33, psi_bracket=(0.6, 1.0)))
    assert len(res.log) == 1
    assert res.psi_bar == 0.8
    assert res.report.rh_residual <= 1e-10
    assert res.report.pde_residual <= 1e-10
    assert res.report.exit_residual <= 1e-10
    assert res.report.wall_residual <= 1e-10


def test_run_convergence_and_log(accept_run):
    res = accept_run
    assert len(res.log) <= 20
    assert res.log[-1]["update_norm"] <= 1e-10
    # geometric decay of updates
    ups = [row["update_norm"] for row in res.log]
    assert all(ups[i + 1] < ups[i] for i in range(len(ups) - 1))


def test_residuals_trivial_background(ctx_zero):
    rep = residuals(ctx_zero, ctx_zero.initial_state)
    assert rep.pde_residual <= 1e-12
    assert rep.rh_residual <= 1e-12
    assert rep.exit_residual <= 1e-12
    assert rep.wall_residual <= 1e-12


def test_residuals_detect_pressure_violation(accept_run):
    # shifting the downstream pressure at fixed (u, B) perturbs the entropy by
    # dS = -(gamma-1) dP / P; the jump functionals must react linearly
    res = accept_run
    ctx = res.ctx
    base = residuals(ctx, res.state)
    eps = 1e-6
    Pp = ctx.hat["p", "P"]
    for k, fac in ((1, eps), (2, 2 * eps)):
        st = dataclasses.replace(res.state)
        st.S = st.S - (1.4 - 1.0) * fac / Pp[None, :]
        rep = residuals(ctx, st)
        if k == 1:
            jump1 = rep.rh_residual - base.rh_residual
        else:
            jump2 = rep.rh_residual - base.rh_residual
    assert jump1 > 10 * base.rh_residual
    assert jump2 == pytest.approx(2 * jump1, rel=0.05)


def test_eulerian_reconstruction(accept_run, bg_rot):
    # The reconstructed upper wall equals 1 + sigma*g up to the constant
    # (m_formula - m_true)/m_bar: the normalisation keeps only the
    # sigma*rho_en*u1_en part of the inflow flux increment, so the recovered
    # heights carry that uniform offset (computed independently here).
    from rotshock.thermo import rho_P

    ctx = accept_run.ctx
    x2m, x2p = accept_run.eulerian_heights()
    sigma = ctx.pert.sigma
    g = ctx.pert.geometry.g
    bg = bg_rot
    x2 = bg.x2
    u1 = bg.u_m + sigma * ctx.pert.u1_en(x2)
    u2 = sigma * ctx.pert.u2_en(x2)
    S = bg.S_m + sigma * ctx.pert.S_en(x2)
    B = bg.B_m + sigma * ctx.pert.B_en(x2)
    rho_pert, _ = rho_P(S, B, u1, u2, ctx.hat.gas)
    m_true = np.trapezoid(rho_pert * u1, x2)
    m = ctx.grid_plus.m

    assert np.abs(x2m[:, 0]).max() == 0.0
    y1 = ctx.sup.V.grid.y1
    assert np.abs(x2m[:, -1] - (1.0 + sigma * g(y1)) * (m / m_true)).max() <= 5e-7
    z1 = ctx.grid_plus.y1
    st = accept_run.state
    Y1w = z1 + (L_DUCT - z1) * st.psi_sharp_dev / (L_DUCT - accept_run.psi_bar)
    assert np.abs(x2p[:, -1] - (1.0 + sigma * g(Y1w)) * (m / m_true)).max() <= 5e-7


def test_upstream_heights_match_oracle(accept_run):
    # x2 on the upstream grid nodes equals the off-grid reconstruction x2_of_y
    ctx = accept_run.ctx
    V = ctx.sup.V
    gm = V.grid
    rho, _ = rho_P(V["S"], V["B"], V["u1"], V["u2"], ctx.hat.gas)
    x2m, _ = accept_run.eulerian_heights()
    for i in range(0, gm.n1, 16):
        ref = x2_of_y(rho * V["u1"], gm, gm.y1[i], gm.y2)
        assert np.abs(x2m[i] - ref).max() <= 1e-13 * np.abs(ref).max()
