"""Why the first pass moves the front by 1.5e-3 at every sigma.

On the demo configuration the first ``solve_psi_sharp`` puts the wall
intercept about 1.48e-3 from ``psi_bar`` at sigma = 1e-4, 1e-3 and 1e-2
alike: the linear theory that places ``psi_bar`` leaves out two O(sigma)
terms that the nonlinear scheme has.

* The mass-flux rescaling: the Newton march scales its y2-derivatives by
  m_bar/m, which a constant part of ``u1_en`` moves by O(sigma), while the
  linear march keeps m = m_bar.
* The Bernoulli term: the linear trace coupling u1+ = fa1 u1-, S+ = fa2 u1-
  + S- has no term in the upstream Bernoulli perturbation ``B_en``.

Each strict xfail below states a property that holds once both terms are in
the linear theory; each control shows it holds already when the data leave
the missing terms out.  Including them moves ``psi_bar`` by about 1.5e-3.
"""

import numpy as np
import pytest

import rotshock as rs
from rotshock.cli import build_config, parse_config
from rotshock.iteration import assemble_step_data, build_context, setup_upstream, solve_psi_sharp
from rotshock.shockfit import J_functionals, downstream_nodes
from rotshock.supersonic import solve_nonlinear
from tests.conftest import DEMO_CONFIG

SIGMAS = [1e-2, 5e-3, 2.5e-3]
MISSING = "the linear theory that places psi_bar has no {} term"


@pytest.fixture(scope="module")
def demo():
    cfg = parse_config(DEMO_CONFIG)
    return cfg, rs.build_background(cfg.upstream, cfg.gas)


def demo_config(demo, sigma, grid, **profiles):
    """The demo configuration at ``sigma`` on ``grid`` with ``profiles`` replaced."""
    cfg, _ = demo
    raw = cfg.to_dict()
    raw["nozzle"]["sigma"] = sigma
    raw["solver"]["nx"], raw["solver"]["ny"] = grid
    raw["perturbation"].update(profiles)
    return build_config(raw, cfg.base_dir)


def demo_context(demo, sigma, grid, **profiles):
    """``build_context`` of the demo with ``profiles`` replaced; unless none
    is, a constant P_ex puts the root of J1 = J2 at 0.6 again."""
    bg = demo[1]
    if profiles:
        cfg0, cfg1 = (demo_config(demo, sigma, grid, P_ex=[a], **profiles) for a in (0.0, 1.0))
        hat, _, co, lin = setup_upstream(bg, cfg0.pert, cfg0.options)
        lo, hi = cfg0.options.psi_bracket
        n1 = downstream_nodes(cfg0.pert.geometry.L, 0.5 * (lo + hi), lin.grid.h1)
        jf0, jf1 = (J_functionals(co, lin, c.pert, hat, n1) for c in (cfg0, cfg1))
        profiles["P_ex"] = [(jf0.J1(0.6) - jf0.J2) / (jf1.J2 - jf0.J2)]
    cfg = demo_config(demo, sigma, grid, **profiles)
    return build_context(bg, cfg.pert, cfg.options)


def slope(values):
    return np.polyfit(np.log(SIGMAS), np.log(values), 1)[0]


@pytest.mark.parametrize("profiles", [
    pytest.param({}, id="demo", marks=pytest.mark.xfail(
        strict=True, reason=MISSING.format("mass-flux"))),
    pytest.param({"u1_en": [0.0]}, id="m-equals-m_bar"),
])
def test_newton_minus_linear_march_is_second_order(demo, profiles):
    # |Newton - (hat + linear)| / sigma is 5.4e-4 on the demo at every sigma
    # and grid: the constant 0.01 of u1_en moves m/m_bar by 5.0e-3 sigma
    bg = demo[1]
    diffs = []
    for sigma in SIGMAS:
        cfg = demo_config(demo, sigma, (65, 33), **profiles)
        hat, inlet, _, lin = setup_upstream(bg, cfg.pert, cfg.options)
        V = solve_nonlinear(hat, cfg.pert, lin.grid, bg, lin=lin, inlet=inlet).V
        diffs.append(max(np.abs(V["u1"] - hat["m", "u"][None, :] - lin["u1"]).max(),
                         np.abs(V["u2"] - lin["u2"]).max(),
                         np.abs(V["S"] - hat["m", "S"][None, :] - lin["S"]).max()))
    assert 1.8 <= slope(diffs) <= 2.2


@pytest.mark.parametrize("B_en", [
    pytest.param(None, id="demo-B_en", marks=pytest.mark.xfail(
        strict=True, reason=MISSING.format("Bernoulli"))),
    pytest.param([0.0], id="no-B_en"),
])
def test_linear_two_phase_state_meets_the_jumps_to_second_order(demo, B_en):
    # with u1_en = 0 (m = m_bar), the nonlinear jump functionals G1, G2 on
    # the linear approximation are O(sigma) with the demo's B_en (max|G| /
    # sigma = 1.09e-4) and O(sigma^2) without it
    profiles = {"u1_en": [0.0], **({"B_en": B_en} if B_en else {})}
    jumps = []
    for sigma in SIGMAS:
        ctx = demo_context(demo, sigma, (65, 33), **profiles)
        data = assemble_step_data(ctx.initial_state, ctx, 0.0)
        jumps.append(max(np.abs(data.G1).max(), np.abs(data.G2).max()))
    assert 1.8 <= slope(jumps) <= 2.2


@pytest.mark.parametrize("profiles", [
    pytest.param({}, id="demo", marks=pytest.mark.xfail(
        strict=True, reason=MISSING.format("mass-flux or Bernoulli"))),
    pytest.param({"u1_en": [0.0], "B_en": [0.0]}, id="neither-term"),
])
def test_first_pass_gap_is_order_sigma(demo, profiles):
    # psi_sharp - psi_bar after the first pass: 1.4844e-3 and 1.4760e-3 at
    # sigma = 1e-4 and 1e-3 on the demo (129x65); -4.7e-7 and -2.7e-6 without
    # either term, where an O(h^2) floor is left at 1e-4
    gaps = []
    for sigma in (1e-4, 1e-3):
        ctx = demo_context(demo, sigma, (129, 65), **profiles)
        gaps.append(abs(solve_psi_sharp(ctx.initial_state, ctx)[0]))
    assert gaps[0] <= 0.2 * gaps[1]
