"""Shared backgrounds, geometries, and perturbation families for the suite."""

import os
import sys

import numpy as np
import pytest
from numpy.polynomial import Polynomial as P

import rotshock as rs
from rotshock.profiles import Profile

L_DUCT = 2.0
DEMO_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "demos", "config", "almost_flat.json")

# flat-ended bump, 64 x^3 (1-x)^3: value 1 at the midpoint, first and second
# derivatives vanish at both ends
BUMP = 64.0 * P([0, 0, 0, 1.0]) * P([1, -1]) ** 3

# wall shape (x/L)^4 (1-x/L)^4: flat to third order at both ends
GP_MILD = 1.0 * P([0, 1 / L_DUCT]) ** 4 * P([1, -1 / L_DUCT]) ** 4
# stronger wall used where a large quadratic response is wanted
GP_STRONG = P([0, 0, 0, 0, 1.0 / L_DUCT**4])


def set_cpus(monkeypatch, n):
    """Make ``rotshock.parallel.available_cpus`` report ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def count_calls(monkeypatch, module, name):
    """Route every rotshock binding of ``module.name`` through a counter."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "rotshock" or modname.startswith("rotshock."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def gas_classic():
    return rs.GasModel(1.4, 0.0)


@pytest.fixture(scope="session")
def gas_rot():
    return rs.GasModel(1.4, 0.1)


@pytest.fixture(scope="session")
def upstream_spec():
    return rs.UpstreamSpec(Profile.constant(2.0), 2.0, 1.0)


@pytest.fixture(scope="session")
def bg_classic(upstream_spec, gas_classic):
    return rs.build_background(upstream_spec, gas_classic)


@pytest.fixture(scope="session")
def bg_rot(upstream_spec, gas_rot):
    return rs.build_background(upstream_spec, gas_rot)


@pytest.fixture(scope="session")
def hat_rot(bg_rot):
    return rs.hatted_background(bg_rot, n2=65)


def make_pert(sigma, pex_amp, wall=GP_MILD, scale=1.0):
    """The mild admissible perturbation family used by the pipeline tests."""
    geom = rs.Geometry(L_DUCT, Profile.from_poly(wall.coef))
    return rs.PerturbationConfig(
        sigma,
        Profile.from_poly((scale * (0.01 + 0.002 * BUMP)).coef),
        Profile.from_poly((scale * 0.002 * BUMP).coef),
        Profile.from_poly((scale * 0.001 * BUMP).coef),
        Profile.from_poly((scale * 0.0005 * BUMP).coef),
        Profile.from_poly([pex_amp]),
        geom,
    )


def make_pert_strong(sigma):
    """Large-amplitude data where the quadratic response dominates."""
    geom = rs.Geometry(L_DUCT, Profile.from_poly(GP_STRONG.coef))
    return rs.PerturbationConfig(
        sigma,
        Profile.from_poly([0.3, 0.2]),
        Profile.from_callable(lambda x: np.sin(np.pi * x), 0, 1),
        Profile.from_poly([0.1, -0.05]),
        Profile.from_poly([0.05]),
        Profile.from_poly([0.2, 0.1]),
        geom,
    )


@pytest.fixture(scope="session")
def tuned_pex(bg_rot, hat_rot):
    """Exit-pressure amplitude placing J2 mid-way on the monotone J1 branch."""
    from rotshock.shockfit import J_functionals, coefficients
    from rotshock.supersonic import solve_linear

    grid = rs.LagrangianGrid(129, 65, 0.0, L_DUCT, hat_rot.m_bar, hat_rot.m_bar)
    lin = solve_linear(hat_rot, make_pert(1e-3, 0.0), grid)
    co = coefficients(hat_rot)
    jf0 = J_functionals(co, lin, make_pert(1e-3, 0.0), hat_rot, 89)
    jf1 = J_functionals(co, lin, make_pert(1e-3, 1.0), hat_rot, 89)
    target = 0.5 * (jf0.J1(0.35) + jf0.J1(0.9))
    return round((target - jf0.J2) / (jf1.J2 - jf0.J2), 4)


@pytest.fixture(scope="session")
def accept_run(bg_rot, tuned_pex):
    """The converged acceptance pipeline at sigma = 1e-3 on the 129x65 grid."""
    pert = make_pert(1e-3, tuned_pex)
    opts = rs.TransonicOptions(nx=129, ny=65, psi_bracket=(0.35, 0.9))
    return rs.solve_transonic(bg_rot, pert, opts)
