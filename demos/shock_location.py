"""Locate the shock position selected by the boundary data.

In a flat nozzle without rotation the shock position is arbitrary: the
position functional J1 is constant, so no exit pressure can single out a
location.  With rotation and a perturbed wall, J1 varies and the admissible
position is the unique root of J1(psi_bar) = J2.  This script shows both
regimes and then assembles the full linear two-phase approximation.
"""

import numpy as np
from numpy.polynomial import Polynomial as P

import rotshock as rs
from rotshock.lagrangian import inlet_maps
from rotshock.profiles import Profile
from rotshock.shockfit import J_functionals, coefficients, initial_approximation
from rotshock.supersonic import flux_identity, solve_linear

L = 2.0
SIGMA = 1e-3
bump = 64.0 * P([0, 0, 0, 1.0]) * P([1, -1]) ** 3          # 64 x^3 (1-x)^3
wall = 1.0 * P([0, 1 / L]) ** 4 * P([1, -1 / L]) ** 4      # gentle wall bump

spec = rs.UpstreamSpec(Profile.constant(2.0), 2.0, 1.0)

# ---- no rotation, flat wall: the classical arbitrariness
bg0 = rs.build_background(spec, rs.GasModel(1.4, 0.0))
hat0 = rs.hatted_background(bg0, n2=65)
grid0 = rs.LagrangianGrid(129, 65, 0.0, L, hat0.m_bar, hat0.m_bar)
zero = Profile.constant(0.0)
pert0 = rs.PerturbationConfig(SIGMA, Profile.constant(0.2), zero, zero, zero,
                              Profile.constant(0.3),
                              rs.Geometry(L, zero))
lin0 = solve_linear(hat0, pert0, grid0)
jf0 = J_functionals(coefficients(hat0), lin0, pert0, hat0, 65)
samples = [jf0.J1(p) for p in np.linspace(0.1, 1.9, 7)]
print("beta = 0, flat wall: J1 samples", [f"{v:.10f}" for v in samples])
print(f"  variation {max(samples) - min(samples):.2e} -> position arbitrary\n")

# ---- rotation + wall bump: a selected position
bg = rs.build_background(spec, rs.GasModel(1.4, 0.1))
hat = rs.hatted_background(bg, n2=65)
pert = rs.PerturbationConfig(
    SIGMA,
    Profile.from_poly((0.01 + 0.002 * bump).coef),
    Profile.from_poly((0.002 * bump).coef),
    Profile.from_poly((0.001 * bump).coef),
    Profile.from_poly((0.0005 * bump).coef),
    Profile.from_poly([-0.0561]),
    rs.Geometry(L, Profile.from_poly(wall.coef)),
)
# the march grid carries the perturbed mass flux m, which the front slope reads
m, m_bar, _ = inlet_maps(bg, pert)
grid = rs.LagrangianGrid(129, 65, 0.0, L, m, m_bar)
lin = solve_linear(hat, pert, grid)
flux = flux_identity(lin, hat, pert)
print(f"beta = 0.1: linear supersonic flux-identity violation "
      f"{flux.max_violation:.2e}")
co = coefficients(hat)
jf = J_functionals(co, lin, pert, hat, 89)
for p in np.linspace(0.35, 0.9, 6):
    print(f"  J1({p:.2f}) = {jf.J1(p):+.6f}")
print(f"  J2        = {jf.J2:+.6f}")

init = initial_approximation(co, lin, pert, hat, bracket=(0.35, 0.9))
d = init.diagnostics
print(f"\nselected position: psi_bar = {d['psi_bar']:.8f}")
print(f"  |J1(psi_bar) - J2| = {abs(d['J1_at_psi_bar'] - d['J2']):.2e}")
print(f"  downstream solvability defect = {d['defect']:.2e}")
print(f"  linear front slope range: [{init.front.psi_prime.min():.3e}, "
      f"{init.front.psi_prime.max():.3e}]")
