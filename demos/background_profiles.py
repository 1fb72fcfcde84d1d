"""Build the rotating-flow shock profiles and check the jump conditions.

Without rotation the pre/post-shock states are the classical constant
normal-shock pair.  With a Coriolis parameter beta > 0 the states must vary
with height; this script constructs both, verifies the Rankine-Hugoniot
conditions pointwise, and writes the beta > 0 profiles to CSV.
"""

import os

import numpy as np

import rotshock as rs
from rotshock.background import write_background_csv
from rotshock.profiles import Profile

spec = rs.UpstreamSpec(u_minus=Profile.constant(2.0), M_top=2.0, P_top=1.0)

print("classical limit (beta = 0):")
bg0 = rs.build_background(spec, rs.GasModel(gamma=1.4, beta=0.0))
print(f"  downstream state: u+ = {bg0.u_p[0]:.12f}  P+ = {bg0.P_p[0]:.12f}  "
      f"rho+ = {bg0.rho_p[0]:.12f}")
print(f"  textbook normal shock at M = 2:  0.75, 4.5, {56/15:.12f}")

print("\nrotating nozzle (beta = 0.1):")
bg = rs.build_background(spec, rs.GasModel(gamma=1.4, beta=0.1))
jumps = rs.rh_residual(
    rs.GasState(bg.rho_m, bg.u_m, 0.0, bg.P_m),
    rs.GasState(bg.rho_p, bg.u_p, 0.0, bg.P_p),
    bg.gas,
)
print(f"  inverse Mach^2 range: d in [{bg.d.min():.6f}, {bg.d.max():.6f}] "
      "(strictly decreasing with height)")
print(f"  worst pointwise jump-condition residual: "
      f"{max(np.abs(j).max() for j in jumps):.3e}")

# vertical momentum balance P' = -beta rho u on both sides
for side in ("m", "p"):
    P = bg.profile("P_" + side)
    flux = bg.profile("rho_" + side) * bg.profile("u_" + side)
    res = np.gradient(P, bg.x2, edge_order=2) + bg.gas.beta * flux
    print(f"  momentum balance residual ({'upstream' if side == 'm' else 'downstream'}):"
          f" {np.abs(res[1:-1]).max():.3e}")

os.makedirs("out", exist_ok=True)
write_background_csv(bg, "out/background_beta01.csv")
print("\nprofiles written to out/background_beta01.csv")
