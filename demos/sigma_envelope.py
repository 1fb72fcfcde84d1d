"""How large a perturbation the solver carries: the sigma envelope.

The existence theorem holds for small sigma but names no bound, and the
solver sets none either: a sigma is admitted by what the flow can carry.
This script runs the demo configuration (``demos/config/almost_flat.json``)
through ``solve_transonic`` over a fixed sigma ladder on the grid given on
the command line and prints one row per sigma, up to the first failure:

    python3 demos/sigma_envelope.py --grid 129 65

A row ends in ``ok`` (the residual audit passes ``solver.tol_res``), in
``tol_res`` (the solve converges but the audit misses ``tol_res``; ``rotshock
solve`` exits 4) or in the typed error that stopped the solve, with the
function that raised it and its caller.  Alongside: the fixed-point passes,
the Newton steps of the upstream march, ``C1_measured``, ``kappa_final``,
the state norm over sigma (fields plus slope, as in acceptance criterion 7)
and ``pde_residual`` over sigma.
"""

import argparse
import os
import traceback

import numpy as np

import rotshock as rs
from rotshock.cli import build_config, parse_config

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "config", "almost_flat.json")
LADDER = [1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 10.0, 12.0, 14.0, 16.0,
          20.0, 30.0]

ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
ap.add_argument("--grid", nargs=2, type=int, metavar=("NX", "NY"), default=(129, 65))
args = ap.parse_args()

cfg = parse_config(CONFIG)
raw = cfg.to_dict()
raw["solver"]["nx"], raw["solver"]["ny"] = args.grid
bg = rs.build_background(cfg.upstream, cfg.gas)

print(f"sigma envelope of the demo configuration on {args.grid[0]}x{args.grid[1]}")
print(f"{'sigma':>7}  {'outcome':<28} {'passes':>6} {'newton':>6} {'C1':>9} "
      f"{'kappa':>9} {'norm/sigma':>10} {'pde/sigma':>9}")
for sigma in LADDER:
    raw["nozzle"]["sigma"] = sigma
    run = build_config(raw, cfg.base_dir)
    try:
        res = rs.solve_transonic(bg, run.pert, run.options)
    except rs.RotshockError as exc:
        frames = traceback.extract_tb(exc.__traceback__)
        where = f"{frames[-1].name} (from {frames[-2].name})"
        print(f"{sigma:7g}  {type(exc).__name__} in {where}")
        print(f"first failure at sigma = {sigma:g}: {exc}")
        break
    rep, st, tol = res.report, res.state, run.options.tol_res
    outcome = "ok" if max(rep.pde_residual, rep.rh_residual) <= tol else "tol_res"
    norm = (max(np.abs(st.u1).max(), np.abs(st.u2).max(), np.abs(st.S).max())
            + np.abs(st.psi_prime).max())
    print(f"{sigma:7g}  {outcome:<28} {len(res.log):6d} {res.sup.picard_iters:6d} "
          f"{res.C1_measured:9.3e} {res.kappa_final:9.2e} {norm / sigma:10.5f} "
          f"{rep.pde_residual / sigma:9.2e}")
else:
    print(f"no failure up to sigma = {LADDER[-1]:g}")
