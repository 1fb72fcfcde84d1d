"""Record psi_bar(P_ex) and psi_sharp(P_ex) on the sweep band at 129x65.

    python3 perfbench/make_reference.py

Writes perfbench/sweep_reference.json, the curve the sweep workload checks
its points against by cubic-spline interpolation.  Run it only to re-record
the reference on purpose, from the root of a source checkout.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

from workloads import PEX_BAND, SWEEP_REFERENCE, SweepPex

# Chebyshev-Lobatto nodes: psi bends most near the band ends
NODES = 49


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import rotshock.cli

    lo, hi = PEX_BAND
    curve = []
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        wl = SweepPex(root, 0, tmp)
        wl.write_inputs()
        with open(wl.config_path) as fh:
            raw = json.load(fh)
        for k in range(NODES):
            p_ex = 0.5 * (lo + hi) - 0.5 * (hi - lo) * math.cos(math.pi * k / (NODES - 1))
            raw["perturbation"]["P_ex"] = [p_ex]
            with open(wl.config_path, "w") as fh:
                json.dump(raw, fh)
            cfg = rotshock.cli.parse_config(wl.config_path)
            bg = rotshock.cli.build_background(cfg.upstream, cfg.gas)
            res = rotshock.cli.solve_transonic(bg, cfg.pert, cfg.options)
            curve.append([p_ex, float(res.psi_bar), float(res.psi_sharp)])
            print(*curve[-1], flush=True)
    rows = ",\n".join("  " + json.dumps(row) for row in curve)
    with open(os.path.join(root, SWEEP_REFERENCE), "w") as fh:
        fh.write(f'{{"grid": [{SweepPex.nx}, {SweepPex.ny}],\n'
                 f' "columns": ["P_ex", "psi_bar", "psi_sharp"],\n'
                 f' "curve": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
