"""Grid ladder: stage times and a correctness fingerprint per grid.

Runs ``solve_transonic`` on ``demos/config/almost_flat.json`` at each grid of
the ladder (129x65, 257x129 and 513x257 by default) under the outside-in
tracer of ``perfbench/tracing.py``, which it imports and does not change.
For each grid it records the median over ``--repeats`` runs of the wall time
of every pipeline stage, named as the perfbench spans are, the call counts
of the traced layers, and the fingerprint of the result: ``psi_bar``,
``psi_sharp``, the four residuals, the passes and the Newton steps
(``picard_sweeps``).  A speedup that changes the answer shows in the
fingerprint.  Per side it also records ``import_s``, the median wall time
of ``IMPORT_PROBES`` fresh interpreters that import ``rotshock.cli``: the
set-up cost every process pays before its first solve.

The package is imported from ``--src`` (default: the ``src/`` next to this
script), so one script times two checkouts into one file:

    python3 bench/ladder.py --src /path/to/parent/src --side parent --out BENCH.json
    python3 bench/ladder.py --side change --out BENCH.json

Rows of the same side and grid already in ``--out`` are replaced; the rows
of other sides are kept.  BLAS runs on one thread, as in perfbench.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join("demos", "config", "almost_flat.json")
LADDER = ("129x65", "257x129", "513x257")
# the pipeline's stages, in order, by perfbench span name
STAGES = (
    "background.build_background",
    "lagrangian.hatted_background",
    "supersonic.solve_linear",
    "supersonic.solve_nonlinear",
    "shockfit.find_shock_position",
    "shockfit.initial_approximation",
    "iteration.solve_psi_sharp",
    "iteration.assemble_step_data",
    "elliptic.solve",
    "iteration.residuals",
    "iteration.run",
    "iteration.solve_transonic",
)
COUNTS = (
    "elliptic.solve.calls", "iteration.apply_T.calls", "iteration.secant_evals",
    "supersonic.picard_sweeps", "supersonic.rows_marched", "shockfit.J1_evals",
    "shockfit.coefficients.calls", "lagrangian.inlet_maps.calls",
)
IMPORT_PROBES = 5
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_grid(text):
    nx, _, ny = text.partition("x")
    if not (nx.isdigit() and ny.isdigit()):
        raise argparse.ArgumentTypeError(f"grid {text!r}: expected NXxNY, e.g. 129x65")
    return int(nx), int(ny)


def environment():
    """Versions and host; scipy is None where it is not installed."""
    import numpy
    try:
        import scipy
    except ImportError:
        scipy = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__ if scipy else None, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def import_seconds(src):
    """Median wall time of IMPORT_PROBES fresh interpreters importing
    ``rotshock.cli`` from ``src``, interpreter start-up included."""
    code = f"import sys; sys.path.insert(0, {src!r}); import rotshock.cli"
    runs = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def run_grid(grid, repeats):
    """One ladder row: median stage seconds, counts and fingerprint at ``grid``."""
    import dataclasses

    import rotshock
    from rotshock.cli import parse_config
    from perfbench.tracing import SpanTree, Tracer, fingerprint, layer_metrics

    cfg = parse_config(os.path.join(ROOT, CONFIG))
    opts = dataclasses.replace(cfg.options, nx=grid[0], ny=grid[1])
    stages, counts, prints = [], [], []
    with Tracer() as tracer:
        for op in range(repeats):
            tracer.op = op
            t0 = time.perf_counter()
            res = rotshock.solve_transonic(rotshock.build_background(cfg.upstream, cfg.gas),
                                           cfg.pert, opts)
            seconds = time.perf_counter() - t0
            tree = SpanTree([s for s in tracer.spans if s["op"] == op], tracer.spans)
            stages.append({name: tree.seconds(name) for name in STAGES})
            layers = layer_metrics(tree, seconds, 1, 0)
            counts.append({k: layers[k] for k in COUNTS})
            prints.append(fingerprint(res))
    if any(p != prints[0] for p in prints) or any(c != counts[0] for c in counts):
        raise SystemExit(f"ladder: repeats at {grid[0]}x{grid[1]} disagree")
    return {
        "grid": f"{grid[0]}x{grid[1]}",
        "repeats": repeats,
        "stage_s": {name: statistics.median(s[name] for s in stages) for name in STAGES},
        "counts": {k: int(v) for k, v in counts[0].items()},
        "fingerprint": prints[0],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the rotshock package to time")
    ap.add_argument("--side", default="change", help="label of this checkout's rows")
    ap.add_argument("--grids", nargs="+", type=parse_grid, default=[parse_grid(g) for g in LADDER],
                    metavar="NXxNY")
    ap.add_argument("--repeats", type=int, default=3, help="timed runs per grid")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH.json"))
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if not os.path.isfile(os.path.join(args.src, "rotshock", "__init__.py")):
        ap.error(f"--src {args.src}: no rotshock package there")
    sys.path[:0] = [args.src, ROOT]

    import_s = import_seconds(args.src)
    print(f"{args.side}: import rotshock.cli {import_s:.3f} s")
    rows = []
    for grid in args.grids:
        row = {"side": args.side, **run_grid(grid, args.repeats)}
        fp = row["fingerprint"]
        print(f"{args.side} {row['grid']}: solve {row['stage_s']['iteration.solve_transonic']:.4f} s, "
              f"psi_bar {fp['psi_bar']:.12f}, psi_sharp {fp['psi_sharp']:.12f}, "
              f"pde {fp['pde_residual']:.3e}, passes {fp['passes']}")
        rows.append(row)

    bench = {"config": CONFIG, "environment": {}, "rows": []}
    if os.path.isfile(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    done = {(r["side"], r["grid"]) for r in rows}
    bench["rows"] = [r for r in bench["rows"] if (r["side"], r["grid"]) not in done] + rows
    bench["environment"][args.side] = environment()
    bench.setdefault("import_s", {})[args.side] = import_s
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
