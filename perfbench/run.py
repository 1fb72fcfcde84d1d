"""rotshock benchmark: one workload per process, result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line holds the end-to-end metrics
(workload list, metric meanings and bounds are in BENCHMARK.json and
perfbench/baseline.json).  With ``--trace 1`` untraced and traced ops
alternate; the traced ones give the per-layer numbers, and the gap between
the two medians is the tracing overhead.  Spans are written to
``.perfbench/trace-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set before numpy loads, here and in the set-up probes that inherit it
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_PROBES = 3
OUT_DIR = os.path.join(ROOT, ".perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rotshock", "__init__.py")):
        sys.exit(f"perfbench: no rotshock package under {src}")
    sys.path.insert(0, src)
    import rotshock.cli  # noqa: F401


def probe_setup(workload):
    """Wall time from spawning a fresh interpreter to the end of its set-up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
         "--seed", str(workload.seed), "--probe-setup", workload.workdir],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return seconds


def environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_op(workload, index):
    t0 = time.perf_counter()
    try:
        return workload.op(index)
    except Exception:
        out = Outcome(time.perf_counter() - t0, attempted=workload.points_per_op,
                      failed=workload.points_per_op)
        out.records.append({"failure": traceback.format_exc(limit=3)})
        return out


def run_ops(workload, seconds, trace):
    """Ops until the next one would end after ``seconds``; at least one
    (untraced and traced each, when tracing)."""
    ops, tracer = [], tracing.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
            with tracer:
                outcome = run_op(workload, len(ops))
        else:
            outcome = run_op(workload, len(ops))
        outcome.traced = traced
        ops.append(outcome)
        for rec in outcome.records:
            print(json.dumps({"op": len(ops) - 1, "traced": traced,
                              "seconds": outcome.seconds, **rec}))
        elapsed = time.perf_counter() - start
        typical = tracing.median([o.seconds for o in ops])
        if elapsed + typical > seconds and (not trace or len(ops) >= 2):
            return ops, tracer


def end_to_end(ops, setup_s):
    per_solve = [o.seconds / o.attempted for o in ops]
    attempted = sum(o.attempted for o in ops)
    return {
        "setup_s": setup_s,
        "solve_s.p50": tracing.median(per_solve),
        "solves_per_min": 60.0 * sum(o.ok for o in ops) / sum(o.seconds for o in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(o.ok for o in ops) / attempted,
    }


def per_layer(ops, tracer):
    traced = [o for o in ops if o.traced]
    untraced = [o for o in ops if not o.traced]
    per_op, problems = [], []
    for index, o in enumerate(ops):
        if not o.traced:
            continue
        tree = tracing.SpanTree([s for s in tracer.spans if s["op"] == index], tracer.spans)
        per_op.append(tracing.layer_metrics(tree, o.seconds, o.attempted, o.bytes_written))
        problems += tracing.self_check(tree, tracer.missing)
    metrics = {name: tracing.median([m[name] for m in per_op]) for name in per_op[0]}
    traced_p50 = tracing.median([o.seconds / o.attempted for o in traced])
    untraced_p50 = tracing.median([o.seconds / o.attempted for o in untraced])
    metrics["trace.solve_s.p50"] = traced_p50
    metrics["trace.untraced_solve_s.p50"] = untraced_p50
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    return metrics, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        import_package()
        WORKLOADS[args.workload](ROOT, args.seed, args.probe_setup).setup()
        print("ready", flush=True)
        return 0

    import_package()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        workload.write_inputs()
        setup_runs = [] if args.trace else [probe_setup(workload) for _ in range(SETUP_PROBES)]
        workload.setup()
        env = environment()
        print(json.dumps({"env": env, "setup_probes_s": setup_runs}))
        with tracing.Patches() as patches:
            tracing.record_results(patches, workload.results)
            ops, tracer = run_ops(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    problems = []
    if args.trace:
        spec, (metrics, problems) = SPEC["per_layer"], per_layer(ops, tracer)
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                  "w") as fh:
            json.dump({"env": env, "self_check": problems, **tracer.to_json()}, fh)
        for p in problems:
            print(f"self-check: {p}", file=sys.stderr)
    else:
        spec, metrics = SPEC["end_to_end"], end_to_end(ops, tracing.median(setup_runs))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
