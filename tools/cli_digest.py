"""SHA-256 digests of every CLI artifact for one grid.

Runs ``background``, ``initial``, ``solve``, ``verify`` (on a copy of the
solve directory) and a three-point exit-pressure ``sweep`` on
``demos/config/almost_flat.json`` in a temporary directory, then prints
``sha256  relpath`` for every file written, sorted by path.  The package is
imported from the ``src/`` next to this script, so two checkouts compare
with one ``diff``:

    python3 tools/cli_digest.py --grid 129 65 > a.txt   # in checkout A
    python3 tools/cli_digest.py --grid 129 65 > b.txt   # in checkout B
    diff a.txt b.txt

The commands' own console output and the wall time of each command go to
stderr, so stdout holds only the digests; exit status is nonzero if any
command does not exit 0.  ``--keep DIR`` writes the artifacts to DIR
(new or empty) and leaves them there, for ``tools/cli_compare.py``.  On a
host with more than one CPU the sweep runs its points in forked processes
and ``solve`` and ``initial`` write their field files in two, so a digest
from such a host also checks those paths against any other checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from rotshock.cli import main as cli_main  # noqa: E402

CONFIG = os.path.join(ROOT, "demos", "config", "almost_flat.json")
SWEEP_VALUES = "[[-0.058], [-0.0561], [-0.054]]"


def run_all(work, grid):
    """Run the five subcommands into ``work``; returns their exit codes."""
    g = ["--grid", str(grid[0]), str(grid[1])]
    d = {c: os.path.join(work, c) for c in ("background", "initial", "solve", "verify", "sweep")}
    codes = {}

    def run(cmd, *extra, config=CONFIG):
        t0 = time.perf_counter()
        codes[cmd] = cli_main([cmd, "--config", config, "--out", d[cmd], *g, *extra])
        print(f"{cmd}: {time.perf_counter() - t0:.3f} s", file=sys.stderr)

    with contextlib.redirect_stdout(sys.stderr), tempfile.TemporaryDirectory() as tmp:
        # solve reads a copy with output.dump_fields on, so that
        # hatted_profiles.csv is digested too; the sweep reads the demo
        # config itself, so its run_*/config.json files keep their bytes
        with open(CONFIG) as fh:
            raw = json.load(fh)
        raw["output"]["dump_fields"] = True
        dump_config = os.path.join(tmp, "config.json")
        with open(dump_config, "w") as fh:
            json.dump(raw, fh)
        run("background")
        run("initial")
        run("solve", config=dump_config)
        shutil.copytree(d["solve"], d["verify"])
        run("verify")
        run("sweep", "--key", "perturbation.P_ex", "--values", SWEEP_VALUES)
    return codes


def digests(work):
    out = []
    for base, _, files in os.walk(work):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out.append((os.path.relpath(path, work), hashlib.sha256(fh.read()).hexdigest()))
    return sorted(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", nargs=2, type=int, metavar=("NX", "NY"), default=(129, 65))
    ap.add_argument("--keep", metavar="DIR",
                    help="write the artifacts to DIR (new or empty) and keep them")
    args = ap.parse_args(argv)
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
        if os.listdir(args.keep):
            ap.error(f"--keep {args.keep}: directory is not empty")
        workdir = contextlib.nullcontext(args.keep)
    else:
        workdir = tempfile.TemporaryDirectory(prefix="cli_digest_")
    with workdir as work:
        codes = run_all(work, args.grid)
        for rel, h in digests(work):
            print(f"{h}  {rel}")
    bad = {k: v for k, v in codes.items() if v != 0}
    if bad:
        print(f"nonzero exit codes: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
