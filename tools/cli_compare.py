"""Numeric differences between two trees of CLI artifacts.

    python3 tools/cli_compare.py A B

A and B are directories written by ``tools/cli_digest.py --keep`` (or by the
``rotshock`` subcommands).  For every file in either tree the script prints
one line per CSV column and per JSON number:

    relpath:field  abs=<max |a - b|>  rel=<abs / max |a|>

where ``field`` is the CSV column name or the JSON key path.  Numeric cells
are compared as floats: nan against nan and equal infinities count as no
difference, nan against a number as an infinite one.  Text cells, JSON
strings, booleans and nulls must match exactly; other files must match byte
for byte.  Exit status 1 means a file is missing from one side, the two
sides differ in shape, or a non-numeric value differs; numeric differences
alone exit 0, whatever their size.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys


def _files(root):
    out = set()
    for base, _, names in os.walk(root):
        for name in names:
            out.add(os.path.relpath(os.path.join(base, name), root))
    return out


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _diff(a, b):
    """|a - b|; nan against nan and equal infinities give 0, nan against a number inf."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b)
    return math.inf if math.isnan(d) else d


class Comparison:
    """Numeric maxima per (file, field) and a list of mismatches."""

    def __init__(self):
        self.rows = {}
        self.problems = []

    def add_number(self, key, a, b):
        d, scale = self.rows.get(key, (0.0, 0.0))
        self.rows[key] = (max(d, _diff(a, b)),
                          max(scale, abs(a) if math.isfinite(a) else 0.0))

    def add_csv(self, rel, path_a, path_b):
        with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
            ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
        if not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
            self.problems.append(f"{rel}: header or row count differs")
            return
        names = ra[0]
        for i, (row_a, row_b) in enumerate(zip(ra[1:], rb[1:]), start=2):
            if len(row_a) != len(row_b) or len(row_a) != len(names):
                self.problems.append(f"{rel}: line {i} has a different cell count")
                return
            for name, ca, cb in zip(names, row_a, row_b):
                xa, xb = _float(ca), _float(cb)
                if xa is None or xb is None:
                    if ca != cb:
                        self.problems.append(f"{rel}:{name}: line {i}: {ca!r} != {cb!r}")
                else:
                    self.add_number(f"{rel}:{name}", xa, xb)

    def add_json(self, rel, a, b, key=""):
        if isinstance(a, dict) and isinstance(b, dict):
            if sorted(a) != sorted(b):
                self.problems.append(f"{rel}:{key or '/'}: keys differ")
                return
            for k in sorted(a):
                self.add_json(rel, a[k], b[k], f"{key}.{k}" if key else k)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.problems.append(f"{rel}:{key}: list lengths differ")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.add_json(rel, x, y, f"{key}[{i}]")
        elif _is_number(a) and _is_number(b):
            self.add_number(f"{rel}:{key}", float(a), float(b))
        elif a != b or type(a) is not type(b):
            self.problems.append(f"{rel}:{key}: {a!r} != {b!r}")


def compare(dir_a, dir_b):
    cmp = Comparison()
    fa, fb = _files(dir_a), _files(dir_b)
    for rel in sorted(fa ^ fb):
        cmp.problems.append(f"{rel}: only in {dir_a if rel in fa else dir_b}")
    for rel in sorted(fa & fb):
        pa, pb = os.path.join(dir_a, rel), os.path.join(dir_b, rel)
        if rel.endswith(".csv"):
            cmp.add_csv(rel, pa, pb)
        elif rel.endswith(".json"):
            with open(pa) as ha, open(pb) as hb:
                cmp.add_json(rel, json.load(ha), json.load(hb))
        else:
            with open(pa, "rb") as ha, open(pb, "rb") as hb:
                if ha.read() != hb.read():
                    cmp.problems.append(f"{rel}: bytes differ")
    return cmp


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    for d in (args.a, args.b):
        if not os.path.isdir(d):
            ap.error(f"{d} is not a directory")
    cmp = compare(args.a, args.b)
    for key, (d, scale) in cmp.rows.items():
        rel = d / scale if scale > 0.0 else (0.0 if d == 0.0 else math.inf)
        print(f"{key}  abs={d:.3g}  rel={rel:.3g}")
    for line in cmp.problems:
        print(f"MISMATCH {line}", file=sys.stderr)
    return 1 if cmp.problems else 0


if __name__ == "__main__":
    sys.exit(main())
