"""The three benchmark workloads: inputs from the seed, one op, its check.

An op's outcome counts ``attempted`` solves, ``failed`` ones (raised, did
not converge, or psi_bar/psi_sharp left the reference) and ``ok`` ones,
which also meet the ``rotshock solve`` OK rule ``pde_residual <= tol_res and
rh_residual <= tol_res``.  On the fixed configurations a miss of the OK rule
fails the op.  On the sweep it does not: the band ends miss the rule at
129x65 through the known stalled corner residual, and the share of such
points shows in ok_frac instead of being trimmed from the band.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field

DEMO_CONFIG = os.path.join("demos", "config", "almost_flat.json")

# |psi - reference| allowed: above the 1e-10 movement a round-off-level
# solver change causes, below the 5.7e-5 change between the 129x65 and
# 257x129 grids, and above the 2e-8 error of the sweep's interpolated curve.
PSI_TOL = 1e-7

# P_ex band of the sweep: the interior of (-0.0668, -0.0453), where J2 stays
# inside J1's range for psi_bracket = (0.35, 0.9).  Its ends miss the OK rule
# at 129x65 (the stalled corner residual); they stay in the band on purpose.
PEX_BAND = (-0.065, -0.047)
POINTS_PER_SWEEP = 8
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# psi_bar(P_ex) and psi_sharp(P_ex) at 129x65, written by make_reference.py
SWEEP_REFERENCE = os.path.join("perfbench", "sweep_reference.json")


@dataclass
class Outcome:
    seconds: float
    attempted: int
    failed: int = 0
    ok: int = 0
    bytes_written: int = 0
    traced: bool = False
    records: list = field(default_factory=list)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _drift(fp, ref):
    """Failure reason if psi_bar or psi_sharp left the reference, else None."""
    for key in ("psi_bar", "psi_sharp"):
        if not abs(fp[key] - ref[key]) <= PSI_TOL:
            return f"{key} {fp[key]!r} drifted from {ref[key]!r} by more than {PSI_TOL:g}"
    return None


RESIDUAL_MISS = "residuals above tol_res"


def _meets_ok_rule(fp, tol_res):
    return fp["pde_residual"] <= tol_res and fp["rh_residual"] <= tol_res


def _check_fixed(fp, ref, tol_res):
    """Failure reason for a fixed-configuration fingerprint, or None."""
    reason = _drift(fp, ref)
    if reason is None and not _meets_ok_rule(fp, tol_res):
        reason = RESIDUAL_MISS
    return reason


class Workload:
    name = ""
    nx = ny = 0
    points_per_op = 1

    def __init__(self, root, seed, workdir):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "config.json")
        self.results = []  # fingerprints appended by tracing.record_results

    def write_inputs(self):
        with open(os.path.join(self.root, DEMO_CONFIG)) as fh:
            raw = json.load(fh)
        raw["solver"]["nx"], raw["solver"]["ny"] = self.nx, self.ny
        with open(self.config_path, "w") as fh:
            json.dump(raw, fh, indent=2, sort_keys=True)

    def setup(self):
        """Work done once per process before the first op."""
        import rotshock.cli
        self.cfg = rotshock.cli.parse_config(self.config_path)

    def _cli(self, argv):
        import rotshock.cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            code = rotshock.cli.main(argv)
            seconds = time.perf_counter() - t0
        return code, seconds, buf.getvalue()


class CliSolve(Workload):
    """In-process ``rotshock solve`` on the demo config; artifacts to a temp dir."""

    name = "cli-solve-257x129"
    nx, ny = 257, 129
    ref = {"psi_bar": 0.6180968493635571, "psi_sharp": 0.6195715755555113}
    artifacts = ("fields_minus.csv", "fields_plus.csv", "front.csv",
                 "iteration_log.csv", "report.json")

    def op(self, index):
        out = os.path.join(self.workdir, f"op{index}")
        del self.results[:]
        try:
            code, seconds, log = self._cli(["solve", "--config", self.config_path,
                                             "--out", out])
            outcome = Outcome(seconds, attempted=1, bytes_written=_dir_bytes(out))
            missing = [a for a in self.artifacts if not os.path.isfile(os.path.join(out, a))]
            if missing:
                reason = f"exit {code}, missing artifacts {missing}: {log.strip()[-300:]}"
                fp = None
            else:
                with open(os.path.join(out, "report.json")) as fh:
                    rep = json.load(fh)
                fp = {k: rep[k] for k in ("psi_bar", "psi_sharp", "pde_residual",
                                          "rh_residual", "exit_residual", "wall_residual")}
                fp["passes"] = rep["iterations"]
                fp["picard_sweeps"] = (self.results[0]["picard_sweeps"]
                                       if len(self.results) == 1 else None)
                reason = _check_fixed(fp, self.ref, self.cfg.options.tol_res)
                if reason is None and code != 0:
                    reason = f"exit code {code}"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        outcome.failed, outcome.ok = (1, 0) if reason else (0, 1)
        outcome.records.append({"fingerprint": fp, "failure": reason})
        return outcome


class Strip(Workload):
    """``rotshock.solve_transonic`` on a strip refined in the marching direction."""

    name = "strip-1025x65"
    nx, ny = 1025, 65
    ref = {"psi_bar": 0.6180696123327156, "psi_sharp": 0.6195442145975607}

    def setup(self):
        super().setup()
        import rotshock
        self.bg = rotshock.build_background(self.cfg.upstream, self.cfg.gas)

    def op(self, index):
        import rotshock
        from tracing import fingerprint
        t0 = time.perf_counter()
        try:
            res = rotshock.solve_transonic(self.bg, self.cfg.pert, self.cfg.options)
        except rotshock.RotshockError as exc:
            seconds, fp, reason = time.perf_counter() - t0, None, f"raised: {exc}"
        else:
            seconds = time.perf_counter() - t0
            fp = fingerprint(res)
            del res
            reason = _check_fixed(fp, self.ref, self.cfg.options.tol_res)
        outcome = Outcome(seconds, attempted=1)
        outcome.failed, outcome.ok = (1, 0) if reason else (0, 1)
        outcome.records.append({"fingerprint": fp, "failure": reason})
        return outcome


class SweepPex(Workload):
    """In-process ``rotshock sweep --key perturbation.P_ex`` over seeded values."""

    name = "sweep-pex-129x65"
    nx, ny = 129, 65
    points_per_op = POINTS_PER_SWEEP

    def setup(self):
        super().setup()
        from scipy.interpolate import CubicSpline
        with open(os.path.join(self.root, SWEEP_REFERENCE)) as fh:
            p_ex, psi_bar, psi_sharp = zip(*json.load(fh)["curve"])
        self.ref = {"psi_bar": CubicSpline(p_ex, psi_bar),
                    "psi_sharp": CubicSpline(p_ex, psi_sharp)}

    def values(self, index):
        """Sweep ``index``: a lattice of ``points_per_op`` values over PEX_BAND.

        One seeded shift per run, moved by the golden ratio per sweep, so each
        value is uniform on the band and every prefix of sweeps covers it
        evenly; the share of points near the band ends does not depend on how
        many sweeps fit in the run.
        """
        shift = (random.Random(self.seed).random() + index * _GOLDEN) % 1.0
        lo, hi = PEX_BAND
        return [lo + (j + shift) * (hi - lo) / self.points_per_op
                for j in range(self.points_per_op)]

    def op(self, index):
        values = self.values(index)
        out = os.path.join(self.workdir, f"op{index}")
        del self.results[:]
        try:
            code, seconds, log = self._cli([
                "sweep", "--config", self.config_path, "--out", out,
                "--key", "perturbation.P_ex", "--values", json.dumps([[v] for v in values]),
            ])
            outcome = Outcome(seconds, attempted=len(values), bytes_written=_dir_bytes(out))
            rows = self._read_rows(os.path.join(out, "sweep.csv"))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if len(rows) != len(values):
            outcome.failed = len(values)
            outcome.records.append({"failure": f"exit {code}, {len(rows)} rows: "
                                               f"{log.strip()[-300:]}"})
            return outcome
        tol_res = self.cfg.options.tol_res
        for j, (value, row) in enumerate(zip(values, rows)):
            fp = dict(row)
            if len(self.results) == len(values):
                fp.update({k: self.results[j][k] for k in
                           ("passes", "picard_sweeps", "exit_residual", "wall_residual")})
            if row["status"] != 0:
                status = f"status {row['status']}"
            elif row["value"] != value:
                status = f"row value {row['value']!r} is not the input {value!r}"
            else:
                ref = {k: float(curve(value)) for k, curve in self.ref.items()}
                status = _drift(row, ref) or (
                    "ok" if _meets_ok_rule(row, tol_res) else RESIDUAL_MISS)
            if status == "ok":
                outcome.ok += 1
            elif status != RESIDUAL_MISS:
                outcome.failed += 1
            outcome.records.append({"P_ex": value, "fingerprint": fp, "status": status})
        return outcome

    @staticmethod
    def _read_rows(path):
        if not os.path.isfile(path):
            return []
        rows = []
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                cells = dict(zip(header, line.strip().split(",")))
                rows.append({
                    "value": float(cells["value"].strip("[]")),
                    "status": int(cells["status"]),
                    **{k: float(cells[k]) for k in ("psi_bar", "psi_sharp",
                                                    "pde_residual", "rh_residual")},
                })
        return rows


WORKLOADS = {w.name: w for w in (CliSolve, Strip, SweepPex)}
