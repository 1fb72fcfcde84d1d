import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGEST_PATHS = [
    "background/background.csv", "background/background_report.json",
    "initial/initial.json", "initial/linear_minus.csv", "initial/linear_plus.csv",
    "initial/shock_slope.csv",
    *(f"solve/{n}" for n in ("fields_minus.csv", "fields_plus.csv", "front.csv",
                             "hatted_profiles.csv", "iteration_log.csv", "report.json")),
    *(f"sweep/run_00{i}/config.json" for i in range(3)), "sweep/sweep.csv",
    *(f"verify/{n}" for n in ("fields_minus.csv", "fields_plus.csv", "front.csv",
                              "hatted_profiles.csv", "iteration_log.csv", "report.json",
                              "verify_report.json")),
]


def test_cli_digest_smoke():
    # the byte-identity gate: one sha256 line per CLI artifact, sorted by path
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "cli_digest.py"), "--grid", "129", "65"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    assert [line.split("  ", 1)[1] for line in lines] == DIGEST_PATHS
