"""Each script in demos/ runs and prints its headline result."""

import os
import runpy
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
# command-line arguments of the demos that parse one
ARGS = {"sigma_envelope.py": ["--grid", "65", "33"]}


@pytest.mark.parametrize("script,line", [
    ("background_profiles.py", "downstream state: u+ = 0.750000000000  P+ = 4.500000000000"),
    ("elliptic_convergence.py",
     "rejected as expected: elliptic data violate the solvability condition"),
    ("shock_location.py", "selected position: psi_bar = 0.618040"),
    ("transonic_solve.py", "shock front: psi_bar = 0.61804027, psi(m_bar) = 0.619516"),
    ("sigma_envelope.py",
     "first failure at sigma = 16: B - |u|^2/2 too small for a gas state"),
])
def test_demo_runs(script, line, tmp_path, monkeypatch, capsys):
    # the demos write to out/ under the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, *ARGS.get(script, [])])
    runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
    assert line in capsys.readouterr().out
