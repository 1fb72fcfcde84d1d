"""Where `verify` does not see a corrupted cell.

`verify` audits the PDE residual of the stored fields on the core of each
region, three nodes in from every side, and the jump, exit and wall
conditions on the boundary rows.  A cell in the frame between the two that
no boundary check reads can change without moving any audited number: on
the demo configuration at 129x65, 1e-4 added to ``u1`` (about 200 times the
gated residual) at the cells below leaves `verify` at ``OK`` with the
residuals of the untouched run.

Each strict xfail states that `verify` fails such a corrupted run; each
control shows that it does when the cell lies in the audited core.
"""

import json
import shutil

import pytest

from rotshock.cli import main
from tests.conftest import DEMO_CONFIG

N2 = 65
HOLE = "the residual audit leaves out a 3-node frame and no other check reads this cell"


@pytest.fixture(scope="module")
def demo_solved(tmp_path_factory):
    out = tmp_path_factory.mktemp("frame") / "out"
    assert main(["solve", "--config", DEMO_CONFIG, "--out", str(out)]) == 0
    assert main(["verify", "--config", DEMO_CONFIG, "--out", str(out)]) == 0
    return out


def verify_with_kicked_cell(solved, tmp_path, name, i, j):
    """(exit code, verify report) of a copy of ``solved`` with u1 + 1e-4 at node (i, j) of ``name``."""
    out = tmp_path / "out"
    shutil.copytree(solved, out)
    path = out / name
    lines = path.read_text().splitlines(True)
    k = lines[0].rstrip("\n").split(",").index("u1")
    cells = lines[i * N2 + j + 1].rstrip("\n").split(",")
    cells[k] = "%.17g" % (float(cells[k]) + 1e-4)
    lines[i * N2 + j + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    code = main(["verify", "--config", DEMO_CONFIG, "--out", str(out)])
    return code, json.loads((out / "verify_report.json").read_text())


@pytest.mark.parametrize("name,i,j", [
    pytest.param("fields_plus.csv", 1, 1, marks=pytest.mark.xfail(strict=True, reason=HOLE)),
    pytest.param("fields_plus.csv", 1, 32, marks=pytest.mark.xfail(strict=True, reason=HOLE)),
    pytest.param("fields_minus.csv", 1, 1, marks=pytest.mark.xfail(strict=True, reason=HOLE)),
    pytest.param("fields_minus.csv", 64, 1, marks=pytest.mark.xfail(strict=True, reason=HOLE)),
    pytest.param("fields_plus.csv", 40, 32, id="control-plus"),
    pytest.param("fields_minus.csv", 64, 62, id="control-minus"),
])
def test_verify_fails_a_corrupted_cell(demo_solved, tmp_path, capsys, name, i, j):
    code, report = verify_with_kicked_cell(demo_solved, tmp_path, name, i, j)
    assert code == 4
    assert report["pde_residual"] > 1e-3
    assert capsys.readouterr().out.rstrip().endswith("FAIL")
