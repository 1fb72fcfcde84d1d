"""Where `verify` does not see a corrupted cell.

`verify` audits the PDE residual of the stored fields on the core of each
region, three nodes in from every side, and the jump, exit and wall
conditions on the boundary rows.  A cell in the frame between the two that
no boundary check reads can change without moving any audited number: on
the demo configuration at 129x65, 1e-4 added to ``u1`` (about 200 times the
gated residual) at the cells below leaves `verify` at ``OK`` with the
residuals of the untouched run.

Each strict xfail states that `verify` fails such a corrupted run; each
control shows that it does when the cell lies in the audited core.  The
entropy S and the Bernoulli function B have no such hole in either field
file: they ride along y1, the audit reads their y2-rows, and `verify`
refuses a stored S or B that is not one row repeated, in the frame and in
the core alike.
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


def verify_with_kicked_cell(solved, tmp_path, name, i, j, column="u1"):
    """(exit code, verify report or None) of a copy of ``solved`` with
    ``column`` + 1e-4 at node (i, j) of ``name``; None when `verify` refuses
    the files before it writes a report."""
    out = tmp_path / "out"
    shutil.copytree(solved, out)
    (out / "verify_report.json").unlink()  # the untouched run's
    path = out / name
    lines = path.read_text().splitlines(True)
    k = lines[0].rstrip("\n").split(",").index(column)
    cells = lines[i * N2 + j + 1].rstrip("\n").split(",")
    cells[k] = "%.17g" % (float(cells[k]) + 1e-4)
    lines[i * N2 + j + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    code = main(["verify", "--config", DEMO_CONFIG, "--out", str(out)])
    report = out / "verify_report.json"
    return code, json.loads(report.read_text()) if report.exists() else None


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


@pytest.mark.parametrize("i,j", [(1, 10), (40, 32)])
@pytest.mark.parametrize("column", ["S", "B"])
@pytest.mark.parametrize("name", ["fields_plus.csv", "fields_minus.csv"])
def test_verify_refuses_an_S_or_B_that_varies_along_y1(demo_solved, tmp_path, capsys, name,
                                                       column, i, j):
    # S and B ride along y1 and the residuals read only their y2-rows, so a
    # kick on any row but the first, in the audit's frame (1, 10) or in its
    # core (40, 32), is refused before the audit
    code, report = verify_with_kicked_cell(demo_solved, tmp_path, name, i, j, column)
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith(f"error: {name}: the stored {column}")
