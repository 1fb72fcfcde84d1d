import json
import os

import numpy as np
import pytest

import rotshock as rs
from rotshock import errors
from rotshock.cli import _exit_code, cmd_verify, main, parse_config
from tests.conftest import BUMP, GP_MILD, L_DUCT


def write_config(path, **overrides):
    cfg = {
        "schema": 1,
        "gas": {"gamma": 1.4, "beta": 0.1},
        "nozzle": {"L": L_DUCT, "g": list(GP_MILD.coef), "sigma": 1e-3},
        "upstream": {"u_minus": [2.0], "M_top": 2.0, "P_top": 1.0},
        "perturbation": {
            "u1_en": list((0.01 + 0.002 * BUMP).coef),
            "u2_en": list((0.002 * BUMP).coef),
            "S_en": list((0.001 * BUMP).coef),
            "B_en": list((0.0005 * BUMP).coef),
            "P_ex": [-0.0561],
        },
        "solver": {"nx": 65, "ny": 33, "psi_bracket": [0.35, 0.9],
                   "tol_res": 5e-6},
        "output": {"dir": str(path.parent / "out")},
    }
    for key, val in overrides.items():
        section, name = key.split(".")
        cfg.setdefault(section, {})[name] = val
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return cfg


def test_parse_minimal_defaults(tmp_path):
    p = tmp_path / "c.json"
    with open(p, "w") as fh:
        json.dump({"schema": 1}, fh)
    cfg = parse_config(p)
    assert cfg.gas.gamma == 1.4
    assert cfg.options.nx == 129
    assert cfg.raw["solver"]["tol_fp"] == 1e-10


def test_parse_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.json"
    with open(p, "w") as fh:
        json.dump({"gas": {"gamma": 1.4, "betta": 0.1}}, fh)
    with pytest.raises(rs.ConfigError, match="betta"):
        parse_config(p)


def test_parse_rejects_missing_table(tmp_path):
    p = tmp_path / "c.json"
    with open(p, "w") as fh:
        json.dump({"upstream": {"u_minus": {"table": "nope.csv"}}}, fh)
    with pytest.raises(rs.ConfigError, match="nope.csv"):
        parse_config(p)


def test_parse_table_profile(tmp_path):
    t = tmp_path / "u.csv"
    x = np.linspace(0, 1, 33)
    np.savetxt(t, np.column_stack([x, 2.0 + 0.1 * x]), delimiter=",",
               header="x2,u", comments="")
    p = tmp_path / "c.json"
    with open(p, "w") as fh:
        json.dump({"upstream": {"u_minus": {"table": "u.csv"}}}, fh)
    cfg = parse_config(p)
    assert cfg.upstream.u_minus(0.5) == pytest.approx(2.05, rel=1e-10)


def test_config_round_trip(tmp_path):
    p = tmp_path / "c.json"
    write_config(p)
    cfg = parse_config(p)
    p2 = tmp_path / "c2.json"
    with open(p2, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    cfg2 = parse_config(p2)
    assert cfg2.to_dict() == cfg.to_dict()


def test_bad_wall_polynomial_rejected(tmp_path):
    p = tmp_path / "c.json"
    write_config(p, **{"nozzle.g": [0.0, 1.0]})
    with pytest.raises(rs.ConfigError, match="wall shape"):
        parse_config(p)


def test_cmd_background(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    rc = main(["background", "--config", str(p), "--out", str(tmp_path / "bgout")])
    assert rc == 0
    report = json.load(open(tmp_path / "bgout" / "background_report.json"))
    assert report["rh_residual_mass"] <= 1e-10
    assert report["rh_residual_momentum"] <= 1e-10
    assert report["rh_residual_bernoulli"] <= 1e-10
    assert os.path.exists(tmp_path / "bgout" / "background.csv")


def test_cmd_background_degenerate_exit_code(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p, **{"upstream.M_top": 0.8})
    rc = main(["background", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cmd_initial_zero_perturbation_exit3(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p, **{"nozzle.sigma": 0.0, "solver.psi_bracket": None})
    rc = main(["initial", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_cmd_solve_verify_and_determinism(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["solve", "--config", str(p), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(p), "--out", str(out2)]) == 0
    for name in ("fields_minus.csv", "fields_plus.csv", "front.csv",
                 "iteration_log.csv"):
        b1 = open(out1 / name, "rb").read()
        b2 = open(out2 / name, "rb").read()
        assert b1 == b2, f"{name} not byte-identical"
    report = json.load(open(out1 / "report.json"))
    assert report["pde_residual"] <= 5e-6
    assert report["rh_residual"] <= 5e-6
    # verify recomputes the residual suite from the stored fields
    assert main(["verify", "--config", str(p), "--out", str(out1)]) == 0
    vr = json.load(open(out1 / "verify_report.json"))
    assert vr["rh_residual"] <= 5e-6
    assert vr["pde_residual"] <= 5e-6


def test_cmd_initial_artifacts(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    out = tmp_path / "init"
    assert main(["initial", "--config", str(p), "--out", str(out)]) == 0
    rec = json.load(open(out / "initial.json"))
    for key in ("psi_bar", "J2", "J1_at_psi_bar", "bracket", "defect"):
        assert key in rec
    assert abs(rec["J1_at_psi_bar"] - rec["J2"]) <= 1e-9
    assert os.path.exists(out / "shock_slope.csv")
    assert os.path.exists(out / "linear_minus.csv")
    assert os.path.exists(out / "linear_plus.csv")


def test_grid_override(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    out = tmp_path / "g"
    assert main(["background", "--config", str(p), "--out", str(out),
                 "--grid", "33", "17"]) == 0


def test_cmd_sweep(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", str(p), "--out", str(out),
               "--key", "nozzle.sigma", "--values", "[1e-3, 5e-4]"])
    assert rc == 0
    rows = open(out / "sweep.csv").read().strip().splitlines()
    assert len(rows) == 3  # header + 2 runs
    assert os.path.exists(out / "run_000" / "config.json")


def test_sweep_continues_past_bad_point(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", str(p), "--out", str(out),
               "--key", "nozzle.sigma", "--values", "[0.001, -1]"])
    assert rc == 1
    rows = [r.split(",") for r in open(out / "sweep.csv").read().strip().splitlines()[1:]]
    assert [r[2] for r in rows] == ["0", "1"]
    assert np.isfinite(float(rows[0][3])) and np.isnan(float(rows[1][3]))


def test_verify_after_one_pass_solve(tmp_path, capsys):
    # at sigma = 0 the iteration stops after one pass: a one-row log
    p = tmp_path / "c.json"
    write_config(p, **{"nozzle.sigma": 0.0})
    out = tmp_path / "o"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
    assert len(open(out / "iteration_log.csv").read().strip().splitlines()) == 2
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 0


def test_sweep_requires_key(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x")]) == 1


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """Config path and output directory of one `solve` run."""
    base = tmp_path_factory.mktemp("solved")
    p = base / "c.json"
    write_config(p)
    out = base / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
    return p, out


def test_verify_reproduces_solve(solved, capsys):
    p, out = solved
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 0
    rep = json.load(open(out / "report.json"))
    vr = json.load(open(out / "verify_report.json"))
    for key in ("pde_residual", "pde_residual_raw", "rh_residual",
                "exit_residual", "defect"):
        assert vr[key] == pytest.approx(rep[key], rel=1e-12, abs=0.0), key
    # the stored fields pass through a 17-digit CSV round trip
    assert abs(vr["wall_residual"] - rep["wall_residual"]) <= 1e-15


def test_verify_uses_picard_options(solved, capsys):
    # the Picard march needs several sweeps on this configuration
    p, out = solved
    cfg = parse_config(p)
    cfg.options.picard_max_iter = 1
    with pytest.raises(rs.NonConvergenceError):
        cmd_verify(cfg, str(out))


EXIT_CODES = {"ConfigError": 1, "DegenerateBackgroundError": 2,
              "NoAdmissibleShockError": 3, "DegenerateSelectionError": 3}
ERRORS = sorted((c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, rs.RotshockError)
                 and c is not rs.RotshockError), key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_exit_code_of_every_error(cls):
    assert _exit_code(cls.__new__(cls)) == EXIT_CODES.get(cls.__name__, 4)
