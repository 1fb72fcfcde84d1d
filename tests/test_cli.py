import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rotshock as rs
import rotshock.cli as cli
from rotshock import background, errors, iteration, supersonic
from rotshock.cli import _exit_code, main, parse_config
from rotshock.lagrangian import inlet_maps
from tests.conftest import (
    BUMP, DEMO_CONFIG, GP_MILD, L_DUCT, assert_no_child_left, count_calls, set_cpus,
)


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
    assert cfg.raw["solver"]["tol_res"] == 1e-6


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


def test_table_without_a_header_line(tmp_path):
    # a first line of two numbers is data, not a header
    x = np.linspace(0, 1, 33)
    rows = np.column_stack([x, 2.0 + 0.1 * x])
    np.savetxt(tmp_path / "bare.csv", rows, delimiter=",")
    np.savetxt(tmp_path / "named.csv", rows, delimiter=",", header="x2,u", comments="")
    u = {}
    for name in ("bare", "named"):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"upstream": {"u_minus": {"table": f"{name}.csv"}}}))
        u[name] = parse_config(p).upstream.u_minus(np.linspace(0, 1, 101))
    assert np.array_equal(u["bare"], u["named"])


def test_bare_number_profile_is_the_constant_polynomial(tmp_path):
    # "P_ex": -0.0561 and "P_ex": [-0.0561] solve to the same report.json
    runs = []
    for i, pex in enumerate((-0.0561, [-0.0561])):
        p = tmp_path / f"c{i}.json"
        write_config(p, **{"perturbation.P_ex": pex})
        rc = main(["solve", "--config", str(p), "--out", str(tmp_path / f"o{i}")])
        runs.append((rc, (tmp_path / f"o{i}" / "report.json").read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("key", ["tol_fp", "max_iter", "defect_tol", "psi_bar"])
def test_removed_solver_key_is_unknown(tmp_path, capsys, key):
    # the fixed-point tolerance and pass cap are iteration constants, every
    # elliptic solve gates at elliptic.DEFECT_TOL and the sigma = 0 front is
    # the midpoint of the bracket: none of them is a setting
    p = tmp_path / "c.json"
    write_config(p, **{f"solver.{key}": 1})
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert f"error: solver: unknown key(s) ['{key}']" in capsys.readouterr().err


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


@pytest.mark.parametrize("override", [
    {"gas.gamma": 0.5}, {"gas.gamma": 1.0}, {"gas.beta": -0.1}, {"gas.gamma": True},
    {"nozzle.sigma": False}, {"solver.tol_res": True}, {"solver.psi_bar": True},
    {"upstream.P_top": float("nan")}, {"nozzle.L": float("inf")},
    {"upstream.P_top": -1.0}, {"upstream.P_top": 0.0}, {"upstream.u_minus": [-1.0]},
    {"perturbation.P_ex": True}, {"perturbation.P_ex": float("nan")},
    {"perturbation.u1_en": [float("inf")]}, {"nozzle.g": False},
], ids=lambda o: "=".join(map(str, next(iter(o.items())))))
def test_bad_numeric_values_exit_1(tmp_path, capsys, override):
    # rejected at validation as configuration errors, before any solve
    p = tmp_path / "c.json"
    write_config(p, **override)
    rc = main(["solve", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_table_cell_exit_1(tmp_path, capsys):
    t = tmp_path / "pex.csv"
    t.write_text("x2,P_ex\n0,-0.0561\n0.25,-0.0561\n0.5,nan\n0.75,-0.0561\n1,-0.0561\n")
    p = tmp_path / "c.json"
    write_config(p, **{"perturbation.P_ex": {"table": "pex.csv"}})
    rc = main(["solve", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error: perturbation.P_ex.table: non-finite value" in capsys.readouterr().err


# (config text, overrides of write_config or None for no file, text of t.csv,
# sweep key and values, message); a sweep case runs `sweep`, every other `solve`
BAD_INPUT = {
    "top-level-list": ("[1, 2]", None, None, "top level must be a JSON object"),
    "unknown-top-level-key": ('{"schema": 1, "extra": {}}', None, None,
                              "unknown top-level key(s): ['extra']"),
    "schema": ('{"schema": 2}', None, None, "schema: expected 1, got 2"),
    "section-not-object": ('{"schema": 1, "gas": 1.4}', None, None,
                           "gas: expected an object"),
    "psi_bracket-reversed": ({"solver.psi_bracket": [0.9, 0.35]}, None, None,
                             "solver.psi_bracket: expected [lo, hi] with lo < hi"),
    "psi_bracket-three-values": ({"solver.psi_bracket": [0.35, 0.6, 0.9]}, None, None,
                                 "solver.psi_bracket: expected [lo, hi] with lo < hi"),
    "output-dir-number": ({"output.dir": 3}, None, None, "output.dir: expected a string"),
    "dump_fields-number": ({"output.dump_fields": 1}, None, None,
                           "output.dump_fields: expected a boolean"),
    "unreadable-config": (None, None, None, "cannot read config"),
    "invalid-json": ('{"schema": 1,', None, None, "is not valid JSON"),
    "sweep-section-missing": ({}, None, ("solverx.nx", "[65]"),
                              "sweep key solverx.nx: section 'solverx' not found"),
    "sweep-leaf-missing": ({}, None, ("solver.nz", "[65]"),
                           "sweep key solver.nz: key 'nz' not found"),
    "values-invalid-json": ({}, None, ("solver.nx", "[65,"), "--values is not valid JSON"),
    "values-empty-list": ({}, None, ("solver.nx", "[]"),
                          "--values must be a non-empty JSON list"),
    "values-not-a-list": ({}, None, ("solver.nx", "65"),
                          "--values must be a non-empty JSON list"),
    "table-three-rows": ({"perturbation.P_ex": {"table": "t.csv"}},
                         "0,-0.0561\n1,-0.0561\n2,-0.0561\n", None,
                         "perturbation.P_ex: table needs >=4 strictly increasing abscissae"),
    "table-unknown-key": ({"perturbation.P_ex": {"table": "t.csv", "column": 1}}, None, None,
                          "perturbation.P_ex: unknown keys ['column']"),
    "table-path-number": ({"perturbation.P_ex": {"table": 3}}, None, None,
                          "perturbation.P_ex.table: expected a file path string"),
    "table-unparsable": ({"perturbation.P_ex": {"table": "t.csv"}},
                         "x2,P_ex\n0,-0.0561\n0.5,low\n1,-0.0561\n1.5,-0.0561\n", None,
                         "perturbation.P_ex.table: cannot parse"),
    "table-one-column": ({"perturbation.P_ex": {"table": "t.csv"}}, "0\n0.5\n1\n1.5\n", None,
                         "perturbation.P_ex.table: expected two columns"),
    "nozzle-L-zero": ({"nozzle.L": 0.0}, None, None, "nozzle length must be positive, got 0.0"),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_is_a_config_error(tmp_path, capsys, case):
    config, table, sweep, message = BAD_INPUT[case]
    p = tmp_path / "c.json"
    if isinstance(config, str):
        p.write_text(config)
    elif isinstance(config, dict):
        write_config(p, **config)
    if table is not None:
        (tmp_path / "t.csv").write_text(table)
    argv = ["--config", str(p), "--out", str(tmp_path / "o")]
    if sweep is None:
        argv = ["solve", *argv]
    else:
        argv = ["sweep", *argv, "--key", sweep[0], "--values", sweep[1]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_default_search_names_both_roots(tmp_path, capsys):
    # without solver.psi_bracket the search covers (0, L); on the demo
    # configuration J1 = J2 has two roots there, and the error names both
    raw = parse_config(DEMO_CONFIG).raw
    raw["solver"]["psi_bracket"] = None
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw))
    for command in ("initial", "solve"):
        rc = main([command, "--config", str(p), "--out", str(tmp_path / command),
                   "--grid", "65", "33"])
        err = capsys.readouterr().err
        assert rc == 3
        assert re.search(r"J1 = J2 has 2 roots, psi_bar = 0\.61\d+ \(J1' < 0\), "
                         r"1\.35\d+ \(J1' > 0\)", err), err
        assert "(0, " not in err and "selection_bracket" not in err


def test_default_search_solves_a_unique_root(tmp_path, capsys):
    # at P_ex = -0.042 J1 = J2 has one root on (0, L): no bracket is needed
    raw = parse_config(DEMO_CONFIG).raw
    raw["solver"]["psi_bracket"] = None
    raw["perturbation"]["P_ex"] = [-0.042]
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["psi_bar"] == pytest.approx(1.74398, abs=1e-5)
    assert report["iterations"] == 3
    assert report["pde_residual"] == pytest.approx(8.1e-7, rel=0.01)


def test_cmd_background(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    rc = main(["background", "--config", str(p), "--out", str(tmp_path / "bgout")])
    assert rc == 0
    report = json.loads((tmp_path / "bgout" / "background_report.json").read_text())
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
    assert "the shock position is arbitrary" in capsys.readouterr().err
    # a bracket does not make the sigma = 0 position less arbitrary
    write_config(p, **{"nozzle.sigma": 0.0})
    assert main(["initial", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert "sigma = 0: the shock position is arbitrary" in capsys.readouterr().err


def test_cmd_solve_verify_and_determinism(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["solve", "--config", str(p), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(p), "--out", str(out2)]) == 0
    for name in ("fields_minus.csv", "fields_plus.csv", "front.csv",
                 "iteration_log.csv"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"{name} not byte-identical"
    report = json.loads((out1 / "report.json").read_text())
    assert report["pde_residual"] <= 5e-6
    assert report["rh_residual"] <= 5e-6
    # verify recomputes the residual suite from the stored fields
    assert main(["verify", "--config", str(p), "--out", str(out1)]) == 0
    vr = json.loads((out1 / "verify_report.json").read_text())
    assert vr["rh_residual"] <= 5e-6
    assert vr["pde_residual"] <= 5e-6


def test_cmd_initial_artifacts(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    out = tmp_path / "init"
    assert main(["initial", "--config", str(p), "--out", str(out)]) == 0
    rec = json.loads((out / "initial.json").read_text())
    for key in ("psi_bar", "J2", "J1_at_psi_bar", "bracket", "defect"):
        assert key in rec
    assert abs(rec["J1_at_psi_bar"] - rec["J2"]) <= 1e-9
    assert os.path.exists(out / "shock_slope.csv")
    assert os.path.exists(out / "linear_minus.csv")
    assert os.path.exists(out / "linear_plus.csv")


def test_unwritable_output_exit_1(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    # --out names a file: the output directory cannot be made
    (tmp_path / "file").write_text("")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "file")]) == 1
    assert "error: cannot write output to" in capsys.readouterr().err
    # a directory where a field file goes: the write fails in the parent
    # (linear_plus.csv) and in the forked child (linear_minus.csv)
    for name in ("linear_plus.csv", "linear_minus.csv"):
        out = tmp_path / name.split(".")[0]
        (out / name).mkdir(parents=True)
        assert main(["initial", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output to {out}") and name in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_grid_override(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    out = tmp_path / "g"
    assert main(["background", "--config", str(p), "--out", str(out),
                 "--grid", "33", "17"]) == 0


@pytest.mark.parametrize("command,grid", [
    ("background", ["2", "2"]), ("solve", ["2", "65"]), ("verify", ["2", "2"]),
])
def test_bad_grid_exit_1(tmp_path, capsys, command, grid):
    # --grid is validated as solver.nx and solver.ny are, before any work
    p = tmp_path / "c.json"
    write_config(p)
    out = tmp_path / "g"
    assert main([command, "--config", str(p), "--out", str(out), "--grid", *grid]) == 1
    assert capsys.readouterr().err.startswith(
        "error: solver.nx: expected an integer >= 3, got 2")


def test_sweep_points_take_the_grid(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p, **{"solver.nx": 33, "solver.ny": 17})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(p), "--out", str(out), "--grid", "65", "33",
                 "--key", "nozzle.sigma", "--values", "[1e-3]"]) == 0
    solver = json.loads((out / "run_000" / "config.json").read_text())["solver"]
    assert (solver["nx"], solver["ny"]) == (65, 33)


def test_cmd_sweep(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", str(p), "--out", str(out),
               "--key", "nozzle.sigma", "--values", "[1e-3, 5e-4]"])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2 runs
    assert os.path.exists(out / "run_000" / "config.json")


def test_sweep_continues_past_bad_point(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", str(p), "--out", str(out),
               "--key", "nozzle.sigma", "--values", "[0.001, -1]"])
    assert rc == 1
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().strip().splitlines()[1:]]
    assert [r[2] for r in rows] == ["0", "1"]
    assert np.isfinite(float(rows[0][3])) and np.isnan(float(rows[1][3]))


def test_sweep_quotes_list_values(tmp_path, capsys):
    # a two-coefficient P_ex profile prints with a comma inside the value cell
    p = tmp_path / "c.json"
    write_config(p)
    out = tmp_path / "sw"
    values = [[-0.058, 0.001], [-0.0561, 0.0]]
    main(["sweep", "--config", str(p), "--out", str(out),
          "--key", "perturbation.P_ex", "--values", json.dumps(values)])
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(r) == 7 for r in rows)
    assert [json.loads(r[1]) for r in rows[1:]] == values


def test_verify_after_one_pass_solve(tmp_path, capsys):
    # at sigma = 0 the iteration stops after one pass: a one-row log
    p = tmp_path / "c.json"
    write_config(p, **{"nozzle.sigma": 0.0})
    out = tmp_path / "o"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
    assert len((out / "iteration_log.csv").read_text().strip().splitlines()) == 2
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 0


def test_one_pass_report_is_strict_json(tmp_path, capsys):
    # the demo configuration at sigma = 0 stops after one pass, so there is no
    # contraction estimate: kappa_final is JSON null, not a bare NaN
    raw = parse_config(DEMO_CONFIG).raw
    raw["nozzle"]["sigma"] = 0.0
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(p), "--out", str(out), "--grid", "65", "33"]) == 0

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["iterations"] == 1
    assert report["kappa_final"] is None


def test_sweep_requires_key(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["solve", "--config", "c.json", "--grid", "9"],
    ["bogus", "--config", "c.json"],
], ids=["no-config", "grid-one-number", "unknown-command"])
def test_usage_errors_exit_1(argv, capsys):
    # argparse's own exit status, 2, is the code of a degenerate background
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: rotshock") and "\nerror: " in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rotshock")


@pytest.mark.parametrize("key", ["gas.gamma.x", "nozzle.g.0", "output.dir.out"])
def test_sweep_key_through_a_value_exit_1(tmp_path, capsys, key):
    # a number, a list and a string: none of them is a section
    p = tmp_path / "c.json"
    write_config(p)
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "sw"),
                 "--key", key, "--values", "[1]"]) == 1
    assert "holds a value, not a section" in capsys.readouterr().err


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """Config path and output directory of one `solve` run."""
    base = tmp_path_factory.mktemp("solved")
    p = base / "c.json"
    write_config(p)
    out = base / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
    return p, out


def assert_verify_matches_solve(out):
    rep = json.loads((out / "report.json").read_text())
    vr = json.loads((out / "verify_report.json").read_text())
    for key in ("pde_residual", "pde_residual_raw", "rh_residual",
                "exit_residual", "defect"):
        assert vr[key] == pytest.approx(rep[key], rel=1e-12, abs=0.0), key
    # the stored fields pass through a 17-digit CSV round trip
    assert abs(vr["wall_residual"] - rep["wall_residual"]) <= 1e-15


def test_verify_reproduces_solve(solved, capsys):
    p, out = solved
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 0
    assert_verify_matches_solve(out)


def test_verify_takes_grid_from_stored_files(tmp_path, capsys):
    # the config says 65x33; the stored run is 33x17
    p = tmp_path / "c.json"
    write_config(p)
    out = tmp_path / "o"
    rc = main(["solve", "--config", str(p), "--out", str(out), "--grid", "33", "17"])
    assert main(["verify", "--config", str(p), "--out", str(out)]) == rc
    assert_verify_matches_solve(out)
    # a field file that does not split into columns of front.csv's rows
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    minus = bad / "fields_minus.csv"
    minus.write_text("".join(minus.read_text().splitlines(True)[:-1]))
    assert main(["verify", "--config", str(p), "--out", str(bad)]) == 1
    assert "fields_minus.csv" in capsys.readouterr().err


def test_verify_without_solve_output_exit_1(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    assert main(["verify", "--config", str(p), "--out", str(tmp_path / "empty")]) == 1
    assert "fields_plus.csv" in capsys.readouterr().err


def copy_solved(solved, tmp_path):
    """A copy of the `solve` output of ``solved`` that a test may change."""
    out = tmp_path / "out"
    shutil.copytree(solved[1], out)
    return out


def set_cell(path, row, column, edit):
    """Replace cell (``row``, ``column``) of the data rows of a CSV by ``edit(cell)``."""
    lines = path.read_text().splitlines(True)
    k = lines[0].rstrip("\n").split(",").index(column)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[k] = edit(cells[k])
    lines[row + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def test_verify_audits_the_stored_upstream_field(solved, tmp_path, capsys):
    # u1 + 1e-3 at upstream node (40, 15) of the 65x33 run: the stored field
    # is audited, not a new march
    p, _ = solved
    out = copy_solved(solved, tmp_path)
    set_cell(out / "fields_minus.csv", 40 * 33 + 15, "u1", lambda c: "%.17g" % (float(c) + 1e-3))
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 4
    assert capsys.readouterr().out.rstrip().endswith("FAIL")
    assert json.loads((out / "verify_report.json").read_text())["pde_residual"] > 1e-3


def test_verify_rejects_another_downstream_B(solved, tmp_path, capsys):
    # B rides along y1 and across the front; the audit takes the downstream B
    # from the upstream entrance row, so only this check reads the stored one
    p, _ = solved
    out = copy_solved(solved, tmp_path)
    set_cell(out / "fields_plus.csv", 20 * 33 + 15, "B", lambda c: "%.17g" % (float(c) + 1e-3))
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: fields_plus.csv: the stored B")


def test_verify_rejects_another_inflow(solved, tmp_path, capsys):
    # the stored run belongs to u1_en[0] = 0.01
    _, out = solved
    conf = tmp_path / "c.json"
    u1_en = list((0.01 + 0.002 * BUMP).coef)
    u1_en[0] = 0.012
    write_config(conf, **{"perturbation.u1_en": u1_en})
    assert main(["verify", "--config", str(conf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fields_minus.csv: the stored inflow")


def test_verify_rejects_another_duct(solved, tmp_path, capsys):
    _, out = solved
    conf = tmp_path / "c.json"
    write_config(conf, **{"nozzle.L": 2.05})
    assert main(["verify", "--config", str(conf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fields_minus.csv: its y1/y2 nodes are not those")


def test_verify_marches_nothing(solved, capsys, monkeypatch):
    p, out = solved
    marches = [count_calls(monkeypatch, supersonic, "solve_nonlinear"),
               count_calls(monkeypatch, supersonic, "solve_linear"),
               count_calls(monkeypatch, iteration, "setup_upstream")]
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 0
    assert [len(c) for c in marches] == [0, 0, 0]


def header_only(path):
    path.write_text(path.read_text().splitlines(True)[0])


def first_columns(path, n):
    path.write_text("".join(",".join(line.split(",")[:n]).rstrip("\n") + "\n"
                            for line in path.read_text().splitlines()))


@pytest.mark.parametrize("name,spoil,says", [
    ("iteration_log.csv", header_only, "no data rows"),
    ("front.csv", lambda path: path.write_text("y1,y2\n"), "no data rows"),
    ("fields_plus.csv", lambda path: set_cell(path, 7, "u2", lambda c: "abc"),
     "could not convert"),
    ("fields_minus.csv", lambda path: set_cell(path, 3, "x2", lambda c: c + ",1"),
     "number of columns changed"),
    ("front.csv", lambda path: first_columns(path, 2), "no column psi_prime"),
    ("iteration_log.csv", lambda path: path.write_text("extra," + path.read_text()),
     "cells per row under"),
], ids=["header-only-log", "front-of-names", "text-cell", "ragged-row", "missing-column",
        "header-too-wide"])
def test_verify_malformed_stored_file_exit_1(solved, tmp_path, capsys, name, spoil, says):
    p, _ = solved
    out = copy_solved(solved, tmp_path)
    spoil(out / name)
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and says in err


@pytest.mark.parametrize("bracket", [[-0.5, 0.9], [0.35, 2.5], [2.1, 3.0]])
@pytest.mark.parametrize("command", ["initial", "solve", "sweep"])
def test_bracket_outside_the_duct_exit_1(tmp_path, capsys, bracket, command):
    # outside [0, L] the spline of the upstream march extrapolates into roots
    p = tmp_path / "c.json"
    write_config(p, **{"solver.psi_bracket": bracket})
    sweep = ["--key", "perturbation.P_ex", "--values", "[[-0.0561]]"] * (command == "sweep")
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o"), *sweep]) == 1
    assert (f"solver.psi_bracket = [{bracket[0]:g}, {bracket[1]:g}] is not inside the "
            f"duct [0, L = 2]") in capsys.readouterr().err


@pytest.mark.parametrize("bracket", [[2.2, 2.8], [-0.5, 0.5], [0.5, 2.5]],
                         ids=["2.2,2.8", "-0.5,0.5", "0.5,2.5"])
def test_sigma_zero_front_outside_the_duct_exit_1(tmp_path, capsys, bracket):
    # at sigma = 0 the front sits at the midpoint of the bracket, after the
    # check that the position search makes: a bracket outside [0, L] exits 1
    # even when its midpoint (1.5 for the last) lies inside the duct
    p = tmp_path / "c.json"
    write_config(p, **{"nozzle.sigma": 0.0, "solver.psi_bracket": bracket})
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert (f"error: solver.psi_bracket = [{bracket[0]:g}, {bracket[1]:g}] is not inside "
            f"the duct [0, L = 2]" in capsys.readouterr().err)


def test_background_reports_the_m_bar_of_every_solve(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    assert main(["background", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    cfg = parse_config(p)
    m_bar = inlet_maps(rs.build_background(cfg.upstream, cfg.gas))[1]
    assert json.loads((tmp_path / "o" / "background_report.json").read_text())["m_bar"] == m_bar


EXIT_CODES = {"ConfigError": 1, "DegenerateBackgroundError": 2,
              "NoAdmissibleShockError": 3, "DegenerateSelectionError": 3}
ERRORS = sorted((c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, rs.RotshockError)
                 and c is not rs.RotshockError), key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_exit_code_of_every_error(cls):
    assert _exit_code(cls.__new__(cls)) == EXIT_CODES.get(cls.__name__, 4)


def sweep_outputs(out, capsys, argv):
    """Exit code, stdout, stderr and every file of one sweep run."""
    rc = main(argv)
    std = capsys.readouterr()
    files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*"))
             if f.is_file()}
    return rc, std.out.replace(str(out), "OUT"), std.err, files


# two points without an admissible shock position, the first in the process's
# share and the second in the child's when W = 2
SWEEP_PEX = [[-0.0561], [-0.058], [-0.08], [-0.082], [-0.0555]]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sweep_forked_matches_serial(tmp_path, capsys, monkeypatch):
    p = tmp_path / "c.json"
    write_config(p)

    def sweep(name):
        out = tmp_path / name
        return sweep_outputs(out, capsys, [
            "sweep", "--config", str(p), "--out", str(out),
            "--key", "perturbation.P_ex", "--values", json.dumps(SWEEP_PEX)])

    set_cpus(monkeypatch, 2)
    forked = sweep("forked")
    assert_no_child_left()
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        serial = sweep("serial")
    set_cpus(monkeypatch, 1)
    one_cpu = sweep("one_cpu")
    assert forked == serial == one_cpu
    rc, _, err, files = forked
    lines = err.splitlines()
    assert rc == 3 and len(lines) == 2
    assert lines[0].startswith("sweep perturbation.P_ex=[-0.08]: ")
    assert lines[1].startswith("sweep perturbation.P_ex=[-0.082]: ")
    assert sorted(files) == ["run_%03d/config.json" % i for i in range(5)] + ["sweep.csv"]
    rows = list(csv.reader(files["sweep.csv"].decode().splitlines()))
    assert [r[2] for r in rows[1:]] == ["0", "0", "3", "3", "0"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sweep_child_errors(tmp_path, capsys, monkeypatch):
    p = tmp_path / "c.json"
    write_config(p)
    set_cpus(monkeypatch, 2)
    values = ["--key", "perturbation.P_ex", "--values", "[[-0.0561], [-0.058], [-0.054]]"]
    # a bug in a child surfaces with its type and text, not as exit 1
    solve = cli._solve

    def buggy(cfg, shared=None):
        if cfg.raw["perturbation"]["P_ex"] == [-0.058]:
            raise ValueError("bug at the second point")
        return solve(cfg, shared)

    monkeypatch.setattr(cli, "_solve", buggy)
    with pytest.raises(RuntimeError, match="ValueError: bug at the second point") as info:
        main(["sweep", "--config", str(p), "--out", str(tmp_path / "bug"), *values])
    assert not isinstance(info.value, OSError)
    assert_no_child_left()
    # an unwritable point directory in the child is unwritable output: exit 1
    out = tmp_path / "unwritable"
    out.mkdir()
    (out / "run_001").write_text("")
    assert main(["sweep", "--config", str(p), "--out", str(out), *values]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output to {out}") and "run_001" in err
    assert_no_child_left()


def test_sweep_reads_tables_from_the_config_directory(tmp_path, capsys, monkeypatch):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    x = np.linspace(0.0, 1.0, 41)
    np.savetxt(cfg_dir / "umin.csv", np.column_stack([x, 2.0 + 0.05 * x * x]),
               delimiter=",", header="x,u", comments="")
    p = cfg_dir / "c.json"
    write_config(p, **{"upstream.u_minus": {"table": "umin.csv"}})
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "solve")]) == 0
    psi_bar = json.loads((tmp_path / "solve" / "report.json").read_text())["psi_bar"]
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(p), "--out", str(out),
                 "--key", "nozzle.sigma", "--values", "[1e-3]"]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["status"] == "0" and float(row["psi_bar"]) == psi_bar
    # the point's config names the table by its absolute path and re-solves
    written = out / "run_000" / "config.json"
    assert json.loads(written.read_text())["upstream"]["u_minus"] == {
        "table": str(cfg_dir / "umin.csv")}
    assert main(["solve", "--config", str(written), "--out", str(tmp_path / "again")]) == 0
    assert json.loads((tmp_path / "again" / "report.json").read_text())["psi_bar"] == psi_bar


# the three kinds of point a P_ex sweep over a shared setup meets: solved and
# without a shock position; a setup that raises (CFL 5.4), the same error at
# every point; a value that is no profile, exit 1 at its own point only
SHARED_CASES = {
    "pex": ([], SWEEP_PEX, ["0", "0", "3", "3", "0"]),
    "setup_raises": (["--grid", "9", "33"], SWEEP_PEX, ["4"] * 5),
    "bad_value": ([], [[-0.058], "abc"], ["0", "1"]),
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "serial"])
@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_shared_setup_sweep_matches_per_point_setup(tmp_path, capsys, monkeypatch, case, cpus):
    # the same exit code, stdout, stderr, sweep.csv and run_*/config.json as
    # when every point builds its own setup
    p = tmp_path / "c.json"
    write_config(p)
    extra, values, statuses = SHARED_CASES[case]
    set_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(p), "--out", str(out), *extra,
            "--key", "perturbation.P_ex", "--values", json.dumps(values)]
    shared = sweep_outputs(out, capsys, argv)
    shutil.rmtree(out)
    with monkeypatch.context() as m:
        m.setattr(cli, "_SHARED_SETUP_KEYS", set())
        per_point = sweep_outputs(out, capsys, argv)
    assert shared == per_point
    rc, _, err, files = shared
    rows = list(csv.reader(files["sweep.csv"].decode().splitlines()))
    assert [r[2] for r in rows[1:]] == statuses
    assert rc == max(int(s) for s in statuses)
    assert len(err.splitlines()) == sum(s != "0" for s in statuses)
    if case == "setup_raises":
        assert all("marching CFL" in line for line in err.splitlines())


def test_sweep_builds_a_shared_setup_once(tmp_path, capsys, monkeypatch):
    p = tmp_path / "c.json"
    write_config(p)
    set_cpus(monkeypatch, 1)  # every point in this process, where the counters are
    calls = {name: count_calls(monkeypatch, module, name) for module, name in (
        (background, "build_background"), (iteration, "setup_upstream"),
        (supersonic, "solve_nonlinear"))}

    def sweep(key, values):
        for c in calls.values():
            c.clear()
        out = tmp_path / key
        main(["sweep", "--config", str(p), "--out", str(out),
              "--key", key, "--values", json.dumps(values)])
        return {name: len(c) for name, c in calls.items()}

    assert sweep("perturbation.P_ex", [[-0.0561], [-0.058], [-0.0555], [-0.057], [-0.059]]) \
        == {"build_background": 1, "setup_upstream": 1, "solve_nonlinear": 5}
    # a key the setup reads: every point builds its own
    assert sweep("nozzle.sigma", [1e-3, 8e-4, 6e-4]) \
        == {"build_background": 3, "setup_upstream": 3, "solve_nonlinear": 3}


# a valid new value for each key of the shared set
SHARED_KEY_VALUES = {
    "perturbation.P_ex": [-0.058, 0.002], "solver.tol_res": 1e-5,
    "solver.psi_bracket": [0.4, 0.8],
}


def _arrays(obj, path="", seen=None):
    """Every array and number reachable from ``obj``, by attribute path."""
    seen = set() if seen is None else seen
    if id(obj) in seen or callable(obj) and not hasattr(obj, "__dict__"):
        return {}
    seen.add(id(obj))
    if isinstance(obj, (np.ndarray, int, float)):
        return {path: np.asarray(obj)}
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif hasattr(obj, "__dict__"):
        items = vars(obj).items()
    else:
        return {}
    found = {}
    for k, v in items:
        found.update(_arrays(v, f"{path}.{k}", seen))
    return found


def _setup_arrays(raw):
    cfg = cli.build_config(raw, os.path.dirname(DEMO_CONFIG))
    cfg = dataclasses.replace(cfg, options=dataclasses.replace(cfg.options, nx=65, ny=33))
    bg = rs.build_background(cfg.upstream, cfg.gas)
    return _arrays((bg, iteration.setup_upstream(bg, cfg.pert, cfg.options)))


def test_shared_keys_leave_the_setup_bit_identical():
    assert set(SHARED_KEY_VALUES) == cli._SHARED_SETUP_KEYS
    base = parse_config(DEMO_CONFIG).raw
    ref = _setup_arrays(base)
    assert len(ref) > 50 and any(a.size >= 65 * 33 for a in ref.values())

    def changed(key, value):
        raw = json.loads(json.dumps(base))
        section, name = key.split(".")
        raw[section][name] = value
        arrays = _setup_arrays(raw)
        assert arrays.keys() == ref.keys()
        return [k for k in ref if not np.array_equal(arrays[k], ref[k])]

    for key, value in SHARED_KEY_VALUES.items():
        assert changed(key, value) == [], key
    # the comparison sees a change of a key that the setup reads
    assert changed("nozzle.sigma", 2e-3)


@pytest.mark.parametrize("grid", [["129", "5"], ["129", "3"], ["65", "5"]], ids="x".join)
def test_grid_without_an_audit_core_exit_1(tmp_path, capsys, grid):
    # the residual audit leaves out 3 nodes on every side: solve and sweep
    # need 7 nodes each way and say so before they start
    argv = ["--config", DEMO_CONFIG, "--grid", *grid]
    assert main(["solve", *argv, "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver.nx") and "at least 7 nodes" in err
    out = tmp_path / "sw"
    assert main(["sweep", *argv, "--out", str(out), "--key", "perturbation.P_ex",
                 "--values", "[[-0.0561], [-0.058]]"]) == 1
    with open(out / "sweep.csv", newline="") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["1", "1"]
    # initial and background run no residual audit
    assert main(["background", *argv, "--out", str(tmp_path / "b")]) == 0
    if grid == ["65", "5"]:
        assert main(["initial", *argv, "--out", str(tmp_path / "i")]) == 0


def demo_config(path, sigma):
    """Write the demo configuration with ``nozzle.sigma`` = ``sigma`` to ``path``."""
    raw = parse_config(DEMO_CONFIG).raw
    raw["nozzle"]["sigma"] = sigma
    with open(path, "w") as fh:
        json.dump(raw, fh)


def strict_json(path):
    """``path`` parsed as RFC 8259 JSON: a NaN or Infinity constant raises."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_sigma_above_the_old_ceiling_is_audited(tmp_path, capsys):
    # sigma = 0.1 converges; its residual misses tol_res, which the audit reports
    p = tmp_path / "c.json"
    demo_config(p, 0.1)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(p), "--out", str(out), "--grid", "65", "33"]) == 4
    assert capsys.readouterr().out.rstrip().endswith("RESIDUALS ABOVE tol_res")
    report = strict_json(out / "report.json")
    assert 1e-6 < report["pde_residual"] < 1e-3


def test_demo_in_other_units_solves(tmp_path, capsys):
    # every profile times k and sigma over k is the same flow: no guard may
    # measure the data's units, and the front agrees to the root tolerance of
    # solve_psi_sharp (its psi_sharp floor is 8.7e-9; 8.4e-10 is seen here)
    reports = []
    for k in (1.0, 1e3):
        raw = parse_config(DEMO_CONFIG).raw
        raw["nozzle"]["g"] = [k * c for c in raw["nozzle"]["g"]]
        raw["nozzle"]["sigma"] /= k
        for key, coef in raw["perturbation"].items():
            raw["perturbation"][key] = [k * c for c in coef]
        p = tmp_path / f"c{k:g}.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / f"o{k:g}"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
        reports.append(strict_json(out / "report.json"))
    one, k3 = reports
    assert abs(k3["psi_bar"] - one["psi_bar"]) <= 1e-12
    assert abs(k3["psi_sharp"] - one["psi_sharp"]) <= 1.8e-8
    assert k3["pde_residual"] == pytest.approx(one["pde_residual"], rel=1e-3)


def test_sigma_past_the_first_failure_is_a_typed_error(tmp_path, capsys):
    # at sigma = 20 the Newton march meets a state with no gas (exit 4)
    p = tmp_path / "c.json"
    demo_config(p, 20.0)
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too small for a gas state" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("column,row,says", [
    (None, None, None),
    ("psi", 10, "front.csv: its psi is not the front"),
    ("y2", 20, "front.csv: its y2 nodes are not those"),
], ids=["untouched", "psi", "y2"])
def test_verify_reads_every_cell_of_the_front(solved, tmp_path, capsys, column, row, says):
    p, _ = solved
    out = copy_solved(solved, tmp_path)
    if column is None:
        assert main(["verify", "--config", str(p), "--out", str(out)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("OK")
        return
    set_cell(out / "front.csv", row, column, lambda c: "%.17g" % (float(c) + 1e-3))
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: " + says)


def test_dump_fields_writes_the_hatted_profiles(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p, **{"output.dump_fields": True})
    out = tmp_path / "o"
    assert main(["solve", "--config", str(p), "--out", str(out), "--grid", "33", "17"]) == 0
    with open(out / "hatted_profiles.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y2", "x2", "u_m", "u_p", "P_m", "P_p"] and len(rows) == 18
    # the configuration owns the outputs: there is no flag for this file
    assert main(["solve", "--config", str(p), "--out", str(out), "--dump-elliptic"]) == 1
    assert capsys.readouterr().err.startswith("usage: rotshock")


@settings(derandomize=True, deadline=None, max_examples=12)
@given(sigma=st.floats(-4.0, 2.0).map(lambda e: 10.0 ** e))
@example(sigma=0.0)
@example(sigma=-1.0)
def test_any_sigma_ends_in_a_documented_exit(sigma):
    # no ceiling: the flow's own guards and the residual audit decide
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "c.json")
        demo_config(p, sigma)
        out = os.path.join(tmp, "o")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(["solve", "--config", p, "--out", out, "--grid", "65", "33"])
        assert (rc == 1) if sigma < 0.0 else (rc in (0, 4))
        if os.path.exists(os.path.join(out, "report.json")):
            report = strict_json(os.path.join(out, "report.json"))
            assert all(math.isfinite(report[k]) for k in
                       ("pde_residual", "rh_residual", "exit_residual", "wall_residual"))
            assert rc == 0 or stdout.getvalue().rstrip().endswith("RESIDUALS ABOVE tol_res")
        else:
            assert rc != 0 and stderr.getvalue().startswith("error: ")
        assert "Traceback" not in stderr.getvalue()
