"""Command line front end: JSON configuration, subcommands, CSV/JSON artifacts.

Subcommands
-----------
background   build the flat-nozzle shock profiles and report the jump residuals
initial      locate the approximate shock position and write the linear solution
solve        run the full nonlinear iteration
verify       audit the fields stored by `solve` with its residual suite
sweep        repeat `solve` while varying one configuration key over a list

Exit codes: 0 success, 1 usage or configuration error (also a position
bracket outside the duct, at sigma = 0 too, and stored files that
`verify` cannot read or that belong to another configuration) or
unwritable output, 2 degenerate background, 3 no admissible shock
position, or more than one (also `initial` at sigma = 0), 4
non-convergence (CFL and invalid gas states too) or, for
`solve` and `verify`, residuals above `solver.tol_res`; a sweep point that
misses `tol_res` keeps `status` 0.
All field files are CSV in the one format of `rotshock.csvio`, so identical
configurations produce byte-identical output.

Independent work runs in processes forked by `rotshock.parallel.run_forked`:
`solve` and `initial` write their two field files at once, and `sweep`
spreads its points over up to one process per available CPU, point i to
share i mod W, the parent running share 0.  Each point returns its
`sweep.csv` row and its error text; the parent prints the texts in point
order and writes `sweep.csv`, so the output is the same as from points run
in turn.  A sweep point is built from the merged configuration and the
directory of the original config file, and its `run_XXX/config.json` holds
table paths made absolute, so `solve --config run_XXX/config.json`
reproduces the point.

A sweep over a key that the upstream setup does not read (`_SHARED_SETUP_KEYS`:
`perturbation.P_ex`, `solver.tol_res` and `solver.psi_bracket`) builds the
background and the `setup_upstream` result (hatted profiles, inlet maps,
shock coefficients, linear march) once, before the fork; every point reuses
it.  If building it raises, every point builds its own setup and so raises
that error, as its own solve would.  The Newton march of the upstream
flow still runs at every point: perfbench's traced self-check counts its
marches inside each `solve_transonic` call.  Any other key builds the setup
at every point.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from .background import build_background, rh_residual, write_background_csv, UpstreamSpec
from .csvio import read_csv, write_csv
from .errors import ConfigError, DegenerateBackgroundError, NoAdmissibleShockError, RotshockError
from .iteration import (
    IterationContext,
    IterationState,
    TransonicOptions,
    check_audit_grid,
    residuals,
    setup_upstream,
    solve_transonic,
)
from .lagrangian import Field, Geometry, LagrangianGrid, hatted_background, inlet_maps
from .parallel import available_cpus, run_forked
from .profiles import is_number, profile_from_json
from .shockfit import ShockFront, coefficients, initial_approximation
from .supersonic import PerturbationConfig, SupersonicSolution, flux_identity, inflow_state
from .thermo import GasModel, GasState

SCHEMA_VERSION = 1

_DEFAULTS = {
    "schema": SCHEMA_VERSION,
    "gas": asdict(GasModel()),
    "nozzle": {"L": 2.0, "g": [0.0], "sigma": 0.0},
    "upstream": {"u_minus": [2.0], "M_top": 2.0, "P_top": 1.0},
    "perturbation": {"u1_en": [0.0], "u2_en": [0.0], "S_en": [0.0],
                     "B_en": [0.0], "P_ex": [0.0]},
    "solver": asdict(TransonicOptions()),
    "output": {"dir": "out", "dump_fields": False},
}

_PROFILE_KEYS = {
    ("nozzle", "g"), ("upstream", "u_minus"),
    ("perturbation", "u1_en"), ("perturbation", "u2_en"),
    ("perturbation", "S_en"), ("perturbation", "B_en"),
    ("perturbation", "P_ex"),
}

# Sweep keys that neither build_background nor setup_upstream reads: a sweep
# over one of them builds that setup once and every point reuses it.
_SHARED_SETUP_KEYS = {"perturbation.P_ex"} | {
    f"solver.{f.name}" for f in fields(TransonicOptions) if f.name not in ("nx", "ny")}


@dataclass
class RunConfig:
    """Validated configuration plus the constructed solver objects."""

    raw: dict
    gas: GasModel
    upstream: UpstreamSpec
    pert: PerturbationConfig
    options: TransonicOptions
    base_dir: str

    def to_dict(self):
        return copy.deepcopy(self.raw)


def _merge_validate(data):
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    unknown = set(data) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    if data.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"schema: expected {SCHEMA_VERSION}, got {data.get('schema')}")
    merged = copy.deepcopy(_DEFAULTS)
    for section, defaults in _DEFAULTS.items():
        if section == "schema":
            continue
        given = data.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{section}: expected an object")
        extra = set(given) - set(defaults)
        if extra:
            raise ConfigError(f"{section}: unknown key(s) {sorted(extra)}")
        merged[section].update(given)
    for section, key in (("gas", "gamma"), ("gas", "beta"), ("nozzle", "L"),
                         ("nozzle", "sigma"), ("upstream", "M_top"),
                         ("upstream", "P_top")):
        v = merged[section][key]
        if not is_number(v):
            raise ConfigError(f"{section}.{key}: expected a number, got {v!r}")
    gas = merged["gas"]
    if not gas["gamma"] > 1:
        raise ConfigError(f"gas.gamma: expected a number > 1, got {gas['gamma']!r}")
    if not gas["beta"] >= 0:
        raise ConfigError(f"gas.beta: expected a number >= 0, got {gas['beta']!r}")
    s = merged["solver"]
    for key in ("nx", "ny"):
        if not isinstance(s[key], int) or s[key] < 3:
            raise ConfigError(f"solver.{key}: expected an integer >= 3, got {s[key]!r}")
    if not is_number(s["tol_res"]) or s["tol_res"] <= 0:
        raise ConfigError("solver.tol_res: expected a positive number")
    if s["psi_bracket"] is not None:
        pb = s["psi_bracket"]
        if (not isinstance(pb, list) or len(pb) != 2
                or not all(is_number(v) for v in pb) or pb[0] >= pb[1]):
            raise ConfigError("solver.psi_bracket: expected [lo, hi] with lo < hi")
    out = merged["output"]
    if not isinstance(out["dir"], str):
        raise ConfigError("output.dir: expected a string")
    if not isinstance(out["dump_fields"], bool):
        raise ConfigError("output.dump_fields: expected a boolean")
    return merged


def parse_config(path) -> RunConfig:
    """Read, validate, and instantiate a run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return build_config(data, os.path.dirname(os.path.abspath(path)))


def build_config(data, base_dir) -> RunConfig:
    """Validate and instantiate a configuration dict; relative table paths
    are read from ``base_dir``."""
    merged = _merge_validate(data)

    # the interval each profile is read on, which a table must cover; P_ex is
    # read at the exit heights, up to 1 + sigma*g(L), and goes unchecked
    read_on = {"g": (0.0, float(merged["nozzle"]["L"])), "P_ex": None}
    profiles = {}
    for section, key in _PROFILE_KEYS:
        profiles[key] = profile_from_json(merged[section][key], f"{section}.{key}",
                                          base_dir, read_on.get(key, (0.0, 1.0)))
    gas = GasModel(gamma=float(merged["gas"]["gamma"]), beta=float(merged["gas"]["beta"]))
    upstream = UpstreamSpec(u_minus=profiles["u_minus"],
                            M_top=float(merged["upstream"]["M_top"]),
                            P_top=float(merged["upstream"]["P_top"]))
    pert = PerturbationConfig(
        sigma=float(merged["nozzle"]["sigma"]), u1_en=profiles["u1_en"], u2_en=profiles["u2_en"],
        S_en=profiles["S_en"], B_en=profiles["B_en"], P_ex=profiles["P_ex"],
        geometry=Geometry(L=float(merged["nozzle"]["L"]), g=profiles["g"]),
    )
    s = merged["solver"]
    options = TransonicOptions(
        **{**s, "psi_bracket": tuple(s["psi_bracket"]) if s["psi_bracket"] else None})
    return RunConfig(raw=merged, gas=gas, upstream=upstream, pert=pert, options=options,
                     base_dir=base_dir)


def _jsonable(v):
    """``v`` with numpy numbers as floats, arrays and tuples as lists and every
    non-finite float as None: JSON (RFC 8259) has no NaN or Infinity."""
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        v = float(v)
    if isinstance(v, float) and not is_number(v):
        return None
    return v


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def cmd_background(cfg: RunConfig, out):
    bg = build_background(cfg.upstream, cfg.gas)
    write_background_csv(bg, os.path.join(out, "background.csv"))
    jumps = rh_residual(
        GasState(bg.rho_m, bg.u_m, 0.0, bg.P_m),
        GasState(bg.rho_p, bg.u_p, 0.0, bg.P_p), cfg.gas,
    )
    report = {
        "m_bar": bg.m_bar,
        "rh_residual_mass": float(np.abs(jumps[0]).max()),
        "rh_residual_momentum": float(np.abs(jumps[1]).max()),
        "rh_residual_bernoulli": float(np.abs(jumps[2]).max()),
        "d_range": [float(bg.d.min()), float(bg.d.max())],
        "downstream_Msq_max": float((bg.u_p**2 * bg.rho_p / (cfg.gas.gamma * bg.P_p)).max()),
    }
    _write_json(os.path.join(out, "background_report.json"), report)
    print(f"background written to {out} (max RH residual "
          f"{max(report['rh_residual_mass'], report['rh_residual_momentum'], report['rh_residual_bernoulli']):.3e})")
    return 0


def cmd_initial(cfg: RunConfig, out):
    opts = cfg.options
    bg = build_background(cfg.upstream, cfg.gas)
    hat, _, coeffs, lin = setup_upstream(bg, cfg.pert, opts)
    init = initial_approximation(coeffs, lin, cfg.pert, hat, opts.psi_bracket)
    _write_json(os.path.join(out, "initial.json"), {
        **init.diagnostics,
        "flux_identity_violation": flux_identity(lin, hat, cfg.pert).max_violation})
    write_csv(os.path.join(out, "shock_slope.csv"),
              {"y2": coeffs.y2, "psi_prime": init.front.psi_prime})
    run_forked(partial(lin.write_csv, os.path.join(out, "linear_minus.csv")),
               partial(init.V_plus.write_csv, os.path.join(out, "linear_plus.csv")))
    print(f"initial approximation: psi_bar = {init.diagnostics['psi_bar']:.10f} "
          f"(defect {init.diagnostics['defect']:.3e}) -> {out}")
    return 0


def _solve(cfg: RunConfig, shared=None):
    """``solve_transonic`` on ``cfg``; ``shared`` is a sweep's ``_shared_setup``."""
    bg, setup = shared or (build_background(cfg.upstream, cfg.gas), None)
    return solve_transonic(bg, cfg.pert, cfg.options, setup=setup)


def _shared_setup(cfg: RunConfig):
    """``(bg, setup_upstream(...))`` of ``cfg``, or None if building it raises
    a ``RotshockError``: every point then builds its own setup and raises
    that error as its own solve would."""
    try:
        bg = build_background(cfg.upstream, cfg.gas)
        check_audit_grid(cfg.options)
        return bg, setup_upstream(bg, cfg.pert, cfg.options)
    except RotshockError:
        return None


def cmd_solve(cfg: RunConfig, out):
    res = _solve(cfg)
    x2m, x2p = res.eulerian_heights()
    ctx = res.ctx
    front = res.front
    plus = res.downstream_field()
    rep = res.report

    def plus_and_small_files():
        plus.write_csv(os.path.join(out, "fields_plus.csv"),
                       extra_columns={"x2": x2p, "y1_phys": front.Y1})
        write_csv(os.path.join(out, "front.csv"),
                  {"y2": front.grid.y2, "psi": front.psi, "psi_prime": front.psi_prime})
        write_csv(os.path.join(out, "iteration_log.csv"),
                  {k: [row[k] for row in res.log] for k in res.log[0]})
        _write_json(os.path.join(out, "report.json"), {
            "psi_bar": res.psi_bar, "psi_sharp": res.psi_sharp,
            "iterations": len(res.log), "C1_measured": res.C1_measured,
            "kappa_final": res.kappa_final, **asdict(rep),
        })
        if cfg.raw["output"]["dump_fields"]:
            write_csv(os.path.join(out, "hatted_profiles.csv"), {
                "y2": ctx.hat.y2, "x2": ctx.hat.x2,
                "u_m": ctx.hat["m", "u"], "u_p": ctx.hat["p", "u"],
                "P_m": ctx.hat["m", "P"], "P_p": ctx.hat["p", "P"],
            })

    run_forked(partial(res.sup.V.write_csv, os.path.join(out, "fields_minus.csv"),
                       extra_columns={"x2": x2m}),
               plus_and_small_files)
    ok = rep.pde_residual <= cfg.options.tol_res and rep.rh_residual <= cfg.options.tol_res
    print(f"solve: psi_bar={res.psi_bar:.10f} psi_sharp={res.psi_sharp:.10f} "
          f"iters={len(res.log)} pde={rep.pde_residual:.3e} rh={rep.rh_residual:.3e} "
          f"{'OK' if ok else 'RESIDUALS ABOVE tol_res'}")
    return 0 if ok else 4


_STORED = {"fields_plus.csv": ("y1", "y2", "u1", "u2", "S", "B"),
           "front.csv": ("y2", "psi", "psi_prime"),
           "iteration_log.csv": ("defect",),
           "fields_minus.csv": ("y1", "y2", "u1", "u2", "S", "B")}


def _stored_field(name, data, grid):
    """``Field`` on ``grid`` of the columns ``data`` read from ``name``, S and
    B as their y2-rows; ``ConfigError`` unless the file's y1/y2 nodes are
    those of ``grid`` and S and B repeat one y2-row on every y1 node."""
    shape = (grid.n1, grid.n2)
    if (data["y1"].size != grid.n1 * grid.n2
            or np.any(data["y1"] != np.repeat(grid.y1, grid.n2))
            or np.any(data["y2"] != np.tile(grid.y2, grid.n1))):
        raise ConfigError(
            f"{name}: its y1/y2 nodes are not those of the {grid.n1}x{grid.n2} grid on "
            f"[{grid.y1a:g}, {grid.y1b:g}] x [0, {grid.m_bar:g}] of this configuration")
    components = {k: data[k].reshape(shape) for k in ("u1", "u2")}
    for k in ("S", "B"):
        row = data[k][:grid.n2]
        if np.any(data[k].reshape(shape) != row):
            raise ConfigError(f"{name}: the stored {k} is not one y2-row carried along y1")
        components[k] = row
    return Field(grid, components)


def cmd_verify(cfg: RunConfig, out):
    """Audit the fields stored by `solve` with the residual suite of `solve`.

    The upstream flow is ``fields_minus.csv`` as stored; nothing is marched
    again.  The grid sizes come from the stored files.  Their y1/y2 nodes
    must be those of this configuration's grids, S and B in each field file
    one y2-row repeated (``_stored_field``), the stored inflow (u1, u2 on
    the first row, the S and B rows) the one the Newton march imposes
    (``supersonic.inflow_state``), the downstream B row the upstream one
    carried across the front, and the stored front psi the ``ShockFront``
    of its psi_prime and its last psi; otherwise ``ConfigError``.
    """
    missing = [name for name in _STORED if not os.path.isfile(os.path.join(out, name))]
    if missing:
        raise ConfigError(f"verify needs the output of `solve` in {out}; "
                          f"missing {', '.join(missing)}")
    stored = {}
    for name, columns in _STORED.items():
        stored[name] = read_csv(os.path.join(out, name))
        lacking = [c for c in columns if c not in stored[name]]
        if lacking:
            raise ConfigError(f"{name}: no column {', '.join(lacking)}")
    plus, front_csv, log, minus = stored.values()

    n2 = front_csv["y2"].size
    opts = replace(cfg.options, nx=minus["y1"].size // n2, ny=n2)
    check_audit_grid(opts)
    bg = build_background(cfg.upstream, cfg.gas)
    hat = hatted_background(bg, n2)
    m, entry = inflow_state(hat, cfg.pert, inlet_maps(bg, cfg.pert))
    L = cfg.pert.geometry.L
    V_minus = _stored_field("fields_minus.csv", minus,
                            LagrangianGrid(opts.nx, n2, 0.0, L, m, hat.m_bar))
    marched = {**V_minus.data, "u1": V_minus["u1"][0], "u2": V_minus["u2"][0]}
    if any(np.any(marched[k] != v) for k, v in entry.items()):
        raise ConfigError("fields_minus.csv: the stored inflow is not the inflow of this "
                          "configuration (u1, u2 on the first row, the S and B rows)")
    psi_bar = plus["y1"][0]
    V_plus = _stored_field("fields_plus.csv", plus,
                           LagrangianGrid(plus["y1"].size // n2, n2, psi_bar, L, m, hat.m_bar))
    if np.any(front_csv["y2"] != V_plus.grid.y2):
        raise ConfigError("front.csv: its y2 nodes are not those of the downstream grid")
    front = ShockFront(V_plus.grid, float(front_csv["psi"][-1] - psi_bar),
                       front_csv["psi_prime"])
    if np.any(front_csv["psi"] != front.psi):
        raise ConfigError("front.csv: its psi is not the front of its psi_prime and its "
                          "last psi")
    state = IterationState(
        u1=V_plus["u1"] - hat["p", "u"][None, :],
        u2=V_plus["u2"],
        S=V_plus["S"] - hat["p", "S"],
        psi_prime=front.psi_prime,
        psi_sharp_dev=front.psi_sharp_dev,
    )
    ctx = IterationContext(hat=hat, coeffs=coefficients(hat), pert=cfg.pert,
                           grid_plus=V_plus.grid, initial_state=state,
                           sup=SupersonicSolution(V=V_minus, update_history=[]))
    if np.any(V_plus["B"] != ctx.B_row + hat["p", "B"]):
        raise ConfigError("fields_plus.csv: the stored B is not the upstream B that "
                          "crosses the front")
    rep = residuals(ctx, state, last_defect=log["defect"][-1])
    _write_json(os.path.join(out, "verify_report.json"),
                {k: v for k, v in asdict(rep).items() if k != "details"})
    ok = rep.pde_residual <= opts.tol_res and rep.rh_residual <= opts.tol_res
    print(f"verify: pde={rep.pde_residual:.3e} rh={rep.rh_residual:.3e} "
          f"exit={rep.exit_residual:.3e} wall={rep.wall_residual:.3e} "
          f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 4


def _set_by_path(d, path, value):
    *sections, last = path.split(".")
    cur = d
    for k in sections:
        if k not in cur:
            raise ConfigError(f"sweep key {path}: section {k!r} not found")
        if not isinstance(cur[k], dict):
            raise ConfigError(f"sweep key {path}: {k!r} holds a value, not a section")
        cur = cur[k]
    if last not in cur:
        raise ConfigError(f"sweep key {path}: key {last!r} not found")
    cur[last] = value


def _absolute_tables(raw, base_dir):
    """Make the relative table paths of ``raw`` absolute, from ``base_dir``."""
    for section, key in _PROFILE_KEYS:
        value = raw[section][key]
        if isinstance(value, dict) and isinstance(value.get("table"), str):
            raw[section][key] = {**value, "table": os.path.join(base_dir, value["table"])}


def cmd_sweep(cfg: RunConfig, out, key, values):
    raws = []
    for val in values:
        raw = cfg.to_dict()
        _set_by_path(raw, key, val)
        _absolute_tables(raw, cfg.base_dir)
        raws.append(raw)
    # built here, before the fork, so that every share inherits it
    shared = _shared_setup(cfg) if key in _SHARED_SETUP_KEYS else None

    def point(i):
        """(sweep.csv row, error text or None) of point ``i``."""
        subdir = os.path.join(out, f"run_{i:03d}")
        os.makedirs(subdir, exist_ok=True)
        with open(os.path.join(subdir, "config.json"), "w") as fh:
            json.dump(raws[i], fh, indent=2, sort_keys=True)
        row = {"index": i, "value": str(values[i])}
        try:
            res = _solve(build_config(raws[i], cfg.base_dir), shared)
        except RotshockError as exc:
            row.update(status=_exit_code(exc), psi_bar=np.nan, psi_sharp=np.nan,
                       pde_residual=np.nan, rh_residual=np.nan)
            return row, f"sweep {key}={values[i]}: {exc}"
        row.update(status=0, psi_bar=res.psi_bar, psi_sharp=res.psi_sharp,
                   pde_residual=res.report.pde_residual, rh_residual=res.report.rh_residual)
        return row, None

    n = len(values)
    workers = min(available_cpus(), n)

    def share(w):
        return [point(i) for i in range(w, n, workers)]

    order = [*range(1, workers), 0]  # share 0 runs in this process
    shares = run_forked(*(partial(share, w) for w in order))
    points = [None] * n
    for w, done in zip(order, shares):
        points[w::workers] = done
    for _, message in points:
        if message:
            print(message, file=sys.stderr)
    rows = [row for row, _ in points]
    write_csv(os.path.join(out, "sweep.csv"), {k: [r[k] for r in rows] for k in rows[0]})
    print(f"sweep over {key}: {len(rows)} runs -> {os.path.join(out, 'sweep.csv')}")
    return 0 if all(r["status"] == 0 for r in rows) else max(r["status"] for r in rows)


def _exit_code(exc):
    if isinstance(exc, ConfigError):
        return 1
    if isinstance(exc, DegenerateBackgroundError):
        return 2
    if isinstance(exc, NoAdmissibleShockError):
        return 3
    return 4


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors print the usage and raise ``ConfigError`` (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def main(argv=None):
    ap = _ArgumentParser(prog="rotshock",
                         description="Transonic shocks in rotating nozzle flow")
    ap.add_argument("command",
                    choices=["background", "initial", "solve", "verify", "sweep"])
    ap.add_argument("--config", required=True, help="JSON configuration file")
    ap.add_argument("--out", default=None, help="output directory (overrides config)")
    ap.add_argument("--grid", nargs=2, type=int, metavar=("NX", "NY"),
                    help="override solver.nx solver.ny")
    ap.add_argument("--key", help="config key path for sweep (e.g. nozzle.sigma)")
    ap.add_argument("--values", help="JSON list of values for sweep")
    try:
        args = ap.parse_args(argv)
        cfg = parse_config(args.config)
        if args.grid:
            cfg.raw["solver"]["nx"], cfg.raw["solver"]["ny"] = args.grid
            cfg = build_config(cfg.raw, cfg.base_dir)
        out = args.out or cfg.raw["output"]["dir"]
        try:
            return _run(args, cfg, out)
        except OSError as exc:
            raise ConfigError(f"cannot write output to {out}: {exc}") from exc
    except RotshockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def _run(args, cfg, out):
    os.makedirs(out, exist_ok=True)
    if args.command == "background":
        return cmd_background(cfg, out)
    if args.command == "initial":
        return cmd_initial(cfg, out)
    if args.command == "solve":
        return cmd_solve(cfg, out)
    if args.command == "verify":
        return cmd_verify(cfg, out)
    if not args.key or not args.values:
        raise ConfigError("sweep requires --key and --values")
    try:
        values = json.loads(args.values)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--values is not valid JSON: {exc}") from exc
    if not isinstance(values, list) or not values:
        raise ConfigError("--values must be a non-empty JSON list")
    return cmd_sweep(cfg, out, args.key, values)


if __name__ == "__main__":
    sys.exit(main())
