"""Outside-in tracing of rotshock's public functions.

A target is a function defined in one rotshock module.  ``from .x import f``
binds a separate name in every importing module, so the tracer replaces
every rotshock module attribute that holds the target object, and restores
all of them on exit.  Spans live in memory; ``to_json`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

# (defining module, attribute, span name)
TARGETS = (
    ("rotshock.cli", "parse_config", "cli.parse_config"),
    ("rotshock.background", "build_background", "background.build_background"),
    ("rotshock.lagrangian", "hatted_background", "lagrangian.hatted_background"),
    ("rotshock.lagrangian", "inlet_maps", "lagrangian.inlet_maps"),
    ("rotshock.lagrangian", "Field.write_csv", "lagrangian.Field.write_csv"),
    ("rotshock.supersonic", "solve_nonlinear", "supersonic.solve_nonlinear"),
    ("rotshock.supersonic", "solve_linear", "supersonic.solve_linear"),
    # the Picard sweep and row loop; private, but the only place a sweep shows
    ("rotshock.supersonic", "_march", "supersonic.march"),
    ("rotshock.shockfit", "coefficients", "shockfit.coefficients"),
    ("rotshock.shockfit", "find_shock_position", "shockfit.find_shock_position"),
    ("rotshock.shockfit", "initial_approximation", "shockfit.initial_approximation"),
    ("rotshock.elliptic", "solve", "elliptic.solve"),
    ("rotshock.elliptic", "solve_scalar", "elliptic.solve_scalar"),
    ("rotshock.elliptic", "compatibility_defect", "elliptic.compatibility_defect"),
    ("rotshock.iteration", "solve_transonic", "iteration.solve_transonic"),
    ("rotshock.iteration", "run", "iteration.run"),
    ("rotshock.iteration", "apply_T", "iteration.apply_T"),
    ("rotshock.iteration", "solve_psi_sharp", "iteration.solve_psi_sharp"),
    ("rotshock.iteration", "assemble_step_data", "iteration.assemble_step_data"),
    ("rotshock.iteration", "residuals", "iteration.residuals"),
)


def _rotshock_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "rotshock" or n.startswith("rotshock."))]


class Patches:
    """Replace every rotshock binding of a function; undo in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, modname, attr, make_wrapper):
        """Wrap ``modname.attr`` (``Class.method`` allowed); False if absent."""
        owner = sys.modules.get(modname)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        orig = getattr(owner, leaf, None) if owner is not None else None
        if orig is None:
            return False
        wrapper = make_wrapper(orig)
        if path:
            holders = [(owner, leaf)]
        else:
            holders = [(m, k) for m in _rotshock_modules()
                       for k, v in list(vars(m).items()) if v is orig]
        for holder, key in holders:
            setattr(holder, key, wrapper)
            self._undo.append((holder, key, orig))
        return True

    def restore(self):
        while self._undo:
            holder, key, orig = self._undo.pop()
            setattr(holder, key, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def record_results(patches, sink):
    """Append a fingerprint of every ``solve_transonic`` result to ``sink``."""
    def make(orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            res = orig(*args, **kwargs)
            sink.append(fingerprint(res))
            return res
        return wrapper
    return patches.replace("rotshock.iteration", "solve_transonic", make)


def fingerprint(res):
    rep = res.report
    return {
        "psi_bar": float(res.psi_bar), "psi_sharp": float(res.psi_sharp),
        "passes": len(res.log), "picard_sweeps": int(res.sup.picard_iters),
        "pde_residual": float(rep.pde_residual), "rh_residual": float(rep.rh_residual),
        "exit_residual": float(rep.exit_residual),
        "wall_residual": float(rep.wall_residual),
    }


def _arg(sig, args, kwargs, name):
    return sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    """Spans ``{name, start, end, parent, op, ...}`` for every traced call."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._patches = Patches()

    def __enter__(self):
        for modname, attr, name in TARGETS:
            if not self._patches.replace(modname, attr,
                                         lambda orig, name=name: self._wrap(name, orig)):
                self.missing.append(f"{modname}.{attr}")
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def _wrap(self, name, orig):
        sig = inspect.signature(orig)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = {"name": name, "id": len(tracer.spans), "op": tracer.op,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            if name == "elliptic.solve":
                p = _arg(sig, args, kwargs, "p")
                span["unknowns"] = int(p.n1) * int(p.n2)
            elif name == "elliptic.solve_scalar":
                span["kind"] = str(_arg(sig, args, kwargs, "kind"))
            elif name == "supersonic.march":
                span["rows"] = int(_arg(sig, args, kwargs, "grid").n1) - 1
            elif name == "shockfit.find_shock_position":
                bound = sig.bind(*args, **kwargs)
                J1 = bound.arguments["J1"]
                span["J1_evals"] = 0

                def counted_J1(psi):
                    span["J1_evals"] += 1
                    return J1(psi)
                bound.arguments["J1"] = counted_J1
                args, kwargs = bound.args, bound.kwargs
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if name == "iteration.solve_transonic":
                span["fingerprint"] = fingerprint(result)
            return result
        return wrapper

    def to_json(self):
        return {"spans": self.spans, "missing": self.missing}


class SpanTree:
    """Queries over the spans of one op."""

    def __init__(self, spans, all_spans):
        self.spans = spans
        self._all = all_spans
        self._child_time = {}
        for s in spans:
            if s["parent"] is not None:
                self._child_time[s["parent"]] = (self._child_time.get(s["parent"], 0.0)
                                                 + s["end"] - s["start"])

    def ancestors(self, span):
        while span["parent"] is not None:
            span = self._all[span["parent"]]
            yield span

    def named(self, name, under=None):
        out = [s for s in self.spans if s["name"] == name]
        if under is not None:
            out = [s for s in out if any(a["name"] == under for a in self.ancestors(s))]
        return out

    def seconds(self, name):
        """Wall time in outermost ``name`` spans (recursion counted once)."""
        return sum(s["end"] - s["start"] for s in self.named(name)
                   if not any(a["name"] == name for a in self.ancestors(s)))

    def self_seconds(self, name):
        """Wall time in ``name`` spans minus the time of their child spans."""
        return sum(s["end"] - s["start"] - self._child_time.get(s["id"], 0.0)
                   for s in self.named(name))


def layer_metrics(tree, op_seconds, per, bytes_written):
    """Per-layer numbers for one traced op, divided by ``per`` solves."""
    t = tree
    ell_s = t.seconds("elliptic.solve")
    unknowns = sum(s["unknowns"] for s in t.named("elliptic.solve"))
    sup_s = t.seconds("supersonic.solve_nonlinear") + t.seconds("supersonic.solve_linear")
    rows = sum(s["rows"] for s in t.named("supersonic.march"))
    scalar = t.named("elliptic.solve_scalar")
    total = {
        "elliptic.solve.calls": len(t.named("elliptic.solve")),
        "elliptic.solve.s": ell_s,
        "elliptic.neumann.s": sum(s["end"] - s["start"] for s in scalar
                                  if s["kind"] == "neumann"),
        "elliptic.dirichlet.s": sum(s["end"] - s["start"] for s in scalar
                                    if s["kind"] == "dirichlet"),
        "elliptic.unknowns": unknowns,
        "elliptic.compatibility_defect.calls": len(t.named("elliptic.compatibility_defect")),
        "supersonic.solve_nonlinear.s": t.seconds("supersonic.solve_nonlinear"),
        "supersonic.solve_linear.s": t.seconds("supersonic.solve_linear"),
        "supersonic.picard_sweeps": len(t.named("supersonic.march",
                                                under="supersonic.solve_nonlinear")),
        "supersonic.rows_marched": rows,
        "iteration.apply_T.calls": len(t.named("iteration.apply_T")),
        "iteration.solve_psi_sharp.s": t.seconds("iteration.solve_psi_sharp"),
        "iteration.secant_evals": len(t.named("iteration.assemble_step_data",
                                              under="iteration.solve_psi_sharp")),
        "iteration.assemble_step_data.s": t.seconds("iteration.assemble_step_data"),
        "iteration.residuals.s": t.seconds("iteration.residuals"),
        "iteration.run.self_s": t.self_seconds("iteration.run"),
        "shockfit.initial_approximation.self_s": t.self_seconds("shockfit.initial_approximation"),
        "shockfit.find_shock_position.s": t.seconds("shockfit.find_shock_position"),
        "shockfit.J1_evals": sum(s["J1_evals"] for s in t.named("shockfit.find_shock_position")),
        "shockfit.coefficients.calls": len(t.named("shockfit.coefficients")),
        "background.build_background.s": t.seconds("background.build_background"),
        "background.build_background.calls": len(t.named("background.build_background")),
        "lagrangian.hatted_background.s": t.seconds("lagrangian.hatted_background"),
        "lagrangian.inlet_maps.calls": len(t.named("lagrangian.inlet_maps")),
        "lagrangian.Field.write_csv.s": t.seconds("lagrangian.Field.write_csv"),
        "cli.bytes_written": bytes_written,
        "cli.parse_config.s": t.seconds("cli.parse_config"),
    }
    out = {k: v / per for k, v in total.items()}
    out["elliptic.ns_per_unknown"] = 1e9 * ell_s / unknowns if unknowns else 0.0
    out["supersonic.us_per_row"] = 1e6 * sup_s / rows if rows else 0.0
    out["elliptic.share_of_op"] = ell_s / op_seconds
    return out


def self_check(tree, missing=()):
    """Traced counts against what the library reports; returns failures.

    A comparison whose traced function no longer exists (``missing``) is
    skipped rather than failed.
    """
    can_count = {
        "passes": "rotshock.iteration.apply_T" not in missing,
        "sweeps": not {"rotshock.supersonic._march",
                       "rotshock.supersonic.solve_nonlinear"} & set(missing),
    }
    problems = []
    runs = tree.named("iteration.solve_transonic")
    if not runs:
        problems.append("no solve_transonic span")
    for run in runs:
        fp = run.get("fingerprint")
        if fp is None:
            problems.append("solve_transonic span without a result (it raised)")
            continue
        inside = [s for s in tree.spans if any(a is run for a in tree.ancestors(s))]
        passes = sum(1 for s in inside if s["name"] == "iteration.apply_T")
        sweeps = sum(1 for s in inside if s["name"] == "supersonic.march"
                     and any(a["name"] == "supersonic.solve_nonlinear"
                             for a in tree.ancestors(s)))
        if can_count["passes"] and passes != fp["passes"]:
            problems.append(f"apply_T calls {passes} != len(result.log) {fp['passes']}")
        if can_count["sweeps"] and sweeps != fp["picard_sweeps"]:
            problems.append(f"Picard sweeps {sweeps} != sup.picard_iters {fp['picard_sweeps']}")
    for s in tree.named("elliptic.solve"):
        if not any(a["name"] in ("shockfit.initial_approximation", "iteration.apply_T")
                   for a in tree.ancestors(s)):
            problems.append("elliptic.solve outside initial_approximation and apply_T")
            break
    return problems


def median(values):
    return statistics.median(values) if values else 0.0
