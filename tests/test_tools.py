import ast
import builtins
import hashlib
import json
import os
import re
import subprocess
import symtable
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


def _tool(name, *args):
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", name), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_cli_digest_smoke(tmp_path):
    # the byte-identity gate: one sha256 line per CLI artifact, sorted by path
    kept = tmp_path / "kept"
    proc = _tool("cli_digest.py", "--grid", 129, 65, "--keep", kept)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    assert [line.split("  ", 1)[1] for line in lines] == DIGEST_PATHS
    # --keep leaves exactly the digested files, and they compare equal to themselves
    for line in lines:
        digest, rel = line.split("  ", 1)
        assert hashlib.sha256((kept / rel).read_bytes()).hexdigest() == digest
    proc = _tool("cli_compare.py", kept, kept)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and all(line.endswith("abs=0  rel=0")
                               for line in proc.stdout.splitlines())


def test_cli_digest_keep_refuses_nonempty_dir(tmp_path):
    (tmp_path / "old.csv").write_text("x\n1\n")
    proc = _tool("cli_digest.py", "--keep", tmp_path)
    assert proc.returncode == 2 and "not empty" in proc.stderr


def _tree(root, csv_text, report):
    (root / "sub").mkdir(parents=True)
    (root / "sub" / "f.csv").write_text(csv_text)
    (root / "report.json").write_text(json.dumps(report))


def test_cli_compare(tmp_path):
    csv_a = 'x,label,y\n1.0,"[1, 2]",-0\n2.5,b,nan\n'
    rep = {"psi": 0.5, "parts": [1.0, 2.0], "ok": True, "name": "run"}
    _tree(tmp_path / "a", csv_a, rep)
    _tree(tmp_path / "b", csv_a.replace("2.5", "2.5000001").replace("nan", "1"),
          {**rep, "parts": [1.0, 2.5]})
    proc = _tool("cli_compare.py", tmp_path / "a", tmp_path / "b")
    assert proc.returncode == 0, proc.stderr
    rows = dict(line.split("  ", 1) for line in proc.stdout.splitlines())
    assert rows == {
        os.path.join("sub", "f.csv") + ":x": "abs=1e-07  rel=4e-08",
        os.path.join("sub", "f.csv") + ":y": "abs=inf  rel=inf",
        "report.json:psi": "abs=0  rel=0",
        "report.json:parts[0]": "abs=0  rel=0",
        "report.json:parts[1]": "abs=0.5  rel=0.25",
    }
    # a differing text cell, a differing JSON string and a missing file each fail
    cases = [(csv_a.replace(",b,", ",c,"), rep), (csv_a, {**rep, "name": "x"})]
    for k, (csv_b, rep_b) in enumerate(cases):
        _tree(tmp_path / f"c{k}", csv_b, rep_b)
        proc = _tool("cli_compare.py", tmp_path / "a", tmp_path / f"c{k}")
        assert proc.returncode == 1 and "MISMATCH" in proc.stderr
    _tree(tmp_path / "d", csv_a, rep)
    (tmp_path / "d" / "report.json").unlink()
    proc = _tool("cli_compare.py", tmp_path / "a", tmp_path / "d")
    assert proc.returncode == 1 and "report.json: only in" in proc.stderr


def test_ladder_smoke(tmp_path):
    # one ladder row at 65x33: stage times, counts and the fingerprint of the demo solve
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "ladder.py"),
                           "--grids", "65x33", "--repeats", "1", "--side", "smoke",
                           "--out", str(out)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("smoke: import rotshock.cli ")
    assert proc.stdout.splitlines()[1].startswith("smoke 65x33: solve ")
    bench = json.loads(out.read_text())
    (row,) = bench["rows"]
    assert row["side"] == "smoke" and row["grid"] == "65x33" and row["repeats"] == 1
    assert set(bench["environment"]) == set(bench["import_s"]) == {"smoke"}
    assert 0.0 < bench["import_s"]["smoke"] < 60.0
    stages = row["stage_s"]
    assert 0.0 < stages["supersonic.solve_nonlinear"] < stages["iteration.solve_transonic"]
    assert row["counts"]["shockfit.coefficients.calls"] == 1
    assert row["counts"]["lagrangian.inlet_maps.calls"] == 2
    fp = row["fingerprint"]
    assert fp["passes"] == row["counts"]["iteration.apply_T.calls"]
    assert fp["picard_sweeps"] == row["counts"]["supersonic.picard_sweeps"]
    assert 0.35 < fp["psi_bar"] < fp["psi_sharp"] < 0.9


def test_ladder_environment_without_scipy():
    # the package needs no scipy, and neither does the ladder's record of the host
    code = ("import sys; sys.modules['scipy'] = None; "
            f"sys.path.insert(0, {os.path.join(ROOT, 'bench')!r}); import ladder; "
            "print(ladder.environment()['scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "None\n"


SCANNED_DIRS = ("src", "tests", "demos", "tools", "bench")
MODULE_NAMES = set(dir(builtins)) | {"__file__"}


def _sources():
    for top in SCANNED_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        yield os.path.relpath(path, ROOT), fh.read()


def _unbound_globals(rel, source):
    """Names that some scope of the module reads as globals and nothing binds."""
    top = symtable.symtable(source, rel, "exec")
    tables, bound, read = [top], set(MODULE_NAMES), []
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        for sym in table.get_symbols():
            name = sym.get_name()
            if table is top or sym.is_declared_global():
                if sym.is_assigned() or sym.is_imported() or sym.is_namespace():
                    bound.add(name)
            if sym.is_referenced() and (table is top or sym.is_global()):
                read.append((table.get_name(), name))
    return [f"{rel}: {scope} reads undefined global {name!r}"
            for scope, name in read if name not in bound]


def _unused_imports(rel, source):
    """Imports that no name or ``__all__`` entry of the module reads."""
    if os.path.basename(rel) == "__init__.py":  # its imports are re-exports
        return []
    tree = ast.parse(source, rel)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            used |= set(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{rel}:{node.lineno}: unused import {name!r}")
    return found


def test_static_name_scan():
    # every global a function reads is bound by its module or builtins, every
    # import is read, and the package imports no scipy (a test dependency only)
    problems = []
    for rel, source in _sources():
        problems += _unbound_globals(rel, source) + _unused_imports(rel, source)
        if rel.startswith("src" + os.sep):
            problems += _scipy_imports(rel, source)
    assert problems == []


def _scipy_imports(rel, source):
    """Imports of scipy or any of its modules, at any depth of the module."""
    found = []
    for node in ast.walk(ast.parse(source, rel)):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        found += [f"{rel}:{node.lineno}: imports {name}" for name in names
                  if name.split(".")[0] == "scipy"]
    return found
