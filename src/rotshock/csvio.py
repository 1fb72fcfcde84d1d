"""The CSV artifact format: a header line of names, then one line per row.

Floats are written with %.17g, which round-trips every binary64 value; other
cells with %s, a text cell holding a comma, quote or newline quoted per RFC 4180.
A 2-D column is written in row-major order.

``write_concurrently`` runs independent artifact writes at the same time:
formatting a large field file is bound to one core, so the two field files
of ``solve`` and ``initial`` are written by two processes.  Each write but
the last runs in a child forked for it, which leaves by ``os._exit`` (no
buffer of the parent is flushed twice, no exit hook runs); the parent runs
the last write itself, then waits for every child.  A child only formats
and writes, so it needs no lock or BLAS thread of the parent; a spawned
process would first pay an interpreter start and a copy of the fields.
The files hold the same bytes as when written in turn, which is how the
writes run where the platform has no ``os.fork``.
"""

import os

import numpy as np

# Rows formatted per write: a whole 257x129 field file at once takes 13% more peak memory.
_BLOCK = 256


def _quote(s):
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\n\r') else s


def _formatted(values):
    return np.array(["%.17g" % v for v in values.tolist()], dtype=object)


def _column(values):
    """(cell format, flat cells) of one column, in row-major order.

    A 2-D float64 column whose rows all repeat its first row bit for bit
    (so -0.0 and 0.0 differ) is formatted once per row entry and tiled; one
    whose columns all repeat its first column is formatted once per column
    entry and repeated.  The cells are the same strings either way.
    """
    a = np.asarray(values)
    if a.dtype.kind != "f":
        return "%s", np.array([_quote(str(v)) for v in a.ravel().tolist()], dtype=object)
    if a.dtype == np.float64 and a.ndim == 2 and a.size:
        bits = a.view(np.uint64)
        if (bits == bits[:1]).all():
            return "%s", np.tile(_formatted(a[0]), a.shape[0])
        if (bits == bits[:, :1]).all():
            return "%s", np.repeat(_formatted(a[:, 0]), a.shape[1])
    return "%.17g", a.ravel()


def write_csv(path, columns):
    """Write ``columns``, an ordered mapping from name to values, to ``path``."""
    fmts, cols = zip(*(_column(v) for v in columns.values()))
    row = ",".join(fmts) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(0, cols[0].size, _BLOCK):
            fh.write("".join(row % r for r in zip(*(c[i:i + _BLOCK].tolist() for c in cols))))


def read_csv(path):
    """Read a numeric CSV artifact into a dict from column name to float array."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {n: data[:, i] for i, n in enumerate(names)}


def write_concurrently(*writes):
    """Run ``writes``, callables that each write their own files, at once.

    Every call but the last runs in a forked child; the parent runs the last
    one, then reaps each child, also when its own call raised.  A failed
    child makes the parent raise ``OSError`` with the child's error text.
    Without ``os.fork``, or when a fork fails, the calls run in turn.
    """
    if not hasattr(os, "fork"):
        for write in writes:
            write()
        return
    *forked, last = writes
    children = []
    try:
        for write in forked:
            child = _fork(write)
            if child is None:
                write()
            else:
                children.append(child)
        last()
    finally:
        failures = [err for err in map(_reap, children) if err]
    if failures:
        raise OSError("; ".join(failures))


def _fork(write):
    """Start ``write`` in a child; (pid, read end of its error pipe), or None
    if no process could be started."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            write()
            code = 0
        except BaseException as exc:
            os.write(w, f"{type(exc).__name__}: {exc}".encode(errors="replace"))
        finally:
            os._exit(code)  # never unwind into the caller's copy of the stack
    os.close(w)
    return pid, r


def _reap(child):
    """Wait for a child of ``_fork``; its error text, or None if it succeeded."""
    pid, r = child
    with os.fdopen(r, "rb") as fh:
        text = fh.read().decode(errors="replace")
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        return text or f"writer process {pid} ended with status {code}"
    return None
