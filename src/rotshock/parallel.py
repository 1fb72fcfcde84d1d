"""Independent calls run at the same time, in processes started by ``os.fork``.

``run_forked(*calls)`` is the one place the package starts processes.  The
command line uses it twice: ``solve`` and ``initial`` write their two field
files at once (formatting a large field file is bound to one core), and
``sweep`` runs its points in up to one process per available CPU.

Every call but the last runs in a child forked for it; the parent runs the
last call itself, then reads each child's result, pickled back over a pipe,
and waits for every child, also when its own call raised.  A child leaves
by ``os._exit``: no buffer of the parent is flushed twice, no exit hook
runs, and the child never unwinds into the parent's copy of the stack.  A
child shares the parent's memory copy-on-write, so it needs no copy of the
inputs; a spawned process would first pay an interpreter start.

A child that raised ``OSError`` makes the parent raise ``OSError`` with the
child's text (the command line reports it as unwritable output); any other
exception in a child makes the parent raise ``RuntimeError`` naming the
child's exception type and message.  Without ``os.fork``, on one CPU, or
where a fork fails, the calls run in turn in the parent, with the same
results.
"""

import os
import pickle

__all__ = ["available_cpus", "run_forked"]


def available_cpus():
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_forked(*calls):
    """The results of ``calls``, in order, each call run in its own process.

    Every call but the last runs in a forked child, the last in the parent;
    the results and the files the calls write are the same as when the calls
    run in turn.
    """
    if not hasattr(os, "fork") or available_cpus() < 2:
        return [call() for call in calls]
    *forked, last = calls
    results = [None] * len(calls)
    children = {}
    try:
        for i, call in enumerate(forked):
            child = _fork(call)
            if child is None:
                results[i] = call()
            else:
                children[i] = child
        results[-1] = last()
    finally:
        failures = []
        for i, child in children.items():
            ok, value = _reap(child)
            if ok:
                results[i] = value
            else:
                failures.append(value)
    if failures:
        text = "; ".join(text for _, text in failures)
        if all(is_os for is_os, _ in failures):
            raise OSError(text)
        raise RuntimeError(f"forked call failed: {text}")
    return results


def _fork(call):
    """Start ``call`` in a child; (pid, read end of its result pipe), or None
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
            try:
                data, ok = pickle.dumps(call()), True
            except BaseException as exc:
                data = pickle.dumps((isinstance(exc, OSError), f"{type(exc).__name__}: {exc}"))
                ok = False
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            code = 0 if ok else 1
        finally:
            os._exit(code)  # never unwind into the caller's copy of the stack
    os.close(w)
    return pid, r


def _reap(child):
    """Read a child's pipe to its end, then wait for it; (True, result) or
    (False, (raised OSError, error text))."""
    pid, r = child
    try:
        with os.fdopen(r, "rb") as fh:
            data = fh.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return True, pickle.loads(data)
    try:
        return False, pickle.loads(data)
    except Exception:
        return False, (False, f"process {pid} ended with status {code}")
