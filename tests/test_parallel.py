import os
from functools import partial

import pytest

from rotshock import csvio, parallel
from rotshock.csvio import write_csv
from rotshock.parallel import run_forked
from tests import csv_oracle
from tests.conftest import assert_no_child_left, set_cpus
from tests.test_csvio import columns, repeated_columns

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def two_cpus(monkeypatch):
    set_cpus(monkeypatch, 2)


def two_column_sets():
    """A flat set (nan, +-inf, -0.0, text) and a 2-D set whose rows or columns repeat."""
    return columns(csvio._BLOCK + 1), repeated_columns(csvio._BLOCK + 1, 3)


def test_available_cpus_follows_affinity(monkeypatch):
    assert parallel.available_cpus() >= 1
    set_cpus(monkeypatch, 3)
    assert parallel.available_cpus() == 3


@needs_fork
def test_run_forked_matches_serial_writes(tmp_path, two_cpus):
    sets = two_column_sets()
    assert run_forked(*(partial(write_csv, tmp_path / f"new{i}.csv", c)
                        for i, c in enumerate(sets))) == [None, None]
    assert_no_child_left()
    for i, cols in enumerate(sets):
        csv_oracle.write_csv(tmp_path / f"old{i}.csv", cols)
        assert (tmp_path / f"new{i}.csv").read_bytes() == (tmp_path / f"old{i}.csv").read_bytes()


def _pid_and(value):
    return os.getpid(), value


@needs_fork
def test_run_forked_returns_each_result_in_order(two_cpus):
    big = list(range(100_000))  # more than a pipe buffer holds
    results = run_forked(*(partial(_pid_and, v) for v in ("a", big, {"x": 1.5})))
    assert_no_child_left()
    assert [v for _, v in results] == ["a", big, {"x": 1.5}]
    pids = [pid for pid, _ in results]
    assert pids[-1] == os.getpid() and len(set(pids)) == 3


@needs_fork
def test_run_forked_raises_for_a_failed_child(tmp_path, two_cpus):
    flat, grid = two_column_sets()
    bad = tmp_path / "missing" / "child.csv"
    with pytest.raises(OSError, match="FileNotFoundError.*child.csv"):
        run_forked(partial(write_csv, bad, flat),
                   partial(write_csv, tmp_path / "parent.csv", grid))
    assert_no_child_left()
    csv_oracle.write_csv(tmp_path / "old.csv", grid)
    assert (tmp_path / "parent.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _raise(exc):
    raise exc


@needs_fork
def test_run_forked_child_bug_is_not_an_oserror(two_cpus):
    with pytest.raises(RuntimeError, match="ValueError: bad point 7") as info:
        run_forked(partial(_raise, ValueError("bad point 7")), lambda: 1)
    assert not isinstance(info.value, OSError)
    assert_no_child_left()
    # an OSError next to it does not hide the bug
    with pytest.raises(RuntimeError, match="ValueError: x.*PermissionError: y"):
        run_forked(partial(_raise, ValueError("x")), partial(_raise, PermissionError("y")),
                   lambda: 1)
    assert_no_child_left()


@needs_fork
def test_run_forked_reaps_the_child_when_the_parent_fails(tmp_path, two_cpus):
    flat, grid = two_column_sets()
    with pytest.raises(FileNotFoundError):
        run_forked(partial(write_csv, tmp_path / "child.csv", flat),
                   partial(write_csv, tmp_path / "missing" / "parent.csv", grid))
    assert_no_child_left()
    csv_oracle.write_csv(tmp_path / "old.csv", flat)
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _fork_fails():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def _fork_forbidden():
    raise AssertionError("forked on one CPU")


@pytest.mark.parametrize("fork", [None, _fork_fails, "one_cpu"],
                         ids=["no_fork", "fork_fails", "one_cpu"])
def test_run_forked_without_fork_runs_in_turn(tmp_path, monkeypatch, two_cpus, fork):
    sets = two_column_sets()
    run_forked(*(partial(write_csv, tmp_path / f"fork{i}.csv", c) for i, c in enumerate(sets)))
    if fork is None:
        monkeypatch.delattr(os, "fork", raising=False)
    elif fork == "one_cpu":
        set_cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", _fork_forbidden, raising=False)
    else:
        monkeypatch.setattr(os, "fork", fork)
    results = run_forked(*(partial(write_csv, tmp_path / f"serial{i}.csv", c)
                           for i, c in enumerate(sets)), partial(_pid_and, "last"))
    assert results == [None, None, (os.getpid(), "last")]
    for i in range(len(sets)):
        assert (tmp_path / f"serial{i}.csv").read_bytes() == (tmp_path / f"fork{i}.csv").read_bytes()
