"""The numpy transforms, quadrature and spline equal scipy's bit for bit.

scipy is a test dependency only: these tests hold the package's own
versions to the routines they replace, with ``np.array_equal``.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgtsv

from rotshock.elliptic import _dct1, _dst1
from rotshock.fd import cumsimpson
from rotshock.profiles import Spline
from tests.conftest import DEMO_CONFIG

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("n1", [9, 89, 129, 177, 705, 1025])
def test_dct1_dst1_equal_scipy(n1):
    # 89, 177 and 705 are where dividing by 2(n-1) or 2(n+1) instead of
    # multiplying by its reciprocal moves an ulp; from 705 up the 33 rows
    # take several rfft blocks (elliptic.RFFT_BLOCK), the last one short
    rng = np.random.default_rng(n1)
    x = rng.standard_normal((33, n1))
    xt = rng.standard_normal((n1, 17)).T  # a transposed view, as the solver passes
    for a in (x, xt):
        assert np.array_equal(_dct1(a), scipy.fft.dct(a, type=1, axis=1))
        assert np.array_equal(_dct1(a, inverse=True), scipy.fft.idct(a, type=1, axis=1))
        assert np.array_equal(_dst1(a), scipy.fft.dst(a, type=1, axis=1))
        assert np.array_equal(_dst1(a, inverse=True), scipy.fft.idst(a, type=1, axis=1))


@pytest.mark.parametrize("n", [3, 4, 10, 11, 1024, 1025])
def test_cumsimpson_equals_scipy(n):
    # odd and even node counts, uniform and non-uniform nodes, 1-D and 2-D data
    rng = np.random.default_rng(n)
    for x in (np.linspace(0.0, 1.0, n), np.cumsum(rng.random(n) + 0.05)):
        for y in (rng.standard_normal(n), rng.standard_normal((3, n))):
            assert np.array_equal(cumsimpson(y, x),
                                  cumulative_simpson(y, x=x, initial=0.0))


def _interchanges(x):
    """Rows that LAPACK dgtsv interchanges on the not-a-knot system of the
    knots x, but the last: where its fill-in second superdiagonal is not
    zero (the last entry of that array is not part of it)."""
    dx = np.diff(x)
    d = np.array([dx[1], *(2 * (dx[:-1] + dx[1:])), dx[-2]])
    du = np.array([x[2] - x[0], *dx[:-1]])
    dl = np.array([*dx[1:], x[-1] - x[-3]])
    du2, *_, info = dgtsv(dl, d, du, np.ones(x.size))
    assert info == 0
    return np.flatnonzero(du2[:-1]).tolist()


# knots and the rows before the last that dgtsv interchanges on them
KNOTS = {
    "uniform-1025": (np.linspace(0.0, 1.0, 1025), []),
    "uniform-4": (np.linspace(0.0, 2.0, 4), []),
    "random-40": (np.cumsum(np.random.default_rng(40).random(40) + 0.01), [10, 13]),
    # long and short steps side by side
    "interchange": (np.array([0.0, 1.0, 1.001, 5.0, 5.002, 9.0, 30.0]), [1, 4]),
}


@pytest.mark.parametrize("name", KNOTS)
def test_spline_equals_cubic_spline(name):
    x, interchanged = KNOTS[name]
    assert _interchanges(x) == interchanged
    rng = np.random.default_rng(x.size)
    q = np.concatenate([x, 0.5 * (x[1:] + x[:-1]),                # knots, midpoints
                        [x[0] - 0.3, x[0] - 1e-3, x[-1] + 0.7]])  # outside the range
    for y in (np.cos(5.0 * x / x[-1]), rng.standard_normal(x.size)):
        ours, ref = Spline.not_a_knot(x, y), CubicSpline(x, y)
        assert np.array_equal(ours.c, ref.c)
        assert np.array_equal(ours(q), ref(q))
        assert np.array_equal(ours(0.37 * x[-1]), ref(0.37 * x[-1]))
        for k in (1, 2, 3):
            assert np.array_equal(ours.derivative(k)(q), ref.derivative(k)(q)), k


def test_spline_refuses_what_cubic_spline_refuses():
    # CubicSpline solves n = 3 as a parabola; no caller has fewer than 4 knots
    with pytest.raises(ValueError, match=">= 4 knots"):
        Spline.not_a_knot([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        Spline.not_a_knot([0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 0.0, 1.0])


def test_spline_is_one_column():
    # the spline serves the tables alone: one value per knot
    with pytest.raises(ValueError, match="one value per knot"):
        Spline.not_a_knot(np.arange(5.0), np.ones((5, 2)))


def test_solve_imports_no_scipy(tmp_path):
    # the package runs on numpy alone: a whole solve in a fresh interpreter
    # leaves no scipy module loaded (65x33 ends with residuals above the
    # demo's tol_res, exit 4, after writing every artifact)
    code = (
        "import sys\n"
        "from rotshock.cli import main\n"
        f"code = main(['solve', '--config', {DEMO_CONFIG!r}, '--out', {str(tmp_path)!r},"
        " '--grid', '65', '33'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "4 []"
    assert (tmp_path / "report.json").is_file()
