import numpy as np
import pytest

import rotshock as rs
from rotshock.elliptic import (
    EllipticProblem,
    _fv_rhs,
    compatibility_defect,
    solve,
    solve_scalar,
)
from rotshock.fd import trap_w
from sparse_oracle import solvability_sum, solve_scalar_sparse


def unit_problem(n, H1=None, H2=None, h1=None, h2=None, h3=None, lam=None):
    z = np.zeros
    lam = lam if lam is not None else [np.ones(n)] * 4
    return EllipticProblem(
        0.0, 1.0, 1.0, n, n, *lam,
        H1 if H1 is not None else z((n, n)),
        H2 if H2 is not None else z((n, n)),
        h1 if h1 is not None else z(n),
        h2 if h2 is not None else z(n),
        h3 if h3 is not None else z(n),
    )


def manufactured(n1, n2, L1=0.5, L2=2.0, mbar=2.8):
    """Smooth two-potential manufactured solution, variable y2-coefficients.

    v is built from a Neumann-type potential (cos*cos) and a Dirichlet-type
    one (sin*sin); sources come from centered differencing of the analytic
    fluxes with a tiny step (error ~1e-11, far below the solver error).
    """
    kx = np.pi / (L2 - L1)
    ky = 2 * np.pi / mbar

    def lams(Y2v):
        return (1.0 + 0.2 * np.sin(Y2v), 2.0 + 0.3 * np.cos(Y2v),
                1.5 + 0.1 * np.sin(2 * Y2v), 1.0 + 0.15 * np.cos(Y2v))

    def vfields(Y1v, Y2v):
        l1, l2, l3, l4 = lams(Y2v)
        d1_phat = -kx * np.sin(kx * (Y1v - L1)) * np.cos(ky * Y2v)
        d2_phat = -ky * np.cos(kx * (Y1v - L1)) * np.sin(ky * Y2v)
        d1_pchk = kx * np.cos(kx * (Y1v - L1)) * np.sin(np.pi * Y2v / mbar)
        d2_pchk = (np.pi / mbar) * np.sin(kx * (Y1v - L1)) * np.cos(np.pi * Y2v / mbar)
        v1f = d1_phat / l4 - d2_pchk / l1
        v2f = d2_phat / l3 + d1_pchk / l2
        return v1f, v2f

    def fluxes(Y1v, Y2v):
        l1, l2, l3, l4 = lams(Y2v)
        v1f, v2f = vfields(Y1v, Y2v)
        return l1 * v1f, l2 * v2f, l3 * v2f, l4 * v1f

    y1 = np.linspace(L1, L2, n1)
    y2 = np.linspace(0.0, mbar, n2)
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    lam1, lam2, lam3, lam4 = lams(y2)
    v1, v2 = vfields(Y1, Y2)

    eps = 1e-5
    H1 = ((fluxes(Y1 + eps, Y2)[0] - fluxes(Y1 - eps, Y2)[0])
          + (fluxes(Y1, Y2 + eps)[1] - fluxes(Y1, Y2 - eps)[1])) / (2 * eps)
    H2 = ((fluxes(Y1 + eps, Y2)[2] - fluxes(Y1 - eps, Y2)[2])
          - (fluxes(Y1, Y2 + eps)[3] - fluxes(Y1, Y2 - eps)[3])) / (2 * eps)

    assert np.abs(v2[:, 0]).max() <= 1e-13  # bottom condition holds exactly
    prob = EllipticProblem(L1, L2, mbar, n1, n2, lam1, lam2, lam3, lam4,
                           H1, H2, v1[0, :], v1[-1, :], v2[:, -1])
    return prob, v1, v2


def test_defect_trivial():
    assert compatibility_defect(unit_problem(17)) == 0.0


def test_defect_h3():
    n = 33
    p = unit_problem(n, h3=np.ones(n))
    assert compatibility_defect(p) == pytest.approx(1.0, rel=1e-14)


def test_defect_H1():
    n = 33
    p = unit_problem(n, H1=np.ones((n, n)))
    assert compatibility_defect(p) == pytest.approx(-1.0, rel=1e-14)


def test_solvability_sum_matches_defect():
    # the assembled Neumann right-hand side telescopes to the defect exactly
    rng = np.random.default_rng(3)
    n = 41
    y = np.linspace(0, 1, n)
    p = unit_problem(
        n,
        H1=np.outer(np.sin(2 * y) + 0.3, np.cos(3 * y)),
        h1=np.sin(5 * y), h2=np.cos(2 * y), h3=0.7 * np.sin(3 * y) + 0.2,
        lam=[1 + 0.5 * y, 2 - y**2 / 2, 1 + y, 3 - y],
    )
    d = compatibility_defect(p)
    assert abs(d) > 1e-3  # generic data, far from compatible
    assert abs(solvability_sum(p) - d) <= 1e-12 * max(1.0, abs(d))


def test_zero_data_zero_solution():
    sol = solve(unit_problem(33))
    assert np.abs(sol.v1).max() == 0.0
    assert np.abs(sol.v2).max() == 0.0


def test_incompatible_rejected_with_defect():
    n = 33
    p = unit_problem(n, h3=np.ones(n))
    with pytest.raises(rs.IncompatibleDataError) as exc:
        solve(p)
    assert exc.value.defect == pytest.approx(1.0, rel=1e-12)


def test_mean_zero_gauge():
    prob, _, _ = manufactured(49, 49)
    sol = solve(prob)
    assert abs(sol.phi_hat.mean()) <= 1e-12


def test_boundary_conditions_exact():
    prob, v1, v2 = manufactured(49, 41)
    sol = solve(prob)
    assert np.array_equal(sol.v1[0, :], prob.h1)
    assert np.array_equal(sol.v1[-1, :], prob.h2)
    assert np.all(sol.v2[:, 0] == 0.0)
    assert np.array_equal(sol.v2[:, -1], prob.h3)


def test_manufactured_convergence_ratio():
    errs = []
    for n in (65, 129):
        prob, v1, v2 = manufactured(n, n)
        sol = solve(prob)
        errs.append(max(np.abs(sol.v1 - v1).max(), np.abs(sol.v2 - v2).max()))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_linearity():
    p1, v1a, v2a = manufactured(33, 33)
    # second compatible problem: scale the first
    s1 = solve(p1)
    p2 = EllipticProblem(p1.L1, p1.L2, p1.m_bar, p1.n1, p1.n2,
                         p1.lam1, p1.lam2, p1.lam3, p1.lam4,
                         2.5 * p1.H1, 2.5 * p1.H2, 2.5 * p1.h1, 2.5 * p1.h2,
                         2.5 * p1.h3)
    s2 = solve(p2)
    assert np.abs(s2.v1 - 2.5 * s1.v1).max() <= 1e-11
    assert np.abs(s2.v2 - 2.5 * s1.v2).max() <= 1e-11


def poisson_f1_series(x, y, nmax=4001):
    """Delta phi = 1, phi = 0 on the unit square boundary (classical series)."""
    m = np.arange(1, nmax, 2)[:, None]
    a = m * np.pi * np.abs(y - 0.5)
    b = m * np.pi / 2
    r = np.exp(a - b) * (1 + np.exp(-2 * a)) / (1 + np.exp(-2 * b))
    s = 4.0 / (m * np.pi) ** 3 * np.sin(m * np.pi * x)
    # the sum over odd m of s_m(x) r_m(y) as one matrix product
    return (x[:, None] ** 2 - x[:, None]) / 2 + s.T @ r


def test_check_problem_fourier_oracle():
    n = 257
    p = unit_problem(n, H2=np.ones((n, n)))
    sol = solve(p)
    x = np.linspace(0, 1, n)
    exact = poisson_f1_series(x, x)
    assert np.abs(sol.phi_check - exact).max() <= 1e-6


def test_solve_scalar_zero_dirichlet():
    n = 33
    phi = solve_scalar("dirichlet", np.ones(n), np.ones(n), np.zeros((n, n)),
                       n1=n, n2=n, h1=1 / (n - 1), h2=1 / (n - 1))
    assert np.abs(phi).max() == 0.0


def test_solve_scalar_classic_mms():
    errs = []
    for n in (33, 65):
        x = np.linspace(0, 1, n)
        X, Y = np.meshgrid(x, x, indexing="ij")
        f = -2 * np.pi**2 * np.sin(np.pi * X) * np.sin(np.pi * Y)
        phi = solve_scalar("dirichlet", np.ones(n), np.ones(n), f,
                           n1=n, n2=n, h1=1 / (n - 1), h2=1 / (n - 1))
        errs.append(np.abs(phi - np.sin(np.pi * X) * np.sin(np.pi * Y)).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


ORACLE_GRIDS = [(3, 3), (3, 17), (17, 3), (33, 17), (65, 33), (129, 65)]


@pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
@pytest.mark.parametrize("n1,n2", ORACLE_GRIDS)
def test_fast_solver_matches_sparse_oracle(kind, n1, n2):
    # the transform solve reproduces sparse LU of the assembled discretisation
    rng = np.random.default_rng(n1 * 1000 + n2)
    h1, h2 = 1.5 / (n1 - 1), 2.8 / (n2 - 1)
    y2 = np.linspace(0.0, 2.8, n2)
    a = 1.0 + 0.3 * np.sin(y2) + 0.2 * rng.random(n2)
    b = 2.0 + 0.5 * np.cos(3 * y2) + 0.2 * rng.random(n2)
    rhs = rng.standard_normal((n1, n2))
    bdata = (rng.standard_normal(n2), rng.standard_normal(n2),
             rng.standard_normal(n1), rng.standard_normal(n1))
    # shift the source so that the Neumann data are discretely compatible
    F = _fv_rhs(rhs, *bdata, n1, n2, h1, h2)
    rhs = rhs + F.sum() / (trap_w(n1).sum() * h1 * trap_w(n2).sum() * h2)
    assert abs(_fv_rhs(rhs, *bdata, n1, n2, h1, h2).sum()) <= 1e-12 * np.abs(F).sum()
    fast = solve_scalar(kind, a, b, rhs, bdata, n1=n1, n2=n2, h1=h1, h2=h2)
    ref = solve_scalar_sparse(kind, a, b, rhs, bdata, n1=n1, n2=n2, h1=h1, h2=h2)
    assert np.abs(fast - ref).max() <= 1e-11 * np.abs(ref).max()


def test_former_iterative_range_converges():
    # 1025 x 513 = 525,825 unknowns, one direct transform solve
    errs = []
    for n1, n2 in ((513, 257), (1025, 513)):
        prob, v1, v2 = manufactured(n1, n2)
        sol = solve(prob)
        errs.append(max(np.abs(sol.v1 - v1).max(), np.abs(sol.v2 - v2).max()))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 9), (9, 2)])
def test_rejects_grid_below_three_nodes(n1, n2):
    z = np.zeros
    with pytest.raises(rs.InvalidStateError):
        EllipticProblem(0.0, 1.0, 1.0, n1, n2, *[np.ones(n2)] * 4,
                        z((n1, n2)), z((n1, n2)), z(n2), z(n2), z(n1))
    for kind in ("neumann", "dirichlet"):
        with pytest.raises(rs.InvalidStateError):
            solve_scalar(kind, np.ones(n2), np.ones(n2), z((n1, n2)),
                         (z(n2), z(n2), z(n1), z(n1)), n1=n1, n2=n2, h1=1.0, h2=1.0)


def test_rejects_nonpositive_coefficient():
    n = 17
    lam = [np.ones(n), np.ones(n), -np.ones(n), np.ones(n)]
    with pytest.raises(rs.InvalidStateError):
        unit_problem(n, lam=lam)
