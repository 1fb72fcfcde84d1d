"""Convergence study of the first-order elliptic solver.

A smooth two-potential solution is manufactured with variable coefficients;
errors of the recovered velocity pair halve the grid spacing and should drop
by a factor of four.  Also demonstrates the solvability gate: incompatible
boundary data are rejected carrying the computed defect.
"""

import numpy as np

import rotshock as rs
from rotshock.elliptic import EllipticProblem, compatibility_defect, solve

mbar, L1, L2 = 2.8, 0.5, 2.0
kx = np.pi / (L2 - L1)
ky = 2 * np.pi / mbar


def fields(n):
    y1 = np.linspace(L1, L2, n)
    y2 = np.linspace(0.0, mbar, n)
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    lam = (1.0 + 0.2 * np.sin(y2), 2.0 + 0.3 * np.cos(y2),
           1.5 + 0.1 * np.sin(2 * y2), 1.0 + 0.15 * np.cos(y2))

    def v_of(Y1v, Y2v):
        l1 = 1.0 + 0.2 * np.sin(Y2v)
        l2 = 2.0 + 0.3 * np.cos(Y2v)
        l3 = 1.5 + 0.1 * np.sin(2 * Y2v)
        l4 = 1.0 + 0.15 * np.cos(Y2v)
        v1 = (-kx * np.sin(kx * (Y1v - L1)) * np.cos(ky * Y2v)) / l4 \
            - ((np.pi / mbar) * np.sin(kx * (Y1v - L1)) * np.cos(np.pi * Y2v / mbar)) / l1
        v2 = (-ky * np.cos(kx * (Y1v - L1)) * np.sin(ky * Y2v)) / l3 \
            + (kx * np.cos(kx * (Y1v - L1)) * np.sin(np.pi * Y2v / mbar)) / l2
        return v1, v2

    def flux(Y1v, Y2v):
        l1, l2, l3, l4 = (1.0 + 0.2 * np.sin(Y2v), 2.0 + 0.3 * np.cos(Y2v),
                          1.5 + 0.1 * np.sin(2 * Y2v), 1.0 + 0.15 * np.cos(Y2v))
        v1, v2 = v_of(Y1v, Y2v)
        return l1 * v1, l2 * v2, l3 * v2, l4 * v1

    eps = 1e-5
    H1 = ((flux(Y1 + eps, Y2)[0] - flux(Y1 - eps, Y2)[0])
          + (flux(Y1, Y2 + eps)[1] - flux(Y1, Y2 - eps)[1])) / (2 * eps)
    H2 = ((flux(Y1 + eps, Y2)[2] - flux(Y1 - eps, Y2)[2])
          - (flux(Y1, Y2 + eps)[3] - flux(Y1, Y2 - eps)[3])) / (2 * eps)
    v1, v2 = v_of(Y1, Y2)
    prob = EllipticProblem(L1, L2, mbar, n, n, *lam, H1, H2,
                           v1[0, :], v1[-1, :], v2[:, -1])
    return prob, v1, v2


print("manufactured-solution convergence:")
prev = None
for n in (33, 65, 129):
    prob, v1, v2 = fields(n)
    sol = solve(prob)
    err = max(np.abs(sol.v1 - v1).max(), np.abs(sol.v2 - v2).max())
    note = "" if prev is None else f"   ratio {prev / err:.3f}"
    print(f"  n = {n:4d}: max error {err:.3e}{note}")
    prev = err

print("\nsolvability gate:")
n = 33
bad = EllipticProblem(0.0, 1.0, 1.0, n, n, *(np.ones(n),) * 4,
                      np.zeros((n, n)), np.zeros((n, n)),
                      np.zeros(n), np.zeros(n), np.ones(n))
print(f"  data defect = {compatibility_defect(bad):+.6f}")
try:
    solve(bad)
except rs.IncompatibleDataError as exc:
    print(f"  rejected as expected: {exc}")
