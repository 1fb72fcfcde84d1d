"""Sparse-matrix reference for ``rotshock.elliptic.solve_scalar``.

Assembles the same discretisations the package solves by transforms: the
node-centred finite-volume Neumann operator (solved bordered with the
zero-sum constraint) and the 5-point Dirichlet operator on the interior
nodes, each solved by sparse LU.  Tests compare the fast solver against it.
``solvability_sum`` sums the assembled Neumann right-hand side, which
telescopes to the compatibility defect.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rotshock.elliptic import EllipticProblem, _fv_rhs
from rotshock.fd import trap_w


def face_conductances(a_node, b_node, n1, n2, h1, h2):
    """Horizontal/vertical face conductances for the FV Laplacian."""
    wj = trap_w(n2)
    wi = trap_w(n1)
    gh = np.broadcast_to(a_node * wj * h2 / h1, (n1 - 1, n2)).copy()
    bh = 0.5 * (b_node[1:] + b_node[:-1])
    gv = wi[:, None] * bh[None, :] * h1 / h2
    return gh, gv


def assemble_fv(a_node, b_node, n1, n2, h1, h2):
    gh, gv = face_conductances(a_node, b_node, n1, n2, h1, h2)
    idx = np.arange(n1 * n2).reshape(n1, n2)
    ph = idx[:-1, :].ravel(); qh = idx[1:, :].ravel(); vh = gh.ravel()
    pv = idx[:, :-1].ravel(); qv = idx[:, 1:].ravel(); vv = gv.ravel()
    rows = np.concatenate([ph, qh, ph, qh, pv, qv, pv, qv])
    cols = np.concatenate([ph, qh, qh, ph, pv, qv, qv, pv])
    vals = np.concatenate([vh, vh, -vh, -vh, vv, vv, -vv, -vv])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n1 * n2, n1 * n2))


def assemble_dirichlet(a, b, n1, n2, h1, h2):
    """5-point divergence-form operator on the (n1-2) x (n2-2) interior nodes."""
    bh = 0.5 * (b[1:] + b[:-1])
    ni, nj = n1 - 2, n2 - 2
    jj = np.arange(1, n2 - 1)
    cH = np.broadcast_to(a[jj] / h1**2, (ni, nj))
    cVp = np.broadcast_to(bh[jj] / h2**2, (ni, nj))
    cVm = np.broadcast_to(bh[jj - 1] / h2**2, (ni, nj))
    diag = 2.0 * cH + cVp + cVm
    idx = np.arange(ni * nj).reshape(ni, nj)
    rows = [idx.ravel()]
    cols = [idx.ravel()]
    vals = [diag.ravel()]
    rows += [idx[:-1, :].ravel(), idx[1:, :].ravel()]
    cols += [idx[1:, :].ravel(), idx[:-1, :].ravel()]
    vals += [-cH[:-1, :].ravel(), -cH[1:, :].ravel()]
    rows += [idx[:, :-1].ravel(), idx[:, 1:].ravel()]
    cols += [idx[:, 1:].ravel(), idx[:, :-1].ravel()]
    vals += [-cVp[:, :-1].ravel(), -cVm[:, 1:].ravel()]
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ni * nj, ni * nj),
    )


def solve_scalar_sparse(kind, a, b, rhs, bdata=None, n1=None, n2=None, h1=None, h2=None):
    """Same contract as ``solve_scalar``, by sparse LU of the assembled matrix."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    N = n1 * n2
    if kind == "neumann":
        K = assemble_fv(a, b, n1, n2, h1, h2)
        gL, gR, gB, gT = bdata
        F = _fv_rhs(rhs, gL, gR, gB, gT, n1, n2, h1, h2).ravel()
        e = np.ones((N, 1))
        Kb = sp.bmat([[K, e], [e.T, None]], format="csc")
        phi = spla.spsolve(Kb, np.concatenate([F, [0.0]]))[:N]
        phi = phi - phi.mean()
        return phi.reshape(n1, n2)
    if kind == "dirichlet":
        K = assemble_dirichlet(a, b, n1, n2, h1, h2)
        phi = np.zeros((n1, n2))
        phi[1:-1, 1:-1] = spla.spsolve(K.tocsc(), -rhs[1:-1, 1:-1].ravel()).reshape(
            n1 - 2, n2 - 2)
        return phi
    raise ValueError(f"unknown kind {kind!r}")


def solvability_sum(p: EllipticProblem) -> float:
    """Plain sum of the assembled Neumann right-hand side.

    By the finite-volume flux bookkeeping this telescopes exactly to the
    trapezoid compatibility defect of the data.
    """
    h1s, h2s = p.spacing
    F = _fv_rhs(p.H1, p.lam1 * p.h1, p.lam1 * p.h2, np.zeros(p.n1),
                p.lam2[-1] * p.h3, p.n1, p.n2, h1s, h2s)
    return float(F.sum())
