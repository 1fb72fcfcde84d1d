"""First-order linear elliptic system with variable coefficients on a rectangle.

The system

    d1(lam1(y2) v1) + d2(lam2(y2) v2) = H1
    d1(lam3(y2) v2) - d2(lam4(y2) v1) = H2

with v1 prescribed on the two vertical sides, v2 = 0 on the bottom and
v2 = h3 on the top, is solvable iff the data satisfy

    int lam1*(h2 - h1) dy2 + int lam2(m_bar)*h3 dy1 = int int H1.

The solve splits the unknown into two potentials: a "hat" part with
d2 phi_hat = lam3 v2, d1 phi_hat = lam4 v1 absorbing H1 and all boundary
data through a Neumann problem (gauge: zero grid mean), and a "check"
part with d2 phi_check = -lam1 v1, d1 phi_check = lam2 v2 absorbing H2
through a homogeneous Dirichlet problem.

Discretisation: node-centred finite volumes (half cells on the boundary)
for the Neumann problem and the classical 5-point stencil for the
Dirichlet one, both in divergence form, second order.  The finite-volume
flux bookkeeping makes the discrete solvability identity hold exactly:
summing the assembled equations telescopes to the trapezoid form of the
compatibility condition, so the defect gate and the assembly can never
disagree.  ``solve`` is that gate, the only one: data whose defect exceeds
its tolerance raise ``IncompatibleDataError`` before any potential is
solved, and there is no projection onto compatible data.

Linear solve: the coefficients depend on y2 only and the grid is uniform,
so both operators separate (the Fourier-analysis fast Poisson solver of
Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7 (1970) 627).  A DCT-I
(Neumann; the half-weighted end cells are its weights) or DST-I
(Dirichlet) along y1 diagonalises the y1 difference, leaving one
tridiagonal solve in y2 per mode: O(n1 n2 log n1) work and no matrix.
The Neumann solve reproduces the bordered system K phi + mu e = F,
e.phi = 0: the multiplier is mu = F.mean(), the singular constant mode is
pinned at one node, and the zero-grid-mean gauge is imposed at the end.
The transforms are ``np.fft.rfft`` of the even (DCT-I) or odd (DST-I)
extension, which is how pocketfft computes ``scipy.fft.dct``/``dst`` of
type 1 and their inverses: the results agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleDataError, InvalidStateError
from .fd import d1 as _d1, d2 as _d2, trap_w

__all__ = [
    "DEFECT_TOL",
    "EllipticProblem",
    "EllipticSolution",
    "compatibility_defect",
    "solve",
    "solve_scalar",
]

# solvability gate: the largest compatibility defect ``solve`` accepts
DEFECT_TOL = 1e-9


@dataclass
class EllipticProblem:
    """Rectangle [L1,L2] x [0,m_bar] with n1 x n2 nodes and nodal data.

    lam1..lam4 are positive coefficient arrays on the y2 nodes; H1, H2 are
    (n1, n2) source arrays; h1, h2 are v1-data on the left/right sides
    (arrays on y2), h3 is v2-data on the top (array on y1).  The bottom
    condition v2 = 0 is built in.
    """

    L1: float
    L2: float
    m_bar: float
    n1: int
    n2: int
    lam1: np.ndarray
    lam2: np.ndarray
    lam3: np.ndarray
    lam4: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray

    def __post_init__(self):
        if self.n1 < 3 or self.n2 < 3:
            raise InvalidStateError(
                f"grid needs at least 3 x 3 nodes (got {self.n1} x {self.n2})")
        for name in ("lam1", "lam2", "lam3", "lam4"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.n2,):
                raise InvalidStateError(f"{name} must have shape ({self.n2},)")
            if np.any(arr <= 0.0):
                raise InvalidStateError(f"{name} must be positive (min {arr.min():.3e})")
            setattr(self, name, arr)
        for name in ("H1", "H2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.n1, self.n2):
                raise InvalidStateError(f"{name} must have shape ({self.n1},{self.n2})")
            setattr(self, name, arr)
        self.h1 = np.asarray(self.h1, dtype=float)
        self.h2 = np.asarray(self.h2, dtype=float)
        self.h3 = np.asarray(self.h3, dtype=float)
        if self.h1.shape != (self.n2,) or self.h2.shape != (self.n2,):
            raise InvalidStateError("h1/h2 must be y2-profiles")
        if self.h3.shape != (self.n1,):
            raise InvalidStateError("h3 must be a y1-profile")

    @property
    def spacing(self):
        return (self.L2 - self.L1) / (self.n1 - 1), self.m_bar / (self.n2 - 1)


@dataclass
class EllipticSolution:
    v1: np.ndarray
    v2: np.ndarray
    defect: float                 # compatibility defect of the data
    residuals: tuple              # interior max |eq1|, |eq2|
    phi_hat: np.ndarray
    phi_check: np.ndarray


def compatibility_defect(p: EllipticProblem) -> float:
    """LHS minus RHS of the solvability condition, trapezoid quadrature.

    The weights are identical to the finite-volume assembly, so a zero
    defect here is exactly discrete solvability of the Neumann problem.
    """
    h1s, h2s = p.spacing
    wy2 = trap_w(p.n2) * h2s
    wy1 = trap_w(p.n1) * h1s
    lhs = np.sum(p.lam1 * (p.h2 - p.h1) * wy2) + p.lam2[-1] * np.sum(p.h3 * wy1)
    rhs = float(wy1 @ p.H1 @ wy2)
    return float(lhs - rhs)


def _fv_rhs(rhs, gL, gR, gB, gT, n1, n2, h1, h2):
    """Finite-volume right-hand side with boundary-flux data folded in."""
    wj = trap_w(n2) * h2
    wi = trap_w(n1) * h1
    F = -(rhs * wi[:, None] * wj[None, :])
    F[0, :] += -gL * wj
    F[-1, :] += gR * wj
    F[:, 0] += -gB * wi
    F[:, -1] += gT * wi
    return F


def _tridiag_solve(diag, off, rhs):
    """Solve every column of ``rhs`` against its own symmetric tridiagonal matrix.

    ``diag`` and ``rhs`` are (n, m): column k holds the diagonal and the data
    of mode k; ``off`` (n-1,) is the off-diagonal shared by all modes.  One
    Thomas sweep over the n rows, vectorised over the m modes.  No pivoting:
    every matrix passed in is diagonally dominant.
    """
    n = diag.shape[0]
    cp = np.empty_like(diag)
    x = np.empty_like(rhs)
    denom = diag[0]
    x[0] = rhs[0] / denom
    for j in range(1, n):
        cp[j - 1] = off[j - 1] / denom
        denom = diag[j] - off[j - 1] * cp[j - 1]
        x[j] = (rhs[j] - off[j - 1] * x[j - 1]) / denom
    for j in range(n - 2, -1, -1):
        x[j] -= cp[j] * x[j + 1]
    return x


# doubles per rfft call: the transforms run on blocks of rows whose
# extension and spectrum stay small enough for the allocator to reuse,
# where whole-array temporaries would each be freshly mapped memory
RFFT_BLOCK = 1 << 15


def _rfft_rows(x, length, extend, pick, scale):
    """``pick(rfft(ext)) * scale`` for each row of ``x``, ext its length-
    ``length`` extension that ``extend(rows, ext)`` writes; a block of rows
    per rfft call."""
    out = np.empty(x.shape)
    step = max(1, RFFT_BLOCK // length)
    ext = np.empty((min(step, x.shape[0]), length))
    for lo in range(0, x.shape[0], step):
        rows = x[lo:lo + step]
        block = ext[:rows.shape[0]]
        extend(rows, block)
        np.multiply(pick(np.fft.rfft(block, axis=-1)), scale, out=out[lo:lo + step])
    return out


def _dct1(x, inverse=False):
    """DCT-I of each row of ``x``: ``scipy.fft.dct(x, type=1, axis=1)``, or
    ``idct``, bit for bit.

    The real part of the rfft of the even extension x0..x(n-1), x(n-2)..x1
    (length 2(n-1)), times 1.0/(2(n-1)) for the inverse, as pocketfft
    scales it (dividing instead differs by an ulp at some n; times 1.0
    changes nothing).
    """
    n = x.shape[1]

    def extend(rows, ext):
        ext[:, :n] = rows
        ext[:, n:] = rows[:, -2:0:-1]

    return _rfft_rows(x, 2 * (n - 1), extend, lambda spec: spec.real,
                      1.0 / (2 * (n - 1)) if inverse else 1.0)


def _dst1(x, inverse=False):
    """DST-I of each row of ``x``: ``scipy.fft.dst(x, type=1, axis=1)``, or
    ``idst``, bit for bit.

    Minus the imaginary part of entries 1..n of the rfft of the odd
    extension 0, x0..x(n-1), 0, -x(n-1)..-x0 (length 2(n+1)), times
    1.0/(2(n+1)) for the inverse; the two zeros are x0*0, as in pocketfft.
    """
    n = x.shape[1]

    def extend(rows, ext):
        ext[:, 0] = ext[:, n + 1] = rows[:, 0] * 0
        ext[:, 1:n + 1] = rows
        ext[:, n + 2:] = -rows[:, ::-1]

    return _rfft_rows(x, 2 * (n + 1), extend, lambda spec: spec.imag[:, 1:n + 1],
                      -1.0 / (2 * (n + 1)) if inverse else -1.0)


def _y1_eigenvalues(n1, modes):
    """Eigenvalues 2 - 2cos(pi k/(n1-1)) of the unit second difference along y1."""
    return 2.0 - 2.0 * np.cos(np.pi * modes / (n1 - 1))


def solve_scalar(kind, a, b, rhs, bdata=None, n1=None, n2=None, h1=None, h2=None):
    """Divergence-form scalar solve d1(a(y2) d1 phi) + d2(b(y2) d2 phi) = rhs.

    kind = "neumann": bdata = (gL, gR, gB, gT) are the boundary values of the
    conormal flux (a*d1phi on vertical sides, b*d2phi on horizontal sides).
    The finite-volume system is K phi = F with

        K = D1 (x) diag(a wj h2/h1) + diag(wi) h1/h2 (x) T2(bh),

    D1 the unit Neumann second difference on the y1 nodes, wi/wj the
    trapezoid weights and T2(bh) the y2 second difference with face
    coefficients bh.  diag(wi)^-1 D1 is diagonalised by the DCT-I, so the
    solve is: subtract F.mean() (the Lagrange multiplier of the bordered
    system K phi + mu e = F, e.phi = 0), divide by wi, DCT-I along y1, one
    tridiagonal solve in y2 per mode, inverse DCT-I.  Mode 0 is singular
    (constants); it is integrated by two cumulative sums with its first node
    pinned to zero, and the zero-grid-mean gauge is restored at the end.
    The data must be discretely compatible (``solve`` gates on the defect).

    kind = "dirichlet": the 5-point stencil on the interior nodes with
    homogeneous Dirichlet data (bdata ignored): DST-I along y1, one
    tridiagonal solve in y2 per mode, inverse DST-I.

    Returns the (n1, n2) potential.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise InvalidStateError("scalar solver needs positive coefficients")
    if n1 < 3 or n2 < 3:
        raise InvalidStateError(f"scalar solver needs at least 3 x 3 nodes (got {n1} x {n2})")
    bh = 0.5 * (b[1:] + b[:-1])

    if kind == "neumann":
        gL, gR, gB, gT = bdata
        wi = trap_w(n1)
        F = _fv_rhs(rhs, gL, gR, gB, gT, n1, n2, h1, h2)
        G = _dct1(((F - F.mean()) / wi[:, None]).T, inverse=True)
        # mode 0: fluxes q_j = (h1/h2) bh_j (phi_{j+1} - phi_j) = -sum_{i<=j} G_i
        flux = -np.cumsum(G[:-1, 0])
        G[0, 0] = 0.0
        G[1:, 0] = np.cumsum(flux * h2 / (h1 * bh))
        # modes 1..n1-1: (lam_k a wj h2/h1 + h1/h2 T2(bh)) phi_k = G_k
        bsum = np.concatenate([bh, [0.0]]) + np.concatenate([[0.0], bh])
        diag = (np.outer(a * trap_w(n2) * h2 / h1, _y1_eigenvalues(n1, np.arange(1, n1)))
                + (h1 / h2) * bsum[:, None])
        G[:, 1:] = _tridiag_solve(diag, -(h1 / h2) * bh, G[:, 1:])
        phi = _dct1(G).T
        return phi - phi.mean()

    if kind == "dirichlet":
        phi = np.zeros((n1, n2))
        G = _dst1(-rhs[1:-1, 1:-1].T)
        diag = (np.outer(a[1:-1] / h1**2, _y1_eigenvalues(n1, np.arange(1, n1 - 1)))
                + ((bh[1:] + bh[:-1]) / h2**2)[:, None])
        phi[1:-1, 1:-1] = _dst1(_tridiag_solve(diag, -bh[1:-1] / h2**2, G),
                                inverse=True).T
        return phi

    raise ValueError(f"unknown kind {kind!r}")


def solve(p: EllipticProblem) -> EllipticSolution:
    """Solve the first-order system by the two-potential decomposition.

    This is the solvability gate: data whose compatibility defect exceeds
    ``DEFECT_TOL`` in magnitude raise ``IncompatibleDataError``, carrying the
    defect, before either potential is solved.
    """
    defect = compatibility_defect(p)
    if abs(defect) > DEFECT_TOL:
        raise IncompatibleDataError("elliptic data violate the solvability condition", defect)
    h1s, h2s = p.spacing

    # hat potential: Neumann, carries H1 and all boundary data
    phi_hat = solve_scalar(
        "neumann", p.lam1 / p.lam4, p.lam2 / p.lam3, p.H1,
        bdata=(p.lam1 * p.h1, p.lam1 * p.h2, np.zeros(p.n1), p.lam2[-1] * p.h3),
        n1=p.n1, n2=p.n2, h1=h1s, h2=h2s,
    )
    # check potential: homogeneous Dirichlet, carries H2
    phi_check = solve_scalar(
        "dirichlet", p.lam3 / p.lam2, p.lam4 / p.lam1, p.H2,
        n1=p.n1, n2=p.n2, h1=h1s, h2=h2s,
    )

    v1 = _d1(phi_hat, h1s) / p.lam4 - _d2(phi_check, h2s) / p.lam1
    v2 = _d2(phi_hat, h2s) / p.lam3 + _d1(phi_check, h1s) / p.lam2
    # boundary conditions hold exactly at the nodes
    v1[0, :] = p.h1
    v1[-1, :] = p.h2
    v2[:, 0] = 0.0
    v2[:, -1] = p.h3

    r1 = _d1(p.lam1 * v1, h1s) + _d2(p.lam2 * v2, h2s) - p.H1
    r2 = _d1(p.lam3 * v2, h1s) - _d2(p.lam4 * v1, h2s) - p.H2
    interior = (slice(1, -1), slice(1, -1))
    res = (float(np.abs(r1[interior]).max()), float(np.abs(r2[interior]).max()))

    return EllipticSolution(v1=v1, v2=v2, defect=defect, residuals=res,
                            phi_hat=phi_hat, phi_check=phi_check)
