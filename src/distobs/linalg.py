"""Dense linear-algebra kernels: full-rank factorization, observability
decomposition, Lyapunov and Riccati solves and eigenvalue utilities.

The SVD, eigenvalue, Lyapunov and Riccati kernels make the LAPACK calls of
their scipy.linalg counterparts directly, through scipy.linalg.lapack, with
scipy's arguments and workspace sizes, so that every result is scipy's bit
for bit (and in scipy's memory layout) without the per-call cost of scipy's
wrappers on node-sized matrices.  Like scipy, each rejects a non-finite input
with ValueError.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lapack

DEFAULT_RANK_TOL = 1e-9


@dataclass(frozen=True)
class FullRankFactorization:
    """C = d_factor @ f_factor with full column / row rank factors."""

    d_factor: np.ndarray
    f_factor: np.ndarray
    rank: int


@dataclass(frozen=True)
class NodeDecomposition:
    """Orthogonal observability decomposition of (F, A) for one node.

    t_orth = [T_p | T_e | T_u] with p, v-p and n-v columns respectively.
    In these coordinates A takes the block form

        [a11  a12  0 ]
        [a21  a22  0 ]
        [a31  a32  a_u]

    and F t_orth = [e_mat 0 0] with e_mat invertible.  v_dim is the dimension
    of the observable subspace of (F, A).
    """

    t_orth: np.ndarray
    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    a31: np.ndarray
    a32: np.ndarray
    a_u: np.ndarray
    e_mat: np.ndarray
    v_dim: int
    p_dim: int

    @property
    def n_dim(self) -> int:
        return self.t_orth.shape[0]

    @property
    def t_p(self) -> np.ndarray:
        """First p columns of T (basis of im F^T)."""
        return self.t_orth[:, : self.p_dim]

    @property
    def t_s(self) -> np.ndarray:
        """Last n - p columns of T; the observer lives on their span."""
        return self.t_orth[:, self.p_dim :]

    @property
    def a_transformed(self) -> np.ndarray:
        """Assemble T^T A T from the stored blocks (structural zeros exact)."""
        n, v, p = self.n_dim, self.v_dim, self.p_dim
        out = np.zeros((n, n))
        out[:p, :p] = self.a11
        out[:p, p:v] = self.a12
        out[p:v, :p] = self.a21
        out[p:v, p:v] = self.a22
        out[v:, :p] = self.a31
        out[v:, p:v] = self.a32
        out[v:, v:] = self.a_u
        return out


def _finite(*arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays as float arrays; ValueError, as scipy raises it, on a
    non-finite entry."""
    out = [np.asarray(a, dtype=float) for a in arrays]
    if not all(np.isfinite(a).all() for a in out):
        raise ValueError("array must not contain infs or NaNs")
    return out


@functools.cache
def _workspace(query: str, *args, **kwargs) -> tuple[int, ...]:
    """Workspace sizes from a scipy.linalg.lapack `*_lwork` query, rounded as
    scipy rounds them; they depend on the shapes only, so they are cached."""
    *sizes, info = getattr(lapack, query)(*args, **kwargs)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    return tuple(int(size) for size in sizes)


def _svd(a: np.ndarray, full_matrices: bool, compute_uv: bool = True):
    """scipy.linalg.svd(a, full_matrices, compute_uv) of a nonempty a, as
    (u, s, vt) in scipy's Fortran memory layout: scipy's dgesdd call."""
    (a,) = _finite(a)
    uv, full = int(compute_uv), int(full_matrices)
    (lwork,) = _workspace("dgesdd_lwork", *a.shape, compute_uv=uv, full_matrices=full)
    u, s, vt, info = lapack.dgesdd(a, compute_uv=uv, full_matrices=full, lwork=lwork)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    return u, s, vt


def _rank(s: np.ndarray, tol: float) -> int:
    """Count of the descending singular values s above tol times the largest."""
    return int(np.count_nonzero(s > tol * s[0])) if s.size else 0


def numerical_rank(m: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above tol relative to the largest one."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0
    # scipy.linalg.svdvals(m): singular values only
    return _rank(_svd(m, True, compute_uv=False)[1], tol)


def observability_matrix(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Stacked matrix col(F, FA, ..., FA^(n-1))."""
    n = a.shape[0]
    blocks = [np.atleast_2d(f)]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ a)
    return np.vstack(blocks)


def _fix_column_signs(t: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Make the first nonzero entry of each column positive (reproducibility)."""
    t = t.copy()
    for j in range(t.shape[1]):
        col = t[:, j]
        nz = np.nonzero(np.abs(col) > tol)[0]
        if nz.size and col[nz[0]] < 0:
            t[:, j] = -col
    return t


def full_rank_factorize(
    c_i: np.ndarray, tol: float = DEFAULT_RANK_TOL
) -> FullRankFactorization:
    """Factor C = D F with D full column rank and F full row rank.

    When C already has full row rank the factorization is skipped and D = I,
    F = C.  A zero matrix is rejected: such a node has no effective output.
    """
    c_i = np.atleast_2d(np.asarray(c_i, dtype=float))
    m = c_i.shape[0]
    p = numerical_rank(c_i, tol)
    if p == 0:
        raise ValueError("node has no effective output (zero output matrix)")
    if p == m:
        return FullRankFactorization(d_factor=np.eye(m), f_factor=c_i.copy(), rank=p)
    u, s, vt = _svd(c_i, False)
    d = u[:, :p] * s[:p]
    f = vt[:p, :]
    # normalize signs through the shared inner dimension for reproducibility
    for k in range(p):
        nz = np.nonzero(np.abs(f[k]) > 1e-12)[0]
        if nz.size and f[k, nz[0]] < 0:
            f[k] = -f[k]
            d[:, k] = -d[:, k]
    return FullRankFactorization(d_factor=d, f_factor=f, rank=p)


def observability_decomposition(
    a: np.ndarray, f_i: np.ndarray, tol: float = DEFAULT_RANK_TOL
) -> NodeDecomposition:
    """Orthogonal staircase decomposition of (F, A) exposing im F^T first.

    Columns of T are built as [basis of im F^T | completion inside the
    observable subspace | basis of the unobservable subspace], each block
    orthonormal, signs fixed for determinism.
    """
    a = np.asarray(a, dtype=float)
    f_i = np.atleast_2d(np.asarray(f_i, dtype=float))
    n = a.shape[0]
    p = f_i.shape[0]
    if f_i.size == 0:
        raise ValueError("virtual output matrix is empty")
    # one thin SVD of F^T tests the full row rank, at tol and at the
    # eps * max(n, p) of scipy.linalg.orth, and gives the basis of im F^T
    u_f, s_f, _ = _svd(f_i.T, False)
    if _rank(s_f, max(tol, np.finfo(float).eps * max(n, p))) != p:
        raise ValueError("virtual output matrix is not full row rank")
    t_p = u_f[:, :p]

    obs = observability_matrix(f_i, a)
    _, s_o, vt_o = _svd(obs, True)
    v = _rank(s_o, tol)
    t_u = vt_o[v:, :].T  # orthonormal basis of ker O

    # completion inside the observable subspace: project row space of O off t_p
    t_obs_full = vt_o[:v, :].T
    proj = t_obs_full - t_p @ (t_p.T @ t_obs_full)
    if v > p:
        u_e, _, _ = _svd(proj, False)
        t_e = u_e[:, : v - p]
    else:
        t_e = np.zeros((n, 0))

    t = np.hstack([_fix_column_signs(t_p), _fix_column_signs(t_e),
                   _fix_column_signs(t_u)])

    a_norm = np.linalg.norm(a)
    at = t.T @ a @ t
    zero_tol = 1e-10 * max(1.0, a_norm)
    if v < n:
        leak = np.max(np.abs(at[:v, v:]))
        if leak > zero_tol:
            raise ValueError(
                f"observability decomposition failed: structural block leak {leak:.3e}"
            )
        at[:v, v:] = 0.0

    e_mat = f_i @ t[:, :p]
    return NodeDecomposition(
        t_orth=t,
        a11=at[:p, :p],
        a12=at[:p, p:v],
        a21=at[p:v, :p],
        a22=at[p:v, p:v],
        a31=at[v:, :p],
        a32=at[v:, p:v],
        a_u=at[v:, v:],
        e_mat=e_mat,
        v_dim=v,
        p_dim=p,
    )


def spectral_abscissa(m: np.ndarray) -> float:
    """Largest real part over the eigenvalues of m (-inf for empty m).

    The real parts are those of scipy.linalg.eigvals(m): its dgeev call,
    without eigenvectors.
    """
    (m,) = _finite(m)
    if m.size == 0:
        return -np.inf
    (lwork,) = _workspace("dgeev_lwork", m.shape[0], compute_vl=0, compute_vr=0)
    wr, _, _, _, info = lapack.dgeev(m, compute_vl=0, compute_vr=0, lwork=lwork)
    if info > 0:
        raise np.linalg.LinAlgError(
            "eig algorithm (geev) did not converge (only eigenvalues with order "
            f">= {info} have converged)")
    return float(np.max(wr))


def _strip_pairs(m: np.ndarray, rows: int = 64):
    """For each row strip [a, b) of the square m: m[a:b, a:], the matching
    columns m[a:, a:b] transposed, and a work array of their shape.  The work
    array is one buffer of `rows` rows, reused, so that it costs O(rows * k)."""
    k = m.shape[0]
    buf = np.empty((min(rows, k), k))
    for a in range(0, k, rows):
        b = min(a + rows, k)
        yield m[a:b, a:], m[a:, a:b].T, buf[: b - a, : k - a]


def _asymmetry(m: np.ndarray) -> float:
    """max |m - m^T|, one strip at a time (a NaN entry propagates)."""
    worst = [np.max(np.abs(np.subtract(row, col, out=w), out=w))
             for row, col, w in _strip_pairs(m)]
    return float(np.max(worst))


def _symmetrize_in_place(m: np.ndarray, scale: float) -> None:
    """m <- scale (m + m^T), one strip at a time: bit for bit the full-size
    formula, since each pair of entries is summed once."""
    for row, col, w in _strip_pairs(m):
        np.add(row, col, out=w)
        w *= scale
        row[...] = w
        col[...] = w


def _eigvalsh(m: np.ndarray, overwrite_a: bool = False, **subset) -> np.ndarray:
    """Ascending eigenvalues of the symmetric nonempty m from its lower
    triangle: scipy.linalg.eigvalsh's dsyevr call.  `subset` is dsyevr's
    range="I", il=, iu= (1-based) for scipy's subset_by_index."""
    (m,) = _finite(m)
    lwork, liwork = _workspace("dsyevr_lwork", m.shape[0], lower=1)
    w, _, count, _, info = lapack.dsyevr(m, compute_v=0, lower=1, lwork=lwork,
                                         liwork=liwork, overwrite_a=overwrite_a,
                                         **subset)
    if info != 0:
        raise np.linalg.LinAlgError("Internal Error.")
    return w[:count]


def _eigvalsh_in_place(m: np.ndarray, **subset) -> np.ndarray:
    """_eigvalsh of the exactly symmetric m, which LAPACK overwrites."""
    # m is exactly symmetric, so its transpose is the same matrix in Fortran
    # order, which LAPACK takes without a copy
    return _eigvalsh(m.T, overwrite_a=True, **subset)


def _min_symmetric_eigenvalue_in_place(m: np.ndarray, tol: float = 1e-10) -> float:
    """min_symmetric_eigenvalue of a nonempty m, which it overwrites."""
    asym = _asymmetry(m)
    if asym > tol * max(1.0, m.max(), -m.min()):
        raise ValueError(f"matrix is not symmetric (deviation {asym:.3e})")
    # an exactly symmetric m is already 0.5 (m + m^T), bit for bit
    if asym != 0:
        _symmetrize_in_place(m, 0.5)
    return float(_eigvalsh_in_place(m)[0])


def min_symmetric_eigenvalue(m: np.ndarray, tol: float = 1e-10) -> float:
    """Smallest eigenvalue of sym(m); rejects m further than tol from symmetric."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return np.inf
    return _min_symmetric_eigenvalue_in_place(m.copy(), tol)


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A^T P + P A + Q = 0 for Hurwitz A and symmetric Q; returns the
    symmetric part of the solution.

    The LAPACK calls of scipy.linalg.solve_continuous_lyapunov(A^T, -Q), in
    scipy's order, so that P is scipy's bit for bit: the real Schur form
    A^T = U S U^T (dgees), then S Y + Y S^T = U^T (-Q) U (dtrsyl) and
    P = U Y U^T.  Raises ValueError on an A that is not Hurwitz, judged by
    the eigenvalues that dgees returns with the Schur form.
    """
    a, q = _finite(a, q)
    if a.size == 0:
        return np.zeros((0, 0))
    s, _, wr, _, u, _, info = lapack.dgees(_no_selection, a.T,
                                           lwork=_gees_lwork(a.shape[0]))
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    if np.max(wr) >= 0:
        raise ValueError("unstable coefficient matrix")
    y, scale, info = lapack.dtrsyl(s, s, u.T.dot((-q).dot(u)), tranb="T")
    if info == 1:
        warnings.warn('Input "a" has an eigenvalue pair whose sum is very close '
                      "to or exactly zero. The solution is obtained via "
                      "perturbing the coefficients.", RuntimeWarning, stacklevel=2)
    y *= scale
    p = u.dot(y).dot(u.T)
    return 0.5 * (p + p.T)


@functools.cache
def _gees_lwork(n: int) -> int:
    """dgees' workspace for order n, from the query that scipy.linalg.schur makes."""
    return _lwork(lapack.dgees, _no_selection, np.zeros((n, n)))


def _lwork(routine, *args) -> int:
    """Optimal workspace size reported by a LAPACK workspace query."""
    return int(routine(*args, lwork=-1)[-2][0])


def _no_selection(*_):
    """gges callback for an unsorted QZ (never called with sort_t=0)."""


def solve_care(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stabilizing solution X of a^T X + X a - X b b^T X + I = 0.

    The LAPACK calls of scipy.linalg.solve_continuous_are(a, b, I, I), made
    in the same order on the same arrays, so that X is scipy's bit for bit:
    symplectic balancing of the extended pencil, QR deflation to order 2m,
    ordered QZ with the left-half-plane eigenvalues first, and an LU
    back-substitution.  Raises LinAlgError where scipy does: on an
    ill-conditioned U11 and on a pencil with eigenvalues too close to the
    imaginary axis.
    """
    a, b = _finite(a, b)
    m, n = b.shape
    eye = np.eye(m)

    # extended pencil [[a, 0, b], [-I, -a^T, 0], [0, b^T, I]] - s blkdiag(I, I, 0)
    h = np.zeros((2 * m + n, 2 * m + n))
    h[:m, :m] = a
    h[:m, 2 * m :] = b
    h[m : 2 * m, :m] = -eye
    h[m : 2 * m, m : 2 * m] = -a.T
    h[2 * m :, m : 2 * m] = b.T
    h[2 * m :, 2 * m :] = np.eye(n)

    # balance |H| + |J| with its diagonal zeroed (J is diagonal, so only |H|
    # is left), then make the scaling symplectic
    off = np.abs(h)
    np.fill_diagonal(off, 0.0)
    sca = lapack.dgebal(off, scale=1, permute=0, overwrite_a=1)[3]
    # gebal scales by powers of 2, so scipy's allclose(sca, 1) is sca == 1
    if np.any(sca != 1.0):
        sca = np.log2(sca)
        s = np.round((sca[m : 2 * m] - sca[:m]) / 2)
        sca = 2 ** np.concatenate((s, -s, sca[2 * m :]))
        h *= sca[:, None] * np.reciprocal(sca)

    # deflate to the 2m x 2m pencil (hd, jd) with the full Q of H[:, 2m:]
    cols = h[:, -n:]
    qr, tau = lapack.dgeqrf(cols, lwork=_lwork(lapack.dgeqrf, cols))[:2]
    q = np.empty((2 * m + n, 2 * m + n))
    q[:, :n] = qr
    q = lapack.dorgqr(q, tau, lwork=_lwork(lapack.dorgqr, q, tau), overwrite_a=1)[0]
    hd = q[:, n:].T.dot(h[:, : 2 * m])
    jd = q[: 2 * m, n:].T.dot(np.eye(2 * m))

    # real QZ, then move the left-half-plane eigenvalues first
    aa, bb, _, alphar, alphai, beta, qq, zz, _, info = lapack.dgges(
        _no_selection, hd, jd, lwork=_lwork(lapack.dgges, _no_selection, hd, jd),
        overwrite_a=1, overwrite_b=1, sort_t=0)
    if info > 2 * m:
        raise np.linalg.LinAlgError("Something other than QZ iteration failed")
    if info > 0:
        warnings.warn("The QZ iteration failed. (a,b) are not in Schur form, "
                      "but ALPHAR(j), ALPHAI(j), and BETA(j) should be correct "
                      f"for J={info - 1},...,N", LinAlgWarning,
                      stacklevel=2)
    alpha = alphar + alphai * 1.0j
    select = np.zeros(2 * m, dtype=bool)
    finite = beta != 0
    select[finite] = np.real(alpha[finite] / beta[finite]) < 0.0
    # dtgsen returns (a, b, alphar, alphai, beta, q, z, m, pl, pr, dif, info)
    reordered = lapack.dtgsen(select, aa, bb, qq, zz, ijob=0, lwork=8 * m + 16,
                              liwork=1)
    u, info = reordered[6], reordered[-1]
    if info == 1:
        raise ValueError("Reordering of (A, B) failed because the transformed"
                         " matrix pair (A, B) would be too far from "
                         "generalized Schur form; the problem is very "
                         "ill-conditioned. (A, B) may have been partially "
                         "reordered.")
    u00 = u[:m, :m]
    u10 = u[m:, :m]

    # X = U10 U00^-1 through the LU factors of U00 = P L U
    lu, piv = lapack.dgetrf(u00)[:2]
    uu = np.triu(lu)
    if 1 / np.linalg.cond(uu) < np.spacing(1.0):
        raise np.linalg.LinAlgError("Failed to find a finite solution.")
    ul = np.tril(lu, -1) + eye
    perm = np.arange(m)
    for i, p in enumerate(piv):
        perm[[i, p]] = perm[[p, i]]
    y = lapack.dtrtrs(uu.T, u10.T, lower=1)[0]
    z = lapack.dtrtrs(ul.T, y, unitdiag=1)[0]
    # the row interchanges as a product with P^T: signed zeros as scipy has them
    x = z.T.dot(eye[:, perm].T)
    x *= sca[:m, None] * sca[:m]

    # U00^T U10 is symmetric exactly when the stable subspace is Lagrangian
    u_sym = u00.T.dot(u10)
    threshold = max(np.spacing(1000.0), 0.1 * np.linalg.norm(u_sym, 1))
    if np.linalg.norm(u_sym - u_sym.T, 1) > threshold:
        raise np.linalg.LinAlgError("The associated Hamiltonian pencil has "
                                    "eigenvalues too close to the imaginary axis")
    return (x + x.T) / 2
