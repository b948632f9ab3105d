"""Dense linear-algebra kernels: full-rank factorization, observability
decomposition, Lyapunov solves, the minimum-energy output injection and
eigenvalue utilities.

The SVD, eigenvalue and Lyapunov kernels make the LAPACK calls of their
scipy.linalg counterparts directly, through scipy.linalg.lapack, with scipy's
arguments and workspace sizes, so that every result is scipy's bit for bit
(and in scipy's memory layout) without the per-call cost of scipy's wrappers
on node-sized matrices.  Like scipy, each rejects a non-finite input with
ValueError.

The node-sized kernels (numerical_rank, observability_matrix,
full_rank_factorize, observability_decomposition, spectral_abscissa,
solve_lyapunov and min_energy_injection) take one node's matrices or a stack
of equally shaped ones, node first.  A stack is worked on as one array: every
product, sign fix, check and block fill is one numpy call over all its nodes,
and only the LAPACK calls (dgesdd, dgeev, dgees, dtrsyl), which have no
batched form, run node by node, as does the rest of min_energy_injection,
whose sizes differ from node to node.  One node's call is the stacked code on
a stack of one.  A stacked product rounds each node's slice as the same
product of that node's 2-D matrices does, as long as the slice keeps their
row- or column-major memory order, which _stack preserves; so every stacked
result is the node-by-node one bit for bit.  A node of a stack that fails
raises StackError, which names the node and carries the ValueError that the
node's own call raises.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

# relative tolerances of a numerical rank and of a symmetry check
RANK_TOL = 1e-9
SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class FullRankFactorization:
    """C = d_factor @ f_factor with full column / row rank factors."""

    d_factor: np.ndarray
    f_factor: np.ndarray
    rank: int


@dataclass(frozen=True)
class NodeDecomposition:
    """Orthogonal observability decomposition of (F, A) for one node.

    t_orth = [T_p | T_e | T_u] with p, v-p and n-v columns respectively, and
    a_transformed = T^T A T, with its structural zeros exact, in the block form

        [a11  a12  0 ]
        [a21  a22  0 ]
        [a31  a32  a_u]

    whose blocks are views of a_transformed.  F t_orth = [e_mat 0 0] with
    e_mat invertible.  v_dim is the dimension of the observable subspace of
    (F, A).
    """

    t_orth: np.ndarray
    a_transformed: np.ndarray
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

    a11 = property(lambda self: self.a_transformed[: self.p_dim, : self.p_dim])
    a12 = property(lambda self: self.a_transformed[: self.p_dim, self.p_dim : self.v_dim])
    a21 = property(lambda self: self.a_transformed[self.p_dim : self.v_dim, : self.p_dim])
    a22 = property(lambda self: self.a_transformed[self.p_dim : self.v_dim,
                                                   self.p_dim : self.v_dim])
    a31 = property(lambda self: self.a_transformed[self.v_dim :, : self.p_dim])
    a32 = property(lambda self: self.a_transformed[self.v_dim :, self.p_dim : self.v_dim])
    a_u = property(lambda self: self.a_transformed[self.v_dim :, self.v_dim :])


class StackError(Exception):
    """Node `index` of a stacked call failed; `error` is the ValueError that
    the call on that node alone raises."""

    def __init__(self, index: int, error: ValueError):
        super().__init__(index, error)
        self.index = index
        self.error = error


def _one(stacked_call):
    """The only node of stacked_call(), a call on a stack of one; that node's
    own ValueError when it fails."""
    try:
        return stacked_call()[0]
    except StackError as exc:
        raise exc.error from None


def _fail_first(bad, error, index=None) -> None:
    """StackError for the first node where the vector `bad` holds, with the
    exception error(position); `index` maps positions to stack nodes."""
    if np.any(bad):
        at = int(np.argmax(bad))
        raise StackError(at if index is None else int(index[at]), error(at))


def _each(fn, *stacks, index=None) -> list:
    """[fn(*slices)] over the nodes of the stacks, in order: the per-node
    loop of a LAPACK call.  A node's ValueError becomes its StackError;
    `index` maps positions to stack nodes."""
    out = []
    for at, args in enumerate(zip(*stacks)):
        try:
            out.append(fn(*args))
        except ValueError as exc:
            raise StackError(at if index is None else int(index[at]), exc) from exc
    return out


def _stack(arrays) -> np.ndarray:
    """The equally shaped 2-D arrays as one (G, r, c) stack whose slices have
    the strides of arrays[0], row- or column-major with its leading
    dimension: numpy and BLAS pick their product kernels, and so the
    rounding, by these strides."""
    first = arrays[0]
    (rows, cols), (row_step, col_step), item = first.shape, first.strides, first.itemsize
    if first.size and col_step == item and row_step % item == 0 and row_step >= cols * item:
        out = np.empty((len(arrays), rows, row_step // item))[:, :, :cols]
    elif first.size and row_step == item and col_step % item == 0 and col_step >= rows * item:
        out = np.empty((len(arrays), cols, col_step // item)).transpose(0, 2, 1)[:, :rows]
    else:
        out = np.empty((len(arrays), rows, cols))
    return np.stack(arrays, out=out)


def _node_groups(keys) -> list[list[int]]:
    """Positions of equal keys, one list per key, in order of first appearance."""
    out: dict = {}
    for at, key in enumerate(keys):
        out.setdefault(key, []).append(at)
    return list(out.values())


def _finite(*arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays as float arrays; ValueError, as scipy raises it, on a
    non-finite entry."""
    out = [np.asarray(a, dtype=float) for a in arrays]
    if not all(np.isfinite(a).all() for a in out):
        raise ValueError("array must not contain infs or NaNs")
    return out


def _finite_nodes(*stacks: np.ndarray) -> list[np.ndarray]:
    """_finite of stacks: a StackError, with scipy's ValueError, for the
    first node that has a non-finite entry in any of them."""
    out = [np.asarray(s, dtype=float) for s in stacks]
    bad = np.zeros(len(out[0]), dtype=bool)
    for s in out:
        bad |= ~np.isfinite(s).all(axis=tuple(range(1, s.ndim)))
    _fail_first(bad, lambda _: ValueError("array must not contain infs or NaNs"))
    return out


@functools.cache
def _workspace(query: str, *args, **kwargs) -> tuple[int, ...]:
    """Workspace sizes from a scipy.linalg.lapack `*_lwork` query, rounded as
    scipy rounds them; they depend on the shapes only, so they are cached."""
    *sizes, info = getattr(lapack, query)(*args, **kwargs)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    return tuple(int(size) for size in sizes)


def _gesdd(a: np.ndarray, full_matrices: bool, compute_uv: bool = True):
    """scipy.linalg.svd(a, full_matrices, compute_uv) of a finite nonempty a,
    as (u, s, vt) in scipy's Fortran memory layout: scipy's dgesdd call."""
    uv, full = int(compute_uv), int(full_matrices)
    (lwork,) = _workspace("dgesdd_lwork", *a.shape, compute_uv=uv, full_matrices=full)
    u, s, vt, info = lapack.dgesdd(a, compute_uv=uv, full_matrices=full, lwork=lwork)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    return u, s, vt


def _svd(a: np.ndarray, full_matrices: bool, compute_uv: bool = True):
    """scipy.linalg.svd(a, full_matrices, compute_uv) of a nonempty a."""
    (a,) = _finite(a)
    return _gesdd(a, full_matrices, compute_uv)


def _svd_nodes(stack: np.ndarray, full_matrices: bool, index=None):
    """_svd of each node of a finite stack: (u, s, vt) stacked, u and vt with
    scipy's Fortran-ordered slices."""
    u, s, vt = zip(*_each(lambda a: _gesdd(a, full_matrices), stack, index=index))
    return _stack(u), np.array(s), _stack(vt)


def _ranks(s: np.ndarray, tol: float) -> np.ndarray:
    """Count, per row of descending singular values s, of those above tol
    times the largest."""
    if s.shape[1] == 0:
        return np.zeros(len(s), dtype=int)
    return np.count_nonzero(s > tol * s[:, :1], axis=1)


def _node_ranks(stack: np.ndarray) -> np.ndarray:
    (stack,) = _finite_nodes(stack)
    if stack[0].size == 0:
        return np.zeros(len(stack), dtype=int)
    # scipy.linalg.svdvals of each node: singular values only
    s = _each(lambda a: _gesdd(a, True, compute_uv=False)[1], stack)
    return _ranks(np.array(s), RANK_TOL)


def numerical_rank(m: np.ndarray):
    """Count of singular values above RANK_TOL relative to the largest one;
    of each node, as an int array, for a stack."""
    m = np.asarray(m, dtype=float)
    if m.ndim == 3:
        return _node_ranks(m)
    return int(_one(lambda: _node_ranks(m[None])))


def observability_matrix(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Stacked matrix col(F, FA, ..., FA^(n-1)), of each node for stacks."""
    f, a = np.asarray(f, dtype=float), np.asarray(a, dtype=float)
    blocks = [f if f.ndim == 3 else np.atleast_2d(f)]
    for _ in range(a.shape[-1] - 1):
        blocks.append(blocks[-1] @ a)
    return np.concatenate(blocks, axis=-2)


def _leading_negative(x: np.ndarray, axis: int) -> np.ndarray:
    """Whether the first entry above 1e-12 in magnitude along `axis` is
    negative (False where there is none), with `axis` kept."""
    big = np.abs(x) > 1e-12
    first = np.expand_dims(big.argmax(axis=axis), axis)
    return (np.take_along_axis(x, first, axis=axis) < 0) & big.any(axis=axis, keepdims=True)


def _fix_column_signs(t: np.ndarray) -> np.ndarray:
    """Make the first nonzero entry of each column positive (reproducibility)."""
    return np.where(_leading_negative(t, axis=1), -t, t)


def _factorize(c: np.ndarray) -> list[FullRankFactorization]:
    count, m, _ = c.shape
    ranks = _node_ranks(c)
    _fail_first(ranks == 0, lambda _: ValueError(
        "node has no effective output (zero output matrix)"))
    out = [None] * count
    full = np.flatnonzero(ranks == m)
    if full.size:
        d, f = np.repeat(np.eye(m)[None], full.size, axis=0), c[full]
        for j, node in enumerate(full):
            out[node] = FullRankFactorization(d_factor=d[j], f_factor=f[j], rank=m)
    for p in np.unique(ranks[ranks < m]).tolist():
        part = np.flatnonzero(ranks == p)
        u, s, vt = _svd_nodes(c[part], False, index=part)
        d = _fortran_slices(u[:, :, :p] * s[:, None, :p])
        f = vt[:, :p, :]
        # normalize signs through the shared inner dimension for reproducibility
        flip = _leading_negative(f, axis=2)
        np.negative(f, out=f, where=flip)
        np.negative(d, out=d, where=flip.transpose(0, 2, 1))
        for j, node in enumerate(part):
            out[node] = FullRankFactorization(d_factor=d[j], f_factor=f[j], rank=p)
    return out


def _fortran_slices(x: np.ndarray) -> np.ndarray:
    """x with column-major contiguous slices."""
    return np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)


def full_rank_factorize(c_i: np.ndarray):
    """Factor C = D F with D full column rank and F full row rank; a list of
    factorizations for a stack of equally shaped C_i.

    When C already has full row rank the factorization is skipped and D = I,
    F = C.  A zero matrix is rejected: such a node has no effective output.
    """
    c_i = np.asarray(c_i, dtype=float)
    if c_i.ndim == 3:
        return _factorize(c_i)
    return _one(lambda: _factorize(np.atleast_2d(c_i)[None]))


def _decompose(a: np.ndarray, f: np.ndarray) -> list[NodeDecomposition]:
    count, p, _ = f.shape
    n = a.shape[0]
    if f.size == 0:
        raise StackError(0, ValueError("virtual output matrix is empty"))
    # one thin SVD of F^T tests the full row rank, at RANK_TOL and at the
    # eps * max(n, p) of scipy.linalg.orth, and gives the basis of im F^T
    (f,) = _finite_nodes(f)
    u_f, s_f, _ = _svd_nodes(f.transpose(0, 2, 1), False)
    full_rank = _ranks(s_f, max(RANK_TOL, np.finfo(float).eps * max(n, p))) == p
    _fail_first(~full_rank, lambda _: ValueError("virtual output matrix is not full row rank"))
    t_p = u_f[:, :, :p]

    (obs,) = _finite_nodes(observability_matrix(f, a))
    _, s_o, vt_o = _svd_nodes(obs, True)
    v_dims = _ranks(s_o, RANK_TOL)
    zero_tol = 1e-10 * max(1.0, np.linalg.norm(a))

    out = [None] * count
    for v in np.unique(v_dims).tolist():
        part = np.flatnonzero(v_dims == v)
        if part.size == count:
            tp, vt, fp = t_p, vt_o, f
        else:
            tp, vt, fp = (_stack([x[j] for j in part]) for x in (t_p, vt_o, f))
        t_u = vt[:, v:, :].transpose(0, 2, 1)  # orthonormal basis of ker O
        # completion inside the observable subspace: project row space of O off t_p
        t_obs_full = vt[:, :v, :].transpose(0, 2, 1)
        proj = t_obs_full - tp @ (tp.transpose(0, 2, 1) @ t_obs_full)
        if v > p:
            t_e = _svd_nodes(proj, False, index=part)[0][:, :, : v - p]
        else:
            t_e = np.zeros((part.size, n, 0))
        t = np.concatenate([_fix_column_signs(tp), _fix_column_signs(t_e),
                            _fix_column_signs(t_u)], axis=2)

        at = t.transpose(0, 2, 1) @ a @ t
        if v < n:
            leak = np.abs(at[:, :v, v:]).max(axis=(1, 2))
            _fail_first(leak > zero_tol, lambda j: ValueError(
                f"observability decomposition failed: structural block leak {leak[j]:.3e}"),
                index=part)
            at[:, :v, v:] = 0.0

        e_mat = fp @ t[:, :, :p]
        for j, node in enumerate(part):
            out[node] = NodeDecomposition(t_orth=t[j], a_transformed=at[j],
                                          e_mat=e_mat[j], v_dim=v, p_dim=p)
    return out


def observability_decomposition(a: np.ndarray, f_i: np.ndarray):
    """Orthogonal staircase decomposition of (F, A) exposing im F^T first; a
    list of decompositions for a stack of equally shaped F_i.

    Columns of T are built as [basis of im F^T | completion inside the
    observable subspace | basis of the unobservable subspace], each block
    orthonormal, signs fixed for determinism.
    """
    a, f_i = np.asarray(a, dtype=float), np.asarray(f_i, dtype=float)
    if f_i.ndim == 3:
        return _decompose(a, f_i)
    return _one(lambda: _decompose(a, np.atleast_2d(f_i)[None]))


def _abscissae(m: np.ndarray) -> np.ndarray:
    (m,) = _finite_nodes(m)
    count, k, _ = m.shape
    if k == 0:
        return np.full(count, -np.inf)
    (lwork,) = _workspace("dgeev_lwork", k, compute_vl=0, compute_vr=0)

    def largest_real_part(x):
        wr, _, _, _, info = lapack.dgeev(x, compute_vl=0, compute_vr=0, lwork=lwork)
        if info > 0:
            raise np.linalg.LinAlgError(
                "eig algorithm (geev) did not converge (only eigenvalues with order "
                f">= {info} have converged)")
        return np.max(wr)

    return np.array(_each(largest_real_part, m))


def spectral_abscissa(m: np.ndarray):
    """Largest real part over the eigenvalues of m (-inf for empty m); of
    each node, as an array, for a stack.

    The real parts are those of scipy.linalg.eigvals(m): its dgeev call,
    without eigenvectors.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim == 3:
        return _abscissae(m)
    return float(_one(lambda: _abscissae(m[None])))


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


def _min_symmetric_eigenvalue_in_place(m: np.ndarray) -> float:
    """min_symmetric_eigenvalue of a nonempty m, which it overwrites."""
    asym = _asymmetry(m)
    if asym > SYMMETRY_TOL * max(1.0, m.max(), -m.min()):
        raise ValueError(f"matrix is not symmetric (deviation {asym:.3e})")
    # an exactly symmetric m is already 0.5 (m + m^T), bit for bit
    if asym != 0:
        _symmetrize_in_place(m, 0.5)
    return float(_eigvalsh_in_place(m)[0])


def min_symmetric_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of sym(m); rejects m not symmetric to SYMMETRY_TOL."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return np.inf
    return _min_symmetric_eigenvalue_in_place(m.copy())


def _schur(a: np.ndarray, select=None):
    """Real Schur form a = u s u^T of a finite square a (dgees), with the
    eigenvalues for which select(wr, wi) holds first: (s, u, their count, the
    real parts of the eigenvalues)."""
    s, sdim, wr, _, u, _, info = lapack.dgees(select or _no_selection, a, sort_t=int(bool(select)),
                                              lwork=_gees_lwork(len(a)))
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return s, u, sdim, wr


def _sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray, **trans):
    """(y, scale) with op(a) y + y op(b) = scale c for quasi-triangular a and
    b (dtrsyl); ValueError where dtrsyl can only solve a perturbed equation,
    as a and -b then share an eigenvalue to working precision."""
    y, scale, info = lapack.dtrsyl(a, b, c, **trans)
    if info == 1:
        raise ValueError("Sylvester equation is singular to working precision: an "
                         "eigenvalue pair sums to about zero")
    return y, scale


def _lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    a, q = _finite_nodes(a, q)
    count, k, _ = a.shape
    if k == 0:
        return np.zeros((count, 0, 0))
    s, u, _, wr = zip(*_each(lambda x: _schur(x.T), a))
    _fail_first(np.max(wr, axis=1) >= 0, lambda _: ValueError("unstable coefficient matrix"))
    u = _stack(u)
    rhs = u.transpose(0, 2, 1) @ (-q @ u)
    y, scales = zip(*_each(lambda s_i, rhs_i: _sylvester(s_i, s_i, rhs_i, tranb="T"), s, rhs))
    y = _stack(y)
    y *= np.array(scales)[:, None, None]
    p = u @ y @ u.transpose(0, 2, 1)
    return 0.5 * (p + p.transpose(0, 2, 1))


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A^T P + P A + Q = 0 for Hurwitz A and symmetric Q; returns the
    symmetric part of the solution.  For a stack of A, Q is one matrix for
    all nodes or a stack.

    The LAPACK calls of scipy.linalg.solve_continuous_lyapunov(A^T, -Q), in
    scipy's order, so that P is scipy's bit for bit: the real Schur form
    A^T = U S U^T (dgees), then S Y + Y S^T = U^T (-Q) U (dtrsyl) and
    P = U Y U^T.  Raises ValueError on an A that is not Hurwitz, judged by
    the eigenvalues that dgees returns with the Schur form, and where scipy
    warns that dtrsyl perturbed the equation: the solution it returns then
    need not solve it.
    """
    a, q = np.asarray(a, dtype=float), np.asarray(q, dtype=float)
    if a.ndim == 3:
        return _lyapunov(a, np.broadcast_to(q, a.shape))
    return _one(lambda: _lyapunov(a[None], q[None]))


def _injection(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """min_energy_injection of one finite node."""
    s, z, sdim, _ = _schur(a, lambda wr, _: wr > 0.0)
    if sdim == 0:
        return np.zeros(c.shape[::-1])
    z1 = z[:, :sdim]
    g = z1.T @ c.T
    y, scale = _sylvester(s[:sdim, :sdim], s[:sdim, :sdim], g @ g.T, trana="T")
    return z1 @ np.linalg.solve(y / scale, g)


def _injections(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    a, c = _finite_nodes(a, c)
    count, k, _ = a.shape
    if k == 0:
        return np.zeros((count, 0, c.shape[1]))
    return _stack(_each(_injection, a, c))


def min_energy_injection(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Output injection H of least energy that makes a - H c Hurwitz: it
    moves each eigenvalue of a with a positive real part to its mirror image
    -conj(lambda) and leaves the others where they are.  Of each node for
    stacks of a and c.

    H is the limit, as Q -> 0, of P c^T with P the stabilizing solution of
    a P + P a^T - P c^T c P + Q = 0 (Zhou, Doyle and Glover 1996, Robust and
    Optimal Control, sec. 13.5).  With the real Schur form of a ordered so
    that its k_+ eigenvalues with positive real part come first (dgees),
    a Z_1 = Z_1 T_11 with Z_1 the first k_+ Schur vectors, and
    H = Z_1 Y^-1 g, where g = Z_1^T c^T and T_11^T Y + Y T_11 = g g^T
    (dtrsyl); on the span of Z_1, a - H c is then similar to -T_11^T, and
    on the rest it keeps a's Schur block.  H is exactly zero when a has no
    eigenvalue with a positive real part.  Raises ValueError when (c, a) is
    not observable enough for Y to be solved or inverted in floating point.
    """
    a, c = np.asarray(a, dtype=float), np.asarray(c, dtype=float)
    if a.ndim == 3:
        return _injections(a, c)
    return _one(lambda: _injections(a[None], c[None]))


@functools.cache
def _gees_lwork(n: int) -> int:
    """dgees' workspace for order n, from the query that scipy.linalg.schur makes."""
    return int(lapack.dgees(_no_selection, np.zeros((n, n)), lwork=-1)[-2][0])


def _no_selection(*_):
    """dgees callback for an unsorted Schur form (never called with sort_t=0)."""
