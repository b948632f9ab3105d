"""Closed-loop error dynamics and the analytic convergence certificates.

Every condition that the paper's proof checks of a design is here, and
certify() checks them all: the cancellation identity (verify_cancellation,
which takes lists of nodes of any shapes and splits them into groups of equal
shape), each node's LMI, invariance of im T_s and the Lyapunov decrease.
synthesis builds the design and calls certify(); this module names
synthesis's records only in annotations, so it imports nothing from
synthesis.

Node i's observer hears its neighbours through the coupling term
    gamma r_i M_i sum_j a_ij (xhat_j - xhat_i) = sum_j C_ij xhat_j,
written once, in _coupling_scales, as the blocks C_ij = -gamma r_i lap_ij
M_i at the nonzeros of the Laplacian, for the simulator and the error
system alike.
With G = blkdiag(N_i) T_s^T + [C_ij], the stacked error e = col(e_1, ...,
e_N) obeys e' = T_s G e and stays on im T_s, of dimension K = N n - sum p_i.
There it is generated by the restricted matrix R = G T_s, with blocks
R_ij = N_i [i = j] + C_ij P_j: the observer block of the simulator's
generator F, which simulate._generator forms.

certify() forms no matrix of order K when every node has v_i = n.  The
invariance residual is T_p^T F T_s = blkdiag_i(T_ip^T P_i) R, with T_ip from
the problem's own decomposition, so that it tests that each P_i spans
im T_is; it is summed over its node-sized blocks T_ip^T P_i R_ij, nonzero
only on the diagonal and where the Laplacian is (_invariance).  The
Lyapunov certificate is an upper bound on the top eigenvalue of
M = W R + R^T W + 2 alpha W, W = blkdiag_i(P_ie, I), composed as the paper's
proof goes: each node's LMI, the graph lemma and a coupling defect that is
zero in exact arithmetic (_lyapunov).  The lmi check reports the first of
these, the proved upper bound on each node's LMI (_node_terms), which is
finite only where P_ie is proved positive definite.  With W positive
definite, M < 0 bounds R's spectral abscissa below -alpha, so it certifies
the decay rate.

The graph enters the proof only through its lemma, on the mirror Laplacian
diag(r) L + L^T diag(r); _lemma_matrix forms its matrix, for synthesis's
epsilon and for the lyapunov bound, which judges the gains file's own r.

The invariance blocks and the node matrices of the Lyapunov bound are each
one stacked product per shape of node blocks; only the Cholesky
factorizations that prove positive definiteness and the eigenvalue bounds
run per node.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .linalg import (
    FullRankFactorization,
    NodeDecomposition,
    _fields,
    _node_groups,
    _positive_definite,
    _stack,
)

if TYPE_CHECKING:
    from .synthesis import ObserverRealization, Plant

# The certificates in the order certify() reports them.  Each has its bound as
# a function of ||A||_F, and whether a value equal to the bound passes.
CERTIFICATE_BOUNDS = {
    "cancellation": (lambda a_norm: 1e-9 * max(a_norm, 1e-300), True),
    "lmi": (lambda a_norm: 0.0, False),
    "invariance": (lambda a_norm: 1e-9, True),
    "lyapunov": (lambda a_norm: 0.0, False),
}

# unit roundoff and the smallest subnormal of binary64, and the unit roundoff
# of numpy's longdouble (x87 extended precision on x86-64, binary64 where
# longdouble is double), in which the node matrices are formed
_U = 2.0**-53
_ETA = 2.0**-1074
_EXT = np.longdouble
_U_EXT = float(np.finfo(_EXT).eps) / 2


def _judge(name: str, value: float, a_norm: float) -> dict:
    bound_of, inclusive = CERTIFICATE_BOUNDS[name]
    bound = float(bound_of(a_norm))
    ok = value <= bound if inclusive else value < bound
    return {"value": float(value), "bound": bound, "pass": bool(ok)}


def _lemma_weights(node_count: int) -> np.ndarray:
    """The lemma weights g_i of the design, one per node; certify() judges
    with the same."""
    return np.ones(node_count)


def verify_cancellation(gains, decomps, frfs) -> np.ndarray:
    """Frobenius norm of the state-dependence cancellation identity of each
    node of the lists, as an array.

    The identity (S L - S N S^T K) D F T + S N S^T + (K D F T - I) T^T A T
    must vanish for the assembled gains, and so must Q - T K, since the
    observer's output map Q is the K of the identity in x coordinates.
    """
    out = np.empty(len(decomps))
    shapes = [(d.p_dim, d.v_dim, f.d_factor.shape[0]) for d, f in zip(decomps, frfs)]
    for group in _node_groups(shapes):
        out[group] = _cancellation([gains[i] for i in group], [decomps[i] for i in group],
                                   [frfs[i] for i in group])
    return out


def _cancellation(gains, decomps, frfs) -> np.ndarray:
    n, p = decomps[0].n_dim, decomps[0].p_dim
    s = np.vstack([np.zeros((p, n - p)), np.eye(n - p)])
    t_orth = _fields(decomps, "t_orth")
    dft = _fields(frfs, "d_factor") @ _fields(frfs, "f_factor") @ t_orth
    at = _fields(decomps, "a_transformed")
    l_gain, n_gain, k_mat, q_out = (_fields(gains, name)
                                    for name in ("l_gain", "n_gain", "k_mat", "q_out"))
    sns = s @ n_gain @ s.T
    lhs = (s @ l_gain - sns @ k_mat) @ dft + sns + (k_mat @ dft - np.eye(n)) @ at
    # np.linalg.norm of each node's identity and then of its Q - T K, squared:
    # one dot product each, so that an exact Q adds an exact zero
    squares = np.zeros(len(lhs))
    for x in (lhs, q_out - t_orth @ k_mat):
        flat = x.reshape(len(x), 1, -1)
        squares += (flat @ flat.transpose(0, 2, 1)).ravel()
    return np.sqrt(squares)


def _coupling_scales(realization: ObserverRealization, lap: np.ndarray):
    """(i, j, s_ij) as arrays over the nonzeros of the Laplacian lap = D - A,
    in row-major order.

    Node i's observer receives sum_j C_ij xhat_j = gamma r_i M_i sum_j a_ij
    (xhat_j - xhat_i), so C_ij = s_ij M_i with s_ij = -gamma r_i lap_ij.
    """
    if lap.shape[0] != len(realization.nodes):
        raise ValueError("graph size does not match the realization")
    rows, cols = np.nonzero(lap)
    return rows, cols, -realization.gamma * realization.r_vector[rows] * lap[rows, cols]


def _offsets(realization: ObserverRealization) -> np.ndarray:
    """Start of each node's observer state z_i in col(z_1, ..., z_N), and the end."""
    return np.cumsum([0] + [g.n_gain.shape[0] for g in realization.nodes])


def _invariance(
    realization: ObserverRealization, laplacian: np.ndarray, t_ps: list[np.ndarray]
) -> float:
    """||T_p^T F T_s|| over its blocks X_i R_ij, X_i = T_ip^T P_i, at the
    Laplacian's nonzeros and on the diagonal: F = T_s G and R = G T_s with
    T_s = blkdiag(P_i), R_ij = N_i [i = j] + s_ij M_i P_j, and T_ip the basis
    of im F_i^T that t_ps lists per node.  X_i N_i and X_i M_i are one stacked
    product per shape of node, (s_ij X_i M_i) P_j one per shape of block, and
    X_i N_i is added into block (i, i) before it is squared."""
    nodes = realization.nodes
    xn, xm = [None] * len(nodes), [None] * len(nodes)
    for group in _node_groups([(t.shape[1], g.n_gain.shape[0]) for t, g in zip(t_ps, nodes)]):
        at = [nodes[i] for i in group]
        x = _stack([t_ps[i] for i in group]).transpose(0, 2, 1) @ _fields(at, "p_out")
        for i, a, b in zip(group, x @ _fields(at, "n_gain"), x @ _fields(at, "m_gain")):
            xn[i], xm[i] = a, b
    rows, cols, scales = _coupling_scales(realization, laplacian)
    alone = np.ones(len(nodes), dtype=bool)
    alone[rows[rows == cols]] = False
    squares = [np.square(xn[i]).ravel() for i in np.flatnonzero(alone)]
    for group in _node_groups([(xm[i].shape[0], nodes[j].n_gain.shape[0])
                               for i, j in zip(rows.tolist(), cols.tolist())]):
        i, j = rows[group], cols[group]
        block = ((scales[group][:, None, None] * _stack([xm[x] for x in i]))
                 @ _fields([nodes[x] for x in j], "p_out"))
        diagonal = np.flatnonzero(i == j)
        if diagonal.size:
            block[diagonal] += _stack([xn[x] for x in i[diagonal]])
        squares.append(np.square(block).ravel())
    # numpy's pairwise sum, which no BLAS thread count reorders
    return math.sqrt(float(np.sum(np.concatenate(squares))))


def _up(x, ops: int):
    """An upper bound on the exact value of the nonnegative x that `ops`
    roundings computed (Higham 2002, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1), itself rounded up."""
    return x * (1.0 + 2.0 * (ops + 1) * _U) + ops * _ETA


def _gamma(k: int, u: float = _U) -> float:
    """Higham's gamma_k = k u / (1 - k u), which bounds k roundings."""
    return k * u / (1.0 - k * u)


def _above(x: float) -> float:
    """The float after x: rounded up, the exact value of one operation whose
    rounded result is x."""
    return math.nextafter(x, math.inf)


def _below(x: float) -> float:
    """The float before x: rounded down, as _above rounds up."""
    return math.nextafter(x, -math.inf)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Upper bounds on the Frobenius norm of each node of a stack."""
    return _up(np.sqrt(np.einsum("kij,kij->k", x, x)), x.shape[1] * x.shape[2] + 1)


def _diagonals(x: np.ndarray) -> np.ndarray:
    """The writable diagonals of a C-contiguous stack of square nodes."""
    return x.reshape(len(x), -1)[:, :: x.shape[1] + 1]


def _proves_top(stack: np.ndarray, errors: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Whether beta is proved above the top eigenvalue of every symmetric
    matrix within `errors` of each node B: linalg._positive_definite proves
    lambda_min(A) > e for A = fl(beta I - B), node by node, and
    e = errors + 2 u max|a_ii| covers the rounding of A's diagonal."""
    a = np.negative(stack)
    diag = _diagonals(a)
    diag += beta[:, None]
    return _positive_definite(a, errors + 2 * _U * np.abs(diag).max(axis=1))


def _top_eigenvalue_bounds(stack: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Upper bounds beta on the top eigenvalue of every symmetric matrix
    within `errors` (in the 2-norm) of each exactly symmetric node B of the
    stack (_proves_top): -inf for empty nodes, NaN where B or its error is
    not finite, +inf where no candidate is proved.  The candidates are the
    computed top eigenvalue plus 2 and then 16 times a margin that exceeds
    the shift c there."""
    count, k, _ = stack.shape
    if k == 0:
        return np.full(count, -np.inf)
    if not (np.isfinite(stack).all() and np.isfinite(errors).all()):
        finite = np.isfinite(stack).all(axis=(1, 2)) & np.isfinite(errors)
        out = np.full(count, np.nan)
        if finite.any():
            out[finite] = _top_eigenvalue_bounds(stack[finite], errors[finite])
        return out
    try:
        top = np.linalg.eigvalsh(stack)[:, -1]
    except np.linalg.LinAlgError:  # the eigensolver did not converge: nothing is proved
        return np.full(count, np.inf)
    spread = np.abs(top[:, None] - np.diagonal(stack, axis1=1, axis2=2)).sum(axis=1)
    margin = errors + (k + 4) * _U * spread
    beta = top + 2.0 * margin
    failed = ~_proves_top(stack, errors, beta)
    if failed.any():
        retry = top[failed] + 16.0 * margin[failed]
        beta[failed] = np.where(_proves_top(stack[failed], errors[failed], retry), retry, np.inf)
    return beta


def _node_terms(realization: ObserverRealization, g: np.ndarray):
    """Per node i: an upper bound on lambda_max(B_i), B_i = W_i N_i + N_i^T W_i
    + 2 alpha W_i + gamma G_i - gamma epsilon I, node i's LMI, and upper
    bounds on ||D_i||_2, D_i = W_i M_i - P_i^T, on ||P_i||_2 and on delta_i =
    ||I - P_i^T P_i||_2, each in exact arithmetic on the stored gains; and an
    upper bound on lambda_max(W).  W_i = blkdiag(sym P_ie, I).  One stack per
    shape of node.

    The LMI bound is what the lmi check reports: -inf for an empty node (p_i
    = n), NaN where P_ie is not finite, and +inf where linalg._positive_definite
    does not prove sym P_ie positive definite, so that W > 0 holds wherever
    every bound is finite.

    B_i is formed in longdouble and then rounded: with a P_ie of norm 1e9,
    W_i N_i has entries near 1e13 that cancel in B_i down to its eigenvalues
    near -0.25, and a binary64 product's rounding bound alone would exceed
    them.  A product's rounding is at most gamma_k |X| |Y| (Higham 2002, sec.
    3.5), with the inner dimension and the additions after it counted in k,
    whose Frobenius norm is at most ||X||_F ||Y||_F; the last rounding is at
    most u |B_i|.
    """
    nodes, alpha = realization.nodes, realization.alpha
    gamma, epsilon = realization.gamma, realization.epsilon
    top = np.full(len(nodes), -np.inf)
    d_norm, p_norm, delta = np.zeros((3, len(nodes)))
    w_top = 1.0
    shapes = [(x.p_ie.shape[0], x.n_gain.shape[0]) for x in nodes]
    for group in _node_groups(shapes):
        (k, o), n = shapes[group[0]], nodes[group[0]].p_out.shape[0]
        if o == 0:
            continue
        pie, n_gain, m_gain, p_out = (np.array([getattr(nodes[i], f) for i in group])
                                      for f in ("p_ie", "n_gain", "m_gain", "p_out"))
        sym = 0.5 * (pie + pie.transpose(0, 2, 1))
        # the finite nodes whose sym P_ie is not proved positive definite
        finite = np.isfinite(sym).all(axis=(1, 2))
        indefinite = finite.copy()
        indefinite[finite] = ~_positive_definite(sym[finite])
        w = sym
        if k < o:
            w = np.zeros((len(group), o, o))
            w[:, :k, :k] = sym
            _diagonals(w)[:, k:] = 1.0
        f_sym, f_n, f_m, f_p = (_frobenius(x) for x in (sym, n_gain, m_gain, p_out))
        f_w = _up(np.sqrt(f_sym * f_sym + (o - k)), 3)
        w_top = max(w_top, float(np.max(f_sym, initial=0.0)))
        w_ext = w.astype(_EXT)
        wn, p_t = w_ext @ n_gain.astype(_EXT), p_out.transpose(0, 2, 1)
        b = wn + wn.transpose(0, 2, 1) + (2 * _EXT(alpha)) * w_ext
        _diagonals(b)[...] += _EXT(gamma) * (np.where(np.arange(o) < k, g[group][:, None], 0.0)
                                             - _EXT(epsilon))
        b = b.astype(float)
        b_err = (_gamma(o + 6, _U_EXT) * (2.0 * f_w * (f_n + alpha) + gamma * math.sqrt(o)
                                          * (np.abs(g[group]) + abs(epsilon)))
                 + _U * _frobenius(b))
        top[group] = np.where(indefinite, np.inf, _top_eigenvalue_bounds(b, _up(b_err, 8)))
        # D_i and I - P_i^T P_i, each plus the bound on its rounding
        d_norm[group] = _up(_frobenius(w @ m_gain - p_t) + _gamma(o + 1) * (f_w * f_m + f_p), 6)
        delta[group] = _up(_frobenius(np.eye(o) - p_t @ p_out)
                           + _gamma(n + 1) * (f_p * f_p + math.sqrt(o)), 6)
        p_norm[group] = _up(np.sqrt(1.0 + delta[group]), 2)
    return top, d_norm, p_norm, delta, w_top


def _lemma_matrix(r: np.ndarray, lap: np.ndarray, g: np.ndarray, bases, widths):
    """(S, X, dense) for the Perron row vector r of the Laplacian lap, lemma
    weights g and node bases B_i of c_i columns: S = diag(r) lap and, with
    mirror = S + S^T exactly symmetric, X = mirror + diag g of order N when
    every widths[i] = c_i (dense False), else X = [mirror_ij B_i^T B_j] +
    diag(g_i on the first widths[i] coordinates of node i) of order sum c_i
    (dense True), formed at the mirror's nonzero blocks and on the diagonal,
    each diagonal block symmetrized."""
    scaled = r[:, None] * lap
    mirror = scaled + scaled.T
    if all(w == b.shape[1] for b, w in zip(bases, widths)):
        _diagonals(mirror[None])[0] += g
        return scaled, mirror, False
    off = np.cumsum([0] + [b.shape[1] for b in bases])
    x = np.zeros((off[-1], off[-1]))
    for i, j in zip(*np.nonzero(np.triu((mirror != 0) | np.eye(len(bases), dtype=bool)))):
        blk = mirror[i, j] * (bases[i].T @ bases[j])
        if i == j:
            blk = 0.5 * (blk + blk.T)
        x[off[i] : off[i + 1], off[j] : off[j + 1]] = blk
        x[off[j] : off[j + 1], off[i] : off[i + 1]] = blk.T
    for i, w in enumerate(widths):
        at = off[i] + np.arange(w)
        x[at, at] += g[i]
    return scaled, x, True


def _lemma_lower_bound(realization: ObserverRealization, laplacian: np.ndarray,
                       g: np.ndarray, delta: np.ndarray) -> float:
    """A lower bound lambda_s on lambda_min(P^T (mirror_r (x) I_n) P + G),
    with P = blkdiag(P_i), G_i = g_i on the first v_i - p_i coordinates of
    node i and mirror_r = diag(r) L + L^T diag(r) from the gains file's r
    (_lemma_matrix).

    When every v_i = n, G = P^T (diag g (x) I_n) P + blkdiag(g_i (I - P_i^T
    P_i)), so the matrix is P^T (Y (x) I_n) P plus a term above -max|g| delta,
    Y = mirror_r + diag g.  With Lambda <= lambda_min(Y) and 1 - delta <=
    P^T P <= 1 + delta, lambda_s = Lambda - |Lambda| delta - max|g| delta.
    Lambda is Gershgorin's bound min_i (y_ii - sum_{j != i} |y_ij|), which is
    min g exactly when r is the Perron vector, since mirror_r's off-diagonal
    entries are nonpositive and its rows sum to zero; where that is below
    epsilon, the design's own level, the Cholesky proof of the N x N matrix Y
    gives it instead.  When some v_i < n, the matrix of order K is formed,
    block (i, j) = mirror_ij P_i^T P_j, and bounded as it stands.  Each bound
    covers the rounding of forming its matrix.
    """
    nodes = realization.nodes
    # the rounding of forming mirror_r = S + S^T is at most gamma_2 (|S| + |S|^T)
    scaled, x, dense = _lemma_matrix(realization.r_vector, laplacian, g,
                                     [node.p_out for node in nodes],
                                     [node.p_ie.shape[0] for node in nodes])
    if not dense:
        big_n = len(nodes)
        y_err = float(_up(_gamma(3) * (2.0 * _frobenius(scaled[None])[0] + math.sqrt(g @ g)), 5))
        rows, diag = np.abs(x).sum(axis=1), np.abs(np.diagonal(x))
        discs = np.diagonal(x) + diag - rows - _up(_gamma(big_n + 4) * (rows + 2 * diag), 3)
        low = _below(float(np.min(discs)) - y_err)
        if not low >= realization.epsilon:
            low = max(low, -float(_top_eigenvalue_bounds(-x[None], np.array([y_err]))[0]))
        slack = _above(_above(abs(low) + float(np.max(np.abs(g)))) * float(np.max(delta)))
        return _below(low - slack)
    mirror_abs = np.abs(scaled)
    mirror_abs += mirror_abs.T
    # |Delta_ij| <= gamma_{n+5} |mirror|_ij |P_i|^T |P_j| entrywise, whose
    # Frobenius norm is at most |mirror|_ij ||P_i||_F ||P_j||_F, and g's addition
    f = np.array([_up(np.linalg.norm(node.p_out), node.p_out.size + 1) for node in nodes])
    x_abs = mirror_abs * f[:, None] * f + np.diag(np.abs(g))
    n = nodes[0].p_out.shape[0]
    x_err = _up(_gamma(n + 5) * _frobenius(x_abs[None]), 6)
    return -float(_top_eigenvalue_bounds(-x[None], x_err)[0])


def _lyapunov(realization: ObserverRealization, laplacian: np.ndarray, g: np.ndarray,
              terms: tuple) -> dict:
    """The lyapunov entry: an upper bound on lambda_max(M) for
    M = W R + R^T W + 2 alpha W in exact arithmetic on the stored gains,
    composed from node-sized terms, the _node_terms of the design, with no
    matrix of order K when every v_i = n.

    Derivation.  R_ij = N_i [i = j] + s_ij M_i P_j with s_ij = -gamma r_i
    lap_ij, and W_i M_i = P_i^T + D_i, where D_i = W_i M_i - P_i^T is zero in
    exact arithmetic (M_i = W_i^-1 T_is^T and P_i = T_is).  Since s_ij + s_ji
    = -gamma mirror_ij,
        M = blkdiag(W_i N_i + N_i^T W_i + 2 alpha W_i)
            - gamma P^T (mirror_r (x) I_n) P + E + E^T,   E_ij = s_ij D_i P_j,
          = blkdiag(B_i) - gamma (P^T (mirror_r (x) I_n) P + G - epsilon I)
            + E + E^T,
    with B_i node i's LMI on its stored gains.  So, for gamma >= 0,
        lambda_max(M) <= max_i lambda_max(B_i) - gamma (lambda_s - epsilon)
                         + 2 ||C||_2,
    where lambda_s <= lambda_min(P^T (mirror_r (x) I_n) P + G)
    (_lemma_lower_bound) and C_ij = |s_ij| ||D_i||_2 ||P_j||_2 is N x N in
    the Laplacian's pattern, since ||E||_2 is at most the 2-norm of the
    matrix of its block norms.  ||C||_2 <= sqrt(||C||_1 ||C||_inf).

    Each term is an upper bound that holds in floating point, and so is
    their sum: node is the 1-based node of the largest lambda_max(B_i).  The
    node term is +inf unless every P_ie is proved positive definite, so a
    finite value holds with W > 0.  A gamma < 0 makes the lemma term +inf.
    M(alpha') = M(alpha) + 2 (alpha' - alpha) W, so a value v < 0 certifies
    every rate below alpha + (-v) / (2 lambda_max(W)): rate_bound, rounded
    down, with lambda_max(W) <= max(1, max_i ||sym P_ie||_F).
    """
    alpha, gamma, epsilon = realization.alpha, realization.gamma, realization.epsilon
    top, d_norm, p_norm, delta, w_top = terms
    if np.all(top == -np.inf):  # an empty observer: every node has p_i = n
        return {"value": -np.inf, "node_term": -np.inf, "lemma_term": 0.0,
                "coupling_term": 0.0, "node": None, "rate_bound": np.inf}
    node_term = float(np.max(top))
    if gamma > 0:
        lam_s = _lemma_lower_bound(realization, laplacian, g, delta)
        lemma_term = _above(gamma * _above(epsilon - lam_s))
    else:
        lemma_term = 0.0 if gamma == 0 else np.inf
    rows, cols, scales = _coupling_scales(realization, laplacian)
    c = _up(np.abs(scales), 2) * d_norm[rows] * p_norm[cols]
    big_n = len(realization.nodes)
    c_inf = float(_up(np.max(np.bincount(rows, c, big_n)), big_n + 4))
    c_one = float(_up(np.max(np.bincount(cols, c, big_n)), big_n + 4))
    coupling_term = 2.0 * _above(math.sqrt(_above(c_inf * c_one)))
    value = _above(_above(node_term + lemma_term) + coupling_term)
    rate = _below(alpha + _below(-value / (2.0 * w_top))) if value < 0 else None
    return {"value": value, "node_term": node_term, "lemma_term": lemma_term,
            "coupling_term": coupling_term, "node": int(np.argmax(top)) + 1,
            "rate_bound": rate}


def certify(
    realization: ObserverRealization,
    plant: Plant,
    laplacian: np.ndarray,
    frfs: list[FullRankFactorization],
    decomps: list[NodeDecomposition],
) -> dict:
    """Check a design over the graph of Laplacian `laplacian` against every
    certificate in CERTIFICATE_BOUNDS.

    Returns {name: {"value", "bound", "pass"}} in the table's order.  The
    cancellation and lmi checks also carry "nodes", each node's residual or
    proved upper bound on lambda_max(B_i) (_node_terms), and "node", the
    1-based node of the largest (or of the first NaN); lyapunov carries its
    three terms, its "node" and "rate_bound" (_lyapunov).  lmi's value and
    lyapunov's node term are the same maximum of the same bounds.
    """
    nodes = realization.nodes
    g = _lemma_weights(len(nodes))
    residuals = verify_cancellation(list(nodes), decomps, frfs).tolist()
    terms = _node_terms(realization, g)
    lmi_bounds = terms[0].tolist()
    lyapunov = _lyapunov(realization, laplacian, g, terms)
    # np.max propagates a NaN residual or bound, so that it fails the check
    values = {
        "cancellation": np.max(residuals),
        "lmi": np.max(lmi_bounds),
        "invariance": _invariance(realization, laplacian, [d.t_p for d in decomps]),
        "lyapunov": lyapunov.pop("value"),
    }
    a_norm = float(np.linalg.norm(plant.a))
    checks = {name: _judge(name, value, a_norm) for name, value in values.items()}
    for name, per_node in (("cancellation", residuals), ("lmi", lmi_bounds)):
        # np.argmax names the first NaN, if there is one
        checks[name].update(nodes=per_node, node=int(np.argmax(per_node)) + 1)
    checks["lyapunov"].update(lyapunov)
    return checks
