"""Closed-loop error dynamics and the analytic convergence certificates.

Node i's observer hears its neighbours through the coupling term
    gamma r_i M_i sum_j a_ij (xhat_j - xhat_i) = sum_j C_ij xhat_j,
written once, in _coupling_scales, as the blocks C_ij = -gamma r_i lap_ij
M_i at the nonzeros of the Laplacian, for the simulator and the error
system alike.
With G = blkdiag(N_i) T_s^T + [C_ij], the stacked error e = col(e_1, ...,
e_N) obeys e' = T_s G e and stays on im T_s, of dimension N n - sum p_i.
There it is generated by the restricted matrix R = G T_s, with blocks
N_i [i = j] + C_ij P_j: the observer block of the simulator's generator F,
which restricted_generator() fills block by block for both.

certify() builds R once, of order K = N n - sum p_i, and forms no Nn-sized
matrix.  The Lyapunov certificate is the sign of M = W R + R^T W + 2 alpha W,
W = blkdiag_i(P_ie, I), formed over R and proved by a Cholesky factorization
of -M - c I with Rump's shift c.  With W positive definite, which the lmi
check requires of every P_ie, M < 0 bounds R's spectral abscissa below
-alpha, so it certifies the decay rate.  The invariance residual is T_p^T F
T_s = blkdiag_i(T_ip^T P_i) R, with T_ip from the problem's own
decomposition, so that it tests that each P_i spans im T_is.

R's blocks, the invariance rows and the P_ie row scaling of the Lyapunov
matrix are each one stacked product per shape of node blocks; only the
LAPACK eigenvalue calls of the lmi check stay per node.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graph import GraphSpectralData
from .linalg import (
    FullRankFactorization,
    NodeDecomposition,
    _cholesky_completes,
    _cholesky_shift,
    _eigvalsh,
    _node_groups,
    _stack,
    _symmetrize_in_place,
)
from .synthesis import (
    ObserverRealization,
    Plant,
    _lemma_weights,
    verify_cancellation,
    verify_lmi_th1,
)

# The certificates in the order certify() reports them.  Each has its bound as
# a function of ||A||_F, and whether a value equal to the bound passes.
CERTIFICATE_BOUNDS = {
    "cancellation": (lambda a_norm: 1e-9 * max(a_norm, 1e-300), True),
    "lmi": (lambda a_norm: 0.0, False),
    "invariance": (lambda a_norm: 1e-9, True),
    "lyapunov": (lambda a_norm: 0.0, False),
}


def _judge(name: str, value: float, a_norm: float) -> dict:
    bound_of, inclusive = CERTIFICATE_BOUNDS[name]
    bound = float(bound_of(a_norm))
    ok = value <= bound if inclusive else value < bound
    return {"value": float(value), "bound": bound, "pass": bool(ok)}


def _coupling_scales(realization: ObserverRealization, lap: np.ndarray):
    """(i, j, s_ij) as arrays over the nonzeros of the Laplacian lap = D - A.

    Node i's observer receives sum_j C_ij xhat_j = gamma r_i M_i sum_j a_ij
    (xhat_j - xhat_i), so C_ij = s_ij M_i with s_ij = -gamma r_i lap_ij.
    """
    rows, cols = np.nonzero(lap)
    return rows, cols, -realization.gamma * realization.r_vector[rows] * lap[rows, cols]


def _coupling(realization: ObserverRealization, lap: np.ndarray):
    """Nonzero blocks (i, j, C_ij) of the coupling term, one at a time."""
    rows, cols, scales = _coupling_scales(realization, lap)
    for i, j, scale in zip(rows.tolist(), cols.tolist(), scales.tolist()):
        yield i, j, scale * realization.nodes[i].m_gain


def _offsets(realization: ObserverRealization) -> np.ndarray:
    """Start of each node's observer state z_i in col(z_1, ..., z_N), and the end."""
    return np.cumsum([0] + [g.n_gain.shape[0] for g in realization.nodes])


def _blocks(starts_i, rows: int, starts_j, cols: int):
    """Index arrays of the blocks [s_i, s_i + rows) x [s_j, s_j + cols) of a
    matrix, one (rows, cols) block per pair of starts."""
    return (np.asarray(starts_i)[:, None, None] + np.arange(rows)[:, None],
            np.asarray(starts_j)[:, None, None] + np.arange(cols))


def restricted_generator(
    realization: ObserverRealization, laplacian: np.ndarray
) -> np.ndarray:
    """The restricted error generator R, of order N n - sum p_i.

    Block (i, j) is N_i [i = j] + C_ij P_j: the observer block of the
    simulator's generator, filled only where the Laplacian has a nonzero,
    with one stacked product and one block fill per shape of blocks.
    """
    nodes = realization.nodes
    if laplacian.shape[0] != len(nodes):
        raise ValueError("graph size does not match the realization")
    off = _offsets(realization)
    orders = np.diff(off)
    r_mat = np.zeros((off[-1], off[-1]))
    for group in _node_groups(orders.tolist()):
        o = orders[group[0]]
        r_mat[_blocks(off[group], o, off[group], o)] = _stack(
            [nodes[i].n_gain for i in group])
    # the coupling blocks C_ij P_j, added to them
    rows, cols, scales = _coupling_scales(realization, laplacian)
    for group in _node_groups(list(zip(orders[rows].tolist(), orders[cols].tolist()))):
        i, j = rows[group], cols[group]
        c = scales[group][:, None, None] * _stack([nodes[x].m_gain for x in i])
        r_mat[_blocks(off[i], orders[i[0]], off[j], orders[j[0]])] += (
            c @ _stack([nodes[x].p_out for x in j]))
    return r_mat


def _runs(keys) -> list[tuple[int, int]]:
    """(start, stop) of each run of equal consecutive keys."""
    stops = list(itertools.accumulate(len(list(run)) for _, run in itertools.groupby(keys)))
    return list(zip([0] + stops[:-1], stops))


# rows of R that one stacked P_ie product scales at a time
SCALED_ROWS = 64


def _lyapunov_in_place(
    m: np.ndarray, realization: ObserverRealization, alpha: float
) -> tuple[bool, float | None, float]:
    """(proved, mu, c): M = W R + R^T W + 2 alpha W < 0 is proved when the
    Cholesky factorization of -M - c I, c = linalg._cholesky_shift, completes;
    only a failure computes mu, M's top eigenvalue (None otherwise).  (True,
    -inf, 0) when R is empty, (False, NaN, NaN) when M is not finite.  R = m,
    in C order, is overwritten: W = blkdiag_i(P_ie, I_{n - v_i}), the weight
    of V(e) = e^T P e on im T_s, scales the first v_i - p_i rows of each node
    block of R + alpha I, in stacks of at most SCALED_ROWS rows, and -M
    follows, which LAPACK overwrites."""
    if m.size == 0:
        return True, -np.inf, 0.0
    m[np.diag_indices_from(m)] += alpha
    nodes = realization.nodes
    off = _offsets(realization)
    shapes = [(g.p_ie.shape[0], g.n_gain.shape[0]) for g in nodes]
    for start, stop in _runs(shapes):
        k, order = shapes[start]
        if k == 0:
            continue
        pie = _stack([g.p_ie for g in nodes[start:stop]])
        # the weight of e^T P_ie e, and P_ie bit for bit when it is symmetric
        weight = 0.5 * (pie + pie.transpose(0, 2, 1))
        step = max(1, SCALED_ROWS // k)
        for a in range(start, stop, step):
            b = min(a + step, stop)
            rows = m[off[a] : off[b]].reshape(b - a, order, m.shape[1])[:, :k]
            rows[...] = weight[a - start : b - start] @ rows
    _symmetrize_in_place(m, -1.0)
    if not np.isfinite(m).all():
        return False, np.nan, np.nan
    diagonal = np.diagonal(m).copy()
    shift = float(_cholesky_shift(diagonal))
    m[np.diag_indices_from(m)] -= shift
    # dpotrf overwrites the upper triangle of m.T (m in Fortran order) alone
    if _cholesky_completes(m.T):
        return True, None, shift
    np.negative(m, out=m)  # M again, exactly, in m's upper triangle
    m[np.diag_indices_from(m)] = -diagonal
    for i in range(1, len(m)):  # and mirrored over the factor dpotrf left below it
        m[i, :i] = m[:i, i]
    top = m.shape[0]  # 1-based: the largest eigenvalue only
    mu = _eigvalsh(m.T, True, range="I", il=top, iu=top)[0]
    return False, float(mu), shift


def _invariance(
    realization: ObserverRealization, r_mat: np.ndarray, t_ps: list[np.ndarray]
) -> float:
    """||T_p^T F T_s|| = ||stack_i (T_ip^T P_i) R_i||, with R_i the rows of
    node i in R: F = T_s G and R = G T_s with T_s = blkdiag(P_i), and T_ip the
    basis of im F_i^T that t_ps lists per node.  One stacked product per run
    of equally shaped nodes."""
    nodes = realization.nodes
    off = _offsets(realization)
    shapes = [(t_p.shape[1], g.n_gain.shape[0]) for t_p, g in zip(t_ps, nodes)]
    p_off = np.cumsum([0] + [p for p, _ in shapes])
    out = np.empty((p_off[-1], r_mat.shape[1]))
    for a, b in _runs(shapes):
        p, order = shapes[a]
        left = _stack(t_ps[a:b]).transpose(0, 2, 1) @ _stack([g.p_out for g in nodes[a:b]])
        rows = r_mat[off[a] : off[b]].reshape(b - a, order, r_mat.shape[1])
        out[p_off[a] : p_off[b]] = (left @ rows).reshape(p_off[b] - p_off[a], -1)
    return float(np.linalg.norm(out))


def certify(
    realization: ObserverRealization,
    plant: Plant,
    spectral: GraphSpectralData,
    frfs: list[FullRankFactorization],
    decomps: list[NodeDecomposition],
) -> dict:
    """Check a design against every certificate in CERTIFICATE_BOUNDS.

    Returns {name: {"value", "bound", "pass"}} in the table's order.  The lmi
    check also carries "nodes", the worst eigenvalue of each node's LMI, and
    lyapunov "shift", the c of the Cholesky test that alone decides it.
    """
    alpha = realization.alpha
    nodes = realization.nodes
    lmi_eigs = verify_lmi_th1(
        [g.p_ie for g in nodes], [g.h_inj for g in nodes], decomps,
        realization.gamma, realization.epsilon, alpha, _lemma_weights(len(nodes)),
    )
    # np.max propagates a NaN residual or eigenvalue, so that it fails the check
    values = {
        "cancellation": np.max(verify_cancellation(list(nodes), decomps, frfs)),
        "lmi": np.max(lmi_eigs),
    }
    # R serves the invariance rows and then becomes the Lyapunov matrix
    r_mat = restricted_generator(realization, spectral.laplacian)
    values["invariance"] = _invariance(realization, r_mat, [d.t_p for d in decomps])
    proved, mu, shift = _lyapunov_in_place(r_mat, realization, alpha)
    a_norm = float(np.linalg.norm(plant.a))
    checks = {name: _judge(name, value, a_norm) for name, value in values.items()}
    checks["lyapunov"] = {"value": mu, "bound": float(CERTIFICATE_BOUNDS["lyapunov"][0](a_norm)),
                          "pass": proved, "shift": shift}
    checks["lmi"]["nodes"] = lmi_eigs
    return checks
