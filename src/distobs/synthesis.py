"""Constructive design of the reduced-order distributed observer.

Per node the observer is
    z_i' = N_i z_i + L_i y_i + gamma * r_i * M_i * sum_j a_ij (xhat_j - xhat_i)
    xhat_i = P_i z_i + Q_i y_i
with z_i of dimension n - p_i, so the total observer order is N*n - sum p_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import GraphSpectralData, GraphStructureError, NetworkGraph, spectral_data
from .linalg import (
    FullRankFactorization,
    NodeDecomposition,
    _eigvalsh,
    _min_symmetric_eigenvalue_in_place,
    full_rank_factorize,
    numerical_rank,
    observability_decomposition,
    observability_matrix,
    solve_care,
    solve_lyapunov,
    spectral_abscissa,
)

# smallest bisection bracket for the coupling-gain scalar test
BETA_FLOOR = 1e-6
# epsilon as a fraction of the lemma matrix's smallest eigenvalue
EPSILON_FRACTION = 0.9
# inflation of the near-minimal coupling gain
GAMMA_SAFETY = 1.25
# margin beyond alpha that place_injection's Riccati solve aims at
INJECTION_MARGIN = 0.5


class SynthesisError(RuntimeError):
    """Design failure carrying the pipeline step at which it occurred."""

    def __init__(self, step: str, message: str):
        super().__init__(message)
        self.step = step
        self.message = message


@dataclass(frozen=True)
class Plant:
    """Autonomous LTI plant x' = Ax, y = Cx with C row-partitioned over nodes."""

    a: np.ndarray
    c: np.ndarray
    node_rows: tuple[int, ...]

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if c.shape[1] != a.shape[0]:
            raise ValueError("C must have as many columns as A")
        rows = tuple(int(r) for r in self.node_rows)
        if any(r < 1 for r in rows):
            raise ValueError("each node must own at least one output row")
        if sum(rows) != c.shape[0]:
            raise ValueError("node output row counts must sum to the rows of C")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(c))):
            raise ValueError("plant matrices must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "node_rows", rows)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def node_count(self) -> int:
        return len(self.node_rows)

    def c_block(self, i: int) -> np.ndarray:
        start = sum(self.node_rows[:i])
        return self.c[start : start + self.node_rows[i], :]


@dataclass(frozen=True)
class NodeGains:
    """Gain matrices of one local observer (N, L, M, P, Q, K, H)."""

    n_gain: np.ndarray
    l_gain: np.ndarray
    m_gain: np.ndarray
    p_out: np.ndarray
    q_out: np.ndarray
    k_mat: np.ndarray
    h_inj: np.ndarray
    p_ie: np.ndarray
    p_dim: int
    v_dim: int


@dataclass(frozen=True)
class ObserverRealization:
    """Complete distributed observer: per-node gains plus global scalars."""

    nodes: tuple[NodeGains, ...]
    gamma: float
    epsilon: float
    r_vector: np.ndarray
    alpha: float
    certificate: dict = field(default_factory=dict)

    @property
    def total_order(self) -> int:
        return sum(g.n_gain.shape[0] for g in self.nodes)


def compute_epsilon(
    decomps: list[NodeDecomposition],
    spectral: GraphSpectralData,
    g_weights,
    epsilon_fraction: float,
) -> float:
    """Strict-positivity margin of T^T (mirror (x) I_n) T + G, scaled down.

    G stacks per-node diag(g_i I_v, 0).  The returned epsilon is
    epsilon_fraction times the smallest eigenvalue, so the strict inequality
    holds with margin at the returned value.

    When every node has v = n, T = blkdiag(T_i) is orthogonal and
    G = diag(g) (x) I_n, so the lemma matrix is similar to
    (mirror + diag g) (x) I_n and the N x N factor gives the eigenvalue.
    Otherwise the Nn x Nn lemma matrix is formed.
    """
    mirror = spectral.mirror
    if all(d.v_dim == d.n_dim for d in decomps):
        lam_min = _min_symmetric_eigenvalue_in_place(mirror + np.diag(g_weights))
    else:
        lam_min = _lemma_min_eigenvalue(decomps, mirror, g_weights)
    if lam_min <= 0:
        raise SynthesisError(
            "epsilon",
            "joint observability violated or graph not strongly connected "
            f"(lambda_min = {lam_min:.3e})",
        )
    return float(epsilon_fraction * lam_min)


def _lemma_min_eigenvalue(decomps, mirror, g_weights) -> float:
    """Smallest eigenvalue of the Nn x Nn lemma matrix T^T (mirror (x) I_n) T + G."""
    n = decomps[0].n_dim
    big_n = len(decomps)

    def block(i, j):
        blk = mirror[i, j] * (decomps[i].t_orth.T @ decomps[j].t_orth)
        if i == j:
            g_blk = np.zeros(n)
            g_blk[: decomps[i].v_dim] = g_weights[i]
            blk += np.diag(g_blk)
        return blk

    # Only the blocks at the mirror's nonzeros (and the diagonal, which
    # carries G) are nonzero.  Each is symmetrized as 0.5 (m + m^T) would.
    m = np.zeros((big_n * n, big_n * n))
    pattern = (mirror != 0) | (mirror.T != 0) | np.eye(big_n, dtype=bool)
    for i, j in zip(*np.nonzero(np.triu(pattern))):
        sym = 0.5 * (block(i, j) + block(j, i).T)
        m[i * n : (i + 1) * n, j * n : (j + 1) * n] = sym
        m[j * n : (j + 1) * n, i * n : (i + 1) * n] = sym.T
    # m is built exactly symmetric and is this function's own: LAPACK overwrites it
    return _min_symmetric_eigenvalue_in_place(m)


def _beta_feasible(beta: float, sym_u: np.ndarray, a32_gram: np.ndarray) -> bool:
    m = sym_u + a32_gram / beta
    return float(_eigvalsh(0.5 * (m + m.T))[-1]) < beta


def _min_beta_for_node(decomp: NodeDecomposition) -> float:
    """Minimal beta = gamma*eps - 2*alpha making the unobservable-block
    inequality A_u^T + A_u - beta I + (1/beta) A_32 A_32^T < 0 hold."""
    a_u, a32 = decomp.a_u, decomp.a32
    if a_u.size == 0:
        return 0.0
    sym_u = a_u + a_u.T
    gram = a32 @ a32.T if a32.shape[1] > 0 else np.zeros_like(sym_u)
    lo = BETA_FLOOR
    if _beta_feasible(lo, sym_u, gram):
        return lo
    hi = 1.0
    while not _beta_feasible(hi, sym_u, gram):
        hi *= 2.0
    while (hi - lo) > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if _beta_feasible(mid, sym_u, gram):
            hi = mid
        else:
            lo = mid
    return hi


def select_gamma(
    decomps: list[NodeDecomposition],
    epsilon: float,
    alpha: float,
    gamma_safety: float,
) -> float:
    """Near-minimal coupling gain: bisection on beta per node, safety-inflated.

    Enforces gamma > 2*alpha/epsilon (beta > 0) and gamma > 2*alpha (positive
    definite Lyapunov forcing in the later solve).
    """
    beta = max((_min_beta_for_node(d) for d in decomps), default=0.0)
    beta = max(beta, BETA_FLOOR)
    gamma_min = max((beta + 2.0 * alpha) / epsilon, 2.0 * alpha)
    return float(gamma_safety * max(gamma_min, BETA_FLOOR))


def place_injection(a22: np.ndarray, ea12: np.ndarray, alpha: float) -> np.ndarray:
    """Output injection H with spectral abscissa of a22 - H ea12 below -alpha.

    One Riccati solve stabilizes the dual pair shifted by alpha +
    INJECTION_MARGIN.  In exact arithmetic its stabilizing solution puts the
    closed loop's abscissa below -alpha - INJECTION_MARGIN; ValueError when
    the computed H misses -alpha, naming the abscissa it reached, and on a
    Riccati solve that fails.
    """
    k = a22.shape[0]
    if k == 0:
        return np.zeros((0, ea12.shape[0]))
    if numerical_rank(observability_matrix(ea12, a22)) != k:
        raise ValueError("injection pair is not observable (decomposition bug)")
    b_dual = ea12.T
    x = solve_care(a22.T + (alpha + INJECTION_MARGIN) * np.eye(k), b_dual)
    h = (b_dual.T @ x).T
    reached = spectral_abscissa(a22 - h @ ea12)
    if not reached < -alpha:
        raise ValueError(f"injection placement reached abscissa {reached:.3g}, "
                         f"target below {-alpha:.3g}")
    return h


def solve_pie(
    a22: np.ndarray, ea12: np.ndarray, h: np.ndarray, gamma: float, alpha: float
) -> np.ndarray:
    """Positive definite solution of the shifted Lyapunov equation
    (a22 - H ea12 + alpha I)^T P + P (...) + (gamma - 2 alpha) I = 0."""
    k = a22.shape[0]
    if k == 0:
        return np.zeros((0, 0))
    if gamma <= 2.0 * alpha:
        raise ValueError("gamma too small for positive definite Lyapunov forcing")
    closed = a22 - h @ ea12 + alpha * np.eye(k)
    return solve_lyapunov(closed, (gamma - 2.0 * alpha) * np.eye(k))


def assemble_gains(
    decomp: NodeDecomposition,
    frf: FullRankFactorization,
    h: np.ndarray,
    pie: np.ndarray,
) -> NodeGains:
    """Evaluate the closed-form gain formulas for one node.

    When v = p the middle block is void (H and P_ie are empty) and the
    formulas reduce to N = A_u, L = A_31 E^-1 D^+, M = T_s^T.
    """
    n, v, p = decomp.n_dim, decomp.v_dim, decomp.p_dim
    k = v - p
    e_inv = np.linalg.inv(decomp.e_mat)
    d_dag = np.linalg.pinv(frf.d_factor)
    t_is = decomp.t_s

    # N = [[a22 - H E a12, 0], [a32, a_u]] and blkdiag(P_ie^-1, I), block by block
    n_gain = np.zeros((n - p, n - p))
    n_gain[:k, :k] = decomp.a22 - h @ decomp.e_mat @ decomp.a12
    n_gain[k:, :k] = decomp.a32
    n_gain[k:, k:] = decomp.a_u
    weight_inv = np.zeros((n - p, n - p))
    weight_inv[:k, :k] = np.linalg.inv(pie)
    weight_inv[k:, k:] = np.eye(n - v)
    k_mat = np.vstack([e_inv, h, np.zeros((n - v, p))]) @ d_dag
    l_gain = (
        np.vstack([decomp.a21 - h @ decomp.e_mat @ decomp.a11, decomp.a31])
        @ e_inv
        @ d_dag
        + n_gain @ k_mat[p:, :]
    )
    m_gain = weight_inv @ t_is.T

    return NodeGains(
        n_gain=n_gain,
        l_gain=l_gain,
        m_gain=m_gain,
        p_out=t_is.copy(),
        q_out=decomp.t_orth @ k_mat,
        k_mat=k_mat,
        h_inj=h,
        p_ie=pie,
        p_dim=p,
        v_dim=v,
    )


def verify_cancellation(
    gains: NodeGains, decomp: NodeDecomposition, frf: FullRankFactorization
) -> float:
    """Frobenius norm of the state-dependence cancellation identity.

    The identity (S L - S N S^T K) D F T + S N S^T + (K D F T - I) T^T A T
    must vanish for the assembled gains.
    """
    n, p = decomp.n_dim, decomp.p_dim
    s = np.vstack([np.zeros((p, n - p)), np.eye(n - p)])
    dft = frf.d_factor @ frf.f_factor @ decomp.t_orth
    at = decomp.a_transformed
    lhs = (
        (s @ gains.l_gain - s @ gains.n_gain @ s.T @ gains.k_mat) @ dft
        + s @ gains.n_gain @ s.T
        + (gains.k_mat @ dft - np.eye(n)) @ at
    )
    return float(np.linalg.norm(lhs))


def verify_lmi_th1(
    p_ies: list[np.ndarray],
    h_injs: list[np.ndarray],
    decomps: list[NodeDecomposition],
    gamma: float,
    epsilon: float,
    alpha: float,
    g_weights,
) -> tuple[bool, list[float]]:
    """Check each node's feasibility LMI at its design (P_ie, H).

    The LMI is taken at P_iu = I and W_i = P_ie H_i.  Returns (all negative
    definite, worst eigenvalue per node).  Empty node blocks (p = n) report
    -inf, and a P_ie that is not positive definite reports +inf.
    """
    worst = []
    for pie, h, decomp, g_i in zip(p_ies, h_injs, decomps, g_weights):
        n, v, p = decomp.n_dim, decomp.v_dim, decomp.p_dim
        if n - p == 0:
            worst.append(-np.inf)
            continue
        if pie.size and _eigvalsh(0.5 * (pie + pie.T))[0] <= 0:
            worst.append(np.inf)
            continue
        w = pie @ h
        ea12 = decomp.e_mat @ decomp.a12
        phi = (
            pie @ decomp.a22
            + decomp.a22.T @ pie
            - w @ ea12
            - ea12.T @ w.T
            + 2.0 * alpha * pie
        )
        a_u = decomp.a_u
        k = v - p
        blk = np.empty((n - p, n - p))
        blk[:k, :k] = phi + gamma * g_i * np.eye(k)
        blk[:k, k:] = decomp.a32.T
        blk[k:, :k] = decomp.a32
        blk[k:, k:] = a_u.T + a_u + 2.0 * alpha * np.eye(n - v)
        blk -= gamma * epsilon * np.eye(n - p)
        blk = 0.5 * (blk + blk.T)
        worst.append(float(_eigvalsh(blk)[-1]))
    return all(w < 0 for w in worst), worst


def decompose_nodes(
    plant: Plant,
) -> tuple[list[FullRankFactorization], list[NodeDecomposition]]:
    """Factorize every C_i = D_i F_i and decompose (F_i, A) by observability.

    Raises SynthesisError tagged "factorization" or "decomposition" with the
    1-based node that failed.
    """
    frfs, decomps = [], []
    for i in range(plant.node_count):
        try:
            frf = full_rank_factorize(plant.c_block(i))
        except ValueError as exc:
            raise SynthesisError("factorization", f"node {i + 1}: {exc}") from exc
        try:
            decomp = observability_decomposition(plant.a, frf.f_factor)
        except ValueError as exc:
            raise SynthesisError("decomposition", f"node {i + 1}: {exc}") from exc
        frfs.append(frf)
        decomps.append(decomp)
    return frfs, decomps


def _lemma_weights(node_count: int) -> np.ndarray:
    """The lemma weights g_i of the design, one per node; certify() judges
    with the same."""
    return np.ones(node_count)


def _checked_alpha(alpha: float) -> float:
    """alpha, the required decay rate, if it is finite and nonnegative."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and nonnegative, not {alpha!r}")
    return alpha


def synthesize(
    plant: Plant, graph: NetworkGraph, alpha: float = 0.0
) -> ObserverRealization:
    """Run the full constructive design for the rate alpha and certify the result.

    The design's constants are EPSILON_FRACTION, GAMMA_SAFETY,
    INJECTION_MARGIN, unit lemma weights g_i and linalg.DEFAULT_RANK_TOL.
    Raises ValueError on an alpha that is negative or not finite, and
    SynthesisError (with a step tag) when the standing assumptions fail:
    graph not strongly connected, (C, A) not observable, or a node with zero
    output matrix.
    """
    from .error_system import certify

    alpha = _checked_alpha(alpha)
    big_n = plant.node_count
    if graph.node_count != big_n:
        raise SynthesisError("input", "graph node count does not match output partition")

    try:
        spectral = spectral_data(graph)
    except GraphStructureError as exc:
        raise SynthesisError("graph", str(exc)) from exc

    if numerical_rank(observability_matrix(plant.c, plant.a)) != plant.n:
        raise SynthesisError("observability", "(C, A) is not observable")

    frfs, decomps = decompose_nodes(plant)
    epsilon = compute_epsilon(decomps, spectral, _lemma_weights(big_n), EPSILON_FRACTION)
    gamma = select_gamma(decomps, epsilon, alpha, GAMMA_SAFETY)

    nodes = []
    for i, (frf, decomp) in enumerate(zip(frfs, decomps)):
        try:
            ea12 = decomp.e_mat @ decomp.a12
            h = place_injection(decomp.a22, ea12, alpha)
            pie = solve_pie(decomp.a22, ea12, h, gamma, alpha)
            nodes.append(assemble_gains(decomp, frf, h, pie))
        except ValueError as exc:
            raise SynthesisError("gains", f"node {i + 1}: {exc}") from exc

    realization = ObserverRealization(
        nodes=tuple(nodes),
        gamma=gamma,
        epsilon=epsilon,
        r_vector=spectral.perron_row.copy(),
        alpha=alpha,
    )
    certificate = certify(realization, plant, spectral, frfs, decomps)
    return replace(realization, certificate=certificate)
