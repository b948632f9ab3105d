"""Constructive design of the reduced-order distributed observer.

Per node the observer is
    z_i' = N_i z_i + L_i y_i + gamma * r_i * M_i * sum_j a_ij (xhat_j - xhat_i)
    xhat_i = P_i z_i + Q_i y_i
with z_i of dimension n - p_i, so the total observer order is N*n - sum p_i.

The per-node stages run once per group of nodes of equal shape: the
factorization over nodes with equal m_i, the decomposition over equal p_i,
and the injection, Lyapunov weight and gains over equal (m_i, p_i, v_i), each
group as one stack (see linalg).  place_injection, solve_pie and
assemble_gains take such a group, and stay per node only in their LAPACK
calls.  NodeDecomposition and NodeGains are the per-node records, views into
their group's stacks.  When nodes fail, the error names the lowest-numbered
one at its first failing step, as a node-by-node loop would.  gamma is in
closed form: GAMMA_SAFETY times the least gain that the unobservable blocks
allow, from one symmetric eigenvalue per node with v_i < n.  The
certificates are error_system's: synthesize checks its design with
error_system.certify() and designs with its lemma weights, the ones that
certify() judges with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .error_system import _lemma_weights, certify
from .graph import GraphSpectralData, GraphStructureError, NetworkGraph, spectral_data
from .linalg import (
    FullRankFactorization,
    NodeDecomposition,
    StackError,
    _each,
    _eigvalsh,
    _fail_first,
    _fields,
    _min_symmetric_eigenvalue_in_place,
    _node_groups,
    full_rank_factorize,
    min_energy_injection,
    numerical_rank,
    observability_decomposition,
    observability_matrix,
    solve_lyapunov,
    spectral_abscissa,
)

# least beta = gamma * epsilon - 2 alpha, which must be positive
BETA_FLOOR = 1e-6
# epsilon as a fraction of the lemma matrix's smallest eigenvalue
EPSILON_FRACTION = 0.9
# inflation of the near-minimal coupling gain
GAMMA_SAFETY = 1.25
# margin beyond alpha of the shift at which place_injection reflects the modes
INJECTION_MARGIN = 0.05


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
    """Complete distributed observer: per-node gains plus global scalars.
    certificate is synthesize's certify() report, not in the gains file."""

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
) -> float:
    """Strict-positivity margin of T^T (mirror (x) I_n) T + G, scaled down.

    G stacks per-node diag(g_i I_v, 0).  The returned epsilon is
    EPSILON_FRACTION times the smallest eigenvalue, so the strict inequality
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
    return float(EPSILON_FRACTION * lam_min)


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


def select_gamma(
    decomps: list[NodeDecomposition], epsilon: float, alpha: float
) -> float:
    """Near-minimal coupling gain, inflated by GAMMA_SAFETY.

    Each node with v < n needs beta = gamma epsilon - 2 alpha > 0 with
    S(beta) = A_u^T + A_u - beta I + A_32 A_32^T / beta < 0.  For beta > 0,
    -S(beta) is the Schur complement of beta I in beta I - M, with
    M = [[0, A_32^T], [A_32, A_u + A_u^T]], so S(beta) < 0 exactly when
    beta > lambda_max(M) (Boyd, El Ghaoui, Feron and Balakrishnan 1994, sec. 2.1).
    BETA_FLOOR stays to keep beta positive: beta is BETA_FLOOR where every
    lambda_max(M) <= 0 or every v = n.  gamma > 2 alpha gives solve_pie
    positive definite Lyapunov forcing.
    """
    beta = max([BETA_FLOOR] + [_least_beta(d.a_u, d.a32)
                               for d in decomps if d.v_dim < d.n_dim])
    return float(GAMMA_SAFETY * max((beta + 2.0 * alpha) / epsilon, 2.0 * alpha, BETA_FLOOR))


def _least_beta(a_u: np.ndarray, a32: np.ndarray) -> float:
    """lambda_max([[0, A_32^T], [A_32, A_u + A_u^T]]), the least beta of a
    node with v < n (select_gamma)."""
    k = a32.shape[1]
    m = np.zeros((k + len(a_u),) * 2)
    m[k:, :k] = a32
    m[:k, k:] = a32.T
    m[k:, k:] = a_u + a_u.T
    return float(_eigvalsh(m)[-1])


def place_injection(a22: np.ndarray, ea12: np.ndarray, alpha: float) -> np.ndarray:
    """Output injection H with spectral abscissa of a22 - H ea12 below -alpha,
    of each node of the stacks of a22 and ea12.

    H is the minimum-energy injection (linalg.min_energy_injection) at the
    shift s = alpha + INJECTION_MARGIN: each eigenvalue lambda of a22 with
    real part above -s moves to -2 s - conj(lambda), and the others stay, so
    H = 0 on a node whose a22 already decays faster than s.  In exact
    arithmetic the closed loop's abscissa is then at most -s; StackError when
    the pair is not observable, when the injection cannot be computed, and
    when the computed H misses -alpha, naming the abscissa it reached.
    """
    count, k, _ = a22.shape
    if k == 0:
        return np.zeros((count, 0, ea12.shape[1]))
    observable = numerical_rank(observability_matrix(ea12, a22)) == k
    _fail_first(~observable, lambda _: ValueError(
        "injection pair is not observable (decomposition bug)"))
    h = min_energy_injection(a22 + (alpha + INJECTION_MARGIN) * np.eye(k), ea12)
    reached = spectral_abscissa(a22 - h @ ea12)
    _fail_first(~(reached < -alpha), lambda j: ValueError(
        f"injection placement reached abscissa {reached[j]:.3g}, "
        f"target below {-alpha:.3g}"))
    return h


def solve_pie(
    a22: np.ndarray, ea12: np.ndarray, h: np.ndarray, gamma: float, alpha: float
) -> np.ndarray:
    """Positive definite solution of the shifted Lyapunov equation
    (a22 - H ea12 + alpha I)^T P + P (...) + (gamma - 2 alpha) I = 0, of each
    node of the stacks of a22, ea12 and H."""
    count, k, _ = a22.shape
    if k == 0:
        return np.zeros((count, 0, 0))
    if gamma <= 2.0 * alpha:
        raise StackError(0, ValueError(
            "gamma too small for positive definite Lyapunov forcing"))
    closed = a22 - h @ ea12 + alpha * np.eye(k)
    return solve_lyapunov(closed, (gamma - 2.0 * alpha) * np.eye(k))


def _inverses(m: np.ndarray) -> np.ndarray:
    """np.linalg.inv of each node of a stack; the StackError of the first
    singular one."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        _each(np.linalg.inv, m)
        raise


def assemble_gains(decomps, frfs, h: np.ndarray, pie: np.ndarray) -> list[NodeGains]:
    """Evaluate the closed-form gain formulas for lists of equally shaped
    decompositions and factorizations with stacks of H and P_ie: a list of
    gains, views into one stack per gain.

    When v = p the middle block is void (H and P_ie are empty) and the
    formulas reduce to N = A_u, L = A_31 E^-1 D^+, M = T_s^T.
    """
    d0 = decomps[0]
    n, v, p = d0.n_dim, d0.v_dim, d0.p_dim
    k = v - p
    count = len(decomps)
    e_mat, at, t_orth = (_fields(decomps, name) for name in ("e_mat", "a_transformed", "t_orth"))
    e_inv = _inverses(e_mat)
    d_dag = np.linalg.pinv(_fields(frfs, "d_factor"))
    t_is = t_orth[:, :, p:]
    he = h @ e_mat

    # with S = [0; I]: N = S^T (T^T A T) S = [[a22, 0], [a32, a_u]] less H E a12
    # in its first v - p rows, L's factor [a21; a31] less H E a11 there, and
    # blkdiag(P_ie^-1, I)
    n_gain = at[:, p:, p:].copy()
    n_gain[:, :k, :k] -= he @ at[:, :p, p:v]
    l_factor = at[:, p:, :p].copy()
    l_factor[:, :k] -= he @ at[:, :p, :p]
    weight_inv = np.zeros((count, n - p, n - p))
    weight_inv[:, :k, :k] = _inverses(pie)
    weight_inv[:, k:, k:] = np.eye(n - v)
    k_mat = np.concatenate([e_inv, h, np.zeros((count, n - v, p))], axis=1) @ d_dag
    l_gain = l_factor @ e_inv @ d_dag + n_gain @ k_mat[:, p:, :]
    m_gain = weight_inv @ t_is.transpose(0, 2, 1)
    p_out = t_is.copy()
    q_out = t_orth @ k_mat

    return [NodeGains(n_gain=n_gain[j], l_gain=l_gain[j], m_gain=m_gain[j], p_out=p_out[j],
                      q_out=q_out[j], k_mat=k_mat[j], h_inj=h[j], p_ie=pie[j], p_dim=p,
                      v_dim=v)
            for j in range(count)]


def _stacked_stage(step: str, nodes, key, run, failure: list) -> dict:
    """{node: result} of run(group), a stacked call, on each group of `nodes`
    with equal key(node).

    A StackError at position j of a group means that node group[j] fails at
    `step`.  `failure` holds the lowest failing node so far as [node, step,
    error]; the nodes after it are dropped and the ones before it run again,
    so that it ends as the node that a node-by-node loop would name, with the
    error that loop would raise.
    """
    results = {}
    for group in _node_groups([key(i) for i in nodes]):
        group = [nodes[j] for j in group]
        while True:
            group = [i for i in group if not failure or i < failure[0]]
            if not group:
                break
            try:
                results.update(zip(group, run(group)))
                break
            except StackError as exc:
                failure[:] = [group[exc.index], step, exc.error]
    return results


def _raise_failure(failure: list) -> None:
    if failure:
        node, step, error = failure
        raise SynthesisError(step, f"node {node + 1}: {error}") from error


def decompose_nodes(
    plant: Plant,
) -> tuple[list[FullRankFactorization], list[NodeDecomposition]]:
    """Factorize every C_i = D_i F_i and decompose (F_i, A) by observability,
    one stack of equally shaped nodes at a time.

    Raises SynthesisError tagged "factorization" or "decomposition" with the
    1-based node that failed: the lowest-numbered failing node, at its first
    failing step.
    """
    starts = np.cumsum((0,) + plant.node_rows)
    failure: list = []
    frfs = _stacked_stage(
        "factorization", list(range(plant.node_count)), lambda i: plant.node_rows[i],
        lambda group: full_rank_factorize(
            plant.c[starts[group][:, None] + np.arange(plant.node_rows[group[0]])]),
        failure)
    decomps = _stacked_stage(
        "decomposition", sorted(frfs),
        lambda i: (frfs[i].f_factor.shape, frfs[i].f_factor.strides),
        lambda group: observability_decomposition(
            plant.a, _fields([frfs[i] for i in group], "f_factor")),
        failure)
    _raise_failure(failure)
    return ([frfs[i] for i in range(plant.node_count)],
            [decomps[i] for i in range(plant.node_count)])


def _design(decomps, frfs, alpha: float, gamma: float) -> list[NodeGains]:
    """Injection, Lyapunov weight and gains of equally shaped nodes."""
    p, v = decomps[0].p_dim, decomps[0].v_dim
    at = _fields(decomps, "a_transformed")
    a22 = at[:, p:v, p:v]
    ea12 = _fields(decomps, "e_mat") @ at[:, :p, p:v]
    h = place_injection(a22, ea12, alpha)
    pie = solve_pie(a22, ea12, h, gamma, alpha)
    return assemble_gains(decomps, frfs, h, pie)


def _checked_alpha(alpha: float) -> float:
    """alpha, the required decay rate, if it is a finite and nonnegative
    number: a boolean or a string is not one."""
    if isinstance(alpha, (bool, str)) or not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and nonnegative, not {alpha!r}")
    return alpha


def synthesize(
    plant: Plant, graph: NetworkGraph, alpha: float = 0.0
) -> ObserverRealization:
    """Run the full constructive design for the rate alpha and certify the result.

    Each node's injection H_i is the minimum-energy one at the shift
    alpha + INJECTION_MARGIN (place_injection), which moves only the modes
    of its a22 that decay slower than that shift.  The design's constants
    are EPSILON_FRACTION, GAMMA_SAFETY, INJECTION_MARGIN, unit lemma weights
    g_i and linalg.RANK_TOL.
    Raises ValueError on an alpha that is negative or not finite, and
    SynthesisError (with a step tag) when the standing assumptions fail:
    graph not strongly connected, (C, A) not observable, or a node with zero
    output matrix.
    """
    alpha = _checked_alpha(alpha)
    big_n = plant.node_count
    if graph.node_count != big_n:
        raise SynthesisError("input", "graph node count does not match output partition")

    try:
        spectral = spectral_data(graph)
    except GraphStructureError as exc:
        raise SynthesisError("graph", str(exc)) from exc

    obs = observability_matrix(plant.c, plant.a)
    if not np.isfinite(obs).all():
        raise SynthesisError("observability", "the observability matrix of (C, A) overflows")
    if numerical_rank(obs[None])[0] != plant.n:
        raise SynthesisError("observability", "(C, A) is not observable")

    frfs, decomps = decompose_nodes(plant)
    epsilon = compute_epsilon(decomps, spectral, _lemma_weights(big_n))
    gamma = select_gamma(decomps, epsilon, alpha)

    failure: list = []
    gains = _stacked_stage(
        "gains", list(range(big_n)),
        lambda i: (plant.node_rows[i], decomps[i].p_dim, decomps[i].v_dim),
        lambda group: _design([decomps[i] for i in group], [frfs[i] for i in group],
                              alpha, gamma),
        failure)
    _raise_failure(failure)
    nodes = [gains[i] for i in range(big_n)]

    realization = ObserverRealization(
        nodes=tuple(nodes),
        gamma=gamma,
        epsilon=epsilon,
        r_vector=spectral.perron_row.copy(),
        alpha=alpha,
    )
    certificate = certify(realization, plant, spectral, frfs, decomps)
    return replace(realization, certificate=certificate)
