import contextlib
import re

import numpy as np
import pytest
import scipy.linalg

from distobs import (
    NetworkGraph,
    Plant,
    certify,
    decompose_nodes,
    full_rank_factorize,
    laplacian,
    observability_decomposition,
    observability_matrix,
    perron_row_vector,
)
from distobs.linalg import StackError, numerical_rank


def random_strongly_connected_graph(rng, n_nodes: int) -> NetworkGraph:
    """Random digraph containing a Hamiltonian cycle plus extra edges."""
    w = np.zeros((n_nodes, n_nodes))
    perm = rng.permutation(n_nodes)
    for k in range(n_nodes):
        i, j = perm[k], perm[(k + 1) % n_nodes]
        if i != j:
            w[j, i] = rng.uniform(0.5, 2.0)
    for _ in range(n_nodes):
        i, j = rng.integers(0, n_nodes, size=2)
        if i != j:
            w[j, i] = rng.uniform(0.5, 2.0)
    return NetworkGraph(weights=w)


def random_observable_instance(rng, n=None, n_nodes=None, margin=1e-2):
    """Random observable (C, A) split over a random strongly connected graph.

    Resamples until every node's injection sub-pair has observability margin
    at least `margin` (smallest over largest singular value of its
    observability matrix), so the synthesized gains stay moderate.
    """
    n = int(n if n is not None else rng.integers(2, 7))
    n_nodes = int(n_nodes if n_nodes is not None else rng.integers(1, 5))
    m = int(rng.integers(n_nodes, n + n_nodes))
    while True:
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((m, n))
        if numerical_rank(observability_matrix(c, a)[None])[0] != n:
            continue
        if n_nodes > 1:
            cuts = sorted(rng.choice(np.arange(1, m), size=n_nodes - 1, replace=False))
        else:
            cuts = []
        rows = tuple(int(x) for x in np.diff([0, *cuts, m]))
        plant = Plant(a=a, c=c, node_rows=rows)
        if _well_conditioned(plant, margin):
            break
    graph = random_strongly_connected_graph(rng, n_nodes)
    return plant, graph


def _well_conditioned(plant, margin) -> bool:
    for i in range(plant.node_count):
        frf = full_rank_factorize(plant.c_block(i)[None])[0]
        dec = observability_decomposition(plant.a, frf.f_factor[None])[0]
        if dec.v_dim > dec.p_dim:
            obs = observability_matrix(dec.e_mat @ dec.a12, dec.a22)
            s = scipy.linalg.svdvals(obs)
            if s[-1] < margin * s[0]:
                return False
    return True


@contextlib.contextmanager
def raises_stack_error(pattern: str, index: int = 0):
    """The block raises StackError for node `index` of its stack, carrying a
    ValueError whose message matches `pattern` (re.search)."""
    with pytest.raises(StackError) as exc:
        yield exc
    assert exc.value.index == index
    assert isinstance(exc.value.error, ValueError)
    assert re.search(pattern, str(exc.value.error)), str(exc.value.error)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def standard_instance():
    """Deterministic n=4, N=3 directed cycle, single-row outputs."""
    rng = np.random.default_rng(7)
    n = 4
    while True:
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((3, n))
        if numerical_rank(observability_matrix(c, a)[None])[0] != n:
            continue
        plant = Plant(a=a, c=c, node_rows=(1, 1, 1))
        if _well_conditioned(plant, 1e-2):
            break
    w = np.zeros((3, 3))
    # directed cycle 1 -> 2 -> 3 -> 1, unit weights
    w[1, 0] = w[2, 1] = w[0, 2] = 1.0
    return plant, NetworkGraph(weights=w)


def mixed_structure_instance():
    """n=3, N=3 with one node of each structure: v > p with an unobservable
    direction (n - v = 1), full rank output (p = n, empty observer), and
    v = p (n - v = 2)."""
    a = np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -2.0]])
    c = np.vstack([[1.0, 0.0, 0.0], np.eye(3), [0.0, 0.0, 1.0]])
    w = np.zeros((3, 3))
    w[1, 0] = w[2, 1] = w[0, 2] = 1.0
    w[0, 1] = 0.5
    return Plant(a=a, c=c, node_rows=(1, 3, 1)), NetworkGraph(weights=w)


def one_partial_node_instance(rng, n: int, n_nodes: int):
    """Single-row outputs over a random strongly connected graph, where node 1
    sees only the first n // 2 states of a block lower triangular A, so that
    its v = n // 2 < n; generically every other node has v = n."""
    half = n // 2
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    a[:half, half:] = 0.0
    c = rng.standard_normal((n_nodes, n))
    c[0, half:] = 0.0
    plant = Plant(a=a, c=c, node_rows=(1,) * n_nodes)
    return plant, random_strongly_connected_graph(rng, n_nodes)


def certified(plant, graph, r):
    """certify's report on the design r, which may differ from what
    synthesize stored."""
    return certify(r, plant, laplacian(graph), *decompose_nodes(plant))


def mirror_laplacian(graph):
    """(Laplacian L, Perron row vector r, mirror Laplacian diag(r) L + L^T
    diag(r)) of a strongly connected graph, the mirror formed entrywise as
    r_i L_ij + L_ji r_j."""
    lap = laplacian(graph)
    r = perron_row_vector(lap)
    return lap, r, r[:, None] * lap + lap.T * r


def dense_coupling(r, lap):
    """The coupling blocks C_ij as one dense matrix,
    -gamma blkdiag(M_i) (diag(r) Lap (x) I_n)."""
    n = r.nodes[0].p_out.shape[0]
    m_blk = scipy.linalg.block_diag(*(g.m_gain for g in r.nodes))
    return -r.gamma * m_blk @ np.kron(np.diag(r.r_vector) @ lap, np.eye(n))


def stacked_errors(trace):
    """The error vectors col(xhat_1 - x, ..., xhat_N - x), one row per sample."""
    return np.hstack(trace.xhat) - np.tile(trace.x, len(trace.xhat))


def dense_g(r, lap):
    """G = blkdiag(N_i) T_s^T + [C_ij] and T_s = blkdiag(P_i), each assembled
    as one dense Nn-wide matrix.  The full error generator is T_s G."""
    t_s = scipy.linalg.block_diag(*(g.p_out for g in r.nodes))
    n_blk = scipy.linalg.block_diag(*(g.n_gain for g in r.nodes))
    return n_blk @ t_s.T + dense_coupling(r, lap), t_s
