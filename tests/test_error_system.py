import copy
import dataclasses
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg

from distobs import (
    NetworkGraph,
    Plant,
    certify,
    compute_epsilon,
    decompose_nodes,
    error_system,
    restricted_generator,
    spectral_abscissa,
    spectral_data,
    synthesize,
)
from distobs.linalg import _cholesky_shift
from distobs.simulate import _generator

from conftest import (
    dense_coupling,
    dense_g,
    mixed_structure_instance,
    one_partial_node_instance,
    random_observable_instance,
    random_strongly_connected_graph,
    standard_instance,
)


def synthesized(rng=None, alpha=0.5, **kwargs):
    if rng is None:
        plant, graph = standard_instance()
    else:
        plant, graph = random_observable_instance(rng, **kwargs)
    r = synthesize(plant, graph, alpha=alpha)
    return plant, graph, r


def restricted(r, graph):
    return restricted_generator(r, spectral_data(graph).laplacian)


class TestBuildErrorSystem:
    """The restricted generator R against the full error generator T_s G,
    assembled densely on the test side."""

    def test_single_node_no_coupling(self):
        plant = Plant(a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                      c=np.array([[1.0, 0.0]]), node_rows=(1,))
        graph = NetworkGraph(weights=np.zeros((1, 1)))
        r = synthesize(plant, graph, alpha=1.0)
        np.testing.assert_allclose(restricted(r, graph), r.nodes[0].n_gain,
                                   atol=1e-12)
        g_mat, t_s = dense_g(r, spectral_data(graph).laplacian)
        t1s = r.nodes[0].p_out
        np.testing.assert_allclose(
            t_s @ g_mat, t1s @ r.nodes[0].n_gain @ t1s.T, atol=1e-12
        )

    def test_gamma_zero_decouples(self, rng):
        plant, graph, r = synthesized(rng, alpha=0.0, n=3, n_nodes=2)
        r0 = dataclasses.replace(r, gamma=0.0)
        expected = scipy.linalg.block_diag(*(g.n_gain for g in r0.nodes))
        np.testing.assert_allclose(restricted(r0, graph), expected, atol=1e-12)

    def test_invariance_identities(self):
        plant, graph, r = synthesized(alpha=0.5)
        g_mat, t_s = dense_g(r, spectral_data(graph).laplacian)
        _, decomps = decompose_nodes(plant)
        t_p = scipy.linalg.block_diag(*(d.t_p for d in decomps))
        full, r_mat = t_s @ g_mat, restricted(r, graph)
        assert np.linalg.norm(full @ t_s - t_s @ r_mat) <= 1e-9
        assert np.linalg.norm(t_p.T @ full @ t_s) <= 1e-9
        np.testing.assert_allclose(t_s.T @ t_s, np.eye(t_s.shape[1]), atol=1e-12)

    def test_spectrum_split(self, rng):
        for _ in range(6):
            plant, graph, r = synthesized(rng, alpha=0.5, n=int(rng.integers(2, 6)),
                                          n_nodes=int(rng.integers(1, 4)))
            g_mat, t_s = dense_g(r, spectral_data(graph).laplacian)
            full_eigs = np.sort_complex(np.linalg.eigvals(t_s @ g_mat))
            restr_eigs = np.linalg.eigvals(restricted(r, graph))
            p_total = sum(g.p_dim for g in r.nodes)
            expected = np.sort_complex(
                np.concatenate([restr_eigs, np.zeros(p_total, dtype=complex)])
            )
            np.testing.assert_allclose(full_eigs, expected, atol=1e-8)

    def test_restricted_is_simulator_observer_block(self, rng):
        """The simulator integrates exactly the R that certify() checks."""
        for plant, graph, r in reference_instances(rng):
            block = _generator(r, plant, graph)[0][plant.n :, plant.n :]
            assert np.array_equal(restricted(r, graph), block)


class TestCertifyRate:
    """The exact spectral abscissa of R, the dense reference for the decay
    rate."""

    def test_synthesized_instance_passes(self):
        plant, graph, r = synthesized(alpha=1.0)
        assert spectral_abscissa(restricted(r, graph)[None])[0] < -1.0

    def test_decoupled_unstable_block_fails(self):
        # node 2 cannot observe the unstable mode; without coupling it stays
        a = np.diag([1.0, -1.0])
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        plant = Plant(a=a, c=c, node_rows=(1, 1))
        graph = NetworkGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        r = synthesize(plant, graph, alpha=0.0)
        r0 = dataclasses.replace(r, gamma=0.0)
        assert not spectral_abscissa(restricted(r0, graph)[None])[0] < 0.0


def certified_at(plant, graph, r, alpha):
    """certify's report on the design r, judged at alpha."""
    frfs, decomps = decompose_nodes(plant)
    return certify(dataclasses.replace(r, alpha=alpha), plant, spectral_data(graph),
                   frfs, decomps)


def lyapunov_at(plant, graph, r, alpha):
    """certify's Lyapunov check for the design r at alpha."""
    return certified_at(plant, graph, r, alpha)["lyapunov"]


class TestLyapunovDecrease:
    def test_synthesized_instance_negative(self):
        plant, graph, r = synthesized(alpha=0.5)
        assert lyapunov_at(plant, graph, r, 0.5)["pass"]

    def test_fails_beyond_achieved_rate(self):
        plant, graph, r = synthesized(alpha=0.5)
        alpha_too_big = -spectral_abscissa(restricted(r, graph)[None])[0] * 4.0
        check = lyapunov_at(plant, graph, r, alpha_too_big)
        assert not check["pass"] and check["value"] > 0

    def test_agrees_with_rate_certificate(self, rng):
        for _ in range(8):
            plant, graph, r = synthesized(rng, alpha=0.5)
            if spectral_abscissa(restricted(r, graph)[None])[0] < -0.5:
                assert r.certificate["lyapunov"]["pass"]

    def test_matches_stacked_weight_sandwich(self, rng):
        """The reduced value equals the Nn-coordinate form T_s^T (P F + F^T P +
        2 alpha P) T_s with the stacked weight P_i = I + T_ie (P_ie - I) T_ie^T
        and F assembled with a dense Kronecker coupling.  A design passes at
        its own alpha, where the proof measures no value, so the value is
        compared beyond the abscissa's rate, where the check fails."""
        instances = [standard_instance()] + [
            random_observable_instance(rng) for _ in range(6)]
        for plant, graph in instances:
            for alpha in (0.0, 0.5, 1.0):
                r = synthesize(plant, graph, alpha=alpha)
                spectral = spectral_data(graph)
                assert r.certificate["lyapunov"]["pass"]
                assert stacked_sandwich(r, spectral, alpha) < 0
                beyond = -4.0 * spectral_abscissa(restricted(r, graph)[None])[0]
                check = lyapunov_at(plant, graph, r, beyond)
                got, ref = check["value"], stacked_sandwich(r, spectral, beyond)
                assert not check["pass"]
                assert abs(got - ref) <= 1e-6 * abs(ref), (alpha, got, ref)


class TestCertifyAgreesWithPublicChecks:
    def test_same_values_and_caller_array_kept(self, rng):
        """certify's Lyapunov verdict, value and shift are those of the
        restricted generator bit for bit, at the design's alpha, where it
        passes, and beyond the abscissa's rate, where it fails; certify
        leaves the design's arrays as they were, although it overwrites its
        own R."""
        for plant, graph, r in reference_instances(rng):
            before = copy.deepcopy(r.nodes)
            beyond = -4.0 * spectral_abscissa(restricted(r, graph)[None])[0]
            for alpha, passes in ((r.alpha, True), (beyond, False)):
                check = certified_at(plant, graph, r, alpha)["lyapunov"]
                got = (check["pass"], check["value"], check["shift"])
                assert got == error_system._lyapunov_in_place(restricted(r, graph), r, alpha)
                assert check["pass"] == passes
            for g, kept in zip(r.nodes, before):
                for f in dataclasses.fields(g):
                    assert np.array_equal(getattr(g, f.name), getattr(kept, f.name))


class TestRateBound:
    """lyapunov certifies the decay rate: whenever it passes, with the
    positive definite weight that the lmi check requires, every eigenvalue
    of R has real part below -alpha."""

    def test_bounds_the_exact_abscissa(self, rng):
        seen = set()
        for plant, graph, r in reference_instances(rng):
            absc = spectral_abscissa(restricted(r, graph)[None])[0]
            alphas = (r.alpha, -0.9 * absc, -0.99 * absc, -4.0 * absc)
            verdicts = [certified_at(plant, graph, r, alpha)["lyapunov"]["pass"]
                        for alpha in alphas]
            # the design passes at its own alpha, and no weight certifies a
            # rate beyond the abscissa, so at -4 absc lyapunov fails
            assert verdicts[0] and not verdicts[-1]
            for alpha, passes in zip(alphas, verdicts):
                if passes:
                    assert absc < -alpha, (alpha, absc)
            seen.update(verdicts)
        assert seen == {True, False}

    def test_empty_generator_reads_minus_inf(self):
        plant = Plant(a=np.array([[0.0, 1.0], [-1.0, 0.0]]), c=np.eye(2),
                      node_rows=(2,))
        graph = NetworkGraph(weights=np.zeros((1, 1)))
        r = synthesize(plant, graph, alpha=0.5)
        assert r.total_order == 0
        assert r.certificate["lyapunov"]["value"] == -np.inf
        assert r.certificate["lyapunov"]["pass"]


def planted(k, top):
    """An exactly symmetric matrix of order k with the eigenvalues -1 to -2
    and top, the same eigenvectors for every top, and its dense top
    eigenvalue."""
    q = np.linalg.qr(np.random.default_rng([71, k]).standard_normal((k, k)))[0]
    m = (q * np.append(-np.linspace(1.0, 2.0, k - 1), top)) @ q.T
    m = 0.5 * (m + m.T)
    return m, scipy.linalg.eigvalsh(m)[-1]


def lyapunov_of(m):
    """The Lyapunov check of the symmetric m: R = m / 2 on one node with no
    P_ie rows, so W = I, at alpha = 0, so that its M is m bit for bit."""
    node = types.SimpleNamespace(p_ie=np.zeros((0, 0)), n_gain=m)
    return error_system._lyapunov_in_place(0.5 * m, types.SimpleNamespace(nodes=[node]), 0.0)


class TestShiftedCholesky:
    """The Lyapunov check proves M < 0 by a Cholesky factorization of
    -M - c I, so a top eigenvalue inside (-c, 0) is not proved."""

    @pytest.mark.parametrize("k", [2, 60, 130])
    def test_top_eigenvalue_inside_the_shift_fails(self, k):
        c = _cholesky_shift(np.diagonal(planted(k, 0.0)[0]))
        m, ref = planted(k, -0.5 * c)
        proved, mu, shift = lyapunov_of(m)
        assert -shift < ref < 0 and not proved
        assert abs(mu - ref) <= 1e-12 * np.linalg.norm(m, 2)

    @pytest.mark.parametrize("k", [2, 60, 130])
    def test_top_eigenvalue_ten_shifts_below_zero_passes(self, k):
        c = _cholesky_shift(np.diagonal(planted(k, 0.0)[0]))
        m, ref = planted(k, -10.0 * c)
        proved, mu, shift = lyapunov_of(m)
        assert proved and mu is None and ref < -9.0 * shift

    def test_non_finite_matrix_fails_with_nan(self):
        m = planted(60, -1.0)[0]
        m[3, 5] = m[5, 3] = np.nan
        proved, mu, shift = lyapunov_of(m)
        assert not proved and np.isnan(mu) and np.isnan(shift)

    def test_empty_generator_passes_with_minus_inf(self):
        node = types.SimpleNamespace(p_ie=np.zeros((0, 0)), n_gain=np.zeros((0, 0)))
        assert error_system._lyapunov_in_place(
            np.zeros((0, 0)), types.SimpleNamespace(nodes=[node]), 0.5) == (True, -np.inf, 0.0)


def stacked_sandwich(r, spectral, alpha):
    blocks = []
    for g in r.nodes:
        k = g.p_ie.shape[0]
        p_i = np.eye(g.p_out.shape[0])
        if k:
            t_e = g.p_out[:, :k]
            p_i = p_i + t_e @ (g.p_ie - np.eye(k)) @ t_e.T
        blocks.append(p_i)
    p_w = scipy.linalg.block_diag(*blocks)
    t_s = scipy.linalg.block_diag(*(g.p_out for g in r.nodes))
    n_blk = scipy.linalg.block_diag(*(g.n_gain for g in r.nodes))
    m_blk = scipy.linalg.block_diag(*(g.m_gain for g in r.nodes))
    n = r.nodes[0].p_out.shape[0]
    coupling = np.kron(np.diag(r.r_vector) @ spectral.laplacian, np.eye(n))
    full = t_s @ n_blk @ t_s.T - r.gamma * t_s @ m_blk @ coupling
    reduced = t_s.T @ (p_w @ full + full.T @ p_w + 2.0 * alpha * p_w) @ t_s
    return float(scipy.linalg.eigvalsh(0.5 * (reduced + reduced.T))[-1])


def reference_instances(rng):
    """The standard instance, four conftest random ones and the mixed-structure
    one (a node with p = n and nodes with n - v > 0), synthesized."""
    pairs = [standard_instance(), mixed_structure_instance()] + [
        random_observable_instance(rng) for _ in range(4)]
    return [(plant, graph, synthesize(plant, graph, alpha=0.5))
            for plant, graph in pairs]


def dense_weight(r):
    """W = blkdiag_i(P_ie, I_{n - v_i}) as one dense matrix."""
    return scipy.linalg.block_diag(*(
        scipy.linalg.block_diag(g.p_ie, np.eye(g.n_gain.shape[0] - g.p_ie.shape[0]))
        for g in r.nodes))


class TestBlockFormsAgainstDenseReferences:
    def test_restricted_generator_is_g_ts(self, rng):
        for plant, graph, r in reference_instances(rng):
            g_mat, t_s = dense_g(r, spectral_data(graph).laplacian)
            ref = g_mat @ t_s
            got = restricted_generator(r, spectral_data(graph).laplacian)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_invariance_is_projected_full_generator(self, rng):
        """stack_i (X_i^T P_i) R_i equals X^T F T_s, F = T_s G, for any
        left factor X = blkdiag(X_i).  With the true bases T_ip both sides
        are rounding noise, so a generic X_i stands in for them."""
        def generic(p_out):
            n, k = p_out.shape
            return np.cos(np.arange(n)[:, None] + 2.0 * np.arange(n - k)[None, :])

        for plant, graph, r in reference_instances(rng):
            lap = spectral_data(graph).laplacian
            g_mat, t_s = dense_g(r, lap)
            xs = [generic(g.p_out) for g in r.nodes]
            x = scipy.linalg.block_diag(*xs)
            ref = np.linalg.norm(x.T @ (t_s @ g_mat) @ t_s)
            got = error_system._invariance(r, restricted_generator(r, lap), xs)
            assert abs(got - ref) <= 1e-12 * ref

    def test_true_invariance_residual_is_rounding(self, rng):
        for plant, graph, r in reference_instances(rng):
            g_mat, t_s = dense_g(r, spectral_data(graph).laplacian)
            _, decomps = decompose_nodes(plant)
            t_p = scipy.linalg.block_diag(*(d.t_p for d in decomps))
            ref = np.linalg.norm(t_p.T @ (t_s @ g_mat) @ t_s)
            r_mat = restricted(r, graph)
            got = error_system._invariance(r, r_mat, [d.t_p for d in decomps])
            scale = 1e-13 * np.linalg.norm(r_mat)
            assert got <= scale and ref <= scale

    def test_simulator_input_block_is_dense_coupling(self, rng):
        """F[n:, :n] = blkdiag(L_i C_i) + [C_ij] est_x, with est_x the
        stacked Q_j C_j that the estimate map applies to x."""
        for plant, graph, r in reference_instances(rng):
            lap = spectral_data(graph).laplacian
            est_x = np.vstack([g.q_out @ plant.c_block(j)
                               for j, g in enumerate(r.nodes)])
            l_c = np.vstack([g.l_gain @ plant.c_block(i)
                             for i, g in enumerate(r.nodes)])
            ref = l_c + dense_coupling(r, lap) @ est_x
            got = _generator(r, plant, graph)[0][plant.n :, : plant.n]
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_lyapunov_top_eigenvalue_is_full_eigvalsh_maximum(self, rng):
        """The shifted Cholesky's verdict is the sign of the dense top
        eigenvalue wherever that lies outside (-c, c), and a failing value
        is that eigenvalue."""
        verdicts = set()
        for plant, graph, r in reference_instances(rng):
            r_mat = restricted_generator(r, spectral_data(graph).laplacian)
            w = dense_weight(r)
            beyond = -4.0 * spectral_abscissa(r_mat[None])[0]
            for alpha in (0.0, 0.5, 1.0, beyond):
                reduced = w @ r_mat + r_mat.T @ w + 2.0 * alpha * w
                ref = scipy.linalg.eigvalsh(0.5 * (reduced + reduced.T))[-1]
                check = lyapunov_at(plant, graph, r, alpha)
                if abs(ref) > check["shift"]:
                    assert check["pass"] == (ref < 0), (alpha, ref)
                if not check["pass"]:
                    got = check["value"]
                    assert abs(got - ref) <= 1e-12 * np.linalg.norm(reduced, 2)
                verdicts.add(check["pass"])
        assert verdicts == {True, False}


# certify's traced peak may be at most this many restricted generators R of
# order K (K^2 * 8 bytes each): R itself, which becomes the Lyapunov matrix in
# place, plus strip-sized work arrays.  Holding R, W (R + alpha I) and
# W R + R^T W at once took about 3.1, and forming Nn-sized dense temporaries
# (I_Nn, G, T_s G, G T_s, W R) about 8.
CERTIFY_PEAK_GENERATORS = 1.75
# compute_epsilon's traced peak when some node has v < n, in lemma matrices of
# order N n: the matrix itself, which LAPACK overwrites, plus strip-sized work
# arrays.  A full-size symmetrized copy beside it took about 2.1.
EPSILON_PEAK_LEMMA_MATRICES = 1.5
# compute_epsilon's traced peak when every node has v = n, in N x N matrices:
# mirror + diag(g) and its terms.  Forming the N n lemma matrix took n^2 = 36
# times more at n = 6.
EPSILON_PEAK_NODE_MATRICES = 4


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCertifyMemory:
    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng([6, 60])
        n, big_n = 6, 60
        plant = Plant(a=rng.standard_normal((n, n)) / np.sqrt(n),
                      c=rng.standard_normal((big_n, n)), node_rows=(1,) * big_n)
        graph = random_strongly_connected_graph(rng, big_n)
        r = synthesize(plant, graph, alpha=0.5)
        frfs, decomps = decompose_nodes(plant)
        return plant, r, spectral_data(graph), frfs, decomps

    def test_peak_is_a_few_restricted_generators(self, wide):
        plant, r, spectral, frfs, decomps = wide
        k = r.total_order
        assert k == sum(plant.n - g.p_dim for g in r.nodes) == 300
        peak = traced_peak(certify, r, plant, spectral, frfs, decomps)
        assert peak <= CERTIFY_PEAK_GENERATORS * k * k * 8, peak / (k * k * 8)

    def test_epsilon_peak_is_a_few_node_matrices(self, wide):
        plant, _, spectral, _, decomps = wide
        big_n = plant.node_count
        assert all(d.v_dim == plant.n for d in decomps)
        peak = traced_peak(compute_epsilon, decomps, spectral, (1.0,) * big_n)
        assert peak <= EPSILON_PEAK_NODE_MATRICES * big_n * big_n * 8, (
            peak / (big_n * big_n * 8))

    def test_epsilon_peak_is_one_lemma_matrix(self):
        """With one node at v < n, the N n lemma matrix is formed, once."""
        plant, graph = one_partial_node_instance(np.random.default_rng([6, 61]), 6, 60)
        _, decomps = decompose_nodes(plant)
        assert sorted(d.v_dim for d in decomps)[:2] == [3, 6]
        nn = plant.n * plant.node_count
        peak = traced_peak(compute_epsilon, decomps, spectral_data(graph),
                           (1.0,) * plant.node_count)
        assert peak <= EPSILON_PEAK_LEMMA_MATRICES * nn * nn * 8, peak / (nn * nn * 8)
