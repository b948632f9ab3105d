import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from distobs import (
    NetworkGraph,
    Plant,
    SynthesisParameters,
    build_error_system,
    certify,
    certify_rate,
    decompose_nodes,
    error_system,
    lyapunov_decrease_check,
    restricted_generator,
    spectral_data,
    synthesize,
)
from distobs.simulate import _generator

from conftest import (
    mixed_structure_instance,
    random_observable_instance,
    random_strongly_connected_graph,
    standard_instance,
)


def synthesized(rng=None, alpha=0.5, **kwargs):
    if rng is None:
        plant, graph = standard_instance()
    else:
        plant, graph = random_observable_instance(rng, **kwargs)
    r = synthesize(plant, graph, SynthesisParameters(alpha=alpha))
    return plant, graph, r


class TestBuildErrorSystem:
    def test_single_node_no_coupling(self):
        plant = Plant(a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                      c=np.array([[1.0, 0.0]]), node_rows=(1,))
        graph = NetworkGraph(weights=np.zeros((1, 1)))
        r = synthesize(plant, graph, SynthesisParameters(alpha=1.0))
        sys = build_error_system(r, spectral_data(graph))
        np.testing.assert_allclose(sys.restricted_matrix, r.nodes[0].n_gain,
                                   atol=1e-12)
        t1s = r.nodes[0].t_is
        np.testing.assert_allclose(
            sys.full_matrix, t1s @ r.nodes[0].n_gain @ t1s.T, atol=1e-12
        )

    def test_gamma_zero_decouples(self, rng):
        plant, graph, r = synthesized(rng, alpha=0.0, n=3, n_nodes=2)
        r0 = dataclasses.replace(r, gamma=0.0)
        sys = build_error_system(r0, spectral_data(graph))
        expected = scipy.linalg.block_diag(*(g.n_gain for g in r0.nodes))
        np.testing.assert_allclose(sys.restricted_matrix, expected, atol=1e-12)

    def test_invariance_identities(self):
        plant, graph, r = synthesized(alpha=0.5)
        sys = build_error_system(r, spectral_data(graph))
        assert np.linalg.norm(
            sys.full_matrix @ sys.t_s - sys.t_s @ sys.restricted_matrix
        ) <= 1e-9
        assert np.linalg.norm(sys.t_p.T @ sys.full_matrix @ sys.t_s) <= 1e-9
        np.testing.assert_allclose(
            sys.t_s.T @ sys.t_s, np.eye(sys.t_s.shape[1]), atol=1e-12
        )

    def test_spectrum_split(self, rng):
        for _ in range(6):
            plant, graph, r = synthesized(rng, alpha=0.5, n=int(rng.integers(2, 6)),
                                          n_nodes=int(rng.integers(1, 4)))
            sys = build_error_system(r, spectral_data(graph))
            full_eigs = np.sort_complex(np.linalg.eigvals(sys.full_matrix))
            restr_eigs = np.linalg.eigvals(sys.restricted_matrix)
            p_total = sum(g.p_dim for g in r.nodes)
            expected = np.sort_complex(
                np.concatenate([restr_eigs, np.zeros(p_total, dtype=complex)])
            )
            np.testing.assert_allclose(full_eigs, expected, atol=1e-8)

    def test_restricted_is_simulator_observer_block(self, rng):
        """R is the block of the simulator's generator F acting on the observer
        states: both come from one coupling term."""
        for plant, graph in (standard_instance(),
                             random_observable_instance(rng, n_nodes=5)):
            r = synthesize(plant, graph, SynthesisParameters(alpha=0.5))
            sys = build_error_system(r, spectral_data(graph))
            block = _generator(r, plant, graph)[0][plant.n :, plant.n :]
            assert (np.linalg.norm(sys.restricted_matrix - block)
                    <= 1e-12 * np.linalg.norm(block))


class TestCertifyRate:
    def test_synthesized_instance_passes(self):
        plant, graph, r = synthesized(alpha=1.0)
        sys = build_error_system(r, spectral_data(graph))
        res = certify_rate(sys.restricted_matrix, 1.0)
        assert res["pass"]
        assert res["abscissa"] < -1.0

    def test_decoupled_unstable_block_fails(self):
        # node 2 cannot observe the unstable mode; without coupling it stays
        a = np.diag([1.0, -1.0])
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        plant = Plant(a=a, c=c, node_rows=(1, 1))
        graph = NetworkGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        r = synthesize(plant, graph, SynthesisParameters(alpha=0.0))
        r0 = dataclasses.replace(r, gamma=0.0)
        sys = build_error_system(r0, spectral_data(graph))
        assert not certify_rate(sys.restricted_matrix, 0.0)["pass"]


class TestLyapunovDecrease:
    def test_synthesized_instance_negative(self):
        plant, graph, r = synthesized(alpha=0.5)
        sys = build_error_system(r, spectral_data(graph))
        assert lyapunov_decrease_check(sys.restricted_matrix, r, 0.5) < 0

    def test_fails_beyond_achieved_rate(self):
        plant, graph, r = synthesized(alpha=0.5)
        sys = build_error_system(r, spectral_data(graph))
        alpha_too_big = -certify_rate(sys.restricted_matrix, 0.0)["abscissa"] * 4.0
        assert lyapunov_decrease_check(sys.restricted_matrix, r, alpha_too_big) > 0

    def test_agrees_with_rate_certificate(self, rng):
        for _ in range(8):
            plant, graph, r = synthesized(rng, alpha=0.5)
            sys = build_error_system(r, spectral_data(graph))
            if certify_rate(sys.restricted_matrix, 0.5)["pass"]:
                assert lyapunov_decrease_check(sys.restricted_matrix, r, 0.5) < 0

    def test_matches_stacked_weight_sandwich(self, rng):
        """The reduced value equals the Nn-coordinate form T_s^T (P F + F^T P +
        2 alpha P) T_s with the stacked weight P_i = I + T_ie (P_ie - I) T_ie^T
        and F assembled with a dense Kronecker coupling."""
        instances = [standard_instance()] + [
            random_observable_instance(rng) for _ in range(6)]
        for plant, graph in instances:
            for alpha in (0.0, 0.5, 1.0):
                r = synthesize(plant, graph, SynthesisParameters(alpha=alpha))
                spectral = spectral_data(graph)
                sys = build_error_system(r, spectral)
                got = lyapunov_decrease_check(sys.restricted_matrix, r, alpha)
                ref = stacked_sandwich(r, spectral, alpha)
                assert abs(got - ref) <= 1e-6 * abs(ref), (alpha, got, ref)


def stacked_sandwich(r, spectral, alpha):
    blocks = []
    for g in r.nodes:
        k = g.p_ie.shape[0]
        p_i = np.eye(g.t_is.shape[0])
        if k:
            t_e = g.t_is[:, :k]
            p_i = p_i + t_e @ (g.p_ie - np.eye(k)) @ t_e.T
        blocks.append(p_i)
    p_w = scipy.linalg.block_diag(*blocks)
    t_s = scipy.linalg.block_diag(*(g.t_is for g in r.nodes))
    n_blk = scipy.linalg.block_diag(*(g.n_gain for g in r.nodes))
    m_blk = scipy.linalg.block_diag(*(g.m_gain for g in r.nodes))
    n = r.nodes[0].t_is.shape[0]
    coupling = np.kron(np.diag(r.r_vector) @ spectral.laplacian, np.eye(n))
    full = t_s @ n_blk @ t_s.T - r.gamma * t_s @ m_blk @ coupling
    reduced = t_s.T @ (p_w @ full + full.T @ p_w + 2.0 * alpha * p_w) @ t_s
    return float(scipy.linalg.eigvalsh(0.5 * (reduced + reduced.T))[-1])


def reference_instances(rng):
    """The standard instance, four conftest random ones and the mixed-structure
    one (a node with p = n and nodes with n - v > 0), synthesized."""
    pairs = [standard_instance(), mixed_structure_instance()] + [
        random_observable_instance(rng) for _ in range(4)]
    return [(plant, graph, synthesize(plant, graph, SynthesisParameters(alpha=0.5)))
            for plant, graph in pairs]


def dense_g(r, lap):
    """G = blkdiag(N_i) T_s^T - gamma blkdiag(M_i) (diag(r) Lap (x) I_n) and
    T_s, each assembled as one dense Nn-wide matrix."""
    n = r.nodes[0].t_is.shape[0]
    t_s = scipy.linalg.block_diag(*(g.t_is for g in r.nodes))
    n_blk = scipy.linalg.block_diag(*(g.n_gain for g in r.nodes))
    m_blk = scipy.linalg.block_diag(*(g.m_gain for g in r.nodes))
    coupling = np.kron(np.diag(r.r_vector) @ lap, np.eye(n))
    return n_blk @ t_s.T - r.gamma * m_blk @ coupling, t_s


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

    def test_invariance_is_projected_full_generator(self, rng, monkeypatch):
        """stack_i (X_i^T T_is) R_i equals X^T F T_s, F = T_s G, for any
        left factor X = blkdiag(X_i).  With the true complements T_ip both
        sides are rounding noise, so a generic X_i stands in for them."""
        def generic(t_is):
            n, k = t_is.shape
            return np.cos(np.arange(n)[:, None] + 2.0 * np.arange(n - k)[None, :])

        monkeypatch.setattr(error_system, "_orthogonal_complement", generic)
        for plant, graph, r in reference_instances(rng):
            lap = spectral_data(graph).laplacian
            g_mat, t_s = dense_g(r, lap)
            x = scipy.linalg.block_diag(*(generic(g.t_is) for g in r.nodes))
            ref = np.linalg.norm(x.T @ (t_s @ g_mat) @ t_s)
            got = error_system._invariance(r, restricted_generator(r, lap))
            assert abs(got - ref) <= 1e-12 * ref

    def test_true_invariance_residual_is_rounding(self, rng):
        for plant, graph, r in reference_instances(rng):
            spectral = spectral_data(graph)
            sys = build_error_system(r, spectral)
            ref = np.linalg.norm(sys.t_p.T @ sys.full_matrix @ sys.t_s)
            got = error_system._invariance(r, sys.restricted_matrix)
            scale = 1e-13 * np.linalg.norm(sys.restricted_matrix)
            assert got <= scale and ref <= scale

    def test_lyapunov_top_eigenvalue_is_full_eigvalsh_maximum(self, rng):
        for plant, graph, r in reference_instances(rng):
            r_mat = restricted_generator(r, spectral_data(graph).laplacian)
            w = dense_weight(r)
            for alpha in (0.0, 0.5, 1.0):
                reduced = w @ r_mat + r_mat.T @ w + 2.0 * alpha * w
                ref = scipy.linalg.eigvalsh(0.5 * (reduced + reduced.T))[-1]
                got = lyapunov_decrease_check(r_mat, r, alpha)
                assert abs(got - ref) <= 1e-12 * np.linalg.norm(reduced, 2)


# certify's traced peak may be at most this many restricted generators R of
# order K (K^2 * 8 bytes each): R itself, the copy that eigvals factors, and
# the two halves of W R + R^T W.  Forming Nn-sized dense temporaries (I_Nn,
# G, T_s G, G T_s, W R) took about 8.
CERTIFY_PEAK_GENERATORS = 5.0


class TestCertifyMemory:
    def test_peak_is_a_few_restricted_generators(self):
        rng = np.random.default_rng([6, 60])
        n, big_n = 6, 60
        plant = Plant(a=rng.standard_normal((n, n)) / np.sqrt(n),
                      c=rng.standard_normal((big_n, n)), node_rows=(1,) * big_n)
        graph = random_strongly_connected_graph(rng, big_n)
        r = synthesize(plant, graph, SynthesisParameters(alpha=0.5))
        spectral = spectral_data(graph)
        frfs, decomps = decompose_nodes(plant, 1e-9)
        k = r.total_order
        assert k == sum(n - g.p_dim for g in r.nodes) == 300
        tracemalloc.start()
        try:
            certify(r, plant, spectral, frfs, decomps, (1.0,) * big_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= CERTIFY_PEAK_GENERATORS * k * k * 8, peak / (k * k * 8)
