import copy
import dataclasses
import tracemalloc

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
    laplacian,
    spectral_abscissa,
    synthesize,
    synthesis,
)
from distobs.linalg import _cholesky_shift
from distobs.simulate import _generator

from conftest import (
    certified,
    dense_coupling,
    dense_g,
    mirror_laplacian,
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


def restricted(r, plant, graph):
    """R, the observer block of the simulator's generator F."""
    return _generator(r, plant, graph)[0][plant.n :, plant.n :]


class TestBuildErrorSystem:
    """The restricted generator R against the full error generator T_s G,
    assembled densely on the test side."""

    def test_single_node_no_coupling(self):
        plant = Plant(a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                      c=np.array([[1.0, 0.0]]), node_rows=(1,))
        graph = NetworkGraph(weights=np.zeros((1, 1)))
        r = synthesize(plant, graph, alpha=1.0)
        np.testing.assert_allclose(restricted(r, plant, graph), r.nodes[0].n_gain,
                                   atol=1e-12)
        g_mat, t_s = dense_g(r, laplacian(graph))
        t1s = r.nodes[0].p_out
        np.testing.assert_allclose(
            t_s @ g_mat, t1s @ r.nodes[0].n_gain @ t1s.T, atol=1e-12
        )

    def test_gamma_zero_decouples(self, rng):
        plant, graph, r = synthesized(rng, alpha=0.0, n=3, n_nodes=2)
        r0 = dataclasses.replace(r, gamma=0.0)
        expected = scipy.linalg.block_diag(*(g.n_gain for g in r0.nodes))
        np.testing.assert_allclose(restricted(r0, plant, graph), expected, atol=1e-12)

    def test_invariance_identities(self):
        plant, graph, r = synthesized(alpha=0.5)
        g_mat, t_s = dense_g(r, laplacian(graph))
        _, decomps = decompose_nodes(plant)
        t_p = scipy.linalg.block_diag(*(d.t_p for d in decomps))
        full, r_mat = t_s @ g_mat, restricted(r, plant, graph)
        assert np.linalg.norm(full @ t_s - t_s @ r_mat) <= 1e-9
        assert np.linalg.norm(t_p.T @ full @ t_s) <= 1e-9
        np.testing.assert_allclose(t_s.T @ t_s, np.eye(t_s.shape[1]), atol=1e-12)

    def test_spectrum_split(self, rng):
        for _ in range(6):
            plant, graph, r = synthesized(rng, alpha=0.5, n=int(rng.integers(2, 6)),
                                          n_nodes=int(rng.integers(1, 4)))
            g_mat, t_s = dense_g(r, laplacian(graph))
            full_eigs = np.sort_complex(np.linalg.eigvals(t_s @ g_mat))
            restr_eigs = np.linalg.eigvals(restricted(r, plant, graph))
            p_total = sum(g.p_dim for g in r.nodes)
            expected = np.sort_complex(
                np.concatenate([restr_eigs, np.zeros(p_total, dtype=complex)])
            )
            np.testing.assert_allclose(full_eigs, expected, atol=1e-8)

    def test_restricted_is_simulator_observer_block(self, rng):
        """The simulator integrates the R whose blocks certify()'s invariance
        check reads: stack_i (X_i^T P_i) R_i over the simulator's R is the
        block sum, for a generic left factor X = blkdiag(X_i)."""
        for plant, graph, r in reference_instances(rng):
            xs = [generic_basis(g.p_out) for g in r.nodes]
            left = scipy.linalg.block_diag(*(x.T @ g.p_out for x, g in zip(xs, r.nodes)))
            ref = np.linalg.norm(left @ restricted(r, plant, graph))
            got = error_system._invariance(r, laplacian(graph), xs)
            assert abs(got - ref) <= 1e-12 * ref


class TestCertifyRate:
    """The exact spectral abscissa of R, the dense reference for the decay
    rate."""

    def test_synthesized_instance_passes(self):
        plant, graph, r = synthesized(alpha=1.0)
        assert spectral_abscissa(restricted(r, plant, graph)[None])[0] < -1.0

    def test_decoupled_unstable_block_fails(self):
        # node 2 cannot observe the unstable mode; without coupling it stays
        a = np.diag([1.0, -1.0])
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        plant = Plant(a=a, c=c, node_rows=(1, 1))
        graph = NetworkGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        r = synthesize(plant, graph, alpha=0.0)
        r0 = dataclasses.replace(r, gamma=0.0)
        assert not spectral_abscissa(restricted(r0, plant, graph)[None])[0] < 0.0


def certified_at(plant, graph, r, alpha):
    """certify's report on the design r, judged at alpha."""
    return certified(plant, graph, dataclasses.replace(r, alpha=alpha))


def lyapunov_at(plant, graph, r, alpha):
    """certify's Lyapunov check for the design r at alpha."""
    return certified_at(plant, graph, r, alpha)["lyapunov"]


class TestLyapunovDecrease:
    def test_synthesized_instance_negative(self):
        plant, graph, r = synthesized(alpha=0.5)
        assert lyapunov_at(plant, graph, r, 0.5)["pass"]

    def test_fails_beyond_achieved_rate(self):
        plant, graph, r = synthesized(alpha=0.5)
        alpha_too_big = -spectral_abscissa(restricted(r, plant, graph)[None])[0] * 4.0
        check = lyapunov_at(plant, graph, r, alpha_too_big)
        assert not check["pass"] and check["value"] > 0

    def test_agrees_with_rate_certificate(self, rng):
        for _ in range(8):
            plant, graph, r = synthesized(rng, alpha=0.5)
            if spectral_abscissa(restricted(r, plant, graph)[None])[0] < -0.5:
                assert r.certificate["lyapunov"]["pass"]

    def test_value_bounds_stacked_weight_sandwich(self, rng):
        """The composed value bounds from above the top eigenvalue of the
        Nn-coordinate form T_s^T (P F + F^T P + 2 alpha P) T_s, with the
        stacked weight P_i = I + T_ie (P_ie - I) T_ie^T and F assembled with a
        dense Kronecker coupling: at the design's own alpha, where both are
        negative, and beyond the abscissa's rate, where the check fails."""
        instances = [standard_instance()] + [
            random_observable_instance(rng) for _ in range(6)]
        for plant, graph in instances:
            for alpha in (0.0, 0.5, 1.0):
                r = synthesize(plant, graph, alpha=alpha)
                lap = laplacian(graph)
                beyond = -4.0 * spectral_abscissa(restricted(r, plant, graph)[None])[0]
                for at, passes in ((alpha, True), (beyond, False)):
                    check = lyapunov_at(plant, graph, r, at)
                    ref, rounding = stacked_sandwich(r, lap, at)
                    assert check["pass"] == passes and (ref < 0) == passes
                    assert check["value"] >= ref - rounding, (at, check["value"], ref)


class TestCertifyAgreesWithPublicChecks:
    def test_same_values_and_caller_array_kept(self, rng):
        """certify's Lyapunov verdict is that of the dense reference, the top
        eigenvalue of M = W R + R^T W + 2 alpha W over the restricted
        generator, and its value bounds that eigenvalue from above: at the
        design's alpha, where it passes, and beyond the abscissa's rate, where
        it fails.  certify leaves the design's arrays as they were."""
        for plant, graph, r in reference_instances(rng):
            before = copy.deepcopy(r.nodes)
            beyond = -4.0 * spectral_abscissa(restricted(r, plant, graph)[None])[0]
            for alpha, passes in ((r.alpha, True), (beyond, False)):
                check = certified_at(plant, graph, r, alpha)["lyapunov"]
                ref, rounding = dense_lyapunov(r, plant, graph, alpha)
                assert check["pass"] == passes == (ref < 0)
                assert check["value"] >= ref - rounding
            for g, kept in zip(r.nodes, before):
                for f in dataclasses.fields(g):
                    assert np.array_equal(getattr(g, f.name), getattr(kept, f.name))


class TestRateBound:
    """lyapunov certifies the decay rate: whenever it passes, with the
    positive definite weight that its node term proves, every eigenvalue
    of R has real part below -alpha."""

    def test_bounds_the_exact_abscissa(self, rng):
        seen = set()
        for plant, graph, r in reference_instances(rng):
            absc = spectral_abscissa(restricted(r, plant, graph)[None])[0]
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


class TestComposedBound:
    """The lyapunov value is max_i lambda_max(B_i) - gamma (lambda_s - epsilon)
    + 2 ||C||_2: each node's LMI on its stored gains, the graph lemma and the
    coupling defect D_i = W_i M_i - P_i^T, zero in exact arithmetic."""

    def test_rate_bound_lies_between_alpha_and_the_abscissa(self, rng):
        for plant, graph, r in reference_instances(rng):
            check = lyapunov_at(plant, graph, r, r.alpha)
            absc = spectral_abscissa(restricted(r, plant, graph)[None])[0]
            assert check["pass"] and r.alpha < check["rate_bound"] <= -absc
            beyond = lyapunov_at(plant, graph, r, -4.0 * absc)
            assert not beyond["pass"] and beyond["rate_bound"] is None

    def test_lmi_reports_the_node_term(self, rng):
        """lmi is lyapunov's node term: each node's proved bound on
        lambda_max(B_i), and their maximum, bit for bit."""
        for plant, graph, r in reference_instances(rng):
            cert = r.certificate
            g = error_system._lemma_weights(len(r.nodes))
            assert (np.asarray(cert["lmi"]["nodes"]).tobytes()
                    == error_system._node_terms(r, g)[0].tobytes())
            assert (np.float64(cert["lmi"]["value"]).tobytes()
                    == np.float64(cert["lyapunov"]["node_term"]).tobytes())

    def test_binary64_node_bound_still_passes(self, rng, monkeypatch):
        """Where longdouble is binary64, the node matrices are formed in
        binary64 and their rounding bound takes its unit roundoff: the
        pipeline's designs still pass lmi and lyapunov, and no node bound is
        below the extended-precision one."""
        pairs = [standard_instance()] + [random_observable_instance(rng) for _ in range(10)]
        designs = [(plant, graph, synthesize(plant, graph, alpha=0.5)) for plant, graph in pairs]
        monkeypatch.setattr(error_system, "_EXT", np.float64)
        monkeypatch.setattr(error_system, "_U_EXT", 2.0**-53)
        for plant, graph, r in designs:
            cert = certified(plant, graph, r)
            assert cert["lmi"]["pass"] and cert["lyapunov"]["pass"]
            assert all(b >= e for b, e in zip(cert["lmi"]["nodes"],
                                              r.certificate["lmi"]["nodes"]))

    def test_planted_coupling_defect_fails_lyapunov(self):
        """M_1 scaled by 1 + t plants D_1 = t P_1^T + (1 + t) D_1, of norm
        about t, whose coupling term 2 ||C||_2 >= 2 gamma r_1 lap_11 t uses up
        the margin of the node and lemma terms.  No other check moves."""
        plant, graph, r = synthesized(alpha=0.5)
        kept = certified_at(plant, graph, r, 0.5)
        margin = -kept["lyapunov"]["value"]
        assert all(check["pass"] for check in kept.values())
        lap = laplacian(graph)
        t = margin / (r.gamma * r.r_vector[0] * lap[0, 0])
        nodes = list(r.nodes)
        nodes[0] = dataclasses.replace(nodes[0], m_gain=(1.0 + t) * nodes[0].m_gain)
        planted_design = dataclasses.replace(r, nodes=tuple(nodes))
        cert = certified_at(plant, graph, planted_design, 0.5)
        check = cert["lyapunov"]
        assert not check["pass"] and check["coupling_term"] >= 2.0 * margin
        for term in ("node_term", "lemma_term", "node"):
            assert check[term] == kept["lyapunov"][term]
        for name in ("cancellation", "lmi", "invariance"):
            assert cert[name]["pass"], name
        ref, rounding = dense_lyapunov(planted_design, plant, graph, 0.5)
        assert check["value"] >= ref - rounding

    def test_gains_file_r_off_the_perron_vector_is_bounded(self, rng):
        """The bound takes mirror_r from the design's r, the coupling weights
        that the observer runs, whatever the graph's Perron vector is."""
        for plant, graph, r in reference_instances(rng):
            big_n = len(r.nodes)
            skewed = dataclasses.replace(r, r_vector=r.r_vector * np.linspace(0.25, 2.0, big_n))
            assert big_n == 1 or not np.allclose(skewed.r_vector, r.r_vector)
            beyond = -4.0 * spectral_abscissa(restricted(skewed, plant, graph)[None])[0]
            for alpha in (0.0, r.alpha, beyond):
                ref, rounding = dense_lyapunov(skewed, plant, graph, alpha)
                assert lyapunov_at(plant, graph, skewed, alpha)["value"] >= ref - rounding

    def test_lemma_takes_the_proved_eigenvalue_where_gershgorin_falls_below_epsilon(self):
        """With r off the Perron vector, Gershgorin's bound on lambda_min(Y),
        Y = mirror_r + diag g, falls below epsilon, and a lemma term built on
        it would fail the design; the Cholesky proof of the N x N matrix Y
        gives the lemma term instead, and lyapunov passes, as the dense
        check of M passes this design."""
        plant, graph, r = synthesized(alpha=0.5)
        skewed = dataclasses.replace(r, r_vector=r.r_vector * np.linspace(1.0, 2.0, len(r.nodes)))
        scaled = skewed.r_vector[:, None] * laplacian(graph)
        y = np.abs(scaled + scaled.T + np.eye(len(r.nodes)))
        gershgorin = np.min(2.0 * np.diagonal(y) - y.sum(axis=1))
        assert gershgorin < skewed.epsilon
        check = lyapunov_at(plant, graph, skewed, 0.5)
        ref, rounding = dense_lyapunov(skewed, plant, graph, 0.5)
        assert check["pass"] and ref < 0 and check["value"] >= ref - rounding
        lemma_by_gershgorin = skewed.gamma * (skewed.epsilon - gershgorin)
        assert check["value"] - check["lemma_term"] + lemma_by_gershgorin > 0


def planted(k, top):
    """An exactly symmetric matrix of order k with the eigenvalues -1 to -2
    and top, the same eigenvectors for every top, and its dense top
    eigenvalue."""
    q = np.linalg.qr(np.random.default_rng([71, k]).standard_normal((k, k)))[0]
    m = (q * np.append(-np.linspace(1.0, 2.0, k - 1), top)) @ q.T
    m = 0.5 * (m + m.T)
    return m, scipy.linalg.eigvalsh(m)[-1]


def top_bound_of(m, error=0.0):
    """The proved upper bound on the top eigenvalue of the symmetric m, and
    of every symmetric matrix within `error` of it."""
    return error_system._top_eigenvalue_bounds(m[None], np.array([error]))[0]


class TestShiftedCholesky:
    """An eigenvalue bound beta is proved by a Cholesky factorization of
    beta I - B less Rump's shift c, so a top eigenvalue inside (-c, 0) is not
    proved negative, and one ten shifts below zero is."""

    @pytest.mark.parametrize("k", [2, 60, 130])
    def test_top_eigenvalue_inside_the_shift_fails(self, k):
        c = _cholesky_shift(np.diagonal(planted(k, 0.0)[0]))
        m, ref = planted(k, -0.5 * c)
        beta = top_bound_of(m)
        assert -c < ref < 0 <= beta
        assert beta - ref <= 8.0 * c

    @pytest.mark.parametrize("k", [2, 60, 130])
    def test_top_eigenvalue_ten_shifts_below_zero_passes(self, k):
        c = _cholesky_shift(np.diagonal(planted(k, 0.0)[0]))
        m, ref = planted(k, -10.0 * c)
        assert ref <= top_bound_of(m) < 0
        # the bound covers every matrix within the error of m
        assert top_bound_of(m, 3.0 * c) >= ref + 3.0 * c

    def test_each_node_is_proved_alone(self):
        """B = diag(-1, -lam) is proved below beta = 0 only for lam above the
        shift s of A = beta I - B = diag(1, lam), or above s plus the node's
        error, and each node of a stack gets the verdict it gets alone: next
        to a node at the shift, and in a stack where every node is proved."""
        u = 2.0**-53
        s = (_cholesky_shift(np.array([1.0, 0.0])) + 2.0 * u) * (1 + 4 * u)
        lams = (1.0, 0.5 * s, s, s * (1 + 1e-12), 10.0 * s, 10.0 * s, -1.0)
        errors = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 20.0 * s, 0.0])
        stack = np.stack([np.diag([-1.0, -lam]) for lam in lams])
        verdicts = [True, False, False, True, True, False, False]

        def proved(at):
            return error_system._proves_top(stack[at], errors[at], np.zeros(len(at))).tolist()

        assert proved(list(range(len(lams)))) == verdicts
        assert [proved([x])[0] for x in range(len(lams))] == verdicts
        assert proved([0, 3, 4]) == [True, True, True]

    def test_non_finite_matrix_fails_with_nan(self):
        m = planted(60, -1.0)[0]
        assert np.isnan(top_bound_of(m, np.inf))
        m[3, 5] = m[5, 3] = np.nan
        assert np.isnan(top_bound_of(m))

    def test_empty_generator_passes_with_minus_inf(self):
        assert top_bound_of(np.zeros((0, 0))) == -np.inf


def stacked_sandwich(r, lap, alpha):
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
    coupling = np.kron(np.diag(r.r_vector) @ lap, np.eye(n))
    full = t_s @ n_blk @ t_s.T - r.gamma * t_s @ m_blk @ coupling
    reduced = t_s.T @ (p_w @ full + full.T @ p_w + 2.0 * alpha * p_w) @ t_s
    norm = np.linalg.norm
    return top_and_rounding(reduced, norm(t_s) ** 2 * norm(p_w) * (
        2.0 * norm(t_s) * (norm(n_blk) + norm(m_blk) * norm(coupling)) + 2.0 * alpha))


def top_and_rounding(m, scale):
    """The dense top eigenvalue of sym(m), and a bound on the rounding that
    it carries, K u scale at order K, with scale the Frobenius norms of the
    products that formed m: m holds sums that cancel, so its own norm does
    not bound their rounding."""
    top = float(scipy.linalg.eigvalsh(0.5 * (m + m.T))[-1])
    return top, len(m) * np.finfo(float).eps * (scale + np.linalg.norm(m))


def dense_lyapunov(r, plant, graph, alpha):
    """top_and_rounding of M = W R + R^T W + 2 alpha W, R and W dense."""
    r_mat, w = restricted(r, plant, graph), dense_weight(r)
    scale = 2.0 * np.linalg.norm(w) * (np.linalg.norm(r_mat) + alpha)
    return top_and_rounding(w @ r_mat + r_mat.T @ w + 2.0 * alpha * w, scale)


def generic_basis(p_out):
    """An n x (n - k) stand-in for T_ip, in general position to P_i."""
    n, k = p_out.shape
    return np.cos(np.arange(n)[:, None] + 2.0 * np.arange(n - k)[None, :])


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
            g_mat, t_s = dense_g(r, laplacian(graph))
            ref = g_mat @ t_s
            got = restricted(r, plant, graph)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_invariance_is_projected_full_generator(self, rng):
        """stack_i (X_i^T P_i) R_i equals X^T F T_s, F = T_s G, for any
        left factor X = blkdiag(X_i).  With the true bases T_ip both sides
        are rounding noise, so a generic X_i stands in for them."""
        for plant, graph, r in reference_instances(rng):
            lap = laplacian(graph)
            g_mat, t_s = dense_g(r, lap)
            xs = [generic_basis(g.p_out) for g in r.nodes]
            x = scipy.linalg.block_diag(*xs)
            ref = np.linalg.norm(x.T @ (t_s @ g_mat) @ t_s)
            got = error_system._invariance(r, lap, xs)
            assert abs(got - ref) <= 1e-12 * ref

    def test_true_invariance_residual_is_rounding(self, rng):
        for plant, graph, r in reference_instances(rng):
            g_mat, t_s = dense_g(r, laplacian(graph))
            _, decomps = decompose_nodes(plant)
            t_p = scipy.linalg.block_diag(*(d.t_p for d in decomps))
            ref = np.linalg.norm(t_p.T @ (t_s @ g_mat) @ t_s)
            r_mat = restricted(r, plant, graph)
            got = error_system._invariance(r, laplacian(graph),
                                           [d.t_p for d in decomps])
            scale = 1e-13 * np.linalg.norm(r_mat)
            assert got <= scale and ref <= scale

    def test_simulator_input_block_is_dense_coupling(self, rng):
        """F[n:, :n] = blkdiag(L_i C_i) + [C_ij] est_x, with est_x the
        stacked Q_j C_j that the estimate map applies to x."""
        for plant, graph, r in reference_instances(rng):
            lap = laplacian(graph)
            est_x = np.vstack([g.q_out @ plant.c_block(j)
                               for j, g in enumerate(r.nodes)])
            l_c = np.vstack([g.l_gain @ plant.c_block(i)
                             for i, g in enumerate(r.nodes)])
            ref = l_c + dense_coupling(r, lap) @ est_x
            got = _generator(r, plant, graph)[0][plant.n :, : plant.n]
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_lyapunov_value_bounds_full_eigvalsh_maximum(self, rng):
        """The composed value bounds the dense top eigenvalue of M from above
        at each alpha, and a pass is a negative dense top eigenvalue.  The
        mixed-structure instance has nodes with v_i < n, so its lemma term
        comes from the matrix of order K."""
        verdicts = set()
        for plant, graph, r in reference_instances(rng):
            beyond = -4.0 * spectral_abscissa(restricted(r, plant, graph)[None])[0]
            for alpha in (0.0, 0.5, 1.0, beyond):
                ref, rounding = dense_lyapunov(r, plant, graph, alpha)
                check = lyapunov_at(plant, graph, r, alpha)
                assert check["value"] >= ref - rounding, (alpha, check["value"], ref)
                if check["pass"]:
                    assert ref < 0
                verdicts.add(check["pass"])
        assert verdicts == {True, False}


# certify's traced peak may be at most this many (sum p_i) x K arrays (sum p_i
# * K * 8 bytes): it holds node-sized blocks X_i R_ij of the invariance check
# and node-sized stacks of the node terms, and no (sum p_i) x K output or strip
# of R.  It read 1.36 at K = 300 and sum p_i = 60, where one such output adds
# 1 and one K x K array K / sum p_i = 5.
CERTIFY_PEAK_OUTPUTS = 2
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
        return plant, r, laplacian(graph), frfs, decomps

    def test_peak_is_a_few_invariance_outputs(self, wide):
        """With every v_i = n, certify holds no K x K array and no
        (sum p_i) x K one."""
        plant, r, lap, frfs, decomps = wide
        k, p_total = r.total_order, sum(g.p_dim for g in r.nodes)
        assert k == plant.n * plant.node_count - p_total == 300 and p_total == 60
        assert all(d.v_dim == plant.n for d in decomps)
        peak = traced_peak(certify, r, plant, lap, frfs, decomps)
        assert peak <= CERTIFY_PEAK_OUTPUTS * p_total * k * 8, peak / (p_total * k * 8)

    def test_epsilon_peak_is_a_few_node_matrices(self, wide):
        plant, r, lap, _, decomps = wide
        big_n = plant.node_count
        assert all(d.v_dim == plant.n for d in decomps)
        peak = traced_peak(compute_epsilon, decomps, lap, r.r_vector, (1.0,) * big_n)
        assert peak <= EPSILON_PEAK_NODE_MATRICES * big_n * big_n * 8, (
            peak / (big_n * big_n * 8))

    def test_epsilon_peak_is_one_lemma_matrix(self):
        """With one node at v < n, the N n lemma matrix is formed, once."""
        plant, graph = one_partial_node_instance(np.random.default_rng([6, 61]), 6, 60)
        _, decomps = decompose_nodes(plant)
        assert sorted(d.v_dim for d in decomps)[:2] == [3, 6]
        nn = plant.n * plant.node_count
        lap, r, _ = mirror_laplacian(graph)
        peak = traced_peak(compute_epsilon, decomps, lap, r, (1.0,) * plant.node_count)
        assert peak <= EPSILON_PEAK_LEMMA_MATRICES * nn * nn * 8, peak / (nn * nn * 8)


def test_certificates_depend_on_nothing_in_synthesis():
    """error_system binds nothing that synthesis defines, and synthesis
    checks its designs with error_system's own certify and lemma weights."""
    assert not [name for name, obj in vars(error_system).items()
                if getattr(obj, "__module__", None) == "distobs.synthesis"]
    assert synthesis.certify is error_system.certify
    assert synthesis._lemma_weights is error_system._lemma_weights
