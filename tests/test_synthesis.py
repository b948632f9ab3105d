import dataclasses

import numpy as np
import pytest
import scipy.linalg

from distobs import (
    NetworkGraph,
    Plant,
    SynthesisError,
    assemble_gains,
    compute_epsilon,
    decompose_nodes,
    full_rank_factorize,
    observability_decomposition,
    place_injection,
    select_gamma,
    solve_pie,
    spectral_abscissa,
    synthesize,
    verify_cancellation,
)
from distobs import error_system, synthesis
from distobs.linalg import _cholesky_shift, _eigvalsh, _min_symmetric_eigenvalue_in_place
from distobs.synthesis import BETA_FLOOR, GAMMA_SAFETY, _least_beta

from conftest import (
    certified,
    mirror_laplacian,
    mixed_structure_instance,
    one_partial_node_instance,
    random_observable_instance,
    raises_stack_error,
    random_strongly_connected_graph,
    standard_instance,
)


def decomp_of(a, c):
    frf = full_rank_factorize(np.atleast_2d(c)[None])[0]
    return frf, observability_decomposition(a, frf.f_factor[None])[0]


def single_node_graph():
    return NetworkGraph(weights=np.zeros((1, 1)))


def mutual_pair_graph():
    return NetworkGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))


def lemma_matrix(decomps, mirror, g_weights):
    """The positivity-lemma matrix T^T (mirror (x) I_n) T + G."""
    n = decomps[0].n_dim
    big_n = len(decomps)
    m = np.zeros((big_n * n, big_n * n))
    for i in range(big_n):
        for j in range(big_n):
            m[i * n : (i + 1) * n, j * n : (j + 1) * n] = mirror[i, j] * (
                decomps[i].t_orth.T @ decomps[j].t_orth
            )
        g = np.zeros(n)
        g[: decomps[i].v_dim] = g_weights[i]
        m[i * n : (i + 1) * n, i * n : (i + 1) * n] += np.diag(g)
    return 0.5 * (m + m.T)


def _beta_feasible(beta, sym_u, a32_gram):
    m = sym_u + a32_gram / beta
    return float(_eigvalsh(0.5 * (m + m.T))[-1]) < beta


def bisection_beta(a_u, a32):
    """Reference for select_gamma's closed form: the least beta making
    A_u^T + A_u - beta I + (1/beta) A_32 A_32^T < 0, by bracket doubling and
    bisection to 1e-6 relative, BETA_FLOOR when it already holds there, and
    0 for an empty A_u."""
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


def bisection_gamma(decomps, epsilon, alpha):
    """select_gamma with each node's beta from bisection_beta."""
    beta = max([BETA_FLOOR] + [bisection_beta(d.a_u, d.a32) for d in decomps])
    return GAMMA_SAFETY * max((beta + 2.0 * alpha) / epsilon, 2.0 * alpha, BETA_FLOOR)


class TestComputeEpsilon:
    def test_single_fully_observable_node(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        _, dec = decomp_of(a, [[1.0, 0.0]])
        lap, r, _ = mirror_laplacian(single_node_graph())
        eps = compute_epsilon([dec], lap, r, [1.0])
        assert eps == pytest.approx(0.9, abs=1e-12)

    def test_two_fully_observable_nodes(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # observable from either coordinate
        _, d1 = decomp_of(a, [[1.0, 0.0]])
        _, d2 = decomp_of(a, [[0.0, 1.0]])
        assert d1.v_dim == 2 and d2.v_dim == 2
        lap, r, _ = mirror_laplacian(mutual_pair_graph())
        eps = compute_epsilon([d1, d2], lap, r, [1.0, 1.0])
        assert eps == pytest.approx(0.9, abs=1e-10)

    def test_inequality_holds_at_returned_epsilon(self, rng):
        for _ in range(10):
            plant, graph = random_observable_instance(rng)
            lap, r, mirror = mirror_laplacian(graph)
            decomps = [
                decomp_of(plant.a, plant.c_block(i))[1]
                for i in range(plant.node_count)
            ]
            g = [1.0] * plant.node_count
            eps = compute_epsilon(decomps, lap, r, g)
            m = lemma_matrix(decomps, mirror, g)
            assert _min_symmetric_eigenvalue_in_place(m - eps * np.eye(m.shape[0])) > 0

    def test_equals_dense_loop(self, rng):
        """Where some node has v < n, assembling only the mirror's nonzero
        blocks gives the epsilon of the N^2 dense loop and full-size
        symmetrization, bit for bit.  Where every node has v = n, the N x N
        factor gives it to rounding."""
        big_n = 25
        wide = Plant(a=rng.standard_normal((5, 5)),
                     c=rng.standard_normal((big_n, 5)), node_rows=(1,) * big_n)
        pairs = [standard_instance(), mixed_structure_instance(),
                 (wide, random_strongly_connected_graph(rng, big_n))] + [
            random_observable_instance(rng) for _ in range(8)] + [
            one_partial_node_instance(np.random.default_rng(43), 5, big_n)]
        routes = set()
        for plant, graph in pairs:
            lap, r, mirror = mirror_laplacian(graph)
            _, decomps = decompose_nodes(plant)
            dense = any(d.v_dim < d.n_dim for d in decomps)
            routes.add(dense)
            for g in ([1.0] * plant.node_count,
                      list(rng.uniform(0.01, 2.0, plant.node_count))):
                m = lemma_matrix(decomps, mirror, g)
                ref = float(0.9 * scipy.linalg.eigvalsh(0.5 * (m + m.T))[0])
                eps = compute_epsilon(decomps, lap, r, g)
                if dense:
                    assert eps == ref
                else:
                    assert eps == pytest.approx(ref, rel=1e-13, abs=0)
        assert routes == {True, False}

    def test_rejects_joint_unobservability(self):
        # N=1, v < n: the lemma matrix has an exact zero eigenvalue
        a = np.diag([1.0, 2.0])
        _, dec = decomp_of(a, [[1.0, 0.0]])
        lap, r, _ = mirror_laplacian(single_node_graph())
        with pytest.raises(SynthesisError, match="joint observability"):
            compute_epsilon([dec], lap, r, [1.0])


class TestSelectGamma:
    def test_all_nodes_fully_observable(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        _, dec = decomp_of(a, [[1.0, 0.0]])
        gamma = select_gamma([dec], epsilon=0.9, alpha=1.0)
        assert gamma == pytest.approx(1.25 * 2.0 / 0.9, rel=1e-5)

    def test_stable_unobservable_block_tiny_gamma(self):
        a = np.diag([0.0, -1.0])
        _, dec = decomp_of(a, [[1.0, 0.0]])
        assert dec.a_u.shape == (1, 1)
        gamma = select_gamma([dec], epsilon=1.0, alpha=0.0)
        assert gamma == pytest.approx(1.25 * BETA_FLOOR, rel=1e-6)

    def test_unstable_unobservable_block(self):
        a = np.diag([0.0, 1.0])
        _, dec = decomp_of(a, [[1.0, 0.0]])
        np.testing.assert_allclose(dec.a_u, [[1.0]])
        gamma = select_gamma([dec], epsilon=1.0, alpha=0.0)
        # scalar inequality: 2 - gamma*eps < 0  =>  gamma > 2
        assert gamma == pytest.approx(1.25 * 2.0, rel=1e-5)

    def test_bisection_bracket(self, rng):
        for _ in range(10):
            plant, graph = random_observable_instance(rng)
            decomps = [
                decomp_of(plant.a, plant.c_block(i))[1]
                for i in range(plant.node_count)
            ]
            if all(d.v_dim == d.n_dim for d in decomps):
                continue
            eps, alpha = 0.7, 0.5
            # the near-minimal gain, inflated by 1 + 1e-6 instead of GAMMA_SAFETY
            gamma = select_gamma(decomps, eps, alpha) / GAMMA_SAFETY * (1.0 + 1e-6)
            beta = gamma * eps - 2 * alpha
            for d in decomps:
                if d.a_u.size:
                    m = (
                        d.a_u + d.a_u.T
                        - beta * np.eye(d.a_u.shape[0])
                        + (d.a32 @ d.a32.T) / beta
                    )
                    assert scipy.linalg.eigvalsh(0.5 * (m + m.T))[-1] < 0
            shrunk = gamma / (1.0 + 1e-6) * (1.0 - 1e-3)
            beta_s = shrunk * eps - 2 * alpha
            violated = beta_s <= 0
            for d in decomps:
                if violated or not d.a_u.size:
                    continue
                m = (
                    d.a_u + d.a_u.T
                    - beta_s * np.eye(d.a_u.shape[0])
                    + (d.a32 @ d.a32.T) / beta_s
                )
                if scipy.linalg.eigvalsh(0.5 * (m + m.T))[-1] >= 0:
                    violated = True
            # near-minimality unless the binding constraint was the beta floor
            assert violated or max(
                bisection_beta(d.a_u, d.a32) for d in decomps
            ) <= BETA_FLOOR


class TestClosedFormBeta:
    """select_gamma's least beta, lambda_max([[0, A_32^T], [A_32, A_u + A_u^T]]),
    against the bisection it replaced: never above it, and within its 1e-6
    relative tolerance."""

    @staticmethod
    def assert_matches_bisection(closed, bisected):
        assert closed <= bisected
        assert closed == pytest.approx(bisected, rel=1e-6, abs=0)

    @pytest.mark.parametrize("instance", [
        pytest.param(mixed_structure_instance, id="mixed-structure"),
        pytest.param(lambda: one_partial_node_instance(np.random.default_rng(43), 6, 8),
                     id="one-partial-node"),
    ])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_instances(self, instance, alpha):
        plant, graph = instance()
        _, decomps = decompose_nodes(plant)
        assert any(d.v_dim < d.n_dim for d in decomps)
        for d in decomps:
            if d.v_dim < d.n_dim:
                self.assert_matches_bisection(max(_least_beta(d.a_u, d.a32), BETA_FLOOR),
                                              bisection_beta(d.a_u, d.a32))
        lap, r, _ = mirror_laplacian(graph)
        epsilon = compute_epsilon(decomps, lap, r, error_system._lemma_weights(plant.node_count))
        self.assert_matches_bisection(select_gamma(decomps, epsilon, alpha),
                                      bisection_gamma(decomps, epsilon, alpha))

    def test_random_blocks(self):
        """1200 blocks of n - v = 1 to 4 rows and v - p = 0 (no A_32 columns)
        to 3 columns, over six decades of scale, every fifth with A_32 = 0;
        on about one in seven the floor binds."""
        rng = np.random.default_rng(2024)
        kinds = set()
        for i in range(1200):
            rows, cols = int(rng.integers(1, 5)), i % 4
            scale = 10.0 ** rng.uniform(-3, 3)
            a_u = scale * (rng.standard_normal((rows, rows)) + rng.uniform(-3, 2) * np.eye(rows))
            a32 = scale * rng.standard_normal((rows, cols))
            if i % 5 == 0:
                a32[:] = 0.0
            closed = max(_least_beta(a_u, a32), BETA_FLOOR)
            bisected = bisection_beta(a_u, a32)
            self.assert_matches_bisection(closed, bisected)
            kinds.update({"v = p" if cols == 0 else "A_32 = 0" if not a32.any() else "A_32",
                          "floor" if bisected == BETA_FLOOR else "above floor"})
        assert kinds == {"v = p", "A_32 = 0", "A_32", "floor", "above floor"}


class TestPlaceInjection:
    def test_scalar(self):
        h = place_injection(np.array([[[0.0]]]), np.array([[[1.0]]]), alpha=1.0)[0]
        assert spectral_abscissa((np.array([[0.0]]) - h @ np.array([[1.0]]))[None])[0] < -1.0

    def test_empty_pair_skipped(self):
        h = place_injection(np.zeros((1, 0, 0)), np.zeros((1, 1, 0)), alpha=1.0)[0]
        assert h.shape == (0, 1)

    def test_random_observable_pair(self, rng):
        for _ in range(10):
            a22 = rng.standard_normal((3, 3))
            ea12 = rng.standard_normal((1, 3))
            h = place_injection(a22[None], ea12[None], alpha=0.5)[0]
            assert spectral_abscissa((a22 - h @ ea12)[None])[0] < -0.5

    def test_pair_that_decays_fast_enough_does_not_inject(self):
        """a22's abscissa -1 lies left of -alpha - INJECTION_MARGIN."""
        h = place_injection(np.diag([-1.0, -2.0])[None], np.array([[[1.0, 1.0]]]),
                            alpha=0.5)[0]
        assert h.shape == (2, 1) and not h.any()

    def test_unobservable_pair_rejected(self):
        with raises_stack_error("not observable"):
            place_injection(np.diag([1.0, 2.0])[None], np.array([[[1.0, 0.0]]]), alpha=0.0)

    def test_missed_target_names_abscissa_and_target(self, monkeypatch):
        """H = 0 leaves the closed loop at a22's abscissa -0.31."""
        monkeypatch.setattr(synthesis, "min_energy_injection",
                            lambda a, c: np.zeros_like(c.transpose(0, 2, 1)))
        with raises_stack_error(r"reached abscissa -0\.31, target below -0\.5$"):
            place_injection(np.array([[[-0.31]]]), np.array([[[1.0]]]), alpha=0.5)


class TestSolvePie:
    def test_scalar_gamma_four(self):
        pie = solve_pie(np.array([[[0.0]]]), np.array([[[1.0]]]), np.array([[[2.0]]]),
                        gamma=4.0, alpha=1.0)[0]
        np.testing.assert_allclose(pie, [[1.0]], atol=1e-12)

    def test_scalar_gamma_small(self):
        pie = solve_pie(np.array([[[0.0]]]), np.array([[[1.0]]]), np.array([[[2.0]]]),
                        gamma=2.5, alpha=1.0)[0]
        np.testing.assert_allclose(pie, [[0.25]], atol=1e-12)

    def test_empty_node(self):
        pie = solve_pie(np.zeros((1, 0, 0)), np.zeros((1, 1, 0)), np.zeros((1, 0, 1)),
                        gamma=1.0, alpha=0.0)[0]
        assert pie.shape == (0, 0)

    def test_gamma_floor_enforced(self):
        with raises_stack_error("gamma too small"):
            solve_pie(np.array([[[0.0]]]), np.array([[[1.0]]]), np.array([[[2.0]]]),
                      gamma=2.0, alpha=1.0)


class TestAssembleGains:
    def test_scalar_chain_single_node(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        frf, dec = decomp_of(a, [[1.0, 0.0]])
        h = np.array([[[2.0]]])
        pie = solve_pie(dec.a22[None], (dec.e_mat @ dec.a12)[None], h, gamma=4.0, alpha=1.0)
        g = assemble_gains([dec], [frf], h, pie)[0]
        np.testing.assert_allclose(g.n_gain, [[-2.0]], atol=1e-12)
        np.testing.assert_allclose(g.k_mat, [[1.0], [2.0]], atol=1e-12)
        np.testing.assert_allclose(g.p_out, dec.t_orth[:, 1:], atol=1e-12)

    def test_special_route_matches_closed_form(self):
        a = np.diag([1.0, -1.0])
        frf, dec = decomp_of(a, [[1.0, 0.0]])
        assert dec.v_dim == dec.p_dim == 1
        g = assemble_gains([dec], [frf], np.zeros((1, 0, 1)), np.zeros((1, 0, 0)))[0]
        np.testing.assert_allclose(g.n_gain, [[-1.0]], atol=1e-12)
        np.testing.assert_allclose(g.l_gain, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(g.m_gain, dec.t_s.T, atol=1e-12)

    def test_k_tail_rows_are_selected_by_s(self, rng):
        plant, _ = random_observable_instance(rng, n=4, n_nodes=2)
        for i in range(2):
            frf, dec = decomp_of(plant.a, plant.c_block(i))
            special = dec.v_dim == dec.p_dim
            if special:
                h, pie = np.zeros((1, 0, dec.p_dim)), np.zeros((1, 0, 0))
            else:
                a22, ea12 = dec.a22[None], (dec.e_mat @ dec.a12)[None]
                h = place_injection(a22, ea12, 0.0)
                pie = solve_pie(a22, ea12, h, gamma=3.0, alpha=0.0)
            g = assemble_gains([dec], [frf], h, pie)[0]
            s = np.vstack([np.zeros((dec.p_dim, dec.n_dim - dec.p_dim)),
                           np.eye(dec.n_dim - dec.p_dim)])
            np.testing.assert_array_equal(s.T @ g.k_mat, g.k_mat[dec.p_dim :, :])


class TestVerifyCancellation:
    def _node(self, rng):
        plant, graph = random_observable_instance(rng, n=4, n_nodes=1)
        frf, dec = decomp_of(plant.a, plant.c_block(0))
        special = dec.v_dim == dec.p_dim
        if special:
            h, pie = np.zeros((1, 0, dec.p_dim)), np.zeros((1, 0, 0))
        else:
            a22, ea12 = dec.a22[None], (dec.e_mat @ dec.a12)[None]
            h = place_injection(a22, ea12, 0.5)
            pie = solve_pie(a22, ea12, h, gamma=3.0, alpha=0.5)
        return plant, frf, dec, assemble_gains([dec], [frf], h, pie)[0]

    def test_assembled_node_cancels(self, rng):
        for _ in range(10):
            plant, frf, dec, g = self._node(rng)
            assert verify_cancellation([g], [dec], [frf])[0] <= 1e-9 * np.linalg.norm(plant.a)

    def test_perturbed_l_detected(self, rng):
        plant, frf, dec, g = self._node(rng)
        l_bad = g.l_gain.copy()
        l_bad[0, 0] += 1e-3
        bad = dataclasses.replace(g, l_gain=l_bad)
        assert verify_cancellation([bad], [dec], [frf])[0] > 1e-5

    def test_special_case_cancels(self):
        a = np.diag([1.0, -1.0, -2.0])
        frf, dec = decomp_of(a, [[1.0, 0.0, 0.0]])
        assert dec.v_dim == dec.p_dim
        g = assemble_gains([dec], [frf], np.zeros((1, 0, 1)), np.zeros((1, 0, 0)))[0]
        assert verify_cancellation([g], [dec], [frf])[0] <= 1e-9 * np.linalg.norm(a)


class TestVerifyLmi:
    """The lmi check, through certify on designs that synthesize did not
    store: each node's proved upper bound on the top eigenvalue of its LMI."""

    def test_pipeline_candidate_passes(self, rng):
        for _ in range(5):
            plant, graph = random_observable_instance(rng)
            r = synthesize(plant, graph, alpha=0.5)
            assert r.certificate["lmi"]["pass"]

    def test_gamma_zero_with_unstable_block_fails(self):
        a = np.diag([0.0, 1.0])  # node 1's unobservable mode is at +1
        plant = Plant(a=a, c=np.eye(2), node_rows=(1, 1))
        graph = mutual_pair_graph()
        r = synthesize(plant, graph)
        lmi = certified(plant, graph, dataclasses.replace(r, gamma=0.0, epsilon=1.0,
                                                          alpha=0.0))["lmi"]
        assert lmi["value"] > 0 and not lmi["pass"]

    def test_pie_not_proved_definite_reads_inf(self):
        """A P_ie whose smallest eigenvalue lies inside its Cholesky shift,
        (0, c), is not proved positive definite, so its node reads +inf; at
        10 c it is proved and its LMI is judged.  A P_ie that is not finite
        reads NaN.  The other nodes keep their values."""
        plant, graph = standard_instance()
        r = synthesize(plant, graph, alpha=0.5)
        k = len(r.nodes[1].p_ie)
        assert k > 1 and all(len(g.p_ie) == k for g in r.nodes)

        def lmi(pie):
            nodes = list(r.nodes)
            nodes[1] = dataclasses.replace(nodes[1], p_ie=pie)
            return certified(plant, graph, dataclasses.replace(r, nodes=tuple(nodes)))[
                "lmi"]["nodes"]

        c = _cholesky_shift(np.append(np.ones(k - 1), 0.0))
        before = lmi(r.nodes[1].p_ie)
        for small, want in ((0.5 * c, np.inf), (10.0 * c, None)):
            got = lmi(np.diag(np.append(np.ones(k - 1), small)))
            assert got[1] == want if want else np.isfinite(got[1])
            assert got[::2] == before[::2]
        bad = r.nodes[1].p_ie.copy()
        bad[0, 0] = np.nan
        assert np.isnan(lmi(bad)[1])

    def test_alpha_escalation_reports_violation(self, rng):
        plant, graph = random_observable_instance(rng, n=4, n_nodes=2)
        r = synthesize(plant, graph, alpha=0.0)
        alpha, lmi = 0.0, -np.inf
        while lmi < 0 and alpha < 1e4:
            alpha = max(2 * alpha, 0.5)
            lmi = certified(plant, graph, dataclasses.replace(r, alpha=alpha))["lmi"]["value"]
        assert lmi > 0


class TestSynthesize:
    def test_classical_single_observer(self):
        plant = Plant(a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                      c=np.array([[1.0, 0.0]]), node_rows=(1,))
        r = synthesize(plant, single_node_graph(), alpha=1.0)
        assert r.total_order == 1  # n - p
        assert r.certificate["lmi"]["pass"] and r.certificate["lyapunov"]["pass"]

    def test_three_node_cycle_order(self, rng):
        plant, _ = random_observable_instance(rng, n=4, n_nodes=3)
        w = np.zeros((3, 3))
        w[1, 0] = w[2, 1] = w[0, 2] = 1.0
        r = synthesize(plant, NetworkGraph(weights=w), alpha=0.5)
        assert r.total_order == 3 * 4 - sum(g.p_dim for g in r.nodes)
        assert r.certificate["lmi"]["pass"] and r.certificate["lyapunov"]["pass"]

    def test_rejects_unobservable(self):
        plant = Plant(a=np.diag([1.0, 2.0]), c=np.array([[1.0, 0.0]]), node_rows=(1,))
        with pytest.raises(SynthesisError) as exc:
            synthesize(plant, single_node_graph())
        assert exc.value.step == "observability"

    def test_rejects_disconnected_graph(self, rng):
        plant, _ = random_observable_instance(rng, n=3, n_nodes=2)
        w = np.zeros((2, 2))
        w[1, 0] = 1.0
        with pytest.raises(SynthesisError) as exc:
            synthesize(plant, NetworkGraph(weights=w))
        assert exc.value.step == "graph"

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.5])
    def test_rejects_alpha_not_finite_and_nonnegative(self, alpha):
        plant, graph = standard_instance()
        with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
            synthesize(plant, graph, alpha=alpha)

    def test_rejects_zero_output_node(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        c = np.array([[1.0, 0.0], [0.0, 0.0]])
        plant = Plant(a=a, c=c, node_rows=(1, 1))
        with pytest.raises(SynthesisError) as exc:
            synthesize(plant, mutual_pair_graph())
        assert exc.value.step == "factorization"

    def test_pipeline_soundness_randomized(self, rng):
        for _ in range(25):
            plant, graph = random_observable_instance(rng)
            for alpha in (0.0, 0.5, 1.0):
                r = synthesize(plant, graph, alpha=alpha)
                cert = r.certificate
                n, big_n = plant.n, plant.node_count
                assert r.total_order == big_n * n - sum(g.p_dim for g in r.nodes)
                assert cert["lyapunov"]["pass"]
                assert cert["cancellation"]["value"] <= 1e-9 * np.linalg.norm(
                    plant.a
                )
                assert cert["lmi"]["pass"]

    def test_special_case_all_nodes_v_equals_p(self):
        # diagonal plant, each node sees one coordinate: v_i = p_i = 1
        a = np.diag([-1.0, -2.0, -3.0])
        c = np.eye(3)
        plant = Plant(a=a, c=c, node_rows=(1, 1, 1))
        w = np.zeros((3, 3))
        w[1, 0] = w[2, 1] = w[0, 2] = 1.0
        r = synthesize(plant, NetworkGraph(weights=w), alpha=0.5)
        frfs = [full_rank_factorize(plant.c_block(i)[None])[0] for i in range(3)]
        decomps = [observability_decomposition(a, f.f_factor[None])[0] for f in frfs]
        for g, dec, frf in zip(r.nodes, decomps, frfs):
            assert dec.v_dim == dec.p_dim
            e_inv = np.linalg.inv(dec.e_mat)
            d_dag = np.linalg.pinv(frf.d_factor)
            np.testing.assert_allclose(g.n_gain, dec.a_u, atol=1e-12)
            np.testing.assert_allclose(g.l_gain, dec.a31 @ e_inv @ d_dag, atol=1e-12)
            np.testing.assert_allclose(g.m_gain, dec.t_s.T, atol=1e-12)
            np.testing.assert_allclose(
                g.k_mat,
                np.vstack([e_inv, np.zeros((2, 1))]) @ d_dag,
                atol=1e-12,
            )
        assert r.certificate["lmi"]["pass"]
        assert r.certificate["lyapunov"]["pass"]


# scipy.linalg wrappers whose per-call checks cost more than their LAPACK work
# on node-sized matrices; the kernels in distobs.linalg call LAPACK directly
SCIPY_WRAPPERS = ("svd", "svdvals", "orth", "eigvals", "eigvalsh",
                  "solve_continuous_lyapunov", "block_diag")
# numpy.linalg wrappers, each a LAPACK loop over its stack: they run once per
# stack of equally shaped nodes (pinv and cond through svd)
NUMPY_WRAPPERS = ("inv", "pinv", "cond", "svd")


@pytest.mark.parametrize("seed", [0, 1])
def test_no_per_node_scipy_wrapper_calls(seed, monkeypatch):
    """The calls of SCIPY_WRAPPERS and NUMPY_WRAPPERS that synthesize (with
    its certify) makes do not grow from N = 3 to N = 12: none of them runs
    once per node."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in SCIPY_WRAPPERS:
        monkeypatch.setattr(scipy.linalg, name, counted(name, getattr(scipy.linalg, name)))
    # numpy.linalg's own functions call each other through its inner module
    inner = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    for name in NUMPY_WRAPPERS:
        wrapper = counted(f"numpy.{name}", getattr(np.linalg, name))
        monkeypatch.setattr(np.linalg, name, wrapper)
        monkeypatch.setattr(inner, name, wrapper)
    names = list(SCIPY_WRAPPERS) + [f"numpy.{name}" for name in NUMPY_WRAPPERS]
    counts = []
    for n_nodes in (3, 12):
        calls = dict.fromkeys(names, 0)
        # node 1 has v < n, so that the unobservable-block bisection runs too
        plant, graph = one_partial_node_instance(
            np.random.default_rng([seed, n_nodes]), 4, n_nodes)
        realization = synthesize(plant, graph, alpha=0.5)
        assert realization.nodes[0].v_dim < plant.n
        counts.append(calls)
    assert counts[1] == counts[0]
    assert counts[0]["numpy.inv"] and counts[0]["numpy.svd"]
