import math

import numpy as np
import pytest
import scipy.linalg

from distobs import (
    NetworkGraph,
    Plant,
    SimulationConfig,
    SimulationTrace,
    check_invariance,
    estimate_rate,
    laplacian,
    simulate,
    synthesize,
)

from conftest import dense_g, stacked_errors, standard_instance


@pytest.fixture(scope="module")
def standard_setup():
    plant, graph = standard_instance()
    realization = synthesize(plant, graph, alpha=1.0)
    return plant, graph, realization, laplacian(graph)


def equilibrium_initial_observer_states(realization, plant, x0):
    """Observer initial states giving zero initial estimation error.

    From the error-coordinate identity z_i = S_i^T (T_i^T e_i - K_i y_i + T_i^T x)
    at e_i = 0: z_i(0) = T_is^T x0 - (S_i^T K_i) C_i x0.
    """
    out = []
    for i, g in enumerate(realization.nodes):
        y0 = plant.c_block(i) @ x0
        out.append(g.p_out.T @ x0 - g.k_mat[g.p_dim :, :] @ y0)
    return out


def run(plant, graph, realization, t_final, dt, z0=None, x0=None):
    x0 = np.ones(plant.n) if x0 is None else x0
    cfg = SimulationConfig(t_final=t_final, dt=dt, x0=x0, z0=z0)
    return simulate(realization, plant, graph, cfg)


class TestSimulate:
    def test_zero_initial_error_stays_zero(self, standard_setup):
        plant, graph, r, lap = standard_setup
        x0 = np.array([1.0, -2.0, 0.5, 3.0])
        z0 = equilibrium_initial_observer_states(r, plant, x0)
        trace = run(plant, graph, r, t_final=2.0, dt=2e-3, z0=z0, x0=x0)
        worst = np.max(trace.error_norms)
        assert worst <= 1e-8 * max(1.0, np.linalg.norm(x0))

    def test_static_plant_converges(self):
        a = np.zeros((2, 2))
        c = np.eye(2)
        plant = Plant(a=a, c=c, node_rows=(1, 1))
        graph = NetworkGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        r = synthesize(plant, graph, alpha=0.5)
        trace = run(plant, graph, r, t_final=20.0, dt=0.02)
        assert np.max(np.abs(trace.x - trace.x[0])) <= 1e-12
        for e_norm in trace.error_norms.T:
            assert e_norm[-1] < 1e-4 * max(1.0, e_norm[0])

    def test_full_rank_scalar_output_reproduces_state(self):
        plant = Plant(a=np.zeros((1, 1)), c=np.eye(1), node_rows=(1,))
        graph = NetworkGraph(weights=np.zeros((1, 1)))
        r = synthesize(plant, graph)
        assert r.total_order == 0
        trace = run(plant, graph, r, t_final=1.0, dt=0.01)
        np.testing.assert_allclose(trace.xhat[0], trace.x, atol=1e-12)

    def test_matches_matrix_exponential(self, standard_setup):
        plant, graph, r, lap = standard_setup
        trace = run(plant, graph, r, t_final=1.0, dt=1e-3)
        errors = stacked_errors(trace)
        e0, e_final = errors[0], errors[-1]
        g_mat, t_s = dense_g(r, lap)
        propagated = scipy.linalg.expm(t_s @ g_mat * 1.0) @ e0
        assert np.linalg.norm(e_final - propagated) <= 1e-6 * np.linalg.norm(
            propagated
        )

    def test_step_halving_consistency(self, standard_setup):
        plant, graph, r, lap = standard_setup
        dt = 2e-3
        t1 = run(plant, graph, r, t_final=2.0, dt=dt)
        t2 = run(plant, graph, r, t_final=2.0, dt=dt / 2)
        e1 = stacked_errors(t1)[-1]
        e2 = stacked_errors(t2)[-1]
        assert np.linalg.norm(e1 - e2) <= 1e-4 * max(np.linalg.norm(e2), 1e-12)

    def test_omniscience_at_horizon(self, standard_setup):
        plant, graph, r, lap = standard_setup
        trace = run(plant, graph, r, t_final=20.0, dt=0.02)
        alpha_hat = estimate_rate(trace)
        horizon_needed = math.log(1e6) / alpha_hat
        assert trace.times[-1] >= horizon_needed
        for e_norm in trace.error_norms.T:
            assert e_norm[-1] <= 1e-6 * e_norm[0]

    def test_divergence_detected(self, standard_setup):
        plant, graph, r, lap = standard_setup
        from distobs import SimulationDiverged

        with pytest.raises(SimulationDiverged):
            # the plant's own unstable mode (Re lambda = 0.565) grows the state
            # past the largest float64 near t = 1256
            run(plant, graph, r, t_final=2000.0, dt=5.0)

    def test_step_halving_agrees_at_shared_samples(self, standard_setup):
        """The records are exact, so halving dt moves none of them beyond
        rounding (an explicit scheme's truncation error would)."""
        plant, graph, r, lap = standard_setup
        dt = 2e-3
        coarse = run(plant, graph, r, t_final=2.0, dt=dt)
        fine = run(plant, graph, r, t_final=2.0, dt=dt / 2)
        _, i, j = np.intersect1d(coarse.times, fine.times, return_indices=True)
        assert i.size == coarse.times.size
        s_coarse = np.hstack([coarse.x] + coarse.z)[i]
        s_fine = np.hstack([fine.x] + fine.z)[j]
        assert np.all(np.linalg.norm(s_coarse - s_fine, axis=1)
                      <= 1e-10 * np.linalg.norm(s_fine, axis=1))


def reference_generator(realization, plant, graph):
    """Generator of plant and observers, with the coupling
    sum_j a_ij (xhat_j - xhat_i) built node by node."""
    n, big_n, nodes = plant.n, plant.node_count, realization.nodes
    offsets = np.cumsum([n] + [g.n_gain.shape[0] for g in nodes])
    c_blocks = [plant.c_block(i) for i in range(big_n)]

    def rhs(s):
        x = s[:n]
        xh = [g.p_out @ s[offsets[i]:offsets[i + 1]] + g.q_out @ (c_blocks[i] @ x)
              for i, g in enumerate(nodes)]
        ds = np.empty_like(s)
        ds[:n] = plant.a @ x
        for i, g in enumerate(nodes):
            coupling = np.zeros(n)
            for j in range(big_n):
                if graph.weights[i, j] > 0:
                    coupling += graph.weights[i, j] * (xh[j] - xh[i])
            ds[offsets[i]:offsets[i + 1]] = (
                g.n_gain @ s[offsets[i]:offsets[i + 1]] + g.l_gain @ (c_blocks[i] @ x)
                + realization.gamma * realization.r_vector[i] * (g.m_gain @ coupling)
            )
        return ds

    return np.column_stack([rhs(e) for e in np.eye(offsets[-1])])


class TestPropagator:
    def test_matches_exponential_of_per_node_generator(self, standard_setup):
        plant, graph, r, _ = standard_setup
        x0 = np.array([1.0, -2.0, 0.5, 3.0])
        z0 = [np.linspace(-1.0, 1.0, g.n_gain.shape[0]) for g in r.nodes]
        s0 = np.concatenate([x0] + z0)
        generator = reference_generator(r, plant, graph)
        # the default step's dt * rho = 0.1, at which an explicit scheme's
        # truncation error would show
        dt = 0.1 / np.max(np.abs(np.linalg.eigvals(generator)))
        expected = np.array([scipy.linalg.expm(k * dt * generator) @ s0
                             for k in range(6)])
        trace = simulate(r, plant, graph,
                         SimulationConfig(t_final=5 * dt, dt=dt, x0=x0, z0=z0))
        assert trace.times.size == 6
        got = np.hstack([trace.x] + trace.z)
        scale = np.linalg.norm(expected, axis=1)
        assert np.all(np.linalg.norm(got - expected, axis=1) <= 1e-12 * scale)

    def test_truncated_final_step_with_stride(self, standard_setup):
        plant, graph, r, _ = standard_setup
        x0 = np.array([1.0, -2.0, 0.5, 3.0])
        t_final, dt = 0.2505, 1e-3
        trace = simulate(r, plant, graph, SimulationConfig(
            t_final=t_final, dt=dt, x0=x0, record_stride=7))
        assert trace.times[-1] == t_final
        np.testing.assert_array_equal(trace.times[1:-1], dt * np.arange(7, 251, 7))
        exact = scipy.linalg.expm(plant.a * t_final) @ x0
        assert np.linalg.norm(trace.x[-1] - exact) <= 1e-10 * np.linalg.norm(exact)


class TestEstimateRate:
    def _trace_from_error(self, times, err):
        n = err.shape[1]
        zeros = np.zeros((times.size, n))
        return SimulationTrace(
            times=times, x=zeros, z=[err.copy()], xhat=[err.copy()],
            invariance_residuals=np.zeros((times.size, 1)),
            error_norms=np.linalg.norm(err, axis=1)[:, None],
        )

    def test_pure_exponential(self):
        t = np.linspace(0, 3, 400)
        err = np.exp(-2.0 * t)[:, None] * np.array([1.0, -0.5])
        assert estimate_rate(self._trace_from_error(t, err)) == pytest.approx(
            2.0, abs=1e-6
        )

    def test_two_mode_dominant(self):
        t = np.linspace(0, 12, 2000)
        err = (np.exp(-t) + np.exp(-5.0 * t))[:, None] * np.array([1.0])
        assert estimate_rate(self._trace_from_error(t, err)) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_converged_returns_sentinel(self):
        t = np.linspace(0, 1, 50)
        err = np.full((50, 1), 1e-15)
        assert estimate_rate(self._trace_from_error(t, err)) == math.inf

    def test_too_few_samples_returns_nan(self):
        t = np.linspace(0, 1, 6)
        err = np.exp(-t)[:, None]
        assert math.isnan(estimate_rate(self._trace_from_error(t, err)))

    def test_synthesized_rate_meets_target(self, standard_setup):
        plant, graph, r, lap = standard_setup
        trace = run(plant, graph, r, t_final=10.0, dt=0.01)
        assert estimate_rate(trace) >= 1.0 - 0.05


class TestCheckInvariance:
    def test_simulated_instance(self, standard_setup):
        plant, graph, r, lap = standard_setup
        trace = run(plant, graph, r, t_final=5.0, dt=5e-3)
        assert check_invariance(trace) <= 1e-6

    def test_corrupted_trace(self, standard_setup):
        plant, graph, r, lap = standard_setup
        # run long enough for the true errors to decay so the injected unit
        # off-subspace component dominates and the relative residual is ~1
        trace = run(plant, graph, r, t_final=8.0, dt=8e-3)
        g = r.nodes[0]
        t_ip = scipy.linalg.null_space(g.p_out.T)
        bad_err = stacked_errors(trace)[:, : plant.n] + t_ip[:, 0]
        inv = trace.invariance_residuals.copy()
        off = bad_err - (bad_err @ g.p_out) @ g.p_out.T
        inv[:, 0] = np.linalg.norm(off, axis=1)
        norms = trace.error_norms.copy()
        norms[:, 0] = np.linalg.norm(bad_err, axis=1)
        corrupted = SimulationTrace(
            times=trace.times, x=trace.x, z=trace.z,
            xhat=[trace.xhat[0] + t_ip[:, 0]] + list(trace.xhat[1:]),
            invariance_residuals=inv,
            error_norms=norms,
        )
        assert check_invariance(corrupted) > 0.5

    def test_zero_error_trace(self, standard_setup):
        plant, graph, r, lap = standard_setup
        x0 = np.ones(plant.n)
        z0 = equilibrium_initial_observer_states(r, plant, x0)
        trace = run(plant, graph, r, t_final=1.0, dt=1e-3, z0=z0, x0=x0)
        assert check_invariance(trace) <= 1e-10
