"""Acceptance gate: one printed pass/fail line per criterion.

Criteria cover the headline guarantees of the design: the total-order
formula, rate certification, the gain-cancellation identity, error-subspace
invariance, agreement of the simulator with linear theory, the classical
single-node reduction, coupling-margin positivity, the per-node feasibility
LMI, and the two special-structure gain routes.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.linalg

from distobs import (
    NetworkGraph,
    Plant,
    SimulationConfig,
    SynthesisError,
    check_invariance,
    decompose_nodes,
    estimate_rate,
    full_rank_factorize,
    observability_decomposition,
    simulate,
    spectral_abscissa,
    spectral_data,
    synthesize,
)
from distobs.simulate import _generator
from distobs.synthesis import compute_epsilon

from conftest import (
    certified,
    dense_g,
    random_observable_instance,
    stacked_errors,
    standard_instance,
)

POOL_SIZE = 100
ALPHAS = (0.0, 0.5, 1.0)

_cache = {}
_capman = None


@pytest.fixture(autouse=True)
def _terminal_reporting(request):
    # keep a handle on the capture manager so pass/fail lines reach the
    # terminal even though pytest captures test output by default
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")


def _line(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    text = f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}{tail}"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(f"\n{text}", flush=True)
    else:
        print(text, flush=True)
    assert ok, f"criterion {num} [{label}] failed: {detail}"


def instance_pool():
    if "pool" not in _cache:
        rng = np.random.default_rng(20260823)
        _cache["pool"] = [random_observable_instance(rng) for _ in range(POOL_SIZE)]
    return _cache["pool"]


def pool_runs(alpha: float):
    key = ("runs", alpha)
    if key not in _cache:
        _cache[key] = [
            synthesize(p, g, alpha=alpha)
            for p, g in instance_pool()
        ]
    return _cache[key]


def standard_run(alpha: float = 0.5):
    key = ("standard", alpha)
    if key not in _cache:
        plant, graph = standard_instance()
        r = synthesize(plant, graph, alpha=alpha)
        _cache[key] = (plant, graph, r, spectral_data(graph))
    return _cache[key]


def run_simulation(plant, graph, r, t_final, dt):
    cfg = SimulationConfig(t_final=t_final, dt=dt, x0=np.ones(plant.n))
    return simulate(r, plant, graph, cfg)


def test_criterion_1_order_formula():
    t0 = time.perf_counter()
    runs = pool_runs(0.0)
    worst = None
    for (plant, graph), r in zip(instance_pool(), runs):
        p_total = sum(
            np.linalg.matrix_rank(plant.c_block(i))
            for i in range(plant.node_count)
        )
        expected = plant.node_count * plant.n - p_total
        if r.total_order != expected:
            worst = (r.total_order, expected)
    elapsed = time.perf_counter() - t0
    _line(1, "order formula", worst is None and elapsed < 10.0,
          f"{POOL_SIZE} instances, {elapsed:.2f}s")


def test_criterion_2_rate_certification():
    t0 = time.perf_counter()
    worst_margin = math.inf
    failed_lyap = 0
    for alpha in ALPHAS:
        for (plant, graph), r in zip(instance_pool(), pool_runs(alpha)):
            f = _generator(r, plant, graph)[0]
            absc = spectral_abscissa(f[plant.n :, plant.n :][None])[0]
            worst_margin = min(worst_margin, -alpha - absc)
            failed_lyap += not r.certificate["lyapunov"]["pass"]
    elapsed = time.perf_counter() - t0
    ok = worst_margin > 0 and failed_lyap == 0 and elapsed < 30.0
    _line(2, "rate certification", ok,
          f"min abscissa margin {worst_margin:.3e}, "
          f"{failed_lyap} Lyapunov decreases not proved, {elapsed:.2f}s")


def test_criterion_3_cancellation_identity():
    worst = -math.inf
    for alpha in ALPHAS:
        for (plant, _), r in zip(instance_pool(), pool_runs(alpha)):
            resid = r.certificate["cancellation"]["value"]
            worst = max(worst, resid / max(np.linalg.norm(plant.a), 1e-300))
    _line(3, "cancellation identity", worst <= 1e-9,
          f"worst residual {worst:.3e} of 1e-9 * ||A||")


def test_criterion_4_invariance():
    plant, graph, r, spectral = standard_run(0.5)
    g_mat, t_s = dense_g(r, spectral.laplacian)
    _, decomps = decompose_nodes(plant)
    t_p = scipy.linalg.block_diag(*(d.t_p for d in decomps))
    algebra = float(np.linalg.norm(t_p.T @ (t_s @ g_mat) @ t_s))
    trace = run_simulation(plant, graph, r, t_final=10.0 / max(r.alpha, 0.5),
                           dt=0.02)
    _cache["standard_trace"] = trace
    simulated = check_invariance(trace)
    ok = algebra <= 1e-9 and simulated <= 1e-6
    _line(4, "invariance", ok,
          f"matrix identity {algebra:.3e}, simulated residual {simulated:.3e}")


def test_criterion_5_simulation_vs_linear_theory():
    plant, graph, r, spectral = standard_run(0.5)
    trace = run_simulation(plant, graph, r, t_final=1.0, dt=1e-3)
    errors = stacked_errors(trace)
    e0, e_final = errors[0], errors[-1]
    g_mat, t_s = dense_g(r, spectral.laplacian)
    oracle = scipy.linalg.expm(t_s @ g_mat) @ e0
    rel = np.linalg.norm(e_final - oracle) / np.linalg.norm(oracle)
    alpha_hat = estimate_rate(_cache["standard_trace"])
    ok = rel <= 1e-6 and alpha_hat >= r.alpha - 0.05
    _line(5, "simulation vs linear theory", ok,
          f"relative deviation {rel:.3e}, alpha_hat {alpha_hat:.3f}")


def test_criterion_6_classical_reduction():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3))
    # center the plant spectrum: an exponentially growing x(t) would push the
    # float64 floor of xhat - x above the convergence threshold
    a -= spectral_abscissa(a[None])[0] * np.eye(3)
    c = np.array([[1.0, 0.0, 0.0]])
    plant = Plant(a=a, c=c, node_rows=(1,))
    graph = NetworkGraph(weights=np.zeros((1, 1)))
    alpha = 1.0
    r = synthesize(plant, graph, alpha=alpha)
    order_ok = r.total_order == plant.n - 1
    eig_ok = spectral_abscissa(r.nodes[0].n_gain[None])[0] < -alpha
    trace = run_simulation(plant, graph, r, t_final=math.log(1e6) / alpha + 1.0,
                           dt=0.01)
    e0 = trace.error_norms[0, 0]
    e_t = trace.error_norms[-1, 0]
    conv_ok = e_t <= 1e-6 * e0
    _line(6, "classical single-node reduction",
          order_ok and eig_ok and conv_ok,
          f"order {r.total_order}, abscissa "
          f"{spectral_abscissa(r.nodes[0].n_gain[None])[0]:.3f}, decay {e_t / e0:.2e}")


def _lemma_matrix(plant, graph):
    """Independent assembly of T^T (mirror (x) I_n) T + G for criterion 7."""
    spectral = spectral_data(graph)
    decs = []
    for i in range(plant.node_count):
        frf = full_rank_factorize(plant.c_block(i)[None])[0]
        decs.append(observability_decomposition(plant.a, frf.f_factor[None])[0])
    n = plant.n
    big_n = plant.node_count
    t_blk = scipy.linalg.block_diag(*(d.t_orth for d in decs))
    mirror_big = np.kron(spectral.mirror, np.eye(n))
    g_diag = np.concatenate([
        np.concatenate([np.ones(d.v_dim), np.zeros(n - d.v_dim)]) for d in decs
    ])
    return t_blk.T @ mirror_big @ t_blk + np.diag(g_diag)


def test_criterion_7_coupling_margin():
    worst = math.inf
    for (plant, graph), r in zip(instance_pool(), pool_runs(0.0)):
        m = _lemma_matrix(plant, graph)
        lam = scipy.linalg.eigvalsh(0.5 * (m + m.T))[0]
        worst = min(worst, lam - r.epsilon)
    positivity_ok = worst > 0

    # joint-observability failures must be rejected with the right error
    a = np.diag([1.0, 2.0])
    frf = full_rank_factorize(np.array([[[1.0, 0.0]]]))[0]
    dec = observability_decomposition(a, frf.f_factor[None])[0]
    single = NetworkGraph(weights=np.zeros((1, 1)))
    with pytest.raises(SynthesisError) as exc1:
        compute_epsilon([dec], spectral_data(single), (1.0,))
    plant_bad = Plant(a=a, c=np.array([[1.0, 0.0], [1.0, 0.0]]),
                      node_rows=(1, 1))
    pair = NetworkGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SynthesisError) as exc2:
        synthesize(plant_bad, pair)
    reject_ok = exc1.value.step == "epsilon" and exc2.value.step == "observability"
    _line(7, "coupling margin positivity", positivity_ok and reject_ok,
          f"min eig minus epsilon {worst:.3e}, rejections "
          f"'{exc1.value.step}'/'{exc2.value.step}'")


def test_criterion_8_lmi_feasibility():
    all_pass = all(
        r.certificate["lmi"]["pass"]
        for alpha in ALPHAS
        for r in pool_runs(alpha)
    )

    # corrupted candidate: gamma = 0 on an instance with an unstable retained
    # block at one node must fail
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    c = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    plant = Plant(a=a, c=c, node_rows=(1, 1))
    graph = NetworkGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
    r = synthesize(plant, graph)
    corrupted = certified(plant, graph, dataclasses.replace(r, gamma=0.0, alpha=0.0))
    corrupted_ok = all(w < 0 for w in corrupted["lmi"]["nodes"])
    _line(8, "feasibility LMI", all_pass and not corrupted_ok,
          f"constructive candidate pass on {POOL_SIZE}x{len(ALPHAS)} runs, "
          "gamma=0 corruption rejected")


def test_criterion_9_special_cases():
    # full-row-rank outputs: factorization skipped (D = I), order N*n - m
    rng = np.random.default_rng(9)
    plant_fr = Plant(a=rng.standard_normal((4, 4)),
                     c=rng.standard_normal((3, 4)), node_rows=(2, 1))
    pair = NetworkGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
    d_identity = all(
        np.array_equal(full_rank_factorize(plant_fr.c_block(i)[None])[0].d_factor,
                       np.eye(plant_fr.node_rows[i]))
        for i in range(2)
    )
    r_fr = synthesize(plant_fr, pair, alpha=0.5)
    order_ok = r_fr.total_order == 2 * 4 - 3

    # every node with v = p: void middle block, reduced gain formulas
    plant_sp = Plant(a=np.diag([-1.0, -2.0]), c=np.eye(2), node_rows=(1, 1))
    r_sp = synthesize(plant_sp, pair, alpha=0.5)
    route_ok = all(g.h_inj.size == 0 and g.v_dim == g.p_dim for g in r_sp.nodes)
    certs_ok = all(
        r.certificate["lmi"]["pass"] and r.certificate["lyapunov"]["pass"]
        and r.certificate["cancellation"]["value"] <= 1e-9
        for r in (r_fr, r_sp)
    )
    _line(9, "special-structure routes",
          d_identity and order_ok and route_ok and certs_ok,
          f"full-row-rank order {r_fr.total_order}, "
          f"v=p nodes {sum(g.v_dim == g.p_dim for g in r_sp.nodes)}/2")
