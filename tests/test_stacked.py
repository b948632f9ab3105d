"""The stacked stages against the same stages run node by node, on stacks of
one: every field and certificate value bit for bit, and the node that a
failure names."""

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
    restricted_generator,
    select_gamma,
    solve_pie,
    spectral_data,
    synthesize,
    verify_cancellation,
    verify_lmi_th1,
)
from distobs import error_system, synthesis
from distobs.linalg import StackError

from conftest import mixed_structure_instance, random_observable_instance, standard_instance


def instances():
    """The standard instance, the mixed-structure one (several shape groups)
    and four random ones."""
    rng = np.random.default_rng(53)
    return [standard_instance(), mixed_structure_instance()] + [
        random_observable_instance(rng) for _ in range(4)]


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


def assert_same_record(got, want):
    """Every field equal bit for bit, in the same memory layout."""
    for field in dataclasses.fields(want):
        a, b = np.asarray(getattr(got, field.name)), np.asarray(getattr(want, field.name))
        assert a.shape == b.shape and bits(a) == bits(b), field.name
        assert a.strides == b.strides or a.size <= 1, field.name


@pytest.mark.parametrize("case", range(6))
def test_decompositions_match_node_by_node(case):
    plant, _ = instances()[case]
    frfs, decomps = decompose_nodes(plant)
    for i in range(plant.node_count):
        frf = full_rank_factorize(plant.c_block(i))
        assert_same_record(frfs[i], frf)
        assert_same_record(decomps[i], observability_decomposition(plant.a, frf.f_factor))


def generator_block_by_block(r, lap):
    off = error_system._offsets(r)
    out = np.zeros((off[-1], off[-1]))
    for i, g in enumerate(r.nodes):
        out[off[i] : off[i + 1], off[i] : off[i + 1]] = g.n_gain
    for i, j, c in error_system._coupling(r, lap):
        out[off[i] : off[i + 1], off[j] : off[j + 1]] += c @ r.nodes[j].p_out
    return out


def lyapunov_block_by_block(r_mat, r, alpha):
    m = r_mat + alpha * np.eye(r_mat.shape[0])
    for g, start in zip(r.nodes, error_system._offsets(r)):
        stop = start + g.p_ie.shape[0]
        m[start:stop] = 0.5 * (g.p_ie + g.p_ie.T) @ m[start:stop]
    k = m.shape[0]
    return scipy.linalg.eigvalsh(m + m.T, subset_by_index=[k - 1, k - 1])[0]


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_synthesis_and_certificates_match_node_by_node(case, alpha):
    plant, graph = instances()[case]
    r = synthesize(plant, graph, alpha)
    frfs, decomps = decompose_nodes(plant)
    for g, frf, dec in zip(r.nodes, frfs, decomps):
        ea12 = dec.e_mat @ dec.a12
        h = place_injection(dec.a22, ea12, alpha)
        pie = solve_pie(dec.a22, ea12, h, r.gamma, alpha)
        assert_same_record(g, assemble_gains(dec, frf, h, pie))

    cert = r.certificate
    residuals = [verify_cancellation(g, d, f) for g, d, f in zip(r.nodes, decomps, frfs)]
    assert bits(cert["cancellation"]["value"]) == bits(max(residuals))
    lmi = [verify_lmi_th1([g.p_ie], [g.h_inj], [d], r.gamma, r.epsilon, alpha, [1.0])[1][0]
           for g, d in zip(r.nodes, decomps)]
    assert bits(cert["lmi"]["nodes"]) == bits(lmi)
    lap = spectral_data(graph).laplacian
    r_mat = generator_block_by_block(r, lap)
    assert bits(restricted_generator(r, lap)) == bits(r_mat)
    off = error_system._offsets(r)
    invariance = np.linalg.norm(np.vstack([
        (d.t_p.T @ g.p_out) @ r_mat[start:stop]
        for g, d, start, stop in zip(r.nodes, decomps, off, off[1:])]))
    assert bits(cert["invariance"]["value"]) == bits(invariance)
    if r_mat.size:
        mu = lyapunov_block_by_block(r_mat, r, alpha)
        assert bits(cert["lyapunov"]["value"]) == bits(mu)
        w = np.concatenate([[1.0]] + [scipy.linalg.eigvalsh(0.5 * (g.p_ie + g.p_ie.T))
                                      for g in r.nodes if g.p_ie.size])
        rate = -alpha + mu / (2.0 * (w.max() if mu < 0 else w.min()))
        assert bits(cert["rate"]["value"]) == bits(rate)


def test_records_are_views_into_one_stack_per_shape():
    plant, graph = standard_instance()
    r = synthesize(plant, graph, 0.5)
    _, decomps = decompose_nodes(plant)
    for records, name in ((decomps, "a22"), (r.nodes, "n_gain"), (r.nodes, "p_ie")):
        bases = [getattr(x, name).base for x in records]
        assert bases[0] is not None and all(base is bases[0] for base in bases)


def test_lowest_failing_node_is_named_across_steps(monkeypatch):
    """Node 2's decomposition fails (a marked row) and node 4 has no output.
    The stacked factorization meets node 4 first, yet the error names node 2
    at its decomposition, as a node-by-node loop does; with the zero row
    first, node 1's factorization is named."""
    rng = np.random.default_rng(5)
    a, c = rng.standard_normal((3, 3)), rng.standard_normal((4, 3))
    c[3] = 0.0
    marked = c[1].copy()
    decompose = synthesis.observability_decomposition

    def failing_on_marked_row(a, f, *args):
        hit = [j for j, f_j in enumerate(f) if np.array_equal(f_j[0], marked)]
        if hit:
            raise StackError(hit[0], ValueError("marked row"))
        return decompose(a, f, *args)

    monkeypatch.setattr(synthesis, "observability_decomposition", failing_on_marked_row)
    for rows, want in (([0, 1, 2, 3], ("decomposition", "node 2: marked row")),
                       ([3, 1, 0, 2], ("factorization", "node 1: node has no effective "
                                       "output (zero output matrix)"))):
        plant = Plant(a=a, c=c[rows], node_rows=(1,) * 4)
        with pytest.raises(SynthesisError) as exc:
            decompose_nodes(plant)
        assert (exc.value.step, exc.value.message) == want


def gains_failures_node_by_node(plant, graph, alpha):
    """(node, message) of each node whose injection, weight or gains fail,
    from the stages run on stacks of one."""
    frfs, decomps = decompose_nodes(plant)
    epsilon = compute_epsilon(decomps, spectral_data(graph),
                              synthesis._lemma_weights(plant.node_count))
    gamma = select_gamma(decomps, epsilon, alpha)
    failures = []
    for i, (frf, dec) in enumerate(zip(frfs, decomps)):
        ea12 = dec.e_mat @ dec.a12
        try:
            h = place_injection(dec.a22, ea12, alpha)
            assemble_gains(dec, frf, h, solve_pie(dec.a22, ea12, h, gamma, alpha))
        except ValueError as exc:
            failures.append((i + 1, str(exc)))
    return failures


def test_gains_failure_names_the_first_node_of_the_loop():
    """On this n = 12, N = 30 plant, at alpha = 1.5, one node's weight P_ie
    fails its Lyapunov solve and a later one misses the placement target,
    which the stacked pass meets first: the error still names the earlier
    node, with its own message."""
    rng = np.random.default_rng([99, 2])
    n, big_n = 12, 30
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    c = rng.standard_normal((big_n, n))
    w = np.roll(np.eye(big_n), 1, axis=0)  # directed cycle i -> i + 1
    plant, graph = Plant(a=a, c=c, node_rows=(1,) * big_n), NetworkGraph(weights=w)
    failures = gains_failures_node_by_node(plant, graph, 1.5)
    (first, message), later = failures[0], failures[1:]
    assert "unstable coefficient matrix" in message
    assert any("placement" in m for _, m in later)
    with pytest.raises(SynthesisError) as exc:
        synthesize(plant, graph, 1.5)
    assert (exc.value.step, exc.value.message) == ("gains", f"node {first}: {message}")
