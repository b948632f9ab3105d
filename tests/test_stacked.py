"""The stacked stages against the same stages run node by node, on stacks of
one: every field and certificate value bit for bit, and the node that a
failure names."""

import dataclasses

import numpy as np
import pytest

from distobs import (
    NetworkGraph,
    Plant,
    SynthesisError,
    assemble_gains,
    certify,
    compute_epsilon,
    decompose_nodes,
    full_rank_factorize,
    observability_decomposition,
    place_injection,
    select_gamma,
    solve_pie,
    spectral_abscissa,
    spectral_data,
    synthesize,
    verify_cancellation,
)
from distobs import error_system, synthesis
from distobs.linalg import StackError
from distobs.simulate import _generator

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
        frf = full_rank_factorize(plant.c_block(i)[None])[0]
        assert_same_record(frfs[i], frf)
        assert_same_record(decomps[i],
                           observability_decomposition(plant.a, frf.f_factor[None])[0])


def generator_block_by_block(r, lap):
    off = error_system._offsets(r)
    out = np.zeros((off[-1], off[-1]))
    for i, g in enumerate(r.nodes):
        out[off[i] : off[i + 1], off[i] : off[i + 1]] = g.n_gain
    rows, cols, scales = error_system._coupling_scales(r, lap)
    for i, j, scale in zip(rows.tolist(), cols.tolist(), scales.tolist()):
        c = scale * r.nodes[i].m_gain
        out[off[i] : off[i + 1], off[j] : off[j + 1]] += c @ r.nodes[j].p_out
    return out


def invariance_block_by_block(r, lap, decomps):
    """The square root of the summed squares of the blocks X_i R_ij,
    X_i = T_ip^T P_i, at the Laplacian's nonzeros and on the diagonal,
    listed in the order certify() sums them."""
    xs = [d.t_p.T @ g.p_out for g, d in zip(r.nodes, decomps)]
    rows, cols, scales = error_system._coupling_scales(r, lap)
    squares = [np.square(xs[i] @ g.n_gain).ravel()
               for i, g in enumerate(r.nodes) if lap[i, i] == 0]
    blocks = {}
    for i, j, scale in zip(rows.tolist(), cols.tolist(), scales.tolist()):
        block = (scale * (xs[i] @ r.nodes[i].m_gain)) @ r.nodes[j].p_out
        if i == j:
            block += xs[i] @ r.nodes[i].n_gain
        blocks.setdefault(block.shape, []).append(np.square(block).ravel())
    return np.sqrt(np.sum(np.concatenate(squares + sum(blocks.values(), []))))


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_synthesis_and_certificates_match_node_by_node(case, alpha):
    plant, graph = instances()[case]
    r = synthesize(plant, graph, alpha)
    frfs, decomps = decompose_nodes(plant)
    for g, frf, dec in zip(r.nodes, frfs, decomps):
        a22, ea12 = dec.a22[None], (dec.e_mat @ dec.a12)[None]
        h = place_injection(a22, ea12, alpha)
        pie = solve_pie(a22, ea12, h, r.gamma, alpha)
        assert_same_record(g, assemble_gains([dec], [frf], h, pie)[0])

    cert = r.certificate
    residuals = [verify_cancellation([g], [d], [f])[0]
                 for g, d, f in zip(r.nodes, decomps, frfs)]
    assert bits(cert["cancellation"]["value"]) == bits(max(residuals))
    # the node terms, each node's alone on a design of one; lmi reports the first
    g = error_system._lemma_weights(len(r.nodes))
    terms = error_system._node_terms(r, g)
    for i, node in enumerate(r.nodes):
        alone = error_system._node_terms(dataclasses.replace(r, nodes=(node,)), g[i : i + 1])
        for got, want in zip(terms[:4], alone[:4]):
            assert bits(got[i]) == bits(want[0])
    assert bits(cert["lmi"]["nodes"]) == bits(terms[0])
    assert bits(cert["lmi"]["value"]) == bits(np.max(terms[0]))
    lap = spectral_data(graph).laplacian
    r_mat = generator_block_by_block(r, lap)
    assert bits(_generator(r, plant, graph)[0][plant.n :, plant.n :]) == bits(r_mat)
    assert bits(cert["invariance"]["value"]) == bits(invariance_block_by_block(r, lap, decomps))
    if r_mat.size:
        assert cert["lyapunov"]["pass"]
        assert bits(cert["lyapunov"]["node_term"]) == bits(np.max(terms[0]))
        beyond = -4.0 * spectral_abscissa(r_mat[None])[0]
        failed = certify(dataclasses.replace(r, alpha=beyond), plant,
                         spectral_data(graph), frfs, decomps)["lyapunov"]
        assert not failed["pass"]


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
                              error_system._lemma_weights(plant.node_count))
    gamma = select_gamma(decomps, epsilon, alpha)
    failures = []
    for i, (frf, dec) in enumerate(zip(frfs, decomps)):
        a22, ea12 = dec.a22[None], (dec.e_mat @ dec.a12)[None]
        try:
            h = place_injection(a22, ea12, alpha)
            assemble_gains([dec], [frf], h, solve_pie(a22, ea12, h, gamma, alpha))
        except StackError as exc:
            failures.append((i + 1, str(exc.error)))
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
