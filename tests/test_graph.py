import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distobs
from distobs import (
    GraphStructureError,
    NetworkGraph,
    is_strongly_connected,
    laplacian,
    perron_row_vector,
)
from distobs.error_system import _lemma_matrix

from conftest import mirror_laplacian, random_strongly_connected_graph


def cycle3():
    w = np.zeros((3, 3))
    w[1, 0] = w[2, 1] = w[0, 2] = 1.0  # 1->2->3->1
    return NetworkGraph(weights=w)


class TestConnectivity:
    def test_single_node(self):
        assert is_strongly_connected(NetworkGraph(weights=np.zeros((1, 1))))

    def test_directed_cycle(self):
        assert is_strongly_connected(cycle3())

    def test_one_way_pair(self):
        w = np.zeros((2, 2))
        w[1, 0] = 1.0  # only 1 -> 2
        assert not is_strongly_connected(NetworkGraph(weights=w))

    def _reachability_oracle(self, w):
        # brute-force transitive closure on the flow digraph (edge i->j iff w[j,i]>0)
        n = w.shape[0]
        reach = (w.T > 0) | np.eye(n, dtype=bool)
        for _ in range(n):
            reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
        return bool(np.all(reach))

    def test_matches_transitive_closure_exhaustive(self):
        for n in (2, 3):
            offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
            for bits in itertools.product([0, 1], repeat=len(offdiag)):
                w = np.zeros((n, n))
                for b, (i, j) in zip(bits, offdiag):
                    w[j, i] = float(b)
                g = NetworkGraph(weights=w)
                assert is_strongly_connected(g) == self._reachability_oracle(w)

    def test_matches_transitive_closure_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(4, 6))
            w = (rng.random((n, n)) < 0.35).astype(float)
            np.fill_diagonal(w, 0.0)
            g = NetworkGraph(weights=w)
            assert is_strongly_connected(g) == self._reachability_oracle(w)


class TestLaplacian:
    def test_mutual_pair(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            laplacian(NetworkGraph(weights=w)), [[1, -1], [-1, 1]]
        )

    def test_directed_cycle(self):
        np.testing.assert_allclose(
            laplacian(cycle3()), [[1, 0, -1], [-1, 1, 0], [0, -1, 1]]
        )

    def test_single_node(self):
        np.testing.assert_allclose(
            laplacian(NetworkGraph(weights=np.zeros((1, 1)))), [[0.0]]
        )

    def test_rows_sum_to_zero(self, rng):
        for _ in range(20):
            g = random_strongly_connected_graph(rng, int(rng.integers(2, 9)))
            # cancellation is exact up to summation-order rounding (a few ulp)
            np.testing.assert_allclose(laplacian(g).sum(axis=1), 0.0, atol=1e-14)


class TestPerron:
    def test_balanced_graph_gives_ones(self):
        r = perron_row_vector(laplacian(cycle3()))
        np.testing.assert_allclose(r, [1.0, 1.0, 1.0], atol=1e-12)

    def test_two_node_weighted(self):
        lap = np.array([[1.0, -1.0], [-2.0, 2.0]])
        np.testing.assert_allclose(perron_row_vector(lap), [4 / 3, 2 / 3], atol=1e-12)

    def test_single_node(self):
        np.testing.assert_allclose(perron_row_vector(np.array([[0.0]])), [1.0])

    def test_rejects_disconnected(self):
        # two isolated nodes: left null space is two-dimensional
        with pytest.raises(GraphStructureError):
            perron_row_vector(np.zeros((2, 2)))

    def test_random_graph_invariants(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            g = random_strongly_connected_graph(rng, n)
            # rational weights: snap to quarters, keep cycle intact
            w = np.round(g.weights * 4) / 4
            w[g.weights > 0] = np.maximum(w[g.weights > 0], 0.25)
            g = NetworkGraph(weights=w)
            lap = laplacian(g)
            r = perron_row_vector(lap)
            assert np.max(np.abs(r @ lap)) <= 1e-10 * max(1.0, np.linalg.norm(lap))
            assert abs(r.sum() - n) <= 1e-12 * n
            assert r.min() > 0


def program_mirror(graph):
    """(Laplacian, mirror Laplacian) of a strongly connected graph, the mirror
    as error_system._lemma_matrix forms it: its lemma matrix for zero weights
    over one-column bases."""
    lap = laplacian(graph)
    n = lap.shape[0]
    mirror = _lemma_matrix(perron_row_vector(lap), lap, np.zeros(n),
                           [np.ones((1, 1))] * n, [1] * n)[1]
    return lap, mirror


class TestSpectralData:
    def test_directed_cycle_mirror(self):
        _, mirror = program_mirror(cycle3())
        np.testing.assert_allclose(
            mirror, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], atol=1e-12
        )

    def test_mutual_pair(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        lap, mirror = program_mirror(NetworkGraph(weights=w))
        np.testing.assert_allclose(mirror, 2 * lap, atol=1e-12)

    def test_single_node_sentinel(self):
        _, mirror = program_mirror(NetworkGraph(weights=np.zeros((1, 1))))
        np.testing.assert_allclose(mirror, [[0.0]])

    def test_mirror_invariants_random(self, rng):
        """Exactly symmetric, positive semidefinite with a simple zero
        eigenvalue on the ones vector, and bit for bit the entrywise
        r_i L_ij + L_ji r_j."""
        for _ in range(40):
            n = int(rng.integers(2, 9))
            graph = random_strongly_connected_graph(rng, n)
            _, mirror = program_mirror(graph)
            assert np.array_equal(mirror, mirror_laplacian(graph)[2])
            assert np.array_equal(mirror, mirror.T)
            eigs = np.sort(np.linalg.eigvalsh(mirror))
            assert eigs[0] >= -1e-10
            assert np.count_nonzero(np.abs(eigs) < 1e-8) == 1
            np.testing.assert_allclose(mirror @ np.ones(n), 0.0, atol=1e-10)

    def test_rejects_non_strongly_connected(self):
        w = np.zeros((2, 2))
        w[1, 0] = 1.0
        graph = NetworkGraph(weights=w)
        assert not is_strongly_connected(graph)
        with pytest.raises(GraphStructureError):
            perron_row_vector(laplacian(graph))


class TestNetworkGraphValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            NetworkGraph(weights=np.array([[0.0, -1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("weight", [np.inf, np.nan])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="finite"):
            NetworkGraph(weights=np.array([[0.0, weight], [1.0, 0.0]]))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            NetworkGraph(weights=np.array([[1.0, 1.0], [1.0, 0.0]]))


def test_import_leaves_scipy_sparse_out():
    """Strong connectivity is plain reachability: importing distobs does not
    load scipy.sparse."""
    src = str(Path(distobs.__file__).resolve().parents[1])
    code = ("import sys, distobs; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
