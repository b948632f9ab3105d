"""Seeded problem instances for the benchmark.

The generator depends on numpy only, so a change to the program never changes
the inputs it is measured on.  It is the test-suite generator without its
conditioning filter: no instance is dropped or resampled because the program
handles it badly.

    A ~ N(0, 1) / sqrt(n),   C ~ N(0, 1) with one output row per node,
    (C, A) resampled only until it is observable,
    graph = Hamiltonian cycle + N random extra edges, weights U(0.5, 2),
    alpha = 0.5.
"""

from __future__ import annotations

import numpy as np

ALPHA = 0.5
RANK_TOL = 1e-9


def is_observable(c: np.ndarray, a: np.ndarray) -> bool:
    """Numerical rank of col(C, CA, ..., CA^(n-1)) equals n."""
    n = a.shape[0]
    blocks = [c]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ a)
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * s[0])) == n


def cycle_plus_random_edges(rng: np.random.Generator, n_nodes: int) -> np.ndarray:
    """Weights w[j, i] > 0 for an edge i -> j: a Hamiltonian cycle plus N draws."""
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
    return w


def make_problem(seed: int, index: int, n: int, n_nodes: int) -> dict:
    """Problem-file document of instance `index` for the run seeded `seed`."""
    rng = np.random.default_rng([seed, index, n, n_nodes])
    while True:
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        c = rng.standard_normal((n_nodes, n))
        if is_observable(c, a):
            break
    w = cycle_plus_random_edges(rng, n_nodes)
    edges = [
        {"from": int(i) + 1, "to": int(j) + 1, "weight": float(w[j, i])}
        for j, i in zip(*np.nonzero(w))
    ]
    return {
        "A": a.tolist(),
        "C": c.tolist(),
        "node_outputs": [1] * n_nodes,
        "graph": {"N": n_nodes, "edges": edges},
        "alpha": ALPHA,
    }


def expected_total_order(doc: dict) -> int:
    """The paper's order formula N*n - sum p_i with p_i = rank C_i."""
    c = np.asarray(doc["C"], dtype=float)
    n = c.shape[1]
    rows = np.cumsum([0, *doc["node_outputs"]])
    ranks = [
        np.linalg.matrix_rank(c[rows[k] : rows[k + 1]]) for k in range(len(rows) - 1)
    ]
    return len(ranks) * n - int(sum(ranks))
