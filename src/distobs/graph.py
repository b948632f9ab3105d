"""Directed communication graphs and their Laplacian spectral quantities.

The network is a weighted digraph on N nodes.  Entry ``weights[j, i]`` is the
weight a_ji attached to the edge (i, j), i.e. information flowing from node i
to node j.  Node i therefore listens to node j whenever ``weights[i, j] > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class GraphStructureError(ValueError):
    """Raised when a graph fails a structural requirement (strong connectivity)."""


@dataclass(frozen=True)
class NetworkGraph:
    """Weighted directed graph given by its adjacency matrix [a_ij]."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if w.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        if not np.isfinite(w).all():
            raise ValueError("edge weights must be finite")
        if np.any(w < 0):
            raise ValueError("edge weights must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValueError("self-loops are not allowed (zero diagonal required)")
        object.__setattr__(self, "weights", w)
        self.weights.setflags(write=False)

    @property
    def node_count(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class GraphSpectralData:
    """Laplacian, Perron row vector and mirror Laplacian R L + L^T R of a digraph."""

    laplacian: np.ndarray
    perron_row: np.ndarray
    mirror: np.ndarray


def laplacian(g: NetworkGraph) -> np.ndarray:
    """Graph Laplacian L = D - A with d_i the i-th row sum of the adjacency."""
    a = g.weights
    return np.diag(a.sum(axis=1)) - a


def _reaches_all(edges: np.ndarray) -> bool:
    """True iff node 0 reaches every node, edge i -> j where edges[i, j]."""
    seen = np.zeros(edges.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def is_strongly_connected(g: NetworkGraph) -> bool:
    """True iff every node reaches every other along positive-weight edges.

    That holds iff node 0 reaches every node and every node reaches node 0,
    i.e. node 0 reaches every node along the edges and along the reversed ones.
    """
    edges = g.weights > 0
    return _reaches_all(edges) and _reaches_all(edges.T)


def perron_row_vector(lap: np.ndarray) -> np.ndarray:
    """Positive left null vector r of the Laplacian, normalized to sum N.

    Solves r L = 0 via the null space of L^T.  Raises GraphStructureError if
    the left null space is not one-dimensional or the normalized vector has a
    non-positive entry (both signal a non-strongly-connected input).
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if n == 1:
        return np.array([1.0])
    ns = scipy.linalg.null_space(lap.T)
    if ns.shape[1] != 1:
        raise GraphStructureError(
            "left null space of the Laplacian is not one-dimensional; "
            "graph is not strongly connected"
        )
    r = ns[:, 0]
    total = r.sum()
    if total == 0:
        raise GraphStructureError("degenerate null vector (zero sum)")
    r = r * (n / total)
    if np.any(r <= 0):
        raise GraphStructureError(
            "normalized left null vector has a non-positive entry; "
            "graph is not strongly connected"
        )
    resid = np.max(np.abs(r @ lap))
    if resid > 1e-10 * max(1.0, np.linalg.norm(lap)):
        raise GraphStructureError("left null vector residual too large")
    return r


def spectral_data(g: NetworkGraph) -> GraphSpectralData:
    """Bundle Laplacian, Perron vector and mirror Laplacian.

    Requires a strongly connected graph.
    """
    if not is_strongly_connected(g):
        raise GraphStructureError("graph is not strongly connected")
    lap = laplacian(g)
    r = perron_row_vector(lap)
    mirror = r[:, None] * lap + lap.T * r
    mirror = 0.5 * (mirror + mirror.T)
    return GraphSpectralData(laplacian=lap, perron_row=r, mirror=mirror)
