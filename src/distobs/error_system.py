"""Global closed-loop error dynamics and the analytic convergence certificates.

Node i's observer hears its neighbours through the coupling term
    gamma r_i M_i sum_j a_ij (xhat_j - xhat_i),
written once, in _coupling, for the simulator and the error system alike.
With G = blkdiag(N_i) T_s^T plus the coupling term applied to I_Nn, the
stacked error e = col(e_1, ..., e_N) obeys e' = T_s G e and stays on im T_s,
of dimension N n - sum p_i.  There it is generated by the restricted matrix
R = G T_s, which is the observer block of the simulator's generator F.  The
Lyapunov certificate is taken in these coordinates, with the weight
W = blkdiag_i(P_ie, I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import GraphSpectralData
from .linalg import FullRankFactorization, NodeDecomposition, spectral_abscissa
from .synthesis import (
    ObserverRealization,
    Plant,
    verify_cancellation,
    verify_lmi_th1,
)

# The certificates in the order certify() reports them.  Each has its bound as
# a function of (||A||_F, alpha), and whether a value equal to the bound passes.
CERTIFICATE_BOUNDS = {
    "cancellation": (lambda a_norm, alpha: 1e-9 * max(a_norm, 1e-300), True),
    "lmi": (lambda a_norm, alpha: 0.0, False),
    "rate": (lambda a_norm, alpha: -alpha, False),
    "invariance": (lambda a_norm, alpha: 1e-9, True),
    "lyapunov": (lambda a_norm, alpha: 0.0, False),
}


def _judge(name: str, value: float, a_norm: float, alpha: float) -> dict:
    bound_of, inclusive = CERTIFICATE_BOUNDS[name]
    bound = float(bound_of(a_norm, alpha))
    ok = value <= bound if inclusive else value < bound
    return {"value": float(value), "bound": bound, "pass": bool(ok)}


@dataclass(frozen=True)
class GlobalErrorSystem:
    full_matrix: np.ndarray
    restricted_matrix: np.ndarray
    t_s: np.ndarray
    t_p: np.ndarray


def _orthogonal_complement(t_is: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of im t_is (columns orthonormal)."""
    n, k = t_is.shape
    if k == 0:
        return np.eye(n)
    if k == n:
        return np.zeros((n, 0))
    return scipy.linalg.null_space(t_is.T)


def _coupling(
    realization: ObserverRealization, lap: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Rows gamma r_i M_i sum_j a_ij (X_j - X_i), stacked over the nodes i, of a
    node-stacked X (Nn x k)."""
    nodes = realization.nodes
    n = x.shape[0] // len(nodes)
    # block i of -(Lap (x) I_n) X is sum_j a_ij (X_j - X_i)
    diff = -(lap @ x.reshape(len(nodes), -1)).reshape(x.shape)
    return np.vstack([
        (realization.gamma * r_i) * (g.m_gain @ diff[i * n : (i + 1) * n])
        for i, (g, r_i) in enumerate(zip(nodes, realization.r_vector))
    ])


def build_error_system(
    realization: ObserverRealization, spectral: GraphSpectralData
) -> GlobalErrorSystem:
    """Assemble the full (Nn x Nn) and restricted error generators."""
    nodes = realization.nodes
    if spectral.laplacian.shape[0] != len(nodes):
        raise ValueError("graph size does not match the realization")

    t_s = scipy.linalg.block_diag(*(g.t_is for g in nodes))
    t_p = scipy.linalg.block_diag(*(_orthogonal_complement(g.t_is) for g in nodes))
    coupled = _coupling(realization, spectral.laplacian, np.eye(t_s.shape[0]))
    g_mat = scipy.linalg.block_diag(*(g.n_gain for g in nodes)) @ t_s.T + coupled
    return GlobalErrorSystem(
        full_matrix=t_s @ g_mat, restricted_matrix=g_mat @ t_s, t_s=t_s, t_p=t_p
    )


def certify_rate(sys: GlobalErrorSystem, alpha: float) -> dict:
    """Spectral abscissa of the restricted generator versus the target rate."""
    absc = spectral_abscissa(sys.restricted_matrix)
    return {"abscissa": absc, "pass": _judge("rate", absc, 0.0, alpha)["pass"]}


def lyapunov_decrease_check(
    sys: GlobalErrorSystem, realization: ObserverRealization, alpha: float
) -> float:
    """Largest eigenvalue of W R + R^T W + 2 alpha W (must be < 0).

    R is the restricted generator and W = blkdiag_i(P_ie, I_{n - v_i}) the
    weight of V(e) = e^T P e in the coordinates of im T_s.
    """
    w = np.eye(sys.restricted_matrix.shape[0])
    start = 0
    for g in realization.nodes:
        stop = start + g.p_ie.shape[0]
        w[start:stop, start:stop] = g.p_ie
        start += g.n_gain.shape[0]
    wr = w @ sys.restricted_matrix
    reduced = wr + wr.T + 2.0 * alpha * w
    reduced = 0.5 * (reduced + reduced.T)
    if reduced.size == 0:
        return -np.inf
    return float(scipy.linalg.eigvalsh(reduced)[-1])


def certify(
    realization: ObserverRealization,
    plant: Plant,
    spectral: GraphSpectralData,
    frfs: list[FullRankFactorization],
    decomps: list[NodeDecomposition],
    g_weights,
) -> dict:
    """Check a design against every certificate in CERTIFICATE_BOUNDS.

    Returns {name: {"value", "bound", "pass"}} in the table's order.  The lmi
    check also carries "nodes", the worst eigenvalue of each node's LMI.
    """
    alpha = realization.alpha
    candidates = [
        {"p_ie": g.p_ie, "p_iu": np.eye(d.n_dim - d.v_dim),
         "w": g.p_ie @ g.h_inj if g.p_ie.size else np.zeros((0, d.p_dim))}
        for g, d in zip(realization.nodes, decomps)
    ]
    _, lmi_eigs = verify_lmi_th1(
        candidates, decomps, realization.gamma, realization.epsilon, alpha, g_weights
    )
    err_sys = build_error_system(realization, spectral)
    values = {
        "cancellation": max(
            verify_cancellation(g, d, f)
            for g, d, f in zip(realization.nodes, decomps, frfs)
        ),
        # np.max propagates a NaN eigenvalue, so that it fails the check
        "lmi": np.max(lmi_eigs),
        "rate": certify_rate(err_sys, alpha)["abscissa"],
        "invariance": np.linalg.norm(err_sys.t_p.T @ err_sys.full_matrix @ err_sys.t_s),
        "lyapunov": lyapunov_decrease_check(err_sys, realization, alpha),
    }
    a_norm = float(np.linalg.norm(plant.a))
    checks = {name: _judge(name, values[name], a_norm, alpha) for name in CERTIFICATE_BOUNDS}
    checks["lmi"]["nodes"] = lmi_eigs
    return checks
