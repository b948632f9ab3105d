"""Global closed-loop error dynamics and the analytic convergence certificates.

The stacked error e = col(e_1, ..., e_N) obeys
    e' = (T_s N T_s^T - gamma T_s M (R L (x) I_n)) e
and stays on im T_s, where it is generated by the restricted matrix
    N - gamma M (R L (x) I_n) T_s.
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


def build_error_system(
    realization: ObserverRealization, spectral: GraphSpectralData
) -> GlobalErrorSystem:
    """Assemble the full (Nn x Nn) and restricted error generators."""
    nodes = realization.nodes
    n = nodes[0].t_is.shape[0]
    big_n = len(nodes)
    if spectral.laplacian.shape[0] != big_n:
        raise ValueError("graph size does not match the realization")

    t_s = scipy.linalg.block_diag(*(g.t_is for g in nodes))
    t_p = scipy.linalg.block_diag(*(_orthogonal_complement(g.t_is) for g in nodes))
    n_blk = scipy.linalg.block_diag(*(g.n_gain for g in nodes))
    m_blk = scipy.linalg.block_diag(*(g.m_gain for g in nodes))
    coupling = np.kron(spectral.r_diag @ spectral.laplacian, np.eye(n))

    full = t_s @ n_blk @ t_s.T - realization.gamma * t_s @ m_blk @ coupling
    restricted = n_blk - realization.gamma * m_blk @ coupling @ t_s
    return GlobalErrorSystem(
        full_matrix=full, restricted_matrix=restricted, t_s=t_s, t_p=t_p
    )


def certify_rate(sys: GlobalErrorSystem, alpha: float) -> dict:
    """Spectral abscissa of the restricted generator versus the target rate."""
    absc = spectral_abscissa(sys.restricted_matrix)
    return {"abscissa": absc, "pass": _judge("rate", absc, 0.0, alpha)["pass"]}


def _stacked_lyapunov_weight(realization: ObserverRealization) -> np.ndarray:
    """Block-diagonal P with P_i = I + T_ie (P_ie - I) T_ie^T (P_iu = I)."""
    blocks = []
    for g in realization.nodes:
        n = g.t_is.shape[0]
        k = g.p_ie.shape[0]  # = v_i - p_i
        p_i = np.eye(n)
        if k:
            t_e = g.t_is[:, :k]
            p_i = p_i + t_e @ (g.p_ie - np.eye(k)) @ t_e.T
        blocks.append(p_i)
    return scipy.linalg.block_diag(*blocks)


def lyapunov_decrease_check(
    sys: GlobalErrorSystem, realization: ObserverRealization, alpha: float
) -> float:
    """Largest eigenvalue of T_s^T (Lambda + 2 alpha P) T_s (must be < 0).

    Lambda is the quadratic-form generator of dV/dt for V(e) = e^T P e.
    """
    p_w = _stacked_lyapunov_weight(realization)
    full = sys.full_matrix
    lam = p_w @ full + full.T @ p_w
    reduced = sys.t_s.T @ (lam + 2.0 * alpha * p_w) @ sys.t_s
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
