"""Exact simulation of the plant coupled with the N local observers.

Plant and observers form one linear time-invariant system s' = F s, with
s = col(x, z_1, ..., z_N) and a constant generator F built once from A and
the gains, so each record is expm(h F) times the one before it, h the time
between the two: one matrix-vector product per record, whatever the step.
A record that is not finite raises SimulationDiverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .error_system import _coupling_scales, _offsets
from .graph import NetworkGraph, laplacian
from .synthesis import ObserverRealization, Plant

# estimate_rate fits the last half of the samples above the numerical floor
RATE_WINDOW = 0.5


class SimulationDiverged(RuntimeError):
    def __init__(self, t: float):
        super().__init__(f"non-finite state at t = {t:.6g}; the system is unstable")
        self.t = t


@dataclass(frozen=True)
class SimulationConfig:
    t_final: float
    dt: float
    x0: np.ndarray
    z0: list[np.ndarray] | None = None
    record_stride: int = 1

    def __post_init__(self):
        # written so that a NaN or infinite dt or t_final fails too
        if not 0 < self.dt < self.t_final < math.inf:
            raise ValueError("need 0 < dt < t_final < inf")
        if self.record_stride < 1:
            raise ValueError("record_stride must be a positive integer")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))


@dataclass(frozen=True)
class SimulationTrace:
    times: np.ndarray
    x: np.ndarray                 # (samples, n)
    z: list[np.ndarray]           # per node (samples, n - p_i)
    xhat: list[np.ndarray]        # per node (samples, n)
    invariance_residuals: np.ndarray  # (samples, N), ||T_ip^T e_i||
    error_norms: np.ndarray       # (samples, N), ||e_i||, e_i = xhat_i - x


def _generator(
    realization: ObserverRealization, plant: Plant, graph: NetworkGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Generator F of s' = F s and estimate map E: s -> col(xhat_1, ..., xhat_N).

    s = col(x, z_1, ..., z_N); node i reads xhat_i = P_i z_i + Q_i C_i x and
    integrates z_i' = N_i z_i + L_i C_i x + sum_j C_ij xhat_j, the coupling
    blocks C_ij = s_ij M_i of error_system._coupling_scales.  So
    F = [[A, 0], [B, R]], formed here alone: B_i = L_i C_i + sum_j C_ij Q_j C_j,
    and R, the restricted error generator whose invariance certify() checks,
    has blocks R_ij = N_i [i = j] + C_ij P_j, filled at the Laplacian's
    nonzeros in the loop that forms B.
    """
    n, nodes = plant.n, realization.nodes
    lap = laplacian(graph)
    off = n + _offsets(realization)
    qc = [g.q_out @ plant.c_block(i) for i, g in enumerate(nodes)]
    f = np.zeros((off[-1], off[-1]))
    f[:n, :n] = plant.a
    est = np.zeros((len(nodes) * n, off[-1]))
    for i, g in enumerate(nodes):
        f[off[i] : off[i + 1], :n] = g.l_gain @ plant.c_block(i)
        f[off[i] : off[i + 1], off[i] : off[i + 1]] = g.n_gain
        est[i * n : (i + 1) * n, :n] = qc[i]
        est[i * n : (i + 1) * n, off[i] : off[i + 1]] = g.p_out
    rows, cols, scales = _coupling_scales(realization, lap)
    for i, j, scale in zip(rows.tolist(), cols.tolist(), scales.tolist()):
        c = scale * nodes[i].m_gain
        f[off[i] : off[i + 1], :n] += c @ qc[j]
        f[off[i] : off[i + 1], off[j] : off[j + 1]] += c @ nodes[j].p_out
    return f, est


def simulate(
    realization: ObserverRealization,
    plant: Plant,
    graph: NetworkGraph,
    cfg: SimulationConfig,
) -> SimulationTrace:
    """Exact trace, recorded every record_stride steps of dt and at t_final."""
    n = plant.n
    nodes = realization.nodes
    orders = [g.n_gain.shape[0] for g in nodes]
    if cfg.x0.shape != (n,):
        raise ValueError("x0 has the wrong dimension")
    if cfg.z0 is None:
        z_list = [np.zeros(k) for k in orders]
    else:
        z_list = [np.asarray(z, dtype=float) for z in cfg.z0]
        if [z.shape[0] for z in z_list] != orders:
            raise ValueError("z0 dimensions do not match observer orders")
    state = np.concatenate([cfg.x0] + z_list)
    f, est = _generator(realization, plant, graph)

    # t_final is a truncated step past the last full one if dt does not divide it
    stride = cfg.record_stride
    steps = int(math.floor(cfg.t_final / cfg.dt + 1e-9))
    truncated = cfg.t_final - steps * cfg.dt > 1e-9 * cfg.t_final
    steps += truncated
    times = np.append(np.arange(0, steps, stride) * cfg.dt, cfg.t_final)
    rows = np.empty((times.size, state.size))
    rows[0] = state
    with np.errstate(over="ignore", invalid="ignore"):
        phi = scipy.linalg.expm(stride * cfg.dt * f)
        last = (scipy.linalg.expm((cfg.t_final - times[-2]) * f)
                if truncated or steps % stride else phi)
        for k in range(1, times.size - 1):
            np.matmul(phi, rows[k - 1], out=rows[k])
        np.matmul(last, rows[-2], out=rows[-1])
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise SimulationDiverged(times[np.argmin(finite)])

    x_arr, *z_arrs = np.split(rows, np.cumsum([n] + orders[:-1]), axis=1)
    xh_arrs = np.split(rows @ est.T, len(nodes), axis=1)
    # each node's error is formed only for its two norms, then dropped
    norms = np.empty((times.size, len(nodes)))
    inv = np.empty_like(norms)
    for i, (xh, g) in enumerate(zip(xh_arrs, nodes)):
        e = xh - x_arr
        norms[:, i] = np.linalg.norm(e, axis=1)
        # ||T_ip^T e_i|| equals the norm of the component off im P_i = im T_is
        inv[:, i] = np.linalg.norm(e - (e @ g.p_out) @ g.p_out.T, axis=1)
    return SimulationTrace(
        times=times,
        x=x_arr,
        z=z_arrs,
        xhat=xh_arrs,
        invariance_residuals=inv,
        error_norms=norms,
    )


def estimate_rate(trace: SimulationTrace) -> float:
    """Decay-rate estimate from a log-linear fit on the tail of ||e(t)||: the
    last RATE_WINDOW of the samples above the numerical floor.

    Returns +inf when the stacked error is already below the numerical floor
    across the fitting window (converged beyond measurement), and NaN when
    the window holds too few recorded samples to fit.
    """
    e_norm = np.linalg.norm(trace.error_norms, axis=1)
    alive = e_norm > 1e-12
    if not np.any(alive):
        return math.inf
    last = np.nonzero(alive)[0][-1]
    usable = np.arange(last + 1)[alive[: last + 1]]
    take = max(int(round(RATE_WINDOW * usable.size)), 2)
    idx = usable[-take:]
    if idx.size < 10:
        return math.nan
    slope = np.polyfit(trace.times[idx], np.log(e_norm[idx]), 1)[0]
    return float(-slope)


def check_invariance(trace: SimulationTrace) -> float:
    """Worst relative off-subspace residual max_{t,i} ||T_ip^T e_i|| / max(1, ||e_i||)."""
    return float(np.max(trace.invariance_residuals / np.maximum(1.0, trace.error_norms)))


def trace_summary(trace: SimulationTrace) -> dict:
    """The run's verdict: fitted rate, worst invariance residual and final
    error norms, with low_confidence set when the rate is not finite or fewer
    than 20 samples lie above the numerical floor."""
    alpha_hat = estimate_rate(trace)
    e_norm = np.linalg.norm(trace.error_norms, axis=1)
    return {
        "alpha_hat": alpha_hat,
        "max_invariance_residual": check_invariance(trace),
        "final_error_norms": trace.error_norms[-1].tolist(),
        "low_confidence": bool(
            not np.isfinite(alpha_hat) or np.count_nonzero(e_norm > 1e-12) < 20
        ),
    }
