"""Exact simulation of the plant coupled with the N local observers.

Plant and observers form one linear time-invariant system s' = F s, with
s = col(x, z_1, ..., z_N) and a constant generator F built once from A and
the gains, so each record is expm(h F) times the one before it, h the time
between the two: one matrix-vector product per record, whatever the step.
A record that is not finite raises SimulationDiverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .error_system import _coupling, _offsets, restricted_generator
from .graph import NetworkGraph, laplacian
from .synthesis import ObserverRealization, Plant


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
    errors: list[np.ndarray]      # per node (samples, n), xhat_i - x
    invariance_residuals: np.ndarray = field(default=None)  # (samples, N)


def suggested_timestep(
    realization: ObserverRealization, plant: Plant, laplacian: np.ndarray
) -> float:
    """Default step resolving the fastest mode: dt * rho(F) <= 0.1.

    The simulator's generator is block triangular with diagonal blocks A and
    the restricted error generator R, so its spectral radius is theirs.
    """
    rho = max(np.max(np.abs(np.linalg.eigvals(m)), initial=0.0)
              for m in (plant.a, restricted_generator(realization, laplacian)))
    # the factor keeps dt * rho <= 0.1 after rounding; the 1e-12 keeps dt
    # finite for a generator that is nilpotent
    return 0.1 / ((1.0 + 1e-9) * rho + 1e-12)


def equilibrium_initial_observer_states(
    realization: ObserverRealization, plant: Plant, x0: np.ndarray
) -> list[np.ndarray]:
    """Observer initial states giving zero initial estimation error.

    From the error-coordinate identity z_i = S_i^T (T_i^T e_i - K_i y_i + T_i^T x)
    at e_i = 0: z_i(0) = T_is^T x0 - (S_i^T K_i) C_i x0.
    """
    out = []
    for i, g in enumerate(realization.nodes):
        y0 = plant.c_block(i) @ x0
        out.append(g.p_out.T @ x0 - g.k_mat[g.p_dim :, :] @ y0)
    return out


def _generator(
    realization: ObserverRealization, plant: Plant, graph: NetworkGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Generator F of s' = F s and estimate map E: s -> col(xhat_1, ..., xhat_N).

    s = col(x, z_1, ..., z_N); node i reads xhat_i = P_i z_i + Q_i C_i x and
    integrates z_i' = N_i z_i + L_i C_i x + sum_j C_ij xhat_j, the coupling
    blocks C_ij of error_system._coupling.  So F = [[A, 0], [B, R]]: R is the
    restricted error generator that certify() checks, and B_i = L_i C_i +
    sum_j C_ij Q_j C_j.
    """
    n, nodes = plant.n, realization.nodes
    lap = laplacian(graph)
    off = n + _offsets(realization)
    qc = [g.q_out @ plant.c_block(i) for i, g in enumerate(nodes)]
    f = np.zeros((off[-1], off[-1]))
    f[:n, :n] = plant.a
    f[n:, n:] = restricted_generator(realization, lap)
    est = np.zeros((len(nodes) * n, off[-1]))
    for i, g in enumerate(nodes):
        f[off[i] : off[i + 1], :n] = g.l_gain @ plant.c_block(i)
        est[i * n : (i + 1) * n, :n] = qc[i]
        est[i * n : (i + 1) * n, off[i] : off[i + 1]] = g.p_out
    for i, j, c in _coupling(realization, lap):
        f[off[i] : off[i + 1], :n] += c @ qc[j]
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
    err_arrs = [xh - x_arr for xh in xh_arrs]
    # ||T_ip^T e_i|| equals the norm of the component off im P_i = im T_is
    inv = np.column_stack([np.linalg.norm(e - (e @ g.p_out) @ g.p_out.T, axis=1)
                           for e, g in zip(err_arrs, nodes)])
    return SimulationTrace(
        times=times,
        x=x_arr,
        z=z_arrs,
        xhat=xh_arrs,
        errors=err_arrs,
        invariance_residuals=inv,
    )


def estimate_rate(trace: SimulationTrace, window: float = 0.5) -> float:
    """Decay-rate estimate from a log-linear fit on the tail of ||e(t)||.

    Returns +inf when the stacked error is already below the numerical floor
    across the fitting window (converged beyond measurement), and NaN when
    the window holds too few recorded samples to fit.
    """
    if not (0 < window <= 1):
        raise ValueError("window must lie in (0, 1]")
    e_norm = np.linalg.norm(np.hstack(trace.errors), axis=1)
    alive = e_norm > 1e-12
    if not np.any(alive):
        return math.inf
    last = np.nonzero(alive)[0][-1]
    usable = np.arange(last + 1)[alive[: last + 1]]
    take = max(int(round(window * usable.size)), 2)
    idx = usable[-take:]
    if idx.size < 10:
        return math.nan
    slope = np.polyfit(trace.times[idx], np.log(e_norm[idx]), 1)[0]
    return float(-slope)


def check_invariance(trace: SimulationTrace) -> float:
    """Worst relative off-subspace residual max_{t,i} ||T_ip^T e_i|| / max(1, ||e_i||)."""
    worst = 0.0
    for i, e in enumerate(trace.errors):
        denom = np.maximum(1.0, np.linalg.norm(e, axis=1))
        worst = max(worst, float(np.max(trace.invariance_residuals[:, i] / denom)))
    return worst


def trace_summary(trace: SimulationTrace, alpha_hat: float, max_inv: float) -> dict:
    return {
        "alpha_hat": alpha_hat,
        "max_invariance_residual": max_inv,
        "final_error_norms": [
            float(np.linalg.norm(e[-1])) for e in trace.errors
        ],
    }
