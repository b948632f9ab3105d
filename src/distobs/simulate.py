"""Fixed-step simulation of the plant coupled with the N local observers.

Plant and observers form one linear time-invariant system s' = F s, with
s = col(x, z_1, ..., z_N) and a constant generator F built once from A and
the gains.  One classical RK4 step of such a system is the matrix polynomial
R(dt F), so it is precomputed once as a propagator, and each step is one
matrix-vector product.  The scheme keeps the explicit method's stability
limit; a step that leaves a non-finite state raises SimulationDiverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .error_system import _coupling, _offsets, restricted_generator
from .graph import NetworkGraph, laplacian
from .linalg import spectral_abscissa
from .synthesis import ObserverRealization, Plant


class SimulationDiverged(RuntimeError):
    def __init__(self, t: float):
        super().__init__(f"non-finite state at t = {t:.6g}; unstable or dt too large")
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
    """Default step respecting the stiffness introduced by a large coupling gain.

    The simulator's generator is block triangular with diagonal blocks A and
    the restricted error generator R, so their spectra bound its stiffness.
    """
    r_mat = restricted_generator(realization, laplacian)
    absc = abs(spectral_abscissa(r_mat)) if r_mat.size else 0.0
    a_norm = np.linalg.norm(plant.a, 2)
    lap_norm = np.linalg.norm(laplacian, 2)
    # The injection blocks can dominate A and gamma*L when the internal
    # Lyapunov weights are ill-conditioned; bound the step by the spectral
    # norm of R as well.
    scale = max(a_norm + realization.gamma * lap_norm, np.linalg.norm(r_mat, 2))
    return 0.1 / (absc + scale + 1e-12)


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


def _rk4_propagator(f: np.ndarray, dt: float) -> np.ndarray:
    """R(dt F) = I + Z(I + Z/2(I + Z/3(I + Z/4))), Z = dt F: one classical RK4
    step of the constant linear system s' = F s."""
    z = dt * f
    eye = np.eye(f.shape[0])
    phi = eye + z / 4.0
    for k in (3.0, 2.0, 1.0):
        phi = eye + (z / k) @ phi
    return phi


def simulate(
    realization: ObserverRealization,
    plant: Plant,
    graph: NetworkGraph,
    cfg: SimulationConfig,
) -> SimulationTrace:
    """Integrate plant and observers; record every record_stride steps."""
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

    # land exactly on t_final: full steps of dt plus one truncated final step
    # when dt does not divide the horizon
    steps = int(math.floor(cfg.t_final / cfg.dt + 1e-9))
    remainder = cfg.t_final - steps * cfg.dt
    if remainder > 1e-9 * cfg.t_final:
        steps += 1
    else:
        remainder = 0.0
    recorded = [k for k in range(1, steps) if k % cfg.record_stride == 0] + [steps]
    times = np.array([0.0] + [k * cfg.dt for k in recorded[:-1]] + [cfg.t_final])
    rows = np.empty((times.size, state.size))
    rows[0] = state
    row = 1
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _rk4_propagator(f, cfg.dt)
        for step in range(1, steps + 1):
            if step == steps and remainder:
                phi = _rk4_propagator(f, remainder)
            state = phi @ state
            if not np.isfinite(state).all():
                raise SimulationDiverged(cfg.t_final if step == steps else step * cfg.dt)
            if step == recorded[row - 1]:
                rows[row] = state
                row += 1

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
