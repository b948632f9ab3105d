"""Problem-file parsing and JSON/CSV serialization of results.

Problem JSON schema:
    {"A": [[...]], "C": [[...]], "node_outputs": [m_1, ..., m_N],
     "graph": {"N": int, "edges": [{"from": i, "to": j, "weight": w}, ...]},
     "alpha": float}

alpha, the required decay rate, is a finite and nonnegative number (0 when
absent), not a boolean or a string.  Each edge is listed once, and its weight
is a finite positive number, not a boolean or a string.  N, the m_i and the
edge ends are whole numbers (3 or 3.0, not 3.7, true or "3").
The design has no other settings: a file with the "overrides" key of older
versions is rejected rather than designed differently from what it asks for.

An edge {"from": i, "to": j} (1-based) means information flows i -> j and
sets the adjacency weight a_ji.

Gains file schema, written as compact json.dumps text and a newline:
    {"nodes": [{"N": rec, "L": rec, "M": rec, "P": rec, "Q": rec,
                "K": rec, "H": rec, "Pie": rec}, ...],
     "gamma": float, "epsilon": float, "r": [r_1, ..., r_N], "alpha": float}
    rec = {"shape": [rows, cols], "f8": "<base64>"}

A record's "f8" is the RFC 4648 base64 of the matrix's little-endian IEEE 754
binary64 entries in C (row-major) order, so it reads back bit for bit:
    np.frombuffer(base64.b64decode(rec["f8"]), "<f8").reshape(rec["shape"])
gamma, epsilon, r and alpha are JSON numbers.  A matrix may also be given as
nested lists of JSON numbers, as older and hand-written files give it.  The
trace CSV spells its floats with 17 significant digits ("%.17g"), which also
read back as the same doubles.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .graph import NetworkGraph
from .simulate import SimulationTrace
from .synthesis import NodeGains, ObserverRealization, Plant, _checked_alpha


class ProblemFormatError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemFile:
    plant: Plant
    graph: NetworkGraph
    alpha: float


def _whole(value) -> int:
    """value as an int, unless it is a fraction, a boolean or a string, which
    int() would truncate, read as 0 or 1, or read as the number it spells."""
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def graph_from_fragment(fragment: dict) -> NetworkGraph:
    """Build a NetworkGraph from the {"N", "edges"} JSON fragment."""
    try:
        n = _whole(fragment["N"])
        edges = fragment.get("edges", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"malformed graph fragment: {exc}") from exc
    if n < 1:
        raise ProblemFormatError("graph needs at least one node")
    weights = np.zeros((n, n))
    for e in edges:
        try:
            src, dst = _whole(e["from"]), _whole(e["to"])
            w = _number("weight", e["weight"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProblemFormatError(f"malformed edge entry {e!r}") from exc
        if not (1 <= src <= n and 1 <= dst <= n) or src == dst:
            raise ProblemFormatError(f"edge {src}->{dst} out of range or a self-loop")
        if w <= 0:
            raise ProblemFormatError(f"edge {src}->{dst} must have positive weight")
        if weights[dst - 1, src - 1]:
            raise ProblemFormatError(f"edge {src}->{dst} is listed twice")
        weights[dst - 1, src - 1] = w  # a_{ji} on the edge (i, j)
    return NetworkGraph(weights=weights)


def load_problem(path) -> ProblemFile:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    return problem_from_dict(doc)


def problem_from_dict(doc: dict) -> ProblemFile:
    try:
        a = np.asarray(doc["A"], dtype=float)
        c = np.atleast_2d(np.asarray(doc["C"], dtype=float))
        node_outputs = [_whole(m) for m in doc["node_outputs"]]
        graph = graph_from_fragment(doc["graph"])
        alpha = float(_checked_alpha(doc.get("alpha", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"malformed problem file: {exc}") from exc
    if "overrides" in doc:
        raise ProblemFormatError("the 'overrides' key is no longer read: "
                                 "the design's only setting is alpha")
    if graph.node_count != len(node_outputs):
        raise ProblemFormatError("graph node count does not match node_outputs")
    try:
        plant = Plant(a=a, c=c, node_rows=tuple(node_outputs))
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc
    return ProblemFile(plant=plant, graph=graph, alpha=alpha)


def _record(m: np.ndarray) -> dict:
    """A matrix as its gains-file record: its shape and the base64 of its
    C-order little-endian float64 bytes."""
    m = np.asarray(m, dtype="<f8")
    return {"shape": list(m.shape), "f8": base64.b64encode(m.tobytes()).decode("ascii")}


def realization_to_dict(realization: ObserverRealization) -> dict:
    return {
        "nodes": [{key: _record(getattr(g, field)) for key, field in GAIN_MATRICES.items()}
                  for g in realization.nodes],
        "gamma": realization.gamma,
        "epsilon": realization.epsilon,
        "r": list(np.asarray(realization.r_vector, dtype=float)),
        "alpha": realization.alpha,
    }


def _as_matrix(arr: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """arr if it is a rows x cols matrix, zeros of that shape if it is empty."""
    if arr.size == 0:
        return np.zeros((rows, cols))
    if arr.shape != (rows, cols):
        raise ValueError(f"a {arr.shape} matrix where a ({rows}, {cols}) one belongs")
    return arr


# gains-file matrices of a node, in the order the file lists them, and the
# NodeGains field that holds each
GAIN_MATRICES = {"N": "n_gain", "L": "l_gain", "M": "m_gain", "P": "p_out",
                 "Q": "q_out", "K": "k_mat", "H": "h_inj", "Pie": "p_ie"}


def _require_finite(name: str, value):
    """value, a float or a float array, if every entry of it is finite."""
    if not np.isfinite(value).all():
        raise ProblemFormatError(f"{name} has a non-finite entry")
    return value


def _number(name: str, value) -> float:
    """value as a float if it is a JSON number: float() would also read a
    boolean as 0 or 1 and a string as the number it spells."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return float(value)


def _matrix(value) -> np.ndarray:
    """A gain matrix from its gains-file entry: a record, or nested lists."""
    if not isinstance(value, dict):
        return np.asarray(value, dtype=float)
    shape = value.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(x) is int and x >= 0 for x in shape)):
        raise ValueError(f"shape {shape!r} is not two integers >= 0")
    # b64decode, frombuffer and reshape raise on text that is not base64 and
    # on a byte count other than 8 * rows * cols
    raw = base64.b64decode(value.get("f8"), validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def realization_from_dict(doc: dict) -> ObserverRealization:
    """Gains-file document to realization.  An older file may also carry P
    as "Tis" and a "certificate" table; those keys are ignored.  Every gain
    matrix, a record or nested lists, must be finite and 2-D, of the shape
    that P, Q and Pie set (an empty one may be written []), gamma, epsilon
    and r finite JSON numbers, and alpha a finite and nonnegative one."""
    try:
        nodes = []
        for i, nd in enumerate(doc["nodes"], start=1):
            mats = {}
            for key in GAIN_MATRICES:
                try:
                    mats[key] = m = _matrix(nd[key])
                except (TypeError, ValueError) as exc:
                    raise ProblemFormatError(f"node {i}: {key}: {exc}") from exc
                if m.ndim != 2 and m.size:
                    raise ProblemFormatError(f"node {i}: {key} is not a matrix")
            # one check over the node's entries; the loop only names the matrix
            if not np.isfinite(np.concatenate([m.ravel() for m in mats.values()])).all():
                for key, m in mats.items():
                    _require_finite(f"node {i}: {key}", m)
            p_out, q, pie_raw = mats["P"], mats["Q"], mats["Pie"]
            n, order = p_out.shape
            p = n - order
            m_i = q.shape[1]
            k_e = pie_raw.shape[0] if pie_raw.size else 0  # = v - p
            shapes = {"N": (order, order), "L": (order, m_i), "M": (order, n),
                      "K": (n, m_i), "H": (k_e, p), "Pie": (k_e, k_e)}
            for key, (rows, cols) in shapes.items():
                try:
                    mats[key] = _as_matrix(mats[key], rows, cols)
                except ValueError as exc:
                    raise ProblemFormatError(f"node {i}: {key}: {exc}") from exc
            nodes.append(NodeGains(
                n_gain=mats["N"], l_gain=mats["L"], m_gain=mats["M"], p_out=p_out,
                q_out=q, k_mat=mats["K"], h_inj=mats["H"], p_ie=mats["Pie"],
                p_dim=p, v_dim=p + k_e))
        return ObserverRealization(
            nodes=tuple(nodes),
            gamma=_require_finite("gamma", _number("gamma", doc["gamma"])),
            epsilon=_require_finite("epsilon", _number("epsilon", doc["epsilon"])),
            r_vector=_require_finite("r", np.array([_number("r", x) for x in doc["r"]])),
            alpha=float(_checked_alpha(doc.get("alpha", 0.0))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"malformed gains file: {exc}") from exc


def save_realization(realization: ObserverRealization, path) -> None:
    """Write json.dumps(realization_to_dict(realization)) and a newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(realization_to_dict(realization)) + "\n")


def load_realization(path) -> ObserverRealization:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    return realization_from_dict(doc)


# rows of the trace that one format call writes at a time; a small block keeps
# its Python floats and text small next to the trace itself
CSV_ROWS = 16


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Columns: t, x_1..x_n, then per node k: z_k_*, xhat_k_*, err_norm_k, inv_res_k.

    One row per record, with the csv module's CRLF line ending.  Every
    float is written as "%.17g", 17 significant digits, which read back as
    the same double (0.1 is written 0.10000000000000001, 1.0 as 1).  The rows
    are formatted CSV_ROWS at a time from the trace's arrays, so no copy of
    the whole trace is made.
    """
    n = trace.x.shape[1]
    header = ["t"] + [f"x_{j + 1}" for j in range(n)]
    columns = [trace.times[:, None], trace.x]
    for k, z in enumerate(trace.z):
        header += [f"z_{k + 1}_{j + 1}" for j in range(z.shape[1])]
        header += [f"xhat_{k + 1}_{j + 1}" for j in range(n)]
        header += [f"err_norm_{k + 1}", f"inv_res_{k + 1}"]
        columns += [z, trace.xhat[k], trace.error_norms[:, k : k + 1],
                    trace.invariance_residuals[:, k : k + 1]]
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, trace.times.size, CSV_ROWS):
            block = np.hstack([c[start : start + CSV_ROWS] for c in columns])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
