"""Problem-file parsing and JSON/CSV serialization of results.

Problem JSON schema:
    {"A": [[...]], "C": [[...]], "node_outputs": [m_1, ..., m_N],
     "graph": {"N": int, "edges": [{"from": i, "to": j, "weight": w}, ...]},
     "alpha": float}

alpha, the required decay rate, is a finite and nonnegative number (0 when
absent), not a boolean or a string.  Each edge is listed once, and its weight
is a finite positive number, not a boolean or a string.  N, the m_i and the
edge ends are whole numbers (3 or 3.0, not 3.7 or true).
The design has no other settings: a file with the "overrides" key of older
versions is rejected rather than designed differently from what it asks for.

An edge {"from": i, "to": j} (1-based) means information flows i -> j and
sets the adjacency weight a_ji.  Floats are serialized via repr, so a write
followed by a read reproduces every matrix bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

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
    """value as an int, unless it is a fraction or a boolean, which int()
    would truncate or read as 0 or 1."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
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


def _mat(m: np.ndarray) -> list:
    return np.asarray(m, dtype=float).tolist()


def realization_to_dict(realization: ObserverRealization) -> dict:
    return {
        "nodes": [
            {
                "N": _mat(g.n_gain),
                "L": _mat(g.l_gain),
                "M": _mat(g.m_gain),
                "P": _mat(g.p_out),
                "Q": _mat(g.q_out),
                "K": _mat(g.k_mat),
                "H": _mat(g.h_inj),
                "Pie": _mat(g.p_ie),
            }
            for g in realization.nodes
        ],
        "gamma": realization.gamma,
        "epsilon": realization.epsilon,
        "r": list(np.asarray(realization.r_vector, dtype=float)),
        "alpha": realization.alpha,
        "certificate": realization.certificate,
    }


def _as_matrix(arr: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """arr if it is a rows x cols matrix, zeros of that shape if it is empty."""
    if arr.size == 0:
        return np.zeros((rows, cols))
    if arr.shape != (rows, cols):
        raise ValueError(f"a {arr.shape} matrix where a ({rows}, {cols}) one belongs")
    return arr


# gains-file matrices of a node, in the order the file lists them
GAIN_MATRICES = ("N", "L", "M", "P", "Q", "K", "H", "Pie")


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


def realization_from_dict(doc: dict) -> ObserverRealization:
    """Gains-file document to realization.  An older file may also carry P
    as "Tis"; that key is ignored.  Every gain matrix must be finite and
    2-D, of the shape that P, Q and Pie set (an empty one may be written []),
    gamma, epsilon and r finite JSON numbers, and alpha a finite and
    nonnegative one; the certificate values may be infinite."""
    try:
        nodes = []
        for i, nd in enumerate(doc["nodes"], start=1):
            mats = {key: np.asarray(nd[key], dtype=float) for key in GAIN_MATRICES}
            for key, m in mats.items():
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
            v = p + k_e
            nodes.append(
                NodeGains(
                    n_gain=_as_matrix(mats["N"], order, order),
                    l_gain=_as_matrix(mats["L"], order, m_i),
                    m_gain=_as_matrix(mats["M"], order, n),
                    p_out=p_out,
                    q_out=q,
                    k_mat=_as_matrix(mats["K"], n, m_i),
                    h_inj=_as_matrix(mats["H"], v - p, p),
                    p_ie=_as_matrix(pie_raw, k_e, k_e),
                    p_dim=p,
                    v_dim=v,
                )
            )
        return ObserverRealization(
            nodes=tuple(nodes),
            gamma=_require_finite("gamma", _number("gamma", doc["gamma"])),
            epsilon=_require_finite("epsilon", _number("epsilon", doc["epsilon"])),
            r_vector=_require_finite("r", np.array([_number("r", x) for x in doc["r"]])),
            alpha=float(_checked_alpha(doc.get("alpha", 0.0))),
            certificate=doc.get("certificate", {}) or {},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"malformed gains file: {exc}") from exc


def _float_text(x: float) -> str:
    """A float as json spells it: repr, or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _json_text(obj, indent: str) -> str:
    """json.dumps(obj, indent=1) byte for byte, for a document of string-keyed
    dicts, lists, tuples, strings, numbers, booleans and None.  `indent` is
    the newline and indentation of obj's own level.  A list of floats is one
    join: json's pure-Python encoder, which indent selects, is much slower."""
    if isinstance(obj, (dict, list, tuple)) and not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = indent + " "
    sep = "," + inner
    if isinstance(obj, dict):
        return "{" + inner + sep.join(
            encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in obj.items()) + indent + "}"
    if isinstance(obj, (list, tuple)):
        try:
            # float.__repr__ raises TypeError on any item that is not a float
            text = sep.join(map(float.__repr__, obj))
        except TypeError:
            text = sep.join(_json_text(x, inner) for x in obj)
        else:
            # repr spells the non-finite floats nan, inf and -inf, and only
            # those contain an "n"
            if "n" in text:
                text = sep.join(map(_float_text, obj))
        return "[" + inner + text + indent + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def save_realization(realization: ObserverRealization, path) -> None:
    """Write json.dumps(realization_to_dict(realization), indent=1) and a
    newline, in one write."""
    text = _json_text(realization_to_dict(realization), "\n") + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_realization(path) -> ObserverRealization:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    return realization_from_dict(doc)


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Columns: t, x_1..x_n, then per node k: z_k_*, xhat_k_*, err_norm_k, inv_res_k."""
    n = trace.x.shape[1]
    header = ["t"] + [f"x_{j + 1}" for j in range(n)]
    columns = [trace.times[:, None], trace.x]
    for k, z in enumerate(trace.z):
        header += [f"z_{k + 1}_{j + 1}" for j in range(z.shape[1])]
        header += [f"xhat_{k + 1}_{j + 1}" for j in range(n)]
        header += [f"err_norm_{k + 1}", f"inv_res_{k + 1}"]
        columns += [z, trace.xhat[k], np.linalg.norm(trace.errors[k], axis=1)[:, None],
                    trace.invariance_residuals[:, k : k + 1]]
    # the csv module's "\r\n" line ending; repr round-trips every float
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in np.hstack(columns):
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")
