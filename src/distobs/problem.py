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
                "K": rec, "Pie": rec}, ...],
     "gamma": float, "epsilon": float, "r": [r_1, ..., r_N], "alpha": float}
    rec = {"shape": [rows, cols], "f8": "<base64>"}

A record's "f8" is the RFC 4648 base64 of the matrix's little-endian IEEE 754
binary64 entries in C (row-major) order, so it reads back bit for bit:
    np.frombuffer(base64.b64decode(rec["f8"]), "<f8").reshape(rec["shape"])
gamma, epsilon, r and alpha are JSON numbers.  A matrix may also be given as
nested lists of JSON numbers, as older and hand-written files give it.  The
trace CSV spells its floats with 17 significant digits ("%.17g"), which also
read back as the same doubles.  Its bytes are those of "%.17g" % value; numpy
computes them a block at a time (_g17_digits, _g17_rows), and a value whose
rounding the block's arithmetic cannot decide is spelled by "%.17g" itself.
"""

from __future__ import annotations

import base64
import functools
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
                 "Q": "q_out", "K": "k_mat", "Pie": "p_ie"}


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
    as "Tis", the injection "H" (rows p:v of K times D) and a "certificate"
    table; those keys are ignored.  Every gain matrix, a record or nested
    lists, must be finite and 2-D, of the shape that P, Q and Pie set (an
    empty one may be written []), gamma, epsilon and r finite JSON numbers,
    and alpha a finite and nonnegative one."""
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
                      "K": (n, m_i), "Pie": (k_e, k_e)}
            for key, (rows, cols) in shapes.items():
                try:
                    mats[key] = _as_matrix(mats[key], rows, cols)
                except ValueError as exc:
                    raise ProblemFormatError(f"node {i}: {key}: {exc}") from exc
            nodes.append(NodeGains(
                n_gain=mats["N"], l_gain=mats["L"], m_gain=mats["M"], p_out=p_out,
                q_out=q, k_mat=mats["K"], p_ie=mats["Pie"],
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


# values of the trace that one formatting pass writes: enough that numpy's
# per-call cost is spread thin, few enough that the pass's work arrays, about
# 150 bytes a value, stay small next to the trace
_CSV_VALUES = 4096


def _block_rows(columns: int) -> int:
    """Rows of a trace with this many columns that one pass writes."""
    return max(1, _CSV_VALUES // columns)


# |x| that the numpy "%.17g" pass writes, a range in which no split, product
# or power of ten overflows or underflows; other values, and 0, NaN and inf,
# are written by "%.17g" itself
_G17_RANGE = (1e-250, 1e250)
_X_MIN, _X_MAX = -252, 251  # decimal exponents the tables cover: the range, with room
_SPLIT = 2.0**27 + 1  # Dekker's splitter for binary64
_MARGIN = 2.0**-30  # closest a boundary may lie to y for y to decide it


def _power_of_ten(k: int) -> tuple[float, float]:
    """10**k as hi + lo: hi the exact power rounded to a double, lo the
    exact rest rounded.  Python's int / int is correctly rounded."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


@functools.cache
def _g17_tables() -> dict[str, np.ndarray]:
    """The read-only tables of _g17_rows.  A word is a uint64 whose bytes,
    least significant first, are text.

    By decimal exponent X in [_X_MIN, _X_MAX], at X - _X_MIN: 10**(16 - X) as
    "hi" + "lo" (hi the exact power rounded, lo the exact rest rounded) and
    hi's Dekker halves "hi_hi" + "hi_lo"; "whole", how many of the 16 digits
    after the lead are in the integer part, and "point", how many go before
    the point (16: it is not among them); "head", the word of "%g"'s "0." to
    "0.000" for -4 <= X < 0, ending at byte 6, and "sign", "-" at the byte
    before it; "tail", the word of "e+XX" in the exponent form, ending at
    byte 5, then the separator: "," at X - _X_MIN, CRLF one table further.
    By lead digit: "lead", its ASCII at byte 7.  By m in 0..16: "low0" and
    "low1", the 16-byte mask of bytes < m, and "dot0" and "dot1", "." at
    byte m.  By v in 0..9999: "quad", the word of v's 4 ASCII digits, and
    "sig"[k], for v at place k = 0..3 of the 16 digits after the lead, how
    many of them run up to v's last nonzero digit (0 for v = 0).
    """
    xs = np.arange(_X_MIN, _X_MAX + 1)
    hi, lo = np.array([_power_of_ten(16 - x) for x in xs.tolist()]).T
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    fixed = (-4 <= xs) & (xs <= 16)
    prefixes = [b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"" for x in xs.tolist()]
    suffixes = [b"" if f else b"e%+03d" % x for x, f in zip(xs.tolist(), fixed)]

    def words(texts) -> np.ndarray:
        return np.frombuffer(b"".join(texts), "<u8").astype(np.uint64)

    v = np.arange(10000)
    quad = np.zeros((v.size, 8), np.uint8)
    for k, scale in enumerate((1000, 100, 10, 1)):
        quad[:, k] = v // scale % 10 + ord("0")
    sig = 4 - np.argmax(quad[:, 3::-1] != ord("0"), axis=1).astype(np.int8)
    sig = np.arange(0, 16, 4, dtype=np.int8)[:, None] + sig
    sig[:, 0] = 0
    low = words(b"\xff" * m + b"\0" * (16 - m) for m in range(17)).reshape(17, 2)
    dot = words((b"\0" * m + b".").ljust(16, b"\0")[:16] for m in range(17)).reshape(17, 2)
    tables = {
        "hi": hi, "hi_hi": hi_hi, "hi_lo": hi - hi_hi, "lo": lo,
        "whole": np.where(fixed & (xs >= 0), xs, 0),
        "point": np.where(fixed, np.where(xs < 0, 16, xs), 0),
        "head": words(s.rjust(7, b"\0") + b"\0" for s in prefixes),
        "sign": words(b"-".rjust(7 - len(s), b"\0").ljust(8, b"\0") for s in prefixes),
        "tail": words([s.rjust(6, b"\0") + b",\0" for s in suffixes]
                      + [s.rjust(6, b"\0") + b"\r\n" for s in suffixes]),
        "lead": words(b"\0" * 7 + b"%d" % k for k in range(10)),
        "low0": low[:, 0], "low1": low[:, 1], "dot0": dot[:, 0], "dot1": dot[:, 1],
        "quad": quad.view("<u8").ravel().astype(np.uint64),
        "sig": sig,
    }
    for t in tables.values():
        t.flags.writeable = False
    return tables


def _scaled(ax: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e), the double-double ax * 10**(16 - X) for table rows xi =
    X - _X_MIN: p = fl(ax * hi), and e = (ax * hi - p, exact by Dekker's
    TwoProduct) + ax * lo.  The products are formed in place, so that the
    pass holds few arrays at once."""
    t = _g17_tables()
    p = np.take(t["hi"], xi)
    p *= ax
    a_hi = ax * _SPLIT
    a_lo = a_hi - ax
    a_hi -= a_lo
    np.subtract(ax, a_hi, out=a_lo)
    b_hi, b_lo = np.take(t["hi_hi"], xi), np.take(t["hi_lo"], xi)
    # e = ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, each step exact
    e = a_hi * b_hi
    e -= p
    a_hi *= b_lo
    e += a_hi
    b_hi *= a_lo
    e += b_hi
    a_lo *= b_lo
    e += a_lo
    lo = np.take(t["lo"], xi, out=b_lo)
    lo *= ax
    e += lo
    return p, e


def _g17_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X - _X_MIN, decided) for each value of a 1-D float64 array: the
    17 significant digits of |x| as an integer D in [1e16, 1e17) and the
    decimal exponent X of its first, as "%.16e" % |x| spells them, wherever
    decided is True.

    D is the integer nearest y = |x| * 10**(16 - X).  X starts as
    floor(log10 |x|) and moves by one where y falls outside [1e16, 1e17); a
    D that rounds up to 1e17 is 1e16 with X + 1.  y is the double-double
    p + e of _scaled, within 4 u**2 y < 5e-15 of the exact product (u =
    2**-53: u**2 from hi + lo, u**2 from ax * lo and 2 u**2 from the sum
    that makes e), and D is y + 1/2 rounded down, the sum rounding off at
    most 1e-15 more: both far inside _MARGIN.  Not decided: a y within
    _MARGIN of 1e16 or 1e17, a y + 1/2 within _MARGIN of an integer (a tie,
    which "%.16e" rounds to even), and 0, -0, NaN, inf, subnormals and |x|
    outside _G17_RANGE.
    """
    ax = np.abs(x)
    decided = (ax >= _G17_RANGE[0]) & (ax < _G17_RANGE[1])
    np.copyto(ax, 1.0, where=~decided)
    xi = np.log10(ax)
    xi -= _X_MIN
    xi = xi.astype(np.intp)  # floor: log10 |x| - _X_MIN > 0
    p, e = _scaled(ax, xi)
    below, above = (p - 1e16) + e, (p - 1e17) + e  # y - 1e16, y - 1e17
    moved = np.flatnonzero((below < 0) | (above >= 0))
    if moved.size:
        xi[moved] += np.where(above[moved] >= 0, 1, -1)
        p[moved], e[moved] = _scaled(ax[moved], xi[moved])
        below[moved], above[moved] = (p[moved] - 1e16) + e[moved], (p[moved] - 1e17) + e[moved]
    del ax  # each work array goes once used: the pass's peak is the writer's memory
    decided &= below >= _MARGIN
    decided &= above <= -_MARGIN
    del below, above
    e += 0.5
    d = np.floor(e)
    e -= d  # the fraction of y + 1/2: a tie sits at 0 or 1
    decided &= (e >= _MARGIN) & (e <= 1 - _MARGIN)
    d = d.astype(np.int64)
    d += p.astype(np.int64)
    del p, e
    carry = d == 10**17
    d[carry] = 10**16
    xi += carry
    return d, xi, decided


def _g17_rows(block: np.ndarray) -> bytes:
    """The CSV text of a 2-D float64 block: each value as "%.17g" % value,
    byte for byte, "," between values and CRLF after each row.

    The digits come from _g17_digits; a value it does not decide is written
    by "%.17g" itself.  Each value fills four words, 32 bytes, whose 0 bytes
    are dropped at the end.  Word 0 ends with the sign, "%g"'s "0." to
    "0.000" for -4 <= X < 0, and the lead digit.  Words 1-3 hold the 16
    other digits, with the point shifted in after the first X of them in the
    fixed form (0 <= X < 16) and before all of them in the exponent form
    (X < -4 or X > 16).  Word 3 ends with "e+XX" in the exponent form and
    the separator.  Digits that follow the point past the last nonzero one
    are 0 bytes, and so is the point when no digit follows it.
    """
    t = _g17_tables()
    rows, cols = block.shape
    x = block.ravel()
    d, xi, decided = _g17_digits(x)
    # the 16 digits after the lead as places 0-3 of 4 digits each
    lead = d // 10**16
    d -= lead * 10**16
    upper = d // 10**8
    d -= upper * 10**8
    places = []
    for half in (upper, d):
        top = half // 10**4
        half -= top * 10**4
        places += [top, half]
    # the 16 digits as text in two words, bytes 0-7 and 8-15; sig of them
    # run up to the last nonzero one
    sig = np.take(t["sig"][0], places[0])
    for k in (1, 2, 3):
        np.maximum(sig, np.take(t["sig"][k], places[k]), out=sig)
    w0, w1 = np.take(t["quad"], places[0]), np.take(t["quad"], places[2])
    for w, k in ((w0, 1), (w1, 3)):
        high = np.take(t["quad"], places[k])
        high <<= 32
        w |= high
    del places, upper, d, high
    # keep the integer part and the digits up to the last nonzero one
    keep = np.take(t["whole"], xi)
    np.maximum(keep, sig, out=keep)
    w0 &= np.take(t["low0"], keep)
    w1 &= np.take(t["low1"], keep)
    # r: the digits before the point, 16 where no digit follows it; the
    # digits after it move up a byte and the point goes in at byte r
    point = np.take(t["point"], xi)
    r = np.where(sig > point, point, 16)
    del keep, point, sig
    low0 = w0 & np.take(t["low0"], r)
    low1 = w1 & np.take(t["low1"], r)
    w0 ^= low0
    w1 ^= low1

    words = np.empty((x.size, 4), "<u8")
    words[:, 0] = (np.take(t["head"], xi) | np.take(t["lead"], lead)
                   | np.take(t["sign"], xi) * np.signbit(x))
    words[:, 1] = low0 | w0 << 8 | np.take(t["dot0"], r)
    words[:, 2] = low1 | w1 << 8 | w0 >> 56 | np.take(t["dot1"], r)
    last = np.zeros(cols, np.intp)
    last[-1] = t["head"].size  # CRLF after the last column
    words[:, 3] = w1 >> 56 | np.take(t["tail"], (xi.reshape(rows, cols) + last).ravel())
    del lead, low0, low1, w0, w1, r, xi
    slow = np.flatnonzero(~decided)
    if slow.size:  # the separator, at bytes 30-31, stays
        spelled = b"".join((b"%.17g" % v).ljust(30, b"\0") for v in x[slow].tolist())
        words.view(np.uint8)[slow, :30] = np.frombuffer(spelled, np.uint8).reshape(-1, 30)
    return words.tobytes().translate(None, b"\0")


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Columns: t, x_1..x_n, then per node k: z_k_*, xhat_k_*, err_norm_k, inv_res_k.

    One row per record, with the csv module's CRLF line ending.  Every
    float is written as "%.17g", 17 significant digits, which read back as
    the same double (0.1 is written 0.10000000000000001, 1.0 as 1).  The rows
    are formatted about _CSV_VALUES values at a time from the trace's arrays,
    so no copy of the whole trace is made.  _g17_rows computes a block's
    digits and text in numpy, byte for byte those of "%.17g" % value, and
    hands the few values it cannot decide to "%.17g" itself.
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
    rows = _block_rows(len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("ascii"))
        for start in range(0, trace.times.size, rows):
            block = np.hstack([c[start : start + rows] for c in columns], dtype=np.float64)
            fh.write(_g17_rows(block))
