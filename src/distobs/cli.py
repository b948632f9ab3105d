"""Command-line front end: synthesize / simulate / verify.

Exit codes: 0 ok, 1 I/O or parse error, 2 infeasible or violated assumptions,
3 simulation divergence, 4 certificate failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .error_system import certify
from .graph import is_strongly_connected, laplacian
from .problem import (
    load_problem,
    load_realization,
    save_realization,
    write_trace_csv,
)
from .simulate import (
    SimulationConfig,
    SimulationDiverged,
    simulate,
    trace_summary,
)
from .synthesis import SynthesisError, decompose_nodes, synthesize

EXIT_OK = 0
EXIT_IO = 1
EXIT_INFEASIBLE = 2
EXIT_DIVERGED = 3
EXIT_CERTIFICATE = 4

# records over the default horizon when simulate gets no --dt
DEFAULT_RECORDS = 1000


def _finite_or_null(obj):
    """obj with every non-finite float in it replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _strict_json(obj, **kwargs) -> str:
    """Strict JSON for the reports: a non-finite value prints as null."""
    return json.dumps(_finite_or_null(obj), allow_nan=False, **kwargs)


def _emit_error(step: str, message: str, **extra) -> None:
    print(_strict_json({"error": {"step": step, "message": message, **extra}}),
          file=sys.stderr)


def _report_from_realization(realization) -> dict:
    cert = realization.certificate
    return {
        "total_order": realization.total_order,
        "nodes": [{"p": g.p_dim, "v": g.v_dim} for g in realization.nodes],
        "epsilon": realization.epsilon,
        "gamma": realization.gamma,
        "lyapunov_pass": cert["lyapunov"]["pass"],
        "cancellation_residual": cert["cancellation"]["value"],
        "lmi_pass": cert["lmi"]["pass"],
        "alpha": realization.alpha,
    }


def cmd_synthesize(args) -> int:
    try:
        problem = load_problem(args.input)
    except (OSError, ValueError) as exc:
        _emit_error("parse", str(exc))
        return EXIT_IO

    try:
        realization = synthesize(problem.plant, problem.graph, problem.alpha)
    except SynthesisError as exc:
        _emit_error(exc.step, exc.message)
        return EXIT_INFEASIBLE

    try:
        save_realization(realization, args.output)
    except OSError as exc:
        _emit_error("write", str(exc))
        return EXIT_IO

    report = _report_from_realization(realization)
    if args.json:
        print(_strict_json(report, indent=1))
    else:
        print(f"total observer order : {report['total_order']}")
        for i, nd in enumerate(report["nodes"], start=1):
            print(f"node {i}: p = {nd['p']}, v = {nd['v']}")
        print(f"epsilon              : {report['epsilon']:.6g}")
        print(f"gamma                : {report['gamma']:.6g}")
        print(f"cancellation residual: {report['cancellation_residual']:.3e}")
        print(f"LMI feasibility      : {'pass' if report['lmi_pass'] else 'FAIL'}")
        print(f"Lyapunov decrease    : {'pass' if report['lyapunov_pass'] else 'FAIL'}")
    return EXIT_OK


def _parse_vector(text: str) -> np.ndarray:
    """The comma-separated entries of --x0 or --z0.  An empty or blank field
    is an error, as a non-numeric or non-finite one is, rather than dropped:
    dropping it would shift the entries after it."""
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"empty entry in {text!r}")
    v = np.array([float(part) for part in parts])
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite entry in {text!r}")
    return v


def _load_matched(args):
    """(problem, realization) from the files args names, if both parse and
    the gains file has one node and one r entry per problem node, each node
    with a Q of shape (n, m_i) and a P of n rows; else None, after the parse
    or dimensions error JSON."""
    try:
        problem = load_problem(args.problem)
        realization = load_realization(args.gains)
    except (OSError, ValueError) as exc:
        _emit_error("parse", str(exc))
        return None
    plant = problem.plant
    big_n = plant.node_count
    if not (len(realization.nodes) == big_n
            and realization.r_vector.shape == (big_n,)
            and all(g.q_out.shape == (plant.n, m) and g.p_out.shape[0] == plant.n
                    for g, m in zip(realization.nodes, plant.node_rows))):
        _emit_error("dimensions", "gains file does not match the problem file")
        return None
    return problem, realization


def cmd_simulate(args) -> int:
    loaded = _load_matched(args)
    if loaded is None:
        return EXIT_IO
    problem, realization = loaded
    plant, graph = problem.plant, problem.graph
    n = plant.n

    if not is_strongly_connected(graph):
        _emit_error("graph", "graph is not strongly connected")
        return EXIT_INFEASIBLE

    try:
        x0 = _parse_vector(args.x0) if args.x0 else np.ones(n)
        flat_z0 = _parse_vector(args.z0) if args.z0 else None
    except ValueError as exc:
        _emit_error("parse", f"initial state: {exc}")
        return EXIT_IO
    z0 = None
    if flat_z0 is not None:
        orders = [g.n_gain.shape[0] for g in realization.nodes]
        if flat_z0.size != sum(orders):
            _emit_error("dimensions", "--z0 length does not match total observer order")
            return EXIT_IO
        z0 = np.split(flat_z0, np.cumsum(orders)[:-1])

    # the propagator is exact, so dt only sets the record grid; a short
    # horizon still gets 10 intervals, keeping dt strictly inside (0, t_final)
    horizon = 10.0 / max(realization.alpha, 0.5)
    t_final = horizon if args.tfinal is None else args.tfinal
    dt = args.dt
    if dt is None:
        dt = min(horizon / DEFAULT_RECORDS, t_final / 10.0)
    try:
        cfg = SimulationConfig(t_final=t_final, dt=dt, x0=x0, z0=z0,
                               record_stride=args.record_stride)
    except ValueError as exc:
        _emit_error("parse", str(exc))
        return EXIT_IO
    try:
        trace = simulate(realization, plant, graph, cfg)
    except ValueError as exc:
        _emit_error("dimensions", str(exc))
        return EXIT_IO
    except SimulationDiverged as exc:
        _emit_error("simulation", str(exc))
        return EXIT_DIVERGED

    summary = trace_summary(trace)
    if args.trace_out:
        try:
            write_trace_csv(trace, args.trace_out)
        except OSError as exc:
            _emit_error("write", str(exc))
            return EXIT_IO
    print(_strict_json(summary, indent=1))

    e_first, e_last = np.linalg.norm(trace.error_norms[[0, -1]], axis=1)
    if e_first > 0 and e_last > e_first:
        _emit_error("omniscience", "estimation error grew over the horizon")
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_verify(args) -> int:
    loaded = _load_matched(args)
    if loaded is None:
        return EXIT_IO
    problem, realization = loaded
    plant = problem.plant

    # the gains file's r is judged as it stands, so no Perron vector is computed
    if not is_strongly_connected(problem.graph):
        _emit_error("assumptions", "graph is not strongly connected")
        return EXIT_INFEASIBLE
    try:
        frfs, decomps = decompose_nodes(plant)
    except (ValueError, SynthesisError) as exc:
        _emit_error("assumptions", str(exc))
        return EXIT_INFEASIBLE
    if any((g.p_dim, g.v_dim) != (d.p_dim, d.v_dim)
           for g, d in zip(realization.nodes, decomps)):
        _emit_error("dimensions", "gains file does not match the problem's "
                    "observability decomposition")
        return EXIT_IO

    # alpha is the problem's requirement, not part of the observer's dynamics
    # (unlike r), so the design is judged at the problem's alpha
    realization = dataclasses.replace(realization, alpha=problem.alpha)
    checks = certify(realization, plant, laplacian(problem.graph), frfs, decomps)
    for check in checks.values():
        check["detail"] = f"value {check['value']:.6g} vs bound {check['bound']:.6g}"
    lyapunov = checks["lyapunov"]
    if lyapunov["node"] is not None:
        lyapunov["detail"] += (
            f", an upper bound on lambda_max(W R + R^T W + 2 alpha W): node LMI "
            f"{lyapunov['node_term']:.3g} (node {lyapunov['node']}) + lemma "
            f"{lyapunov['lemma_term']:.3g} + coupling {lyapunov['coupling_term']:.3g}")

    if args.json:
        print(_strict_json(checks, indent=1))
    else:
        for name, check in checks.items():
            print(f"{name:<14}{'pass' if check['pass'] else 'FAIL':<6}{check['detail']}")
    for name, check in checks.items():
        if not check["pass"]:
            # the per-node checks also name their worst node
            node = {"node": check["node"]} if "node" in check else {}
            _emit_error(name, f"certificate '{name}' failed",
                        value=check["value"], bound=check["bound"], **node)
            return EXIT_CERTIFICATE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distobs",
        description="Reduced-order distributed observer synthesis and certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="design an observer from a problem file")
    p_syn.add_argument("input")
    p_syn.add_argument("output")
    p_syn.add_argument("--json", action="store_true")

    p_sim = sub.add_parser("simulate", help="integrate plant and observers")
    p_sim.add_argument("gains")
    p_sim.add_argument("problem")
    p_sim.add_argument("--tfinal", type=float, default=None)
    p_sim.add_argument("--dt", type=float, default=None)
    p_sim.add_argument("--x0", type=str, default=None)
    p_sim.add_argument("--z0", type=str, default=None)
    p_sim.add_argument("--trace-out", type=str, default=None)
    p_sim.add_argument("--record-stride", type=int, default=1)

    p_ver = sub.add_parser("verify", help="re-check all certificates of a gains file")
    p_ver.add_argument("gains")
    p_ver.add_argument("problem")
    p_ver.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # every check turns a non-finite value into a failure with error JSON, so
    # numpy's floating-point warnings would only print lines ahead of it
    with np.errstate(over="ignore", invalid="ignore"):
        # looked up at call time, so that a wrapper bound over cmd_* applies
        return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
