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
from .graph import is_strongly_connected, laplacian, spectral_data
from .problem import (
    load_problem,
    load_realization,
    save_realization,
    write_trace_csv,
)
from .simulate import (
    SimulationConfig,
    SimulationDiverged,
    check_invariance,
    estimate_rate,
    simulate,
    suggested_timestep,
    trace_summary,
)
from .synthesis import SynthesisError, decompose_nodes, synthesize

EXIT_OK = 0
EXIT_IO = 1
EXIT_INFEASIBLE = 2
EXIT_DIVERGED = 3
EXIT_CERTIFICATE = 4


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
        "rate_bound": cert["rate"]["value"],
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
        print(f"rate bound           : {report['rate_bound']:.6g}")
        print(f"cancellation residual: {report['cancellation_residual']:.3e}")
        print(f"LMI feasibility      : {'pass' if report['lmi_pass'] else 'FAIL'}")
    return EXIT_OK


def _parse_vector(text: str) -> np.ndarray:
    v = np.array([float(part) for part in text.split(",") if part.strip() != ""])
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite entry in {text!r}")
    return v


def _dimensions_match(realization, plant) -> bool:
    """True iff the gains file has one node and one r entry per problem node,
    each node with a Q of shape (n, m_i) and a P of n rows."""
    big_n = plant.node_count
    return (
        len(realization.nodes) == big_n
        and realization.r_vector.shape == (big_n,)
        and all(g.q_out.shape == (plant.n, m) and g.p_out.shape[0] == plant.n
                for g, m in zip(realization.nodes, plant.node_rows))
    )


def cmd_simulate(args) -> int:
    try:
        problem = load_problem(args.problem)
        realization = load_realization(args.gains)
    except (OSError, ValueError) as exc:
        _emit_error("parse", str(exc))
        return EXIT_IO

    plant, graph = problem.plant, problem.graph
    n = plant.n
    if not _dimensions_match(realization, plant):
        _emit_error("dimensions", "gains file does not match the problem file")
        return EXIT_IO

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

    t_final = args.tfinal
    if t_final is None:
        t_final = 10.0 / max(realization.alpha, 0.5)
    if args.dt is not None:
        dt = args.dt
    else:
        # short horizons: keep the default step strictly inside (0, t_final)
        dt = min(suggested_timestep(realization, plant, laplacian(graph)),
                 t_final / 10.0)
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

    alpha_hat = estimate_rate(trace)
    max_inv = check_invariance(trace)
    summary = trace_summary(trace, alpha_hat, max_inv)
    e_norm = np.linalg.norm(np.hstack(trace.errors), axis=1)
    summary["low_confidence"] = bool(
        not np.isfinite(alpha_hat) or np.count_nonzero(e_norm > 1e-12) < 20
    )

    if args.trace_out:
        try:
            write_trace_csv(trace, args.trace_out)
        except OSError as exc:
            _emit_error("write", str(exc))
            return EXIT_IO
    print(_strict_json(summary, indent=1))

    if e_norm[0] > 0 and e_norm[-1] > e_norm[0]:
        _emit_error("omniscience", "estimation error grew over the horizon")
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        problem = load_problem(args.problem)
        realization = load_realization(args.gains)
    except (OSError, ValueError) as exc:
        _emit_error("parse", str(exc))
        return EXIT_IO

    plant = problem.plant
    if not _dimensions_match(realization, plant):
        _emit_error("dimensions", "gains file does not match the problem file")
        return EXIT_IO

    try:
        spectral = spectral_data(problem.graph)
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
    checks = certify(realization, plant, spectral, frfs, decomps)
    for check in checks.values():
        check["detail"] = f"value {check['value']:.6g} vs bound {check['bound']:.6g}"

    if args.json:
        print(_strict_json(checks, indent=1))
    else:
        for name, check in checks.items():
            print(f"{name:<14}{'pass' if check['pass'] else 'FAIL':<6}{check['detail']}")
    for name, check in checks.items():
        if not check["pass"]:
            _emit_error(name, f"certificate '{name}' failed",
                        value=check["value"], bound=check["bound"])
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
