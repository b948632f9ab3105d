"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q bench
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import instances  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402

import distobs  # noqa: E402
from distobs import cli  # noqa: E402
from distobs.graph import is_strongly_connected  # noqa: E402
from distobs.problem import problem_from_dict  # noqa: E402

SMALL = {
    "design": bench.Workload("design-grid", "design", ((4, 3), (8, 10)), 2, 1.0),
    "simulate": bench.Workload("simulate-trace", "simulate", ((4, 3),), 1, 1.0),
}


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("size", [(4, 3), (8, 10), (12, 30), (6, 150)])
def test_generator_is_deterministic_and_observable(size):
    docs = [instances.make_problem(7, k, *size) for k in range(3)]
    assert docs == [instances.make_problem(7, k, *size) for k in range(3)]
    assert docs[0] != instances.make_problem(8, 0, *size)
    for doc in docs:
        a, c = np.asarray(doc["A"]), np.asarray(doc["C"])
        assert a.shape == (size[0], size[0]) and c.shape == (size[1], size[0])
        assert instances.is_observable(c, a)
        assert is_strongly_connected(problem_from_dict(doc).graph)


@pytest.mark.parametrize("kind", ["design", "simulate"])
def test_traced_and_untraced_runs_write_identical_files(kind, tmp_path):
    workload = SMALL[kind]
    ready, _ = bench.setup(cli, workload, 3, tmp_path)
    plain = bench.run_op(cli, workload, ready[0])
    traced = bench.run_op(cli, workload, ready[0], tracing.Tracer())
    assert plain.outputs and plain.outputs == traced.outputs
    assert not plain.problems and not traced.problems


def _bindings():
    mods = [distobs] + [getattr(distobs, layer) for layer in tracing.LAYERS]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out["scipy.linalg.solve_continuous_are"] = scipy.linalg.solve_continuous_are
    return out


def test_install_and_uninstall_leave_every_binding_as_it_was():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        during = _bindings()
        wrapped = {k for k in before if during[k] is not before[k]}
        # a function bound in several modules gets the same wrapper everywhere
        assert during[("distobs.cli", "verify_cancellation")] is during[
            ("distobs.synthesis", "verify_cancellation")
        ]
    after = _bindings()
    assert ("distobs.cli", "main") in wrapped
    assert all(inspect.isfunction(before[k]) for k in wrapped if isinstance(k, tuple))
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("trace", [False, True])
def test_every_printed_metric_is_declared(trace, tmp_path):
    for workload in SMALL.values():
        r = bench.run(cli, workload, 5, 0.0, trace, tmp_path)
        assert not r.problems
        metrics = bench.per_layer(r) if trace else bench.end_to_end(r)
        assert set(metrics) == declared("per_layer" if trace else "end_to_end")
        result = json.loads(bench.result_json(r, metrics))
        assert result["correct"] and result["attempted"] == len(r.ops)
        assert len(r.ops) == r.passes * r.pass_len and r.passes == 1
        if trace:
            for op in r.traced_ops:
                assert op.self_s == pytest.approx(op.seconds, rel=bench.SELF_SUM_TOL)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
