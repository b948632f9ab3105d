"""distobs benchmark: the real CLI, in process, on seeded problem files.

    python3 bench/run.py --workload design-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
One process, one thread, one client in a closed loop: every op waits for the
previous one.  BLAS is pinned to one thread before numpy is imported.

Each run first sets up (imports, generates the workload's instance pool,
writes the problem files, synthesizes the simulated designs on
`simulate-trace`, makes one warm-up call) and then makes whole passes over
the pool, so every instance has the same weight.  The number of passes comes
from `--seconds` and the workload's nominal pass time, not from the clock, so
a seed always gives the same ops and the same failures, whatever the host's
speed.  The first instance is then run once more, untimed, to check that a
repeat gives the same files.  Every op's output is checked.  With
`--trace 1` each op runs once untraced and once traced (see tracing.py),
and the per-layer metrics come from the traced runs.  After the timed
passes, two more set-ups run in fresh processes (`--setup-only`), and
`setup_s` is the median of the three.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are the
human-readable report.  See README.md for the metrics and workloads.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import instances  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3  # this process and two fresh ones
SETUP_TIMEOUT_S = 120
SIM_ARGS = ["--tfinal", "0.5", "--dt", "1e-3", "--record-stride", "1"]
SIM_STEPS = 500
X_REL_TOL = 1e-8
INVARIANCE_TOL = 1e-6
SELF_SUM_TOL = 0.05
P90_MIN_CALLS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "design": synthesize then verify; "simulate": one simulate call
    sizes: tuple  # (n, N) of instance k is sizes[k % len(sizes)]
    pool: int
    pass_s: float  # nominal seconds of one pass, measured on a 2-core x86 box

    def passes(self, seconds: float) -> int:
        """Whole passes that fill `seconds` at the nominal pass time."""
        return max(1, round(seconds / self.pass_s))


# At 20 s a run makes one pass on design-grid and two on the others.
# design-grid needs the largest pool: the time of a (12,30) op
# depends on where it fails, and the mix of failures sets ops_per_s.
# simulate-trace has three (8,10) designs per (4,3) one, so the median op
# lies inside the (8,10) group even when a few (8,10) syntheses fail.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("design-grid", "design", ((4, 3), (8, 10), (12, 30)), 204, 25.0),
        Workload("wide-network", "design", ((6, 150),), 5, 11.0),
        Workload("simulate-trace", "simulate", ((4, 3), (8, 10), (8, 10), (8, 10)), 16, 11.0),
    )
}


@dataclass
class Call:
    command: str
    rc: int | None
    seconds: float
    stdout: str
    stderr: str

    def step(self) -> str:
        """The failing step named by the last error JSON line on stderr."""
        for line in reversed(self.stderr.strip().splitlines()):
            try:
                return str(json.loads(line)["error"]["step"])
            except (ValueError, KeyError, TypeError):
                continue
        return "unknown"


@dataclass
class Op:
    index: int
    calls: list
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # file label -> sha256
    # traced ops only: summed layer self times, the cli layer's share of
    # them, and the names of the root spans
    self_s: float = 0.0
    cli_self_s: float = 0.0
    roots: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def failure(self):
        """(command, step) of the first failure, or None."""
        for c in self.calls:
            if c.rc != 0:
                return c.command, c.step()
        if self.problems:
            return self.calls[-1].command, "check"
        return None


def call(cli, argv) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed op of the program
            rc = None
            print(json.dumps({"error": {"step": "exception", "message": repr(exc)}}),
                  file=sys.stderr)
        seconds = time.perf_counter() - start
    return Call(argv[0], rc, seconds, out.getvalue(), err.getvalue())


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- instances and set-up ------------------------------------------------------


@dataclass
class Instance:
    index: int
    doc: dict
    problem: Path
    gains: Path
    csv: Path


def make_pool(workload: Workload, seed: int, workdir: Path) -> list:
    pool = []
    for k in range(workload.pool):
        n, n_nodes = workload.sizes[k % len(workload.sizes)]
        doc = instances.make_problem(seed, k, n, n_nodes)
        inst = Instance(k, doc, workdir / f"problem_{k}.json",
                        workdir / f"gains_{k}.json", workdir / f"trace_{k}.csv")
        inst.problem.write_text(json.dumps(doc))
        pool.append(inst)
    return pool


def warm_up(cli, seed: int, index: int, workdir: Path) -> None:
    """One call of each command on an extra (4,3) instance, `index` past the pool.

    Lazy imports and first-call costs are paid here, and in a traced run
    every layer is called at least once.
    """
    problem, gains, csv = (workdir / f"warmup_{name}" for name in
                           ("problem.json", "gains.json", "trace.csv"))
    problem.write_text(json.dumps(instances.make_problem(seed, index, 4, 3)))
    if call(cli, ["synthesize", str(problem), str(gains), "--json"]).rc == 0:
        call(cli, ["verify", str(gains), str(problem), "--json"])
        call(cli, ["simulate", str(gains), str(problem), "--tfinal", "0.01", "--dt", "1e-3",
                   "--trace-out", str(csv)])


def setup(cli, workload: Workload, seed: int, workdir: Path):
    """Instances, problem files, the designs on simulate-trace, and the warm-up.

    Returns (ops-ready instances, design calls).
    """
    pool = make_pool(workload, seed, workdir)
    designs = []
    ready = pool
    if workload.kind == "simulate":
        for inst in pool:
            designs.append(
                (inst, call(cli, ["synthesize", str(inst.problem), str(inst.gains), "--json"]))
            )
        ready = [inst for inst, c in designs if c.rc == 0]
    warm_up(cli, seed, workload.pool, workdir)
    return ready, designs


# -- ops and their output checks -------------------------------------------------


def check_synthesis(inst: Instance, c: Call, op: Op) -> None:
    from distobs.problem import ProblemFormatError, load_realization

    try:
        realization = load_realization(inst.gains)
    except (OSError, ProblemFormatError) as exc:
        op.problems.append(f"instance {inst.index}: gains file does not load: {exc}")
        return
    expected = instances.expected_total_order(inst.doc)
    try:
        reported = json.loads(c.stdout)["total_order"]
    except (ValueError, KeyError) as exc:
        op.problems.append(f"instance {inst.index}: no total_order in --json report: {exc}")
        return
    if not realization.total_order == reported == expected:
        op.problems.append(
            f"instance {inst.index}: total order {realization.total_order} "
            f"(report {reported}) != N*n - sum p_i = {expected}"
        )
    op.outputs["gains"] = sha256(inst.gains)


def check_verify(inst: Instance, c: Call, op: Op) -> None:
    try:
        checks = json.loads(c.stdout)
        failed = [name for name, v in checks.items() if not v["pass"]]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        op.problems.append(f"instance {inst.index}: unreadable verify report: {exc}")
        return
    if (c.rc == 0) != (not failed) or (failed and c.step() != failed[0]):
        op.problems.append(
            f"instance {inst.index}: verify exit {c.rc} disagrees with its report {failed}"
        )


def check_simulation(inst: Instance, c: Call, op: Op) -> None:
    text = inst.csv.read_text()
    rows = text.splitlines()
    header = rows[0].split(",")
    if len(rows) != SIM_STEPS + 2:
        op.problems.append(f"instance {inst.index}: {len(rows) - 1} CSV rows, "
                           f"expected {SIM_STEPS + 1}")
        return
    if any(row.count(",") != len(header) - 1 for row in rows[1:]):
        op.problems.append(f"instance {inst.index}: CSV row width differs from header")
        return
    a = np.asarray(inst.doc["A"])
    n = a.shape[0]
    last = np.array([float(v) for v in rows[-1].split(",")])
    x_ref = scipy.linalg.expm(a * last[0]) @ np.ones(n)
    rel = np.linalg.norm(last[1 : n + 1] - x_ref) / np.linalg.norm(x_ref)
    if not rel <= X_REL_TOL:
        op.problems.append(f"instance {inst.index}: final x off expm(A t) x0 by {rel:.2e}")
    try:
        inv = json.loads(c.stdout)["max_invariance_residual"]
    except (ValueError, KeyError) as exc:
        op.problems.append(f"instance {inst.index}: unreadable simulate summary: {exc}")
        return
    if not inv <= INVARIANCE_TOL:
        op.problems.append(f"instance {inst.index}: invariance residual {inv:.2e}")
    op.outputs["trace"] = hashlib.sha256(text.encode()).hexdigest()


def op_calls(cli, workload: Workload, inst: Instance) -> list:
    if workload.kind == "simulate":
        return [call(cli, ["simulate", str(inst.gains), str(inst.problem), *SIM_ARGS,
                           "--trace-out", str(inst.csv)])]
    syn = call(cli, ["synthesize", str(inst.problem), str(inst.gains), "--json"])
    if syn.rc != 0:
        return [syn]
    return [syn, call(cli, ["verify", str(inst.gains), str(inst.problem), "--json"])]


def run_op(cli, workload: Workload, inst: Instance, tracer=None) -> Op:
    """One op: the CLI calls, timed and traced if a tracer is given, then the checks."""
    if tracer is None:
        op = Op(inst.index, op_calls(cli, workload, inst))
    else:
        self_before, cli_before = tracer.self_total(), tracer.self_total("cli.")
        first_span = len(tracer.spans)
        with tracer:
            op = Op(inst.index, op_calls(cli, workload, inst))
        op.self_s = tracer.self_total() - self_before
        op.cli_self_s = tracer.self_total("cli.") - cli_before
        op.roots = [s[3] for s in tracer.spans[first_span:] if s[1] is None]
    first = op.calls[0]
    if first.rc == 0 and workload.kind == "simulate":
        check_simulation(inst, first, op)
    elif first.rc == 0:
        check_synthesis(inst, first, op)
        check_verify(inst, op.calls[1], op)
    return op


def compare_traced(op: Op, traced: Op) -> None:
    if (traced.failure, traced.outputs) != (op.failure, op.outputs):
        op.problems.append(f"instance {op.index}: traced run differs from untraced")
    # With one cli.main root span per CLI call, self times partition the root
    # spans, so the sum check below holds by construction: it guards against
    # time spent outside the root span.  Where the time goes is told by the
    # cli layer's own share, cli.self_share.
    if traced.roots != ["cli.main"] * len(traced.calls):
        op.problems.append(f"instance {op.index}: root spans {traced.roots}, "
                           f"expected one cli.main per CLI call")
    if abs(traced.self_s - traced.seconds) > SELF_SUM_TOL * traced.seconds:
        op.problems.append(
            f"instance {op.index}: layer self times sum to {traced.self_s:.4f} s "
            f"of a {traced.seconds:.4f} s traced op"
        )


# -- the run -----------------------------------------------------------------------


@dataclass
class Run:
    workload: Workload
    trace: bool
    setups: list = field(default_factory=list)  # seconds, process start to first op
    ops: list = field(default_factory=list)
    traced_ops: list = field(default_factory=list)
    pass_len: int = 0
    passes: int = 0
    designs: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    tracer: object = None

    @property
    def failed(self) -> int:
        return sum(op.failure is not None for op in self.ops)


def run(cli, workload: Workload, seed: int, seconds: float, trace: bool,
        workdir: Path) -> Run:
    r = Run(workload, trace)
    ready, r.designs = setup(cli, workload, seed, workdir)
    if not ready:
        r.problems.append("no instance to run: every design failed to synthesize")
        return r
    r.pass_len = len(ready)
    if trace:
        r.tracer = tracing.Tracer()
        with r.tracer:
            warm_up(cli, seed, workload.pool, workdir)
    r.setups.append(time.perf_counter() - T_START)

    # A fixed number of whole passes, so every instance weighs the same in
    # every metric and a seed gives the same ops whatever the host's speed.
    first = {}  # instance -> (failure, outputs) of its first op
    for _ in range(workload.passes(seconds)):
        for inst in ready:
            k = len(r.ops)
            if trace:
                r.tracer.op = k
                # alternate which of the pair runs first, so warm caches favour neither
                if k % 2:
                    traced = run_op(cli, workload, inst, r.tracer)
                    op = run_op(cli, workload, inst)
                else:
                    op = run_op(cli, workload, inst)
                    traced = run_op(cli, workload, inst, r.tracer)
                r.traced_ops.append(traced)
                compare_traced(op, traced)
            else:
                op = run_op(cli, workload, inst)
            check_repeat(first, op)
            r.ops.append(op)
            r.problems.extend(op.problems)
        r.passes += 1
    repeat = run_op(cli, workload, ready[0])  # untimed: not in the metrics
    check_repeat(first, repeat)
    r.problems.extend(repeat.problems)
    return r


def check_repeat(first: dict, op: Op) -> None:
    key = (op.failure, op.outputs)
    if first.setdefault(op.index, key) != key:
        op.problems.append(f"instance {op.index}: repeat gave other outputs")


def fresh_setups(r: Run, seed: int) -> None:
    """Set up again in fresh processes, so every sample of setup_s is cold."""
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", r.workload.name, "--seed", str(seed),
             "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        words = proc.stdout.split()
        if proc.returncode == 0 and words:
            r.setups.append(float(words[-1]))
        else:
            r.problems.append(f"fresh set-up exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-300:]}")


# -- metrics -------------------------------------------------------------------------


def end_to_end(r: Run) -> dict:
    op_s = [op.seconds for op in r.ops]
    return {
        "setup_s": (statistics.median(r.setups), "s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def failed_ratio(r: Run) -> float:
    return r.failed / len(r.ops)


def per_layer(r: Run) -> dict:
    t = r.tracer
    n_ops = len(r.traced_ops)
    cnt = t.counters

    def stat(name, i):
        return t.stats.get(name, (0.0, 0, 0))[i]

    def self_s(name):
        return (stat(name, 0) / n_ops, "s")

    def calls(name):
        return (stat(name, 1) / n_ops, "count")

    def ratio(num, den):
        return num / den if den else 0.0

    csv_mb = cnt["trace_csv_bytes"] / 1e6
    csv_s = stat("problem.write_trace_csv", 0)
    untraced = sum(op.seconds for op in r.ops)
    traced = sum(op.seconds for op in r.traced_ops)
    return {
        "graph.spectral_data.self_s": self_s("graph.spectral_data"),
        "graph.is_strongly_connected.calls": calls("graph.is_strongly_connected"),
        "linalg.observability_decomposition.self_s":
            self_s("linalg.observability_decomposition"),
        "linalg.observability_matrix.calls": calls("linalg.observability_matrix"),
        "linalg.full_rank_factorize.self_s": self_s("linalg.full_rank_factorize"),
        "linalg.solve_lyapunov.self_s": self_s("linalg.solve_lyapunov"),
        "linalg.spectral_abscissa.self_s": self_s("linalg.spectral_abscissa"),
        "linalg.min_symmetric_eigenvalue.self_s": self_s("linalg.min_symmetric_eigenvalue"),
        "synthesis.place_injection.self_s": self_s("synthesis.place_injection"),
        "synthesis.place_injection.errors":
            (stat("synthesis.place_injection", 2) / n_ops, "count"),
        "synthesis.place_injection.care_attempts": (cnt["care_attempts"] / n_ops, "count"),
        "synthesis.place_injection.first_try_ratio":
            (ratio(cnt["care_useful"], cnt["care_attempts"]), "1"),
        "synthesis.solve_pie.self_s": self_s("synthesis.solve_pie"),
        "synthesis.assemble_gains.self_s": self_s("synthesis.assemble_gains"),
        "synthesis.select_gamma.self_s": self_s("synthesis.select_gamma"),
        "synthesis.verify_cancellation.self_s": self_s("synthesis.verify_cancellation"),
        "synthesis.verify_lmi_th1.self_s": self_s("synthesis.verify_lmi_th1"),
        "synthesis.compute_epsilon.self_s": self_s("synthesis.compute_epsilon"),
        "error_system.build_error_system.self_s":
            self_s("error_system.build_error_system"),
        "error_system.certify_rate.self_s": self_s("error_system.certify_rate"),
        "error_system.lyapunov_decrease_check.self_s":
            self_s("error_system.lyapunov_decrease_check"),
        "error_system.matrix_MB":
            (ratio(cnt["error_system_bytes"], cnt["error_system_builds"]) / 1e6, "MB"),
        "simulate.simulate.self_s": self_s("simulate.simulate"),
        "simulate.steps": (cnt["steps"] / n_ops, "count"),
        "simulate.us_per_step":
            (ratio(stat("simulate.simulate", 0), cnt["steps"]) * 1e6, "us"),
        "simulate.estimate_rate.self_s": self_s("simulate.estimate_rate"),
        "simulate.check_invariance.self_s": self_s("simulate.check_invariance"),
        "problem.write_trace_csv.self_s": self_s("problem.write_trace_csv"),
        "problem.trace_csv_MB": (ratio(csv_mb, cnt["trace_csv_bytes_files"]), "MB"),
        "problem.write_trace_csv.MB_per_s": (ratio(csv_mb, csv_s), "MB/s"),
        "problem.load_problem.self_s": self_s("problem.load_problem"),
        "problem.load_realization.self_s": self_s("problem.load_realization"),
        "problem.save_realization.self_s": self_s("problem.save_realization"),
        "problem.gains_json_KB":
            (ratio(cnt["gains_bytes"], cnt["gains_bytes_files"]) / 1e3, "KB"),
        "cli.main.self_s": (sum(v[0] for k, v in t.stats.items() if k.startswith("cli."))
                            / n_ops, "s"),
        "cli.self_share": (sum(op.cli_self_s for op in r.traced_ops) / traced, "1"),
        "trace.overhead_ratio": (traced / untraced, "1"),
        "failed_ratio": (failed_ratio(r), "1"),
    }


# -- report ----------------------------------------------------------------------------


def blas_threads() -> str:
    """Thread counts the OpenBLAS copies bundled with numpy and scipy report."""
    import ctypes
    import glob
    import importlib

    found = []
    for pkg, symbol in (("numpy", "scipy_openblas_get_num_threads64_"),
                        ("scipy", "scipy_openblas_get_num_threads")):
        base = Path(importlib.import_module(pkg).__file__).parent.parent / f"{pkg}.libs"
        libs = glob.glob(str(base / "*openblas*"))
        try:
            found.append(f"{pkg}:{getattr(ctypes.CDLL(libs[0]), symbol)()}")
        except (IndexError, OSError, AttributeError):
            found.append(f"{pkg}:unknown")
    return ",".join(found) + f" (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def timing_line(name, values):
    lines = [f"{name}.p50 {statistics.median(values):.6g} s (n={len(values)})"]
    if len(values) >= P90_MIN_CALLS:
        p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
        lines.append(f"{name}.p90 {p90:.6g} s (n={len(values)})")
    return lines


def report(r: Run, seed: int, seconds: float) -> list:
    w = r.workload
    lines = [
        f"workload {w.name} seed {seed} seconds {seconds:g} trace {int(r.trace)}",
        f"env python {sys.version.split()[0]} numpy {np.__version__} "
        f"scipy {scipy.__version__} blas_threads {blas_threads()} "
        f"nproc {len(os.sched_getaffinity(0))}",
        "load closed loop, 1 client, 1 process, 1 thread; no layer waits on "
        "another, so there is no wait metric",
    ]
    if r.setups:
        lines.append(f"setup_s {statistics.median(r.setups):.6g} s (median of {len(r.setups)} "
                     f"set-ups, process start to first timed op: "
                     f"{[round(s, 4) for s in r.setups]})")
    missing = [(inst.index, c.step()) for inst, c in r.designs if c.rc != 0]
    if r.designs:
        lines.append(f"designs {len(r.designs) - len(missing)} of {len(r.designs)} "
                     f"synthesized; without design (instance, step): {missing}")
    for command in ("synthesize", "verify", "simulate"):
        values = [c.seconds for op in r.ops for c in op.calls if c.command == command]
        if values:
            lines += timing_line(f"{command}_s", values)
    if not r.ops:
        return lines
    lines += timing_line("op_s", [op.seconds for op in r.ops])
    failures = [op.failure for op in r.ops if op.failure]
    lines.append(f"failed_ratio {failed_ratio(r):.6g} ({len(failures)} of {len(r.ops)} ops)")
    for (command, step), count in sorted(Counter(failures).items()):
        lines.append(f"failed.{command}.{step} {count}")
    lines.append(f"ops {len(r.ops)} attempted, {r.failed} failed, "
                 f"{r.passes} passes over a pool of {r.pass_len}")
    if r.trace:
        lines.append("layer self_s/op calls/op errors (traced ops: "
                     f"{len(r.traced_ops)})")
        n_ops = len(r.traced_ops)
        for name, (self_total, n_calls, errors) in sorted(
            r.tracer.stats.items(), key=lambda kv: -kv[1][0]
        ):
            if n_calls:
                lines.append(f"  {name} {self_total / n_ops:.6g} "
                             f"{n_calls / n_ops:.6g} {errors}")
    for problem in r.problems[:20]:
        lines.append(f"CHECK FAILED {problem}")
    return lines


def result_json(r: Run, metrics: dict) -> str:
    return json.dumps({
        "correct": not r.problems,
        "attempted": len(r.ops),
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (one sample of setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "distobs" / "cli.py").is_file():
        print(f"error: no distobs sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from distobs import cli

    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            if args.setup_only:
                setup(cli, workload, args.seed, Path(tmp))
                print(time.perf_counter() - T_START)
                return 0
            r = run(cli, workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    finally:
        with contextlib.suppress(OSError):
            work_root.rmdir()
    if r.ops and not r.trace:
        fresh_setups(r, args.seed)
    for line in report(r, args.seed, args.seconds):
        print(line)
    if not r.ops:
        print("error: no op ran", file=sys.stderr)
        return 1
    if r.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        r.tracer.write_spans(spans)
        print(f"spans {len(r.tracer.spans)} written to {spans.relative_to(ROOT)}")
        metrics = per_layer(r)
    else:
        metrics = end_to_end(r)
    print(result_json(r, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
