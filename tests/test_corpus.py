"""Committed problem files of known hard cases, each with the verdict the
program gives it today.  A change that moves a verdict changes the
expectation here and says why.

Each file is bench/instances.make_problem(seed, index, n, N) written as the
benchmark writes it, so that the case no longer depends on numpy's random
streams."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).resolve().parent / "corpus"
SRC = Path(__file__).resolve().parents[1] / "src"

# file -> (synthesize exit code, verify exit code, verify's failing checks in
# the report's order, the first of which its error JSON names)
CASES = {
    # lmi's proved bound at node 14 is +0.036 (its binary64 eigenvalue read
    # -0.0095, a pass); lyapunov passes, since its lemma term is -0.139
    "make_problem_1_50_12_30.json": (0, 4, ["cancellation", "lmi"]),
}

RUN = """
import contextlib, io, json, sys
from distobs.cli import main
problem, gains = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    synthesized = main(["synthesize", problem, gains])
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    verified = main(["verify", gains, problem, "--json"])
print(json.dumps({"codes": [synthesized, verified], "report": json.loads(out.getvalue()),
                  "error": json.loads(err.getvalue().strip().splitlines()[-1])["error"]}))
"""


# a wide-network design whose gains file reads other bytes at one and at two
# BLAS threads (compute_epsilon's N x N eigensolver), so it is written once
THREADS_CASE = "make_problem_1_2_6_150.json"


def run(args: list[str], threads: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_corpus_verdicts(name, threads, tmp_path):
    """The verdicts hold at one and at two BLAS threads."""
    synthesize_code, verify_code, failing = CASES[name]
    proc = run(["-c", RUN, str(CORPUS / name), str(tmp_path / "gains.json")], threads)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    assert got["codes"] == [synthesize_code, verify_code]
    assert [name for name, check in got["report"].items() if not check["pass"]] == failing
    assert got["error"]["step"] == failing[0]


def test_verify_report_is_the_same_at_one_and_two_threads(tmp_path):
    """From one gains file, verify --json writes the same bytes at one and at
    two BLAS threads."""
    problem, gains = str(CORPUS / THREADS_CASE), str(tmp_path / "gains.json")
    synthesized = run(["-m", "distobs.cli", "synthesize", problem, gains], "1")
    assert synthesized.returncode == 0, synthesized.stderr[-2000:]
    reports = [run(["-m", "distobs.cli", "verify", gains, problem, "--json"], threads)
               for threads in ("1", "2")]
    assert [proc.returncode for proc in reports] == [0, 0]
    assert reports[0].stdout == reports[1].stdout
