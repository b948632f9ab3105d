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


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_corpus_verdicts(name, threads, tmp_path):
    """The verdicts hold at one and at two BLAS threads."""
    synthesize_code, verify_code, failing = CASES[name]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", RUN, str(CORPUS / name),
                           str(tmp_path / "gains.json")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    assert got["codes"] == [synthesize_code, verify_code]
    assert [name for name, check in got["report"].items() if not check["pass"]] == failing
    assert got["error"]["step"] == failing[0]
