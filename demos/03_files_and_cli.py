"""End-to-end file workflow: problem JSON -> synthesize -> simulate -> verify.

The same three operations are exposed as `distobs synthesize / simulate /
verify` on the command line; here they are driven through the CLI entry
point so the script also documents the file formats and exit codes.
"""

import base64
import json
import tempfile
from pathlib import Path

import numpy as np

from distobs.cli import main

problem = {
    "A": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -3.0]],
    "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "node_outputs": [1, 1],
    "graph": {
        "N": 2,
        "edges": [
            {"from": 1, "to": 2, "weight": 1.0},
            {"from": 2, "to": 1, "weight": 1.0},
        ],
    },
    "alpha": 0.5,
}

with tempfile.TemporaryDirectory(prefix="distobs_demo_") as tmp:
    workdir = Path(tmp)
    problem_path = workdir / "problem.json"
    gains_path = workdir / "gains.json"
    trace_path = workdir / "trace.csv"
    problem_path.write_text(json.dumps(problem, indent=1))

    print(f"files in {workdir}\n")

    print("== distobs synthesize problem.json gains.json ==")
    code = main(["synthesize", str(problem_path), str(gains_path)])
    print(f"exit code {code}\n")

    print("== distobs simulate gains.json problem.json --tfinal 20 ==")
    code = main(["simulate", str(gains_path), str(problem_path),
                 "--tfinal", "20", "--trace-out", str(trace_path)])
    print(f"exit code {code}\n")

    print("== distobs verify gains.json problem.json ==")
    code = main(["verify", str(gains_path), str(problem_path)])
    print(f"exit code {code}\n")

    gains = json.loads(gains_path.read_text())
    print("gains file keys:", sorted(gains))
    print("per-node matrices:", sorted(gains["nodes"][0]))
    # each matrix is a record: its shape, and the base64 of its little-endian
    # float64 entries in C order, which decode bit for bit
    record = gains["nodes"][0]["K"]
    k = np.frombuffer(base64.b64decode(record["f8"]), "<f8").reshape(record["shape"])
    print(f"node 1's K decodes to a {k.shape[0]} x {k.shape[1]} matrix")
    with open(trace_path) as fh:
        header = fh.readline().strip()
        first_row = fh.readline().strip()
    # every float is written with 17 significant digits, which read back as
    # the same double
    print("trace CSV columns:", header)
    print("first data row:   ", first_row)
