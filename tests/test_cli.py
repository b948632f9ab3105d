import base64
import dataclasses
import importlib
import itertools
import json
import os
import re
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from distobs import (
    NetworkGraph,
    Plant,
    SimulationConfig,
    SimulationTrace,
    full_rank_factorize,
    load_realization,
    observability_decomposition,
    observability_matrix,
    save_realization,
    simulate,
    synthesize,
    write_trace_csv,
)
from distobs import cli
from distobs.cli import main
from distobs.linalg import numerical_rank
from distobs.simulate import _generator
from distobs.problem import (
    GAIN_MATRICES,
    _G17_RANGE,
    _X_MIN,
    _block_rows,
    _g17_digits,
    _g17_rows,
    realization_to_dict,
)
from distobs.synthesis import assemble_gains

from conftest import (
    mixed_structure_instance,
    random_strongly_connected_graph,
    standard_instance,
)


def problem_dict(plant, graph, alpha=0.5, overrides=None):
    edges = []
    w = graph.weights
    for j in range(w.shape[0]):
        for i in range(w.shape[1]):
            if w[j, i] > 0:
                edges.append({"from": i + 1, "to": j + 1, "weight": float(w[j, i])})
    doc = {
        "A": plant.a.tolist(),
        "C": plant.c.tolist(),
        "node_outputs": list(plant.node_rows),
        "graph": {"N": plant.node_count, "edges": edges},
        "alpha": alpha,
    }
    if overrides:
        doc["overrides"] = overrides
    return doc


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def standard_files(tmp_path_factory):
    """Problem file plus synthesized gains for the 3-node cycle instance."""
    tmp = tmp_path_factory.mktemp("std")
    plant, graph = standard_instance()
    problem = write_problem(tmp, problem_dict(plant, graph, alpha=0.5))
    gains = str(tmp / "gains.json")
    assert main(["synthesize", problem, gains]) == 0
    return plant, graph, problem, gains


@pytest.fixture(scope="module")
def stiff_files(tmp_path_factory):
    """Problem file plus synthesized gains for an (8, 10) design whose
    restricted generator has a large norm; --dt 8e-4 gives 2.5e4 records to
    the default horizon."""
    tmp = tmp_path_factory.mktemp("stiff")
    plant, graph = generator_instance(1, 5, 8, 10)
    problem = write_problem(tmp, problem_dict(plant, graph, alpha=0.5))
    gains = str(tmp / "gains.json")
    assert main(["synthesize", problem, gains]) == 0
    return plant, graph, problem, gains


def jordan_problem(tmp_path, alpha=0.0):
    """Two nodes; the second Jordan mode is corrected only through node 1."""
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    c = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    plant = Plant(a=a, c=c, node_rows=(1, 1))
    graph = NetworkGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
    path = write_problem(tmp_path, problem_dict(plant, graph, alpha=alpha),
                         "jordan.json")
    return plant, graph, path


def zero_injection_gains(plant, realization, node):
    """Reassemble one node's gains with the dynamic injection H set to zero."""
    frf = full_rank_factorize(plant.c_block(node)[None])[0]
    dec = observability_decomposition(plant.a, frf.f_factor[None])[0]
    g = realization.nodes[node]
    bad = assemble_gains([dec], [frf], np.zeros_like(g.h_inj)[None],
                         np.eye(g.p_ie.shape[0])[None])[0]
    nodes = list(realization.nodes)
    nodes[node] = bad
    return dataclasses.replace(realization, nodes=tuple(nodes))


def decimal_document(path) -> dict:
    """The gains file at path as a document of the older decimal format: each
    matrix record decoded to nested lists of floats."""
    doc = json.loads(open(path).read())
    for nd in doc["nodes"]:
        for key in GAIN_MATRICES:
            rec = nd[key]
            nd[key] = np.frombuffer(base64.b64decode(rec["f8"]), "<f8").reshape(
                rec["shape"]).tolist()
    return doc


def stderr_step(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])["error"]["step"]


def runtime_warnings(recwarn):
    return [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(text, parse_constant=reject)


class TestSynthesizeCommand:
    def test_reports_order_and_writes_gains(self, standard_files, capsys):
        plant, graph, problem, _ = standard_files
        out = capsys.readouterr()  # discard fixture output
        gains2 = str(__import__("pathlib").Path(problem).parent / "g2.json")
        assert main(["synthesize", problem, gains2, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        # 3 single-output nodes on a 4-state plant: 3*4 - 3 = 9
        assert report["total_order"] == 9
        assert report["lmi_pass"] is True
        assert report["lyapunov_pass"] is True

    def test_fully_measured_node_prints_strict_json(self, tmp_path, capsys):
        """C = I on one node: the empty observer passes lyapunov with the
        value -inf, which the verify report prints as null."""
        plant = Plant(a=np.array([[0.0, 1.0], [-1.0, 0.0]]), c=np.eye(2),
                      node_rows=(2,))
        graph = NetworkGraph(weights=np.zeros((1, 1)))
        problem = write_problem(tmp_path, problem_dict(plant, graph))
        gains = str(tmp_path / "gains.json")
        assert main(["synthesize", problem, gains, "--json"]) == 0
        report = strict_loads(capsys.readouterr().out)
        assert report["total_order"] == 0 and report["lyapunov_pass"] is True
        assert main(["verify", gains, problem, "--json"]) == 0
        checks = strict_loads(capsys.readouterr().out)
        assert checks["lyapunov"]["value"] is None and checks["lyapunov"]["pass"]

    def test_roundtrip_bit_exact(self, standard_files, tmp_path):
        plant, graph, problem, gains = standard_files
        r1 = load_realization(gains)
        again = tmp_path / "again.json"
        save_realization(r1, again)
        assert again.read_bytes() == open(gains, "rb").read()
        r2 = load_realization(again)
        for g1, g2 in zip(r1.nodes, r2.nodes):
            for name in ("n_gain", "l_gain", "m_gain", "p_out", "q_out",
                         "k_mat", "h_inj", "p_ie"):
                np.testing.assert_array_equal(getattr(g1, name), getattr(g2, name))
        assert r1.gamma == r2.gamma and r1.epsilon == r2.epsilon

    def test_legacy_tis_key_ignored(self, standard_files, tmp_path):
        _, _, _, gains = standard_files
        doc = decimal_document(gains)
        assert all("Tis" not in nd for nd in doc["nodes"])
        for nd in doc["nodes"]:
            nd["Tis"] = nd["P"]
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(doc))
        resaved = tmp_path / "resaved.json"
        save_realization(load_realization(legacy), resaved)
        assert resaved.read_bytes() == open(gains, "rb").read()

    def test_gains_file_holds_only_the_design(self, standard_files):
        doc = json.loads(open(standard_files[3]).read())
        assert list(doc) == ["nodes", "gamma", "epsilon", "r", "alpha"]

    def test_legacy_certificate_key_ignored(self, standard_files, tmp_path):
        """A gains file of the earlier format, which also held certify's
        report, rate check included, loads and saves as the design alone."""
        _, _, _, gains = standard_files
        doc = decimal_document(gains)
        check = {"value": -1.5, "bound": 0.0, "pass": True}
        doc["certificate"] = {
            "cancellation": {"value": 1e-15, "bound": 1e-9, "pass": True},
            "lmi": {**check, "nodes": [-1.5, float("-inf"), -2.0]},
            "rate": {"value": float("-inf"), "bound": -0.5, "pass": True},
            "invariance": {"value": 1e-16, "bound": 1e-9, "pass": True},
            "lyapunov": check,
        }
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(doc, indent=1) + "\n")
        resaved = tmp_path / "resaved.json"
        save_realization(load_realization(legacy), resaved)
        assert resaved.read_bytes() == open(gains, "rb").read()

    def test_deterministic_output(self, standard_files, tmp_path, capsys):
        _, _, problem, _ = standard_files
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(["synthesize", problem, str(path), "--json"]) == 0
            outs.append((path.read_bytes(), capsys.readouterr().out))
        assert outs[0] == outs[1]

    def test_disconnected_graph_exit2(self, tmp_path, capsys):
        doc = problem_dict(
            Plant(a=np.eye(2) * -1.0, c=np.eye(2), node_rows=(1, 1)),
            NetworkGraph(weights=np.array([[0.0, 0.0], [1.0, 0.0]])),
        )
        problem = write_problem(tmp_path, doc)
        assert main(["synthesize", problem, str(tmp_path / "g.json")]) == 2
        assert stderr_step(capsys) == "graph"

    def test_unobservable_exit2(self, tmp_path, capsys):
        doc = problem_dict(
            Plant(a=np.diag([1.0, 2.0]), c=np.array([[1.0, 0.0], [2.0, 0.0]]),
                  node_rows=(1, 1)),
            NetworkGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        problem = write_problem(tmp_path, doc)
        assert main(["synthesize", problem, str(tmp_path / "g.json")]) == 2
        assert stderr_step(capsys) == "observability"

    def test_parse_error_exit1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synthesize", str(bad), str(tmp_path / "g.json")]) == 1
        assert stderr_step(capsys) == "parse"

    def test_missing_file_exit1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["synthesize", missing, str(tmp_path / "g.json")]) == 1

    @pytest.mark.parametrize("command, override", [
        pytest.param("synthesize", {"epsilon_fraction": 2.0}, id="synthesize"),
        pytest.param("verify", {"epsilon_fraction": 2.0}, id="verify"),
        # a well-formed override is not designed at the defaults instead
        pytest.param("synthesize", {"gamma_safety": 2.0}, id="synthesize-well-formed"),
        pytest.param("verify", {"gamma_safety": 2.0}, id="verify-well-formed"),
    ])
    def test_invalid_override_exit1(self, command, override, standard_files, tmp_path,
                                    capsys):
        plant, graph, _, gains = standard_files
        doc = problem_dict(plant, graph, overrides=override)
        problem = write_problem(tmp_path, doc)
        files = {"synthesize": [problem, str(tmp_path / "g.json")],
                 "verify": [gains, problem]}[command]
        capsys.readouterr()
        assert main([command, *files]) == 1
        assert stderr_step(capsys) == "parse"

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    @pytest.mark.parametrize("command", ["synthesize", "verify", "simulate"])
    def test_non_finite_alpha_exit1(self, command, alpha, standard_files, tmp_path,
                                    capsys):
        plant, graph, _, gains = standard_files
        problem = write_problem(tmp_path, problem_dict(plant, graph, alpha=alpha))
        files = {"synthesize": [problem, str(tmp_path / "g.json")],
                 "verify": [gains, problem],
                 "simulate": [gains, problem, "--tfinal", "0.01"]}[command]
        capsys.readouterr()
        assert main([command, *files]) == 1
        assert stderr_step(capsys) == "parse"


    @pytest.mark.parametrize("key, value, code", [
        ("N", 3.7, 1), ("N", float("inf"), 1), ("node_outputs", [1.9, 1, 1], 1),
        ("from", 1.5, 1), ("alpha", True, 1),
        # a whole number written as a float is designed as the integer is
        ("N", 3.0, 0), ("node_outputs", [1.0, 1.0, 1.0], 0), ("from", 1.0, 0),
        # alpha is a JSON number, not the number a string spells, and so are
        # the counts and edge ends
        ("alpha", "0.5", 1), ("N", "3", 1), ("node_outputs", ["1", 1, 1], 1),
        ("from", "1", 1)])
    def test_counts_and_indices_are_whole_numbers(self, key, value, code, standard_files,
                                                  tmp_path, capsys):
        """A node count, output count or edge end that is not a whole number
        (a fraction, a boolean or a string), and a boolean alpha, are parse
        errors rather than truncated to an integer, read as 1, read as the
        number a string spells or (for an infinite count) an OverflowError."""
        plant, graph, _, gains = standard_files
        doc = problem_dict(plant, graph, alpha=0.5)
        edge = next(e for e in doc["graph"]["edges"] if e["from"] == 1)
        target = {"N": doc["graph"], "from": edge}.get(key, doc)
        target[key] = value
        out = tmp_path / "g.json"
        capsys.readouterr()
        assert main(["synthesize", write_problem(tmp_path, doc), str(out)]) == code
        if code:
            assert stderr_step(capsys) == "parse"
        else:
            assert out.read_bytes() == open(gains, "rb").read()


def record_traces(monkeypatch):
    """A list to which each trace that the CLI's simulate returns is added."""
    traces = []

    def recording_simulate(*args):
        traces.append(simulate(*args))
        return traces[-1]

    monkeypatch.setattr(cli, "simulate", recording_simulate)
    return traces


def trace_table(trace, header):
    """The trace's arrays as one table whose columns are the CSV header's
    names, in its order."""
    def column(name):
        if name == "t":
            return trace.times
        kind, k, j = re.fullmatch(r"(x|z|xhat|err_norm|inv_res)_(\d+)(?:_(\d+))?",
                                  name).groups()
        k = int(k) - 1
        if kind == "x":
            return trace.x[:, k]
        if kind == "err_norm":
            return trace.error_norms[:, k]
        if kind == "inv_res":
            return trace.invariance_residuals[:, k]
        return {"z": trace.z, "xhat": trace.xhat}[kind][k][:, int(j) - 1]

    n = trace.x.shape[1]
    width = 1 + n + sum(z.shape[1] + n + 2 for z in trace.z)
    assert len(header) == len(set(header)) == width
    return np.column_stack([column(name) for name in header])


def read_trace_csv(path):
    """The header and the data lines of a trace CSV, split at CRLF only."""
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[-1] == ""  # every row, the last one too, ends in CRLF
    return lines[0].split(","), lines[1:-1]


def assert_same_bits(a, b):
    """Equal doubles bit for bit, so that -0.0 differs from 0.0."""
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSimulateCommand:
    def test_default_flags_converges(self, standard_files, capsys):
        _, _, problem, gains = standard_files
        capsys.readouterr()
        assert main(["simulate", gains, problem]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["alpha_hat"] >= 0.5 - 0.05
        assert summary["max_invariance_residual"] <= 1e-6
        assert not summary["low_confidence"]
        assert all(v < 1e-3 for v in summary["final_error_norms"])

    def test_short_horizon_low_confidence(self, standard_files, capsys):
        _, _, problem, gains = standard_files
        capsys.readouterr()
        assert main(["simulate", gains, problem, "--tfinal", "0.001"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["low_confidence"]

    def test_stride_beyond_horizon_prints_strict_json(self, standard_files, capsys):
        """Too few recorded rows for a rate fit: alpha_hat is null, not NaN or Infinity."""
        _, _, problem, gains = standard_files
        capsys.readouterr()
        assert main(["simulate", gains, problem, "--record-stride", "100000"]) == 0
        summary = strict_loads(capsys.readouterr().out)
        assert summary["alpha_hat"] is None
        assert summary["low_confidence"]

    def test_default_step_runs_a_stiff_design(self, stiff_files, capsys,
                                              monkeypatch):
        """An (8, 10) design whose restricted generator R has a large norm: a
        step bounded by ||R||_2, as an explicit scheme needs, would take over
        1e6 steps to the default horizon, and the run ran out of memory."""
        plant, graph, problem, gains = stiff_files
        f = _generator(load_realization(gains), plant, graph)[0]
        t_final = 10.0 / 0.5  # simulate's default horizon at this alpha
        r_norm = np.linalg.norm(f[plant.n :, plant.n :], 2)
        assert t_final * r_norm / 0.1 > 1e6
        traces = record_traces(monkeypatch)
        capsys.readouterr()
        assert main(["simulate", gains, problem]) == 0
        assert traces[0].times.size <= 1e6

    def test_default_grid_is_set_by_the_horizon(self, standard_files, tmp_path,
                                                capsys):
        """Without --dt, the records split the default horizon into
        DEFAULT_RECORDS = 1000 intervals: 1,001 records, whatever the
        design."""
        _, _, problem, gains = standard_files
        path = tmp_path / "trace.csv"
        capsys.readouterr()
        assert main(["simulate", gains, problem, "--trace-out", str(path)]) == 0
        assert len(read_trace_csv(path)[1]) == 1001

    def test_default_run_reads_no_spectrum(self, standard_files, capsys,
                                           monkeypatch):
        """A default run builds the generator F once, for the propagator,
        and takes no dense eigenvalues."""
        _, _, problem, gains = standard_files
        calls = {"_generator": 0, "eigvals": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        sim = importlib.import_module("distobs.simulate")
        monkeypatch.setattr(sim, "_generator", counting("_generator", sim._generator))
        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
        capsys.readouterr()
        assert main(["simulate", gains, problem]) == 0
        assert calls == {"_generator": 1, "eigvals": 0}

    @staticmethod
    def peak_and_row_bytes(argv, monkeypatch):
        """tracemalloc's peak over main(argv), and the bytes of the state
        rows (x and z) of the trace that simulate returned."""
        traces = record_traces(monkeypatch)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trace = traces[0]
        width = trace.x.shape[1] + sum(z.shape[1] for z in trace.z)
        return peak, trace.times.size * width * trace.x.itemsize

    def test_default_run_holds_each_record_once(self, stiff_files, capsys,
                                                monkeypatch):
        """Without --trace-out, simulate allocates its state rows, the
        estimates and per-node error norms: below 3x the bytes of the rows.
        A trace that also stores the errors and stacked copies of them peaks
        above 5x."""
        _, _, problem, gains = stiff_files
        capsys.readouterr()
        peak, row_bytes = self.peak_and_row_bytes(
            ["simulate", gains, problem, "--dt", "8e-4"], monkeypatch)
        assert peak < 3 * row_bytes

    def test_trace_out_run_holds_each_record_once(self, stiff_files, capsys,
                                                  monkeypatch):
        """--trace-out formats a block of rows at a time from the trace's
        arrays, so the run stays below the same 3x (2.8x, as without
        --trace-out); a writer that stacks every column into one table first
        peaks at 4.7x.  Every 10th record only: under tracemalloc, formatting
        all 2.5e4 records takes almost a minute."""
        _, _, problem, gains = stiff_files
        capsys.readouterr()
        argv = ["simulate", gains, problem, "--dt", "8e-4", "--record-stride", "10",
                "--trace-out", os.devnull]
        peak, row_bytes = self.peak_and_row_bytes(argv, monkeypatch)
        assert peak < 3 * row_bytes

    def test_summary_reads_the_csv_norms(self, standard_files, tmp_path, capsys):
        """The summary and the trace CSV report the same error norms."""
        _, _, problem, gains = standard_files
        path = tmp_path / "trace.csv"
        capsys.readouterr()
        assert main(["simulate", gains, problem, "--trace-out", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        nodes = range(1, len(summary["final_error_norms"]) + 1)
        err = table[:, [header.index(f"err_norm_{k}") for k in nodes]]
        inv = table[:, [header.index(f"inv_res_{k}") for k in nodes]]
        assert summary["final_error_norms"] == err[-1].tolist()
        assert summary["max_invariance_residual"] == np.max(inv / np.maximum(1.0, err))

    def test_trace_csv_columns_are_the_trace(self, standard_files, tmp_path, capsys,
                                             monkeypatch):
        """Each column of the CSV reads back as its array of the trace, bit
        for bit."""
        _, _, problem, gains = standard_files
        traces = record_traces(monkeypatch)
        path = tmp_path / "trace.csv"
        capsys.readouterr()
        assert main(["simulate", gains, problem, "--trace-out", str(path)]) == 0
        header, rows = read_trace_csv(path)
        assert len(rows) == traces[0].times.size
        assert_same_bits(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2),
                         trace_table(traces[0], header))

    def test_trace_csv_deterministic(self, standard_files, tmp_path, capsys):
        _, _, problem, gains = standard_files
        csvs = []
        for name in ("t1.csv", "t2.csv"):
            path = tmp_path / name
            args = ["simulate", gains, problem, "--tfinal", "0.5",
                    "--trace-out", str(path), "--record-stride", "10"]
            assert main(args) == 0
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1]
        header = csvs[0].decode().splitlines()[0].split(",")
        assert header[:5] == ["t", "x_1", "x_2", "x_3", "x_4"]
        assert "err_norm_1" in header and "inv_res_3" in header

    def test_initial_conditions_flags(self, standard_files, tmp_path, capsys):
        plant, _, problem, gains = standard_files
        r = load_realization(gains)
        total = sum(g.n_gain.shape[0] for g in r.nodes)
        z0 = ",".join(["0.0"] * total)
        args = ["simulate", gains, problem, "--tfinal", "1.0",
                "--x0", "1,0,-1,2", "--z0", z0]
        capsys.readouterr()
        assert main(args) == 0
        json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("flag", ["--x0", "--z0"])
    @pytest.mark.parametrize("value", ["1,a,2,3", "1,nan,2,3", "1,,2,3,4", "1, ,2,3,4",
                                       "1,2,3,4,", ",1,2,3,4"])
    def test_non_numeric_initial_state_exit1(self, flag, value, standard_files,
                                             capsys):
        """A field that is not a finite number is a parse error.  So is an
        empty or blank one, which would otherwise be dropped and shift the
        fields after it: without it, each of these has the n = 4 entries
        that --x0 needs."""
        _, _, problem, gains = standard_files
        capsys.readouterr()
        assert main(["simulate", gains, problem, flag, value]) == 1
        assert stderr_step(capsys) == "parse"

    @pytest.mark.parametrize("flags", [
        ["--dt", "0"], ["--tfinal", "0"], ["--tfinal", "0", "--dt", "1e-3"],
        ["--dt=-1e-3"], ["--record-stride", "0"], ["--dt", "nan"],
        ["--tfinal", "nan"], ["--tfinal", "inf"],
    ])
    def test_rejected_horizon_or_stride_exit1(self, flags, standard_files, capsys):
        """A zero --dt or --tfinal is a value, not an absent flag: it reaches
        SimulationConfig, which rejects it, as it rejects a NaN or infinite one."""
        _, _, problem, gains = standard_files
        capsys.readouterr()
        assert main(["simulate", gains, problem, *flags]) == 1
        assert stderr_step(capsys) == "parse"

    def test_corrupted_gains_exit1(self, standard_files, tmp_path, capsys):
        _, _, problem, gains = standard_files
        bad = tmp_path / "bad_gains.json"
        bad.write_text(open(gains).read()[:200])
        assert main(["simulate", str(bad), problem]) == 1
        assert stderr_step(capsys) == "parse"

    def test_dimension_mismatch_exit1(self, standard_files, tmp_path, capsys):
        _, _, _, gains = standard_files
        _, _, other_problem = jordan_problem(tmp_path)
        assert main(["simulate", gains, other_problem]) == 1
        assert stderr_step(capsys) == "dimensions"

    @pytest.mark.parametrize("flags", [[], ["--dt", "1e-3"]])
    def test_not_strongly_connected_exit2(self, flags, standard_files, tmp_path,
                                          capsys):
        plant, graph, _, gains = standard_files
        w = graph.weights.copy()
        w[0, 2] = 0.0  # 1 -> 2 -> 3 remains: no path back to node 1
        problem = write_problem(tmp_path, problem_dict(plant, NetworkGraph(weights=w)))
        capsys.readouterr()
        assert main(["simulate", gains, problem, "--tfinal", "0.5", *flags]) == 2
        assert stderr_step(capsys) == "graph"

    def test_growing_error_exit3(self, tmp_path, capsys):
        plant, graph, problem = jordan_problem(tmp_path)
        gains = str(tmp_path / "gains.json")
        assert main(["synthesize", problem, gains]) == 0
        bad = zero_injection_gains(plant, load_realization(gains), node=0)
        bad_path = tmp_path / "bad_gains.json"
        save_realization(bad, bad_path)
        capsys.readouterr()
        assert main(["simulate", str(bad_path), problem, "--tfinal", "20"]) == 3


class TestVerifyCommand:
    def test_pipeline_output_passes(self, standard_files, capsys):
        _, _, problem, gains = standard_files
        capsys.readouterr()
        assert main(["verify", gains, problem, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["cancellation", "lmi", "invariance", "lyapunov"]
        for name in report:
            assert report[name]["pass"], name

    def test_perturbed_l_fails_cancellation(self, standard_files, tmp_path,
                                            capsys):
        _, _, problem, gains = standard_files
        doc = decimal_document(gains)
        doc["nodes"][0]["L"][0][0] += 1e-3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(bad), problem, "--json"]) == 4
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert not report["cancellation"]["pass"]
        assert json.loads(captured.err.strip().splitlines()[-1]
                          )["error"]["step"] == "cancellation"

    def test_perturbed_q_fails_cancellation_naming_its_node(self, standard_files,
                                                           tmp_path, capsys):
        """cancellation lists each node's residual, and the error JSON names
        the worst node, 1-based."""
        _, _, problem, gains = standard_files
        doc = decimal_document(gains)
        doc["nodes"][1]["Q"][0][0] += 1e-3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(bad), problem, "--json"]) == 4
        captured = capsys.readouterr()
        check = strict_loads(captured.out)["cancellation"]
        assert not check["pass"] and len(check["nodes"]) == 3
        assert check["nodes"][1] == check["value"] > check["bound"]
        assert max(check["nodes"][0], check["nodes"][2]) <= check["bound"]
        error = strict_loads(captured.err.strip().splitlines()[-1])["error"]
        assert (error["step"], error["node"]) == ("cancellation", 2) == (
            "cancellation", check["node"])

    def test_planted_coupling_defect_fails_lyapunov_naming_a_node(
            self, standard_files, tmp_path, capsys):
        """Node 1's M scaled by 1.5 plants a coupling defect D_1 = W_1 M_1 -
        P_1^T of norm about 0.5, which no other check sees: lyapunov fails,
        and its error JSON names the node of its largest node term."""
        _, _, problem, gains = standard_files
        doc = decimal_document(gains)
        doc["nodes"][0]["M"] = (1.5 * np.array(doc["nodes"][0]["M"])).tolist()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(bad), problem, "--json"]) == 4
        captured = capsys.readouterr()
        report = strict_loads(captured.out)
        assert [name for name, c in report.items() if not c["pass"]] == ["lyapunov"]
        check = report["lyapunov"]
        assert check["value"] > 0 and check["rate_bound"] is None
        assert check["coupling_term"] > -(check["node_term"] + check["lemma_term"])
        assert f"(node {check['node']})" in check["detail"]
        error = strict_loads(captured.err.strip().splitlines()[-1])["error"]
        assert (error["step"], error["node"]) == ("lyapunov", check["node"])
        assert error["node"] in (1, 2, 3)

    def test_zeroed_injection_fails_lyapunov(self, tmp_path, capsys):
        plant, graph, problem = jordan_problem(tmp_path)
        gains = str(tmp_path / "gains.json")
        assert main(["synthesize", problem, gains]) == 0
        # without node 1's injection the second Jordan mode is retained
        # uncorrected and sits at eigenvalue +1
        bad = zero_injection_gains(plant, load_realization(gains), node=0)
        bad_path = tmp_path / "bad_gains.json"
        save_realization(bad, bad_path)
        capsys.readouterr()
        assert main(["verify", str(bad_path), problem, "--json"]) == 4
        report = json.loads(capsys.readouterr().out)
        assert not report["lyapunov"]["pass"]

    def test_verify_reads_the_gains_file_r(self, standard_files, tmp_path, capsys):
        """The certificates judge the observer simulate runs, whose coupling
        weights are the gains file's r, not the graph's Perron vector."""
        _, _, problem, gains = standard_files
        doc = json.loads(open(gains).read())
        doc["r"][0] *= 1e-3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(bad), problem, "--json"]) == 4

    def test_indefinite_pie_fails_lmi(self, standard_files, tmp_path, capsys):
        _, _, problem, gains = standard_files
        doc = decimal_document(gains)
        doc["nodes"][1]["Pie"] = (-np.array(doc["nodes"][1]["Pie"])).tolist()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(bad), problem, "--json"]) == 4
        captured = capsys.readouterr()
        # the infinite values print as null, on stdout and on stderr
        report = strict_loads(captured.out)
        assert report["lmi"]["nodes"][1] is None
        assert report["lmi"]["value"] is None
        # W is not positive definite, so lyapunov proves nothing either
        assert report["lyapunov"]["value"] is None and not report["lyapunov"]["pass"]
        error = strict_loads(captured.err.strip().splitlines()[-1])["error"]
        assert error["step"] == "lmi" and error["value"] is None

    def test_foreign_observer_subspace_fails_invariance(self, standard_files,
                                                        tmp_path, capsys):
        """A P off the problem's im T_is breaks the invariance certificate."""
        _, _, problem, gains = standard_files
        doc = decimal_document(gains)
        p_shape = np.array(doc["nodes"][0]["P"]).shape
        rng = np.random.default_rng(11)
        doc["nodes"][0]["P"] = np.linalg.qr(
            rng.standard_normal(p_shape))[0].tolist()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(bad), problem, "--json"]) == 4
        report = json.loads(capsys.readouterr().out)
        assert not report["invariance"]["pass"]

    def test_judged_at_the_problem_alpha(self, standard_files, tmp_path, capsys):
        """The gains file's alpha does not move the Lyapunov value: verify judges
        the design at the problem's alpha, which it must meet."""
        plant, graph, problem, gains = standard_files
        doc = json.loads(open(gains).read())
        doc["alpha"] = 0.0
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        reports = []
        for path in (gains, str(edited)):
            capsys.readouterr()
            assert main(["verify", path, problem, "--json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0]["lyapunov"]["value"] == reports[1]["lyapunov"]["value"]
        assert reports[0] == reports[1]

        demanding = write_problem(tmp_path, problem_dict(plant, graph, alpha=5.0),
                                  "alpha5.json")
        for path in (gains, str(edited)):
            capsys.readouterr()
            assert main(["verify", path, demanding, "--json"]) == 4
            report = json.loads(capsys.readouterr().out)
            assert not report["lyapunov"]["pass"]

    def test_mismatched_files_exit1(self, standard_files, tmp_path, capsys):
        _, _, _, gains = standard_files
        _, _, other_problem = jordan_problem(tmp_path)
        assert main(["verify", gains, other_problem]) == 1

    def test_gains_of_another_node_rank_exit1(self, tmp_path, capsys):
        """Node 1 has two independent output rows in the designed problem and
        a rank-one pair in the checked one: same shapes of Q, another p_1."""
        rng = np.random.default_rng(3)
        plant = Plant(a=rng.standard_normal((4, 4)) / 2, c=rng.standard_normal((3, 4)),
                      node_rows=(2, 1))
        c = plant.c.copy()
        c[1] = 2.0 * c[0]
        graph = NetworkGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        problem = write_problem(tmp_path, problem_dict(plant, graph, alpha=0.1))
        other = write_problem(tmp_path, problem_dict(Plant(a=plant.a, c=c, node_rows=(2, 1)),
                                                     graph, alpha=0.1), "other.json")
        gains = str(tmp_path / "gains.json")
        assert main(["synthesize", problem, gains]) == 0
        capsys.readouterr()
        assert main(["verify", gains, other]) == 1
        assert stderr_step(capsys) == "dimensions"


@pytest.mark.parametrize("command, key", [
    ("verify", "Pie"), ("simulate", "N"), ("verify", "H"), ("simulate", "gamma")])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_gains_exit1_at_parse(command, key, bad, standard_files, tmp_path,
                                         capsys):
    """A non-finite gain is a parse error naming the node and the matrix, not
    a traceback from the numerics."""
    _, _, problem, gains = standard_files
    doc = decimal_document(gains)
    if key == "gamma":
        doc["gamma"] = bad
    else:
        doc["nodes"][1][key][0][0] = bad
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(bad_file), problem]) == 1
    error = strict_loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["step"] == "parse"
    name = "gamma" if key == "gamma" else f"node 2: {key}"
    assert f"{name} has a non-finite entry" in error["message"]


# the UTF-16 byte order mark, then "{bad": not UTF-8 text
NOT_UTF8 = bytes.fromhex("fffe7b626164")


@pytest.mark.parametrize("command, which", [
    ("synthesize", "problem"), ("simulate", "problem"), ("simulate", "gains"),
    ("verify", "gains")])
def test_non_utf8_file_exit1_at_parse(command, which, standard_files, tmp_path, capsys):
    """A problem or gains file that is not UTF-8 text is a parse error with
    the error JSON, not a UnicodeDecodeError traceback."""
    _, _, problem, gains = standard_files
    bad_file = tmp_path / "bad.json"
    bad_file.write_bytes(NOT_UTF8)
    files = {"problem": problem, "gains": gains, which: str(bad_file)}
    if command == "synthesize":
        argv = [command, files["problem"], str(tmp_path / "out.json")]
    else:
        argv = [command, files["gains"], files["problem"]]
    capsys.readouterr()
    assert main(argv) == 1
    error = strict_loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["step"] == "parse"
    assert "can't decode byte 0xff" in error["message"]


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.5, True])
def test_gains_file_alpha_exit1_at_parse(command, alpha, standard_files, tmp_path,
                                         capsys):
    """The gains file's alpha is checked as the problem file's is, at parse,
    in a message that names it."""
    _, _, problem, gains = standard_files
    doc = json.loads(open(gains).read())
    doc["alpha"] = alpha
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(bad_file), problem]) == 1
    error = strict_loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["step"] == "parse"
    assert "alpha must be finite and nonnegative" in error["message"]


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("key, value", [
    ("gamma", True), ("gamma", "1"), ("epsilon", False), ("r", [1, "1", 1]),
    ("Q", [1.0, 2.0, 3.0, 4.0]), ("N", "row")])
def test_gains_file_entries_of_the_wrong_kind_exit1_at_parse(
        command, key, value, standard_files, tmp_path, capsys):
    """gamma, epsilon and r are JSON numbers, not booleans or strings that
    float() would read as one, and every gain matrix is 2-D and of its own
    shape: node 1's N written as one row is not read as its 3 x 3 entries."""
    _, _, problem, gains = standard_files
    doc = json.loads(open(gains).read())
    if value == "row":
        value = [np.ravel(decimal_document(gains)["nodes"][0][key]).tolist()]
    (doc["nodes"][0] if key in ("Q", "N") else doc)[key] = value
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(bad_file), problem]) == 1
    assert stderr_step(capsys) == "parse"


def with_f8_bytes(record, edit):
    """record with its decoded bytes passed through edit."""
    raw = edit(base64.b64decode(record["f8"]))
    return {**record, "f8": base64.b64encode(raw).decode("ascii")}


# node 2's K is 4 x 1, so reshape alone would read its entries at [-1, 1]
RECORD_EDITS = {
    "bad character": lambda rec: {**rec, "f8": "*" + rec["f8"]},
    "bad padding": lambda rec: {**rec, "f8": rec["f8"].rstrip("=")},
    "one entry short": lambda rec: with_f8_bytes(rec, lambda raw: raw[:-8]),
    "one byte over": lambda rec: with_f8_bytes(rec, lambda raw: raw + b"\0"),
    "fractional shape": lambda rec: {**rec, "shape": [2.5, 1]},
    "negative shape": lambda rec: {**rec, "shape": [-1, 1]},
    "boolean shape": lambda rec: {**rec, "shape": [4, True]},
    "one-entry shape": lambda rec: {**rec, "shape": [3]},
    "shape past int64": lambda rec: {**rec, "shape": [2**70, 1]},
    "no shape": lambda rec: {"f8": rec["f8"]},
    "no f8": lambda rec: {"shape": rec["shape"]},
    "transposed shape": lambda rec: {**rec, "shape": rec["shape"][::-1]},
}


@pytest.mark.parametrize("edit", list(RECORD_EDITS))
def test_malformed_record_exit1_at_parse(edit, standard_files, tmp_path, capsys):
    """A matrix record is outside input: a base64 text that does not decode,
    a byte count other than 8 * rows * cols, a shape that is not two
    integers >= 0, a shape other than the node's, or a missing key is a parse
    error naming the node and the matrix."""
    _, _, problem, gains = standard_files
    doc = json.loads(open(gains).read())
    assert doc["nodes"][1]["K"]["shape"] == [4, 1]
    doc["nodes"][1]["K"] = RECORD_EDITS[edit](doc["nodes"][1]["K"])
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(bad_file), problem]) == 1
    error = strict_loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["step"] == "parse"
    assert "node 2: K" in error["message"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_record_exit1_at_parse(bad, standard_files, tmp_path, capsys):
    """A non-finite entry in a record reads as one in nested lists does."""
    _, _, problem, gains = standard_files
    doc = json.loads(open(gains).read())
    doc["nodes"][1]["K"] = with_f8_bytes(doc["nodes"][1]["K"],
                                         lambda raw: struct.pack("<d", bad) + raw[8:])
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(bad_file), problem]) == 1
    error = strict_loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["step"] == "parse"
    assert "node 2: K has a non-finite entry" in error["message"]


def alternating(shape, big=1e308) -> list:
    """A matrix of the given shape whose entries alternate +big, -big."""
    size = int(np.prod(shape))
    return np.where(np.arange(size) % 2, -big, big).reshape(shape).tolist()


def test_output_map_q_is_checked(standard_files, tmp_path, capsys):
    """The observer runs Q, so a Q that is not T K fails cancellation."""
    _, _, problem, gains = standard_files
    doc = decimal_document(gains)
    doc["nodes"][0]["Q"] = (2.0 * np.array(doc["nodes"][0]["Q"])).tolist()
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(edited), problem]) == 4
    assert stderr_step(capsys) == "cancellation"


@pytest.mark.parametrize("key, step", [
    ("K", "cancellation"), ("Pie", "lmi"), ("M", "invariance")])
def test_non_finite_certificate_fails_closed(key, step, standard_files, tmp_path,
                                             capsys, recwarn):
    """A gain that overflows a check's matrix gives the check the value NaN,
    which fails it, on any node: not a pass at another node's value, and
    not a traceback or a numpy warning."""
    _, _, problem, gains = standard_files
    doc = decimal_document(gains)
    node = doc["nodes"][2]
    node[key] = alternating(np.shape(node[key]))
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(edited), problem, "--json"]) == 4
    out, err = capsys.readouterr()
    error = strict_loads(err.strip().splitlines()[-1])["error"]
    assert error["step"] == step and error["value"] is None
    assert strict_loads(out)[step]["pass"] is False
    assert not runtime_warnings(recwarn)


@pytest.mark.parametrize("weight", [float("inf"), float("nan")])
@pytest.mark.parametrize("command", ["synthesize", "verify", "simulate"])
def test_non_finite_edge_weight_exit1_at_parse(command, weight, standard_files,
                                               tmp_path, capsys):
    plant, graph, _, gains = standard_files
    doc = problem_dict(plant, graph)
    doc["graph"]["edges"][0]["weight"] = weight
    problem = write_problem(tmp_path, doc)
    files = {"synthesize": [problem, str(tmp_path / "g.json")],
             "verify": [gains, problem],
             "simulate": [gains, problem, "--tfinal", "0.01"]}[command]
    capsys.readouterr()
    assert main([command, *files]) == 1
    assert stderr_step(capsys) == "parse"


@pytest.mark.parametrize("case", ["boolean weight", "string weight", "listed twice"])
@pytest.mark.parametrize("command", ["synthesize", "verify", "simulate"])
def test_malformed_edge_exit1_at_parse(command, case, standard_files, tmp_path,
                                       capsys):
    """An edge weight is a JSON number, and an edge is listed once: the same
    graph written with a weight of true or "1.0", or with edge 1 first listed
    at another weight, is a parse error, not that graph."""
    plant, graph, _, gains = standard_files
    doc = problem_dict(plant, graph)
    edges = doc["graph"]["edges"]
    assert edges[0]["weight"] == 1.0
    if case == "boolean weight":
        edges[0]["weight"] = True
    elif case == "string weight":
        edges[0]["weight"] = "1.0"
    else:
        edges.insert(0, {**edges[0], "weight": 3.0})
    problem = write_problem(tmp_path, doc)
    files = {"synthesize": [problem, str(tmp_path / "g.json")],
             "verify": [gains, problem],
             "simulate": [gains, problem, "--tfinal", "0.01"]}[command]
    capsys.readouterr()
    assert main([command, *files]) == 1
    assert stderr_step(capsys) == "parse"


def test_overflowing_observability_matrix_exit2(standard_files, tmp_path, capsys,
                                                recwarn):
    """A finite A whose powers overflow fails the observability test, in
    synthesize as in verify, rather than raising from the rank test, and
    without a numpy warning."""
    plant, graph, _, gains = standard_files
    doc = problem_dict(plant, graph)
    doc["A"][0][0] = 1e160
    problem = write_problem(tmp_path, doc)
    capsys.readouterr()
    assert main(["synthesize", problem, str(tmp_path / "g.json")]) == 2
    assert stderr_step(capsys) == "observability"
    assert main(["verify", gains, problem]) == 2
    assert stderr_step(capsys) == "assumptions"
    assert not runtime_warnings(recwarn)


class TestGainsFileText:
    """save_realization writes json.dumps(realization_to_dict(...)) and a
    newline, byte for byte: compact text, each matrix a base64 record."""

    # a decimal fraction, a negative zero, the least subnormal and the
    # largest finite double
    PLANTED = (0.1, -0.0, 5e-324, 1.7976931348623157e308)

    @staticmethod
    def assert_json_dumps_text(realization, path):
        save_realization(realization, path)
        text = json.dumps(realization_to_dict(realization)) + "\n"
        assert path.read_text() == text
        return text

    def test_synthesized_realization(self, standard_files, tmp_path):
        realization = load_realization(standard_files[3])
        self.assert_json_dumps_text(realization, tmp_path / "gains.json")

    def test_fully_measured_node(self, tmp_path):
        """C = I: the node's N, L, M, H and Pie are empty."""
        plant = Plant(a=np.array([[0.0, 1.0], [-1.0, 0.0]]), c=np.eye(2),
                      node_rows=(2,))
        realization = synthesize(plant, NetworkGraph(weights=np.zeros((1, 1))))
        assert realization.nodes[0].p_ie.size == 0
        text = self.assert_json_dumps_text(realization, tmp_path / "gains.json")
        assert '"Pie": {"shape": [0, 0], "f8": ""}' in text

    def test_planted_values_round_trip(self, standard_files, tmp_path):
        """Node 1's K set to the planted column is written as the base64 of
        its little-endian bytes and reads back bit for bit."""
        realization = load_realization(standard_files[3])
        planted = np.array(self.PLANTED)[:, None]
        node = realization.nodes[0]
        assert node.k_mat.shape == planted.shape
        nodes = (dataclasses.replace(node, k_mat=planted),) + realization.nodes[1:]
        path = tmp_path / "gains.json"
        save_realization(dataclasses.replace(realization, nodes=nodes), path)
        record = json.loads(path.read_text())["nodes"][0]["K"]
        assert record["shape"] == [4, 1]
        assert base64.b64decode(record["f8"]) == struct.pack("<4d", *self.PLANTED)
        assert load_realization(path).nodes[0].k_mat.tobytes() == planted.tobytes()


class TestTraceCsvText:
    """write_trace_csv writes the header and one CRLF-ended row per record,
    each float as "%.17g", which reads back as the same double."""

    # repr spells each of these with fewer than 17 digits or with an exponent
    PLANTED = (0.1, 1.0, -0.0, 1 / 3, 1e-5, 1e16, 5e-324, 1.7976931348623157e308)

    @classmethod
    def planted_values(cls):
        return np.array(cls.PLANTED + tuple(-v for v in cls.PLANTED))

    @classmethod
    def planted_trace(cls, samples, n, z_widths):
        """A trace whose every array cycles through PLANTED and its negatives."""
        shifts = itertools.count()

        def planted(cols):
            return np.resize(np.roll(cls.planted_values(), next(shifts)), (samples, cols))

        nodes = len(z_widths)
        return SimulationTrace(
            times=planted(1)[:, 0], x=planted(n), z=[planted(w) for w in z_widths],
            xhat=[planted(n) for _ in z_widths], invariance_residuals=planted(nodes),
            error_norms=planted(nodes))

    def test_planted_values_round_trip(self, tmp_path):
        trace = self.planted_trace(6, 3, (2, 0))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        header, rows = read_trace_csv(path)
        table = trace_table(trace, header)
        assert set(table.view(np.int64).ravel()) == set(
            self.planted_values().view(np.int64))
        assert_same_bits(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2), table)
        fields = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert_same_bits(fields, table)
        spelled = set(",".join(rows).split(","))
        assert {"0.10000000000000001", "1", "-0", "0.33333333333333331",
                "1.0000000000000001e-05", "10000000000000000",
                "4.9406564584124654e-324", "1.7976931348623157e+308"} <= spelled

    @pytest.mark.parametrize("records", ["1", "block", "block+1"])
    def test_fully_measured_node(self, records, tmp_path, monkeypatch):
        """A node with p_i = n has no z columns; 1 record, one block and one
        block plus one record give one row each, all as wide as the header,
        in one, one and two formatting passes."""
        plant, graph = mixed_structure_instance()
        realization = synthesize(plant, graph)
        width = 1 + plant.n + sum(g.n_gain.shape[0] + plant.n + 2 for g in realization.nodes)
        block = _block_rows(width)
        passes = 2 if records == "block+1" else 1
        records = {"1": 1, "block": block, "block+1": block + 1}[records]
        cfg = SimulationConfig(t_final=block * 1e-3, dt=1e-3, x0=np.ones(plant.n))
        full = simulate(realization, plant, graph, cfg)
        assert full.times.size == block + 1 and full.z[1].shape[1] == 0
        trace = SimulationTrace(
            times=full.times[:records], x=full.x[:records],
            z=[z[:records] for z in full.z], xhat=[xh[:records] for xh in full.xhat],
            invariance_residuals=full.invariance_residuals[:records],
            error_norms=full.error_norms[:records])
        blocks = []
        monkeypatch.setattr("distobs.problem._g17_rows",
                            lambda b: blocks.append(b.shape) or _g17_rows(b))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        header, rows = read_trace_csv(path)
        assert "z_2_1" not in header and "xhat_2_1" in header and len(header) == width
        assert len(blocks) == passes and blocks[0][1] == width
        assert len(rows) == records
        assert all(len(row.split(",")) == len(header) for row in rows)
        assert_same_bits(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2),
                         trace_table(trace, header))


class TestPercent17gFormatter:
    """The trace writer's numpy formatter, against "%.17g" % value itself."""

    @staticmethod
    def corpus() -> np.ndarray:
        """Over 1e6 seeded values: random 64-bit patterns (every exponent,
        subnormals, NaN payloads), and, each with both signs, zeros, NaN and
        inf, the powers of ten from 1e-320 to 1e308 and their neighbours (the
        %g switch points 1e-5/1e-4 and 1e16/1e17 among them, and the doubles
        just below a power whose 17 digits carry to it), 2- and 3-digit
        exponents around 1e+-99 and 1e+-100, values with trailing zero
        digits (small integers, k/1000, k/8, integers times a power of 2),
        and normal deviates scaled by 1e-30 to 1e30, as a trace holds."""
        rng = np.random.default_rng(20261020)
        pow10 = np.array([float(f"1e{k}") for k in range(-320, 309)])
        values = np.concatenate([
            np.array([0.0, np.nan, np.inf, 9.9999999999999999e16, 0.99999999999999999e-4]),
            pow10, np.nextafter(pow10, 0), np.nextafter(pow10, np.inf),
            rng.uniform(1, 10, 20_000) * 10.0 ** rng.choice([-100, -99, 99, 100], 20_000),
            np.arange(20_000.0), np.arange(20_000) / 1000, np.arange(20_000) / 8,
            rng.integers(1, 10**6, 20_000) * 2.0 ** rng.integers(-60, 60, 20_000),
            rng.standard_normal(350_000) * 10.0 ** rng.integers(-30, 30, 350_000),
        ])
        patterns = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        return np.concatenate([patterns, values, -values])

    @staticmethod
    def ties(rng) -> np.ndarray:
        """Doubles whose exact decimal has 18 significant digits, the last
        a 5: m / 2**j, m odd, with 18 - j digits before the point."""
        found = []
        for j in range(2, 18):
            low = 10.0 ** (17 - j)
            high = min(10.0 ** (18 - j), 2.0 ** (53 - j))
            m = rng.integers(low * 2**j, high * 2**j, 20) | 1
            found.append(m / 2.0**j)
        return np.concatenate(found + [[2.0**50 + 0.25, 2.0**50 + 0.75]])

    @staticmethod
    def assert_rows_match(values: np.ndarray, cols: int = 7) -> None:
        """_g17_rows gives "%.17g" % value for every value, in blocks of the
        writer's size."""
        values = np.concatenate([values, np.ones(-values.size % cols)])
        rows = _block_rows(cols)
        for start in range(0, values.size, rows * cols):
            block = values[start : start + rows * cols].reshape(-1, cols)
            row = ",".join(["%.17g"] * cols) + "\r\n"
            want = ((row * len(block)) % tuple(block.ravel().tolist())).encode()
            got = _g17_rows(block)
            if got != want:
                wrong = [(v, a, b) for v, a, b in zip(
                    block.ravel().tolist(), re.split(b",|\r\n", got), re.split(b",|\r\n", want))
                    if a != b]
                pytest.fail(f"{wrong[0][0]!r} written {wrong[0][1]!r}, not {wrong[0][2]!r}")

    def test_rows_are_percent_17g_byte_for_byte(self):
        values = self.corpus()
        assert values.size >= 1_000_000
        self.assert_rows_match(values)

    def test_decided_digits_are_percent_16e(self):
        """Where _g17_digits decides a value, D and X are the mantissa digits
        and exponent of "%.16e" % |x|.  It decides no value outside its
        range, and inside it leaves only exact ties, which the next test
        plants, and exact powers of ten, whose y is 1e16 itself."""
        values = self.corpus()[::4]
        d, xi, decided = _g17_digits(values)
        ax = np.abs(values)
        inside = (ax >= _G17_RANGE[0]) & (ax < _G17_RANGE[1])
        assert not decided[~inside].any()
        spelled = [f"{d}e{x + _X_MIN}" for d, x in
                   zip(d[decided].tolist(), xi[decided].tolist())]
        want = (("%.16e" % v).split("e") for v in ax[decided].tolist())
        assert [f"{m.replace('.', '')}e{int(x)}" for m, x in want] == spelled
        for v in ax[inside & ~decided].tolist():
            digits = "".join(map(str, Decimal(v).as_tuple().digits)).rstrip("0")
            assert digits == "1" or len(digits) == 18 and digits[-1] == "5", v

    def test_carry_to_the_next_power_is_decided(self):
        """1e-14 is the double just below 10**-14 whose 17 digits round up to
        it: D carries to 1e17, which is written as 1e16 at X = -14."""
        assert Fraction(1e-14) < Fraction(1, 10**14)
        d, xi, decided = _g17_digits(np.array([1e-14, -1e-14]))
        assert decided.all() and (d == 10**16).all() and (xi + _X_MIN == -14).all()
        assert _g17_rows(np.array([[1e-14, -1e-14]])) == b"1e-14,-1e-14\r\n"

    def test_ties_take_the_fallback(self):
        """An exact tie between two 17-digit decimals is not decided, and is
        written as "%.17g" writes it, rounded to even."""
        ties = self.ties(np.random.default_rng(7))
        assert all(len(d.as_tuple().digits) == 18 and d.as_tuple().digits[-1] == 5
                   for d in map(Decimal, ties.tolist()))
        values = np.concatenate([ties, -ties])
        assert not _g17_digits(values)[2].any()
        self.assert_rows_match(values)
        assert _g17_rows(np.array([[2.0**50 + 0.25, 2.0**50 + 0.75]])) == (
            b"1125899906842624.2,1125899906842624.8\r\n")


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_gains_for_another_state_dimension_exit1(command, standard_files, tmp_path,
                                                 capsys):
    """Same node count, but the gains were designed for n = 4, not n = 5."""
    plant, graph, _, gains = standard_files
    other = Plant(a=-np.eye(5), c=np.ones((3, 5)), node_rows=plant.node_rows)
    other_problem = write_problem(tmp_path, problem_dict(other, graph))
    capsys.readouterr()
    assert main([command, gains, other_problem]) == 1
    assert stderr_step(capsys) == "dimensions"


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_node_with_extra_state_rows_exit1(command, standard_files, tmp_path, capsys):
    """Node 1's P, N, M, L and K padded by a zero row (and P, N, M by a zero
    column): its p_i, v_i and Q still match the problem, but P has n + 1 rows."""
    _, _, problem, gains = standard_files
    doc = decimal_document(gains)
    node = doc["nodes"][0]
    for key in ("P", "N", "M"):
        node[key] = [row + [0.0] for row in node[key]]
    for key in ("P", "N", "M", "L", "K"):
        node[key].append([0.0] * len(node[key][0]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(bad), problem]) == 1
    assert stderr_step(capsys) == "dimensions"


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_r_of_wrong_length_exit1(command, standard_files, tmp_path, capsys):
    _, _, problem, gains = standard_files
    doc = json.loads(open(gains).read())
    doc["r"] = doc["r"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(bad), problem]) == 1
    assert stderr_step(capsys) == "dimensions"


def generator_instance(seed, index, n, n_nodes):
    """Instance `index` of the benchmark's run seeded `seed`, rebuilt from the
    conftest helpers: A ~ N(0,1)/sqrt(n), C ~ N(0,1) with one output row per
    node, a Hamiltonian cycle plus N random edges, without a conditioning
    filter."""
    rng = np.random.default_rng([seed, index, n, n_nodes])
    while True:
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        c = rng.standard_normal((n_nodes, n))
        if numerical_rank(observability_matrix(c, a)[None])[0] == n:
            break
    plant = Plant(a=a, c=c, node_rows=(1,) * n_nodes)
    return plant, random_strongly_connected_graph(rng, n_nodes)


def cancellation_failing_instance():
    """n = 8, N = 10: its synthesized gains miss the cancellation bound."""
    return generator_instance(1, 6, 8, 10)


def test_perturbed_weight_solve_exit2_at_gains(tmp_path, capsys):
    """Node 6 of this (8, 10) instance gets an injection so large that the
    Lyapunov equation of its weight P_ie can only be solved perturbed:
    synthesize fails closed at gains, naming the node, and prints only the
    error JSON."""
    plant, graph = generator_instance(1, 3, 8, 10)
    problem = write_problem(tmp_path, problem_dict(plant, graph))
    capsys.readouterr()
    assert main(["synthesize", problem, str(tmp_path / "gains.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    error = json.loads(line)["error"]
    assert error["step"] == "gains"
    assert error["message"].startswith("node 6: Sylvester equation is singular")


class TestSynthesizeAndVerifyAgree:
    @pytest.mark.parametrize("instance, failing", [
        (standard_instance, set()),
        (cancellation_failing_instance, {"cancellation"}),
    ])
    def test_same_checks(self, instance, failing, tmp_path, capsys):
        plant, graph = instance()
        cert = synthesize(plant, graph, alpha=0.5).certificate
        problem = write_problem(tmp_path, problem_dict(plant, graph, alpha=0.5))
        gains = str(tmp_path / "gains.json")
        assert main(["synthesize", problem, gains]) == 0
        capsys.readouterr()
        code = main(["verify", gains, problem, "--json"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == (4 if failing else 0)
        if failing:
            error = json.loads(captured.err.strip().splitlines()[-1])["error"]
            step = error["step"]
            assert (error["value"], error["bound"]) == (
                report[step]["value"], report[step]["bound"])
        assert list(report) == list(cert)
        assert {n for n, c in report.items() if not c["pass"]} == failing
        for name, check in cert.items():
            for key in ("pass", "value", "bound"):
                assert report[name][key] == check[key], (name, key)
