import dataclasses
import json

import numpy as np
import pytest

from distobs import (
    NetworkGraph,
    Plant,
    full_rank_factorize,
    laplacian,
    load_realization,
    observability_decomposition,
    observability_matrix,
    restricted_generator,
    save_realization,
    suggested_timestep,
    synthesize,
)
from distobs.cli import main
from distobs.linalg import numerical_rank
from distobs.problem import realization_to_dict
from distobs.synthesis import assemble_gains

from conftest import random_strongly_connected_graph, standard_instance


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
    frf = full_rank_factorize(plant.c_block(node))
    dec = observability_decomposition(plant.a, frf.f_factor)
    g = realization.nodes[node]
    bad = assemble_gains(dec, frf, np.zeros_like(g.h_inj), np.eye(g.p_ie.shape[0]))
    nodes = list(realization.nodes)
    nodes[node] = bad
    return dataclasses.replace(realization, nodes=tuple(nodes))


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
        assert report["rate_bound"] < -0.5

    def test_fully_measured_node_prints_strict_json(self, tmp_path, capsys):
        """C = I on one node: the empty observer's rate bound is -inf, which
        the synthesize and verify reports print as null."""
        plant = Plant(a=np.array([[0.0, 1.0], [-1.0, 0.0]]), c=np.eye(2),
                      node_rows=(2,))
        graph = NetworkGraph(weights=np.zeros((1, 1)))
        problem = write_problem(tmp_path, problem_dict(plant, graph))
        gains = str(tmp_path / "gains.json")
        assert main(["synthesize", problem, gains, "--json"]) == 0
        report = strict_loads(capsys.readouterr().out)
        assert report["total_order"] == 0 and report["rate_bound"] is None
        assert main(["verify", gains, problem, "--json"]) == 0
        checks = strict_loads(capsys.readouterr().out)
        assert checks["rate"]["value"] is None and checks["rate"]["pass"]

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
        doc = json.loads(open(gains).read())
        assert all("Tis" not in nd for nd in doc["nodes"])
        for nd in doc["nodes"]:
            nd["Tis"] = nd["P"]
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(doc))
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
        # alpha is a JSON number, not the number a string spells
        ("alpha", "0.5", 1)])
    def test_counts_and_indices_are_whole_numbers(self, key, value, code, standard_files,
                                                  tmp_path, capsys):
        """A node count, output count or edge end that is not a whole number,
        and a boolean alpha, are parse errors rather than truncated to an
        integer, read as 1 or (for an infinite count) an OverflowError."""
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

    def test_default_step_runs_a_stiff_design(self, tmp_path, capsys):
        """An (8, 10) design whose restricted generator R has a large norm: a
        step bounded by ||R||_2, as an explicit scheme needs, would take over
        1e6 steps to the default horizon, and the run ran out of memory."""
        plant, graph = generator_instance(1, 5, 8, 10)
        problem = write_problem(tmp_path, problem_dict(plant, graph, alpha=0.5))
        gains = str(tmp_path / "gains.json")
        assert main(["synthesize", problem, gains]) == 0
        realization, lap = load_realization(gains), laplacian(graph)
        t_final = 10.0 / 0.5  # simulate's default horizon at this alpha
        r_norm = np.linalg.norm(restricted_generator(realization, lap), 2)
        assert t_final * r_norm / 0.1 > 1e6
        assert t_final / suggested_timestep(realization, plant, lap) <= 1e6
        capsys.readouterr()
        assert main(["simulate", gains, problem]) == 0

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
    @pytest.mark.parametrize("value", ["1,a,2,3", "1,nan,2,3"])
    def test_non_numeric_initial_state_exit1(self, flag, value, standard_files,
                                             capsys):
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
        for name in ("cancellation", "lmi", "rate", "invariance", "lyapunov"):
            assert report[name]["pass"], name

    def test_perturbed_l_fails_cancellation(self, standard_files, tmp_path,
                                            capsys):
        _, _, problem, gains = standard_files
        doc = json.loads(open(gains).read())
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

    def test_zeroed_injection_fails_rate(self, tmp_path, capsys):
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
        assert not report["rate"]["pass"]

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
        doc = json.loads(open(gains).read())
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
        assert report["rate"]["value"] is None
        error = strict_loads(captured.err.strip().splitlines()[-1])["error"]
        assert error["step"] == "lmi" and error["value"] is None

    def test_foreign_observer_subspace_fails_invariance(self, standard_files,
                                                        tmp_path, capsys):
        """A P off the problem's im T_is breaks the invariance certificate."""
        _, _, problem, gains = standard_files
        doc = json.loads(open(gains).read())
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
        """The gains file's alpha does not move the rate bound: verify judges the
        design at the problem's alpha, which it must meet."""
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
        assert reports[0]["rate"]["bound"] == reports[1]["rate"]["bound"] == -0.5

        demanding = write_problem(tmp_path, problem_dict(plant, graph, alpha=5.0),
                                  "alpha5.json")
        for path in (gains, str(edited)):
            capsys.readouterr()
            assert main(["verify", path, demanding, "--json"]) == 4
            report = json.loads(capsys.readouterr().out)
            assert report["rate"]["bound"] == -5.0
            assert not report["rate"]["pass"]

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
    doc = json.loads(open(gains).read())
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
        value = [np.ravel(doc["nodes"][0][key]).tolist()]
    (doc["nodes"][0] if key in ("Q", "N") else doc)[key] = value
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(bad_file), problem]) == 1
    assert stderr_step(capsys) == "parse"


def alternating(shape, big=1e308) -> list:
    """A matrix of the given shape whose entries alternate +big, -big."""
    size = int(np.prod(shape))
    return np.where(np.arange(size) % 2, -big, big).reshape(shape).tolist()


def test_output_map_q_is_checked(standard_files, tmp_path, capsys):
    """The observer runs Q, so a Q that is not T K fails cancellation."""
    _, _, problem, gains = standard_files
    doc = json.loads(open(gains).read())
    doc["nodes"][0]["Q"] = (2.0 * np.array(doc["nodes"][0]["Q"])).tolist()
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(edited), problem]) == 4
    assert stderr_step(capsys) == "cancellation"


@pytest.mark.parametrize("key, step", [
    ("K", "cancellation"), ("Pie", "lmi"), ("H", "lmi"), ("M", "rate")])
def test_non_finite_certificate_fails_closed(key, step, standard_files, tmp_path,
                                             capsys, recwarn):
    """A gain that overflows a check's matrix gives the check the value NaN,
    which fails it, on any node: not a pass at another node's value, and
    not a traceback or a numpy warning."""
    _, _, problem, gains = standard_files
    doc = json.loads(open(gains).read())
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
    """save_realization writes json.dumps(realization_to_dict(...), indent=1)
    and a newline, byte for byte."""

    @staticmethod
    def assert_json_dumps_text(realization, path):
        save_realization(realization, path)
        text = json.dumps(realization_to_dict(realization), indent=1) + "\n"
        assert path.read_text() == text
        return text

    def test_synthesized_realization(self, standard_files, tmp_path):
        realization = load_realization(standard_files[3])
        self.assert_json_dumps_text(realization, tmp_path / "gains.json")

    def test_fully_measured_node(self, tmp_path):
        """C = I: the node's N, L, M, H and Pie are empty, and the rate bound
        is -inf."""
        plant = Plant(a=np.array([[0.0, 1.0], [-1.0, 0.0]]), c=np.eye(2),
                      node_rows=(2,))
        realization = synthesize(plant, NetworkGraph(weights=np.zeros((1, 1))))
        assert realization.nodes[0].p_ie.size == 0
        text = self.assert_json_dumps_text(realization, tmp_path / "gains.json")
        assert '"Pie": []' in text and "-Infinity" in text

    def test_non_finite_certificate_values(self, standard_files, tmp_path):
        realization = load_realization(standard_files[3])
        certificate = {
            "lmi": {"value": float("inf"), "bound": 0.0, "pass": False,
                    "nodes": [float("-inf"), float("nan"), -1.5]},
            "rate": {"value": float("nan"), "bound": -0.5, "pass": False},
            "note": "\u00e9\"", "empty": {}, "mixed": [1, True, None, [[]]],
        }
        realization = dataclasses.replace(realization, certificate=certificate)
        text = self.assert_json_dumps_text(realization, tmp_path / "gains.json")
        assert all(word in text for word in ("Infinity", "-Infinity", "NaN"))


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
    doc = json.loads(open(gains).read())
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
        if numerical_rank(observability_matrix(c, a)) == n:
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
