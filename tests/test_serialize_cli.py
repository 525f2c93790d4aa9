import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gltnet
from gltnet import GltModel, PseudoTrace, Trace, build_graph, make_beta, make_uniform
from gltnet.cli import main
from gltnet.serialize import (
    SchemaError,
    dump_json,
    graph_from_dict,
    graph_to_dict,
    load_json,
    model_from_dict,
    model_to_dict,
    read_pseudo_jsonl,
    read_traces_jsonl,
    trace_from_dict,
    trace_to_dict,
    write_pseudo_jsonl,
    write_traces_jsonl,
)

from conftest import count_calls, random_simple_digraph


def test_graph_roundtrip_and_canonicalization():
    g = build_graph(3, [(0, 1), (1, 0), (2, 0), (2, 1), (0, 2), (1, 2)])
    doc = graph_to_dict(g)
    assert graph_from_dict(doc) == g
    # unsorted edges on load are canonicalized
    shuffled = {"n": 3, "edges": list(reversed(doc["edges"]))}
    assert graph_from_dict(shuffled) == g


def test_model_roundtrip(tmp_path):
    g = build_graph(3, [(0, 2), (1, 2)])
    model = GltModel(g, np.array([0.25, 0.5]), [make_uniform(), make_beta(2, 1), make_uniform()])
    doc = model_to_dict(model)
    back = model_from_dict(doc)
    assert back.graph == g
    assert np.array_equal(back.weights, model.weights)
    assert back.thresholds == model.thresholds
    # serialize(parse(x)) == x
    assert model_to_dict(back) == doc


def test_traces_jsonl_roundtrip(tmp_path):
    path = str(tmp_path / "traces.jsonl")
    traces = [Trace([{0, 1}, {2}]), Trace([{1}])]
    write_traces_jsonl(traces, path)
    assert read_traces_jsonl(path) == traces


def test_pseudo_jsonl_roundtrip(tmp_path):
    path = str(tmp_path / "pseudo.jsonl")
    pseudo = [PseudoTrace(2, frozenset({0, 1}), 1), PseudoTrace(2, frozenset({0}), 0)]
    write_pseudo_jsonl(pseudo, path)
    assert read_pseudo_jsonl(path) == pseudo


def test_jsonl_error_carries_line_number(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write('{"steps": [[0]]}\nnot json\n')
    with pytest.raises(SchemaError) as err:
        read_traces_jsonl(path)
    assert ":2" in str(err.value)


def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("bad", ["1.5", "true", '"1"'])
def test_jsonl_readers_reject_non_integer_node_ids(tmp_path, bad):
    traces = _write_lines(str(tmp_path / "t.jsonl"), ['{"steps": [[0]]}', '{"steps": [[%s]]}' % bad])
    with pytest.raises(SchemaError, match=r"t\.jsonl:2: node id"):
        read_traces_jsonl(traces)
    for line in (
        '{"node": %s, "active_parents": [0], "y": 1}' % bad,
        '{"node": 2, "active_parents": [%s], "y": 1}' % bad,
    ):
        pseudo = _write_lines(str(tmp_path / "p.jsonl"), [line])
        with pytest.raises(SchemaError, match=r"p\.jsonl:1: node id"):
            read_pseudo_jsonl(pseudo)


def test_jsonl_readers_reject_malformed_records(tmp_path):
    bad = _write_lines(str(tmp_path / "r.jsonl"), ["5"])
    for reader in (read_traces_jsonl, read_pseudo_jsonl):
        with pytest.raises(SchemaError, match=r"r\.jsonl:1: expected a JSON object"):
            reader(bad)
    pseudo = _write_lines(str(tmp_path / "p.jsonl"), ['{"node": 2, "active_parents": [0]}'])
    with pytest.raises(SchemaError) as err:
        read_pseudo_jsonl(pseudo)
    assert str(err.value) == f"{pseudo}:1: missing key 'y'"  # one position, not two
    for y in ("1.5", "true"):
        pseudo = _write_lines(str(tmp_path / "p.jsonl"), ['{"node": 2, "active_parents": [0], "y": %s}' % y])
        with pytest.raises(SchemaError, match=r"p\.jsonl:1: outcome"):
            read_pseudo_jsonl(pseudo)


def test_jsonl_readers_check_nodes_against_the_graph(tmp_path):
    g = build_graph(3, [(0, 2), (1, 2)])
    traces = _write_lines(str(tmp_path / "t.jsonl"), ['{"steps": [[0], [2]]}', '{"steps": [[99]]}'])
    with pytest.raises(SchemaError, match=r"t\.jsonl:2: node 99 out of range for n=3"):
        read_traces_jsonl(traces, g)
    infeasible = _write_lines(str(tmp_path / "u.jsonl"), ['{"steps": [[2], [0]]}'])
    with pytest.raises(SchemaError, match=r"u\.jsonl:1: node 0 activates"):
        read_traces_jsonl(infeasible, g)
    assert len(read_traces_jsonl(infeasible)) == 1  # without a graph: syntax only
    for line, message in (
        ('{"node": 99, "active_parents": [0], "y": 1}', "node 99 out of range"),
        ('{"node": 2, "active_parents": [0, 1], "y": 1}', None),
        ('{"node": 1, "active_parents": [0], "y": 0}', r"\[0\] are not parents of node 1"),
    ):
        pseudo = _write_lines(str(tmp_path / "p.jsonl"), [line])
        if message is None:
            assert len(read_pseudo_jsonl(pseudo, g)) == 1
        else:
            with pytest.raises(SchemaError, match=r"p\.jsonl:1: " + message):
                read_pseudo_jsonl(pseudo, g)


def test_cli_grid_fit_reports_bad_trace_position(tmp_path, capsys):
    model = str(tmp_path / "model.json")
    assert _run(["generate", "--n", "6", "--k", "2", "--family", "beta:1,2", "--seed", "5", "--out", model]) == 0
    traces = _write_lines(str(tmp_path / "t.jsonl"), ['{"steps": [[0]]}', '{"steps": [[6]]}'])
    out = str(tmp_path / "fit.json")
    argv = ["fit", "--model", model, "--traces", traces, "--family", "beta:1,2", "--out", out]
    for extra in ([], ["--grid", "1,2"]):
        assert _run(argv + extra) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["type"] == "SchemaError"
        assert "t.jsonl:2: node 6 out of range" in error["message"]


def test_cli_grid_rejects_malformed_entries(tmp_path, capsys):
    model = str(tmp_path / "model.json")
    assert _run(["generate", "--n", "6", "--k", "2", "--family", "beta:1,2", "--seed", "5", "--out", model]) == 0
    traces = _write_lines(str(tmp_path / "t.jsonl"), ['{"steps": [[0]]}'])
    argv = ["fit", "--model", model, "--traces", traces, "--family", "beta:1,2",
            "--out", str(tmp_path / "fit.json"), "--grid"]
    for grid, token in [("1:2:3", "'1:2:3'"), ("2,a", "'a'"), ("x:2", "'x:2'")]:
        assert _run(argv + [grid]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["type"] == "SchemaError"
        assert f"bad grid entry {token}" in error["message"]


@st.composite
def _traces(draw):
    """Traces without a graph: disjoint nonempty steps of node ids."""
    nodes = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, len(nodes) - 1))) if len(nodes) > 1 else [])
    bounds = [0, *cuts, len(nodes)]
    return Trace([nodes[a:b] for a, b in zip(bounds, bounds[1:])])


_SPECS = st.one_of(
    st.just(make_uniform()),
    st.just(gltnet.make_exponential_unit()),
    st.builds(make_beta, st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
)


@st.composite
def _models(draw):
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = random_simple_digraph(n, draw(st.floats(0.0, 0.8)), rng)
    specs = [draw(_SPECS) for _ in range(n)]
    weights = np.zeros(graph.edge_count())
    for v in graph.child_nodes():
        m = graph.in_degree(v)
        high = 1e3 if specs[v].family == "exponential" else 0.999 / m
        draws = st.lists(st.floats(0.0, high), min_size=m, max_size=m)
        weights[graph.child_slice(v)] = draw(draws)
    return GltModel(graph, weights, specs)


@settings(max_examples=200, deadline=None)
@given(_traces())
def test_trace_dict_round_trip(trace):
    assert trace_from_dict(json.loads(json.dumps(trace_to_dict(trace)))) == trace


@settings(max_examples=100, deadline=None)
@given(_models())
def test_model_json_round_trip_keeps_weight_bytes_and_specs(model):
    with tempfile.TemporaryDirectory() as base:
        path = os.path.join(base, "model.json")
        dump_json(model_to_dict(model), path)
        back = model_from_dict(load_json(path))
    assert back.graph == model.graph
    assert back.weights.tobytes() == model.weights.tobytes()
    assert back.thresholds == model.thresholds


@settings(max_examples=100, deadline=None)
@given(st.lists(_traces(), max_size=6))
def test_traces_jsonl_round_trip(traces):
    with tempfile.TemporaryDirectory() as base:
        path = os.path.join(base, "traces.jsonl")
        write_traces_jsonl(traces, path)
        assert read_traces_jsonl(path) == traces


_PSEUDO = st.builds(
    PseudoTrace,
    node=st.integers(0, 50),
    active_parents=st.frozensets(st.integers(0, 50), min_size=1, max_size=6),
    y=st.sampled_from([0, 1]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_PSEUDO, max_size=6))
def test_pseudo_jsonl_round_trip(pseudo_traces):
    with tempfile.TemporaryDirectory() as base:
        path = os.path.join(base, "pseudo.jsonl")
        write_pseudo_jsonl(pseudo_traces, path)
        assert read_pseudo_jsonl(path) == pseudo_traces


def test_schema_error_for_missing_keys():
    with pytest.raises(SchemaError):
        graph_from_dict({"edges": []})
    with pytest.raises(SchemaError):
        model_from_dict({"n": 2, "edges": [[0, 1]]})


def _run(argv):
    return main(argv)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def pipeline(tmp_path):
    base = str(tmp_path)
    model = os.path.join(base, "model.json")
    traces = os.path.join(base, "traces.jsonl")
    assert _run(["generate", "--n", "15", "--k", "4", "--p", "0.2", "--seed", "3", "--out", model]) == 0
    assert _run(["simulate", "--model", model, "--count", "40", "--seed", "4", "--out", traces]) == 0
    return base, model, traces


def test_cli_simulate_line_count_and_feasibility(pipeline):
    base, model_path, traces_path = pipeline
    traces = read_traces_jsonl(traces_path)
    assert len(traces) == 40
    model = model_from_dict(json.load(open(model_path)))
    from gltnet import validate_trace

    for t in traces:
        validate_trace(model.graph, t)


def test_cli_fit_then_simulate_roundtrip(pipeline):
    base, model_path, traces_path = pipeline
    fit = os.path.join(base, "fit.json")
    fitted_model = os.path.join(base, "fitted.json")
    assert _run(["fit", "--model", model_path, "--traces", traces_path, "--out", fit, "--model-out", fitted_model]) == 0
    # the fitted model parses and simulates; schema round-trips
    doc = json.load(open(fitted_model))
    assert model_to_dict(model_from_dict(doc)) == doc
    out2 = os.path.join(base, "traces2.jsonl")
    assert _run(["simulate", "--model", fitted_model, "--count", "5", "--seed", "9", "--out", out2]) == 0
    assert len(read_traces_jsonl(out2)) == 5


def test_cli_determinism_across_runs_and_threads(pipeline):
    base, model_path, traces_path = pipeline
    outputs = []
    for threads, tag in (("1", "a"), ("4", "b")):
        fit = os.path.join(base, f"fit_{tag}.json")
        assert _run([
            "fit", "--model", model_path, "--traces", traces_path,
            "--threads", threads, "--out", fit,
        ]) == 0
        outputs.append(_read(fit))
    assert outputs[0] == outputs[1]
    # rerunning any command reproduces byte-identical output
    again = os.path.join(base, "model_again.json")
    assert _run(["generate", "--n", "15", "--k", "4", "--p", "0.2", "--seed", "3", "--out", again]) == 0
    assert _read(os.path.join(base, "model.json")) == _read(again)


def test_cli_infer_grid_and_pseudo(tmp_path):
    base = str(tmp_path)
    model = os.path.join(base, "model.json")
    traces = os.path.join(base, "traces.jsonl")
    assert _run(["generate", "--n", "12", "--k", "4", "--family", "beta:1,2", "--seed", "5", "--out", model]) == 0
    assert _run(["simulate", "--model", model, "--count", "120", "--seed", "6", "--out", traces]) == 0
    infer = os.path.join(base, "infer.json")
    assert _run(["infer", "--model", model, "--traces", traces, "--family", "beta:1,2", "--out", infer]) == 0
    doc = json.load(open(infer))
    some = next(iter(doc["nodes"].values()))
    assert "converged" in some and "valid" in some
    # grid fit over beta parameters
    gridfit = os.path.join(base, "gridfit.json")
    assert _run(["fit", "--model", model, "--traces", traces, "--family", "beta:1,2", "--grid", "1,2,3", "--out", gridfit]) == 0
    gdoc = json.load(open(gridfit))
    assert all("phi" in entry for entry in gdoc["nodes"].values())
    # pseudo-trace path
    pseudo = os.path.join(base, "pseudo.jsonl")
    with open(pseudo, "w") as fh:
        fh.write('{"node": 1, "active_parents": [%d], "y": 1}\n' % next(iter(model_from_dict(json.load(open(model))).graph.parents(1))))
    pfit = os.path.join(base, "pfit.json")
    assert _run(["fit", "--model", model, "--pseudo", pseudo, "--out", pfit]) == 0
    assert "1" in json.load(open(pfit))["nodes"]


def test_cli_infer_builds_rows_and_checks_traces_once(pipeline, monkeypatch):
    # the fits and the covariances share one row build per node, from one
    # activation-round table, and each trace is checked once, by the reader
    base, model_path, traces_path = pipeline
    tables = count_calls(monkeypatch, gltnet.model._activation_rounds)
    builds = count_calls(monkeypatch, gltnet.likelihood._node_rows)
    checks = count_calls(monkeypatch, gltnet.model.validate_trace)
    out = os.path.join(base, "infer.json")
    assert _run(["infer", "--model", model_path, "--traces", traces_path, "--out", out]) == 0
    graph = model_from_dict(json.load(open(model_path))).graph
    assert len(tables) == 1
    assert [call["v"] for call in builds] == graph.child_nodes()
    assert len(checks) == len(read_traces_jsonl(traces_path)) == 40


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--grid", "0.5:2"], "(0.5, 2.0): not fit-safe (density not log-concave)"),
        (["--grid", "1,2", "--gamma", "1e-9"], "(1.0, 2.0): infeasible truncation"),
    ],
    ids=["not-fit-safe", "infeasible"],
)
def test_cli_grid_fit_exits_1_when_every_grid_fit_of_a_node_fails(tmp_path, capsys, extra, message):
    base = str(tmp_path)
    model = os.path.join(base, "model.json")
    traces = os.path.join(base, "traces.jsonl")
    assert _run(["generate", "--n", "8", "--k", "2", "--family", "beta:1,2", "--seed", "5", "--out", model]) == 0
    assert _run(["simulate", "--model", model, "--count", "40", "--seed", "6", "--out", traces]) == 0
    capsys.readouterr()
    out = os.path.join(base, "fit.json")
    argv = ["fit", "--model", model, "--traces", traces, "--family", "beta:1,2", "--out", out]
    assert _run(argv + extra) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "EstimationError"
    assert error["message"].startswith("all grid fits failed: ")
    assert message in error["message"]
    assert not os.path.exists(out)


def test_cli_pseudo_fit_records_node_failures(tmp_path):
    # as with --traces, a node that cannot be fitted gets an error entry and
    # the command still succeeds
    base = str(tmp_path)
    model = os.path.join(base, "model.json")
    assert _run(["generate", "--n", "12", "--k", "4", "--seed", "5", "--out", model]) == 0
    graph = model_from_dict(json.load(open(model))).graph
    nodes = graph.child_nodes()[:2]
    pseudo = os.path.join(base, "pseudo.jsonl")
    write_pseudo_jsonl(
        [PseudoTrace(v, frozenset({graph.parent_list(v)[0]}), y) for v in nodes for y in (0, 1)],
        pseudo,
    )
    out = os.path.join(base, "pfit.json")
    assert _run(["fit", "--model", model, "--pseudo", pseudo, "--gamma", "1e-9", "--out", out]) == 0
    doc = json.load(open(out))["nodes"]
    assert sorted(doc) == sorted(str(v) for v in nodes)
    for entry in doc.values():
        assert "infeasible truncation" in entry["error"]
        assert "weights" not in entry


def test_cli_im_and_spread_exact_consistency(tmp_path):
    base = str(tmp_path)
    model_path = os.path.join(base, "model.json")
    g = build_graph(5, [(0, 3), (1, 3), (1, 4), (2, 4)])
    model = GltModel(g, np.array([0.4, 0.3, 0.5, 0.2]), make_uniform())
    from gltnet.serialize import dump_json

    dump_json(model_to_dict(model), model_path)
    im_out = os.path.join(base, "im.json")
    assert _run(["im", "--model", model_path, "--k", "2", "--evaluator", "bipartite", "--seed", "1", "--out", im_out]) == 0
    doc = json.load(open(im_out))
    assert len(doc["seeds"]) == 2
    spread_out = os.path.join(base, "spread.json")
    assert _run([
        "spread", "--model", model_path, "--seed-set", ",".join(map(str, doc["seeds"])),
        "--evaluator", "exact", "--out", spread_out,
    ]) == 0
    sdoc = json.load(open(spread_out))
    assert sdoc["mean"] == pytest.approx(doc["spread"], abs=1e-9)


def test_cli_spread_exact_node_cap(tmp_path, capsys):
    # the star 0 -> 1, 2, 3 reaches 8 (active, frontier) states from {0}
    model_path = str(tmp_path / "model.json")
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    dump_json(model_to_dict(GltModel(g, np.full(3, 0.5), make_uniform())), model_path)
    argv = ["spread", "--model", model_path, "--seed-set", "0", "--evaluator", "exact",
            "--out", str(tmp_path / "spread.json")]
    assert _run(argv + ["--node-cap", "2"]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error == {"type": "EnumerationCapError",
                     "message": "enumeration exceeded cap: 3 states > 2"}
    assert _run(argv + ["--node-cap", "8"]) == 0


def test_cli_diagnose(tmp_path):
    base = str(tmp_path)
    graph_path = os.path.join(base, "graph.json")
    seeds_path = os.path.join(base, "seeds.json")
    out = os.path.join(base, "diag.json")
    with open(graph_path, "w") as fh:
        json.dump({"n": 3, "edges": [[0, 2], [1, 2]]}, fh)
    with open(seeds_path, "w") as fh:
        json.dump([[[0, 1], 1.0]], fh)
    assert _run(["diagnose", "--graph", graph_path, "--seeds", seeds_path, "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["identifiability"]["2"]["verdict"] == "not-identifiable"


def test_cli_diagnose_rejects_a_negative_max_budget(tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    g = build_graph(3, [(0, 2), (1, 2)])
    dump_json(model_to_dict(GltModel(g, np.array([0.3, 0.4]), make_uniform())), model_path)
    argv = ["diagnose", "--model", model_path, "--max-budget", "-1", "--out", str(tmp_path / "d.json")]
    assert _run(argv) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error == {"type": "ValueError", "message": "max_budget must be nonnegative, got -1"}


@pytest.mark.parametrize(
    "seeds, kind, message",
    [
        ([[[100], 1.0]], "GraphError", "node 100 out of range"),
        ([[[-1], 1.0]], "GraphError", "node -1 out of range"),
        ([5], "SchemaError", "expected a [[nodes...], probability] pair, got 5"),
        ([[[1.5], 1.0]], "SchemaError", "node id 1.5 is not an integer"),
        ({"0": 1.0}, "SchemaError", "expected a list"),
        ([[[0], 0.5]], "SchemaError", "seed probabilities sum to 0.5"),
    ],
)
def test_cli_diagnose_rejects_bad_seed_files(tmp_path, capsys, seeds, kind, message):
    graph_path = str(tmp_path / "graph.json")
    seeds_path = str(tmp_path / "seeds.json")
    with open(graph_path, "w") as fh:
        json.dump({"n": 8, "edges": [[0, 2], [1, 2]]}, fh)
    with open(seeds_path, "w") as fh:
        json.dump(seeds, fh)
    argv = ["diagnose", "--graph", graph_path, "--seeds", seeds_path, "--out", str(tmp_path / "d.json")]
    assert _run(argv) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == kind
    assert message in error["message"]
    if kind == "SchemaError":
        assert error["message"].startswith(seeds_path)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 3.7}, "node count 3.7 is not an integer"),
        ({"n": True}, "node count True is not an integer"),
        ({"edges": [[0.9, 1], [True, 2]]}, "node id 0.9 is not an integer"),
        ({"edges": [[0, 1], [True, 2]]}, "node id True is not an integer"),
        ({"edges": [[0, 1, 2]]}, "expected a [parent, child] edge, got [0, 1, 2]"),
        ({"edges": {"0": 1}}, "expected a list of edges"),
        ({"thresholds": [1, 2]}, "expected a threshold object, got 1"),
        ({"thresholds": "uniform"}, "expected a list of threshold objects, got 'uniform'"),
        ({"thresholds": {"family": "beta"}}, "expected a list of threshold objects"),
        ({"thresholds": [{"family": "beta"}] * 3}, "beta thresholds need alpha and beta"),
        ({"thresholds": [{"family": "beta", "alpha": [1], "beta": 2}] * 3}, "float()"),
    ],
)
def test_cli_spread_rejects_malformed_model_files(tmp_path, capsys, doc, message):
    # graph and model documents take JSON-integer node ids, as traces do; a
    # malformed field fails as a SchemaError at the document, never truncated
    path = str(tmp_path / "model.json")
    model = {"n": 3, "edges": [[0, 1], [1, 2]], "weights": [0.5, 0.5]}
    model["thresholds"] = [{"family": "uniform"}] * 3
    with open(path, "w") as fh:
        json.dump({**model, **doc}, fh)
    argv = ["spread", "--model", path, "--seed-set", "0", "--out", str(tmp_path / "s.json")]
    assert _run(argv) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith(f"{path}: ")
    assert message in error["message"]
    with pytest.raises(SchemaError):
        model_from_dict({**model, **doc})


def test_cli_spread_rejects_bad_seed_set_tokens(tmp_path, capsys):
    model = str(tmp_path / "model.json")
    assert _run(["generate", "--n", "6", "--k", "2", "--seed", "5", "--out", model]) == 0
    for seed_set, token in [("1,x", "'x'"), ("1.5", "'1.5'")]:
        argv = ["spread", "--model", model, "--seed-set", seed_set, "--out", str(tmp_path / "s.json")]
        assert _run(argv) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["type"] == "SchemaError"
        assert f"bad seed-set entry {token}" in error["message"]


@pytest.mark.parametrize(
    "argv, kind, names",
    [
        (["generate", "--n", "6", "--k", "2", "--seed", "1", "--family", "beta:nan,1"], "ValueError", "alpha"),
        (["generate", "--n", "6", "--k", "2", "--seed", "1", "--family", "beta:1,inf"], "ValueError", "beta"),
        (["spread", "--model", "{nan_model}", "--seed-set", "0"], "SchemaError", "{nan_model}"),
        (["fit", "--model", "{model}", "--traces", "{traces}", "--epsilon", "nan"], "EstimationError", "epsilon"),
        (["fit", "--model", "{model}", "--traces", "{traces}", "--epsilon", "inf"], "EstimationError", "epsilon"),
        (["fit", "--model", "{model}", "--traces", "{traces}", "--gamma", "0"], "EstimationError", "gamma"),
        (["fit", "--model", "{model}", "--traces", "{traces}", "--gamma", "-1"], "EstimationError", "gamma"),
        (["infer", "--model", "{model}", "--traces", "{traces}", "--gamma", "nan"], "EstimationError", "gamma"),
        (["diagnose", "--model", "{model}", "--state-cap", "0"], "ValueError", "state_cap"),
        (["diagnose", "--model", "{model}", "--state-cap", "-5"], "ValueError", "state_cap"),
        (["simulate", "--model", "{model}", "--count", "-1", "--seed", "1"], "SchemaError", "--count"),
        (["simulate", "--model", "{model}", "--count", "1000001", "--seed", "1"], "SchemaError", "--count 1000001"),
        (["im", "--model", "{model}", "--k", "1", "--seed", "1", "--replicates", str(10**18)], "InfluenceError",
         "replicate count"),
        (["spread", "--model", "{model}", "--seed-set", "0", "--replicates", "1000001"], "InfluenceError",
         "replicate count"),
    ],
)
def test_cli_rejects_each_value_outside_its_boundary(pipeline, capsys, argv, kind, names):
    # exit 1 with nothing written, and a message that names the flag, the
    # field or the file; a model file with a NaN parameter is not JSON
    base, model, traces = pipeline
    nan_model = os.path.join(base, "nan.json")
    doc = json.load(open(model))
    doc["thresholds"] = [{"family": "beta", "alpha": float("nan"), "beta": 1.0}] * doc["n"]
    with open(nan_model, "w") as fh:
        json.dump(doc, fh)
    fill = dict(model=model, traces=traces, nan_model=nan_model)
    out = os.path.join(base, "out.json")
    assert _run([a.format(**fill) for a in argv] + ["--out", out]) == 1
    assert not os.path.exists(out)
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == kind
    assert names.format(**fill) in error["message"]


@pytest.mark.parametrize(
    "argv, kind, message",
    [
        (["generate", "--n", "6", "--k", "2", "--seed", "1", "--d-max", "nan"], "GraphError",
         "d_max must be finite and positive, got nan"),
        (["generate", "--n", "6", "--k", "2", "--seed", "1", "--family", "exponential", "--d-max", "inf"], "GraphError",
         "d_max must be finite and positive, got inf"),
        (["generate", "--n", "6", "--k", "2", "--seed", "1", "--d-max", "2"], "SchemaError",
         "--d-max 2.0 exceeds the threshold support bound 1.0"),
        (["generate", "--n", "6", "--k", "2", "--seed", "1", "--p", "2"], "GraphError",
         "rewiring probability p must be in [0, 1], got 2.0"),
        (["diagnose", "--model", "{model}", "--max-budget", "1", "--node-cap", "-5"], "ModelError",
         "node_cap must be at least 1, got -5"),
        (["im", "--model", "{model}", "--k", "1", "--evaluator", "exact", "--seed", "1", "--node-cap", "-1"],
         "ModelError", "node_cap must be at least 1, got -1"),
        (["fit", "--model", "{model}", "--traces", "{traces}", "--family", "beta:1,2", "--grid", "1:nan"],
         "SchemaError", "bad grid entry '1:nan'; --grid parameters must be finite and positive"),
        (["fit", "--model", "{model}", "--traces", "{traces}", "--family", "beta:1,2", "--grid", "1:-1"],
         "SchemaError", "bad grid entry '1:-1'; --grid parameters must be finite and positive"),
        (["fit", "--model", "{model}", "--traces", "{traces}", "--family", "beta:1,2", "--grid", "0:0"],
         "SchemaError", "bad grid entry '0:0'; --grid parameters must be finite and positive"),
        (["experiment", "--experiment", "rmae-vs-traces", "--seed", "1", "--config", '{"budgets": 3}'],
         "SchemaError", "{config}: config key 'budgets' takes values shaped like (1, 4, 7, 10, 13), got 3"),
        (["experiment", "--experiment", "rmae-vs-traces", "--seed", "1", "--config", '{"n": 2.5}'],
         "SchemaError", "{config}: config key 'n' takes values shaped like 30, got 2.5"),
        (["experiment", "--experiment", "rmae-vs-traces", "--seed", "1", "--config", '{"beta_grid": []}'],
         "SchemaError", "{config}: config key 'beta_grid' takes values shaped like (1, 2, 3, 4, 5), got []"),
        (["experiment", "--experiment", "rmae-vs-traces", "--seed", "1", "--config", '{"n": 0}'],
         "SchemaError", "{config}: n must be positive"),
        (["experiment", "--experiment", "rmae-vs-traces", "--seed", "1", "--config", "[1]"],
         "SchemaError", "{config}: expected a JSON object of config keys, got [1]"),
        (["experiment", "--experiment", "rmae-vs-traces", "--seed", "1", "--config", '{"p": 5}'],
         "SchemaError", "{config}: p must be in [0, 1], got 5"),
        (["experiment", "--experiment", "rmae-vs-traces", "--seed", "1", "--config", '{"d_max_grid": [2.0]}'],
         "SchemaError", "{config}: d_max_grid entry 2.0 exceeds the threshold support bound 1.0"),
        (["experiment", "--experiment", "rmae-vs-traces", "--seed", "1", "--config", '{"d_max_grid": [0.5, -1]}'],
         "SchemaError", "{config}: d_max_grid entry must be finite and positive, got -1"),
        (["experiment", "--experiment", "im-comparison", "--seed", "1", "--config", '{"d_max": 0.0}'],
         "SchemaError", "{config}: d_max must be finite and positive, got 0.0"),
        (["experiment", "--experiment", "rmae-vs-traces", "--seed", "1", "--config", '{"level": 1.5}'],
         "SchemaError", "{config}: level must be in (0, 1), got 1.5"),
        (["experiment", "--experiment", "im-comparison", "--seed", "1", "--config", '{"budgets": [-1]}'],
         "SchemaError", "{config}: budgets entry -1 outside [0, 30]"),
        (["experiment", "--experiment", "im-comparison", "--seed", "1", "--config", '{"n": 12, "budgets": [13]}'],
         "SchemaError", "{config}: budgets entry 13 outside [0, 12]"),
        (["experiment", "--experiment", "im-comparison", "--seed", "1", "--config", '{"eval_replicates": 0}'],
         "SchemaError", "{config}: eval_replicates must be positive"),
        (["experiment", "--experiment", "spread-comparison", "--seed", "1", "--config", '{"n_test": 0}'],
         "SchemaError", "{config}: n_test must be positive"),
        (["experiment", "--experiment", "im-comparison", "--seed", "1", "--config", '{"beta_grid": [0]}'],
         "SchemaError", "{config}: beta_grid entry 0 is below 1"),
        (["experiment", "--experiment", "im-comparison", "--seed", "1", "--config",
          '{"n": 12, "replications": 1, "n_traces": 20, "mc_replicates": 5, "eval_replicates": 5}'],
         "SchemaError", "{config}: budgets entry 13 outside [0, 12]"),
        *[(["experiment", "--experiment", study, "--seed", "1", "--config",
            '{"family": {"family": "exponential"}, "d_max": 2.0, "n": 12, "budgets": [2]}'],
           "SchemaError", f"{{config}}: d_max 2.0 exceeds the support bound 1.0 of {study}'s beta thresholds")
          for study in ("activation-prediction", "im-comparison", "spread-comparison")],
        (["diagnose", "--graph", '{"n": 1000000000000000000, "edges": [[0, 1]]}'],
         "SchemaError", "{config}: node count n=1000000000000000000 exceeds the ceiling 1000000"),
    ],
)
def test_cli_names_the_flag_or_file_of_a_bad_value(pipeline, capsys, argv, kind, message):
    # each exited with an error that named neither, or with none: a bare
    # TypeError, numpy's "a cannot be empty", a ValueError from ThresholdSpec,
    # a support-bound ModelError, a GraphError or InfluenceError naming no
    # file, an exceeded cap of "-4 states > -5", or exit 0 on an experiment
    # that does not read the key
    base, model, traces = pipeline
    config = os.path.join(base, "config.json")
    if argv[-2] in ("--config", "--graph"):  # the last value is the file's text
        with open(config, "w") as fh:
            fh.write(argv[-1])
        argv = argv[:-1] + [config]
    out = ["--out-dir", os.path.join(base, "exp")] if argv[0] == "experiment" else ["--out", os.path.join(base, "out.json")]
    assert _run([a.format(model=model, traces=traces) for a in argv] + out) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error == {"type": kind, "message": message.format(config=config)}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_json_writer_refuses_what_the_reader_refuses(tmp_path, value):
    path = str(tmp_path / "doc.json")
    with pytest.raises(ValueError):
        dump_json({"weights": [value]}, path)
    assert not os.path.exists(path)
    with open(path, "w") as fh:
        json.dump({"weights": [value]}, fh)
    with pytest.raises(SchemaError) as err:
        load_json(path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["diagnose", "--graph", "graph.json", "--seed", "1"], "--seed"),
        (["im", "--model", "model.json", "--k", "1", "--seed", "1", "--rep", "5"], "--rep"),
    ],
)
def test_cli_refuses_abbreviated_flags(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_:
        _run(argv + ["--out", str(tmp_path / "out.json")])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cli_error_is_machine_readable(tmp_path, capsys):
    missing = os.path.join(str(tmp_path), "nope.json")
    out = os.path.join(str(tmp_path), "x.jsonl")
    code = _run(["simulate", "--model", missing, "--count", "1", "--seed", "1", "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    doc = json.loads(err.strip().splitlines()[-1])
    assert "error" in doc and doc["error"]["type"]


def test_cli_experiment_writes_csvs(tmp_path):
    base = str(tmp_path)
    cfg = os.path.join(base, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump(
            {"replications": 1, "trace_counts": [60, 120], "d_max_grid": [1.0], "n": 10, "k": 2},
            fh,
        )
    out_dir = os.path.join(base, "exp")
    assert _run([
        "experiment", "--experiment", "rmae-vs-traces", "--seed", "2",
        "--config", cfg, "--out-dir", out_dir, "--plot",
    ]) == 0
    rows = open(os.path.join(out_dir, "rmae-vs-traces_rows.csv")).read().splitlines()
    assert rows[0].startswith("rep,")
    assert len(rows) == 3  # header + 2 trace counts
    assert os.path.exists(os.path.join(out_dir, "rmae-vs-traces_summary.csv"))
    assert os.path.exists(os.path.join(out_dir, "rmae-vs-traces.svg"))
    # determinism of experiment outputs
    out_dir2 = os.path.join(base, "exp2")
    assert _run([
        "experiment", "--experiment", "rmae-vs-traces", "--seed", "2",
        "--config", cfg, "--out-dir", out_dir2,
    ]) == 0
    a = open(os.path.join(out_dir, "rmae-vs-traces_rows.csv"), "rb").read()
    b = open(os.path.join(out_dir2, "rmae-vs-traces_rows.csv"), "rb").read()
    assert a == b
