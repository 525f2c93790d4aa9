"""One CLI fuzz test: every subcommand on a tiny model, one flag value or
one file field at a time, drawn from zero, negative, finite, nan, inf and
huge values.  Each run either exits 0 with finite numbers in every output
file, or exits 1 with an error type the package raises and a message that
names the flag or the file."""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gltnet
from gltnet.cli import main

_HUGE = str(10**18)
_INTS = ["0", "-1", "-7", "1", "3", _HUGE]
# a work size is a job, not an invalid value: huge ones are not drawn
_SIZES = ["0", "-1", "-7", "1", "3"]
_FLOATS = ["0", "-0", "-1", "-0.5", "1e-320", "0.5", "1", "2", "nan", "inf", "-inf", "1e308"]

# the package's own error types; ValueError is the type of its parameter checks
# (``state_cap``, ``max_budget``, threshold parameters)
_ERRORS = {name for name, obj in vars(gltnet).items() if isinstance(obj, type) and issubclass(obj, Exception)}
_ERRORS |= {"SchemaError", "ValueError"}

# (argv after the command, flag, values, the word its errors name)
_MODEL, _TRACES, _PSEUDO, _CONFIG = "{model}", "{traces}", "{pseudo}", "{config}"
_FIT = ["--model", _MODEL, "--traces", _TRACES]
_FLAGS = [
    (["generate", "--n", "6", "--k", "2", "--seed", "3"], "--n", _INTS, "n"),
    (["generate", "--n", "6", "--k", "2", "--seed", "3"], "--k", _INTS, "k"),
    (["generate", "--n", "6", "--k", "2", "--seed", "3"], "--p", _FLOATS, "p"),
    (["generate", "--n", "6", "--k", "2", "--seed", "3"], "--d-max", _FLOATS, "d_max|--d-max"),
    (["generate", "--n", "6", "--k", "2", "--seed", "3"], "--seed", _INTS, "seed"),
    (["simulate", "--model", _MODEL, "--count", "5", "--seed", "4"], "--count", _SIZES, "--count"),
    (["simulate", "--model", _MODEL, "--count", "5", "--seed", "4"], "--s-max", _INTS, "s_max"),
    (["simulate", "--model", _MODEL, "--count", "5", "--seed", "4"], "--seed", _INTS, "seed"),
    (["fit", *_FIT], "--epsilon", _FLOATS, "epsilon"),
    (["fit", *_FIT], "--gamma", _FLOATS, "gamma"),
    (["fit", *_FIT], "--threads", _INTS, "threads"),
    (["fit", "--model", _MODEL, "--pseudo", _PSEUDO], "--epsilon", _FLOATS, "epsilon"),
    (["fit", "--model", _MODEL, "--pseudo", _PSEUDO], "--gamma", _FLOATS, "gamma"),
    (["fit", *_FIT, "--family", "beta:1,2", "--grid", "1:2"], "--epsilon", _FLOATS, "epsilon"),
    (["fit", *_FIT, "--family", "beta:1,2", "--grid", "1:2"], "--gamma", _FLOATS, "gamma"),
    (["fit", *_FIT, "--family", "beta:1,2"], "--grid", [f"1:{v}" for v in _FLOATS], "--grid|grid"),
    (["fit", *_FIT, "--family", "beta:1,2"], "--grid", [f"{v}:2" for v in _FLOATS], "--grid|grid"),
    (["infer", *_FIT], "--epsilon", _FLOATS, "epsilon"),
    (["infer", *_FIT], "--gamma", _FLOATS, "gamma"),
    (["infer", *_FIT], "--level", _FLOATS, "level"),
    (["diagnose", "--model", _MODEL, "--max-budget", "1"], "--s-max", _INTS, "s_max"),
    (["diagnose", "--model", _MODEL, "--max-budget", "1"], "--state-cap", _INTS, "state_cap"),
    (["diagnose", "--model", _MODEL], "--max-budget", _INTS, "max_budget"),
    (["diagnose", "--model", _MODEL, "--max-budget", "1"], "--node-cap", _INTS, "node_cap"),
    (["im", "--model", _MODEL, "--k", "1", "--replicates", "20", "--seed", "1"], "--k", _INTS, "budget"),
    (["im", "--model", _MODEL, "--k", "1", "--replicates", "20", "--seed", "1"], "--replicates", _SIZES, "replicate"),
    (["im", "--model", _MODEL, "--k", "1", "--replicates", "20", "--seed", "1"], "--seed", _INTS, "seed"),
    (["im", "--model", _MODEL, "--k", "1", "--evaluator", "exact", "--seed", "1"], "--node-cap", _INTS, "node_cap"),
    (["spread", "--model", _MODEL, "--seed-set", "0", "--replicates", "20"], "--replicates", _SIZES, "replicate"),
    (["spread", "--model", _MODEL, "--seed-set", "0", "--replicates", "20"], "--seed", _INTS, "seed"),
    (["spread", "--model", _MODEL, "--seed-set", "0", "--evaluator", "exact"], "--node-cap", _INTS, "node_cap"),
    (["experiment", "--experiment", "rmae-vs-traces", "--config", _CONFIG], "--seed", _INTS, "seed"),
]

# the commands that read each mutated file
_READERS = {
    "model": [["simulate", "--model", _MODEL, "--count", "5", "--seed", "4"],
              ["fit", *_FIT], ["diagnose", "--model", _MODEL, "--max-budget", "1"],
              ["im", "--model", _MODEL, "--k", "1", "--evaluator", "exact", "--seed", "1"],
              ["spread", "--model", _MODEL, "--seed-set", "0", "--replicates", "20"]],
    "traces": [["fit", *_FIT], ["infer", *_FIT, "--family", "beta:1,2", "--grid", "1:2"]],
    "pseudo": [["fit", "--model", _MODEL, "--pseudo", _PSEUDO]],
}
_JSON_VALUES = [0, -1, 1, 3, 0.5, 2.0, 1e308, 10**18, -(10**18), float("nan"), float("inf")]


@pytest.fixture(scope="module")
def files():
    with tempfile.TemporaryDirectory() as base:
        paths = {name: os.path.join(base, name) for name in ("model.json", "traces.jsonl", "pseudo.jsonl", "config.json")}
        assert _run(["generate", "--n", "6", "--k", "2", "--seed", "3", "--family", "beta:1,2",
                     "--out", paths["model.json"]])[0] == 0
        assert _run(["simulate", "--model", paths["model.json"], "--count", "20", "--seed", "4",
                     "--out", paths["traces.jsonl"]])[0] == 0
        with open(paths["pseudo.jsonl"], "w") as fh:
            for record in [(3, [1], 1), (3, [2], 0), (3, [1, 2], 1), (3, [4], 0), (3, [2, 4], 1)]:
                fh.write(json.dumps(dict(zip(("node", "active_parents", "y"), record))) + "\n")
        with open(paths["config.json"], "w") as fh:
            json.dump({"replications": 1, "n": 6, "k": 2, "trace_counts": [20], "d_max_grid": [1.0]}, fh)
        yield {name.split(".")[0]: path for name, path in paths.items()}


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    lines = err.getvalue().strip().splitlines()
    return code, json.loads(lines[-1])["error"] if lines else None


def _finite_json(value):
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _refuse(constant):
    raise ValueError(f"{constant} in an output file")


def _assert_finite_outputs(out_dir):
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name)) as fh:
            text = fh.read()
        if name.endswith(".csv"):
            for row in csv.reader(io.StringIO(text)):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (name, row)
        elif name.endswith(".json") or name.endswith(".jsonl"):
            for line in text.splitlines() if name.endswith(".jsonl") else [text]:
                assert _finite_json(json.loads(line, parse_constant=_refuse)), name


def _check(argv, names, files, value):
    """Run ``argv`` with an output in a fresh directory; see the module docstring."""
    with tempfile.TemporaryDirectory() as out_dir:
        name = "out.jsonl" if argv[0] == "simulate" else "out.json"
        out = ["--out-dir", out_dir] if argv[0] == "experiment" else ["--out", os.path.join(out_dir, name)]
        code, error = _run([a.format(**files) for a in argv] + out)
        if code == 0:
            _assert_finite_outputs(out_dir)
            return
        assert code == 1 and error["type"] in _ERRORS, error
        if error["type"] == "EnumerationCapError":  # a cap the run outgrew, reported with its value
            assert error["message"].endswith(f"> {value}"), error
        else:
            assert re.search(rf"(?<![\w-])({names})(?!\w)", error["message"]), (names, error)
        assert os.listdir(out_dir) == [], "a failed run wrote its output"


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(_FLAGS).flatmap(lambda c: st.tuples(st.just(c), st.sampled_from(c[2]))))
def test_cli_flag_values_end_in_output_or_a_named_error(files, case):
    (argv, flag, _, names), value = case
    argv = list(argv)
    if flag in argv:
        del argv[argv.index(flag) : argv.index(flag) + 2]
    _check(argv + [f"{flag}={value}"], names, files, value)  # "=" lets argparse take "-inf"


def _field_paths(doc, prefix=()):
    """The paths of every number in a JSON document."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _field_paths(v, prefix + (k,))]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _field_paths(v, prefix + (i,))]
    return [prefix] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_mutated_file_fields_end_in_output_or_a_named_error(files, data):
    kind = data.draw(st.sampled_from(sorted(_READERS)))
    with open(files[kind]) as fh:
        lines = fh.read().splitlines()
    docs = [json.loads(line) for line in lines] if kind != "model" else [json.loads("\n".join(lines))]
    row = data.draw(st.integers(0, len(docs) - 1))
    path = data.draw(st.sampled_from(_field_paths(docs[row])))
    value = data.draw(st.sampled_from(_JSON_VALUES))
    target = docs[row]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    argv = data.draw(st.sampled_from(_READERS[kind]))
    with tempfile.TemporaryDirectory() as base:
        mutated = os.path.join(base, os.path.basename(files[kind]))
        with open(mutated, "w") as fh:
            fh.write("\n".join(json.dumps(d) for d in docs) + "\n")
        # the error names an input file: the mutated one, or a file that no
        # longer agrees with it (traces against a mutated model's graph)
        inputs = {**files, kind: mutated}
        _check(argv, "|".join(re.escape(p) for p in inputs.values()), inputs, value)
