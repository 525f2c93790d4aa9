"""The benchmark tracer's view of gltnet still matches the package.

`perfbench/tracer.py` wraps gltnet functions and methods by name and its
hooks read call arguments by name, so a rename or a new signature would
otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

import gltnet

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracer):
    for module_name, attr, _ in tracer.SPANNED:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    for module_name, cls_name, method, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert method in cls.__dict__, (cls_name, method)


@pytest.mark.parametrize(
    "fn, names",
    [
        (gltnet.likelihood.build_node_data, {"v", "traces"}),
        (gltnet.influence.greedy_im, {"model", "budget", "spread_evaluator", "replicates"}),
    ],
)
def test_hook_arguments_exist(fn, names):
    assert names <= set(inspect.signature(fn).parameters), fn.__name__
