"""Node rows and PTP scores from the activation-round table, against the
per-node and per-trace walks kept in conftest as references."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gltnet import ModelError, Trace, baseline_ptp, build_all_node_data, build_graph, build_node_data
from gltnet.model import NEVER, _activation_rounds

from conftest import reference_baseline_ptp, reference_build_node_data

# 0, 1 -> 2; 1, 2 -> 3; 3 -> 4
EDGE_GRAPH = build_graph(5, [(0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])


@st.composite
def feasible_traces(draw, graph):
    """A feasible trace: each step is a nonempty set of inactive children of
    the previous step."""
    seed = draw(st.sets(st.integers(0, graph.n - 1), min_size=1))
    steps, active = [seed], set(seed)
    while True:
        candidates = sorted({c for u in steps[-1] for c in graph.children(u)} - active)
        if not candidates or not draw(st.booleans()):
            return steps
        step = draw(st.sets(st.sampled_from(candidates), min_size=1))
        steps.append(step)
        active |= step


@st.composite
def trace_sets(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    graph = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1)))
    return graph, draw(st.lists(feasible_traces(graph), max_size=6))


def _assert_rows_equal(got, want):
    for name in ("z_prev", "z_curr", "outcome", "trace_index"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert np.array_equal(a, b), name


def _case(*traces):
    return EDGE_GRAPH, list(traces)


@settings(max_examples=300, deadline=None)
@given(case=trace_sets(), raw=st.booleans())
@example(case=_case([{0, 2}, {3}], [{2}]), raw=False)  # v = 2 seeded
@example(case=_case([{4}], [{3}, {4}]), raw=False)  # parents of 2 and 3 never active
@example(case=_case([{0}, {2}, {3}, {4}]), raw=False)  # 4 activates at the horizon
@example(case=_case([{1}], [{0, 1}], [{3}]), raw=False)  # one-step traces
@example(case=_case([{0, 1}, {2}], [{1, 2}, {3}]), raw=False)  # several parents in one round
@example(case=_case([{0}, {2}, {3}], [{1}, {2, 3}, {4}]), raw=True)  # raw step lists
@example(case=_case(), raw=False)  # no traces
def test_rows_and_ptp_match_reference_walks(case, raw):
    graph, step_lists = case
    if raw:
        traces = [[sorted(step) for step in steps] for steps in step_lists]
    else:
        traces = [Trace(steps) for steps in step_lists]
    rows = build_all_node_data(traces, graph)
    assert list(rows) == graph.child_nodes()
    for v in graph.child_nodes():
        want = reference_build_node_data(traces, graph, v)
        _assert_rows_equal(rows[v], want)
        _assert_rows_equal(build_node_data(traces, graph, v), want)
        _assert_rows_equal(build_node_data(traces, graph, v, validate=False), want)
    assert baseline_ptp(traces, graph).tobytes() == reference_baseline_ptp(traces, graph).tobytes()


def test_activation_rounds_table():
    rounds, horizons = _activation_rounds([Trace([{0}, {2}, {3}]), [[1]]], 5)
    assert rounds.dtype == np.int64
    assert rounds.tolist() == [[0, NEVER, 1, 2, NEVER], [NEVER, 0, NEVER, NEVER, NEVER]]
    assert horizons.tolist() == [2, 0]
    assert _activation_rounds([], 5)[0].shape == (0, 5)
    with pytest.raises(ModelError):
        _activation_rounds([[[5]]], 5)
    with pytest.raises(ModelError):
        _activation_rounds([[[0], [-1]]], 5)
