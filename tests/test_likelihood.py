import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from gltnet import (
    GltModel,
    ModelError,
    PseudoTrace,
    Trace,
    ZeroProbabilityError,
    build_all_node_data,
    build_graph,
    build_node_data,
    build_pseudo_node_data,
    from_lt,
    make_beta,
    make_exponential_unit,
    make_uniform,
    node_gradient,
    node_hessian,
    node_log_likelihood,
    simulate_traces,
    trace_log_probability,
)
from gltnet.graph import SeedDistribution, generate_cws, sample_seed, sample_weights_simplex
from gltnet.likelihood import (
    ROW_ACTIVATED,
    ROW_FOLDED,
    ROW_TERMINAL,
    NodeData,
    node_value_and_gradient,
)
from gltnet.estimation import default_gamma
from gltnet.rng import substream

from conftest import (
    all_specs,
    naive_loglik,
    random_simple_digraph,
    random_weights_within,
    reference_node_hessian,
    reference_node_log_likelihood,
    reference_node_value_and_gradient,
)


def test_node_data_star_staggered_rows():
    # trace ({u1}, {u2}, {v}): a folded exposure row then the activation row
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    trace = Trace([{0}, {1}, {2}])
    data = build_node_data([trace], g, 2)
    assert data.parents == (0, 1)
    assert data.n_obs == 2
    assert list(data.outcome) == [ROW_FOLDED, ROW_ACTIVATED]
    assert data.z_prev.tolist() == [[0, 0], [1, 0]]
    assert data.z_curr.tolist() == [[1, 0], [1, 1]]


def test_node_data_terminal_row():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    trace = Trace([{0}, {1}])  # node 2 exposed twice, never activates
    data = build_node_data([trace], g, 2)
    assert data.n_obs == 2
    assert list(data.outcome) == [ROW_FOLDED, ROW_TERMINAL]
    assert data.z_curr.tolist() == [[1, 0], [1, 1]]


def test_node_data_seeded_and_unexposed_are_empty():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    # v seeded: no rows
    assert build_node_data([Trace([{2}])], g, 2).n_obs == 0
    assert build_node_data([Trace([{0, 2}, {1}])], g, 2).n_obs == 0
    # v never gains an active parent
    assert build_node_data([Trace([{1}])], g, 1).n_obs == 0


def test_node_data_truncates_after_activation():
    # gains after the activation time contribute nothing
    g = build_graph(4, [(0, 1), (0, 3), (1, 3), (0, 2), (1, 2), (3, 2)])
    trace = Trace([{0}, {1, 2}, {3}])
    # node 2 activated at t=1; the t=2 gain (parent 3) is past t(v, n)
    data = build_node_data([trace], g, 2)
    assert data.n_obs == 1
    assert list(data.outcome) == [ROW_ACTIVATED]
    assert data.z_curr.tolist() == [[1, 0, 0]]


def test_bernoulli_likelihood_value():
    # single parent, uniform F: 10 exposures, 4 activations at theta = 0.4
    g = build_graph(2, [(0, 1)])
    traces = [Trace([{0}, {1}])] * 4 + [Trace([{0}])] * 6
    data = build_node_data(traces, g, 1)
    value = node_log_likelihood(data, np.array([0.4]), make_uniform())
    assert value == pytest.approx(4 * np.log(0.4) + 6 * np.log(0.6), abs=1e-12)


def test_likelihood_matches_naive_loop():
    rng = substream(21, "naive")
    g = random_simple_digraph(7, 0.35, rng)
    w = random_weights_within(g, rng)
    model = GltModel(g, w, make_beta(2, 2))
    traces = simulate_traces(
        model,
        [{int(rng.integers(0, 7))} for _ in range(200)],
        [substream(21, "s", i) for i in range(200)],
    )
    for v in g.child_nodes():
        data = build_node_data(traces, g, v)
        if data.n_informative_rows == 0:
            continue
        theta = w[g.child_slice(v)] + 0.01
        spec = make_beta(2, 2)
        expected = naive_loglik(data.z_prev, data.z_curr, data.outcome, theta, spec.cdf)
        assert node_log_likelihood(data, theta, spec) == pytest.approx(expected, rel=1e-12)


def test_decomposition_identity():
    # sum of node log-likelihoods == sum of trace log-probabilities (no seed terms)
    rng = substream(22, "decomp")
    for spec in all_specs():
        g = random_simple_digraph(8, 0.3, substream(22, "g", spec.family))
        w = random_weights_within(g, substream(22, "w", spec.family))
        model = GltModel(g, w, spec)
        traces = simulate_traces(
            model,
            [{0, int(rng.integers(1, 8))} for _ in range(120)],
            [substream(22, "s", spec.family, i) for i in range(120)],
        )
        total_traces = sum(trace_log_probability(model, t) for t in traces)
        total_nodes = 0.0
        for v in g.child_nodes():
            data = build_node_data(traces, g, v)
            if data.n_informative_rows:
                total_nodes += node_log_likelihood(data, w[g.child_slice(v)], spec)
        assert total_nodes == pytest.approx(total_traces, abs=1e-9)


def _random_feasible_theta(m, gamma, rng):
    raw = rng.random(m) + 1e-3
    return raw / raw.sum() * gamma * rng.uniform(0.2, 0.95)


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.family)
def test_gradient_matches_finite_differences(spec):
    rng = substream(23, "fd", spec.family)
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    w = random_weights_within(g, rng)
    model = GltModel(g, w, spec)
    traces = simulate_traces(model, [{0}] * 300, [substream(23, "s", spec.family, i) for i in range(300)])
    data = build_node_data(traces, g, 3)
    gamma = 1.0 - 1e-6 if np.isfinite(spec.support_bound) else 2.0
    for trial in range(20):
        theta = _random_feasible_theta(3, gamma, rng)
        grad = node_gradient(data, theta, spec)
        step = 1e-6
        for i in range(3):
            plus = theta.copy()
            minus = theta.copy()
            plus[i] += step
            minus[i] -= step
            fd = (
                node_log_likelihood(data, plus, spec)
                - node_log_likelihood(data, minus, spec)
            ) / (2 * step)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.family)
def test_hessian_matches_gradient_differences(spec):
    rng = substream(24, "hfd", spec.family)
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    w = random_weights_within(g, rng)
    model = GltModel(g, w, spec)
    traces = simulate_traces(model, [{0}] * 300, [substream(24, "s", spec.family, i) for i in range(300)])
    data = build_node_data(traces, g, 3)
    gamma = 1.0 - 1e-6 if np.isfinite(spec.support_bound) else 2.0
    for trial in range(20):
        theta = _random_feasible_theta(3, gamma, rng)
        hess = node_hessian(data, theta, spec)
        assert np.max(np.abs(hess - hess.T)) <= 1e-12
        step = 1e-6
        for i in range(3):
            plus = theta.copy()
            minus = theta.copy()
            plus[i] += step
            minus[i] -= step
            fd = (node_gradient(data, plus, spec) - node_gradient(data, minus, spec)) / (
                2 * step
            )
            assert np.allclose(hess[i], fd, rtol=1e-4, atol=1e-4)


def test_hessian_negative_semidefinite_for_log_concave():
    rng = substream(25, "nsd")
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    w = random_weights_within(g, rng)
    for spec in all_specs():
        model = GltModel(g, w, spec)
        traces = simulate_traces(
            model, [{0}] * 200, [substream(25, "s", spec.family, i) for i in range(200)]
        )
        data = build_node_data(traces, g, 3)
        gamma = 1.0 - 1e-6 if np.isfinite(spec.support_bound) else 2.0
        for _ in range(10):
            theta = _random_feasible_theta(3, gamma, rng)
            eigs = np.linalg.eigvalsh(node_hessian(data, theta, spec))
            assert np.all(eigs <= 1e-8)


def test_single_parent_hessian_closed_form():
    # Bernoulli information: -[k/b^2 + (n-k)/(1-b)^2] for uniform thresholds
    g = build_graph(2, [(0, 1)])
    traces = [Trace([{0}, {1}])] * 7 + [Trace([{0}])] * 13
    data = build_node_data(traces, g, 1)
    b = 0.35
    hess = node_hessian(data, np.array([b]), make_uniform())
    assert hess[0, 0] == pytest.approx(-(7 / b**2 + 13 / (1 - b) ** 2), rel=1e-12)


def test_likelihood_concavity_along_chords():
    rng = substream(26, "chord")
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    w = random_weights_within(g, rng)
    for spec in all_specs():
        model = GltModel(g, w, spec)
        traces = simulate_traces(
            model, [{0}] * 200, [substream(26, "s", spec.family, i) for i in range(200)]
        )
        data = build_node_data(traces, g, 3)
        gamma = 1.0 - 1e-6 if np.isfinite(spec.support_bound) else 2.0
        for _ in range(100):
            a = _random_feasible_theta(3, gamma, rng)
            b = _random_feasible_theta(3, gamma, rng)
            mid = node_log_likelihood(data, (a + b) / 2, spec)
            ends = (
                node_log_likelihood(data, a, spec) + node_log_likelihood(data, b, spec)
            ) / 2
            assert mid >= ends - 1e-9


def test_nonpositive_factor_raises():
    g = build_graph(2, [(0, 1)])
    data = build_node_data([Trace([{0}, {1}])], g, 1)
    with pytest.raises(ZeroProbabilityError):
        node_log_likelihood(data, np.array([0.0]), make_uniform())


@pytest.mark.parametrize("kernel", [node_log_likelihood, node_value_and_gradient, node_hessian])
@pytest.mark.parametrize("theta", [[0.2, 0.3], []])
def test_theta_of_the_wrong_length_is_rejected(kernel, theta):
    g = build_graph(2, [(0, 1)])
    data = build_node_data([Trace([{0}, {1}])], g, 1)
    with pytest.raises(ValueError, match="1 parents"):
        kernel(data, np.array(theta), make_uniform())


def test_pseudo_trace_validation():
    with pytest.raises(ValueError):
        PseudoTrace(node=2, active_parents=frozenset(), y=0)
    with pytest.raises(ValueError):
        PseudoTrace(node=2, active_parents=frozenset({0}), y=2)


@pytest.mark.parametrize("node, parents", [(1, [0.9]), (1, [True]), (1.5, [0]), (True, [0]), ("2", [0])])
def test_pseudo_trace_rejects_non_integer_node_ids(node, parents):
    # parent 0.9 was once stored as parent 0, and node 1.5 was accepted
    with pytest.raises(ValueError, match="is not an integer"):
        PseudoTrace(node, parents, 1)
    assert PseudoTrace(np.int64(2), [np.int32(0)], 1).active_parents == {0}


def test_pseudo_node_data_and_likelihood():
    g = build_graph(3, [(0, 2), (1, 2)])
    pseudo = [
        PseudoTrace(2, frozenset({0}), 1),
        PseudoTrace(2, frozenset({0, 1}), 0),
    ]
    data = build_pseudo_node_data(pseudo, 2, g)
    assert np.all(data.z_prev == 0)
    value = node_log_likelihood(data, np.array([0.3, 0.25]), make_uniform())
    assert value == pytest.approx(np.log(0.3) + np.log(1 - 0.55), abs=1e-12)


def test_pseudo_node_data_errors():
    g = build_graph(3, [(0, 2), (1, 2)])
    with pytest.raises(ValueError):
        build_pseudo_node_data([PseudoTrace(1, frozenset({0}), 1)], 2, g)
    with pytest.raises(ValueError):
        # node 1 is not a parent of node 2? it is; use a foreign node id
        build_pseudo_node_data([PseudoTrace(2, frozenset({5}), 1)], 2, g)


def test_depth1_star_trace_equals_pseudo_trace_likelihood():
    # a full trace on a star that stops after one step carries exactly the
    # information of the corresponding pseudo-trace
    g = build_graph(3, [(0, 2), (1, 2)])
    theta = np.array([0.2, 0.35])
    spec = make_exponential_unit()
    full = build_node_data([Trace([{0, 1}, {2}]), Trace([{0}])], g, 2)
    pseudo = build_pseudo_node_data(
        [PseudoTrace(2, frozenset({0, 1}), 1), PseudoTrace(2, frozenset({0}), 0)], 2, g
    )
    assert node_log_likelihood(full, theta, spec) == pytest.approx(
        node_log_likelihood(pseudo, theta, spec), abs=1e-12
    )


def test_rows_group_per_trace_in_time_order():
    g = build_graph(4, [(0, 1), (0, 3), (1, 3), (0, 2), (1, 2), (2, 3)])
    model = from_lt(g, [0.3, 0.2, 0.2, 0.3, 0.3, 0.2])
    rng = substream(27, "order")
    traces = simulate_traces(model, [{0}] * 100, [rng] * 100)
    data = build_node_data(traces, g, 3)
    assert np.all(np.diff(data.trace_index) >= 0)
    # z_prev <= z_curr coordinatewise, and activation rows strictly grow
    assert np.all(data.z_prev <= data.z_curr)
    act = data.outcome == ROW_ACTIVATED
    assert np.all(data.z_curr[act].sum(axis=1) > data.z_prev[act].sum(axis=1))
    # at most one activation row per trace
    for n in np.unique(data.trace_index):
        assert (data.outcome[data.trace_index == n] == ROW_ACTIVATED).sum() <= 1


def test_build_all_node_data_matches_per_node_builds():
    graph = generate_cws(20, 4, 0.2, substream(40, "g"))
    model = from_lt(graph, sample_weights_simplex(graph, 1.0, substream(40, "w")))
    dist = SeedDistribution.uniform_by_size(4)
    traces = simulate_traces(
        model,
        [sample_seed(dist, graph, substream(40, "s", i)) for i in range(300)],
        [substream(40, "t", i) for i in range(300)],
    )
    for validate in (True, False):
        datasets = build_all_node_data(traces, graph, validate=validate)
        assert list(datasets) == graph.child_nodes()
        for v, data in datasets.items():
            want = build_node_data(traces, graph, v)
            assert data.node == v
            assert data.parents == want.parents
            for name in ("z_prev", "z_curr", "outcome", "trace_index"):
                got, ref = getattr(data, name), getattr(want, name)
                assert got.dtype == ref.dtype and np.array_equal(got, ref), (v, name)


def test_build_all_node_data_checks_feasibility():
    g = build_graph(3, [(0, 1), (1, 2)])
    infeasible = Trace([{0}, {2}])  # 2 activates without a newly active parent
    with pytest.raises(ModelError):
        build_all_node_data([Trace([{0}, {1}]), infeasible], g)
    # an already-checked caller may skip the check
    assert set(build_all_node_data([Trace([{0}, {1}])], g, validate=False)) == {1, 2}


# -- the shared kernel against the reference built on public threshold calls --

KERNEL_SPECS = [
    make_uniform(),
    make_exponential_unit(),
    make_beta(1, 1),
    make_beta(1, 3),
    make_beta(1, 5),
    make_beta(2, 2),
    make_beta(0.5, 2),
]
_ROW_KINDS = {
    "mixed": (ROW_ACTIVATED, ROW_TERMINAL, ROW_FOLDED),
    "activation only": (ROW_ACTIVATED, ROW_FOLDED),
    "terminal only": (ROW_TERMINAL, ROW_FOLDED),
    "no informative rows": (ROW_FOLDED,),
}


@st.composite
def _kernel_case(draw):
    """Random node data, a threshold spec and a feasible theta.

    Rows look like ``build_node_data`` output: z_curr has at least one active
    parent and z_prev is a subset of it.  Unless degenerate rows are allowed,
    z_prev misses at least one parent of z_curr.
    """
    m = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(sorted(_ROW_KINDS)))
    allow_degenerate = draw(st.booleans())
    bits = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    z_prev, z_curr, outcome = [], [], []
    for _ in range(draw(st.integers(kind != "no informative rows", 12))):
        curr = np.array(draw(bits), dtype=np.uint8)
        if not curr.any():
            curr[draw(st.integers(0, m - 1))] = 1
        prev = curr & np.array(draw(bits), dtype=np.uint8)
        if not allow_degenerate and np.array_equal(prev, curr):
            prev[np.flatnonzero(curr)[0]] = 0
        z_prev.append(prev)
        z_curr.append(curr)
        outcome.append(draw(st.sampled_from(_ROW_KINDS[kind])))
    rows = len(outcome)
    data = NodeData(
        node=m,
        parents=tuple(range(m)),
        z_prev=np.array(z_prev, dtype=np.uint8).reshape(rows, m),
        z_curr=np.array(z_curr, dtype=np.uint8).reshape(rows, m),
        outcome=np.array(outcome, dtype=np.int8),
        trace_index=np.arange(rows, dtype=np.int64),
    )
    spec = draw(st.sampled_from(KERNEL_SPECS))
    epsilon = 1e-6
    gamma = default_gamma(spec, epsilon)
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    if raw.sum() == 0.0:
        raw[:] = 1.0
    scale = draw(st.just(1.0) | st.floats(0.0, 1.0))  # 1.0: on the sum bound
    theta = epsilon + (gamma - m * epsilon) * scale * raw / raw.sum()
    return data, spec, theta


def _outcome(fn, data, theta, spec):
    try:
        result = fn(data, theta, spec)
    except ZeroProbabilityError as exc:
        return "raised", str(exc)
    if isinstance(result, tuple):
        return tuple(np.asarray(r).tobytes() for r in result)
    return np.asarray(result).tobytes()


@settings(max_examples=400, deadline=None)
@given(_kernel_case())
def test_kernel_matches_reference_bit_for_bit(case):
    # value, gradient and Hessian equal the per-call public-method reference
    # in every bit, and raise ZeroProbabilityError in exactly the same cases
    data, spec, theta = case
    for fn, ref in (
        (node_log_likelihood, reference_node_log_likelihood),
        (node_value_and_gradient, reference_node_value_and_gradient),
        (node_hessian, reference_node_hessian),
    ):
        assert _outcome(fn, data, theta, spec) == _outcome(ref, data, theta, spec), fn.__name__


def test_compressed_arrays_are_separate_c_contiguous_float64():
    # the kernel's BLAS products round differently on strided views of one array
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    for traces in (
        [Trace([{0}, {1}, {2}]), Trace([{0}, {1}]), Trace([{1}, {2}])],
        [Trace([{0}, {1}, {2}])],  # no terminal rows
        [Trace([{0, 1}])],  # no activation rows
    ):
        for array in build_node_data(traces, g, 2).compressed():
            assert array.dtype == np.float64
            assert array.flags.c_contiguous and array.flags.owndata


def test_beta_evaluation_computes_each_survival_once(monkeypatch):
    # one incomplete-beta call per argument array: z_curr @ theta and
    # z_prev @ theta of the activation rows, z_curr @ theta of the terminal rows
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    traces = [Trace([{0}, {1}, {2}]), Trace([{0}, {1}]), Trace([{1}, {2}])]
    data = build_node_data(traces, g, 2)
    zp_a, zc_a, w_a, zc_t, w_t = data.compressed()
    assert w_a.size and w_t.size
    calls = []
    betainc = scipy.special.betainc

    def counting(*args, **kwargs):
        calls.append(args)
        return betainc(*args, **kwargs)

    monkeypatch.setattr(scipy.special, "betainc", counting)
    node_value_and_gradient(data, np.array([0.3, 0.2]), make_beta(2, 3))
    assert len(calls) == 3
