import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from gltnet import (
    EstimationError,
    FitOptions,
    GltModel,
    ModelError,
    NodeData,
    Trace,
    baseline_ptp,
    baseline_wc,
    build_all_node_data,
    build_graph,
    build_node_data,
    fit_all,
    fit_node,
    fit_with_threshold_grid,
    from_lt,
    make_beta,
    make_exponential_unit,
    make_uniform,
    sample_seed,
    sample_weights_simplex,
    simulate_traces,
)
from gltnet import estimation
from gltnet.estimation import project_truncated_simplex, projected_gradient_norm
from gltnet.graph import SeedDistribution, generate_cws
from gltnet.metrics import rmae
from gltnet.model import ZeroProbabilityError
from gltnet.rng import substream

from conftest import (
    dense_grid_argmax,
    parent_subset_seed_distribution,
    random_weights_within,
    reference_maximize,
    reference_node_maximize,
    reference_node_hessian,
    reference_node_value_and_gradient,
    reference_project_truncated_simplex,
    reference_projected_gradient_norm,
    staggered_fit_graph,
)


def _bernoulli_data(n_exposed, n_activated, graph=None):
    g = graph or build_graph(2, [(0, 1)])
    traces = [Trace([{0}, {1}])] * n_activated + [Trace([{0}])] * (
        n_exposed - n_activated
    )
    return build_node_data(traces, g, 1)


def test_projection_is_exact():
    rng = substream(31, "proj")
    eps, gamma = 1e-6, 0.999999
    for _ in range(500):
        raw = rng.normal(size=4) * rng.uniform(0.1, 5)
        out = project_truncated_simplex(raw, eps, gamma)
        assert np.all(out >= eps)
        assert out.sum() <= gamma
    # already-feasible points are fixed points
    point = np.array([0.2, 0.3, 0.1, 0.05])
    assert np.allclose(project_truncated_simplex(point, eps, gamma), point)


def test_projection_idempotent():
    rng = substream(32, "idem")
    eps, gamma = 1e-6, 0.999999
    for _ in range(100):
        raw = rng.normal(size=5) * 2
        once = project_truncated_simplex(raw, eps, gamma)
        twice = project_truncated_simplex(once, eps, gamma)
        assert np.allclose(once, twice, atol=1e-15)


def test_projected_gradient_norm_cases():
    eps, gamma = 1e-6, 1.0
    # interior point: plain gradient norm
    theta = np.array([0.2, 0.3])
    g = np.array([1.0, -2.0])
    assert projected_gradient_norm(theta, g, eps, gamma) == pytest.approx(
        np.linalg.norm(g)
    )
    # at the lower bound with an outward gradient: that component vanishes
    theta = np.array([eps, 0.3])
    g = np.array([-5.0, 0.5])
    assert projected_gradient_norm(theta, g, eps, gamma) == pytest.approx(0.5)
    # on the sum face with a uniform outward gradient: nothing tangential
    theta = np.array([0.5, 0.5])
    g = np.array([3.0, 3.0])
    assert projected_gradient_norm(theta, g, eps, gamma) == pytest.approx(0.0, abs=1e-12)
    # on the sum face with an asymmetric gradient: tangential residual stays
    g = np.array([3.0, 1.0])
    assert projected_gradient_norm(theta, g, eps, gamma) == pytest.approx(
        np.sqrt(2.0), abs=1e-9
    )
    # gamma within m * 1e-12 of m * eps: every coordinate at eps with the sum
    # face active, so the multiplier is max(g) and nothing is left over
    theta = np.full(4, eps)
    g = np.array([3.0, -1.0, 3.0, 0.5])
    assert projected_gradient_norm(theta, g, eps, 4 * eps + 1e-13) == 0.0


# dyadic values keep theta - eps, the clipped sum and gamma - m * eps exact,
# so a drawn input can sit exactly on the sum bound; arbitrary floats cover
# the rest
_EPS = 2.0**-10
_dyadic = st.integers(-64, 64).map(lambda k: k / 16.0)
_repeated = st.sampled_from([0.0, 0.5, 1.0, 1.5])
_any = st.floats(-1e3, 1e3)


@st.composite
def projection_inputs(draw):
    values = draw(st.sampled_from([_dyadic | _repeated, _dyadic | _repeated | _any]))
    theta = np.array(draw(st.lists(values, min_size=1, max_size=8)))
    m = theta.size
    clipped = np.maximum(theta - _EPS, 0.0).sum()
    if clipped > 0 and draw(st.booleans()):
        radius = clipped  # the clipped sum equals the radius exactly
    else:
        radius = draw(st.integers(1, 256)) / 32.0
    return theta, _EPS, radius + m * _EPS


@settings(max_examples=400, deadline=None)
@given(case=projection_inputs())
@example(case=(np.array([1.0, 1.0, 1.0]), _EPS, 1.5 + 3 * _EPS))  # ties above the bound
@example(case=(np.array([0.5, 0.5, -1.0]), _EPS, 1.0 - 2 * _EPS + 3 * _EPS))  # clipped sum = radius
def test_projection_properties(case):
    theta, eps, gamma = case
    out = project_truncated_simplex(theta, eps, gamma)
    assert np.all(out >= eps)
    assert out.sum() <= gamma
    again = project_truncated_simplex(out, eps, gamma)
    assert np.abs(again - out).max() <= 4 * np.spacing(max(1.0, gamma))
    assert out.tobytes() == reference_project_truncated_simplex(theta, eps, gamma).tobytes()


@st.composite
def certificate_inputs(draw):
    m = draw(st.integers(1, 8))
    eps = draw(st.sampled_from([1e-6, 1e-3]))
    at_low = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    free = draw(st.lists(st.floats(1e-3, 2.0), min_size=m, max_size=m))
    theta = np.where(at_low, eps, eps + np.array(free))
    face = draw(st.sampled_from(["sum", "near", "off"]))
    if face == "sum":
        gamma = theta.sum()
    elif face == "near":
        gamma = theta.sum() + draw(st.floats(0.0, 0.9e-12))  # still counts as on the face
    else:
        gamma = theta.sum() + draw(st.floats(1e-6, 5.0))
    # ties among the lower-bound gradients come from a small shared pool
    g_low = draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 3.0]), min_size=m, max_size=m))
    g_free = draw(st.lists(st.floats(-50.0, 50.0), min_size=m, max_size=m))
    return theta, np.where(at_low, g_low, g_free), eps, gamma


@settings(max_examples=400, deadline=None)
@given(case=certificate_inputs())
@example(case=(np.full(3, 1e-6), np.array([2.0, 2.0, -1.0]), 1e-6, 3e-6 + 1e-13))  # all at eps
@example(case=(np.array([1e-6, 0.4, 0.6]), np.array([5.0, 1.0, 1.0]), 1e-6, 1.000001))
def test_projected_gradient_norm_matches_bisection(case):
    theta, g, eps, gamma = case
    got = projected_gradient_norm(theta, g, eps, gamma)
    want = reference_projected_gradient_norm(theta, g, eps, gamma)
    assert abs(got - want) <= 1e-12 * max(1.0, np.abs(g).sum())


def test_fit_interior_bernoulli():
    data = _bernoulli_data(10, 4)
    result = fit_node(data, make_uniform())
    assert result.converged
    assert result.weights[0] == pytest.approx(0.4, abs=1e-8)
    assert not result.at_boundary
    assert result.n_obs == 10


def test_fit_boundary_bernoulli():
    # no activations: likelihood decreasing in b, solution at epsilon
    data = _bernoulli_data(10, 0)
    result = fit_node(data, make_uniform())
    assert result.converged
    assert result.weights[0] == pytest.approx(1e-6, abs=0)
    assert result.at_boundary


def test_fit_non_convergence_returns_best_iterate(monkeypatch):
    graph = staggered_fit_graph()
    model = GltModel(graph, random_weights_within(graph, substream(39, "w")), make_uniform())
    dist = parent_subset_seed_distribution()
    traces = simulate_traces(
        model,
        [sample_seed(dist, graph, substream(39, "s", i)) for i in range(300)],
        [substream(39, "t", i) for i in range(300)],
    )
    data = build_node_data(traces, graph, 3)
    full = fit_node(data, make_uniform())
    monkeypatch.setattr(estimation, "_MAX_ITER", 1)
    starved = fit_node(data, make_uniform())
    assert not starved.converged
    assert np.all(np.isfinite(starved.weights))
    assert full.converged
    assert full.loglik >= starved.loglik


_CONCAVE_SPECS = [make_uniform(), make_exponential_unit()] + [make_beta(1, b) for b in range(1, 6)]
_NON_CONCAVE_SPECS = [make_beta(0.5, 2), make_beta(0.5, 1)]


def _node_fit_case(spec, seed, m, count):
    """Rows of the last node of a random DAG whose other m nodes are all its
    parents, from ``count`` traces seeded on random parent subsets."""
    rng = substream(seed, "case")
    edges = [(u, w) for u in range(m) for w in range(u + 1, m) if rng.random() < 0.4]
    graph = build_graph(m + 1, edges + [(u, m) for u in range(m)])
    model = GltModel(graph, random_weights_within(graph, rng), spec)
    seeds = [frozenset(np.flatnonzero(rng.random(m) < 0.4)) or {int(rng.integers(m))}
             for _ in range(count)]
    traces = simulate_traces(model, seeds, [substream(seed, "t", i) for i in range(count)])
    return build_node_data(traces, graph, m), spec


@st.composite
def node_fit_cases(draw, specs):
    data, spec = _node_fit_case(
        draw(st.sampled_from(specs)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 5)),
        draw(st.integers(5, 200)),
    )
    assume(data.n_informative_rows > 0)
    return data, spec


@settings(max_examples=200, deadline=None)
@given(case=node_fit_cases(_CONCAVE_SPECS))
# parents 1 and 3 are seen only together, so the Newton system is exactly
# singular; Newton-first stalls there without the least-squares step
@example(case=_node_fit_case(make_beta(1, 4), 546126798, 4, 5))
def test_newton_first_solver_matches_warm_up_reference(case):
    data, spec = case
    options = FitOptions()
    gamma = options.resolve_gamma(spec, len(data.parents))
    args = (data, spec, options.epsilon, gamma, estimation._TOL, estimation._MAX_ITER)
    theta, value, pg, _ = estimation._solve([data], *args[1:])[0]
    ref_theta, ref_value, ref_pg, _, _ = reference_maximize(*args)
    assert pg <= estimation._TOL
    event(f"reference certified: {ref_pg <= estimation._TOL}")
    if ref_pg > estimation._TOL:
        return
    assert value >= ref_value - 1e-9
    # With information at least mu, a point whose certificate is r lies
    # within r / mu of the maximizer, so both fits pin the weights to within
    # 1e-7 once mu >= 2 tol / 1e-7.  Flatter problems (a parent seen only in
    # a few rows, a density vanishing at the bound) leave them free to move.
    mu = np.linalg.eigvalsh(-reference_node_hessian(data, ref_theta, spec))[0]
    event(f"weights pinned: {mu >= 2 * estimation._TOL / 1e-7}")
    if mu >= 2 * estimation._TOL / 1e-7:
        assert np.abs(theta - ref_theta).max() <= 1e-7


@settings(max_examples=60, deadline=None)
@given(case=node_fit_cases(_NON_CONCAVE_SPECS))
# five traces leave an exactly singular Newton system after the warm-up;
# the old polish stalled there for the whole budget
@example(case=_node_fit_case(make_beta(0.5, 1), 2411598173, 5, 5))
def test_non_log_concave_fits_keep_the_warm_up(case):
    data, spec = case
    options = FitOptions()
    gamma = options.resolve_gamma(spec, len(data.parents))
    args = (data, spec, options.epsilon, gamma, estimation._TOL, estimation._MAX_ITER)
    theta, value, pg, it = estimation._solve([data], *args[1:])[0]
    ref_theta, ref_value, ref_pg, ref_it, singular = reference_maximize(*args)
    assert pg <= estimation._TOL
    event(f"singular Newton system: {singular}")
    if singular:
        # the old polish ended there; the least-squares step carries on
        assert value >= ref_value - 1e-9
        return
    assert theta.tobytes() == ref_theta.tobytes()
    assert (repr(value), repr(pg)) == (repr(ref_value), repr(ref_pg))
    # a fit where nothing moves any more now stops instead of spending the budget
    assert it == ref_it or (pg > estimation._TOL and it < ref_it)


@pytest.mark.filterwarnings("ignore:threshold density")
def test_non_log_concave_warm_up_avoids_a_lower_stationary_point():
    # Newton from the interior point settles on a stationary point whose
    # log-likelihood is 2.3 below the one the warm-up leads to
    data, spec = _node_fit_case(make_beta(0.5, 1), 2997430062, 4, 30)
    options = FitOptions()
    gamma = options.resolve_gamma(spec, len(data.parents))
    args = (data, spec, options.epsilon, gamma, estimation._TOL, estimation._MAX_ITER)
    _, newton_value, newton_pg, _, _ = reference_maximize(*args, warm_up=0)
    fit = fit_node(data, spec, options)
    assert fit.converged and newton_pg <= estimation._TOL
    assert fit.loglik > newton_value + 2.0


@settings(max_examples=150, deadline=None)
@given(case=node_fit_cases(_CONCAVE_SPECS + _NON_CONCAVE_SPECS), max_iter=st.integers(1, 40))
# needs several Newton steps after its 25-step warm-up, so an uncapped
# polish overshoots a budget of 26
@example(case=_node_fit_case(make_beta(1, 4), 1547324777, 4, 100), max_iter=26)
def test_fit_iterations_never_exceed_max_iter(case, max_iter):
    data, spec = case
    options = FitOptions()
    gamma = options.resolve_gamma(spec, len(data.parents))
    args = (data, spec, options.epsilon, gamma, estimation._TOL, max_iter)
    assert estimation._solve([data], *args[1:])[0][3] <= max_iter


@settings(max_examples=120, deadline=None)
@given(case=node_fit_cases(_CONCAVE_SPECS + _NON_CONCAVE_SPECS), max_iter=st.sampled_from([3, 30, 2000]))
@example(case=_node_fit_case(make_beta(1, 4), 546126798, 4, 5), max_iter=2000)  # singular
@example(case=_node_fit_case(make_beta(0.5, 1), 2411598173, 5, 5), max_iter=2000)
def test_batch_of_one_runs_the_per_node_solver_bit_for_bit(case, max_iter):
    data, spec = case
    options = FitOptions()
    gamma = options.resolve_gamma(spec, len(data.parents))
    args = (data, spec, options.epsilon, gamma, estimation._TOL, max_iter)
    theta, value, pg, it = estimation._solve([data], *args[1:])[0]
    ref_theta, ref_value, ref_pg, ref_it = reference_node_maximize(*args)
    assert theta.tobytes() == ref_theta.tobytes()
    assert (repr(value), repr(pg), it) == (repr(ref_value), repr(ref_pg), ref_it)


def _uninformative_node(node):
    rows = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    return NodeData(node, (0, 1), rows, rows, np.full(2, -1, dtype=np.int8), np.zeros(2, dtype=np.int64))


def _degenerate_node(node):
    # an activation row with no newly active parent: its factor F(x) - F(x)
    # vanishes at every theta, the interior starting point included
    z = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    return NodeData(node, (0, 1, 2), z, z, np.array([1, 0], dtype=np.int8), np.arange(2))


@st.composite
def fit_groups(draw):
    spec = draw(st.sampled_from(_CONCAVE_SPECS))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=6))
    datasets = {}
    for seed in seeds:
        data, _ = _node_fit_case(spec, seed, draw(st.integers(1, 8)), draw(st.integers(5, 150)))
        node = len(datasets)
        datasets[node] = dataclasses.replace(data, node=node)
    datasets[len(datasets)] = _uninformative_node(len(datasets))
    datasets[len(datasets)] = _degenerate_node(len(datasets))
    return datasets, spec


@settings(max_examples=40, deadline=None)
@given(group=fit_groups())
def test_lockstep_batches_match_each_nodes_own_fit(group):
    datasets, spec = group
    fits = fit_all(datasets, spec)
    assert "no informative rows" in fits[len(datasets) - 2].error
    assert "degenerate at the interior starting point" in fits[len(datasets) - 1].error
    for v, data in datasets.items():
        try:
            alone = fit_node(data, spec)
        except EstimationError as exc:
            assert fits[v].error == str(exc)
            continue
        fit = fits[v]
        assert fit.estimated and fit.converged == alone.converged
        assert fit.loglik == pytest.approx(alone.loglik, abs=1e-9)
        mu = np.linalg.eigvalsh(-reference_node_hessian(data, alone.weights, spec))[0]
        event(f"weights pinned: {mu >= 2 * estimation._TOL / 1e-7}")
        if mu >= 2 * estimation._TOL / 1e-7:
            assert np.abs(fit.weights - alone.weights).max() <= 1e-7


def _replication_datasets(seeds, n=30):
    """Node datasets of one CWS replication per seed, keyed by ``(rep, v)``:
    node ids repeat across replications."""
    datasets = {}
    for rep, seed in enumerate(seeds):
        graph = generate_cws(n, 4, 0.2, substream(seed, "g"))
        model = GltModel(graph, sample_weights_simplex(graph, 0.9, substream(seed, "w")), make_beta(1, 3))
        dist = SeedDistribution.uniform_by_size(3)
        traces = simulate_traces(
            model,
            [sample_seed(dist, graph, substream(seed, "s", i)) for i in range(300)],
            [substream(seed, "t", i) for i in range(300)],
        )
        datasets.update({(rep, v): data for v, data in build_all_node_data(traces, graph).items()})
    return datasets


def test_fit_all_results_do_not_depend_on_the_order_of_datasets():
    # keys label datasets: node ids repeat across the three replications
    datasets = _replication_datasets([41, 42, 43])
    order = list(datasets)
    substream(41, "order").shuffle(order)
    shuffled = {key: datasets[key] for key in order}
    for spec in (make_uniform(), make_beta(1, 3)):
        forward, permuted = fit_all(datasets, spec), fit_all(shuffled, spec)
        assert list(permuted) == order
        assert all(_fit_fields(forward[key]) == _fit_fields(permuted[key]) for key in datasets)
    forward = fit_with_threshold_grid(datasets, [(1, 2), (1, 3)])
    permuted = fit_with_threshold_grid(shuffled, [(1, 2), (1, 3)])
    assert list(permuted) == order
    assert all(_fit_fields(forward[key]) == _fit_fields(permuted[key]) for key in datasets)


def test_fits_keyed_by_replication_match_each_replications_own_fit():
    # one call over (rep, v) keys gives each key its own replication's fit,
    # within the gates of scripts/fit_diff.py and with the same grid choice
    datasets = _replication_datasets([44, 45], n=16)
    grid = tuple((1, b) for b in range(1, 6))
    for fit in (lambda d: fit_all(d, make_uniform()), lambda d: fit_all(d, make_exponential_unit()),
                lambda d: fit_with_threshold_grid(d, grid)):
        joint = fit(datasets)
        for rep in (0, 1):
            alone = fit({v: data for (r, v), data in datasets.items() if r == rep})
            for v, want in alone.items():
                got = joint[rep, v]
                assert _within_fit_diff_gates(got, want) and got.phi == want.phi, (rep, v)
                assert got.node == want.node == v


def test_fit_no_informative_rows():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    data = build_node_data([Trace([{1}])], g, 1)
    with pytest.raises(EstimationError):
        fit_node(data, make_uniform())


def test_fit_warns_for_non_log_concave():
    data = _bernoulli_data(10, 4)
    with pytest.warns(UserWarning, match="local optimum"):
        fit_node(data, make_beta(0.5, 2))


def test_fit_options_validation():
    with pytest.raises(EstimationError):
        FitOptions(epsilon=0.0)
    with pytest.raises(EstimationError):
        FitOptions(gamma=1e-9).resolve_gamma(make_uniform(), 4)
    with pytest.raises(EstimationError):
        FitOptions(gamma=2.0).resolve_gamma(make_uniform(), 1)


@pytest.mark.parametrize(
    "spec,options",
    [
        (make_uniform(), FitOptions()),
        (make_exponential_unit(), FitOptions(gamma=1.0)),
        (make_beta(2, 2), FitOptions()),
    ],
    ids=["uniform", "exponential", "beta22"],
)
def test_fit_matches_dense_grid_search(spec, options):
    graph = staggered_fit_graph()
    seed_dist = parent_subset_seed_distribution()
    rng = substream(33, "grid", spec.family)
    weights = random_weights_within(graph, rng, scale=0.85)
    model = GltModel(graph, weights, spec)
    traces = simulate_traces(
        model,
        [sample_seed(seed_dist, graph, substream(33, "seed", spec.family, i)) for i in range(900)],
        [substream(33, "sim", spec.family, i) for i in range(900)],
    )
    for v in (1, 2, 3):
        data = build_node_data(traces, graph, v)
        fit = fit_node(data, spec, options)
        assert fit.converged
        gamma = options.resolve_gamma(spec, len(data.parents))
        oracle = dense_grid_argmax(data, spec, options.epsilon, gamma, step=0.005)
        assert np.max(np.abs(fit.weights - oracle)) < 0.01, (v, fit.weights, oracle)


def test_fit_certificate_and_exact_feasibility():
    graph = generate_cws(20, 4, 0.2, substream(34, "g"))
    weights = sample_weights_simplex(graph, 1.0, substream(34, "w"))
    model = from_lt(graph, weights)
    dist = SeedDistribution.uniform_by_size(4)
    traces = simulate_traces(
        model,
        [sample_seed(dist, graph, substream(34, "s", i)) for i in range(800)],
        [substream(34, "t", i) for i in range(800)],
    )
    fits = fit_all(build_all_node_data(traces, graph), make_uniform())
    for v, fit in fits.items():
        assert fit.estimated
        assert fit.converged
        assert fit.projected_gradient_norm <= 1e-8
        assert np.all(fit.weights >= fit.epsilon)  # exact feasibility
        assert fit.weights.sum() <= fit.gamma


def test_fit_all_flags_uninformative_nodes():
    g = build_graph(4, [(0, 1), (2, 3)])
    traces = [Trace([{0}, {1}]), Trace([{0}])]  # node 3 never exposed
    fits = fit_all(build_all_node_data(traces, g), make_uniform())
    assert fits[1].estimated
    assert not fits[3].estimated
    assert "no informative" in fits[3].error


@pytest.mark.parametrize(
    "keys, bad",
    [([(0, 1), (0, 3)], "(0, 1)"), ([1, 3], "3"), ([1, -1], "-1"), ([0, True], "True")],
)
def test_fit_all_rejects_keys_that_index_no_spec(keys, bad):
    # a spec sequence is indexed by node id: other keys need a single spec
    g = build_graph(4, [(0, 1), (2, 3)])
    data = build_all_node_data([Trace([{0, 2}, {1, 3}])], g)
    datasets = {key: data[1] for key in keys}
    with pytest.raises(EstimationError, match=f"dataset key {re.escape(bad)} indexes no spec of the 3 given"):
        fit_all(datasets, [make_uniform()] * 3)
    assert all(fit.estimated for fit in fit_all(datasets, make_uniform()).values())


def test_fit_all_order_invariant():
    graph = staggered_fit_graph()
    model = GltModel(graph, random_weights_within(graph, substream(35, "w")), make_uniform())
    dist = parent_subset_seed_distribution()
    traces = simulate_traces(
        model,
        [sample_seed(dist, graph, substream(35, "s", i)) for i in range(300)],
        [substream(35, "t", i) for i in range(300)],
    )
    forward = fit_all(build_all_node_data(traces, graph), make_uniform())
    backward = fit_all(build_all_node_data(list(reversed(traces)), graph), make_uniform())
    for v in forward:
        assert np.allclose(forward[v].weights, backward[v].weights, atol=1e-12)


def test_consistency_trend_mini():
    # quick version of the rate check: mini replication, nested trace counts
    rmaes = {200: [], 1600: []}
    for rep in range(3):
        graph = generate_cws(20, 4, 0.2, substream(37, "g", rep))
        weights = sample_weights_simplex(graph, 1.0, substream(37, "w", rep))
        model = from_lt(graph, weights)
        dist = SeedDistribution.uniform_by_size(4)
        traces = simulate_traces(
            model,
            [sample_seed(dist, graph, substream(37, "s", rep, i)) for i in range(1600)],
            [substream(37, "t", rep, i) for i in range(1600)],
        )
        for count in (200, 1600):
            fits = fit_all(build_all_node_data(traces[:count], graph), make_uniform())
            est = np.zeros(graph.edge_count())
            for v, fit in fits.items():
                if fit.estimated:
                    est[graph.child_slice(v)] = fit.weights
            rmaes[count].append(rmae(weights, est))
    assert np.median(rmaes[1600]) < np.median(rmaes[200])


def test_grid_fit_selects_highest_loglik():
    graph = staggered_fit_graph()
    model = GltModel(graph, random_weights_within(graph, substream(38, "w")), make_beta(1, 3))
    dist = parent_subset_seed_distribution()
    traces = simulate_traces(
        model,
        [sample_seed(dist, graph, substream(38, "s", i)) for i in range(600)],
        [substream(38, "t", i) for i in range(600)],
    )
    data = build_node_data(traces, graph, 3)
    grid = tuple((1, b) for b in range(1, 6))
    best = fit_with_threshold_grid({3: data}, grid, FitOptions())[3]
    assert best.phi["family"] == "beta"
    for phi in grid:
        single = fit_node(data, make_beta(*phi), FitOptions())
        assert best.loglik >= single.loglik - 1e-9


def test_grid_of_one_reduces_to_fit_node():
    data = _bernoulli_data(20, 7)
    single = fit_node(data, make_beta(1, 2), FitOptions())
    grid = fit_with_threshold_grid({1: data}, [(1, 2)], FitOptions())[1]
    assert np.allclose(grid.weights, single.weights, atol=1e-12)
    assert grid.phi == {"family": "beta", "params": (1, 2)}


def test_grid_records_a_node_whose_every_grid_fit_failed():
    datasets = {1: _bernoulli_data(10, 4), 2: _bernoulli_data(10, 4)}
    results = fit_with_threshold_grid(datasets, [(0.5, 0.5)], FitOptions())
    assert list(results) == [1, 2]
    for result in results.values():
        assert not result.estimated and result.spec is None
        assert result.error == "all grid fits failed: (0.5, 0.5): not fit-safe (density not log-concave)"


def test_baseline_wc():
    g = build_graph(3, [(0, 2), (1, 2)])
    assert np.allclose(baseline_wc(g), [0.5, 0.5])


def test_baseline_ptp_always_before():
    g = build_graph(3, [(0, 2), (1, 2)])
    traces = [Trace([{0}, {2}]), Trace([{0}, {2}]), Trace([{1}])]
    w = baseline_ptp(traces, g)
    # parent 0 activates before node 2 in every trace containing it;
    # parent 1 never does: all mass on edge (0, 2)
    assert np.allclose(w, [1.0, 0.0])


def test_baseline_ptp_refuses_an_infeasible_trace():
    # on 0 -> 1 -> 2, node 2 cannot follow the seed {0}; the weights read [1, 1]
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ModelError, match="node 2 activates at time 1 without a newly activated parent"):
        baseline_ptp([[{0}, {2}]], g)


def test_baseline_ptp_normalizes_and_falls_back():
    g = build_graph(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    traces = [Trace([{0}, {2}]), Trace([{1}, {2}])]
    w = baseline_ptp(traces, g)
    assert w[g.child_slice(2)].sum() == pytest.approx(1.0)
    # node 3 never activated: uniform fallback
    assert np.allclose(w[g.child_slice(3)], [0.5, 0.5])


def _fit_fields(fit):
    if not fit.estimated:
        return fit.error
    return (
        fit.weights.tobytes(),
        repr(fit.loglik),
        repr(fit.projected_gradient_norm),
        fit.iterations,
        fit.converged,
        fit.phi,
    )


def _stacked_reference_kernel(calls):
    """A kernel for the lockstep solver that evaluates each member on its own
    through the per-call public-method references, for ``estimation._stack``
    replaced by ``lambda datas, m: list(datas)``."""

    def kernel(datas, theta, spec, order):
        calls.append(len(datas))
        n, m = theta.shape
        value, grad, hess = np.empty(n), np.zeros((n, m)), np.zeros((n, m, m))
        vanished = np.zeros(n, dtype=int)
        for b, data in enumerate(datas):
            k = len(data.parents)
            try:
                value[b], grad[b, :k] = reference_node_value_and_gradient(data, theta[b, :k], spec)
                hess[b, :k, :k] = reference_node_hessian(data, theta[b, :k], spec)
            except ZeroProbabilityError:
                value[b], vanished[b] = -np.inf, 1
        return value, grad, hess, vanished

    return kernel


def _within_fit_diff_gates(got, want):
    # the gates of scripts/fit_diff.py, with want as A and got as B
    if (got.estimated, got.converged) != (want.estimated, want.converged):
        return False
    if not got.estimated:
        return got.error == want.error
    return np.abs(got.weights - want.weights).max() <= 1e-7 and got.loglik >= want.loglik - 1e-9


def test_fits_match_reference_kernel(monkeypatch):
    # the solver driven by the shared kernel and by a per-member kernel made
    # of the per-call references: a batch of one reaches the same iterates
    # bit for bit (weights, loglik, certificate, iteration count) for every
    # family and for grid fits; full batches, whose zero padding moves low
    # bits, stay within the fit_diff gates
    graph = generate_cws(14, 4, 0.2, substream(39, "g"))
    model = GltModel(graph, sample_weights_simplex(graph, 0.9, substream(39, "w")), make_beta(1, 3))
    dist = SeedDistribution.uniform_by_size(3)
    traces = simulate_traces(
        model,
        [sample_seed(dist, graph, substream(39, "s", i)) for i in range(300)],
        [substream(39, "t", i) for i in range(300)],
    )
    datasets = build_all_node_data(traces, graph)
    specs = (make_uniform(), make_exponential_unit(), make_beta(1, 3), make_beta(2, 2))
    grid = tuple((1, b) for b in range(1, 6)) + ((2, 2),)
    informative = {v: d for v, d in datasets.items() if d.n_informative_rows}

    def run():
        singles = [
            fit_node(data, spec) if v in informative else None
            for spec in specs for v, data in datasets.items()
        ]
        singles += [fit_with_threshold_grid({v: informative[v]}, grid)[v] for v in list(informative)[:5]]
        batches = [fit for spec in specs for fit in fit_all(datasets, spec).values()]
        batches += list(fit_with_threshold_grid(informative, grid).values())
        return singles, batches

    got_singles, got_batches = run()
    calls = []
    monkeypatch.setattr(estimation, "_stack", lambda datas, m: list(datas))
    monkeypatch.setattr(estimation, "_evaluate", _stacked_reference_kernel(calls))
    want_singles, want_batches = run()
    assert calls and max(calls) > 1
    assert sum(f is not None for f in got_singles) >= 40
    assert [_fit_fields(f) for f in got_singles if f] == [_fit_fields(f) for f in want_singles if f]
    assert len(got_batches) == len(want_batches) >= 60
    assert all(_within_fit_diff_gates(g, w) for g, w in zip(got_batches, want_batches))
