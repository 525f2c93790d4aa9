import numpy as np
import pytest

from gltnet import (
    ActivationHistory,
    CovarianceResult,
    GltModel,
    InferenceError,
    Interval,
    NodeData,
    SeedDistribution,
    Trace,
    activation_probability_interval,
    build_graph,
    build_node_data,
    fit_node,
    make_exponential_unit,
    make_uniform,
    node_covariance,
    sample_seed,
    simulate_traces,
    transition_probability,
    weight_difference_test,
    weight_intervals,
)
from gltnet.estimation import NodeFitResult
from gltnet.likelihood import ROW_ACTIVATED
from gltnet.rng import substream

from conftest import random_weights_within, staggered_fit_graph, parent_subset_seed_distribution


def _bernoulli_data(n, k):
    g = build_graph(2, [(0, 1)])
    traces = [Trace([{0}, {1}])] * k + [Trace([{0}])] * (n - k)
    return build_node_data(traces, g, 1)


def _fake_fit(weights, parents=(0,), spec=None):
    spec = spec or make_uniform()
    w = np.asarray(weights, dtype=float)
    return NodeFitResult(
        node=99,
        parents=tuple(parents),
        weights=w,
        converged=True,
        loglik=0.0,
        n_obs=10,
        epsilon=1e-6,
        gamma=0.999999,
        spec=spec,
    )


def test_bernoulli_covariance_closed_form():
    n, k = 50, 20
    data = _bernoulli_data(n, k)
    b_hat = k / n
    cov = node_covariance(data, np.array([b_hat]), make_uniform())
    assert cov.valid
    assert cov.sigma[0, 0] == pytest.approx(b_hat * (1 - b_hat) / n, rel=1e-10)


def test_covariance_matches_fd_hessian_inverse():
    from gltnet import node_gradient

    graph = staggered_fit_graph()
    model = GltModel(graph, random_weights_within(graph, substream(41, "w")), make_uniform())
    dist = parent_subset_seed_distribution()
    traces = simulate_traces(
        model,
        [sample_seed(dist, graph, substream(41, "s", i)) for i in range(400)],
        [substream(41, "t", i) for i in range(400)],
    )
    data = build_node_data(traces, graph, 3)
    fit = fit_node(data, make_uniform())
    cov = node_covariance(data, fit.weights, make_uniform())
    assert cov.valid
    step = 1e-6
    m = 3
    fd_hess = np.zeros((m, m))
    for i in range(m):
        plus, minus = fit.weights.copy(), fit.weights.copy()
        plus[i] += step
        minus[i] -= step
        fd_hess[i] = (
            node_gradient(data, plus, make_uniform())
            - node_gradient(data, minus, make_uniform())
        ) / (2 * step)
    fd_sigma = np.linalg.inv(-(fd_hess + fd_hess.T) / 2)
    assert np.allclose(cov.sigma, fd_sigma, rtol=1e-4)


def test_duplicating_rows_halves_covariance():
    data = _bernoulli_data(40, 10)
    theta = np.array([0.25])
    cov1 = node_covariance(data, theta, make_uniform())
    data2 = _bernoulli_data(80, 20)
    cov2 = node_covariance(data2, theta, make_uniform())
    assert np.allclose(cov2.sigma, cov1.sigma / 2, rtol=1e-12)


def test_invalid_covariance_flagged():
    # two perfectly collinear parents: singular information
    g = build_graph(3, [(0, 2), (1, 2)])
    traces = [Trace([{0, 1}, {2}])] * 5 + [Trace([{0, 1}])] * 5
    data = build_node_data(traces, g, 2)
    cov = node_covariance(data, np.array([0.2, 0.2]), make_uniform())
    assert not cov.valid
    assert cov.min_eigenvalue <= 1e-9
    with pytest.raises(InferenceError):
        weight_intervals(_fake_fit([0.2, 0.2], (0, 1)), cov)


def test_singular_information_with_positive_rounded_eigenvalue_flagged():
    # parent 2 appears in no row, so its information row and column are zero;
    # eigvalsh rounds the zero eigenvalue to about +4e-13 and inv must not
    # be left to raise
    z_prev = np.zeros((10, 5), dtype=np.uint8)
    z_prev[9] = [0, 1, 0, 1, 0]
    z_curr = np.array(
        [[0, 0, 0, 1, 0]] * 2 + [[0, 1, 0, 0, 0]] * 2 + [[1, 0, 0, 0, 0]] * 2
        + [[1, 0, 0, 0, 1]] * 2 + [[1, 0, 0, 1, 0], [1, 1, 0, 1, 0]],
        dtype=np.uint8,
    )
    data = NodeData(
        node=0,
        parents=(1, 2, 3, 4, 5),
        z_prev=z_prev,
        z_curr=z_curr,
        outcome=np.full(10, ROW_ACTIVATED, dtype=np.int8),
        trace_index=np.arange(10),
    )
    theta = np.array(
        [0.062434545435244383, 0.022728251077556126, 1e-6, 0.038757504134615851, 1e-6]
    )
    cov = node_covariance(data, theta, make_exponential_unit())
    assert not cov.valid
    assert cov.sigma is None
    assert cov.message == "observed information is singular or indefinite"
    with pytest.raises(InferenceError):
        weight_intervals(_fake_fit(theta, data.parents, make_exponential_unit()), cov)


def test_interval_arithmetic():
    fit = _fake_fit([0.4])
    cov = CovarianceResult(node=99, sigma=np.array([[0.0025]]), valid=True, min_eigenvalue=0.0025)
    (interval,) = weight_intervals(fit, cov, level=0.95)
    assert interval.lower == pytest.approx(0.302, abs=5e-4)
    assert interval.upper == pytest.approx(0.498, abs=5e-4)
    assert interval.contains(0.4)


def test_interval_degenerate_zero_variance():
    fit = _fake_fit([0.4])
    cov = CovarianceResult(node=99, sigma=np.array([[0.0]]), valid=True, min_eigenvalue=0.0)
    (interval,) = weight_intervals(fit, cov)
    assert interval.lower == interval.upper == pytest.approx(0.4)


def test_interval_respects_support():
    fit = _fake_fit([0.05])
    cov = CovarianceResult(node=99, sigma=np.array([[0.25]]), valid=True, min_eigenvalue=0.25)
    (interval,) = weight_intervals(fit, cov)
    assert interval.lower == 0.0
    assert interval.upper <= 1.0


def test_interval_validation():
    with pytest.raises(InferenceError):
        Interval(0.5, 0.4, 0.95)
    with pytest.raises(InferenceError):
        Interval(0.1, 0.2, 1.5)
    fit = _fake_fit([0.4])
    cov = CovarianceResult(node=99, sigma=np.array([[0.01]]), valid=True, min_eigenvalue=0.01)
    with pytest.raises(InferenceError):
        weight_intervals(fit, cov, level=0.0)


def test_weight_difference_test_basics():
    fit = _fake_fit([0.3, 0.3], parents=(5, 7))
    sigma = np.array([[0.01, 0.002], [0.002, 0.02]])
    cov = CovarianceResult(node=99, sigma=sigma, valid=True, min_eigenvalue=0.01)
    z, p = weight_difference_test(fit, cov, 5, 7)
    assert z == 0.0
    assert p == pytest.approx(1.0)
    fit2 = _fake_fit([0.4, 0.2], parents=(5, 7))
    z1, p1 = weight_difference_test(fit2, cov, 5, 7)
    z2, p2 = weight_difference_test(fit2, cov, 7, 5)
    assert z1 == pytest.approx(-z2)
    assert p1 == pytest.approx(p2)
    assert z1 == pytest.approx(0.2 / np.sqrt(0.01 + 0.02 - 2 * 0.002))
    with pytest.raises(InferenceError):
        weight_difference_test(fit2, cov, 5, 99)


def test_weight_difference_type_i_error():
    # equal true weights: rejection rate at level 0.05 should be near 0.05
    g = build_graph(3, [(0, 2), (1, 2)])
    model = GltModel(g, np.array([0.3, 0.3]), make_uniform())
    dist = parent_subset_seed_distribution()
    rejections = 0
    reps = 500
    used = 0
    for rep in range(reps):
        traces = simulate_traces(
            model,
            [sample_seed(dist, g, substream(42, "s", rep, i)) for i in range(400)],
            [substream(42, "t", rep, i) for i in range(400)],
        )
        data = build_node_data(traces, g, 2)
        fit = fit_node(data, make_uniform())
        if fit.at_boundary:
            continue
        cov = node_covariance(data, fit.weights, make_uniform())
        if not cov.valid:
            continue
        used += 1
        _, p = weight_difference_test(fit, cov, 0, 1)
        rejections += int(p < 0.05)
    assert used >= 450
    rate = rejections / used
    assert 0.03 <= rate <= 0.08, rate


def test_activation_probability_interval_zero_influence():
    # node 3's only parent is 0; a frontier of {1} exerts no influence
    g = build_graph(5, [(0, 4), (1, 4), (2, 4), (0, 3)])
    fit = _fake_fit([0.2], parents=(0,))
    fit.node = 3
    cov = CovarianceResult(node=3, sigma=np.array([[0.01]]), valid=True, min_eigenvalue=0.01)
    point, interval = activation_probability_interval(
        fit, cov, g, ActivationHistory([{1}]), 1, 0.95
    )
    assert point == 0.0
    assert interval.width == 0.0


def test_activation_probability_interval_rejects_times_outside_history():
    g = build_graph(2, [(0, 1)])
    fit = _fake_fit([0.2])
    fit.node = 1
    cov = CovarianceResult(node=1, sigma=np.array([[0.01]]), valid=True, min_eigenvalue=0.01)
    hist = ActivationHistory([{0}])
    for t in (0, 2, -1):
        with pytest.raises(InferenceError, match=f"time {t} outside the history"):
            activation_probability_interval(fit, cov, g, hist, t)
    point, _ = activation_probability_interval(fit, cov, g, hist, 1)
    assert point == pytest.approx(0.2)


def test_activation_probability_gradient_matches_fd():
    graph = staggered_fit_graph()
    model = GltModel(graph, random_weights_within(graph, substream(43, "w")), make_uniform())
    dist = parent_subset_seed_distribution()
    traces = simulate_traces(
        model,
        [sample_seed(dist, graph, substream(43, "s", i)) for i in range(400)],
        [substream(43, "t", i) for i in range(400)],
    )
    data = build_node_data(traces, graph, 3)
    fit = fit_node(data, make_uniform())
    cov = node_covariance(data, fit.weights, make_uniform())
    hist = ActivationHistory([{0}, {1}])
    point, interval = activation_probability_interval(fit, cov, graph, hist, 2, 0.95)

    def g_of(theta):
        m = GltModel(graph, _weights_with(graph, 3, theta, model.weights), make_uniform())
        return transition_probability(m, hist, 3, 2)

    step = 1e-6
    fd_grad = np.zeros(3)
    for i in range(3):
        plus, minus = fit.weights.copy(), fit.weights.copy()
        plus[i] += step
        minus[i] -= step
        fd_grad[i] = (g_of(plus) - g_of(minus)) / (2 * step)
    fd_var = float(fd_grad @ cov.sigma @ fd_grad)
    z = 1.959963984540054
    half = interval.width / 2
    expected_half = z * np.sqrt(fd_var)
    # interval may be clipped at 0/1; compare when unclipped
    if 0 < interval.lower and interval.upper < 1:
        assert half == pytest.approx(expected_half, rel=1e-5)
    assert point == pytest.approx(g_of(fit.weights), rel=1e-12)


def _weights_with(graph, v, theta_v, base):
    w = base.copy()
    w[graph.child_slice(v)] = theta_v
    return w


def test_interval_coverage_quick():
    # 95% Wald coverage at interior estimates, pooled over a small batch
    g = build_graph(3, [(0, 2), (1, 2)])
    truth = np.array([0.35, 0.25])
    model = GltModel(g, truth, make_uniform())
    dist = parent_subset_seed_distribution()
    covered = total = 0
    for rep in range(120):
        traces = simulate_traces(
            model,
            [sample_seed(dist, g, substream(44, "s", rep, i)) for i in range(400)],
            [substream(44, "t", rep, i) for i in range(400)],
        )
        data = build_node_data(traces, g, 2)
        fit = fit_node(data, make_uniform())
        if fit.at_boundary:
            continue
        cov = node_covariance(data, fit.weights, make_uniform())
        if not cov.valid:
            continue
        for b, interval in zip(truth, weight_intervals(fit, cov, 0.95)):
            total += 1
            covered += int(interval.contains(b))
    assert total >= 200
    assert 0.88 <= covered / total <= 0.99
