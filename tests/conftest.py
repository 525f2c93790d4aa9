"""Shared graphs, model builders, and independent oracles for the tests."""

import functools
import inspect
import sys

import numpy as np
import pytest

from gltnet import (
    ExactSpreadOracle,
    GltModel,
    Graph,
    ModelError,
    Trace,
    build_graph,
    children_of_set,
    estimate_spread_mc,
    make_beta,
    make_exponential_unit,
    make_uniform,
    spread_bipartite_closed_form,
)
from gltnet.influence import ImSolution, SpreadEstimate
from gltnet.rng import as_generator, substream


def count_calls(monkeypatch, fn):
    """Count the calls of ``fn`` made anywhere in gltnet.

    ``fn`` is replaced, in every ``gltnet`` module namespace that bound it,
    by a wrapper that keeps its behaviour and records each call's bound
    arguments in the returned list.
    """
    calls = []
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "gltnet" or name.startswith("gltnet.")):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


@pytest.fixture
def path3():
    """0 -> 1 -> 2."""
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star2():
    """Parents 0, 1 -> child 2."""
    return build_graph(3, [(0, 2), (1, 2)])


@pytest.fixture
def star3():
    """Parents 0, 1, 2 -> child 3."""
    return build_graph(4, [(0, 3), (1, 3), (2, 3)])


@pytest.fixture
def diamond():
    """0 -> {1, 2} -> 3."""
    return build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def random_simple_digraph(n, edge_prob, rng):
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < edge_prob:
                edges.append((u, v))
    return build_graph(n, edges)


def random_weights_within(graph, rng, scale=0.9):
    """Random per-child weights with ||theta_v||_1 <= scale."""
    weights = np.zeros(graph.edge_count())
    for v in range(graph.n):
        m = graph.in_degree(v)
        if m:
            raw = rng.random(m)
            total = raw.sum()
            cap = scale * rng.uniform(0.3, 1.0)
            weights[graph.child_slice(v)] = raw / total * cap
    return weights


def ic_trace_probability(graph, edge_prob, trace):
    """Direct independent-cascade trace probability (product form).

    Independent of the package's threshold machinery: multiplies per-step
    activation probabilities 1 - prod(1 - p) over newly active parents and
    the complementary factors for exposed nodes that stay inactive.
    """
    p = {e: edge_prob[i] for i, e in enumerate(graph.edges)}
    steps = trace.steps
    active = set(steps[0])
    prob = 1.0
    for t in range(1, len(steps) + 1):
        frontier = steps[t - 1]
        newly = steps[t] if t < len(steps) else frozenset()
        for v in sorted(children_of_set(graph, frontier) - active):
            stay = 1.0
            for u in frontier & graph.parents(v):
                stay *= 1.0 - p[(u, v)]
            p_act = 1.0 - stay
            prob *= p_act if v in newly else 1.0 - p_act
        active |= newly
    return prob


def naive_loglik(z_prev, z_curr, outcome, theta, cdf):
    """Plain-loop node log-likelihood; oracle for the vectorized paths."""
    from gltnet.likelihood import ROW_ACTIVATED, ROW_TERMINAL

    total = 0.0
    for zp, zc, kind in zip(z_prev, z_curr, outcome):
        x = float(np.dot(zc, theta))
        y = float(np.dot(zp, theta))
        if kind == ROW_ACTIVATED:
            total += np.log(cdf(x) - cdf(y))
        elif kind == ROW_TERMINAL:
            total += np.log(1.0 - cdf(x))
    return total


def reference_build_node_data(traces, graph, v, validate=True):
    """Node v's rows by a per-node walk over every trace's steps; oracle for
    the activation-round table in ``gltnet.likelihood``."""
    from gltnet import validate_trace
    from gltnet.likelihood import ROW_ACTIVATED, ROW_FOLDED, ROW_TERMINAL, NodeData

    parents = graph.parent_list(v)
    if not parents:
        raise ValueError(f"node {v} has no parents")
    index = {u: j for j, u in enumerate(parents)}
    m = len(parents)
    zp_rows, zc_rows, outcomes, trace_ids = [], [], [], []
    for n, trace in enumerate(traces):
        if validate:
            trace = validate_trace(graph, trace)
        elif not isinstance(trace, Trace):
            trace = Trace(trace)
        if v in trace.steps[0]:
            continue
        activated_at = None
        for t in range(1, len(trace.steps)):
            if v in trace.steps[t]:
                activated_at = t
                break
        last_inactive = (activated_at - 1) if activated_at else trace.horizon
        cum = np.zeros(m, dtype=np.uint8)
        gains = []  # cumulative indicator after each gain time <= last_inactive
        for t in range(last_inactive + 1):
            hit = False
            for u in trace.steps[t]:
                j = index.get(u)
                if j is not None:
                    cum[j] = 1
                    hit = True
            if hit:
                gains.append(cum.copy())
        if not gains:
            continue
        prev = np.zeros(m, dtype=np.uint8)
        for i, z in enumerate(gains):
            last = i == len(gains) - 1
            if last:
                kind = ROW_ACTIVATED if activated_at else ROW_TERMINAL
            else:
                kind = ROW_FOLDED
            zp_rows.append(prev)
            zc_rows.append(z)
            outcomes.append(kind)
            trace_ids.append(n)
            prev = z
    return NodeData(
        node=v,
        parents=parents,
        z_prev=np.array(zp_rows, dtype=np.uint8).reshape(len(outcomes), m),
        z_curr=np.array(zc_rows, dtype=np.uint8).reshape(len(outcomes), m),
        outcome=np.array(outcomes, dtype=np.int8),
        trace_index=np.array(trace_ids, dtype=np.int64),
    )


def reference_baseline_ptp(traces, graph):
    """PTP weights from per-trace activation-time dicts; oracle for
    ``gltnet.baseline_ptp``."""
    from gltnet.estimation import _cap_unit_sum

    traces = [t if isinstance(t, Trace) else Trace(t) for t in traces]
    times = []
    for trace in traces:
        at = {}
        for t, step in enumerate(trace.steps):
            for v in step:
                at[v] = t
        times.append(at)
    weights = np.zeros(graph.edge_count())
    for v in range(graph.n):
        parents = graph.parent_list(v)
        if not parents:
            continue
        raw = np.zeros(len(parents))
        for j, u in enumerate(parents):
            num = 0
            den = 0
            for at in times:
                tu = at.get(u)
                if tu is None:
                    continue
                den += 1
                tv = at.get(v)
                if tv is not None and tu < tv:
                    num += 1
            raw[j] = num / den if den else 0.0
        total = raw.sum()
        if total > 0:
            raw /= total
        else:
            raw[:] = 1.0 / len(parents)
        weights[graph.child_slice(v)] = _cap_unit_sum(raw)
    return weights


def _reference_zero_on_empty(values, patterns):
    # an all-zero indicator row contributes nothing regardless of the density
    # value at 0, which may be infinite (e.g. beta with alpha < 1)
    empty = patterns.sum(axis=1) == 0
    if np.any(empty):
        values = np.where(empty, 0.0, values)
    return values


def _reference_interval_terms(node_data, theta, spec):
    from gltnet import ZeroProbabilityError

    zp_a, zc_a, w_a, zc_t, w_t = node_data.compressed()
    theta = np.asarray(theta, dtype=float)
    x_a = zc_a @ theta
    y_a = zp_a @ theta
    x_t = zc_t @ theta
    diffs = spec.interval_prob(x_a, y_a)
    surv = spec.sf(x_t)
    tol = spec.interval_zero_tol()
    if np.any(np.asarray(diffs) <= tol):
        raise ZeroProbabilityError(
            node_data.node, None, "activation factor vanished at this theta"
        )
    if np.any(np.asarray(surv) <= tol):
        raise ZeroProbabilityError(
            node_data.node, None, "survival factor vanished at this theta"
        )
    return (zp_a, zc_a, w_a, zc_t, w_t, x_a, y_a, x_t, np.asarray(diffs), np.asarray(surv))


def reference_node_log_likelihood(node_data, theta, spec):
    """Node log-likelihood through the public threshold methods.

    Reference for ``gltnet.likelihood.node_log_likelihood``: every quantity is
    computed by a separate, argument-checked ``ThresholdSpec`` call.
    """
    zp_a, zc_a, w_a, zc_t, w_t, x_a, y_a, x_t, diffs, surv = _reference_interval_terms(
        node_data, theta, spec
    )
    total = 0.0
    if w_a.size:
        total += float(w_a @ spec.log_interval_prob(x_a, y_a))
    if w_t.size:
        total += float(w_t @ spec.log_sf(x_t))
    return total


def reference_node_value_and_gradient(node_data, theta, spec):
    """Reference for ``gltnet.likelihood.node_value_and_gradient``."""
    zp_a, zc_a, w_a, zc_t, w_t, x_a, y_a, x_t, diffs, surv = _reference_interval_terms(
        node_data, theta, spec
    )
    m = len(node_data.parents)
    value = 0.0
    grad = np.zeros(m)
    if w_a.size:
        value += float(w_a @ spec.log_interval_prob(x_a, y_a))
        fx = spec.density(x_a)
        fy = _reference_zero_on_empty(spec.density(y_a), zp_a)
        grad += zc_a.T @ (w_a * fx / diffs) - zp_a.T @ (w_a * fy / diffs)
    if w_t.size:
        value += float(w_t @ spec.log_sf(x_t))
        grad -= zc_t.T @ (w_t * spec.density(x_t) / surv)
    return value, grad


def reference_node_hessian(node_data, theta, spec):
    """Reference for ``gltnet.likelihood.node_hessian``."""
    zp_a, zc_a, w_a, zc_t, w_t, x_a, y_a, x_t, diffs, surv = _reference_interval_terms(
        node_data, theta, spec
    )
    m = len(node_data.parents)
    hess = np.zeros((m, m))
    if w_a.size:
        fx = spec.density(x_a)
        fy = _reference_zero_on_empty(spec.density(y_a), zp_a)
        dfx = spec.density_derivative(x_a)
        dfy = _reference_zero_on_empty(spec.density_derivative(y_a), zp_a)
        coef_cc = w_a * (dfx / diffs - (fx / diffs) ** 2)
        coef_pp = w_a * (-dfy / diffs - (fy / diffs) ** 2)
        coef_cp = w_a * fx * fy / diffs**2
        hess += (zc_a * coef_cc[:, None]).T @ zc_a
        hess += (zp_a * coef_pp[:, None]).T @ zp_a
        cross = (zc_a * coef_cp[:, None]).T @ zp_a
        hess += cross + cross.T
    if w_t.size:
        fx = spec.density(x_t)
        dfx = spec.density_derivative(x_t)
        coef = w_t * (-dfx / surv - (fx / surv) ** 2)
        hess += (zc_t * coef[:, None]).T @ zc_t
    return hess


def _reference_project_nonneg_l1ball(w, radius):
    """Euclidean projection onto {w >= 0, sum(w) <= radius}."""
    w = np.maximum(w, 0.0)
    s = w.sum()
    if s <= radius:
        return w
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - radius
    idx = np.arange(1, w.size + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(w - tau, 0.0)


def reference_project_truncated_simplex(theta, epsilon, gamma):
    """Projection onto {theta >= epsilon, ||theta||_1 <= gamma} through a
    separate nonnegative l1-ball projection; byte-for-byte oracle for
    ``estimation.project_truncated_simplex``."""
    theta = np.asarray(theta, dtype=float)
    radius = gamma - theta.size * epsilon
    w = _reference_project_nonneg_l1ball(theta - epsilon, radius)
    s = w.sum()
    if s > radius and s > 0.0:
        w *= radius / s
    out = np.maximum(w + epsilon, epsilon)
    for _ in range(1000):
        if out.sum() <= gamma:
            return out
        j = int(np.argmax(out))
        out[j] = np.nextafter(out[j], 0.0)
    raise AssertionError("reference projection failed to satisfy the sum bound")


def reference_projected_gradient_norm(theta, grad, epsilon, gamma):
    """Projected-gradient norm with the simplex-face multiplier found by
    bisection; oracle for ``estimation.projected_gradient_norm``."""
    theta = np.asarray(theta, dtype=float)
    g = np.asarray(grad, dtype=float)
    low = theta <= epsilon + 1e-12
    d = np.empty_like(g)

    def excess(lam):
        # d = g - lam with the entries at the lower bound clipped at 0
        np.subtract(g, lam, out=d)
        np.maximum(d, 0.0, out=d, where=low)
        return d.sum()

    sum_active = theta.sum() >= gamma - max(1.0, gamma) * 1e-12
    if excess(0.0) <= 0 or not sum_active:
        return float(np.linalg.norm(d))
    lo, hi = 0.0, float(np.max(g)) + 1.0
    zero = 1e-15 * max(1.0, float(np.abs(g).sum()))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        total = excess(mid)
        if abs(total) <= zero:
            break  # d is already the excess at 0.5 * (lo + hi)
        if total > 0:
            lo = mid
        else:
            hi = mid
    else:
        excess(0.5 * (lo + hi))
    return float(np.linalg.norm(d))


def reference_newton_polish(fg, node_data, spec, state, epsilon, gamma, tol):
    """The active-set Newton polish as it stood before the Newton-first
    solver: a full round of ``_POLISH_STEPS`` whatever the budget, and an
    exactly singular Newton system ends the round.  Returns the number of
    steps and whether a singular system ended the round."""
    from gltnet.estimation import (
        _BOUNDARY_TOL,
        _POLISH_STEPS,
        project_truncated_simplex,
        projected_gradient_norm,
    )
    from gltnet.likelihood import node_hessian

    it = 0
    while state.pg > tol and it < _POLISH_STEPS:
        it += 1
        theta, grad = state.theta, state.grad
        free = ~(theta <= epsilon + _BOUNDARY_TOL)
        k = int(free.sum())
        if k == 0:
            break
        hess = node_hessian(node_data, theta, spec)
        h_ff = hess[np.ix_(free, free)]
        g_f = grad[free]
        try:
            if theta.sum() >= gamma - _BOUNDARY_TOL:
                kkt = np.zeros((k + 1, k + 1))
                kkt[:k, :k] = h_ff
                kkt[:k, k] = 1.0
                kkt[k, :k] = 1.0
                d_f = np.linalg.solve(kkt, np.concatenate([-g_f, [0.0]]))[:k]
            else:
                d_f = np.linalg.solve(h_ff, -g_f)
        except np.linalg.LinAlgError:
            return it, True
        direction = np.zeros_like(theta)
        direction[free] = d_f
        damp = 1.0
        for _ in range(25):
            cand = project_truncated_simplex(theta + damp * direction, epsilon, gamma)
            if (cand != theta).any():
                cand_value, cand_grad = fg(cand)
                if np.isfinite(cand_value):
                    cand_pg = projected_gradient_norm(cand, cand_grad, epsilon, gamma)
                    if cand_pg < state.pg:
                        state.theta, state.value, state.grad = cand, cand_value, cand_grad
                        state.pg = cand_pg
                        break
            damp *= 0.5
        else:
            break
    return it, False


def reference_maximize(node_data, spec, epsilon, gamma, tol, max_iter, warm_up=25):
    """The node solver as it stood before the Newton-first change, on
    ``reference_newton_polish`` and the package's Barzilai-Borwein steps:
    a ``warm_up``-step gradient warm-up for every density, then polish and
    10-step bursts until the certificate holds or a round moves nothing.
    The iteration count can exceed ``max_iter``.  Returns ``(theta, value,
    pg, iterations, singular)``, ``singular`` telling whether any polish
    round ended on an exactly singular Newton system."""
    from gltnet.estimation import (
        _bb_steps,
        _SolverState,
        project_truncated_simplex,
        projected_gradient_norm,
    )
    from gltnet.likelihood import node_value_and_gradient
    from gltnet.model import ZeroProbabilityError

    def fg(theta):
        try:
            return node_value_and_gradient(node_data, theta, spec)
        except ZeroProbabilityError:
            return -np.inf, None

    m = len(node_data.parents)
    theta = np.full(m, epsilon + (gamma - m * epsilon) / (2.0 * m))
    theta = project_truncated_simplex(theta, epsilon, gamma)
    value, grad = fg(theta)
    assert np.isfinite(value), "degenerate interior starting point"
    state = _SolverState(
        theta,
        value,
        grad,
        projected_gradient_norm(theta, grad, epsilon, gamma),
        1.0 / max(1.0, float(np.linalg.norm(grad))),
    )
    it = _bb_steps(fg, state, epsilon, gamma, tol, min(warm_up, max_iter))
    singular = False
    while state.pg > tol and it < max_iter:
        polished, hit = reference_newton_polish(
            fg, node_data, spec, state, epsilon, gamma, tol
        )
        singular |= hit
        it += max(polished, 1)
        if state.pg <= tol:
            break
        stepped = _bb_steps(fg, state, epsilon, gamma, tol, 10)
        it += stepped
        if polished == 0 and stepped == 0:
            break
    return state.theta, state.value, state.pg, it, singular


def all_specs():
    return [make_uniform(), make_exponential_unit(), make_beta(2, 2)]


def grid_values(eps, gamma, step):
    vals = [eps]
    v = step
    while v <= gamma + 1e-12:
        vals.append(min(v, gamma))
        v += step
    return np.array(vals)


def dense_grid_argmax(node_data, spec, eps, gamma, step=0.005):
    """Exhaustive grid maximizer of the node log-likelihood.

    Independent of the fitting path: aggregates rows with a plain Counter
    and evaluates log(F(x) - F(y)) directly from the cdf.  Handles 1 to 3
    parents; the 3-parent case is evaluated one outer-coordinate slab at a
    time to bound memory.
    """
    from collections import Counter

    from gltnet.likelihood import ROW_ACTIVATED, ROW_TERMINAL

    m = len(node_data.parents)
    acts = Counter()
    terms = Counter()
    for zp, zc, kind in zip(node_data.z_prev, node_data.z_curr, node_data.outcome):
        if kind == ROW_ACTIVATED:
            acts[(tuple(zp), tuple(zc))] += 1
        elif kind == ROW_TERMINAL:
            terms[tuple(zc)] += 1
    uniq = sorted({z for pair in acts for z in pair} | set(terms))
    zindex = {z: i for i, z in enumerate(uniq)}
    zmat = np.array(uniq, dtype=float).T  # (m, U)
    vals = grid_values(eps, gamma, step)

    def evaluate(points):
        b = points @ zmat
        cdf = spec.cdf(b)
        ll = np.zeros(points.shape[0])
        for (zp, zc), c in acts.items():
            ll += c * np.log(
                np.maximum(cdf[:, zindex[zc]] - cdf[:, zindex[zp]], 1e-300)
            )
        for zc, c in terms.items():
            ll += c * np.log(np.maximum(1.0 - cdf[:, zindex[zc]], 1e-300))
        return ll

    best_val = -np.inf
    best_point = None
    if m == 1:
        points = vals[:, None]
        ll = evaluate(points)
        i = int(np.argmax(ll))
        return points[i]
    if m == 2:
        a, b = np.meshgrid(vals, vals, indexing="ij")
        points = np.column_stack([a.ravel(), b.ravel()])
        points = points[points.sum(axis=1) <= gamma + 1e-12]
        ll = evaluate(points)
        i = int(np.argmax(ll))
        return points[i]
    assert m == 3
    a, b = np.meshgrid(vals, vals, indexing="ij")
    tail = np.column_stack([a.ravel(), b.ravel()])
    for v0 in vals:
        points = np.column_stack([np.full(tail.shape[0], v0), tail])
        points = points[points.sum(axis=1) <= gamma + 1e-12]
        if not points.shape[0]:
            continue
        ll = evaluate(points)
        i = int(np.argmax(ll))
        if ll[i] > best_val:
            best_val = ll[i]
            best_point = points[i]
    return best_point


def staggered_fit_graph():
    """Four nodes with in-degrees 1, 2, 3; seeds over {0, 1, 2} give both
    simultaneous and staggered parent-arrival patterns at node 3."""
    return build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])


def parent_subset_seed_distribution():
    from itertools import combinations

    from gltnet import SeedDistribution

    subsets = [frozenset(c) for r in (1, 2, 3) for c in combinations(range(3), r)]
    return SeedDistribution.explicit([(s, 1.0 / len(subsets)) for s in subsets])


def simulate_trace_sequential(model, seed_set, rng):
    """Simulate by sampling the conditional kernel step by step.

    Distributionally identical to ``simulate_trace``; an independent
    cross-check of the threshold-persistence mechanism.
    """
    seed = {int(v) for v in seed_set}
    if not seed:
        raise ModelError("seed set must be nonempty")
    rng = as_generator(rng)
    graph = model.graph
    steps = [frozenset(seed)]
    active = set(seed)
    prev_active = set()
    frontier = set(seed)
    while True:
        cand = sorted(children_of_set(graph, frontier) - active)
        if not cand:
            break
        u = rng.random(len(cand))
        newly = set()
        for i, v in enumerate(cand):
            spec = model.spec(v)
            x = model.influence(v, active)
            y = model.influence(v, prev_active)
            denom = spec.sf(y)
            p = 0.0 if denom <= 0.0 else min(1.0, spec.interval_prob(x, y) / denom)
            if u[i] < p:
                newly.add(v)
        if not newly:
            break
        steps.append(frozenset(newly))
        prev_active = set(active)
        active |= newly
        frontier = newly
    return Trace(steps)


def reference_closure_steps(model, seed, draws):
    """Set-based propagation given per-node U(0, 1] draws; yields steps.

    Reference for the closure kernel in simulation: each round tests the
    inactive children of the last step with one scalar ``F_v(B_v) >= u_v``.
    """
    graph = model.graph
    active = set(seed)
    frontier = set(seed)
    yield frozenset(frontier)
    while frontier:
        newly = set()
        for v in sorted(children_of_set(graph, frontier) - active):
            b = model.influence(v, active)
            if model.spec(v).cdf(b) >= draws[v]:
                newly.add(v)
        if not newly:
            return
        active |= newly
        frontier = newly
        yield frozenset(newly)


def reference_simulate_trace(model, seed_set, rng):
    """``simulate_trace`` by :func:`reference_closure_steps`, same draws."""
    seed = {int(v) for v in seed_set}
    if not seed:
        raise ModelError("seed set must be nonempty")
    for v in seed:
        model.graph._check(v)
    draws = 1.0 - as_generator(rng).random(model.graph.n)
    return Trace(list(reference_closure_steps(model, seed, draws)))


def reference_draws(rng, rows, n):
    # U(0, 1]: a node with F(B) = 0 can never cross its threshold
    return 1.0 - rng.random((rows, n))


class ReferenceBatchPropagator:
    """Dense replicate-by-node closure; reference for the Monte Carlo kernel.

    Holds the n x n weight matrix ``w[u, v]`` and propagates a
    replicate-by-node boolean state with ``active @ w``.
    """

    def __init__(self, model):
        graph = model.graph
        n = graph.n
        w = np.zeros((n, n))
        for k, (u, v) in enumerate(graph.edges):
            w[u, v] = model.weights[k]
        self.n = n
        self.weight_matrix = w
        groups = {}
        for v in range(n):
            groups.setdefault(model.spec(v), []).append(v)
        self.spec_groups = [(spec, np.array(cols)) for spec, cols in groups.items()]

    def thresholds(self, draws):
        """Per-replicate, per-node thresholds from U(0, 1] draws."""
        u = np.empty_like(draws)
        for spec, cols in self.spec_groups:
            u[:, cols] = spec.inverse_cdf(draws[:, cols])
        return np.maximum(u, np.finfo(float).tiny)

    def final_active(self, seed_list, thresholds):
        """Final (replicates x n) active sets for each row of ``thresholds``."""
        r = thresholds.shape[0]
        active = np.zeros((r, self.n), dtype=bool)
        active[:, seed_list] = True
        while True:
            b = active @ self.weight_matrix
            newly = (b >= thresholds) & ~active
            if not newly.any():
                return active
            active |= newly

    def final_sizes(self, seed_list, thresholds):
        """Final active-set sizes for each replicate row of ``thresholds``."""
        return self.final_active(seed_list, thresholds).sum(axis=1)


def reference_estimate_spread_mc(model, seed_set, replicates, rng, chunk=16384):
    """``estimate_spread_mc`` on :class:`ReferenceBatchPropagator`, same draws."""
    seed_list = sorted(int(v) for v in seed_set)
    rng = as_generator(rng)
    prop = ReferenceBatchPropagator(model)
    sizes = []
    done = 0
    while done < replicates:
        rows = min(chunk, replicates - done)
        thresholds = prop.thresholds(reference_draws(rng, rows, prop.n))
        sizes.append(prop.final_sizes(seed_list, thresholds))
        done += rows
    sizes = np.concatenate(sizes).astype(float)
    se = float(sizes.std(ddof=1) / np.sqrt(replicates)) if replicates > 1 else 0.0
    return SpreadEstimate(mean=float(sizes.mean()), std_error=se, replicates=replicates)


def reference_greedy_im(model, budget, spread_evaluator, rng=None, replicates=1000, node_cap=10**6):
    """Greedy IM with separate exact and Monte Carlo selection loops.

    The exact loop maximizes sigma(S + v) itself; the Monte Carlo loop
    maximizes the common-random-number gain.  Reference for ``greedy_im``.
    """
    n = model.graph.n
    seeds = []
    gains = []
    if spread_evaluator in ("exact", "bipartite"):
        if spread_evaluator == "exact":
            oracle = ExactSpreadOracle(model, node_cap=node_cap)
            evaluate = lambda s: oracle.spread(s)
        else:
            evaluate = lambda s: spread_bipartite_closed_form(model, s)
        current = 0.0
        for _ in range(budget):
            best_v, best_val = None, None
            for v in range(n):
                if v in seeds:
                    continue
                val = evaluate(set(seeds) | {v})
                if best_val is None or val > best_val:
                    best_v, best_val = v, val
            seeds.append(best_v)
            gains.append(best_val - current)
            current = best_val
        return ImSolution(
            seeds=tuple(seeds),
            gains=tuple(gains),
            spread=SpreadEstimate(mean=current, std_error=0.0, replicates=0),
        )
    if isinstance(rng, (int, np.integer)):
        root = int(rng)
    else:
        root = int(as_generator(rng).integers(0, 2**63 - 1))
    prop = ReferenceBatchPropagator(model)
    for step in range(budget):
        thresholds = prop.thresholds(
            reference_draws(substream(root, "im-step", step), replicates, n)
        )
        base = (
            prop.final_sizes(sorted(seeds), thresholds).mean() if seeds else 0.0
        )
        best_v, best_gain = None, None
        for v in range(n):
            if v in seeds:
                continue
            val = prop.final_sizes(sorted(seeds + [v]), thresholds).mean()
            gain = val - base
            if best_gain is None or gain > best_gain:
                best_v, best_gain = v, gain
        seeds.append(best_v)
        gains.append(float(best_gain))
    final = estimate_spread_mc(
        model, seeds, replicates, substream(root, "im-final")
    ) if seeds else SpreadEstimate(0.0, 0.0, replicates)
    return ImSolution(seeds=tuple(seeds), gains=tuple(gains), spread=final)
