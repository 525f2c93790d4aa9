"""Constrained maximum-likelihood fitting of parent weights.

Each child node is fitted independently by maximizing its log-likelihood
over the truncated polytope {theta >= eps, ||theta||_1 <= gamma}.  The
solver is active-set projected Newton.  When the threshold density is
log-concave the node log-likelihood is concave, so Newton starts at the
interior point; otherwise a short first-order warm-up comes first.  Bursts
of projected gradient ascent with Barzilai-Borwein steps and Armijo
backtracking are the fallback whenever Newton stalls.  The projection is
the exact shifted simplex projection, so feasibility of the returned point
is exact rather than approximate.  The binding optimality certificate is
the norm of the gradient projected onto the feasible cone at the solution;
its sum-face multiplier comes from the same sort-based threshold as the
projection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .likelihood import NodeData, node_hessian, node_value_and_gradient
from .model import NEVER, ZeroProbabilityError, _activation_rounds, default_gamma
from .thresholds import ThresholdSpec, make_beta

__all__ = [
    "FitOptions",
    "NodeFitResult",
    "EstimationError",
    "fit_node",
    "fit_all",
    "fit_with_threshold_grid",
    "baseline_wc",
    "baseline_ptp",
    "project_truncated_simplex",
    "projected_gradient_norm",
]

_BOUNDARY_TOL = 1e-9
_POLISH_STEPS = 25  # Newton steps per polish round


class EstimationError(ValueError):
    """Fitting could not be carried out."""


@dataclass(frozen=True)
class FitOptions:
    """Truncation constants and solver controls."""

    epsilon: float = 1e-6
    gamma: float = None  # default: h_v - epsilon for bounded supports, 10 otherwise
    tol: float = 1e-8
    max_iter: int = 2000

    def __post_init__(self):
        if self.epsilon <= 0:
            raise EstimationError(f"epsilon must be positive, got {self.epsilon}")
        if self.tol <= 0:
            raise EstimationError(f"tolerance must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise EstimationError("max_iter must be at least 1")

    def resolve_gamma(self, spec: ThresholdSpec, m: int) -> float:
        gamma = self.gamma if self.gamma is not None else default_gamma(spec, self.epsilon)
        if not m * self.epsilon < gamma:
            raise EstimationError(
                f"infeasible truncation: m*epsilon = {m * self.epsilon} !< "
                f"gamma = {gamma}"
            )
        if gamma > spec.support_bound:
            raise EstimationError(
                f"gamma = {gamma} exceeds the threshold support bound "
                f"{spec.support_bound}"
            )
        return gamma


@dataclass
class NodeFitResult:
    node: int
    parents: tuple
    weights: np.ndarray
    converged: bool
    loglik: float
    n_obs: int
    epsilon: float
    gamma: float
    spec: ThresholdSpec
    phi: dict = None  # chosen threshold parameters when grid search was used
    projected_gradient_norm: float = np.nan
    iterations: int = 0
    error: str = None

    @property
    def estimated(self) -> bool:
        return self.error is None

    @property
    def at_boundary(self) -> bool:
        """Whether the estimate sits on the truncation boundary.

        Normal-approximation inference is unreliable there and callers are
        expected to flag such nodes rather than report intervals silently.
        """
        if not self.estimated:
            return True
        return bool(
            np.any(self.weights <= self.epsilon + _BOUNDARY_TOL)
            or self.weights.sum() >= self.gamma - _BOUNDARY_TOL
        )


# -- feasible-set geometry ---------------------------------------------------


def _face_threshold(clipped, target, free_sum=0.0, n_free=0) -> float:
    """The t solving sum(max(clipped - t, 0)) + free_sum - n_free * t = target.

    The left side is piecewise linear and nonincreasing in t, so its root
    follows from one descending sort of ``clipped`` (Duchi et al., ICML
    2008; Condat, Math. Program. 2016): the largest prefix of entries above
    t fixes the linear piece.  With no free entries and a nonpositive
    target, every t >= max(clipped) is a root; the smallest one is returned.
    """
    u = np.sort(clipped)[::-1]
    css = np.cumsum(u) + (free_sum - target)
    idx = np.arange(n_free + 1, n_free + u.size + 1)
    above = np.nonzero(u - css / idx > 0)[0]
    if above.size:
        rho = above[-1]
        return css[rho] / (rho + 1.0 + n_free)
    if n_free:
        return (free_sum - target) / n_free
    return u[0]


def project_truncated_simplex(theta, epsilon: float, gamma: float) -> np.ndarray:
    """Exact Euclidean projection onto {theta >= epsilon, ||theta||_1 <= gamma}.

    The result satisfies both constraints exactly in floating point: lower
    bounds by clamping; the sum bound first by a multiplicative correction
    (the sort-based projection of very large inputs can overshoot by far
    more than an ulp), then by shaving ulps off the largest coordinate.
    """
    theta = np.asarray(theta, dtype=float)
    radius = gamma - theta.size * epsilon
    # shift to the nonnegative l1 ball {w >= 0, sum(w) <= radius}
    w = np.maximum(theta - epsilon, 0.0)
    if w.sum() > radius:
        w = np.maximum(w - _face_threshold(w, radius), 0.0)
        s = w.sum()
        if s > radius and s > 0.0:
            w *= radius / s
    out = np.maximum(w + epsilon, epsilon)
    for _ in range(1000):
        if out.sum() <= gamma:
            return out
        j = int(np.argmax(out))
        out[j] = np.nextafter(out[j], 0.0)
    raise EstimationError(
        f"projection failed to satisfy the sum bound: sum={out.sum()!r} > "
        f"gamma={gamma!r}"
    )


def projected_gradient_norm(theta, grad, epsilon: float, gamma: float) -> float:
    """Norm of the gradient projected onto the feasible cone at theta.

    At a constrained maximizer this is zero: ascent directions that leave
    the polytope are removed before taking the norm.  On the sum face the
    multiplier lam >= 0 makes the projected direction sum to zero; it is the
    face threshold of the gradient, with the coordinates at the lower bound
    clipped and the others free.
    """
    theta = np.asarray(theta, dtype=float)
    g = np.asarray(grad, dtype=float)
    low = theta <= epsilon + 1e-12
    lam = 0.0
    if theta.sum() >= gamma - max(1.0, gamma) * 1e-12:
        g_free = g[~low]
        lam = max(_face_threshold(g[low], 0.0, g_free.sum(), g_free.size), 0.0)
    d = g - lam
    np.maximum(d, 0.0, out=d, where=low)
    return float(np.linalg.norm(d))


# -- solver -------------------------------------------------------------------


class _SolverState:
    __slots__ = ("theta", "value", "grad", "pg", "step")

    def __init__(self, theta, value, grad, pg, step):
        self.theta = theta
        self.value = value
        self.grad = grad
        self.pg = pg
        self.step = step


def _newton_polish(fg, node_data, spec, state, epsilon, gamma, tol, budget):
    """Active-set Newton refinement driven by the projected-gradient norm;
    returns the number of Newton steps taken, at most ``budget``.

    Near a solution, objective differences fall below floating-point noise
    while the first-order residual is still measurable, so steps are
    accepted when they shrink the projected gradient rather than when they
    raise the objective.  Feasibility stays exact through the projection.
    """
    it = 0
    while state.pg > tol and it < min(_POLISH_STEPS, budget):
        it += 1
        theta, grad = state.theta, state.grad
        low = theta <= epsilon + _BOUNDARY_TOL
        face = theta.sum() >= gamma - _BOUNDARY_TOL
        free = ~low
        k = int(free.sum())
        if k == 0:
            break
        hess = node_hessian(node_data, theta, spec)
        h_ff = hess[np.ix_(free, free)]
        g_f = grad[free]
        if face:
            lhs = np.zeros((k + 1, k + 1))
            lhs[:k, :k] = h_ff
            lhs[:k, k] = 1.0
            lhs[k, :k] = 1.0
            rhs = np.concatenate([-g_f, [0.0]])
        else:
            lhs, rhs = h_ff, -g_f
        try:
            d_f = np.linalg.solve(lhs, rhs)[:k]
        except np.linalg.LinAlgError:
            # parents seen only together leave a ridge of maximizers and an
            # exactly singular Hessian; the minimum-norm step heads for the
            # ridge without sliding along it
            d_f = np.linalg.lstsq(lhs, rhs, rcond=None)[0][:k]
        direction = np.zeros_like(theta)
        direction[free] = d_f
        improved = False
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
                        improved = True
                        break
            damp *= 0.5
        if not improved:
            break
    return it


def _bb_steps(fg, state, epsilon, gamma, tol, limit):
    """Projected gradient ascent with Barzilai-Borwein steps and Armijo
    backtracking; returns the number of accepted steps."""
    used = 0
    while state.pg > tol and used < limit:
        s = state.step
        theta, grad, value = state.theta, state.grad, state.value
        cand = project_truncated_simplex(theta + s * grad, epsilon, gamma)
        for _ in range(40):
            # escape the ulp regime where the projected point does not move
            if (cand != theta).any():
                break
            s *= 4.0
            cand = project_truncated_simplex(theta + s * grad, epsilon, gamma)
        accepted = False
        for _ in range(60):
            move = cand - theta
            if not move.any():
                break
            cand_value, cand_grad = fg(cand)
            if np.isfinite(cand_value) and cand_value >= value + 1e-4 * float(
                grad @ move
            ):
                accepted = True
                break
            s *= 0.25
            cand = project_truncated_simplex(theta + s * grad, epsilon, gamma)
        if not accepted:
            return used
        used += 1
        d_theta = cand - theta
        d_grad = cand_grad - grad
        curv = float(d_theta @ d_grad)
        if curv < 0:
            state.step = min(max(float(d_theta @ d_theta) / -curv, 1e-12), 1e8)
        else:
            state.step = min(state.step * 4.0, 1e8)
        state.theta, state.value, state.grad = cand, cand_value, cand_grad
        state.pg = projected_gradient_norm(cand, cand_grad, epsilon, gamma)
    return used


def _maximize(node_data, spec, epsilon, gamma, tol, max_iter):
    def fg(theta):
        try:
            return node_value_and_gradient(node_data, theta, spec)
        except ZeroProbabilityError:
            return -np.inf, None

    m = len(node_data.parents)
    theta = np.full(m, epsilon + (gamma - m * epsilon) / (2.0 * m))
    theta = project_truncated_simplex(theta, epsilon, gamma)
    value, grad = fg(theta)
    if not np.isfinite(value):
        raise EstimationError(
            f"log-likelihood is degenerate at the interior starting point "
            f"for node {node_data.node}"
        )
    state = _SolverState(
        theta,
        value,
        grad,
        projected_gradient_norm(theta, grad, epsilon, gamma),
        1.0 / max(1.0, float(np.linalg.norm(grad))),
    )
    # A concave objective (log-concave density) has no stationary point but
    # the maximum, so Newton starts at once.  Otherwise a short first-order
    # warm-up comes first: over 1,500 random small non-log-concave fits,
    # Newton from the interior point certified a lower stationary point than
    # the warm-up path in 19 and a higher one in 5.  Then Newton polish
    # alternates with gradient bursts until the certificate holds, nothing
    # moves or the budget is spent.
    it = 0
    if not spec.log_concave_density:
        it = _bb_steps(fg, state, epsilon, gamma, tol, min(25, max_iter))
    while state.pg > tol and it < max_iter:
        start = state.theta
        it += _newton_polish(
            fg, node_data, spec, state, epsilon, gamma, tol, max_iter - it
        )
        if state.pg <= tol:
            break
        it += _bb_steps(fg, state, epsilon, gamma, tol, min(10, max_iter - it))
        if state.theta is start:
            break  # stuck: a repeat round would move nothing either
    return state.theta, state.value, state.pg, it


def fit_node(node_data: NodeData, spec: ThresholdSpec, options: FitOptions = None) -> NodeFitResult:
    """Maximize the node log-likelihood over the truncated simplex.

    Deterministic given its inputs.  Non-convergence within the iteration
    budget returns the best iterate with ``converged=False`` rather than
    raising.
    """
    options = options or FitOptions()
    if node_data.n_informative_rows == 0:
        raise EstimationError(f"node {node_data.node} has no informative rows")
    if not spec.log_concave_density:
        warnings.warn(
            f"threshold density for node {node_data.node} is not log-concave; "
            f"the fit is a local optimum only",
            stacklevel=2,
        )
    m = len(node_data.parents)
    gamma = options.resolve_gamma(spec, m)
    theta, value, pg, it = _maximize(
        node_data, spec, options.epsilon, gamma, options.tol, options.max_iter
    )
    return NodeFitResult(
        node=node_data.node,
        parents=node_data.parents,
        weights=theta,
        converged=bool(pg <= options.tol),
        loglik=float(value),
        n_obs=node_data.n_obs,
        epsilon=options.epsilon,
        gamma=gamma,
        spec=spec,
        projected_gradient_norm=float(pg),
        iterations=it,
    )


def fit_all(datasets: dict, specs, options: FitOptions = None) -> dict:
    """Fit every node of ``datasets``, a ``{node: NodeData}`` dict such as
    ``build_all_node_data(traces, graph)``.

    ``specs`` is a single ThresholdSpec or a per-node sequence.  Per-node
    failures are recorded on the result (``error`` field), never raised, so
    a batch over many nodes always completes.
    """
    options = options or FitOptions()
    if isinstance(specs, ThresholdSpec):
        spec_of = lambda v: specs
    else:
        specs = tuple(specs)
        spec_of = lambda v: specs[v]

    def run(v, data):
        try:
            if data.n_informative_rows == 0:
                raise EstimationError(f"node {v} has no informative traces")
            return fit_node(data, spec_of(v), options)
        except Exception as exc:  # noqa: BLE001 - per-node isolation is the contract
            return NodeFitResult(
                node=v,
                parents=data.parents,
                weights=None,
                converged=False,
                loglik=np.nan,
                n_obs=0,
                epsilon=options.epsilon,
                gamma=np.nan,
                spec=spec_of(v),
                error=str(exc),
            )

    return {v: run(v, data) for v, data in datasets.items()}


def default_beta_grid(alpha: float = None) -> tuple:
    """The stock beta-parameter grid: alpha, beta in {1..10}.

    With ``alpha`` fixed, only beta varies (the single-parameter variant
    used when nodes are assumed easy to saturate).
    """
    if alpha is not None:
        return tuple((alpha, b) for b in range(1, 11))
    return tuple((a, b) for a in range(1, 11) for b in range(1, 11))


def fit_with_threshold_grid(node_data: NodeData, grid, options: FitOptions = None) -> NodeFitResult:
    """Fit beta(alpha, beta) thresholds at each ``(alpha, beta)`` of ``grid``,
    keep the best.

    Ties in log-likelihood break toward the earliest grid position.  Raises
    only if every grid fit failed.
    """
    grid = tuple(grid)
    if not grid:
        raise EstimationError("threshold-parameter grid is empty")
    best = None
    failures = []
    for phi in grid:
        spec = make_beta(*phi)
        if not spec.log_concave_density:
            failures.append(f"{phi}: not fit-safe (density not log-concave)")
            continue
        try:
            result = fit_node(node_data, spec, options)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{phi}: {exc}")
            continue
        if best is None or result.loglik > best.loglik:
            result.phi = {"family": "beta", "params": phi}
            best = result
    if best is None:
        raise EstimationError(
            "all grid fits failed: " + "; ".join(failures[:5])
        )
    return best


# -- heuristic baselines ------------------------------------------------------


def _cap_unit_sum(block: np.ndarray) -> np.ndarray:
    # normalized weights must satisfy sum <= 1 exactly; rounding can leave
    # the float sum an ulp above it (e.g. 7 * (1/7))
    while block.sum() > 1.0:
        j = int(np.argmax(block))
        block[j] = np.nextafter(block[j], 0.0)
    return block


def baseline_wc(graph: Graph) -> np.ndarray:
    """Weighted-cascade heuristic: each edge (u, v) gets 1 / indegree(v)."""
    weights = np.zeros(graph.edge_count())
    for v in range(graph.n):
        m = graph.in_degree(v)
        if m:
            weights[graph.child_slice(v)] = _cap_unit_sum(np.full(m, 1.0 / m))
    return weights


def baseline_ptp(traces, graph: Graph) -> np.ndarray:
    """Propagated-trace-proportion heuristic.

    Each edge's raw score is (#traces where u activates strictly before v) /
    (#traces where u activates); scores are renormalized so each fitted
    child's parent weights sum to 1, falling back to the uniform 1/indegree
    when all of a child's scores are zero.
    """
    return _ptp_weights(_activation_rounds(traces, graph.n)[0], graph)


def _ptp_weights(rounds, graph: Graph) -> np.ndarray:
    """PTP weights from the (traces x n) activation-round table."""
    weights = np.zeros(graph.edge_count())
    for v in graph.child_nodes():
        parents = graph.parent_list(v)
        parent_rounds = rounds[:, list(parents)]
        r_v = rounds[:, [v]]
        den = (parent_rounds != NEVER).sum(axis=0)
        num = ((parent_rounds < r_v) & (r_v != NEVER)).sum(axis=0)
        raw = np.divide(num, den, out=np.zeros(len(parents)), where=den > 0)
        total = raw.sum()
        raw = raw / total if total > 0 else np.full(len(parents), 1.0 / len(parents))
        weights[graph.child_slice(v)] = _cap_unit_sum(raw)
    return weights
