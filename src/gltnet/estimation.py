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

Nodes under one spec (in ``fit_all``, and at each grid point of
``fit_with_threshold_grid``) are fitted in lockstep: each runs the algorithm
above as array rows advanced by per-member masks, one kernel call per round
evaluates every waiting candidate over zero-padded (nodes x patterns x
parents) arrays, and the Newton systems are solved stacked.  ``fit_node`` is
a batch of one and rounds exactly like a per-node solver; in a larger batch
padding reorders some sums, so a node's low bits (about 1e-13 in the
log-likelihood) can depend on which nodes share its chunk.  Results stay
deterministic for the same inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _cap_sum, is_node_id
from .likelihood import NodeData, _dot, _evaluate, _stack
from .model import NEVER, _activation_rounds, validate_trace
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

DEFAULT_EPSILON = 1e-6
DEFAULT_GAMMA_UNBOUNDED = 10.0
_BOUNDARY_TOL = 1e-9
_TOL = 1e-8  # a fit converged once its projected-gradient norm is at most this
_MAX_ITER = 2000  # solver iterations per fit
_POLISH_STEPS = 25  # Newton steps per polish round
_BLOCK = 1 << 16  # padded kernel elements (nodes x patterns x parents) per lockstep chunk


class EstimationError(ValueError):
    """Fitting could not be carried out."""


def default_gamma(spec: ThresholdSpec, epsilon: float = DEFAULT_EPSILON) -> float:
    """Truncation radius: h - epsilon for bounded supports, 10 otherwise."""
    h = spec.support_bound
    return h - epsilon if np.isfinite(h) else DEFAULT_GAMMA_UNBOUNDED


@dataclass(frozen=True)
class FitOptions:
    """Truncation constants."""

    epsilon: float = DEFAULT_EPSILON
    gamma: float = None  # default: h_v - epsilon for bounded supports, 10 otherwise

    def __post_init__(self):
        for name in ("epsilon", "gamma"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise EstimationError(f"{name} must be positive and finite, got {value}")

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
#
# The geometry works on rows, one per member of a lockstep batch.  A row's
# coordinates are its node's parents, then zero padding up to the widest
# member; ``real`` marks the parents.


def _face_threshold(clipped, count, target, free_sum, n_free):
    """Per row, the t solving sum(max(c - t, 0)) + free_sum - n_free * t =
    target over the row's ``count`` largest entries c of ``clipped``.

    The left side is piecewise linear and nonincreasing in t, so its root
    follows from one descending sort (Duchi et al., ICML 2008; Condat, Math.
    Program. 2016): the largest prefix of entries above t fixes the linear
    piece.  With no free entries and a nonpositive target, the smallest root
    max(c) is returned."""
    u = np.sort(clipped, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) + (free_sum - target)[:, None]
    pos = np.arange(u.shape[1])
    with np.errstate(invalid="ignore"):  # entries past count may be -inf
        above = (u - css / (pos + 1 + n_free[:, None]) > 0) & (pos < count[:, None])
    rho = u.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)
    t = css[np.arange(len(u)), rho] / (rho + 1.0 + n_free)
    rest = np.where(n_free > 0, (free_sum - target) / np.maximum(n_free, 1), u[:, 0])
    return np.where(above.any(axis=1), t, rest)


def _project(theta, real, epsilon: float, gamma: float) -> np.ndarray:
    """Rows of ``theta`` projected as by :func:`project_truncated_simplex`
    over their parents, marked by ``real``; padding stays 0."""
    m = real.sum(axis=1)
    radius = gamma - m * epsilon
    # shift to the nonnegative l1 ball {w >= 0, sum(w) <= radius}
    w = np.maximum(theta - epsilon, 0.0)
    over = np.flatnonzero(w.sum(axis=1) > radius)
    if over.size:
        r, zero = radius[over], np.zeros(over.size, dtype=int)
        wo = np.maximum(w[over] - _face_threshold(w[over], m[over], r, zero, zero)[:, None], 0.0)
        s = wo.sum(axis=1)
        big = (s > r) & (s > 0.0)
        wo[big] *= (r[big] / s[big])[:, None]
        w[over] = wo
    out = np.maximum(w + epsilon, epsilon)
    out[~real] = 0.0
    for _ in range(1000):
        high = np.flatnonzero(out.sum(axis=1) > gamma)
        if not high.size:
            return out
        j = out[high].argmax(axis=1)
        out[high, j] = np.nextafter(out[high, j], 0.0)
    raise EstimationError(f"projection failed to satisfy the sum bound: sum={out[high[0]].sum()!r} > gamma={gamma!r}")


def _certificate(theta, grad, real, epsilon: float, gamma: float) -> np.ndarray:
    """Row-wise :func:`projected_gradient_norm`; padding counts as at the
    lower bound, where its zero gradient adds nothing."""
    low, lam = theta <= epsilon + 1e-12, np.zeros(len(theta))
    face = np.flatnonzero(theta.sum(axis=1) >= gamma - max(1.0, gamma) * 1e-12)
    if face.size:
        g, free, at_low = grad[face], ~low[face], low[face] & real[face]
        free_sum = np.array([row[keep].sum() for row, keep in zip(g, free)])  # rounded as a per-node sum
        lam[face] = np.maximum(_face_threshold(np.where(at_low, g, -np.inf), at_low.sum(axis=1),
                                               np.zeros(face.size), free_sum, free.sum(axis=1)), 0.0)
    d = grad - lam[:, None]
    np.maximum(d, 0.0, out=d, where=low)
    return np.sqrt(_dot(d, d))


def project_truncated_simplex(theta, epsilon: float, gamma: float) -> np.ndarray:
    """Exact Euclidean projection onto {theta >= epsilon, ||theta||_1 <= gamma}.

    The result satisfies both constraints exactly in floating point: lower
    bounds by clamping; the sum bound first by a multiplicative correction
    (the sort-based projection of very large inputs can overshoot by far
    more than an ulp), then by shaving ulps off the largest coordinate.
    """
    theta = np.asarray(theta, dtype=float)[None]
    return _project(theta, np.ones(theta.shape, dtype=bool), epsilon, gamma)[0]


def projected_gradient_norm(theta, grad, epsilon: float, gamma: float) -> float:
    """Norm of the gradient projected onto the feasible cone at theta.

    At a constrained maximizer this is zero: ascent directions that leave
    the polytope are removed before taking the norm.  On the sum face the
    multiplier lam >= 0 makes the projected direction sum to zero; it is the
    face threshold of the gradient, with the coordinates at the lower bound
    clipped and the others free.
    """
    theta, grad = np.asarray(theta, dtype=float)[None], np.asarray(grad, dtype=float)[None]
    return float(_certificate(theta, grad, np.ones(theta.shape, dtype=bool), epsilon, gamma)[0])


def _newton_directions(hess, grad, free, face):
    """Active-set Newton directions, one per row: each row solves its system
    over its free coordinates, bordered by the sum constraint on the face,
    in the compressed order of a per-node solve, padded with identity rows
    to the largest system of the batch."""
    k = free.sum(axis=1)
    n, width = grad.shape
    size = k + face
    order = np.argsort(~free, axis=1, kind="stable")  # free coordinates first
    rows = np.arange(n)[:, None]
    h, g = hess[rows[:, :, None], order[:, :, None], order[:, None, :]], grad[rows, order]
    top = int(size.max())
    c = min(top, width)
    slot = np.arange(top)
    inside = slot < k[:, None]
    lhs, rhs = np.zeros((n, top, top)), np.zeros((n, top))
    lhs[:, :c, :c] = np.where(inside[:, :c, None] & inside[:, None, :c], h[:, :c, :c], 0.0)
    rhs[:, :c] = np.where(inside[:, :c], -g[:, :c], 0.0)
    f = np.flatnonzero(face)
    lhs[f, k[f], :] = lhs[f, :, k[f]] = inside[f]
    lhs[:, slot, slot] += slot >= size[:, None]
    direction = np.zeros((n, width))
    direction[rows, order[:, :c]] = np.where(inside[:, :c], _solve_rows(lhs, rhs, size)[:, :c], 0.0)
    return direction


def _solve_rows(lhs, rhs, size):
    """Solve each row's system, stacked.  Parents seen only together leave a
    ridge of maximizers and an exactly singular Hessian; such a row gets the
    minimum-norm solution of its own ``size`` block, which heads for the
    ridge without sliding along it."""
    try:
        return np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(lhs) > 1:
            return np.concatenate([_solve_rows(*args) for args in zip(lhs[:, None], rhs[:, None], size[:, None])])
        out, (k,) = np.zeros_like(rhs), size
        out[0, :k] = np.linalg.lstsq(lhs[0, :k, :k], rhs[0, :k], rcond=None)[0]
        return out


# -- lockstep solver ----------------------------------------------------------

# where a member stands: at the test of an outer round, a polish step or a
# gradient step, or damping a Newton step; waiting on the kernel with a
# Newton or a gradient candidate; done
_OUTER, _STEP, _DAMP, _BURST, _NEWTON, _GRADIENT, _DONE = range(7)


class _Lockstep:
    """The solver of the module docstring on several nodes under one spec.

    Each member keeps its state in array rows and ``phase`` says where it
    stands; between kernel calls the members of each phase advance together
    until every member waits on a candidate or is done."""

    def __init__(self, datas, spec, epsilon, gamma, tol, max_iter):
        self.datas, self.spec, self.eps, self.gamma = datas, spec, epsilon, gamma
        self.tol, self.max_iter, n = tol, max_iter, len(datas)
        self.m = np.array([len(d.parents) for d in datas])
        width = int(self.m.max())
        self.real = np.arange(width) < self.m[:, None]  # the parents among the coordinates
        self.rows, self.stack = np.arange(n), _stack(datas, width)  # the members the stack holds
        start = (epsilon + (gamma - self.m * epsilon) / (2.0 * self.m))[:, None]
        self.cand = _project(np.where(self.real, start, 0.0), self.real, epsilon, gamma)
        self.direction, self.s = np.zeros((n, width)), np.ones(n)  # a trial moves by s * direction
        self.it, self.limit, self.tries = np.zeros((3, n), dtype=int)  # limit: of the running polish or burst
        self.moved, self.phase = np.zeros(n, dtype=bool), np.full(n, _OUTER)

    def _evaluate(self, i):
        """Value, gradient and Hessian at the candidates of the members ``i``
        not done; the stack drops the patterns of members that are done."""
        if i.size < self.rows.size:
            self.rows, self.stack = i, _stack([self.datas[k] for k in i], self.cand.shape[1])
        return _evaluate(self.stack, self.cand[i], self.spec, 2)[:3]

    def run(self):
        """Per member ``(theta, value, pg, iterations)``, or the
        EstimationError of a degenerate starting point."""
        everyone = self.rows
        self.value, self.grad, self.hess = self._evaluate(everyone)
        self.theta, ok = self.cand.copy(), np.isfinite(self.value)
        self.pg = np.full(len(ok), np.inf)
        self.pg[ok] = _certificate(self.theta[ok], self.grad[ok], self.real[ok], self.eps, self.gamma)
        self.step = 1.0 / np.fmax(1.0, np.sqrt(_dot(self.grad, self.grad)))
        if not self.spec.log_concave_density:  # the warm-up burst, which always hands over to Newton
            self.moved[:], self.limit[:], self.phase[:] = True, min(25, self.max_iter), _BURST
        self.phase[~ok] = _DONE
        handlers = (self._outer, self._step, self._damp, self._burst)  # by phase
        while True:
            while (self.phase < _NEWTON).any():
                for phase, handler in enumerate(handlers):
                    i = np.flatnonzero(self.phase == phase)
                    if i.size:
                        handler(i)
            i = np.flatnonzero(self.phase != _DONE)
            if not i.size:
                break
            value, grad, hess = self._evaluate(i)
            newton = self.phase[i] == _NEWTON
            for results, pick in ((self._newton_results, newton), (self._gradient_results, ~newton)):
                if pick.any():
                    results(i[pick], value[pick], grad[pick], hess[pick])
        degenerate = "log-likelihood is degenerate at the interior starting point for node "
        return [(self.theta[k, : self.m[k]].copy(), float(self.value[k]), float(self.pg[k]), int(self.it[k]))
                if ok[k] else EstimationError(degenerate + str(self.datas[k].node)) for k in everyone]

    def _accept(self, i, value, grad, hess, pg):
        self.theta[i], self.value[i], self.grad[i], self.hess[i] = self.cand[i], value, grad, hess
        self.pg[i], self.moved[i] = pg, True

    # An outer round polishes with Newton, then runs a gradient burst unless
    # the certificate holds; a round in which nothing moved ends the fit.
    def _outer(self, i):
        go = (self.pg[i] > self.tol) & (self.it[i] < self.max_iter)
        self.phase[i] = np.where(go, _STEP, _DONE)
        self.moved[i], self.limit[i] = False, np.minimum(self.it[i] + _POLISH_STEPS, self.max_iter)

    # Polish: active-set Newton steps, accepted when they shrink the projected
    # gradient rather than when they raise the objective, since near a
    # solution objective differences fall below floating-point noise while
    # the first-order residual is still measurable.
    def _step(self, i):
        go = (self.pg[i] > self.tol) & (self.it[i] < self.limit[i])
        self.it[i[go]] += 1
        free = self.theta[i] > self.eps + _BOUNDARY_TOL
        go &= free.any(axis=1)
        self._polish_over(i[~go])
        i, free = i[go], free[go]
        if i.size:
            face = self.theta[i].sum(axis=1) >= self.gamma - _BOUNDARY_TOL
            self.direction[i] = _newton_directions(self.hess[i], self.grad[i], free, face)
            self.s[i], self.tries[i], self.phase[i] = 1.0, 0, _DAMP

    def _damp(self, i):
        cand = self._trial(i)
        moves = (cand != self.theta[i]).any(axis=1)
        self.cand[i[moves]], self.phase[i[moves]] = cand[moves], _NEWTON
        self._halve(i[~moves])

    def _halve(self, i):
        self.s[i] *= 0.5
        self.tries[i] += 1
        over = self.tries[i] == 25
        self.phase[i[~over]] = _DAMP
        self._polish_over(i[over])

    def _newton_results(self, i, value, grad, hess):
        ok = np.isfinite(value)
        pg = np.full(i.size, np.inf)
        pg[ok] = _certificate(self.cand[i[ok]], grad[ok], self.real[i[ok]], self.eps, self.gamma)
        better = ok & (pg < self.pg[i])
        self._accept(i[better], value[better], grad[better], hess[better], pg[better])
        self.phase[i[better]] = _STEP
        self._halve(i[~better])

    def _polish_over(self, i):
        # a certified member passes through the burst and the outer test unmoved
        self.limit[i], self.phase[i] = np.minimum(self.it[i] + 10, self.max_iter), _BURST

    # Burst: projected gradient ascent with Barzilai-Borwein steps and Armijo
    # backtracking, the fallback when Newton stalls and the warm-up for
    # densities that are not log-concave.
    def _burst(self, i):
        go = (self.pg[i] > self.tol) & (self.it[i] < self.limit[i])
        self._burst_over(i[~go])
        i = i[go]
        self.s[i], self.tries[i] = self.step[i], 0
        self.direction[i] = self.grad[i]
        cand = self._trial(i)
        for _ in range(40):
            # escape the ulp regime where the projected point does not move
            still = np.flatnonzero(~(cand != self.theta[i]).any(axis=1))
            if not still.size:
                break
            self.s[i[still]] *= 4.0
            cand[still] = self._trial(i[still])
        self._offer(i, cand)

    def _trial(self, i):
        return _project(self.theta[i] + self.s[i][:, None] * self.direction[i], self.real[i], self.eps, self.gamma)

    def _offer(self, i, cand):
        moves = (cand != self.theta[i]).any(axis=1)
        self.cand[i], self.phase[i[moves]] = cand, _GRADIENT
        self._burst_over(i[~moves])

    def _gradient_results(self, i, value, grad, hess):
        move = self.cand[i] - self.theta[i]
        ok = np.isfinite(value) & (value >= self.value[i] + 1e-4 * _dot(self.grad[i], move))
        a, move = i[ok], move[ok]
        curv = _dot(move, grad[ok] - self.grad[a])
        with np.errstate(divide="ignore", invalid="ignore"):
            bb = np.maximum(_dot(move, move) / -curv, 1e-12)  # the Barzilai-Borwein step, where curv < 0
        self.step[a] = np.minimum(np.where(curv < 0, bb, self.step[a] * 4.0), 1e8)
        pg = _certificate(self.cand[a], grad[ok], self.real[a], self.eps, self.gamma)
        self._accept(a, value[ok], grad[ok], hess[ok], pg)
        self.it[a] += 1
        self.phase[a] = _BURST
        r = i[~ok]
        self.tries[r] += 1
        over = self.tries[r] == 60
        self._burst_over(r[over])
        r = r[~over]
        self.s[r] *= 0.25
        self._offer(r, self._trial(r))

    def _burst_over(self, i):
        self.phase[i] = np.where(self.moved[i], _OUTER, _DONE)


def _solve(datas, spec, epsilon, gamma, tol, max_iter):
    """:meth:`_Lockstep.run` on ``datas``; should it raise, each node is solved
    alone, so that only the nodes at fault fail, their exception the result."""
    try:
        return _Lockstep(datas, spec, epsilon, gamma, tol, max_iter).run()
    except Exception as exc:  # noqa: BLE001 - per-node isolation
        if len(datas) == 1:
            return [exc]
        return [r for d in datas for r in _solve([d], spec, epsilon, gamma, tol, max_iter)]


def _fit_group(datas, spec, options):
    """Fit the nodes ``datas`` under one spec, failures recorded in ``error``:
    sorted by pattern count, node id, parents and patterns, so results do not
    depend on the order of ``datas``, in lockstep chunks of ``_BLOCK``."""
    out, todo = [None] * len(datas), []
    for k, data in enumerate(datas):
        try:
            if data.n_informative_rows == 0:
                raise EstimationError(f"node {data.node} has no informative rows")
            if not spec.log_concave_density:
                warnings.warn(f"threshold density for node {data.node} is not log-concave; "
                              f"the fit is a local optimum only", stacklevel=3)
            gamma = options.resolve_gamma(spec, len(data.parents))
            todo.append(k)
        except EstimationError as exc:
            out[k] = _failure(data, spec, options, exc)
    size = [d._patterns[2].size + d._patterns[4].size for d in datas]
    todo.sort(key=lambda k: (size[k], datas[k].node, datas[k].parents, [p.tobytes() for p in datas[k]._patterns]))
    chunks, width = [[]], 0
    for k in todo:
        width = max(width, len(datas[k].parents))
        if chunks[-1] and (len(chunks[-1]) + 1) * size[k] * width > _BLOCK:
            chunks.append([])
            width = len(datas[k].parents)
        chunks[-1].append(k)
    for chunk in filter(None, chunks):
        for k, result in zip(chunk, _solve([datas[k] for k in chunk], spec, options.epsilon, gamma, _TOL, _MAX_ITER)):
            d = datas[k]
            out[k] = _failure(d, spec, options, result) if isinstance(result, Exception) else NodeFitResult(
                d.node, d.parents, result[0], bool(result[2] <= _TOL), result[1], d.n_obs, options.epsilon,
                gamma, spec, projected_gradient_norm=result[2], iterations=result[3])
    return out


def _failure(data, spec, options, error):
    return NodeFitResult(data.node, data.parents, None, False, np.nan, 0, options.epsilon, np.nan, spec,
                         error=str(error))


def fit_node(node_data: NodeData, spec: ThresholdSpec, options: FitOptions = None) -> NodeFitResult:
    """Maximize the node log-likelihood over the truncated simplex: a
    lockstep batch of one.

    Deterministic given its inputs.  Non-convergence within the iteration
    budget (``_MAX_ITER``) returns the best iterate with ``converged=False``
    rather than raising; convergence means a certificate of at most ``_TOL``.
    A fit that cannot be carried out raises EstimationError.
    """
    (result,) = _fit_group([node_data], spec, options or FitOptions())
    if not result.estimated:
        raise EstimationError(result.error)
    return result


def fit_all(datasets: dict, specs, options: FitOptions = None) -> dict:
    """Fit every NodeData of ``datasets``, a dict such as
    ``build_all_node_data(traces, graph)``.  Keys only label the datasets and
    need not be node ids: ``(rep, v)`` keys fit several replications at once.

    ``specs`` is a single ThresholdSpec or a sequence indexed by key; the
    datasets sharing a spec are fitted in lockstep.  Failures are recorded
    on the result (``error`` field), never raised, so a batch always
    completes; only a key that indexes no spec of a sequence raises.
    """
    options, groups, out = options or FitOptions(), {}, {}
    table = None if isinstance(specs, ThresholdSpec) else tuple(specs)
    for v in datasets:
        if table is not None and not (is_node_id(v) and 0 <= v < len(table)):
            raise EstimationError(f"dataset key {v!r} indexes no spec of the {len(table)} given")
        groups.setdefault(specs if table is None else table[v], []).append(v)
    for spec, nodes in groups.items():
        out.update(zip(nodes, _fit_group([datasets[v] for v in nodes], spec, options)))
    return {v: out[v] for v in datasets}


def fit_with_threshold_grid(datasets, grid, options: FitOptions = None):
    """Fit beta(alpha, beta) thresholds at each ``(alpha, beta)`` of ``grid``
    to every NodeData of ``datasets``, a dict keyed as for :func:`fit_all`,
    and keep each one's best fit under its key, the parameters in ``phi``.

    The nodes are fitted in lockstep at each grid point, as by
    :func:`fit_all`.  Ties in log-likelihood break toward the earliest grid
    position.  A node whose every grid fit failed gets a result whose
    ``error`` lists the failures and whose ``spec`` is None; only an empty
    grid raises.
    """
    grid = tuple(grid)
    if not grid:
        raise EstimationError("threshold-parameter grid is empty")
    options = options or FitOptions()
    best, failures = {}, {v: [] for v in datasets}
    for phi in grid:
        spec = make_beta(*phi)
        if not spec.log_concave_density:
            for v in datasets:
                failures[v].append(f"{phi}: not fit-safe (density not log-concave)")
            continue
        for v, result in zip(datasets, _fit_group(list(datasets.values()), spec, options)):
            if not result.estimated:
                failures[v].append(f"{phi}: {result.error}")
            elif v not in best or result.loglik > best[v].loglik:
                result.phi = {"family": "beta", "params": phi}
                best[v] = result
    failed = "all grid fits failed: "
    return {v: best.get(v) or _failure(d, None, options, failed + "; ".join(failures[v][:5]))
            for v, d in datasets.items()}


# -- heuristic baselines ------------------------------------------------------


def baseline_wc(graph: Graph) -> np.ndarray:
    """Weighted-cascade heuristic: each edge (u, v) gets 1 / indegree(v)."""
    weights = np.zeros(graph.edge_count())
    for v in range(graph.n):
        m = graph.in_degree(v)
        if m:
            weights[graph.child_slice(v)] = _cap_sum(np.full(m, 1.0 / m), 1.0)
    return weights


def baseline_ptp(traces, graph: Graph) -> np.ndarray:
    """Propagated-trace-proportion heuristic.

    Each edge's raw score is (#traces where u activates strictly before v) /
    (#traces where u activates); scores are renormalized so each fitted
    child's parent weights sum to 1, falling back to the uniform 1/indegree
    when all of a child's scores are zero.  Each trace must be feasible on
    ``graph``, as for ``build_all_node_data``.
    """
    traces = [validate_trace(graph, t) for t in traces]
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
        weights[graph.child_slice(v)] = _cap_sum(raw, 1.0)
    return weights
