"""Spread estimation and greedy influence maximization.

The Monte Carlo estimator closes its replicates with the closure kernel of
:mod:`gltnet.model`, ``max(1, _CHUNK // n)`` at a time, so a batch holds
about ``_CHUNK`` (node, replicate) elements whatever n is: uniforms ``u``
are drawn as one replicate-by-node matrix, thresholds are
``max(F^-1(u), tiny)``, and a node activates once its summed active-parent
weight reaches its threshold (``b >= threshold``).  That test is one
comparison per entry, so unlike simulation, which evaluates ``F_v`` only
where ``b`` grew, its rounds keep no mask of where ``b`` grew.  Replicate
counts above ``graph._MAX_REALIZATIONS`` are refused before anything is
drawn.  Greedy selection is one loop over an evaluator's marginal gains.
The Monte Carlo evaluator reuses one draw matrix per step across all
candidate seeds (common random numbers), closes the step's base set S once
on it, and closes each candidate v from closure(S) + v, which is exact: on
fixed thresholds closure(S + v) = closure(closure(S) + v).  A step's
candidates close side by side in column chunks, with the same bits; the
step's base block stays n x R for the user's R.  The exact evaluators take
sigma from :func:`exact_evaluator`, a batch function from a list of seed
sets to their spreads by trace enumeration or, for bipartite graphs, a
closed form; greedy and the exhaustive scans each call it once per step or
scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, tee

import numpy as np

from .graph import _MAX_REALIZATIONS
from .model import _CHUNK, ExactSpreadOracle, GltModel, _closure_rounds, _parent_weights, _spec_groups
from .rng import as_generator, substream

__all__ = [
    "SpreadEstimate",
    "ImSolution",
    "InfluenceError",
    "estimate_spread_mc",
    "spread_bipartite_closed_form",
    "exact_evaluator",
    "greedy_im",
    "optimal_seed_set",
    "im_solution_gap",
]


class InfluenceError(ValueError):
    """Invalid influence-maximization request."""


@dataclass(frozen=True)
class SpreadEstimate:
    mean: float
    std_error: float
    replicates: int


@dataclass(frozen=True)
class ImSolution:
    seeds: tuple  # greedy selection order
    gains: tuple  # estimated marginal gain at each step
    spread: SpreadEstimate  # spread of the final seed set

    @property
    def seed_set(self) -> frozenset:
        return frozenset(self.seeds)


def _check_replicates(replicates):
    if replicates < 1:
        raise InfluenceError(f"need at least one replicate, got {replicates}")
    if replicates > _MAX_REALIZATIONS:
        raise InfluenceError(f"replicate count {replicates} exceeds the ceiling {_MAX_REALIZATIONS}")


def _thresholds(groups, n, rng, replicates):
    """C-ordered (n x R) thresholds from a replicate-by-node matrix of U(0, 1]
    draws; ``groups`` are the model's :func:`_spec_groups`."""
    draws = 1.0 - rng.random((replicates, n))
    out = np.empty_like(draws)
    for spec, nodes in groups:
        out[:, nodes] = spec.inverse_cdf(draws[:, nodes])
    # a threshold rounded to exactly 0 would let a zero-influence node
    # self-activate; the true thresholds are almost surely positive
    return np.ascontiguousarray(np.maximum(out, np.finfo(float).tiny, out=out).T)


def _final_sizes(weights, thresholds, seeds, state=None) -> np.ndarray:
    """Activate the rows ``seeds`` of the 0/1 ``state`` (default: all zero),
    close it in place on ``thresholds`` and return each column's size."""
    if state is None:
        state = np.zeros(thresholds.shape)
    state[seeds] = 1.0
    for _ in _closure_rounds(weights, state, thresholds, np.greater_equal):
        pass
    return state.sum(axis=0)


def estimate_spread_mc(model: GltModel, seed_set, replicates: int, rng) -> SpreadEstimate:
    """Monte Carlo spread estimate with its standard error.

    ``rng`` may be a Generator or an integer root seed; results are a pure
    function of it.  Replicates are drawn and closed ``max(1, _CHUNK // n)``
    at a time, consecutive rows of one stream, so the estimate does not
    depend on the chunk size.
    """
    _check_replicates(replicates)
    seed_list = sorted(model.graph._check(v) for v in seed_set)
    if not seed_list:
        raise InfluenceError("seed set must be nonempty")
    rng = as_generator(rng)
    weights, groups = _parent_weights(model), _spec_groups(model)
    n = model.graph.n
    width = max(1, _CHUNK // n)
    sizes = np.concatenate([
        _final_sizes(weights, _thresholds(groups, n, rng, min(width, replicates - done)), seed_list)
        for done in range(0, replicates, width)
    ])
    mean = float(sizes.mean())
    se = float(sizes.std(ddof=1) / np.sqrt(replicates)) if replicates > 1 else 0.0
    return SpreadEstimate(mean=mean, std_error=se, replicates=replicates)


def spread_bipartite_closed_form(model: GltModel, seed_set) -> float:
    """Exact spread on a parent-side/child-side bipartite graph.

    sigma(S) = |S| + sum over exposed children v outside S of F_v(B_v(S)).
    Raises when some node has both parents and children (not bipartite in
    the required orientation).
    """
    return exact_evaluator(model, "bipartite")([seed_set])[0]


def _bipartite_spread(model: GltModel, seed_set) -> float:
    graph = model.graph
    seed = {graph._check(v) for v in seed_set}
    total = float(len(seed))
    for v in graph.child_nodes():
        if v in seed:
            continue
        total += model.spec(v).cdf(model.influence(v, seed))
    return total


def exact_evaluator(model: GltModel, evaluator: str, node_cap: int = 10**6):
    """The exact spread function of the named evaluator, as a batch function
    from a list of seed sets to the list of their spreads (0.0 for an empty
    set), in input order.

    The "exact" oracle is memoized, so it shares work across seed sets and
    batches; the "bipartite" graph orientation is checked once, here, not
    per seed set.
    """
    if evaluator == "exact":
        return ExactSpreadOracle(model, node_cap=node_cap).spreads
    if evaluator == "bipartite":
        graph = model.graph
        for v in range(graph.n):
            if graph.in_degree(v) and graph.children(v):
                raise InfluenceError(
                    f"node {v} has both parents and children; graph is not "
                    f"bipartite in the parent-to-child orientation"
                )
        return lambda seed_sets: [_bipartite_spread(model, s) for s in seed_sets]
    raise InfluenceError(f"not an exact evaluator: {evaluator!r}")


class _MonteCarloGains:
    """Greedy evaluator on common random numbers: the step extending
    ``seeds`` shares the draws of ``(root, "im-step", len(seeds))``.

    A step closes its base set S once.  On fixed thresholds the final set is
    the least fixed point above the seeds, so closure(S + v) =
    closure(closure(S) + v): candidate v keeps the base size where closure(S)
    holds v and closes the other replicates from closure(S) + v.  The row
    sums ``b`` are the same, so every size is bit-identical to a fresh one.
    Every candidate's cold columns (where closure(S) lacks v), each with its
    v set, close together in column chunks of max(R, _CHUNK // n); closure
    is column by column, so the sizes do not change, and no chunk holds more
    elements than the step's own n x R block or _CHUNK.  That base block and
    its thresholds are as large as the user's R.  As in spread estimation,
    the rounds test ``b >= threshold`` on the whole block, with no mask of
    where ``b`` grew.
    """

    def __init__(self, model, root, replicates):
        self.model = model
        self.root = root
        self.replicates = replicates
        self.weights, self.groups = _parent_weights(model), _spec_groups(model)

    def gains(self, seeds, candidates):
        """mean(S + v) - mean(S) on the step's shared draws."""
        rng = substream(self.root, "im-step", len(seeds))
        thresholds = _thresholds(self.groups, self.model.graph.n, rng, self.replicates)
        base = np.zeros(thresholds.shape)
        base_sizes = _final_sizes(self.weights, thresholds, seeds, base)
        n, replicates = thresholds.shape
        cold = [np.flatnonzero(base[v] == 0.0) for v in candidates]
        owner = np.repeat(np.arange(len(candidates)), [c.size for c in cold])
        cols = np.concatenate(cold)
        sizes = np.tile(base_sizes, (len(candidates), 1))
        width = max(replicates, _CHUNK // n)
        for start in range(0, cols.size, width):
            part = slice(start, start + width)
            state = base.take(cols[part], axis=1)
            state[np.take(candidates, owner[part]), np.arange(state.shape[1])] = 1.0
            sizes[owner[part], cols[part]] = _final_sizes(self.weights, thresholds.take(cols[part], axis=1), [], state)
        return list(sizes.mean(axis=1) - base_sizes.mean())

    def spread(self, seeds) -> SpreadEstimate:
        if not seeds:
            return SpreadEstimate(0.0, 0.0, self.replicates)
        return estimate_spread_mc(
            self.model, seeds, self.replicates, substream(self.root, "im-final")
        )


def greedy_im(model: GltModel, budget: int, spread_evaluator: str = "mc", rng=None, *, replicates: int = 1000, node_cap: int = 10**6) -> ImSolution:
    """Greedy seed selection under an exact or Monte Carlo spread oracle.

    ``spread_evaluator`` is one of "mc", "exact", "bipartite".  Ties break
    toward the lowest node index.  With the MC evaluator the draw matrix of
    each greedy step is shared across candidates and derived from
    ``(root seed, step)``, so the outcome is reproducible and independent
    of evaluation order; ``rng`` must then be supplied (int root seed or a
    Generator used once to derive one).
    """
    n = model.graph.n
    if not (0 <= budget <= n):
        raise InfluenceError(f"budget {budget} outside [0, {n}]")
    if spread_evaluator == "mc":
        _check_replicates(replicates)
        if rng is None:
            raise InfluenceError("the MC evaluator needs an rng or root seed")
        if isinstance(rng, (int, np.integer)):
            root = int(rng)
        else:
            root = int(as_generator(rng).integers(0, 2**63 - 1))
        mc = _MonteCarloGains(model, root, replicates)
    elif spread_evaluator in ("exact", "bipartite"):
        mc, sigma = None, exact_evaluator(model, spread_evaluator, node_cap)
    else:
        raise InfluenceError(f"unknown spread evaluator {spread_evaluator!r}")

    seeds = []
    gains = []
    for _ in range(budget):
        candidates = [v for v in range(n) if v not in seeds]
        if mc is None:  # sigma(S + v) - sigma(S) for each candidate v, from one batch
            base, *values = sigma([seeds] + [seeds + [v] for v in candidates])
            step_gains = [value - base for value in values]
        else:
            step_gains = mc.gains(seeds, candidates)
        best = max(range(len(candidates)), key=step_gains.__getitem__)
        seeds.append(candidates[best])
        gains.append(float(step_gains[best]))
    spread = SpreadEstimate(sigma([seeds])[0], 0.0, 0) if mc is None else mc.spread(seeds)
    return ImSolution(seeds=tuple(seeds), gains=tuple(gains), spread=spread)


def _spread_table(sigma, n, sizes) -> dict:
    """Each subset of ``range(n)`` with a size in ``sizes``, as a tuple in
    ``combinations`` order, mapped to its spread by one lazily read batch,
    which the "exact" oracle refuses past ``node_cap`` nonempty sets."""
    keys, batch = tee(c for r in sizes for c in combinations(range(n), r))
    return dict(zip(keys, sigma(batch)))


def optimal_seed_set(model: GltModel, budget: int, spread_evaluator: str = "exact", node_cap: int = 10**6):
    """Exhaustive influence maximizer over all seed sets of the given size.

    Returns ``(seed_set, spread)``; spread is monotone, so only sets of
    exactly ``budget`` nodes need scanning, in one batch (see
    :func:`_spread_table`).  Lexicographically first among ties.
    """
    sigma = exact_evaluator(model, spread_evaluator, node_cap)
    n = model.graph.n
    if not (0 <= budget <= n):
        raise InfluenceError(f"budget {budget} outside [0, {n}]")
    table = _spread_table(sigma, n, [budget])
    best = max(table, key=table.__getitem__)
    return frozenset(best), float(table[best])


def im_solution_gap(true_model: GltModel, est_model: GltModel, budget: int, spread_evaluator: str = "exact", node_cap: int = 10**6) -> float:
    """Spread lost by optimizing under estimated instead of true weights.

    Both optima are exhaustive; the gap is evaluated under the true model:
    sigma_true(S*(true)) - sigma_true(S*(est)) >= 0 up to ties.  S*(est) is
    looked up in the true model's table of every candidate set.
    """
    if true_model.graph != est_model.graph:
        raise InfluenceError("models must share the same underlying graph")
    sigma_true = exact_evaluator(true_model, spread_evaluator, node_cap)
    s_est, _ = optimal_seed_set(est_model, budget, spread_evaluator, node_cap)
    table = _spread_table(sigma_true, true_model.graph.n, [budget])
    return float(max(table.values()) - table[tuple(sorted(s_est))])
