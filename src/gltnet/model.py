"""The general linear threshold model: kernel, simulation, exact distributions.

A model is a graph, a nonnegative weight per edge (canonical order), and a
threshold distribution per node.  A node activates at step t >= 1 once the
summed weight of its active parents reaches its random threshold; thresholds
are drawn once per node per realization (threshold persistence), which makes
the final active set a deterministic function of the threshold vector.

A :class:`Trace` is the one history type: :func:`transition_probability`
conditions on a trace prefix, checked once with :func:`validate_trace`.

One closure kernel propagates every batch of realizations: it reads the
canonical edge storage as a child-by-parent CSR matrix, and each consumer
passes its own threshold test.  Simulation (:func:`simulate_traces`, and
:func:`simulate_trace` as its one-trace case) tests ``F_v(b) >= u``; Monte
Carlo spread (:mod:`gltnet.influence`) tests ``b >= max(F_v^-1(u), tiny)``.

Exact quantities (per-trace probabilities, expected spread) are available by
exhaustive enumeration of feasible traces; the spread enumeration is
memoized on (active set, frontier) states, which computes the identical sum
while sharing work across seed sets.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np

from .graph import Graph, children_of_set, is_node_id
from .rng import as_generator
from .thresholds import ThresholdSpec, make_exponential_unit, make_uniform

__all__ = [
    "GltModel",
    "Trace",
    "ModelError",
    "ZeroProbabilityError",
    "EnumerationCapError",
    "validate_trace",
    "transition_probability",
    "simulate_trace",
    "simulate_traces",
    "trace_log_probability",
    "enumerate_feasible_traces",
    "exact_spread",
    "ExactSpreadOracle",
    "from_ic",
    "from_lt",
]

NEVER = np.iinfo(np.int64).max  # activation round of a node that never activates
_CHUNK = 16384  # realizations per closure batch, bounding its memory


class ModelError(ValueError):
    """Invalid model construction or argument."""


class ZeroProbabilityError(ValueError):
    """A trace factor is (numerically) zero: data and model are inconsistent."""

    def __init__(self, node, time, detail=""):
        self.node = node
        self.time = time
        msg = f"zero-probability factor at node {node}, time {time}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class EnumerationCapError(RuntimeError):
    """Exhaustive enumeration exceeded its state budget."""

    def __init__(self, state_count, cap):
        self.state_count = state_count
        self.cap = cap
        super().__init__(f"enumeration exceeded cap: {state_count} states > {cap}")


def _node_id(v) -> int:
    """``v`` as an int; ModelError unless it is an integer (never truncated)."""
    if not is_node_id(v):
        raise ModelError(f"node id {v!r} is not an integer")
    return int(v)


class Trace:
    """A propagation trace: ordered disjoint sets of newly activated nodes."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        steps = tuple(frozenset(map(_node_id, s)) for s in steps)
        if not steps or not steps[0]:
            raise ModelError("a trace must start with a nonempty seed set")
        seen = set()
        for t, d in enumerate(steps):
            if t > 0 and not d:
                raise ModelError(f"empty step at time {t}")
            if seen & d:
                raise ModelError(f"step {t} re-activates {sorted(seen & d)}")
            seen |= d
        self.steps = steps

    @property
    def seed(self) -> frozenset:
        return self.steps[0]

    @property
    def horizon(self) -> int:
        return len(self.steps) - 1

    def active(self, t: int) -> frozenset:
        """Cumulative active set A_t, with A_{-1} = the empty set."""
        return frozenset().union(*self.steps[: max(t + 1, 0)])

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        return isinstance(other, Trace) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        body = ", ".join("{" + ",".join(map(str, sorted(s))) + "}" for s in self.steps)
        return f"Trace({body})"


def validate_trace(graph: Graph, trace) -> Trace:
    """The :class:`Trace` of ``trace`` (or its steps), checked feasible
    (Definition 1) on a graph."""
    if not isinstance(trace, Trace):
        trace = Trace(trace)
    for t, d in enumerate(trace.steps):
        for v in d:
            graph._check(v)
        if t > 0:
            for v in d:
                if trace.steps[t - 1].isdisjoint(graph._parents[v]):
                    raise ModelError(
                        f"node {v} activates at time {t} without a newly "
                        f"activated parent"
                    )
    return trace


def _activation_rounds(traces, n: int):
    """``(rounds, horizons)``: the (traces x n) int64 first-active round of
    every node in every trace (``NEVER`` if it never activates) and each
    trace's horizon, from one pass over each trace's steps."""
    traces = [t if isinstance(t, Trace) else Trace(t) for t in traces]
    index, nodes, times = [], [], []
    for i, trace in enumerate(traces):
        for t, step in enumerate(trace.steps):
            index += [i] * len(step)
            nodes += step
            times += [t] * len(step)
    if nodes and not 0 <= min(nodes) <= max(nodes) < n:
        raise ModelError(f"trace nodes outside 0..{n - 1}")
    rounds = np.full((len(traces), n), NEVER, dtype=np.int64)
    rounds[index, nodes] = times
    return rounds, np.array([t.horizon for t in traces], dtype=np.int64)


class GltModel:
    """Graph + per-edge weights + per-node threshold specs.

    ``thresholds`` may be a single spec (shared by every node) or a sequence
    of length ``graph.n``.  Weights are aligned to the canonical edge order;
    for every child the weighted in-degree must not exceed the support bound
    of its threshold distribution.
    """

    __slots__ = ("graph", "weights", "thresholds")

    def __init__(self, graph, weights, thresholds):
        w = np.asarray(weights, dtype=float)
        if w.shape != (graph.edge_count(),):
            raise ModelError(
                f"expected {graph.edge_count()} weights, got shape {w.shape}"
            )
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ModelError("edge weights must be finite and nonnegative")
        if isinstance(thresholds, ThresholdSpec):
            specs = (thresholds,) * graph.n
        else:
            specs = tuple(thresholds)
            if len(specs) != graph.n:
                raise ModelError(
                    f"expected {graph.n} threshold specs, got {len(specs)}"
                )
        for v in range(graph.n):
            total = w[graph.child_slice(v)].sum()
            if total > specs[v].support_bound:
                raise ModelError(
                    f"weighted in-degree {total} of node {v} exceeds the "
                    f"threshold support bound {specs[v].support_bound}"
                )
        self.graph = graph
        self.weights = w
        self.weights.flags.writeable = False
        self.thresholds = specs

    def spec(self, v: int) -> ThresholdSpec:
        return self.thresholds[v]

    def theta(self, v: int) -> np.ndarray:
        """Parent weights of v, ordered by ascending parent index."""
        return self.weights[self.graph.child_slice(v)]

    def influence(self, v: int, nodes) -> float:
        """Summed weight B_v(S) that v receives from the node set S."""
        theta = self.theta(v)
        total = 0.0
        for j, u in enumerate(self.graph.parent_list(v)):
            if u in nodes:
                total += theta[j]
        return total

    def with_weights(self, weights) -> "GltModel":
        return GltModel(self.graph, weights, self.thresholds)

    def __repr__(self):
        return f"GltModel(n={self.graph.n}, m={self.graph.edge_count()})"


def from_lt(graph: Graph, weights) -> GltModel:
    """Linear threshold model: uniform thresholds, in-degree sums at most 1."""
    return GltModel(graph, weights, make_uniform())


def from_ic(graph: Graph, edge_probabilities) -> GltModel:
    """Independent cascade model embedded as unit-exponential thresholds.

    Maps each propagation probability p to the weight -log(1 - p); p = 1 is
    rejected (infinite weight).
    """
    p = np.asarray(edge_probabilities, dtype=float)
    if p.shape != (graph.edge_count(),):
        raise ModelError(
            f"expected {graph.edge_count()} probabilities, got shape {p.shape}"
        )
    if np.any((p < 0) | (p >= 1)):
        raise ModelError("IC probabilities must lie in [0, 1)")
    return GltModel(graph, -np.log1p(-p), make_exponential_unit())


# -- transition kernel and simulation ---------------------------------------


def transition_probability(model: GltModel, history, v: int, t: int) -> float:
    """Probability that v newly activates at time t given the history.

    The history, a feasible trace, must cover steps 0..t-1.  Returns 0 when v
    has no newly activated parent at t-1 (the model forbids activation then).
    """
    history = validate_trace(model.graph, history)
    if t < 1 or t > len(history):
        raise ModelError(f"time {t} outside the history (length {len(history)})")
    a_prev = history.active(t - 1)
    if v in a_prev:
        raise ModelError(f"node {v} is already active at time {t - 1}")
    if not (model.graph.parents(v) & history.steps[t - 1]):
        return 0.0
    spec = model.spec(v)
    x = model.influence(v, a_prev)
    y = model.influence(v, history.active(t - 2))
    denom = spec.sf(y)
    if denom <= 0.0:
        raise ZeroProbabilityError(v, t, "conditioning event has probability 0")
    return min(1.0, spec.interval_prob(x, y) / denom)


def _spec_groups(model):
    """``(spec, node index array)`` pairs, one per distinct threshold spec."""
    groups = {}
    for v, spec in enumerate(model.thresholds):
        groups.setdefault(spec, []).append(v)
    return [(spec, np.array(nodes)) for spec, nodes in groups.items()]


def _parent_weights(model):
    """The child-by-parent CSR matrix of ``model.weights``, parents ascending."""
    from scipy.sparse import csr_array

    graph = model.graph
    csr = (model.weights, graph._parent_index, graph._child_offsets)
    return csr_array(csr, shape=(graph.n, graph.n))


def _closure_rounds(weights, state, levels, crosses):
    """Close the (n x R) 0/1 float ``state`` in place; each round yield
    ``(cols, newly)``: the live block's column indices and its newly active
    mask, the inactive nodes where ``crosses(b, levels)`` holds.

    ``b = weights @ state`` (:func:`_parent_weights`) sums active-parent
    weights in ascending parent order, bit for bit as
    :meth:`GltModel.influence`.  A column that gains nothing is final.  Once
    at most a third of the block grows, the block is written back to
    ``state`` and its growing columns, with their ``levels``, become the
    block, so later rounds multiply only those in one block's memory.
    """
    cols = np.arange(state.shape[1])
    live, live_levels = state, levels
    while True:
        newly = crosses(weights @ live, live_levels) & (live == 0.0)
        gained = newly.any(axis=0)
        if not gained.any():
            break
        live += newly
        yield cols, newly
        if 3 * np.count_nonzero(gained) <= gained.size:
            if live is not state:
                state[:, cols] = live
            cols = cols[gained]
            live = live_levels = None  # free the old block before copying
            live, live_levels = state.take(cols, axis=1), levels.take(cols, axis=1)
    if live is not state:
        state[:, cols] = live


def simulate_traces(model: GltModel, seed_sets, rngs) -> list:
    """Simulate one trace per (seed set, rng) pair, in batches of ``_CHUNK``.

    Trace j draws each node's threshold once (persistence) from ``rngs[j]``
    as a ``U(0, 1]`` variate ``u``: node v activates once ``F_v(B_v) >= u_v``.
    The result equals ``[simulate_trace(model, s, r) for s, r in ...]``, so a
    Generator repeated in ``rngs`` is consumed in list order.
    """
    seeds = [{model.graph._check(v) for v in seed_set} for seed_set in seed_sets]
    rngs = list(rngs)
    if len(rngs) != len(seeds):
        raise ModelError(f"{len(seeds)} seed sets but {len(rngs)} rngs")
    traces = []
    for start in range(0, len(seeds), _CHUNK):
        stop = start + _CHUNK
        traces += _simulate_batch(model, seeds[start:stop], rngs[start:stop])
    return traces


def _simulate_batch(model, seeds, rngs) -> list:
    graph = model.graph
    state = np.zeros((graph.n, len(seeds)))
    draws = np.empty_like(state)
    for j, (seed, rng) in enumerate(zip(seeds, rngs)):
        if not seed:
            raise ModelError("seed set must be nonempty")
        state[list(seed), j] = 1.0
        # U(0, 1]: an exact-zero draw cannot activate a node with F_v(B_v) = 0
        draws[:, j] = 1.0 - as_generator(rng).random(graph.n)
    groups = _spec_groups(model)

    def crosses(b, u):
        hit = np.empty(b.shape, dtype=bool)
        for spec, nodes in groups:
            hit[nodes] = spec._cdf(b[nodes]) >= u[nodes]
        return hit

    steps = [[seed] for seed in seeds]
    for cols, newly in _closure_rounds(_parent_weights(model), state, draws, crosses):
        for j in np.flatnonzero(newly.any(axis=0)):
            steps[cols[j]].append(np.flatnonzero(newly[:, j]).tolist())
    return [Trace(s) for s in steps]


def simulate_trace(model: GltModel, seed_set, rng) -> Trace:
    """Simulate one trace, drawing each node's threshold once (persistence)."""
    return simulate_traces(model, [seed_set], [rng])[0]


def trace_log_probability(model: GltModel, trace, seed_log_prob: float = 0.0) -> float:
    """Log-probability of a feasible trace (seed term supplied externally).

    Raises :class:`ZeroProbabilityError` naming the offending node and time
    when a factor is (numerically) zero.
    """
    trace = validate_trace(model.graph, trace)
    T = trace.horizon
    total = float(seed_log_prob)
    a_final = trace.active(T)
    for v in sorted(children_of_set(model.graph, a_final)):
        spec = model.spec(v)
        s = spec.sf(model.influence(v, a_final))
        if s <= spec.interval_zero_tol():
            raise ZeroProbabilityError(v, T, "survival factor vanishes")
        total += spec.log_sf(model.influence(v, a_final))
    for t in range(1, T + 1):
        a_prev = trace.active(t - 1)
        a_prev2 = trace.active(t - 2)
        for v in sorted(trace.steps[t]):
            spec = model.spec(v)
            x = model.influence(v, a_prev)
            y = model.influence(v, a_prev2)
            if spec.interval_prob(x, y) <= spec.interval_zero_tol():
                raise ZeroProbabilityError(v, t, "activation factor vanishes")
            total += spec.log_interval_prob(x, y)
    return total


# -- exhaustive enumeration --------------------------------------------------


def enumerate_feasible_traces(graph: Graph, seed_set, node_cap: int = 10**6) -> list:
    """All feasible traces starting at the given seed, in depth-first order.

    Every prefix counts toward the state budget; exceeding ``node_cap``
    raises :class:`EnumerationCapError` with the state count reached.  The
    expansion keeps an explicit stack, so long traces cannot exhaust the
    interpreter's recursion limit.
    """
    seed = frozenset(graph._check(v) for v in seed_set)
    if not seed:
        raise ModelError("seed set must be nonempty")
    out = []
    stack = []  # (steps, active, iterator over the next step's choices)

    def visit(steps, active, frontier):
        if len(out) >= node_cap:
            raise EnumerationCapError(len(out) + 1, node_cap)
        out.append(Trace(steps))
        cand = sorted(children_of_set(graph, frontier) - active)
        choices = chain.from_iterable(
            combinations(cand, r) for r in range(1, len(cand) + 1)
        )
        stack.append((steps, active, choices))

    visit([seed], set(seed), seed)
    while stack:
        steps, active, choices = stack[-1]
        combo = next(choices, None)
        if combo is None:
            stack.pop()
            continue
        newly = frozenset(combo)
        visit(steps + [newly], active | newly, newly)
    return out


def _node_mask(nodes) -> int:
    """The bitmask of a collection of int node ids."""
    mask = 0
    for u in nodes:
        mask |= 1 << u
    return mask


def child_masks(graph: Graph) -> list:
    """Per node, the bitmask of its children."""
    return [_node_mask(graph.children(u)) for u in range(graph.n)]


def _frontier_children(child_mask, frontier: int) -> int:
    """The union of ``child_mask`` over the nodes of the ``frontier`` mask."""
    children = 0
    while frontier:
        low = frontier & -frontier
        children |= child_mask[low.bit_length() - 1]
        frontier ^= low
    return children


class ExactSpreadOracle:
    """Exact expected spread by enumeration, memoized on (active, frontier).

    The memoized recursion evaluates the same sum over feasible traces as
    direct enumeration, but shares continuation values across seed sets, so
    evaluating the spread for many seeds of one model costs little more than
    one full enumeration.  Node sets are represented as bitmasks; intended
    for graphs of up to ~20 reachable nodes.
    """

    def __init__(self, model: GltModel, node_cap: int = 10**6):
        self.model = model
        self.node_cap = node_cap
        graph = model.graph
        self._child_mask = child_masks(graph)
        self._parent_bits = [graph.parent_list(v) for v in range(graph.n)]
        self._parent_mask = [_node_mask(parents) for parents in self._parent_bits]
        self._theta = [model.theta(v) for v in range(graph.n)]
        self._cdf_cache = {}
        self._value = {}

    def _cdf(self, v, active_mask):
        sub = active_mask & self._parent_mask[v]
        key = (v, sub)
        got = self._cdf_cache.get(key)
        if got is None:
            b = 0.0
            theta = self._theta[v]
            for j, u in enumerate(self._parent_bits[v]):
                if sub >> u & 1:
                    b += theta[j]
            got = float(self.model.spec(v).cdf(b))
            self._cdf_cache[key] = got
        return got

    def spread(self, seed_set) -> float:
        mask = _node_mask(map(self.model.graph._check, seed_set))
        if mask == 0:
            return 0.0
        return self._val((mask, mask))

    def _val(self, key):
        """Memoized value of a state, by depth-first search on an explicit stack.

        Each stack entry is an :meth:`_expand` generator suspended until it
        receives the value of a successor not yet memoized.  Values are summed
        in the order a recursive evaluation would use, and long traces cannot
        exhaust the interpreter's recursion limit.
        """
        value = self._value.get(key)
        if value is not None:
            return value
        stack = [self._expand(key)]
        while stack:
            try:
                key = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
            else:
                stack.append(self._expand(key))
                value = None
        return value

    def _expand(self, key):
        """Generator: yields unmemoized successor states, receives their values."""
        memo = self._value
        if len(memo) >= self.node_cap:
            raise EnumerationCapError(len(memo) + 1, self.node_cap)
        active, frontier = key
        cand_mask = _frontier_children(self._child_mask, frontier) & ~active
        certain = 0
        random_nodes = []
        prev_active = active & ~frontier
        c = cand_mask
        while c:
            low = c & -c
            node = low.bit_length() - 1
            c ^= low
            f_now = self._cdf(node, active)
            f_prev = self._cdf(node, prev_active)
            denom = 1.0 - f_prev
            if denom <= 0.0:
                p = 1.0  # conditioning event impossible; branch carries 0 mass
            else:
                p = min(1.0, max(0.0, (f_now - f_prev) / denom))
            if p >= 1.0:
                certain |= low
            elif p > 0.0:
                random_nodes.append((low, p))
        total = 0.0
        k = len(random_nodes)
        for sub in range(1 << k):
            prob = 1.0
            chosen = certain
            for i in range(k):
                bit, p = random_nodes[i]
                if sub >> i & 1:
                    prob *= p
                    chosen |= bit
                else:
                    prob *= 1.0 - p
            if prob == 0.0:
                continue
            if chosen == 0:
                total += prob * active.bit_count()
            else:
                successor = (active | chosen, chosen)
                value = memo.get(successor)
                if value is None:
                    value = yield successor
                total += prob * value
        memo[key] = total
        return total


def exact_spread(model: GltModel, seed_set, node_cap: int = 10**6) -> float:
    """Expected number of eventually active nodes, computed exactly."""
    return ExactSpreadOracle(model, node_cap=node_cap).spread(seed_set)
