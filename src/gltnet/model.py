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
exhaustive enumeration of feasible traces.  :class:`ExactSpreadOracle` sums
the spread over (active set, frontier) states, memoized across seed sets
and batches; it evaluates a batch of seed sets one active-set size at a time
with array operations on sets stored as rows of uint64 words.
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
_BLOCK = 8192  # successor terms per exact-oracle block, bounding its memory
_STATE_BLOCK = 4096  # states per exact-oracle discovery block, bounding its memory; an exact-small
# pass is no faster with larger blocks and ~20 % slower with 512 (its peak RSS 1.4 MB lower)


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


def _check_node_cap(node_cap):
    if node_cap < 1:
        raise ModelError(f"node_cap must be at least 1, got {node_cap}")


def enumerate_feasible_traces(graph: Graph, seed_set, node_cap: int = 10**6) -> list:
    """All feasible traces starting at the given seed, in depth-first order.

    Every prefix counts toward the state budget; exceeding ``node_cap``
    raises :class:`EnumerationCapError` with the state count reached.  The
    expansion keeps an explicit stack, so long traces cannot exhaust the
    interpreter's recursion limit.
    """
    _check_node_cap(node_cap)
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


def _set_bits(words, rows, nodes):
    """Set bit ``nodes[i]`` in row ``rows[i]`` of the uint64 word array ``words``."""
    np.bitwise_or.at(words, (rows, nodes >> 6), np.uint64(1) << (nodes & 63).astype(np.uint64))


def _bits_of(words, n):
    """``(rows, nodes)`` of every set bit of ``words``, rows of sets of nodes below ``n``,
    by row, then node."""
    bytes_ = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)[:, : -(-n // 8)]
    return np.nonzero(np.unpackbits(bytes_, axis=1, bitorder="little"))


def _popcount(words):
    """The number of set bits in each row of ``words``."""
    return np.unpackbits(words.view(np.uint8), axis=-1).sum(axis=-1, dtype=np.int64)


def _find(table, keys):
    """The index of each key in the sorted ``table``, -1 where it is absent."""
    if not len(table):
        return np.full(len(keys), -1)
    at = np.searchsorted(table, keys).clip(max=len(table) - 1)
    return np.where(table[at] == keys, at, -1)


def _blocks(k):
    """``(rows, size)`` blocks of the states with ``k`` uncertain candidates:
    by increasing k, at most ``_BLOCK >> size`` states (or one) with k up to
    ``size``.  A group's remainder joins the next group when that pads it by
    at most ``_BLOCK >> 3`` terms."""
    order = np.argsort(k, kind="stable")
    sizes = np.unique(k).tolist()
    ends = np.searchsorted(k[order], sizes, side="right")
    lo = 0
    for size, end, bigger in zip(sizes, ends, sizes[1:] + [None]):
        step = max(1, _BLOCK >> size)
        while end - lo >= step:
            yield order[lo : lo + step], size
            lo += step
        if lo < end and (bigger is None or (end - lo) << bigger > _BLOCK >> 3):
            yield order[lo:end], size
            lo = end


class ExactSpreadOracle:
    """Exact expected spread by enumeration, memoized on (active, frontier).

    A state is an active set A and its newly active frontier F.  Each
    inactive child v of F activates next, independently, with probability
    (F_v(B_v(A)) - F_v(B_v(A - F))) / (1 - F_v(B_v(A - F))).  A state's value
    sums, over the subsets of its uncertain candidates in ascending subset
    order, the subset's probability times its successor's value (|A| when
    nothing activates): the sum over feasible traces, shared across seed sets.

    :meth:`spreads` evaluates a batch of seed sets with array operations.
    It discovers the batch's unmemoized states by increasing |A|, keeping
    per state only its certain candidates and its uncertain ones with their
    probabilities, then evaluates them by decreasing |A|, regenerating the
    successor terms in blocks of at most ``_BLOCK``.  Sets are rows of
    uint64 words, so n is not capped, but the 2^k terms of a state with k
    uncertain candidates keep it to graphs with about 20 reachable nodes.
    Memoized states count toward ``node_cap``.
    """

    def __init__(self, model: GltModel, node_cap: int = 10**6):
        _check_node_cap(node_cap)
        self.model = model
        self.node_cap = node_cap
        graph = model.graph
        self._n = graph.n
        self._words = max(1, -(-graph.n // 64))
        degree = np.diff(graph._child_offsets)
        child = np.repeat(np.arange(graph.n), degree)
        self._child_rows = np.zeros((graph.n, self._words), dtype=np.uint64)  # row u: u's children
        _set_bits(self._child_rows, graph._parent_index, child)
        # parents ascending per node, padded with weight-0 entries, as word index and bit
        slot = np.arange(graph.edge_count()) - graph._child_offsets[child]
        parents = np.zeros((graph.n, max(1, degree.max(initial=0))), dtype=np.int64)
        self._theta = np.zeros(parents.shape)
        parents[child, slot] = graph._parent_index
        self._theta[child, slot] = model.weights
        self._word, self._bit = parents >> 6, np.uint64(1) << (parents & 63).astype(np.uint64)
        self._specs = list(dict.fromkeys(model.thresholds))
        index = {spec: i for i, spec in enumerate(self._specs)}
        self._spec_index = np.array([index[spec] for spec in model.thresholds], dtype=np.int64)
        empty = np.zeros((0, self._words), dtype=np.uint64)
        self._keys = self._keys_of(empty, empty)  # sorted memo keys
        self._values = np.zeros(0)

    def _keys_of(self, active, frontier):
        """One sortable scalar per (active, frontier) row pair: ``A << 32 | F``
        while nodes fit in 32 bits, else the void of both rows of words."""
        if self._n <= 32:
            return active[..., 0] << np.uint64(32) | frontier[..., 0]
        rows = np.concatenate([active, frontier], axis=-1)
        return rows.view(np.dtype((np.void, rows.shape[-1] * 8))).reshape(rows.shape[:-1])

    def spread(self, seed_set) -> float:
        return self.spreads([seed_set])[0]

    def spreads(self, seed_sets) -> list:
        """The exact spread of each seed set (0.0 for an empty one), as one batch.

        Every nonempty seed set is its own state, so the batch is read lazily
        and refused as soon as it holds more than ``node_cap`` distinct ones."""
        seeds, distinct = [], {()}  # () is the empty set, no state
        for s in seed_sets:
            seeds.append(tuple(sorted({self.model.graph._check(v) for v in s})))
            distinct.add(seeds[-1])
            if len(distinct) > self.node_cap + 1:
                raise EnumerationCapError(self.node_cap + 1, self.node_cap)
        active = np.zeros((len(seeds), self._words), dtype=np.uint64)
        rows = np.repeat(np.arange(len(seeds)), [len(s) for s in seeds])
        _set_bits(active, rows, np.array([v for s in seeds for v in s], dtype=np.int64))
        active = active[[bool(s) for s in seeds]]
        self._evaluate(self._discover(active, active))
        values = iter(self._values[_find(self._keys, self._keys_of(active, active))].tolist())
        return [next(values) if s else 0.0 for s in seeds]

    def _discover(self, active, frontier):
        """The unmemoized states reachable from the given ones, as levels of
        increasing |A|, each of at most ``_STATE_BLOCK`` states and as
        :meth:`_branches` returns them."""
        pool = {}  # |A| -> list of (active, frontier) arrays still to visit

        def visit(active, frontier):
            _, first = np.unique(self._keys_of(active, frontier), return_index=True)
            size = _popcount(active[first])
            for s in np.unique(size).tolist():
                pick = first[size == s]
                pool.setdefault(s, []).append((active[pick], frontier[pick]))

        visit(active, frontier)
        levels, found = [], len(self._keys)
        while pool:
            active, frontier = map(np.concatenate, zip(*pool.pop(min(pool))))
            keys, first = np.unique(self._keys_of(active, frontier), return_index=True)
            first = first[_find(self._keys, keys) < 0]
            found += len(first)
            if found > self.node_cap:
                raise EnumerationCapError(self.node_cap + 1, self.node_cap)
            for block in range(0, len(first), _STATE_BLOCK):
                pick = first[block : block + _STATE_BLOCK]
                levels.append(self._branches(active[pick], frontier[pick]))
                # a state has 2^k successor terms, one fewer with no certain
                # candidate; one whose terms alone exceed the cap is refused
                # before they are built
                _, _, certain, k, _, _ = levels[-1]
                if (np.exp2(k) - ~certain.any(axis=-1) > self.node_cap).any():
                    raise EnumerationCapError(self.node_cap + 1, self.node_cap)
                for _, prob, succ, chosen in self._successors(levels[-1]):
                    live = (prob != 0.0) & chosen.any(axis=-1)
                    visit(succ[live], chosen[live])
        return levels

    def _branches(self, active, frontier):
        """``(active, frontier, certain, k, nodes, probs)``: the states, the
        mask of each one's certain candidates, and its k uncertain candidates
        (flat, by state then node) with their activation probabilities.  The
        candidates are the union of the (nonempty) frontier's child rows less A."""
        rows, nodes = _bits_of(frontier, self._n)
        children = np.bitwise_or.reduceat(self._child_rows[nodes], np.flatnonzero(np.diff(rows, prepend=-1)))
        rows, cand = _bits_of(children & ~active, self._n)
        words = np.stack([active, active & ~frontier])
        # B_v(A) and B_v(A - F), summed in ascending parent order (padding adds 0.0)
        b = np.zeros((2, len(cand)))
        for word, bit, theta in zip(self._word[cand].T, self._bit[cand].T, self._theta[cand].T):
            b += np.where(words[:, rows, word] & bit != 0, theta, 0.0)
        f = np.empty_like(b)
        for i, spec in enumerate(self._specs):
            pick = self._spec_index[cand] == i
            f[:, pick] = spec._cdf(b[:, pick])
        f_now, f_prev = f
        denom = 1.0 - f_prev
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.minimum(1.0, np.maximum(0.0, (f_now - f_prev) / denom))
        p[denom <= 0.0] = 1.0  # conditioning event impossible; branch carries 0 mass
        certain = np.zeros_like(active)
        _set_bits(certain, rows[p >= 1.0], cand[p >= 1.0])
        uncertain = (p > 0.0) & (p < 1.0)
        k = np.bincount(rows[uncertain], minlength=len(active))
        return active, frontier, certain, k, cand[uncertain], p[uncertain]

    def _successors(self, level):
        """Yield ``(states, prob, active, chosen)`` blocks: per state of the
        level, its 2^k successor terms in ascending subset order, each with
        its probability, successor active set and newly active set.  States
        are padded to their block's k with probability-0 candidates, whose
        terms come last and are 0.  A state with 2^k > ``_BLOCK`` yields its
        terms in consecutive blocks of ``_BLOCK``, one per subset of its
        candidates past the first ``log2(_BLOCK)``."""
        active, _, certain, k, nodes, probs = level
        start = np.cumsum(k) - k
        low = _BLOCK.bit_length() - 1
        for rows, size in _blocks(k):
            slot = np.arange(size)
            real = slot < k[rows, None]
            at = np.where(real, start[rows, None] + slot, 0)
            p = np.where(real, probs[at], 0.0)
            bit = np.zeros((len(rows), size, self._words), dtype=np.uint64)
            one = np.uint64(1) << (nodes[at] & 63).astype(np.uint64)
            bit[np.arange(len(rows))[:, None], slot, nodes[at] >> 6] = np.where(real, one, np.uint64(0))
            prob, chosen = np.ones((len(rows), 1)), certain[rows, None, :]
            for i in range(min(size, low)):  # candidate i is bit i of the subset index
                q = p[:, i, None]
                prob = np.concatenate([prob * (1.0 - q), prob * q], axis=1)
                chosen = np.concatenate([chosen, chosen | bit[:, i, None, :]], axis=1)
            for high in range(1 << max(0, size - low)):  # a wide state's terms, _BLOCK at a time
                block_prob, block_chosen = prob, chosen
                for i in range(low, size):  # the same products, in the same order
                    q = p[:, i, None]
                    if high >> (i - low) & 1:
                        block_prob, block_chosen = block_prob * q, block_chosen | bit[:, i, None, :]
                    else:
                        block_prob = block_prob * (1.0 - q)
                yield rows, block_prob, active[rows, None, :] | block_chosen, block_chosen

    def _evaluate(self, levels):
        """Memoize the values of the discovered levels, by decreasing |A|."""
        if not levels:
            return
        new = [self._keys_of(active, frontier) for active, frontier, *_ in levels]
        keys = np.concatenate([self._keys, *new])
        order = np.argsort(keys)
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order))  # where each key lands once sorted
        keys, values = keys[order], np.zeros(len(keys))
        values[slot[: len(self._values)]] = self._values
        stop = len(keys)
        for level, level_keys in zip(reversed(levels), reversed(new)):
            size = float(_popcount(level[0][:1])[0])
            total = np.zeros(len(level_keys))
            for rows, prob, succ, chosen in self._successors(level):
                value = np.full(prob.shape, size)
                live = (prob != 0.0) & chosen.any(axis=-1)
                value[live] = values[_find(keys, self._keys_of(succ[live], chosen[live]))]
                terms = np.where(prob != 0.0, prob * value, 0.0)
                terms[:, 0] += total[rows]  # the sum of a wide state's earlier blocks
                total[rows] = np.cumsum(terms, axis=1)[:, -1]  # in subset order
            values[slot[stop - len(total) : stop]] = total
            stop -= len(total)
        self._keys, self._values = keys, values


def exact_spread(model: GltModel, seed_set, node_cap: int = 10**6) -> float:
    """Expected number of eventually active nodes, computed exactly."""
    return ExactSpreadOracle(model, node_cap=node_cap).spread(seed_set)
