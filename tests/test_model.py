import time
import tracemalloc
from collections import Counter
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gltnet
from gltnet import (
    EnumerationCapError,
    ExactSpreadOracle,
    GltModel,
    Graph,
    ModelError,
    Trace,
    ZeroProbabilityError,
    build_graph,
    enumerate_feasible_traces,
    exact_spread,
    from_ic,
    from_lt,
    make_beta,
    make_exponential_unit,
    make_uniform,
    simulate_trace,
    simulate_traces,
    trace_log_probability,
    transition_probability,
    validate_trace,
)
from gltnet.model import NEVER, _activation_rounds, _bits_of
from gltnet.rng import substream

from conftest import (
    ReferenceExactSpreadOracle,
    ic_trace_probability,
    random_simple_digraph,
    random_weights_within,
    simulate_trace_sequential,
)


def test_trace_validation():
    with pytest.raises(ModelError):
        Trace([])
    with pytest.raises(ModelError):
        Trace([set()])
    with pytest.raises(ModelError):
        Trace([{0}, {0}])
    with pytest.raises(ModelError):
        Trace([{0}, set(), {1}])
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ModelError):
        validate_trace(g, Trace([{0}, {2}]))  # 2 has no parent in {0}
    validate_trace(g, Trace([{0}, {1}, {2}]))


def test_validate_trace_checks_each_node_id_once(monkeypatch):
    g = build_graph(3, [(0, 1), (1, 2)])
    checked = []
    check = Graph._check

    def counting(self, v):
        checked.append(v)
        return check(self, v)

    monkeypatch.setattr(Graph, "_check", counting)
    validate_trace(g, Trace([{0}, {1}, {2}]))
    assert checked == [0, 1, 2]


@pytest.mark.parametrize("bad", [0.7, 1.0, "0", None])
def test_trace_paths_reject_non_integer_node_ids(bad):
    g = build_graph(3, [(0, 1), (1, 2)])
    model = from_lt(g, [0.5, 0.5])
    raw = [[bad], [1]]  # a raw step list, as every entry point accepts
    match = f"node id {bad!r} is not an integer"
    for call in (
        lambda: Trace(raw),
        lambda: validate_trace(g, raw),
        lambda: trace_log_probability(model, raw),
        lambda: transition_probability(model, raw, 2, 2),
        lambda: _activation_rounds([raw], g.n),
    ):
        with pytest.raises(ModelError, match=match):
            call()
    # numpy integers are node ids like Python ints
    assert Trace([[np.int64(0)], [np.int32(1)]]) == Trace([{0}, {1}])
    assert _activation_rounds([[[np.int64(0)], [1]]], g.n)[0].tolist() == [[0, 1, NEVER]]


def test_trace_active_is_the_cumulative_active_set():
    trace = Trace([{0}, {1, 2}, {3}])
    assert trace.active(-1) == trace.active(-2) == frozenset()
    assert [trace.active(t) for t in range(3)] == [{0}, {0, 1, 2}, {0, 1, 2, 3}]
    assert trace.active(trace.horizon) == frozenset().union(*trace.steps)


def test_transition_probability_single_parent_uniform():
    g = build_graph(2, [(0, 1)])
    model = from_lt(g, [0.3])
    assert transition_probability(model, Trace([{0}]), 1, 1) == pytest.approx(0.3)


def test_transition_probability_ic_mapping():
    g = build_graph(2, [(0, 1)])
    model = from_ic(g, [0.5])
    assert model.weights[0] == pytest.approx(-np.log(0.5))
    assert transition_probability(model, Trace([{0}]), 1, 1) == pytest.approx(0.5)


def test_transition_probability_staggered_parents():
    # u1 active at t=0 (b=0.2), u2 at t=1 (b=0.3): P(v in D_2) = 0.3/0.8
    # (edge 0 -> 1 makes the staggered history feasible)
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    model = from_lt(g, [0.5, 0.2, 0.3])
    hist = Trace([{0}, {1}])
    assert transition_probability(model, hist, 2, 2) == pytest.approx(0.375)
    # the classic linear-threshold ratio form
    assert transition_probability(model, hist, 2, 2) == pytest.approx(0.3 / (1 - 0.2))


def test_transition_probability_errors_and_zero():
    g = build_graph(3, [(0, 1), (1, 2)])
    model = from_lt(g, [0.5, 0.5])
    with pytest.raises(ModelError):
        transition_probability(model, Trace([{0}]), 0, 1)  # already active
    # no newly active parent: probability 0 by the model rules
    assert transition_probability(model, Trace([{0}, {1}]), 2, 1) == 0.0


def test_simulate_all_zero_weights():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    model = from_lt(g, [0.0, 0.0, 0.0])
    rng = substream(1, "zero")
    for _ in range(50):
        assert simulate_trace(model, {0}, rng).steps == (frozenset({0}),)


def test_simulate_certain_activation():
    g = build_graph(2, [(0, 1)])
    model = from_lt(g, [1.0])  # F(1) = 1
    rng = substream(2, "sure")
    for _ in range(200):
        assert len(simulate_trace(model, {0}, rng)) == 2


def test_simulated_traces_are_feasible_and_progressive():
    g = random_simple_digraph(8, 0.3, substream(3, "g"))
    w = random_weights_within(g, substream(3, "w"))
    model = GltModel(g, w, make_beta(1, 2))
    rng = substream(3, "sim")
    for _ in range(300):
        trace = simulate_trace(model, {0, 3}, rng)
        validate_trace(g, trace)


def test_empirical_activation_matches_transition_probability():
    # 10^5 sims of the first step vs the transition probability, 3 sigma
    g = build_graph(3, [(0, 2), (1, 2)])
    model = from_lt(g, [0.25, 0.4])
    p = transition_probability(model, Trace([{0, 1}]), 2, 1)
    rng = substream(4, "mc")
    n = 100_000
    hits = 0
    for t in simulate_traces(model, [{0, 1}] * n, [rng] * n):
        if len(t) > 1 and 2 in t.steps[1]:
            hits += 1
    se = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * se


def test_trace_log_probability_star_examples():
    g = build_graph(3, [(0, 2), (1, 2)])
    model = from_lt(g, [0.2, 0.3])
    activated = Trace([{0, 1}, {2}])
    assert trace_log_probability(model, activated) == pytest.approx(np.log(0.5))
    not_activated = Trace([{0, 1}])
    assert trace_log_probability(model, not_activated) == pytest.approx(np.log(0.5))
    # external seed term is just added through
    assert trace_log_probability(model, activated, seed_log_prob=np.log(0.25)) == pytest.approx(
        np.log(0.5) + np.log(0.25)
    )


def test_trace_log_probability_zero_factor_is_structured():
    g = build_graph(2, [(0, 1)])
    model = from_lt(g, [0.0])
    with pytest.raises(ZeroProbabilityError) as err:
        trace_log_probability(model, Trace([{0}, {1}]))
    assert err.value.node == 1
    assert err.value.time == 1


def test_enumerate_path_traces():
    g = build_graph(3, [(0, 1), (1, 2)])
    traces = enumerate_feasible_traces(g, {0})
    assert traces == [Trace([{0}]), Trace([{0}, {1}]), Trace([{0}, {1}, {2}])]


def test_enumerate_matches_discrete_time_resolutions():
    # three users acting at distinct times on a fully connected triple: every
    # order-consistent discrete-time resolution is feasible and enumerable
    g = build_graph(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
    resolutions = [
        Trace([{0, 1, 2}]),
        Trace([{0, 1}, {2}]),
        Trace([{0}, {1, 2}]),
        Trace([{0}, {1}, {2}]),
    ]
    for r in resolutions:
        validate_trace(g, r)
        assert r in enumerate_feasible_traces(g, r.seed)
    # on the one-directional chain the simultaneous-tail resolution is not
    # feasible: node 2 would need a newly active parent in {0}
    chain = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ModelError):
        validate_trace(chain, Trace([{0}, {1, 2}]))


def test_enumeration_cap():
    g = random_simple_digraph(7, 0.5, substream(5, "g"))
    with pytest.raises(EnumerationCapError) as err:
        enumerate_feasible_traces(g, {0, 1}, node_cap=3)
    assert err.value.state_count > 3


def _star3_model():
    """0 -> 1, 2, 3 under LT: the seed {0} reaches 8 (active, frontier) states."""
    return from_lt(build_graph(4, [(0, 1), (0, 2), (0, 3)]), [0.5, 0.5, 0.5])


# each exact caller with the number of states its calls on the star reach
_CAPPED_CALLS = {
    "oracle": (lambda model, cap: ExactSpreadOracle(model, node_cap=cap).spread({0}), 8),
    "greedy": (lambda model, cap: gltnet.greedy_im(model, 1, "exact", node_cap=cap), 11),
    "submodularity": (lambda model, cap: gltnet.check_submodularity_exact(model, node_cap=cap), 34),
}


@pytest.mark.parametrize("caller", sorted(_CAPPED_CALLS))
def test_exact_node_cap(caller):
    call, states = _CAPPED_CALLS[caller]
    model = _star3_model()
    with pytest.raises(EnumerationCapError) as err:
        call(model, 2)
    assert (err.value.state_count, err.value.cap) == (3, 2)
    assert str(err.value) == "enumeration exceeded cap: 3 states > 2"
    call(model, states)  # a cap that covers every reachable state never raises


@pytest.mark.parametrize("cap", [0, -1, -5])
def test_node_cap_below_one_is_refused(cap):
    # a cap below 1 was reported as an exceeded cap, e.g. "-4 states > -5"
    model = _star3_model()
    for call in [lambda: enumerate_feasible_traces(model.graph, {0}, node_cap=cap),
                 lambda: ExactSpreadOracle(model, node_cap=cap),
                 *[lambda c=c: c(model, cap) for c, _ in _CAPPED_CALLS.values()]]:
        with pytest.raises(ModelError, match=f"^node_cap must be at least 1, got {cap}$"):
            call()


def test_exact_cap_refuses_a_wide_state_before_building_it():
    # the seed's state has 2^40 successor terms; they are never materialized
    model = from_lt(build_graph(41, [(0, v) for v in range(1, 41)]), [0.5] * 40)
    start = time.perf_counter()
    with pytest.raises(EnumerationCapError) as err:
        ExactSpreadOracle(model, node_cap=1000).spread({0})
    assert time.perf_counter() - start < 1.0
    assert (err.value.state_count, err.value.cap) == (1001, 1000)


# each exact scan over a seed-set family of C(40, 20) or 2^40 - 1 sets
_FAMILY_SCANS = {
    "optimal": lambda model: gltnet.optimal_seed_set(model, 20, "exact", node_cap=1000),
    "gap": lambda model: gltnet.im_solution_gap(model, model, 20, "exact", node_cap=1000),
    "submodularity": lambda model: gltnet.check_submodularity_exact(model, node_cap=1000),
    "monotonicity": lambda model: gltnet.check_monotonicity_exact(model, node_cap=1000),
}


@pytest.mark.parametrize("scan", sorted(_FAMILY_SCANS))
def test_exact_cap_refuses_an_oversized_seed_set_family_before_building_it(scan):
    # every nonempty seed set is its own oracle state, so a family of more
    # than node_cap sets exceeds the cap; on a 40-node path it is never built
    model = from_lt(build_graph(40, [(v, v + 1) for v in range(39)]), [0.5] * 39)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError) as err:
            _FAMILY_SCANS[scan](model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.state_count, err.value.cap) == (1001, 1000)
    assert peak < 1e6


def test_exact_oracle_reads_a_batch_only_until_it_exceeds_the_cap():
    # distinct nonempty seed sets are distinct states, so the 1,001st
    # distinct set read refuses the batch, and no further set is read
    model = from_lt(build_graph(40, [(v, v + 1) for v in range(39)]), [0.5] * 39)
    reads = 0

    def family():
        nonlocal reads
        for seed_set in islice(combinations(range(40), 3), 5000):
            reads += 1
            yield seed_set

    with pytest.raises(EnumerationCapError) as err:
        ExactSpreadOracle(model, node_cap=1000).spreads(family())
    assert (err.value.state_count, err.value.cap) == (1001, 1000)
    assert reads <= 1001


@pytest.mark.parametrize("spec_maker", [make_uniform, make_exponential_unit, lambda: make_beta(2, 2)])
def test_normalization_over_enumeration(spec_maker):
    rng = substream(6, spec_maker().family)
    g = random_simple_digraph(5, 0.35, rng)
    w = random_weights_within(g, rng)
    model = GltModel(g, w, spec_maker())
    traces = enumerate_feasible_traces(g, {0, 2})
    total = sum(np.exp(trace_log_probability(model, t)) for t in traces)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_exact_spread_path_example():
    g = build_graph(3, [(0, 1), (1, 2)])
    model = from_lt(g, [0.5, 0.4])
    assert exact_spread(model, {0}) == pytest.approx(1.7, abs=1e-12)


def test_exact_spread_single_edge():
    g = build_graph(2, [(0, 1)])
    model = from_lt(g, [0.3])
    assert exact_spread(model, {0}) == pytest.approx(1.3, abs=1e-12)


def _path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_exact_spread_long_path():
    # deeper than the interpreter's recursion limit; sigma = sum_i 0.5^i
    model = from_lt(_path_graph(1500), np.full(1499, 0.5))
    assert exact_spread(model, {0}) == pytest.approx(2.0, abs=1e-12)


def test_enumerate_long_path():
    # 1,050 traces: one per prefix of the path
    traces = enumerate_feasible_traces(_path_graph(1050), {0})
    assert len(traces) == 1050
    assert traces[-1].horizon == 1049


_ORACLE_SPECS = [make_uniform(), make_exponential_unit(), make_beta(0.5, 2), make_beta(2, 3)]


@st.composite
def _oracle_case(draw):
    """A random model whose nodes each take one forced branch, and batches of seed sets."""
    n = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 2**32 - 1))
    spec = draw(st.sampled_from(_ORACLE_SPECS))
    g = random_simple_digraph(n, draw(st.floats(0.1, 0.6)), substream(seed, "g"))
    weights = random_weights_within(g, substream(seed, "w"))
    for v in g.child_nodes():
        edges = g.child_slice(v)
        branch = draw(st.sampled_from(["random", "certain", "zero"]))
        if branch == "certain" and spec.family == "exponential":
            weights[edges] = 40.0  # F rounds to 1 once any parent is active: p = 1
        elif branch == "certain":  # dyadic in-weights summing to exactly 1: p = 1 at the top
            m = edges.stop - edges.start
            weights[edges] = [2.0 ** -min(j + 1, m - 1) for j in range(m)]
        elif branch == "zero":  # a zero-weight edge: p = 0 when it is the only new parent
            weights[edges.start + draw(st.integers(0, edges.stop - edges.start - 1))] = 0.0
    seed_sets = st.lists(st.sets(st.integers(0, n - 1), max_size=3), max_size=8)
    return GltModel(g, weights, spec), draw(st.lists(seed_sets, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(_oracle_case())
def test_exact_oracle_matches_reference(case):
    # batches on one oracle, memo carried across them: every value equals the
    # depth-first reference bit for bit, and both memoize the same states
    model, batches = case
    oracle, reference = ExactSpreadOracle(model), ReferenceExactSpreadOracle(model)
    for batch in batches:
        assert oracle.spreads(batch) == [reference.spread(s) for s in batch]
    assert len(oracle._keys) == len(reference._value)


@settings(max_examples=60, deadline=None)
@given(_oracle_case())
def test_exact_oracle_split_states_match_reference(case):
    # with blocks of 4 terms, every state with more than 2 uncertain
    # candidates is split across blocks; values stay bit-identical
    model, batches = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gltnet.model, "_BLOCK", 4)
        oracle, reference = ExactSpreadOracle(model), ReferenceExactSpreadOracle(model)
        for batch in batches:
            assert oracle.spreads(batch) == [reference.spread(s) for s in batch]


def test_exact_oracle_memory_on_a_wide_state():
    # the seed of a 16-leaf star has 2^16 successor terms, generated in
    # blocks of _BLOCK: the tracemalloc peak stays under 7 MB (5.6 MB
    # measured; 9.1 MB when all 2^16 terms were built at once), and the
    # value equals that of one block for the whole state, bit for bit
    k = 16
    g = build_graph(k + 1, [(0, v) for v in range(1, k + 1)])
    model = GltModel(g, np.linspace(0.2, 0.8, k), make_beta(2, 2))
    tracemalloc.start()
    try:
        value = ExactSpreadOracle(model).spread({0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gltnet.model, "_BLOCK", 1 << k)
        assert ExactSpreadOracle(model).spread({0}) == value


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 192), st.lists(st.lists(st.integers(0, 191)), max_size=6))
@example(130, [[0, 7, 8, 63, 64, 127, 128, 129], [], [63]])
@example(13, [[12, 0, 7, 8]])
def test_bits_of_matches_a_per_bit_reference(n, rows):
    # 1-3 words per row and n not a multiple of 8: every set bit comes back
    # once, by row, then node
    words = np.zeros((len(rows), -(-n // 64)), dtype=np.uint64)
    for i, nodes in enumerate(rows):
        for v in {v % n for v in nodes}:
            words[i, v >> 6] |= np.uint64(1) << np.uint64(v & 63)
    want = [
        (i, 64 * w + b)
        for i in range(len(rows))
        for w in range(words.shape[1])
        for b in range(64)
        if int(words[i, w]) >> b & 1
    ]
    got_rows, got_nodes = _bits_of(words, n)
    assert list(zip(got_rows.tolist(), got_nodes.tolist())) == want


def test_exact_oracle_multiword_states():
    # 130 nodes (three words per set) in 26 five-node clusters whose ids
    # straddle the word boundaries at 64 and 128
    rng = substream(41, "clusters")
    edges = []
    for c in range(26):
        nodes = [c + 26 * i for i in range(5)]
        edges += [(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.4]
    g = build_graph(130, edges)
    for spec in _ORACLE_SPECS:
        model = GltModel(g, random_weights_within(g, substream(41, "w", spec.family)), spec)
        seed_sets = [{c, c + 26 * rng.integers(1, 5)} for c in range(26)] + [{63, 64, 129}]
        oracle, reference = ExactSpreadOracle(model), ReferenceExactSpreadOracle(model)
        assert oracle.spreads(seed_sets[:13]) + oracle.spreads(seed_sets[13:]) == [
            reference.spread(s) for s in seed_sets
        ]
        assert len(oracle._keys) == len(reference._value)


def test_exact_oracle_impossible_conditioning_state():
    # from a seed state 1 - F_v(B_v(A - F)) never vanishes: a candidate whose
    # cdf reaches 1 activates then with probability 1.  The crafted state
    # A = {0, 1}, F = {1} reaches it: node 2 already holds weight 1 from node 0.
    model = from_lt(build_graph(3, [(0, 2), (1, 2)]), [1.0, 0.0])
    oracle = ExactSpreadOracle(model)
    active, frontier = np.array([[0b011]], dtype=np.uint64), np.array([[0b010]], dtype=np.uint64)
    levels = oracle._discover(active, frontier)
    assert levels[0][2].tolist() == [[0b100]]  # node 2 is certain
    oracle._evaluate(levels)
    state = oracle._keys_of(active, frontier)
    value = oracle._values[np.searchsorted(oracle._keys, state)][0]
    assert value == ReferenceExactSpreadOracle(model)._val((0b011, 0b010)) == 3.0


def test_exact_spread_matches_direct_enumeration():
    rng = substream(7, "spread")
    for rep in range(5):
        g = random_simple_digraph(6, 0.3, substream(7, "g", rep))
        w = random_weights_within(g, substream(7, "w", rep))
        model = GltModel(g, w, make_uniform())
        traces = enumerate_feasible_traces(g, {0, 1})
        direct = sum(
            np.exp(trace_log_probability(model, t)) * len(t.active(t.horizon))
            for t in traces
        )
        assert exact_spread(model, {0, 1}) == pytest.approx(direct, abs=1e-9)


def test_exact_spread_monotone_and_bounded():
    g = random_simple_digraph(6, 0.35, substream(8, "g"))
    w = random_weights_within(g, substream(8, "w"))
    model = GltModel(g, w, make_exponential_unit())
    for seed in [{0}, {0, 1}, {0, 1, 4}]:
        assert exact_spread(model, seed) >= len(seed) - 1e-12
    assert exact_spread(model, {0, 1}) >= exact_spread(model, {0}) - 1e-9


def test_ic_glt_distribution_equality():
    rng = substream(9, "ic")
    g = random_simple_digraph(5, 0.4, rng)
    p = rng.uniform(0.1, 0.9, size=g.edge_count())
    model = from_ic(g, p)
    for trace in enumerate_feasible_traces(g, {0, 2}):
        glt = np.exp(trace_log_probability(model, trace))
        direct = ic_trace_probability(g, p, trace)
        assert abs(glt - direct) < 1e-10


def test_from_ic_validation():
    g = build_graph(2, [(0, 1)])
    assert from_ic(g, [0.0]).weights[0] == 0.0
    with pytest.raises(ModelError):
        from_ic(g, [1.0])
    with pytest.raises(ModelError):
        from_lt(g, [1.2])


def test_model_validation():
    g = build_graph(3, [(0, 2), (1, 2)])
    with pytest.raises(ModelError):
        GltModel(g, [0.6, 0.6], make_uniform())  # in-degree 1.2 > h = 1
    GltModel(g, [0.6, 0.6], make_exponential_unit())  # unbounded support is fine
    with pytest.raises(ModelError):
        GltModel(g, [-0.1, 0.5], make_uniform())
    with pytest.raises(ModelError):
        GltModel(g, [0.1], make_uniform())


def _trace_frequencies(model, seed, n, simulator, rng):
    # simulate_traces takes the whole batch, reusing rng in order
    if simulator is simulate_traces:
        return Counter(simulate_traces(model, [seed] * n, [rng] * n))
    return Counter(simulator(model, seed, rng) for _ in range(n))


def test_simulation_matches_exact_probabilities():
    # empirical trace frequencies over 1e5 sims within 4 binomial sigma
    g = build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    model = from_lt(g, [0.55, 0.45, 0.5, 0.4])
    probs = {
        t: np.exp(trace_log_probability(model, t))
        for t in enumerate_feasible_traces(g, {0})
    }
    n = 100_000
    counts = _trace_frequencies(model, {0}, n, simulate_traces, substream(10, "freq"))
    assert sum(counts.values()) == n
    for trace, p in probs.items():
        se = np.sqrt(p * (1 - p) / n)
        assert abs(counts[trace] / n - p) < 4 * se + 1e-12


def test_threshold_persistence_equivalence():
    # per-trace draws and the sequential kernel induce the same distribution
    g = build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    model = GltModel(g, [0.5, 0.45, 0.5, 0.4], make_beta(1, 2))
    probs = {
        t: np.exp(trace_log_probability(model, t))
        for t in enumerate_feasible_traces(g, {0})
    }
    n = 40_000
    for simulator, label in [
        (simulate_traces, "persistence"),
        (simulate_trace_sequential, "sequential"),
    ]:
        counts = _trace_frequencies(model, {0}, n, simulator, substream(11, label))
        for trace, p in probs.items():
            se = np.sqrt(p * (1 - p) / n)
            assert abs(counts[trace] / n - p) < 5 * se + 1e-12, (label, trace)


def test_simulation_seed_errors():
    g = build_graph(2, [(0, 1)])
    model = from_lt(g, [0.5])
    with pytest.raises(ModelError):
        simulate_trace(model, set(), substream(12, "x"))
