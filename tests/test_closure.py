"""The closure kernel against the set-based and dense reference propagators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gltnet
from gltnet import (
    GltModel,
    estimate_spread_mc,
    exact_spread,
    make_beta,
    make_exponential_unit,
    make_uniform,
    simulate_trace,
    simulate_traces,
)
from gltnet.influence import _final_sizes
from gltnet.model import _closure_rounds, _parent_weights
from gltnet.rng import substream

from conftest import (
    ReferenceBatchPropagator,
    random_simple_digraph,
    random_weights_within,
    reference_estimate_spread_mc,
    reference_simulate_trace,
)

SPECS = [make_uniform(), make_exponential_unit(), make_beta(1, 3), make_beta(2, 2), make_beta(0.5, 2)]


class FixedDraws(np.random.Generator):
    """A Generator whose ``random`` returns preset arrays, one per call."""

    def __init__(self, *arrays):
        super().__init__(np.random.PCG64(0))
        self.arrays = list(arrays)

    def random(self, size=None, dtype=np.float64, out=None):
        return np.array(self.arrays.pop(0), dtype=float)


@st.composite
def _models(draw, max_n=8):
    """Random models with mixed specs, zero weights and unit weights."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    g = random_simple_digraph(n, draw(st.floats(0.1, 0.7)), substream(seed, "g"))
    weights = random_weights_within(g, substream(seed, "w"), scale=draw(st.sampled_from([0.5, 1.0])))
    for k in range(g.edge_count()):
        weights[k] *= draw(st.sampled_from([1.0, 1.0, 0.0]))
    for v in range(n):
        if g.in_degree(v) == 1 and draw(st.booleans()):
            weights[g.child_slice(v)] = 1.0  # F(b) = 1 for uniform thresholds
    if draw(st.booleans()):
        specs = draw(st.sampled_from(SPECS))
    else:
        specs = [draw(st.sampled_from(SPECS)) for _ in range(n)]
    return GltModel(g, weights, specs)


def _seed_sets(draw, n, count):
    everything = frozenset(range(n))
    return [
        draw(st.one_of(st.just(everything), st.frozensets(st.integers(0, n - 1), min_size=1)))
        for _ in range(count)
    ]


def _tie_values(model, seed):
    """Per node, the summed weights it gets from the seed and from all parents."""
    nodes = set(range(model.graph.n))
    return [(model.influence(v, seed), model.influence(v, nodes)) for v in range(model.graph.n)]


@settings(max_examples=100, deadline=None)
@given(_models(), st.data())
def test_csr_influence_equals_model_influence(model, data):
    # the kernel's b = W @ state is GltModel.influence, bit for bit
    n = model.graph.n
    count = data.draw(st.integers(1, 6))
    state = np.array(
        data.draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]), min_size=count, max_size=count),
                           min_size=n, max_size=n))
    )
    state[:, 0] = 1.0  # every parent active: the longest sums
    seen = []

    def record(b, levels):
        seen.append(b.copy())
        return np.zeros(b.shape, dtype=bool)

    assert list(_closure_rounds(_parent_weights(model), state, state, record)) == []
    (b,) = seen
    for j in range(count):
        active = set(np.flatnonzero(state[:, j]).tolist())
        want = [model.influence(v, active) for v in range(n)]
        assert b[:, j].tobytes() == np.array(want).tobytes()


@settings(max_examples=150, deadline=None)
@given(_models(), st.data())
def test_simulation_matches_reference_closure(model, data):
    # same draws, same traces: uniform draws, u = 1, and u exactly F(b) at
    # the seed's and at the full parent influence
    n = model.graph.n
    count = data.draw(st.integers(0, 5))
    seed_sets = _seed_sets(data.draw, n, count)
    draws = []  # random() in [0, 1); the simulators use u = 1 - random()
    for seed in seed_sets:
        ties = _tie_values(model, seed)
        x = []
        for v in range(n):
            kind = data.draw(st.sampled_from(["random", "one", "seed-tie", "full-tie"]))
            tie = 1.0 - model.spec(v).cdf(ties[v][kind == "full-tie"])
            if kind == "random":
                x.append(data.draw(st.floats(0.0, 1.0, exclude_max=True)))
            else:
                x.append(0.0 if kind == "one" or tie == 1.0 else tie)
        draws.append(np.array(x))
    want = [reference_simulate_trace(model, s, FixedDraws(x)) for s, x in zip(seed_sets, draws)]
    assert simulate_traces(model, seed_sets, [FixedDraws(x) for x in draws]) == want
    for s, x, trace in zip(seed_sets, draws, want):
        assert simulate_trace(model, s, FixedDraws(x)) == trace
    # one Generator repeated in the list is consumed in list order
    root = data.draw(st.integers(0, 2**32 - 1))
    shared = np.random.default_rng(root)
    want = [reference_simulate_trace(model, s, shared) for s in seed_sets]
    shared = np.random.default_rng(root)
    assert simulate_traces(model, seed_sets, [shared] * count) == want


def _tied_thresholds(data, model, seeds, count):
    """(n x count) thresholds, some exactly b at the seed's or at the full
    parent influence."""
    n = model.graph.n
    ties = _tie_values(model, set(seeds))
    thresholds = np.empty((n, count))
    for v in range(n):
        for j in range(count):
            kind = data.draw(st.sampled_from(["random", "seed-tie", "full-tie"]))
            if kind == "random":
                thresholds[v, j] = data.draw(st.floats(np.finfo(float).tiny, 1.5))
            else:
                thresholds[v, j] = max(ties[v][kind == "full-tie"], np.finfo(float).tiny)
    return thresholds


def _closed(model, thresholds, seeds, state=None):
    """The kernel's closure of ``seeds`` added to a copy of ``state``."""
    state = np.zeros(thresholds.shape) if state is None else state.copy()
    _final_sizes(_parent_weights(model), thresholds, seeds, state)
    return state


@settings(max_examples=100, deadline=None)
@given(_models(), st.data())
def test_mc_sizes_match_dense_reference(model, data):
    # final sizes equal the dense propagator's, with thresholds exactly
    # equal to b at the seed's and at the full parent influence
    n = model.graph.n
    count = data.draw(st.integers(1, 6))
    seeds = sorted(_seed_sets(data.draw, n, 1)[0])
    thresholds = _tied_thresholds(data, model, seeds, count)
    want = ReferenceBatchPropagator(model).final_sizes(seeds, thresholds.T)
    assert _final_sizes(_parent_weights(model), thresholds, seeds).tolist() == want.tolist()
    root = data.draw(st.integers(0, 2**32 - 1))
    replicates = data.draw(st.integers(1, 40))
    got = estimate_spread_mc(model, seeds, replicates, root)
    assert got == reference_estimate_spread_mc(model, seeds, replicates, root)


def test_mc_spread_within_four_se_of_exact():
    # fixed random graphs of at most 8 nodes, one shared spec or mixed specs
    for index, shared in enumerate([make_uniform(), make_exponential_unit(), make_beta(2, 2), None]):
        for trial in range(3):
            rng = substream(81, index, trial)
            n = int(rng.integers(4, 9))
            g = random_simple_digraph(n, 0.35, rng)
            specs = shared or [SPECS[int(i)] for i in rng.integers(0, len(SPECS), n)]
            model = GltModel(g, random_weights_within(g, rng), specs)
            seed = {int(v) for v in rng.choice(n, int(rng.integers(1, 3)), replace=False)}
            est = estimate_spread_mc(model, seed, 20_000, substream(82, index, trial))
            exact = exact_spread(model, seed)
            assert abs(est.mean - exact) <= 4 * est.std_error + 1e-12, (index, trial)


@settings(max_examples=60, deadline=None)
@given(_models(), st.data())
def test_simulation_in_blocks_equals_one_batch(model, data):
    # traces closed in blocks of 3 equal one batch of them all, also with one
    # Generator repeated in the list, because draws are taken in list order
    count = data.draw(st.integers(0, 11))
    seed_sets = _seed_sets(data.draw, model.graph.n, count)
    root = data.draw(st.integers(0, 2**32 - 1))
    picks = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))

    def rngs():
        shared = np.random.default_rng(root)
        return [shared if pick else substream(root, i) for i, pick in enumerate(picks)]

    want = simulate_traces(model, seed_sets, rngs())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gltnet.model, "_CHUNK", 3)
        assert simulate_traces(model, seed_sets, rngs()) == want


@settings(max_examples=100, deadline=None)
@given(_models(), st.data())
def test_closure_is_monotone_in_the_seed_set(model, data):
    # per realisation, S inside T gives closure(S) inside closure(T)
    n = model.graph.n
    count = data.draw(st.integers(1, 6))
    small = sorted(_seed_sets(data.draw, n, 1)[0])
    large = sorted(set(small) | data.draw(st.frozensets(st.integers(0, n - 1))))
    thresholds = _tied_thresholds(data, model, small, count)
    closed_small = _closed(model, thresholds, small)
    closed_large = _closed(model, thresholds, large)
    assert np.all(closed_small <= closed_large)


@settings(max_examples=100, deadline=None)
@given(_models(), st.data())
def test_closure_restarts_from_the_closed_base(model, data):
    # closure(closure(S) + v) = closure(S + v) per realisation, the identity
    # greedy's base-closure reuse rests on; checked against the dense reference
    n = model.graph.n
    count = data.draw(st.integers(1, 6))
    seeds = sorted(data.draw(st.frozensets(st.integers(0, n - 1))))
    v = data.draw(st.integers(0, n - 1))
    thresholds = _tied_thresholds(data, model, seeds, count)
    base = _closed(model, thresholds, seeds)
    want = ReferenceBatchPropagator(model).final_active(sorted(set(seeds) | {v}), thresholds.T)
    assert np.array_equal(_closed(model, thresholds, [v], base), want.T.astype(float))


def test_simulation_with_staggered_stops_matches_reference():
    # traces in one batch stop at many rounds, from 0 to 20 and beyond, so
    # the kernel shrinks its live block several times; each trace must
    # still equal the one-trace reference
    n = 40
    g = gltnet.build_graph(n, [(v, v + 1) for v in range(n - 1)] + [(v, v + 2) for v in range(0, n - 2, 3)])
    rng = substream(91, "w")
    weights = np.where(rng.random(g.edge_count()) < 0.8, 1.0, 0.5)
    for v in range(n):
        sl = g.child_slice(v)
        weights[sl] /= max(1.0, weights[sl].sum())
    model = GltModel(g, weights, make_uniform())
    seed_sets = [{v} for v in range(n)] + [{v, (7 * v) % n} for v in range(n)]
    want = [reference_simulate_trace(model, s, substream(92, i)) for i, s in enumerate(seed_sets)]
    got = simulate_traces(model, seed_sets, [substream(92, i) for i in range(len(seed_sets))])
    assert got == want
    horizons = sorted(t.horizon for t in want)
    assert horizons[0] == 0 and horizons[-1] >= 20 and len(set(horizons)) >= 10


def test_reference_sums_parents_in_the_kernels_order():
    # node 1's parents 0, 3, 4 and 7 sum, in ascending order, exactly to its
    # threshold; a BLAS product sums them to one ulp less, so a reference
    # built on one would leave node 1 inactive where the kernel activates it
    weights = [float.fromhex(w) for w in ("0x1.36fc5004ab74bp-4", "0x1.cd455f483b514p-4",
                                          "0x1.b74d6d5c71dbep-4", "0x1.bc99e6e3e0b40p-8")]
    g = gltnet.build_graph(8, [(0, 3), (0, 4), (0, 7), (0, 1), (3, 1), (4, 1), (7, 1)])
    w = np.zeros(g.edge_count())
    for v, theta in ((1, weights), (3, [1.0]), (4, [1.0]), (7, [1.0])):
        w[g.child_slice(v)] = theta
    model = GltModel(g, w, make_uniform())
    full = model.influence(1, {0, 3, 4, 7})
    assert full == 0.3025748546873886
    thresholds = np.full((8, 1), 1.5)
    thresholds[[3, 4, 7, 1], 0] = [0.5, 0.5, 0.5, full]
    want = ReferenceBatchPropagator(model).final_active([0], thresholds.T)
    assert want[0].tolist() == [v in (0, 1, 3, 4, 7) for v in range(8)]
    assert np.array_equal(_closed(model, thresholds, [0]), want.T.astype(float))
    base = _closed(model, thresholds, [])
    assert np.array_equal(_closed(model, thresholds, [0], base), want.T.astype(float))
