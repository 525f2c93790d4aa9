import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gltnet import (
    ExactSpreadOracle,
    GltModel,
    InfluenceError,
    build_graph,
    estimate_spread_mc,
    exact_spread,
    from_lt,
    greedy_im,
    im_solution_gap,
    make_beta,
    make_exponential_unit,
    make_uniform,
    optimal_seed_set,
    spread_bipartite_closed_form,
)
from gltnet.rng import substream

from conftest import count_calls, random_simple_digraph, random_weights_within, reference_greedy_im


def _random_bipartite(n_parents, n_children, rng, spec=None, d_max=1.0):
    edges = []
    for c in range(n_children):
        child = n_parents + c
        parents = [u for u in range(n_parents) if rng.random() < 0.6]
        if not parents:
            parents = [int(rng.integers(0, n_parents))]
        edges.extend((u, child) for u in parents)
    g = build_graph(n_parents + n_children, edges)
    weights = np.zeros(g.edge_count())
    for v in range(g.n):
        m = g.in_degree(v)
        if m:
            raw = rng.random(m) + 0.05
            weights[g.child_slice(v)] = raw / raw.sum() * d_max * rng.uniform(0.4, 1.0)
    return GltModel(g, weights, spec or make_uniform())


def test_mc_spread_zero_weights():
    g = build_graph(3, [(0, 1), (1, 2)])
    model = from_lt(g, [0.0, 0.0])
    est = estimate_spread_mc(model, {0, 2}, 500, substream(61, "mc"))
    assert est.mean == 2.0
    assert est.std_error == 0.0


def test_mc_spread_matches_exact_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    model = from_lt(g, [0.5, 0.4])
    est = estimate_spread_mc(model, {0}, 100_000, substream(62, "mc"))
    assert abs(est.mean - 1.7) < 4 * est.std_error


def test_mc_spread_se_scaling():
    g = random_simple_digraph(8, 0.3, substream(63, "g"))
    model = GltModel(g, random_weights_within(g, substream(63, "w")), make_uniform())
    est1 = estimate_spread_mc(model, {0}, 4000, substream(63, "a"))
    est2 = estimate_spread_mc(model, {0}, 8000, substream(63, "b"))
    ratio = est1.std_error / est2.std_error
    assert 1.3 <= ratio <= 1.6


def test_mc_spread_deterministic_given_seed():
    g = random_simple_digraph(8, 0.3, substream(64, "g"))
    model = GltModel(g, random_weights_within(g, substream(64, "w")), make_beta(1, 2))
    a = estimate_spread_mc(model, {0, 1}, 3000, 12345)
    b = estimate_spread_mc(model, {0, 1}, 3000, 12345)
    assert a == b


def test_mc_spread_validation():
    g = build_graph(2, [(0, 1)])
    model = from_lt(g, [0.5])
    with pytest.raises(InfluenceError):
        estimate_spread_mc(model, set(), 10, 1)
    with pytest.raises(InfluenceError):
        estimate_spread_mc(model, {0}, 0, 1)


def test_bipartite_closed_form_all_parents():
    g = build_graph(5, [(0, 3), (1, 3), (0, 4), (2, 4)])
    w = np.array([0.4, 0.5, 0.3, 0.35])
    model = GltModel(g, w, make_uniform())
    sigma = spread_bipartite_closed_form(model, {0, 1, 2})
    assert sigma == pytest.approx(3 + min(0.9, 1) + min(0.65, 1), abs=1e-12)


def test_bipartite_closed_form_matches_exact_and_mc():
    rng = substream(65, "bip")
    for rep in range(5):
        model = _random_bipartite(4, 4, substream(65, "m", rep))
        seed = {0, 2}
        closed = spread_bipartite_closed_form(model, seed)
        assert closed == pytest.approx(exact_spread(model, seed), abs=1e-9)
    model = _random_bipartite(4, 4, substream(65, "mc"))
    closed = spread_bipartite_closed_form(model, {0, 1})
    est = estimate_spread_mc(model, {0, 1}, 100_000, substream(65, "est"))
    assert abs(est.mean - closed) < 4 * est.std_error


def test_bipartite_closed_form_rejects_non_bipartite():
    g = build_graph(3, [(0, 1), (1, 2)])
    model = from_lt(g, [0.5, 0.5])
    with pytest.raises(InfluenceError):
        spread_bipartite_closed_form(model, {0})


def test_exact_evaluator_rejects_non_bipartite():
    from gltnet.influence import exact_evaluator

    model = from_lt(build_graph(3, [(0, 1), (1, 2)]), [0.5, 0.5])
    with pytest.raises(InfluenceError):
        exact_evaluator(model, "bipartite")
    # the check runs when the evaluator is built, so even budget 0 fails
    with pytest.raises(InfluenceError):
        greedy_im(model, 0, "bipartite")


def test_greedy_bipartite_first_pick():
    # parent 0 covers total cdf mass 1.2, parent 1 covers 0.7
    g = build_graph(6, [(0, 2), (0, 3), (0, 4), (1, 4), (1, 5)])
    w = np.array([0.5, 0.4, 0.3, 0.4, 0.3])
    model = GltModel(g, w, make_uniform())
    solution = greedy_im(model, 1, "bipartite")
    assert solution.seeds == (0,)
    assert solution.gains[0] == pytest.approx(1 + 1.2, abs=1e-12)


def test_greedy_full_budget_covers_graph():
    g = random_simple_digraph(6, 0.3, substream(66, "g"))
    model = GltModel(g, random_weights_within(g, substream(66, "w")), make_uniform())
    solution = greedy_im(model, 6, "exact")
    assert sorted(solution.seeds) == list(range(6))
    assert solution.spread.mean == pytest.approx(6.0, abs=1e-9)


def test_greedy_exact_gains_nonnegative_and_diminishing():
    rng = substream(67, "dim")
    g = random_simple_digraph(7, 0.3, substream(67, "g"))
    model = GltModel(g, random_weights_within(g, substream(67, "w")), make_beta(1, 2))
    solution = greedy_im(model, 4, "exact")
    assert all(gain >= -1e-9 for gain in solution.gains)
    # for a fixed candidate, the marginal gain never grows along the greedy
    # trajectory (diminishing returns under a concave-cdf model)
    oracle = ExactSpreadOracle(model)
    prefix = []
    previous_gain = {}
    for seed in solution.seeds:
        base = oracle.spread(prefix) if prefix else 0.0
        for v in range(g.n):
            if v in prefix:
                continue
            gain = oracle.spread(set(prefix) | {v}) - base
            if v in previous_gain:
                assert gain <= previous_gain[v] + 1e-9
            previous_gain[v] = gain
        prefix.append(seed)


def test_greedy_guarantee_quick():
    rng = substream(68, "gg")
    for rep in range(5):
        g = random_simple_digraph(7, 0.35, substream(68, "g", rep))
        model = GltModel(g, random_weights_within(g, substream(68, "w", rep)), make_exponential_unit())
        for k in (1, 2, 3):
            greedy = greedy_im(model, k, "exact")
            _, best = optimal_seed_set(model, k, "exact")
            assert greedy.spread.mean >= (1 - 1 / np.e) * best - 1e-9


def test_greedy_mc_deterministic_and_tie_break():
    g = random_simple_digraph(8, 0.3, substream(69, "g"))
    model = GltModel(g, random_weights_within(g, substream(69, "w")), make_uniform())
    a = greedy_im(model, 3, "mc", 777, replicates=300)
    b = greedy_im(model, 3, "mc", 777, replicates=300)
    assert a == b
    # tie-break toward lowest node index: all-zero weights make every node
    # a pure self-spread of exactly 1
    zero = GltModel(g, np.zeros(g.edge_count()), make_uniform())
    sol = greedy_im(zero, 3, "exact")
    assert sol.seeds == (0, 1, 2)


def test_greedy_derives_the_mc_root_from_a_generator():
    # a Generator is used once, for the root int(gen.integers(0, 2**63 - 1)),
    # so handing greedy a substream equals handing it the root it yields
    g = random_simple_digraph(8, 0.3, substream(79, "g"))
    model = GltModel(g, random_weights_within(g, substream(79, "w")), make_beta(1, 2))
    for budget in range(4):
        got = greedy_im(model, budget, "mc", substream(79, "root", budget), replicates=50)
        root = int(substream(79, "root", budget).integers(0, 2**63 - 1))
        want = greedy_im(model, budget, "mc", root, replicates=50)
        assert (got.seeds, got.gains, got.spread) == (want.seeds, want.gains, want.spread)


def test_greedy_validation():
    g = build_graph(2, [(0, 1)])
    model = from_lt(g, [0.5])
    with pytest.raises(InfluenceError):
        greedy_im(model, 3, "exact")
    with pytest.raises(InfluenceError):
        greedy_im(model, 1, "mc")  # rng required
    with pytest.raises(InfluenceError):
        greedy_im(model, 1, "frobnicate", 1)


def test_greedy_mc_rejects_bad_replicate_counts():
    # refused before any work: no empty-slice warnings, no numpy ValueError,
    # and not even a budget of 0 gets through
    g = build_graph(2, [(0, 1)])
    model = from_lt(g, [0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for budget, replicates in [(1, 0), (1, -5), (0, 0)]:
            with pytest.raises(InfluenceError, match="need at least one replicate"):
                greedy_im(model, budget, "mc", 1, replicates=replicates)


def test_replicate_counts_above_the_ceiling_are_refused():
    # the ceiling itself is a job; one more replicate is refused before any draw
    from gltnet.graph import _MAX_REALIZATIONS

    model = from_lt(build_graph(2, [(0, 1)]), [0.5])
    assert estimate_spread_mc(model, {0}, _MAX_REALIZATIONS, 1).replicates == _MAX_REALIZATIONS
    for replicates in (_MAX_REALIZATIONS + 1, 10**18):
        match = f"replicate count {replicates} exceeds the ceiling"
        with pytest.raises(InfluenceError, match=match):
            estimate_spread_mc(model, {0}, replicates, 1)
        with pytest.raises(InfluenceError, match=match):
            greedy_im(model, 1, "mc", 1, replicates=replicates)


def test_im_solution_gap_zero_for_equal_models():
    model = _random_bipartite(4, 4, substream(70, "m"))
    assert im_solution_gap(model, model, 2, "bipartite") == pytest.approx(0.0, abs=1e-12)


def test_im_solution_gap_relabel_invariant():
    rng = substream(71, "rel")
    model = _random_bipartite(3, 3, substream(71, "m"))
    est = model.with_weights(
        np.clip(model.weights + rng.uniform(-0.05, 0.05, model.weights.size), 0.0, None)
    )
    gap = im_solution_gap(model, est, 2, "bipartite")
    # relabel nodes by a permutation applied consistently to both models
    perm = [4, 2, 0, 5, 1, 3]
    g2_edges = [(perm[u], perm[v]) for u, v in model.graph.edges]
    g2 = build_graph(6, g2_edges)
    index = {e: i for i, e in enumerate(model.graph.edges)}

    def permuted(weights):
        out = np.zeros_like(weights)
        for j, (u2, v2) in enumerate(g2.edges):
            out[j] = weights[index[(perm.index(u2), perm.index(v2))]]
        return out

    truth2 = GltModel(g2, permuted(model.weights), make_uniform())
    est2 = GltModel(g2, permuted(est.weights), make_uniform())
    gap2 = im_solution_gap(truth2, est2, 2, "bipartite")
    assert gap2 == pytest.approx(gap, abs=1e-12)


def test_im_solution_gap_builds_one_true_evaluator(monkeypatch):
    from gltnet import influence

    g = random_simple_digraph(8, 0.35, substream(75, "g"))
    truth = GltModel(g, random_weights_within(g, substream(75, "w")), make_beta(1, 2))
    est = truth.with_weights(random_weights_within(g, substream(75, "est")))
    # one fresh oracle per term, as three separate evaluators compute it
    _, best = optimal_seed_set(truth, 2, "exact")
    s_est, _ = optimal_seed_set(est, 2, "exact")
    expected = float(best - ExactSpreadOracle(truth).spread(s_est))
    assert expected > 0.0  # the estimated optimum differs from the true one
    calls = count_calls(monkeypatch, influence.exact_evaluator)
    assert im_solution_gap(truth, est, 2, "exact") == expected
    assert [call["model"] for call in calls] == [truth, est]


def test_prop9_gap_bound_quick():
    # spread loss of optimizing under perturbed weights is at most
    # 2 * max_v F_v'(0) * ||theta_hat - theta||_1 on bipartite graphs
    for rep in range(10):
        rng = substream(72, "p9", rep)
        spec = [make_uniform(), make_exponential_unit(), make_beta(1, 2)][rep % 3]
        model = _random_bipartite(4, 4, rng, spec=spec, d_max=0.9)
        noise = rng.uniform(-0.15, 0.15, model.weights.size)
        est_w = np.clip(model.weights + noise, 0.0, None)
        for v in range(model.graph.n):
            sl = model.graph.child_slice(v)
            total = est_w[sl].sum()
            if total > 1.0 and np.isfinite(spec.support_bound):
                est_w[sl] *= 0.999 / total
        est = model.with_weights(est_w)
        lipschitz = float(spec.density(0.0))
        gap = im_solution_gap(model, est, 2, "bipartite")
        bound = 2 * lipschitz * np.abs(est.weights - model.weights).sum()
        assert gap <= bound + 1e-9


def test_exact_evaluator_dispatch():
    from gltnet.influence import exact_evaluator

    model = _random_bipartite(3, 3, substream(73, "m"))
    a = exact_evaluator(model, "exact")([{0, 1}])[0]
    b = exact_evaluator(model, "bipartite")([{0, 1}])[0]
    assert a == pytest.approx(b, abs=1e-9)
    # one value per set of a batch, in input order; the empty set spreads to
    # 0.0, and a repeated or permuted set gets the same value
    batch = [{0, 1}, set(), {2, 4}, {0, 1}, [4, 2], (5,)]
    for kind in ("exact", "bipartite"):
        values = exact_evaluator(model, kind)(batch)
        singles = [exact_evaluator(model, kind)([s])[0] for s in batch]
        assert values == pytest.approx(singles, abs=1e-12)
        assert values[1] == 0.0 and values[3] == values[0] and values[4] == values[2]
        assert len(set(values)) == 4
    with pytest.raises(InfluenceError):
        exact_evaluator(model, "mc")


@st.composite
def _greedy_case(draw):
    n = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 2**32 - 1))
    spec = draw(st.sampled_from([make_uniform(), make_exponential_unit(), make_beta(1, 2)]))
    if draw(st.sampled_from(["general", "bipartite"])) == "bipartite":
        n_parents = draw(st.integers(1, n - 1))
        model = _random_bipartite(n_parents, n - n_parents, substream(seed, "m"), spec=spec)
        evaluators = ["exact", "bipartite", "mc"]
    else:
        g = random_simple_digraph(n, draw(st.floats(0.1, 0.5)), substream(seed, "g"))
        model = GltModel(g, random_weights_within(g, substream(seed, "w")), spec)
        evaluators = ["exact", "mc"]
    budget = draw(st.integers(0, min(4, n)))
    return model, budget, draw(st.sampled_from(evaluators)), seed, draw(st.integers(1, 60))


@settings(max_examples=100, deadline=None)
@given(_greedy_case())
def test_greedy_matches_reference_loops(case):
    # one selection loop over gains() reproduces the separate exact and
    # Monte Carlo loops bit for bit: seeds, gains and every spread field;
    # budgets up to 4 reach steps where candidates are already active in
    # some base replicates, or where every replicate stops in round 0
    model, budget, evaluator, seed, replicates = case
    got = greedy_im(model, budget, evaluator, seed, replicates=replicates)
    want = reference_greedy_im(model, budget, evaluator, seed, replicates=replicates)
    assert got == want


def test_greedy_mc_closes_pieces_of_several_candidates_bit_for_bit(monkeypatch):
    # n = 64 and R = 20 give pieces of at most max(20, _CHUNK // 64) = 256
    # cold columns, so each step closes several pieces of several candidates;
    # seeds, gains and spread still equal the per-candidate reference loops
    from gltnet import influence

    g = random_simple_digraph(64, 0.06, substream(97, "g"))
    model = GltModel(g, random_weights_within(g, substream(97, "w")), make_beta(1, 2))
    monkeypatch.setattr(influence, "_CHUNK", 16384)
    calls = count_calls(monkeypatch, influence._final_sizes)
    got = greedy_im(model, 2, "mc", 98, replicates=20)
    widths = [call["thresholds"].shape[1] for call in calls]
    assert max(widths) <= 256
    assert sum(width > 2 * 20 for width in widths) >= 6
    assert len(calls) <= 20
    assert got == reference_greedy_im(model, 2, "mc", 98, replicates=20)
    assert got.gains[0] > 1.0


def test_greedy_mc_chunks_straddle_candidates_bit_for_bit(monkeypatch):
    # with _CHUNK = 110, n = 10 and R = 7 the chunks hold 11 columns; at the
    # first step every candidate has all 7 columns cold, so chunk boundaries
    # fall inside candidates' columns; seeds, gains and spread still equal
    # the per-candidate reference loops
    from gltnet import influence

    g = random_simple_digraph(10, 0.3, substream(99, "g"))
    model = GltModel(g, random_weights_within(g, substream(99, "w")), make_beta(1, 2))
    monkeypatch.setattr(influence, "_CHUNK", 110)
    calls = count_calls(monkeypatch, influence._final_sizes)
    got = greedy_im(model, 3, "mc", 100, replicates=7)
    widths = [call["thresholds"].shape[1] for call in calls]
    assert widths[:8] == [7] + [11] * 6 + [4]  # the base set, then 70 cold columns
    assert got == reference_greedy_im(model, 3, "mc", 100, replicates=7)
