import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gltnet import (
    GltModel,
    GraphError,
    SeedDistribution,
    build_graph,
    check_identifiability,
    check_monotonicity_exact,
    check_submodularity_exact,
    exact_spread,
    from_lt,
    make_beta,
    make_exponential_unit,
    make_uniform,
    solve_triggering_embedding,
)
from gltnet.diagnostics import _exact_rank_and_pivots
from gltnet.rng import substream

from conftest import (
    random_simple_digraph,
    random_weights_within,
    reference_achievable_parent_subsets,
    reference_exact_determinant,
    reference_exact_violations,
)


def _star2():
    return build_graph(3, [(0, 2), (1, 2)])


def test_star_point_mass_not_identifiable():
    report = check_identifiability(_star2(), SeedDistribution.explicit([({0, 1}, 1.0)]))
    node = report.nodes[2]
    assert node.verdict == "not-identifiable"
    assert node.rank == 1
    assert node.rank_deficiency == 1
    assert node.achievable == (frozenset({0, 1}),)


def test_star_two_subsets_identifiable():
    dist = SeedDistribution.explicit([({0}, 0.5), ({0, 1}, 0.5)])
    report = check_identifiability(_star2(), dist)
    node = report.nodes[2]
    assert node.verdict == "identifiable"
    assert set(node.witnesses) == {frozenset({0}), frozenset({0, 1})}
    assert node.determinant != 0
    assert report.identifiable


def test_unreachable_parent_not_identifiable():
    # node 2 is a parent of 1 but can never activate: zero row in the matrix
    g = build_graph(3, [(0, 1), (2, 1)])
    report = check_identifiability(g, SeedDistribution.explicit([({0}, 1.0)]))
    node = report.nodes[1]
    assert node.verdict == "not-identifiable"
    assert all(2 not in s for s in node.achievable)


def test_multi_step_subsets_are_collected():
    # a chain into the star lets singleton subsets appear at later times
    g = build_graph(4, [(0, 1), (0, 3), (1, 3), (2, 3)])
    dist = SeedDistribution.explicit([({0}, 0.6), ({2}, 0.4)])
    report = check_identifiability(g, dist)
    node = report.nodes[3]
    assert frozenset({0}) in node.achievable
    assert frozenset({1}) in node.achievable  # via trace ({0}, {1}) truncation
    assert frozenset({2}) in node.achievable
    assert node.verdict == "identifiable"


def test_identifiability_monotone_in_support():
    rng = substream(51, "mono")
    for rep in range(5):
        g = random_simple_digraph(6, 0.3, substream(51, "g", rep))
        small = SeedDistribution.explicit([({0}, 1.0)])
        large = SeedDistribution.explicit([({0}, 0.5), ({1, 2}, 0.3), ({3}, 0.2)])
        rep_small = check_identifiability(g, small)
        rep_large = check_identifiability(g, large)
        for v in rep_small.nodes:
            if rep_small.nodes[v].verdict == "identifiable":
                assert rep_large.nodes[v].verdict == "identifiable"


def test_identifiability_cap():
    g = random_simple_digraph(8, 0.5, substream(52, "g"))
    dist = SeedDistribution.uniform_by_size(2)
    report = check_identifiability(g, dist, state_cap=5)
    assert any(r.verdict == "unknown-cap-exceeded" for r in report.nodes.values())


@pytest.mark.parametrize(
    "graph, s_max, state_cap, capped",
    [
        # node v's search holds 59, 77, 57, 28, 77, 42, 35 states for v = 1..7
        (random_simple_digraph(8, 0.35, substream(52, "g")), 1, 57, {1, 2, 5}),
        (random_simple_digraph(8, 0.35, substream(52, "g")), 1, 56, {1, 2, 3, 5}),
        # 96, 155, 112, 142, 91, 144 states for v = 0, 1, 2, 3, 4, 6
        (random_simple_digraph(7, 0.4, substream(52, "g")), 2, 142, {1, 6}),
        # node 2 has 5 seed states and nothing else, node 3 has 7 states
        (build_graph(6, [(0, 2), (1, 2), (2, 3)]), 1, 2, {3}),
    ],
)
def test_identifiability_cap_is_per_node(graph, s_max, state_cap, capped):
    # a node is capped iff more than state_cap states have it inactive and
    # one of them is not a seed state; the other nodes get their full reports
    dist = SeedDistribution.uniform_by_size(s_max)
    report = check_identifiability(graph, dist, state_cap=state_cap)
    full = check_identifiability(graph, dist)
    assert {v for v, r in report.nodes.items() if r.verdict == "unknown-cap-exceeded"} == capped
    assert report.nodes.keys() == full.nodes.keys()
    for v in report.nodes.keys() - capped:
        assert report.nodes[v] == full.nodes[v]
        assert full.nodes[v].verdict != "unknown-cap-exceeded"


def test_uniform_by_size_support_expansion_used():
    report = check_identifiability(_star2(), SeedDistribution.uniform_by_size(2))
    assert report.nodes[2].verdict == "identifiable"


def test_submodularity_concave_families_clean():
    rng = substream(53, "sub")
    for rep, spec in enumerate([make_uniform(), make_exponential_unit(), make_beta(1, 2)]):
        g = random_simple_digraph(6, 0.3, substream(53, "g", rep))
        w = random_weights_within(g, substream(53, "w", rep))
        model = GltModel(g, w, spec)
        assert check_submodularity_exact(model, max_budget=3) == []
        assert check_monotonicity_exact(model) == []


def test_submodularity_engineered_violation():
    # star with beta(2, 1) child (F(x) = x^2) and weights (0.1, 0.4, 0.3):
    # gain of the b=0.3 parent is larger at the bigger base set
    g = build_graph(4, [(0, 3), (1, 3), (2, 3)])
    model = GltModel(g, np.array([0.1, 0.4, 0.3]), make_beta(2, 1))
    violations = check_submodularity_exact(model)
    assert violations
    hit = [
        v
        for v in violations
        if v.node == 2 and v.subset == frozenset({0}) and v.superset == frozenset({0, 1})
    ]
    assert hit
    # spread gains are 1 (the added seed itself) + the cdf difference:
    # F(0.4)-F(0.1) = 0.15 vs F(0.8)-F(0.5) = 0.39
    assert hit[0].gain_at_subset == pytest.approx(1.15, abs=1e-12)
    assert hit[0].gain_at_superset == pytest.approx(1.39, abs=1e-12)
    # monotonicity still holds for any instance
    assert check_monotonicity_exact(model) == []


def test_submodularity_star_matches_interval_characterization():
    # on a star, violations exist iff F(x+b) - F(x) < F(y+b) - F(y) for some
    # achievable x = B(S'), y = B(S), b = weight of the added parent
    rng = substream(54, "char")
    for rep in range(6):
        weights = rng.uniform(0.05, 0.3, size=3)
        spec = make_beta(2, 1) if rep % 2 == 0 else make_uniform()
        g = build_graph(4, [(0, 3), (1, 3), (2, 3)])
        model = GltModel(g, weights, spec)
        violations = check_submodularity_exact(model)
        expected = False
        idx = [0, 1, 2]
        for v in idx:
            others = [u for u in idx if u != v]
            b = weights[v]
            for mask_small in range(4):
                for mask_big in range(4):
                    if mask_small & mask_big != mask_small or mask_small == mask_big:
                        continue
                    x = sum(weights[others[i]] for i in range(2) if mask_small >> i & 1)
                    y = sum(weights[others[i]] for i in range(2) if mask_big >> i & 1)
                    if spec.cdf(x + b) - spec.cdf(x) < spec.cdf(y + b) - spec.cdf(y) - 1e-9:
                        expected = True
        assert bool(violations) == expected


@st.composite
def _exact_scan_cases(draw):
    n = draw(st.integers(4, 6))
    seed = draw(st.integers(0, 2**16))
    graph = random_simple_digraph(n, draw(st.sampled_from([0.3, 0.5])), substream(seed, "g"))
    # concave cdfs (submodular spread) and convex ones (violations)
    spec = draw(st.sampled_from([make_uniform(), make_beta(1, 2), make_beta(2, 1), make_beta(3, 1)]))
    model = GltModel(graph, random_weights_within(graph, substream(seed, "w")), spec)
    return model, draw(st.one_of(st.none(), st.integers(0, n + 1)))


@settings(max_examples=60, deadline=None)
@given(_exact_scan_cases())
def test_exact_checks_match_a_set_based_walk(case):
    # whole violation lists, field for field and in order
    model, max_budget = case
    submodular, monotone = reference_exact_violations(model, max_budget)
    assert check_submodularity_exact(model, max_budget=max_budget) == submodular
    assert check_monotonicity_exact(model) == monotone


def test_submodularity_rejects_a_negative_budget():
    model = GltModel(build_graph(3, [(0, 2), (1, 2)]), np.array([0.3, 0.4]), make_uniform())
    with pytest.raises(ValueError, match="max_budget must be nonnegative, got -1"):
        check_submodularity_exact(model, max_budget=-1)


def test_monotonicity_and_spread_floor():
    g = random_simple_digraph(6, 0.4, substream(55, "g"))
    w = random_weights_within(g, substream(55, "w"))
    model = GltModel(g, w, make_beta(2, 2))  # not concave, still monotone
    assert check_monotonicity_exact(model) == []
    for seed in [{0}, {1, 2}, {0, 3, 4}]:
        assert exact_spread(model, seed) >= len(seed) - 1e-12


def test_triggering_embedding_counterexample():
    # equal weights 1/3 and F(1/3)=0.5, F(2/3)=0.85, F(1)=1
    def cdf(x):
        table = {0.0: 0.0, 1 / 3: 0.5, 2 / 3: 0.85, 1.0: 1.0}
        for key, val in table.items():
            if abs(x - key) < 1e-9:
                return val
        raise AssertionError(f"unexpected cdf argument {x}")

    emb = solve_triggering_embedding([1 / 3, 1 / 3, 1 / 3], cdf)
    assert emb.mass({0, 1, 2}) == pytest.approx(-0.05, abs=1e-12)
    assert not emb.feasible
    assert frozenset({0, 1, 2}) in emb.negative_sets
    assert sum(emb.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def test_triggering_embedding_uniform_feasible():
    g = build_graph(4, [(0, 3), (1, 3), (2, 3)])
    model = GltModel(g, np.array([1 / 3, 1 / 3, 1 / 3]), make_uniform())
    emb = solve_triggering_embedding(model)
    assert emb.feasible
    assert sum(emb.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(p >= -1e-12 for p in emb.probabilities.values())


def test_triggering_embedding_validation():
    g = build_graph(3, [(0, 2), (1, 2)])
    with pytest.raises(ValueError):
        solve_triggering_embedding(GltModel(g, np.array([0.2, 0.2]), make_uniform()))
    with pytest.raises(ValueError):
        solve_triggering_embedding([0.1, 0.2, 0.3])  # cdf required


@pytest.mark.parametrize("node", [100, 8, -1])
def test_identifiability_rejects_seed_nodes_outside_the_graph(node):
    graph = build_graph(8, [(0, 2), (1, 2)])
    with pytest.raises(GraphError, match=f"node {node} out of range"):
        check_identifiability(graph, SeedDistribution.explicit([({node}, 1.0)]))


@st.composite
def _zero_one_columns(draw):
    m = draw(st.integers(1, 6))
    column = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    return m, draw(st.lists(column, min_size=1, max_size=2 * m + 2))


@settings(max_examples=300, deadline=None)
@given(_zero_one_columns())
def test_elimination_determinant_matches_reference(case):
    # the elimination's signed pivot product is the witness matrix determinant
    m, columns = case
    rank, pivots, det = _exact_rank_and_pivots(columns, m)
    if rank < m:
        assert det is None
        return
    witness_matrix = [[columns[j][i] for j in pivots] for i in range(m)]
    assert det == reference_exact_determinant(witness_matrix) != 0


@st.composite
def _identifiability_cases(draw):
    n = draw(st.integers(2, 9))
    node = st.integers(0, n - 1)
    density = draw(st.sampled_from([0.2, 0.35, 0.5]))
    graph = random_simple_digraph(n, density, substream(draw(st.integers(0, 2**16)), "g"))
    if draw(st.booleans()):
        sets = draw(st.lists(st.frozensets(node, min_size=1, max_size=3), min_size=1, max_size=4))
        weights = [draw(st.integers(1, 3))] + [draw(st.integers(0, 3)) for _ in sets[1:]]
        dist = SeedDistribution.explicit([(s, w / sum(weights)) for s, w in zip(sets, weights)])
    else:
        dist = SeedDistribution.uniform_by_size(draw(st.integers(1, 3)))
    state_cap = draw(st.one_of(st.integers(1, 80), st.just(100_000)))
    return graph, dist, state_cap


@settings(max_examples=200, deadline=None)
@given(_identifiability_cases())
def test_identifiability_matches_per_node_searches(case):
    # one shared search gives each node what its own held-out search gives
    graph, dist, state_cap = case
    report = check_identifiability(graph, dist, state_cap=state_cap)
    assert sorted(report.nodes) == graph.child_nodes()
    for v, node in report.nodes.items():
        masks, capped = reference_achievable_parent_subsets(graph, dist, v, state_cap)
        assert (node.verdict == "unknown-cap-exceeded") == capped
        if capped:
            continue
        parents = graph.parent_list(v)
        subsets = tuple(frozenset(u for u in parents if m >> u & 1) for m in sorted(masks))
        assert node.achievable == subsets
        columns = [[int(u in s) for u in parents] for s in subsets]
        rank, pivots, det = _exact_rank_and_pivots(columns, len(parents))
        assert node.rank == rank
        assert node.verdict == ("identifiable" if rank == len(parents) else "not-identifiable")
        assert node.witnesses == (tuple(subsets[j] for j in pivots) if det is not None else None)
        assert node.determinant == det
