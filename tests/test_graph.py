import itertools
from collections import Counter, deque

import numpy as np
import pytest
from scipy import stats

import gltnet
from gltnet import (
    GraphError,
    SeedDistribution,
    build_graph,
    children_of_set,
    generate_cws,
    sample_seed,
    sample_weights_simplex,
)
from gltnet.rng import substream


def test_triangle_canonical_edge_order():
    # bidirected triangle: sorted by child then parent
    g = build_graph(3, [(0, 1), (1, 0), (2, 0), (2, 1), (0, 2), (1, 2)])
    assert g.edges == ((1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2))


def test_canonicalization_is_order_invariant():
    edges = [(1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2)]
    reference = build_graph(3, edges)
    for perm in itertools.permutations(edges):
        assert build_graph(3, list(perm)) == reference


def test_empty_edge_list():
    g = build_graph(3, [])
    for v in range(3):
        assert g.parents(v) == set()
        assert g.children(v) == set()


def test_star_neighborhoods():
    m = 4
    g = build_graph(m + 1, [(i, m) for i in range(m)])
    assert g.parents(m) == set(range(m))
    assert g.children(m) == set()
    assert g.parents(2) == set()


def test_build_graph_errors():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1)]).parents(5)


@pytest.mark.parametrize(
    "n, edges",
    [(3, [(0.9, 1)]), (3, [(0, 1.0)]), (3, [(True, 2)]), (3, [("0", 1)]), (3.0, [(0, 1)]), (True, [])],
)
def test_build_graph_rejects_non_integer_node_ids(n, edges):
    # (0.9, 1) once became the edge (0, 1); n=3.0 escaped as a bare TypeError
    with pytest.raises(GraphError, match="is not an integer|non-integer endpoint"):
        build_graph(n, edges)
    assert build_graph(np.int64(3), [(np.int32(0), np.int64(1))]).edges == ((0, 1),)


def test_set_neighborhoods_exclude_argument():
    g = build_graph(3, [(0, 1), (1, 0), (2, 0), (2, 1), (0, 2), (1, 2)])
    assert children_of_set(g, {0, 1}) == {2}


def _undirected_connected(graph):
    adj = [set() for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u] - seen:
            seen.add(w)
            queue.append(w)
    return len(seen) == graph.n


def test_cws_ring_lattice_deterministic():
    g = generate_cws(10, 4, 0.0, substream(0, "cws"))
    assert g.edge_count() == 40
    for v in range(10):
        assert g.in_degree(v) == 4
        assert g.parents(v) == {(v + d) % 10 for d in (-2, -1, 1, 2)}


@pytest.mark.parametrize("p", [0.0, 0.2, 1.0])
def test_cws_edge_count_and_connectivity(p):
    for rep in range(5):
        g = generate_cws(30, 4, p, substream(rep, "cws", str(p)))
        assert g.edge_count() == 120
        assert _undirected_connected(g)
        # doubled edges: (u, v) present iff (v, u) present
        edge_set = set(g.edges)
        assert all((v, u) in edge_set for u, v in edge_set)


def test_cws_invalid_arguments():
    rng = substream(1, "x")
    with pytest.raises(GraphError):
        generate_cws(5, 5, 0.2, rng)
    with pytest.raises(GraphError):
        generate_cws(10, 3, 0.2, rng)
    with pytest.raises(GraphError):
        generate_cws(10, 4, 1.5, rng)


def test_simplex_weights_support_exact():
    g = generate_cws(20, 4, 0.3, substream(3, "g"))
    for d_max in (0.4, 1.0):
        w = sample_weights_simplex(g, d_max, substream(3, "w", str(d_max)))
        assert np.all(w >= 0)
        for v in range(g.n):
            assert w[g.child_slice(v)].sum() <= d_max  # exact, no tolerance


def test_simplex_weights_single_parent_mean():
    # one call samples each child independently: use many single-parent children
    n_children = 200
    edges = [(0, v) for v in range(1, n_children + 1)]
    g = build_graph(n_children + 1, edges)
    rng = substream(4, "single")
    draws = np.concatenate(
        [sample_weights_simplex(g, 1.0, rng) for _ in range(500)]
    )
    assert draws.size == 100_000
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) < 3 * se


def test_simplex_weights_multi_parent_mean():
    # E[b] = d_max / (m + 1) for the flat Dirichlet marginal
    m = 3
    edges = [(u, v) for v in range(m, 60) for u in range(m)]
    g = build_graph(60, edges)
    rng = substream(5, "multi")
    draws = np.concatenate([sample_weights_simplex(g, 1.0, rng) for _ in range(60)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - 1.0 / (m + 1)) < 3 * se


def test_seed_point_mass():
    dist = SeedDistribution.explicit([({0, 1}, 1.0)])
    g = build_graph(3, [(0, 2)])
    rng = substream(6, "seed")
    for _ in range(10):
        assert sample_seed(dist, g, rng) == {0, 1}


def test_seed_uniform_singletons_chi_square():
    g = build_graph(5, [])
    dist = SeedDistribution.uniform_by_size(1)
    rng = substream(7, "seed")
    counts = Counter()
    n = 100_000
    for _ in range(n):
        (v,) = sample_seed(dist, g, rng)
        counts[v] += 1
    expected = n / 5
    chi2 = sum((counts[v] - expected) ** 2 / expected for v in range(5))
    assert chi2 < stats.chi2.ppf(0.99, df=4)


def test_seed_never_empty_and_size_bounds():
    g = build_graph(6, [])
    dist = SeedDistribution.uniform_by_size(3)
    rng = substream(8, "seed")
    for _ in range(2000):
        s = sample_seed(dist, g, rng)
        assert 1 <= len(s) <= 3


def test_seed_distribution_validation():
    with pytest.raises(GraphError):
        SeedDistribution.explicit([])
    with pytest.raises(GraphError):
        SeedDistribution.explicit([(set(), 1.0)])
    with pytest.raises(GraphError):
        SeedDistribution.explicit([({0}, 0.4)])
    with pytest.raises(GraphError):
        SeedDistribution.uniform_by_size(0)


def test_explicit_support_expansion_matches_sampler():
    dist = SeedDistribution.uniform_by_size(2)
    support = dict(dist.explicit_support(4))
    # size-then-set: P(single set of size s) = (1/2) / C(4, s)
    assert abs(support[frozenset({1})] - 0.5 / 4) < 1e-12
    assert abs(support[frozenset({1, 3})] - 0.5 / 6) < 1e-12
    assert abs(sum(support.values()) - 1.0) < 1e-9


def _star_model():
    # parents 0..6 of node 7: every entry point below accepts this graph
    from gltnet import GltModel, make_uniform

    return GltModel(build_graph(8, [(u, 7) for u in range(7)]), np.full(7, 0.1), make_uniform())


NODE_ID_ENTRY_POINTS = {
    "estimate_spread_mc": lambda m, s: gltnet.estimate_spread_mc(m, s, 10, 1),
    "simulate_traces": lambda m, s: gltnet.simulate_traces(m, [s], [substream(1)]),
    "bipartite_spread": lambda m, s: gltnet.spread_bipartite_closed_form(m, s),
    "exact_spread": lambda m, s: gltnet.ExactSpreadOracle(m).spread(s),
    "check_identifiability": lambda m, s: gltnet.check_identifiability(
        m.graph, SeedDistribution.explicit([(s, 1.0)])
    ),
}


@pytest.mark.parametrize("entry", sorted(NODE_ID_ENTRY_POINTS))
@pytest.mark.parametrize("node", [1.5, 2.0, np.float64(1.0), "1", True])
def test_entry_points_reject_non_integer_node_ids(entry, node):
    # 1.5 once ran as seed {1}; identifiability raised a bare TypeError
    with pytest.raises(GraphError, match="is not an integer"):
        NODE_ID_ENTRY_POINTS[entry](_star_model(), {node, 3})


@pytest.mark.parametrize("entry", sorted(NODE_ID_ENTRY_POINTS))
def test_entry_points_take_numpy_integer_node_ids(entry):
    model = _star_model()
    got = NODE_ID_ENTRY_POINTS[entry](model, {np.int64(1), np.int32(3)})
    assert repr(got) == repr(NODE_ID_ENTRY_POINTS[entry](model, {1, 3}))
