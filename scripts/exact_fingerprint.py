"""Print the exact spread of every seed set of up to 3 nodes on small models.

The models follow the benchmark's exact-small workload: 8 CWS graphs with
n=9, k=4, rewiring 0.2 and simplex weights with in-degree sums at most 0.9,
built from the same substreams.  Each graph is scored under beta(1, 2)
thresholds (the workload's own), uniform, unit-exponential and beta(0.5, 2)
thresholds.  Each line holds the model, the seed set and the float.hex of
its exact spread.  Under beta(1, 2) each graph then gets the exact
`greedy_im` seeds, gains and spread at k=3, `optimal_seed_set` at k=2, the
`check_submodularity_exact(max_budget=2)` violations, and `im_solution_gap`
at k=2 against an estimate with re-drawn simplex weights.  Under beta(3, 1)
thresholds, whose convex cdf breaks submodularity, each graph gets the
violation count and a sha256 of every field of every violation, in order,
of `check_submodularity_exact` at max_budget=2 and at the full budget, and
of `check_monotonicity_exact`.  Last come the graph's identifiability
reports under uniform-by-size seeds of up to 1 and 2 nodes: per child node,
the verdict and the sorted achievable parent subsets.  After the 8 graphs
come 4 random parent-to-child bipartite models (4 parent nodes, 5 child
nodes, each edge present with probability 0.5, simplex weights with sums at
most 0.9, beta(1, 2) thresholds), scored by the "bipartite" evaluator: the
greedy seeds, gains and spread at k=3, `optimal_seed_set` at k=2,
`im_solution_gap` at k=2 against re-drawn weights, and the
`spread_bipartite_closed_form` of every seed set of 1 or 2 nodes.  Floats
print as float.hex.  Run from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/exact_fingerprint.py --seed 7

It uses only the public API, so it runs unchanged on older checkouts; diff
its output at two commits to find the spreads and reports a change moved.
"""

import argparse
import dataclasses
import hashlib
from itertools import combinations

import gltnet as g
from gltnet.rng import substream

SPECS = [("beta(1,2)", g.make_beta(1, 2)), ("uniform", g.make_uniform()),
         ("exponential", g.make_exponential_unit()), ("beta(0.5,2)", g.make_beta(0.5, 2))]


def _nodes(nodes):
    return ",".join(map(str, sorted(nodes)))


def im_checks(tag, model, rng, evaluator="exact"):
    """Print the greedy, optimum and IM-gap results of ``model`` under
    ``evaluator``, and under "exact" its submodularity violations too."""
    greedy = g.greedy_im(model, 3, evaluator)
    print(tag, "greedy k=3", ",".join(map(str, greedy.seeds)),
          " ".join(float(x).hex() for x in greedy.gains), float(greedy.spread.mean).hex())
    best, value = g.optimal_seed_set(model, 2, evaluator)
    print(tag, "optimal k=2", _nodes(best), float(value).hex())
    if evaluator == "exact":
        violations = g.check_submodularity_exact(model, max_budget=2)
        print(tag, "submodularity max_budget=2", len(violations), "violations")
        for viol in violations:
            print(tag, "violation", viol.node, _nodes(viol.subset), _nodes(viol.superset),
                  float(viol.gain_at_subset).hex(), float(viol.gain_at_superset).hex())
    estimate = model.with_weights(g.sample_weights_simplex(model.graph, 0.9, rng))
    print(tag, "im_solution_gap k=2", float(g.im_solution_gap(model, estimate, 2, evaluator)).hex())


def _field_text(value):
    if isinstance(value, frozenset):
        return _nodes(value)
    return float(value).hex() if isinstance(value, float) else str(value)


def violation_checks(tag, model):
    """Print the count and sha256 of the exhaustive checks' violation lists."""
    checks = [("submodularity max_budget=2", lambda: g.check_submodularity_exact(model, max_budget=2)),
              ("submodularity full", lambda: g.check_submodularity_exact(model)),
              ("monotonicity", lambda: g.check_monotonicity_exact(model))]
    for label, check in checks:
        violations = check()
        digest = hashlib.sha256()
        for viol in violations:
            digest.update(" ".join(f"{f.name}={_field_text(getattr(viol, f.name))}"
                                   for f in dataclasses.fields(viol)).encode() + b"\n")
        print(tag, "beta(3,1)", label, len(violations), "violations", digest.hexdigest())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for i in range(8):
        tag = f"exact-{i}"
        graph = g.generate_cws(9, 4, 0.2, substream(args.seed, "graph", tag))
        weights = g.sample_weights_simplex(graph, 0.9, substream(args.seed, "weights", tag))
        for label, spec in SPECS:
            oracle = g.ExactSpreadOracle(g.GltModel(graph, weights, spec))
            for size in range(1, 4):
                for seed_set in combinations(range(graph.n), size):
                    value = oracle.spread(set(seed_set))
                    print(tag, label, ",".join(map(str, seed_set)), float(value).hex())
        im_checks(tag, g.GltModel(graph, weights, SPECS[0][1]), substream(args.seed, "estimate", tag))
        violation_checks(tag, g.GltModel(graph, weights, g.make_beta(3, 1)))
        for s_max in (1, 2):
            report = g.check_identifiability(graph, g.SeedDistribution.uniform_by_size(s_max))
            for v, node in sorted(report.nodes.items()):
                subsets = sorted(sorted(s) for s in node.achievable)
                print(tag, f"identifiability s_max={s_max}", v, node.verdict,
                      " ".join(",".join(map(str, s)) for s in subsets))
    for i in range(4):
        tag = f"bipartite-{i}"
        rng = substream(args.seed, "graph", tag)
        graph = g.build_graph(9, [(u, c) for c in range(4, 9) for u in range(4) if rng.random() < 0.5])
        weights = g.sample_weights_simplex(graph, 0.9, substream(args.seed, "weights", tag))
        model = g.GltModel(graph, weights, SPECS[0][1])
        im_checks(tag, model, substream(args.seed, "estimate", tag), "bipartite")
        for size in (1, 2):
            for seed_set in combinations(range(graph.n), size):
                value = g.spread_bipartite_closed_form(model, set(seed_set))
                print(tag, "closed form", ",".join(map(str, seed_set)), float(value).hex())


if __name__ == "__main__":
    main()
