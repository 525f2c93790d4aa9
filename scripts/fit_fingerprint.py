"""Print one fingerprint line per node fit on two fixed trace sets.

The trace sets follow the benchmark's two fitting workloads:

- cli-chain: CWS n=80, k=6, beta(1, 3) thresholds, 300 traces from seed
  sets of 1-5 nodes, built as `gltnet generate` and `gltnet simulate` do;
- im-study: CWS n=16, k=4, beta(1, b) thresholds with b drawn per node
  from 1..5, 300 traces, built as the first replication of
  `experiments.run_im_comparison` does.

Every node of both sets is fitted under uniform, exponential, and
beta(1, b) for b in 1..5 thresholds, all log-concave, and under the
non-log-concave beta(0.5, 2).  Each line holds the trace set, the node, the
threshold, the float.hex of each weight (comma-separated), repr(loglik),
the iteration count, converged and repr(projected_gradient_norm).  Run
from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/fit_fingerprint.py --seed 7

It uses only the public API, so it runs unchanged on older checkouts;
diff its output at two commits to count the fits a change moved, or
compare the two outputs with `scripts/fit_diff.py`.
"""

import argparse
import warnings

import gltnet as g
from gltnet.rng import substream

SPECS = [("uniform", g.make_uniform()), ("exponential", g.make_exponential_unit())]
SPECS += [(f"beta(1,{b})", g.make_beta(1, b)) for b in range(1, 6)]
SPECS += [("beta(0.5,2)", g.make_beta(0.5, 2))]


def _traces(model, seed, count, *tag):
    dist = g.SeedDistribution.uniform_by_size(5)
    seeds = [g.sample_seed(dist, model.graph, substream(seed, "seed", *tag, i))
             for i in range(count)]
    rngs = [substream(seed, "sim", *tag, i) for i in range(count)]
    return g.simulate_traces(model, seeds, rngs)


def cli_chain_set(seed):
    graph = g.generate_cws(80, 6, 0.2, substream(seed, "graph"))
    weights = g.sample_weights_simplex(graph, 1.0, substream(seed, "weights"))
    model = g.GltModel(graph, weights, g.make_beta(1, 3))
    return graph, _traces(model, seed, 300)


def im_study_set(seed):
    graph = g.generate_cws(16, 4, 0.2, substream(seed, "graph", "im", 0))
    beta_rng = substream(seed, "beta", 0)
    specs = [g.make_beta(1, int(beta_rng.choice(range(1, 6)))) for _ in range(graph.n)]
    weights = g.sample_weights_simplex(graph, 1.0, substream(seed, "weights", "im", 0))
    model = g.GltModel(graph, weights, specs)
    return graph, _traces(model, seed, 300, "im", 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for name, build in (("cli-chain", cli_chain_set), ("im-study", im_study_set)):
        graph, traces = build(args.seed)
        datasets = g.build_all_node_data(traces, graph, validate=False)
        for label, spec in SPECS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the non-log-concave warning
                fits = g.fit_all(datasets, spec)
            for v, fit in fits.items():
                if not fit.estimated:
                    print(name, v, label, "error", repr(fit.error))
                    continue
                weights = ",".join(float(w).hex() for w in fit.weights)
                print(name, v, label, weights, repr(fit.loglik), fit.iterations,
                      fit.converged, repr(fit.projected_gradient_norm))


if __name__ == "__main__":
    main()
