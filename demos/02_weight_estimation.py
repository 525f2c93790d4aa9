"""Estimating edge weights from observed traces.

Generates a connected small-world network, samples ground-truth weights
uniformly from per-node simplices, simulates trace collections of growing
size, and fits each child node by constrained maximum likelihood.  The
relative error shrinks at the root-N rate; the weighted-cascade and
propagated-trace-proportion heuristics are shown for contrast.
"""

import numpy as np

import gltnet as g
from gltnet.metrics import rmae
from gltnet.rng import substream

ROOT = 2024

graph = g.generate_cws(30, 4, 0.2, substream(ROOT, "graph"))
weights = g.sample_weights_simplex(graph, 1.0, substream(ROOT, "weights"))
model = g.from_lt(graph, weights)
seed_dist = g.SeedDistribution.uniform_by_size(5)

traces = []
for i in range(4000):
    seed = g.sample_seed(seed_dist, graph, substream(ROOT, "seed", i))
    traces.append(g.simulate_trace(model, seed, substream(ROOT, "sim", i)))


def estimate(trace_subset, spec):
    fits = g.fit_all(g.build_all_node_data(trace_subset, graph), spec)
    est = np.zeros(graph.edge_count())
    for v, fit in fits.items():
        if fit.estimated:
            est[graph.child_slice(v)] = fit.weights
    return est, fits


print("maximum-likelihood error by number of traces:")
for count in (250, 1000, 4000):
    est, fits = estimate(traces[:count], g.make_uniform())
    converged = sum(f.converged for f in fits.values() if f.estimated)
    print(f"  N={count:5d}  RMAE={rmae(weights, est):.4f}  "
          f"({converged}/{len(fits)} certificates at 1e-8)")

print("\nheuristic baselines on the same 4000 traces:")
print(f"  WC   RMAE={rmae(weights, g.baseline_wc(graph)):.4f}")
print(f"  PTP  RMAE={rmae(weights, g.baseline_ptp(traces, graph)):.4f}")

# Threshold parameters can be selected by a likelihood grid search when the
# family is known but its parameters are not.
truth_beta = g.GltModel(graph, weights, g.make_beta(1, 3))
beta_traces = [
    g.simulate_trace(
        truth_beta,
        g.sample_seed(seed_dist, graph, substream(ROOT, "bseed", i)),
        substream(ROOT, "bsim", i),
    )
    for i in range(2000)
]
grid = tuple((1, b) for b in range(1, 6))
beta_rows = g.build_all_node_data(beta_traces, graph)  # shared by every candidate
pooled = {}
for alpha, beta in grid:
    spec = g.make_beta(alpha, beta)
    fits = g.fit_all(beta_rows, spec)
    pooled[beta] = sum(f.loglik for f in fits.values() if f.estimated)
best = max(pooled, key=lambda b: pooled[b])
print("\npooled log-likelihood by candidate beta (truth: beta(1, 3)):")
for beta, value in pooled.items():
    marker = "  <-- selected" if beta == best else ""
    print(f"  beta(1, {beta}): {value:10.1f}{marker}")
