"""Uncertainty quantification for fitted weights.

Observed-information covariance, Wald intervals for edge weights, a test
of equal parent influence, and delta-method intervals for next-step
activation probabilities.
"""

import numpy as np

import gltnet as g
from gltnet.rng import substream

ROOT = 555

graph = g.generate_cws(25, 4, 0.2, substream(ROOT, "graph"))
weights = g.sample_weights_simplex(graph, 1.0, substream(ROOT, "weights"))
model = g.from_lt(graph, weights)
seed_dist = g.SeedDistribution.uniform_by_size(5)
traces = [
    g.simulate_trace(
        model,
        g.sample_seed(seed_dist, graph, substream(ROOT, "seed", i)),
        substream(ROOT, "sim", i),
    )
    for i in range(2000)
]

# node rows are built once and shared by the fit and the covariance
datasets = g.build_all_node_data(traces, graph)
fits = g.fit_all(datasets, g.make_uniform())

# pick an interior-estimate node with a healthy sample size
node = max(
    (f for f in fits.values() if f.estimated and not f.at_boundary),
    key=lambda f: f.n_obs,
)
cov = g.node_covariance(datasets[node.node], node.weights, node.spec)
print(f"node {node.node} (parents {node.parents}, N_v={node.n_obs})")
print("smallest information eigenvalue:", cov.min_eigenvalue)

intervals = g.weight_intervals(node, cov, level=0.95)
print("\n95% confidence intervals vs the truth:")
for u, b_hat, interval in zip(node.parents, node.weights, intervals):
    truth = model.theta(node.node)[list(node.parents).index(u)]
    inside = "covers" if interval.contains(truth) else "misses"
    print(f"  edge ({u} -> {node.node}): {b_hat:.3f} "
          f"[{interval.lower:.3f}, {interval.upper:.3f}]  truth {truth:.3f} ({inside})")

u, w = node.parents[0], node.parents[1]
z, p = g.weight_difference_test(node, cov, u, w)
print(f"\nequal-influence test for parents {u} and {w}: z = {z:.2f}, p = {p:.3f}")

# delta-method interval for the activation probability when all of the
# node's parents are seeded together
history = g.Trace([set(node.parents)])
point, interval = g.activation_probability_interval(
    node, cov, graph, history, t=1, level=0.95
)
true_p = g.transition_probability(model, history, node.node, 1)
print(f"activation probability at t=1: {point:.3f} "
      f"[{interval.lower:.3f}, {interval.upper:.3f}]  truth {true_p:.3f}")

# boundary estimates invalidate the normal approximation and are flagged
boundary = [f.node for f in fits.values() if f.estimated and f.at_boundary]
print(f"\nnodes flagged boundary-unreliable: {boundary}")
