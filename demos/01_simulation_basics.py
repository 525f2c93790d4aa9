"""Building diffusion models and simulating propagation traces.

A walk through the core objects: directed graphs with canonical edge order,
threshold specs, the classic linear-threshold and independent-cascade models
as special cases, forward simulation, and exact trace probabilities.
"""

import numpy as np

import gltnet as g

rng = np.random.default_rng(7)

# A bidirected triangle; edges are stored sorted by (child, parent), so a
# weight vector always lines up the same way no matter the input order.
triangle = g.build_graph(3, [(0, 1), (1, 0), (2, 0), (2, 1), (0, 2), (1, 2)])
print("canonical edge order:", triangle.edges)

# The linear-threshold model is the uniform-threshold member of the family.
path = g.build_graph(3, [(0, 1), (1, 2)])
lt = g.from_lt(path, [0.5, 0.4])
print("\nLT on the path 0 -> 1 -> 2 with weights (0.5, 0.4)")
print("P(1 activates at t=1 | seed {0}) =",
      g.transition_probability(lt, g.Trace([{0}]), 1, 1))

# Independent cascade embeds with unit-exponential thresholds and
# b = -log(1 - p): transition probabilities match the IC product form.
ic = g.from_ic(path, [0.5, 0.5])
print("IC p=0.5 becomes weight", ic.weights[0], "= ln 2")

# Exact machinery: enumerate all feasible traces and their probabilities.
print("\nfeasible traces from seed {0} and their probabilities:")
total = 0.0
for trace in g.enumerate_feasible_traces(path, {0}):
    p = np.exp(g.trace_log_probability(lt, trace))
    total += p
    print(f"  {trace}: {p:.4f}")
print("sum of probabilities:", total)
print("exact expected spread from {0}:", g.exact_spread(lt, {0}))

# Forward simulation draws each node's threshold once per run.
print("\nthree simulated traces:")
for trace in g.simulate_traces(lt, [{0}] * 3, [rng] * 3):
    print(" ", trace)

# A heterogeneous model: per-node beta thresholds tilt how easily nodes
# accept influence; beta(1, 3) nodes are easy, beta(3, 1) nodes are hard.
specs = [g.make_beta(1, 3), g.make_beta(3, 1), g.make_uniform()]
hetero = g.GltModel(triangle, np.full(6, 0.45), specs)
sizes = [len(t.active(t.horizon)) for t in g.simulate_traces(hetero, [{0}] * 2000, [rng] * 2000)]
print("\nheterogeneous triangle, mean final size from seed {0}:", np.mean(sizes))
print("exact value:", g.exact_spread(hetero, {0}))
