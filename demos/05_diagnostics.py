"""Structural diagnostics: identifiability, submodularity, model relations.

The star graph shows how the seed distribution decides whether individual
parent weights are recoverable at all; a non-concave threshold cdf breaks
the diminishing-returns property greedy optimization relies on; and the
triggering-set embedding solver certifies that threshold models are not a
subclass of triggering models.
"""

import numpy as np

import gltnet as g

# identifiability on the 2-star: seeding both parents together only ever
# reveals the SUM of the two weights
star = g.build_graph(3, [(0, 2), (1, 2)])
point_mass = g.SeedDistribution.explicit([({0, 1}, 1.0)])
report = g.check_identifiability(star, point_mass)
node = report.nodes[2]
print("seeds always {0, 1}:", node.verdict,
      f"(rank {node.rank} of {len(node.parents)})")

richer = g.SeedDistribution.explicit([({0}, 0.5), ({0, 1}, 0.5)])
node = g.check_identifiability(star, richer).nodes[2]
print("seeds {0} or {0, 1}:", node.verdict)
print("  witness subsets:", [sorted(s) for s in node.witnesses])
print("  incidence matrix:", node.matrix, "determinant:", node.determinant)

# an unreachable parent leaves a zero row, no matter the seeds
unreachable = g.build_graph(3, [(0, 1), (2, 1)])
node = g.check_identifiability(unreachable, g.SeedDistribution.explicit([({0}, 1.0)])).nodes[1]
print("unreachable parent:", node.verdict)

# submodularity holds whenever every threshold cdf is concave; a convex
# region (beta(2, 1): F(x) = x^2) admits engineered violations
concave = g.GltModel(
    g.build_graph(4, [(0, 3), (1, 3), (2, 3)]),
    np.array([0.1, 0.4, 0.3]),
    g.make_beta(1, 2),
)
print("\nconcave-cdf star violations:", len(g.check_submodularity_exact(concave)))

convex = g.GltModel(concave.graph, concave.weights, g.make_beta(2, 1))
violations = g.check_submodularity_exact(convex)
print("beta(2, 1) star violations:", len(violations))
worst = max(violations, key=lambda v: v.magnitude)
print(f"  e.g. adding node {worst.node}: gain {worst.gain_at_subset:.2f} at "
      f"{sorted(worst.subset)} but {worst.gain_at_superset:.2f} at {sorted(worst.superset)}")
print("monotonicity violations (always none):", len(g.check_monotonicity_exact(convex)))

# the cdf-concavity flags decide this analytically per family
for spec in (g.make_uniform(), g.make_exponential_unit(), g.make_beta(1, 2), g.make_beta(2, 1)):
    print(f"  concave cdf? {spec!r}: {spec.concave_cdf}")

# a threshold model a triggering model cannot express: the solved
# triggering-set masses include a negative entry
def stepped_cdf(x):
    table = {0.0: 0.0, 1 / 3: 0.5, 2 / 3: 0.85, 1.0: 1.0}
    for key, val in table.items():
        if abs(x - key) < 1e-9:
            return val
    raise ValueError(x)

emb = g.solve_triggering_embedding([1 / 3, 1 / 3, 1 / 3], stepped_cdf)
print("\ntriggering embedding masses:")
for subset in sorted(emb.probabilities, key=lambda s: (len(s), sorted(s))):
    print(f"  P{sorted(subset)} = {emb.probabilities[subset]:+.3f}")
print("feasible as a distribution:", emb.feasible)
