"""Print one fingerprint line per model for the closure kernel's three users.

Models: CWS graphs with k=4 and d_max 0.9 at n in {10, 80, 300}, under
uniform, exponential and beta(2, 2) thresholds, and under mixed thresholds
drawn per node from those three and beta(1, 3) (one cdf call per spec group
each round).  Each line holds the model, the float.hex of the mean and
standard error of `estimate_spread_mc` (R=3,000, one 3-node seed set), the
float.hex of each `greedy_im(..., "mc")` gain at budget 3 (R=150) with its
seeds and spread, and the sha256 of 1,500 `simulate_traces` traces from
seed sets of 1-3 nodes.  The replicate and trace counts span several
closure batches at every n.  Run from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/closure_fingerprint.py --seed 7

It uses only the public API, so it runs unchanged on older checkouts; an
empty diff of its output at two commits shows that a change to the closure
kernel or its batching kept every bit.
"""

import argparse
import hashlib

import gltnet as g
from gltnet.rng import substream

SIZES = [10, 80, 300]
SPECS = {
    "uniform": g.make_uniform(),
    "exponential": g.make_exponential_unit(),
    "beta(2,2)": g.make_beta(2, 2),
}
MIXED = [*SPECS.values(), g.make_beta(1, 3)]
SPREAD_R, GREEDY_R, BUDGET, TRACES = 3000, 150, 3, 1500


def _model(seed, n, label):
    graph = g.generate_cws(n, 4, 0.2, substream(seed, "graph", n))
    weights = g.sample_weights_simplex(graph, 0.9, substream(seed, "weights", n))
    if label == "mixed":
        rng = substream(seed, "specs", n)
        specs = [MIXED[int(i)] for i in rng.integers(0, len(MIXED), n)]
    else:
        specs = SPECS[label]
    return g.GltModel(graph, weights, specs)


def _trace_digest(model, seed, n):
    dist = g.SeedDistribution.uniform_by_size(3)
    seeds = [g.sample_seed(dist, model.graph, substream(seed, "seed", n, i)) for i in range(TRACES)]
    rngs = [substream(seed, "sim", n, i) for i in range(TRACES)]
    traces = g.simulate_traces(model, seeds, rngs)
    text = "\n".join(";".join(",".join(map(str, sorted(step))) for step in t.steps) for t in traces)
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    for n in SIZES:
        for label in [*SPECS, "mixed"]:
            model = _model(seed, n, label)
            est = g.estimate_spread_mc(model, {0, n // 3, n // 2}, SPREAD_R, substream(seed, "spread", n))
            im = g.greedy_im(model, BUDGET, "mc", seed, replicates=GREEDY_R)
            gains = ",".join(float.hex(x) for x in im.gains)
            print(f"n={n} {label} spread {est.mean.hex()} {est.std_error.hex()} "
                  f"greedy {list(im.seeds)} {gains} {im.spread.mean.hex()} {im.spread.std_error.hex()} "
                  f"traces {_trace_digest(model, seed, n)}")


if __name__ == "__main__":
    main()
