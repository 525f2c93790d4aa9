"""Time and size trace simulation and MC spread at scale, one stage per process.

CWS graphs with k=8, beta(1, 3) thresholds and d_max 0.5, built as
`scripts/scale_rows.py` builds them.  The stages:

- `sim1500`, `sim3000`: `simulate_traces` of 20,000 traces from seed sets
  of 1-5 nodes at n=1,500 and n=3,000;
- `spread3000`: `estimate_spread_mc` of a 10-node seed set with 16,384
  replicates at n=3,000.

Each stage runs once, in its own process, so its peak RSS (`ru_maxrss`) is
its own; it includes the set-up (graph, seed sets, Generators).  A line
gives the stage, its wall time, its peak RSS and a digest: the sha256 of the
traces, or the float.hex of the spread's mean and standard error.  Run from
the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/scale_sim.py            # every stage
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/scale_sim.py --stage sim3000

It uses only the public API, so it runs unchanged on older checkouts; the
digests must match between two commits whose outputs should not differ.
Before closure batches were bounded by elements, the n=3,000 simulate stage
took 49-57 s and 2.4 GB on 2 cores, so run older checkouts on a machine with
that much memory to spare.
"""

import argparse
import hashlib
import resource
import subprocess
import sys
import time

import gltnet as g
from gltnet.rng import substream

K, TRACES, SPREAD_R = 8, 20_000, 16_384
STAGES = {"sim1500": 1500, "sim3000": 3000, "spread3000": 3000}


def cws_model(n):
    graph = g.generate_cws(n, K, 0.2, substream(7, "graph", n))
    weights = g.sample_weights_simplex(graph, 0.5, substream(7, "weights", n))
    return g.GltModel(graph, weights, g.make_beta(1, 3))


def simulate(model):
    dist = g.SeedDistribution.uniform_by_size(5)
    seeds = [g.sample_seed(dist, model.graph, substream(7, "seed", i)) for i in range(TRACES)]
    rngs = [substream(7, "sim", i) for i in range(TRACES)]
    start = time.perf_counter()
    traces = g.simulate_traces(model, seeds, rngs)
    wall = time.perf_counter() - start
    text = "\n".join(";".join(",".join(map(str, sorted(step))) for step in t.steps) for t in traces)
    return wall, f"{TRACES} traces sha256 {hashlib.sha256(text.encode()).hexdigest()}"


def spread(model):
    seeds = sorted(int(v) for v in substream(7, "seeds").choice(model.graph.n, 10, replace=False))
    start = time.perf_counter()
    est = g.estimate_spread_mc(model, seeds, SPREAD_R, 13)
    wall = time.perf_counter() - start
    return wall, f"R={SPREAD_R} mean {est.mean.hex()} se {est.std_error.hex()}"


def run_stage(stage):
    model = cws_model(STAGES[stage])
    wall, digest = (spread if stage.startswith("spread") else simulate)(model)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{stage:10s} n={model.graph.n:5d} {wall:8.2f} s {peak_mb:8.1f} MB  {digest}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", choices=sorted(STAGES), help="run one stage here (default: each in its own process)")
    stage = parser.parse_args().stage
    if stage:
        run_stage(stage)
        return
    for stage in STAGES:
        subprocess.run([sys.executable, __file__, "--stage", stage], check=True)


if __name__ == "__main__":
    main()
