"""Time row building and PTP scoring on one large trace set.

CWS graph with n=300 and k=8, beta(1, 3) thresholds, d_max 0.5, and 5,000
traces from seed sets of 1-5 nodes.  Run from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/scale_rows.py

It uses only the public API, so it runs unchanged on older checkouts.  Each
stage is timed once per repeat and the fastest of 3 repeats is printed.
"""

import time

import gltnet as g
from gltnet.rng import substream

N, K, TRACES, REPEATS = 300, 8, 5000, 3


def best_of(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def main():
    graph = g.generate_cws(N, K, 0.2, substream(7, "graph"))
    weights = g.sample_weights_simplex(graph, 0.5, substream(7, "weights"))
    model = g.GltModel(graph, weights, g.make_beta(1, 3))
    dist = g.SeedDistribution.uniform_by_size(5)
    seeds = [g.sample_seed(dist, graph, substream(7, "seed", i)) for i in range(TRACES)]
    rngs = [substream(7, "sim", i) for i in range(TRACES)]
    start = time.perf_counter()
    traces = g.simulate_traces(model, seeds, rngs)
    print(f"simulate_traces      {time.perf_counter() - start:7.3f} s  ({TRACES} traces)")
    rows_s, datasets = best_of(lambda: g.build_all_node_data(traces, graph, validate=False))
    total_rows = sum(d.n_obs for d in datasets.values())
    print(f"build_all_node_data  {rows_s:7.3f} s  ({total_rows} rows, {len(datasets)} nodes)")
    ptp_s, _ = best_of(lambda: g.baseline_ptp(traces, graph))
    print(f"baseline_ptp         {ptp_s:7.3f} s")


if __name__ == "__main__":
    main()
