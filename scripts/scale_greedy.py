"""Time greedy Monte Carlo seed selection and MC spread on large graphs.

CWS graphs with k=8, beta(1, 3) thresholds and d_max 0.5: greedy MC with
budget 1 and 50 replicates at n=2,000, and `estimate_spread_mc` of a
10-node seed set with 1,000 replicates at n=10,000.  Run from the root of a
checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/scale_greedy.py

It uses only the public API, so it runs unchanged on older checkouts.  Each
stage is timed once per repeat and the fastest of 3 repeats is printed.
"""

import time

import gltnet as g
from gltnet.rng import substream

GREEDY_N, SPREAD_N, K, REPEATS = 2000, 10_000, 8, 3


def best_of(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def cws_model(n, name):
    graph = g.generate_cws(n, K, 0.2, substream(7, name, "graph"))
    weights = g.sample_weights_simplex(graph, 0.5, substream(7, name, "weights"))
    return g.GltModel(graph, weights, g.make_beta(1, 3))


def main():
    model = cws_model(GREEDY_N, "greedy")
    greedy_s, solution = best_of(lambda: g.greedy_im(model, 1, "mc", 11, replicates=50))
    print(f"greedy_im mc      {greedy_s:7.3f} s  (n={GREEDY_N}, budget 1, R=50; "
          f"seeds {list(solution.seeds)}, gain {solution.gains[0]!r})")
    model = cws_model(SPREAD_N, "spread")
    seeds = sorted(int(v) for v in substream(7, "seeds").choice(SPREAD_N, 10, replace=False))
    spread_s, est = best_of(lambda: g.estimate_spread_mc(model, seeds, 1000, 13))
    print(f"estimate_spread_mc {spread_s:6.3f} s  (n={SPREAD_N}, R=1000; "
          f"mean {est.mean!r}, se {est.std_error!r})")


if __name__ == "__main__":
    main()
