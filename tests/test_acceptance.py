"""End-to-end acceptance suite.

One test per criterion; each prints a single pass line (visible with -s or
in captured output) after its assertions hold at the stated tolerance.
Monte Carlo designs and pass thresholds were confirmed against development
runs before being frozen here; all randomness is derived from fixed root
seeds, so the suite is reproducible.
"""

import json
import os
import time

import numpy as np
import pytest

import gltnet as g
from gltnet.cli import main as cli_main
from gltnet.estimation import FitOptions, fit_node
from gltnet.experiments import (
    ExperimentConfig,
    run_im_comparison,
    run_rmae_vs_traces,
)
from gltnet.metrics import rmae
from gltnet.rng import substream

from conftest import (
    dense_grid_argmax,
    ic_trace_probability,
    parent_subset_seed_distribution,
    random_simple_digraph,
    random_weights_within,
    staggered_fit_graph,
)


def _report(number, text):
    print(f"[criterion {number:2d}] PASS {text}")


def _simulate_collection(model, dist, count, root, *labels):
    seed_sets = [
        g.sample_seed(dist, model.graph, substream(root, "seed", *labels, i)) for i in range(count)
    ]
    return g.simulate_traces(model, seed_sets, [substream(root, "sim", *labels, i) for i in range(count)])


def _lt_fit_rmae(root, rep, counts, n=30, k=4):
    graph = g.generate_cws(n, k, 0.2, substream(root, "graph", rep))
    weights = g.sample_weights_simplex(graph, 1.0, substream(root, "w", rep))
    model = g.from_lt(graph, weights)
    dist = g.SeedDistribution.uniform_by_size(5)
    traces = _simulate_collection(model, dist, max(counts), root, rep)
    out = {}
    for count in counts:
        fits = g.fit_all(g.build_all_node_data(traces[:count], graph), g.make_uniform())
        est = np.zeros(graph.edge_count())
        for v, fit in fits.items():
            if fit.estimated:
                est[graph.child_slice(v)] = fit.weights
        out[count] = rmae(weights, est)
    return out


def test_criterion_01_ic_glt_equivalence():
    start = time.time()
    for rep in range(20):
        rng = substream(101, "graph", rep)
        graph = random_simple_digraph(5, 0.4, rng)
        p = rng.uniform(0.1, 0.9, size=graph.edge_count())
        model = g.from_ic(graph, p)
        seed = {0, int(rng.integers(1, 5))}
        worst = 0.0
        for trace in g.enumerate_feasible_traces(graph, seed):
            glt = np.exp(g.trace_log_probability(model, trace))
            direct = ic_trace_probability(graph, p, trace)
            worst = max(worst, abs(glt - direct))
        assert worst < 1e-10, (rep, worst)
    elapsed = time.time() - start
    assert elapsed < 10.0, elapsed
    _report(1, f"IC/GLT trace distributions agree to 1e-10 on 20 graphs ({elapsed:.1f}s)")


def test_criterion_02_normalization():
    families = [g.make_uniform(), g.make_exponential_unit(), g.make_beta(2, 2), g.make_beta(1, 3)]
    for rep in range(20):
        rng = substream(102, "graph", rep)
        n = int(rng.integers(4, 8))
        graph = random_simple_digraph(n, 0.35, rng)
        weights = random_weights_within(graph, substream(102, "w", rep))
        specs = [families[int(x)] for x in substream(102, "f", rep).integers(0, len(families), n)]
        model = g.GltModel(graph, weights, specs)
        seed = {0, min(2, n - 1)}
        total = sum(
            np.exp(g.trace_log_probability(model, t))
            for t in g.enumerate_feasible_traces(graph, seed)
        )
        assert total == pytest.approx(1.0, abs=1e-9), rep
    _report(2, "feasible-trace probabilities sum to 1 +/- 1e-9 on 20 instances")


def test_criterion_03_mle_matches_dense_grid():
    start = time.time()
    graph = staggered_fit_graph()
    dist = parent_subset_seed_distribution()
    cases = [
        ("uniform", g.make_uniform(), FitOptions()),
        ("exponential", g.make_exponential_unit(), FitOptions(gamma=1.0)),
        ("beta22", g.make_beta(2, 2), FitOptions()),
    ]
    nodes_checked = 0
    for family, spec, options in cases:
        for instance in range(6):
            weights = random_weights_within(
                graph, substream(103, "w", family, instance), scale=0.85
            )
            model = g.GltModel(graph, weights, spec)
            traces = _simulate_collection(model, dist, 900, 103, family, instance)
            for v in (1, 2, 3):
                data = g.build_node_data(traces, graph, v, validate=False)
                assert data.n_obs >= 200, (family, instance, v, data.n_obs)
                fit = fit_node(data, spec, options)
                gamma = options.resolve_gamma(spec, len(data.parents))
                oracle = dense_grid_argmax(data, spec, options.epsilon, gamma, 0.005)
                assert np.max(np.abs(fit.weights - oracle)) < 0.01, (
                    family, instance, v, fit.weights, oracle,
                )
                nodes_checked += 1
                if nodes_checked >= 50:
                    break
            if nodes_checked >= 50:
                break
    elapsed = time.time() - start
    assert nodes_checked >= 50
    assert elapsed < 120.0, elapsed
    _report(3, f"{nodes_checked} node fits match the 0.005-step grid within 0.01 ({elapsed:.0f}s)")


def test_criterion_04_consistency_trend():
    start = time.time()
    counts = (250, 1000, 4000)
    errors = {c: [] for c in counts}
    for rep in range(10):
        result = _lt_fit_rmae(104, rep, counts)
        for c in counts:
            errors[c].append(result[c])
    medians = [float(np.median(errors[c])) for c in counts]
    assert medians[0] > medians[1] > medians[2], medians
    assert medians[2] < 0.5 * medians[0], medians
    elapsed = time.time() - start
    assert elapsed < 600.0, elapsed
    _report(
        4,
        f"median RMAE {medians[0]:.3f} > {medians[1]:.3f} > {medians[2]:.3f}, "
        f"ratio {medians[2] / medians[0]:.2f} < 0.5 ({elapsed:.0f}s)",
    )


def test_criterion_05_ci_coverage():
    start = time.time()
    covered = total = interior = 0
    for rep in range(25):
        graph = g.generate_cws(30, 4, 0.2, substream(105, "graph", rep))
        weights = g.sample_weights_simplex(graph, 1.0, substream(105, "w", rep))
        model = g.from_lt(graph, weights)
        dist = g.SeedDistribution.uniform_by_size(5)
        traces = _simulate_collection(model, dist, 2000, 105, rep)
        datasets = g.build_all_node_data(traces, graph)
        fits = g.fit_all(datasets, g.make_uniform())
        for v, fit in fits.items():
            if not fit.estimated or fit.at_boundary:
                continue
            cov = g.node_covariance(datasets[v], fit.weights, fit.spec)
            if not cov.valid:
                continue
            interior += 1
            for b, interval in zip(model.theta(v), g.weight_intervals(fit, cov, 0.95)):
                total += 1
                covered += int(interval.contains(b))
    coverage = covered / total
    assert interior >= 500, interior
    assert 0.90 <= coverage <= 0.98, coverage
    elapsed = time.time() - start
    assert elapsed < 900.0, elapsed
    _report(
        5,
        f"95% CI coverage {coverage:.3f} over {interior} interior "
        f"node-replications ({elapsed:.0f}s)",
    )


def test_criterion_06_gradient_hessian_finite_differences():
    graph = staggered_fit_graph()
    dist = parent_subset_seed_distribution()
    for spec in (g.make_uniform(), g.make_exponential_unit(), g.make_beta(2, 2)):
        weights = random_weights_within(graph, substream(106, "w", spec.family), scale=0.85)
        model = g.GltModel(graph, weights, spec)
        traces = _simulate_collection(model, dist, 400, 106, spec.family)
        data = g.build_node_data(traces, graph, 3, validate=False)
        gamma = 1.0 - 1e-6 if np.isfinite(spec.support_bound) else 2.0
        rng = substream(106, "points", spec.family)
        for _ in range(20):
            raw = rng.random(3) + 1e-3
            theta = raw / raw.sum() * gamma * rng.uniform(0.2, 0.95)
            grad = g.node_gradient(data, theta, spec)
            hess = g.node_hessian(data, theta, spec)
            step = 1e-6
            for i in range(3):
                plus, minus = theta.copy(), theta.copy()
                plus[i] += step
                minus[i] -= step
                fd_g = (
                    g.node_log_likelihood(data, plus, spec)
                    - g.node_log_likelihood(data, minus, spec)
                ) / (2 * step)
                rel = abs(grad[i] - fd_g) / max(abs(grad[i]), 1.0)
                assert rel < 1e-5, (spec.family, i, rel)
                fd_h = (
                    g.node_gradient(data, plus, spec) - g.node_gradient(data, minus, spec)
                ) / (2 * step)
                rel_h = np.max(np.abs(hess[i] - fd_h)) / max(np.max(np.abs(hess[i])), 1.0)
                assert rel_h < 1e-4, (spec.family, i, rel_h)
    _report(6, "analytic gradients/Hessians match finite differences (rel 1e-5 / 1e-4)")


def test_criterion_07_identifiability_star_cases():
    star = g.build_graph(3, [(0, 2), (1, 2)])
    point = g.SeedDistribution.explicit([({0, 1}, 1.0)])
    assert g.check_identifiability(star, point).nodes[2].verdict == "not-identifiable"
    rich = g.SeedDistribution.explicit([({0}, 0.5), ({0, 1}, 0.5)])
    assert g.check_identifiability(star, rich).nodes[2].verdict == "identifiable"
    unreachable = g.build_graph(3, [(0, 1), (2, 1)])
    only0 = g.SeedDistribution.explicit([({0}, 1.0)])
    assert (
        g.check_identifiability(unreachable, only0).nodes[1].verdict
        == "not-identifiable"
    )
    _report(7, "star and unreachable-parent identifiability verdicts are exact")


def _concave_instance(rep):
    spec = [g.make_uniform(), g.make_exponential_unit(), g.make_beta(1, 2)][rep % 3]
    rng = substream(108, "graph", rep)
    n = int(rng.integers(5, 9))
    graph = random_simple_digraph(n, 0.3, rng)
    weights = random_weights_within(graph, substream(108, "w", rep))
    return g.GltModel(graph, weights, spec)


def test_criterion_08_submodularity():
    for rep in range(20):
        model = _concave_instance(rep)
        assert g.check_submodularity_exact(model) == [], rep
    star = g.build_graph(4, [(0, 3), (1, 3), (2, 3)])
    engineered = g.GltModel(star, np.array([0.1, 0.4, 0.3]), g.make_beta(2, 1))
    violations = g.check_submodularity_exact(engineered)
    assert violations
    _report(
        8,
        f"0 violations on 20 concave instances; {len(violations)} found on the "
        f"engineered beta(2,1) star",
    )


def test_criterion_09_greedy_guarantee():
    bound = 1.0 - 1.0 / np.e
    for rep in range(20):
        model = _concave_instance(rep)
        for k in (1, 2, 3):
            greedy = g.greedy_im(model, k, "exact")
            _, best = g.optimal_seed_set(model, k, "exact")
            assert greedy.spread.mean >= bound * best - 1e-9, (rep, k)
    _report(9, "greedy spread >= (1 - 1/e) * optimum for k in {1,2,3} on all instances")


def test_criterion_10_triggering_counterexample():
    def cdf(x):
        table = {0.0: 0.0, 1 / 3: 0.5, 2 / 3: 0.85, 1.0: 1.0}
        for key, val in table.items():
            if abs(x - key) < 1e-9:
                return val
        raise AssertionError(f"unexpected cdf argument {x}")

    emb = g.solve_triggering_embedding([1 / 3, 1 / 3, 1 / 3], cdf)
    assert emb.mass({0, 1, 2}) == pytest.approx(-0.05, abs=1e-12)
    assert not emb.feasible
    assert emb.negative_sets
    _report(10, "triggering embedding returns P_123 = -0.05 and an infeasibility certificate")


def _random_bipartite_concave(rep):
    rng = substream(111, "inst", rep)
    spec = [g.make_uniform(), g.make_exponential_unit(), g.make_beta(1, 2)][rep % 3]
    n_parents = n_children = 4
    edges = []
    for c in range(n_children):
        child = n_parents + c
        parents = [u for u in range(n_parents) if rng.random() < 0.6]
        if not parents:
            parents = [int(rng.integers(0, n_parents))]
        edges.extend((u, child) for u in parents)
    graph = g.build_graph(n_parents + n_children, edges)
    weights = np.zeros(graph.edge_count())
    for v in range(graph.n):
        m = graph.in_degree(v)
        if m:
            raw = rng.random(m) + 0.05
            weights[graph.child_slice(v)] = raw / raw.sum() * 0.9 * rng.uniform(0.4, 1.0)
    model = g.GltModel(graph, weights, spec)
    noise = rng.uniform(-0.15, 0.15, weights.size)
    est = np.clip(weights + noise, 0.0, None)
    for v in range(graph.n):
        sl = graph.child_slice(v)
        total = est[sl].sum()
        if np.isfinite(spec.support_bound) and total > spec.support_bound:
            est[sl] *= 0.999 * spec.support_bound / total
    return model, model.with_weights(est), float(spec.density(0.0))


def test_criterion_11_im_gap_bound():
    for rep in range(100):
        truth, est, lipschitz = _random_bipartite_concave(rep)
        gap = g.im_solution_gap(truth, est, 2, "bipartite")
        bound = 2.0 * lipschitz * float(np.abs(est.weights - truth.weights).sum())
        assert gap <= bound + 1e-9, (rep, gap, bound)
    _report(11, "IM spread gap <= 2 L ||dtheta||_1 on 100/100 bipartite instances")


def test_criterion_12_bipartite_closed_form():
    for rep in range(20):
        rng = substream(112, "inst", rep)
        edges = []
        for c in range(4):
            child = 4 + c
            parents = [u for u in range(4) if rng.random() < 0.6] or [0]
            edges.extend((u, child) for u in parents)
        graph = g.build_graph(8, edges)
        weights = random_weights_within(graph, substream(112, "w", rep))
        model = g.GltModel(graph, weights, g.make_beta(1, 2))
        seed = {0, 1, int(rng.integers(2, 4))}
        closed = g.spread_bipartite_closed_form(model, seed)
        exact = g.exact_spread(model, seed)
        assert closed == pytest.approx(exact, abs=1e-9), rep
    _report(12, "bipartite closed form matches exact enumeration to 1e-9 on 20 instances")


def test_criterion_13_threshold_grid_selection():
    hits = 0
    for rep in range(10):
        graph = g.generate_cws(30, 4, 0.2, substream(113, "graph", rep))
        weights = g.sample_weights_simplex(graph, 1.0, substream(113, "w", rep))
        truth = g.GltModel(graph, weights, g.make_beta(1, 3))
        dist = g.SeedDistribution.uniform_by_size(5)
        traces = _simulate_collection(truth, dist, 2000, 113, rep)
        datasets = {
            v: g.build_node_data(traces, graph, v, validate=False)
            for v in graph.child_nodes()
        }
        pooled = {}
        for beta in range(1, 6):
            spec = g.make_beta(1, beta)
            pooled[beta] = sum(
                fit_node(data, spec, FitOptions()).loglik
                for data in datasets.values()
                if data.n_informative_rows
            )
        selected = max(pooled, key=lambda b: pooled[b])
        # selection is the grid argmax by construction; check it recovered
        assert pooled[selected] >= max(pooled.values()) - 1e-12
        hits += int(selected == 3)
    assert hits >= 6, hits  # majority; development runs recovered 10/10
    _report(13, f"grid-selected beta = 3 in {hits}/10 replications")


def test_criterion_14_experiment_directions():
    config = ExperimentConfig(
        seed=114,
        n=30,
        k=4,
        replications=4,
        trace_counts=(500, 2000),
        d_max_grid=(0.2, 1.0),
    )
    rows, summary = run_rmae_vs_traces(config)
    means = {(s["d_max"], s["n_traces"]): s["mean"] for s in summary}
    for count in (500, 2000):
        assert means[(0.2, count)] > means[(1.0, count)], means
    im_config = ExperimentConfig(
        seed=77,
        n=50,
        k=4,
        replications=3,
        n_traces=1000,
        budgets=(13,),
        beta_grid=(1, 2, 3, 4, 5),
        mc_replicates=200,
        eval_replicates=2000,
    )
    _, im_summary = run_im_comparison(im_config)
    spread = {s["model"]: s["mean"] for s in im_summary}
    assert spread["glt"] >= spread["lt"], spread
    assert spread["glt"] >= spread["wc"], spread
    assert spread["glt"] >= spread["ptp"], spread
    _report(
        14,
        f"RMAE rises as d_max falls; k=13 spreads glt {spread['glt']:.1f} >= "
        f"lt {spread['lt']:.1f}, wc {spread['wc']:.1f}, ptp {spread['ptp']:.1f}",
    )


def test_criterion_15_cli_determinism(tmp_path):
    base = str(tmp_path)

    def run(argv):
        assert cli_main(argv) == 0

    def digest(path):
        with open(path, "rb") as fh:
            return fh.read()

    outputs = {}
    for tag, threads in (("a", "1"), ("b", "4")):
        d = os.path.join(base, tag)
        os.makedirs(d)
        model = os.path.join(d, "model.json")
        graphp = os.path.join(d, "graph.json")
        traces = os.path.join(d, "traces.jsonl")
        fit = os.path.join(d, "fit.json")
        infer = os.path.join(d, "infer.json")
        diag = os.path.join(d, "diag.json")
        im = os.path.join(d, "im.json")
        spread = os.path.join(d, "spread.json")
        expdir = os.path.join(d, "exp")
        run(["generate", "--n", "14", "--k", "4", "--p", "0.2", "--seed", "9",
             "--out", model, "--graph-out", graphp])
        run(["simulate", "--model", model, "--count", "60", "--seed", "10", "--out", traces])
        run(["fit", "--model", model, "--traces", traces, "--threads", threads, "--out", fit])
        run(["infer", "--model", model, "--traces", traces, "--threads", threads, "--out", infer])
        run(["diagnose", "--graph", graphp, "--s-max", "1", "--out", diag])
        run(["im", "--model", model, "--k", "3", "--replicates", "300", "--seed", "11", "--out", im])
        run(["spread", "--model", model, "--seed-set", "0,1", "--replicates", "400",
             "--seed", "12", "--out", spread])
        cfg = os.path.join(d, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"replications": 1, "trace_counts": [50], "d_max_grid": [1.0],
                       "n": 10, "k": 2}, fh)
        run(["experiment", "--experiment", "rmae-vs-traces", "--seed", "13",
             "--config", cfg, "--threads", threads, "--out-dir", expdir])
        outputs[tag] = {
            name: digest(path)
            for name, path in [
                ("model", model), ("graph", graphp), ("traces", traces),
                ("fit", fit), ("infer", infer), ("diag", diag), ("im", im),
                ("spread", spread),
                ("rows", os.path.join(expdir, "rmae-vs-traces_rows.csv")),
                ("summary", os.path.join(expdir, "rmae-vs-traces_summary.csv")),
            ]
        }
    assert outputs["a"] == outputs["b"]
    _report(15, "all CLI primary outputs byte-identical across reruns and thread counts")
