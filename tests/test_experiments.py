import numpy as np
import pytest

import gltnet
from gltnet import experiments
from gltnet.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    run_activation_prediction,
    run_ci_coverage,
    run_experiment,
    run_rmae_vs_n,
    run_rmae_vs_traces,
    run_spread_comparison,
)
from gltnet.graph import generate_cws, sample_weights_simplex
from gltnet.rng import substream

from conftest import count_calls


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(seed=None)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, n=0)
    with pytest.raises(ValueError):
        run_experiment("no-such-study", ExperimentConfig(seed=1))


def test_rmae_vs_traces_rows_and_reproducibility():
    cfg = ExperimentConfig(
        seed=210, n=12, k=2, replications=2, trace_counts=(80, 240), d_max_grid=(1.0,)
    )
    rows, summary = run_rmae_vs_traces(cfg)
    assert len(rows) == 2 * 2
    assert {r["n_traces"] for r in rows} == {80, 240}
    # aggregates are recomputable from the raw rows
    by_count = {s["n_traces"]: s for s in summary}
    for count in (80, 240):
        values = [r["rmae"] for r in rows if r["n_traces"] == count]
        assert by_count[count]["mean"] == pytest.approx(np.mean(values))
        assert by_count[count]["median"] == pytest.approx(np.median(values))
    rows2, _ = run_rmae_vs_traces(cfg)
    assert rows == rows2


def test_rmae_vs_n_structure():
    cfg = ExperimentConfig(
        seed=211, replications=1, n_traces=150, size_grid=((12, 2), (16, 4))
    )
    rows, summary = run_rmae_vs_n(cfg)
    assert [(r["n"], r["k"]) for r in rows] == [(12, 2), (16, 4)]
    assert all(r["rmae"] > 0 for r in rows)
    assert len(summary) == 2


def test_ci_coverage_runner():
    cfg = ExperimentConfig(seed=212, n=15, k=4, replications=2, n_traces=500)
    rows, summary = run_ci_coverage(cfg)
    agg = summary[0]
    assert agg["node_replications"] > 0
    assert 0.7 <= agg["coverage"] <= 1.0
    interior_total = sum(r["weights_total"] for r in rows if r["interior"])
    assert interior_total == agg["weights_total"]


def test_activation_prediction_misspecification_ordering():
    # ground truth beta(2,1); the well-specified candidate wins on error and
    # holds near-nominal coverage, while at least one misspecified family is
    # materially below it
    cfg = ExperimentConfig(seed=201, n=40, k=4, replications=2, n_traces=600, n_test=120, s_max=8)
    rows, _ = run_activation_prediction(cfg)
    pooled = {}
    for name in ("beta-2-1", "beta-3-1", "uniform", "exponential"):
        sub = [r for r in rows if r["candidate"] == name]
        pooled[name] = {
            "rmae": np.mean([r["rmae"] for r in sub]),
            "coverage": np.mean([r["coverage"] for r in sub]),
        }
    true_model = pooled["beta-2-1"]
    for name in ("beta-3-1", "uniform", "exponential"):
        assert true_model["rmae"] < pooled[name]["rmae"], pooled
    assert abs(true_model["coverage"] - 0.95) <= 0.05, pooled
    worst = min(pooled[n]["coverage"] for n in ("beta-3-1", "uniform", "exponential"))
    assert worst < true_model["coverage"] - 0.05, pooled


def test_spread_comparison_truth_best_and_bias_directions():
    cfg = ExperimentConfig(
        seed=202, n=30, k=4, replications=2, n_traces=600, n_test=60,
        eval_replicates=800, s_max=8,
    )
    rows, _ = run_spread_comparison(cfg)
    pooled = {}
    for name in ("beta-2-2", "beta-1-2", "beta-2-1", "uniform"):
        sub = [r for r in rows if r["candidate"] == name]
        pooled[name] = {
            "rmae": np.mean([r["rmae"] for r in sub]),
            "bias": np.mean([r["mean_bias"] for r in sub]),
        }
    # the well-specified model estimates spread best
    assert pooled["beta-2-2"]["rmae"] == min(p["rmae"] for p in pooled.values())
    # easy-to-influence misspecification overestimates, hard-to-influence
    # underestimates
    assert pooled["beta-1-2"]["bias"] > 0
    assert pooled["beta-2-1"]["bias"] < 0


def test_all_experiments_are_registered():
    assert set(EXPERIMENTS) == {
        "rmae-vs-n",
        "rmae-vs-traces",
        "ci-coverage",
        "activation-prediction",
        "im-comparison",
        "spread-comparison",
    }


def test_fit_candidates_build_rows_once_per_node(monkeypatch):
    # per replication, the grid, LT and IC fits share one row build per child
    # node, and the rows and the PTP scores share one activation-round table;
    # one grid, one LT and one IC call fit both replications
    config = ExperimentConfig(seed=212, n=10, k=2, n_traces=60, beta_grid=(1, 2))
    studies = []
    for rep in range(2):
        graph = generate_cws(config.n, config.k, config.p, substream(212, "g", rep))
        weights = sample_weights_simplex(graph, 1.0, substream(212, "w", rep))
        truth = gltnet.GltModel(graph, weights, gltnet.make_beta(1, 2))
        studies.append((truth, experiments._simulate_traces(config, truth, config.n_traces, rep)))
    tables = count_calls(monkeypatch, gltnet.model._activation_rounds)
    builds = count_calls(monkeypatch, gltnet.likelihood._node_rows)
    grids = count_calls(monkeypatch, gltnet.estimation.fit_with_threshold_grid)
    fits = count_calls(monkeypatch, gltnet.estimation.fit_all)
    candidates = experiments._fit_candidates(config, studies)
    assert len(candidates) == 2 and len(grids) == 1 and len(fits) == 2
    assert [call["traces"] for call in tables] == [traces for _, traces in studies]
    for rep, (truth, _) in enumerate(studies):
        assert set(candidates[rep]) == {"glt", "lt", "ic", "wc", "ptp"}
        assert all(model.graph is truth.graph for model in candidates[rep].values())
    assert [call["v"] for call in builds] == studies[0][0].graph.child_nodes() + studies[1][0].graph.child_nodes()
