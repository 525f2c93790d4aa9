"""Synthetic-study harness: trace generation, fitting, and comparisons.

Each experiment emits per-replication raw rows plus aggregate summaries
(mean with a two-standard-error half-width), both as lists of plain dicts
so the command-line layer can write CSV.  All randomness is derived from
the config's root seed through named substreams; rerunning a config
reproduces every row bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimation import (
    _ptp_weights,
    baseline_wc,
    fit_all,
    fit_with_threshold_grid,
)
from .graph import SeedDistribution, generate_cws, sample_seed, sample_weights_simplex
from .inference import _covariances, activation_probability_interval, weight_intervals
from .likelihood import _node_rows, build_all_node_data
from .metrics import rmae
from .model import (
    NEVER,
    GltModel,
    Trace,
    _activation_rounds,
    simulate_traces,
    transition_probability,
)
from .influence import estimate_spread_mc, greedy_im
from .rng import substream
from .thresholds import (
    make_beta,
    make_exponential_unit,
    make_uniform,
    spec_from_dict,
)

__all__ = ["ExperimentConfig", "EXPERIMENTS", "run_experiment"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the synthetic studies; the root seed is mandatory."""

    seed: int
    n: int = 30
    k: int = 4
    p: float = 0.2
    d_max: float = 1.0
    s_max: int = 5
    family: dict = field(default_factory=lambda: {"family": "uniform"})
    replications: int = 10
    n_traces: int = 2000
    trace_counts: tuple = (250, 1000, 4000)
    d_max_grid: tuple = (0.2, 0.6, 1.0)
    size_grid: tuple = ((30, 4), (50, 6), (80, 8))
    budgets: tuple = (1, 4, 7, 10, 13)
    beta_grid: tuple = (1, 2, 3, 4, 5)
    mc_replicates: int = 400
    eval_replicates: int = 2000
    n_test: int = 200
    level: float = 0.95

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("a root seed is mandatory")
        for name in ("n", "k", "replications", "n_traces", "mc_replicates", "s_max", "eval_replicates", "n_test"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not 0 < self.level < 1:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        bound = spec_from_dict(self.family).support_bound
        for name, d_max in [("d_max", self.d_max)] + [("d_max_grid entry", d) for d in self.d_max_grid]:
            if not 0 < d_max < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {d_max}")
            if d_max > bound:
                raise ValueError(f"{name} {d_max} exceeds the threshold support bound {bound}")
        for b in self.beta_grid:
            if not b >= 1:
                raise ValueError(f"beta_grid entry {b} is below 1")


def _sample(n, k, p, d_max, specs, root, *labels):
    """A CWS graph from ``(root, "graph", *labels)`` with simplex weights
    from ``(root, "weights", *labels)`` and thresholds ``specs``."""
    graph = generate_cws(n, k, p, substream(root, "graph", *labels))
    weights = sample_weights_simplex(graph, d_max, substream(root, "weights", *labels))
    return GltModel(graph, weights, specs)


def _sample_model(config, rep, n=None, k=None, d_max=None, specs=None, tag=""):
    d_max = config.d_max if d_max is None else d_max
    specs = spec_from_dict(config.family) if specs is None else specs
    return _sample(n or config.n, k or config.k, config.p, d_max, specs, config.seed, tag, rep)


def _simulate(model, count, s_max, root, *labels):
    """``count`` traces; trace i starts from a uniform-by-size seed set of at
    most ``s_max`` nodes drawn from ``(root, "seed", *labels, i)`` and runs
    on ``(root, "sim", *labels, i)``."""
    dist = SeedDistribution.uniform_by_size(s_max)
    seed_sets = [sample_seed(dist, model.graph, substream(root, "seed", *labels, i)) for i in range(count)]
    return simulate_traces(model, seed_sets, [substream(root, "sim", *labels, i) for i in range(count)])


def _simulate_traces(config, model, count, rep, tag=""):
    return _simulate(model, count, config.s_max, config.seed, tag, rep)


def _fitted_weight_vector(graph, fits):
    weights = np.zeros(graph.edge_count())
    estimated = 0
    for v, r in fits.items():
        if r.estimated:
            weights[graph.child_slice(v)] = r.weights
            estimated += 1
    return weights, estimated


def _fitted_model(graph, spec, fits):
    """The model of ``fits``, with ``spec`` at the nodes they do not cover."""
    weights, _ = _fitted_weight_vector(graph, fits)
    specs = [fits[v].spec if v in fits else spec for v in range(graph.n)]
    return GltModel(graph, weights, specs)


def _aggregate(rows, group_keys, value_key):
    groups = {}
    for row in rows:
        key = tuple(row[k] for k in group_keys)
        groups.setdefault(key, []).append(row[value_key])
    out = []
    for key in sorted(groups):
        values = np.asarray(groups[key], dtype=float)
        se = values.std(ddof=1) / math.sqrt(values.size) if values.size > 1 else 0.0
        entry = dict(zip(group_keys, key))
        entry.update(
            {
                "count": int(values.size),
                "mean": float(values.mean()),
                "median": float(np.median(values)),
                "two_se": float(2.0 * se),
            }
        )
        out.append(entry)
    return out


# -- estimation-error studies -------------------------------------------------


def _rmae_row(model, traces, **labels):
    """``labels`` plus the weight error of the fit of ``traces`` under the
    model's own thresholds and the number of nodes the fit estimated."""
    fits = fit_all(build_all_node_data(traces, model.graph, validate=False), model.thresholds)
    est, n_est = _fitted_weight_vector(model.graph, fits)
    return {**labels, "rmae": rmae(model.weights, est), "nodes_estimated": n_est}


def run_rmae_vs_traces(config: ExperimentConfig):
    """Weight-estimation error versus trace count, across d_max values."""
    rows = []
    n_max = max(config.trace_counts)
    for rep in range(config.replications):
        for di, d_max in enumerate(config.d_max_grid):
            model = _sample_model(config, rep, d_max=d_max, tag=f"d{di}")
            traces = _simulate_traces(config, model, n_max, rep, tag=f"d{di}")
            rows += [_rmae_row(model, traces[:count], rep=rep, d_max=d_max, n_traces=count)
                     for count in config.trace_counts]
    return rows, _aggregate(rows, ["d_max", "n_traces"], "rmae")


def run_rmae_vs_n(config: ExperimentConfig):
    """Weight-estimation error versus graph size at a fixed trace count."""
    rows = []
    for rep in range(config.replications):
        for gi, (n, k) in enumerate(config.size_grid):
            model = _sample_model(config, rep, n=n, k=k, tag=f"g{gi}")
            traces = _simulate_traces(config, model, config.n_traces, rep, tag=f"g{gi}")
            rows.append(_rmae_row(model, traces, rep=rep, n=n, k=k, n_traces=config.n_traces))
    return rows, _aggregate(rows, ["n", "k"], "rmae")


def run_ci_coverage(config: ExperimentConfig):
    """Pooled Wald-interval coverage of true weights at interior estimates."""
    rows = []
    for rep in range(config.replications):
        model = _sample_model(config, rep)
        traces = _simulate_traces(config, model, config.n_traces, rep)
        datasets = build_all_node_data(traces, model.graph, validate=False)
        fits = fit_all(datasets, model.thresholds)
        for v, cov in sorted(_covariances(datasets, fits).items()):
            fit = fits[v]
            interior = not fit.at_boundary and cov.valid
            covered = total = 0
            if interior:
                intervals = weight_intervals(fit, cov, config.level)
                truth = model.theta(v)
                for b, interval in zip(truth, intervals):
                    total += 1
                    covered += int(interval.contains(b))
            rows.append(
                {
                    "rep": rep,
                    "node": v,
                    "interior": int(interior),
                    "weights_covered": covered,
                    "weights_total": total,
                }
            )
    interior_rows = [r for r in rows if r["interior"]]
    covered = sum(r["weights_covered"] for r in interior_rows)
    total = sum(r["weights_total"] for r in interior_rows)
    summary = [
        {
            "node_replications": len(interior_rows),
            "weights_total": total,
            "coverage": covered / total if total else float("nan"),
            "nominal": config.level,
        }
    ]
    return rows, summary


# -- activation-probability study ----------------------------------------------


def _candidate_specs():
    return {
        "beta-2-1": make_beta(2, 1),
        "beta-3-1": make_beta(3, 1),
        "uniform": make_uniform(),
        "exponential": make_exponential_unit(),
    }


def run_activation_prediction(config: ExperimentConfig):
    """Next-step activation probabilities under candidate threshold families.

    The ground truth is a beta(2, 1)-threshold model; each candidate family
    is fitted on training traces and evaluated on held-out traces by the
    error of its predicted transition probabilities and the coverage of
    their delta-method intervals.
    """
    rows = []
    for rep in range(config.replications):
        truth = _sample_model(config, rep, specs=make_beta(2, 1))
        train = _simulate_traces(config, truth, config.n_traces, rep, tag="train")
        test = _simulate_traces(config, truth, config.n_test, rep, tag="test")
        datasets = build_all_node_data(train, truth.graph, validate=False)
        rounds, horizons = _activation_rounds(test, truth.graph.n)
        # the last round each node is inactive in each held-out trace
        last_inactive = np.where(rounds == NEVER, horizons[:, None], rounds - 1)
        for name, spec in _candidate_specs().items():
            fits = fit_all(datasets, spec)
            # boundary fits are kept: losing coverage there is exactly how
            # a misspecified threshold family shows up
            covs = _covariances(datasets, fits)
            true_p, pred_p, covered, lengths = [], [], 0, []
            for trace, last in zip(test, last_inactive.tolist()):
                active = trace.active(trace.horizon)
                exposed = {c for u in active for c in truth.graph.children(u)}
                for v in sorted((active | exposed) - trace.steps[0]):
                    # covs holds exactly the estimated fits
                    if v not in covs or not covs[v].valid:
                        continue
                    fit, t_last = fits[v], last[v]
                    prefix = Trace(trace.steps[: t_last + 1])
                    p_true = transition_probability(truth, prefix, v, t_last + 1)
                    point, interval = activation_probability_interval(
                        fit, covs[v], truth.graph, prefix, t_last + 1, config.level
                    )
                    true_p.append(p_true)
                    pred_p.append(point)
                    covered += int(interval.contains(p_true))
                    lengths.append(interval.width)
            total = len(true_p)
            rows.append(
                {
                    "rep": rep,
                    "candidate": name,
                    "n_predictions": total,
                    "rmae": rmae(true_p, pred_p) if total else float("nan"),
                    "coverage": covered / total if total else float("nan"),
                    "mean_ci_length": float(np.mean(lengths)) if total else float("nan"),
                }
            )
    return rows, _aggregate(rows, ["candidate"], "rmae") + _aggregate(
        rows, ["candidate"], "coverage"
    )


# -- influence-maximization studies ---------------------------------------------


def _fit_candidates(config, studies):
    """Per replication's ``(truth, traces)``, fit the GLT grid model, LT, IC,
    and the two heuristics.  One grid, one LT and one IC fit cover every
    replication, their datasets keyed by ``(rep, v)``."""
    # one activation-round table per replication feeds its node rows and PTP scores
    tables = [_activation_rounds(traces, truth.graph.n) for truth, traces in studies]
    datasets = {
        (rep, v): _node_rows(rounds, horizons, truth.graph.parent_list(v), v)
        for rep, ((truth, _), (rounds, horizons)) in enumerate(zip(studies, tables))
        for v in truth.graph.child_nodes()
    }
    specs = {"glt": make_uniform(), "lt": make_uniform(), "ic": make_exponential_unit()}  # glt: where no grid fit
    fits = {
        "glt": fit_with_threshold_grid(datasets, tuple((1, b) for b in config.beta_grid)),
        "lt": fit_all(datasets, specs["lt"]),
        "ic": fit_all(datasets, specs["ic"]),
    }
    out = []
    for rep, ((truth, _), (rounds, _)) in enumerate(zip(studies, tables)):
        graph = truth.graph
        mine = {name: {v: f for (r, v), f in got.items() if r == rep and f.estimated} for name, got in fits.items()}
        out.append({name: _fitted_model(graph, specs[name], mine[name]) for name in fits})
        out[-1]["wc"] = GltModel(graph, baseline_wc(graph), make_uniform())
        out[-1]["ptp"] = GltModel(graph, _ptp_weights(rounds, graph), make_uniform())
    return out


def run_im_comparison(config: ExperimentConfig):
    """Greedy-IM spread under fitted models, evaluated on the true model.

    Ground truth: beta(1, beta_v) thresholds with beta_v uniform on the
    configured grid.  Candidates: grid-fitted GLT, LT, IC, and the WC/PTP
    heuristics; the oracle runs greedy on the truth itself.  Every
    replication's truth and traces are simulated first; the candidates of
    all replications are then fitted together (see :func:`_fit_candidates`).
    """
    studies = []
    for rep in range(config.replications):
        beta_rng = substream(config.seed, "beta", rep)
        specs = [make_beta(1, int(beta_rng.choice(config.beta_grid))) for _ in range(config.n)]
        truth = _sample_model(config, rep, specs=specs, tag="im")
        studies.append((truth, _simulate_traces(config, truth, config.n_traces, rep, tag="im")))
    rows = []
    for rep, ((truth, _), candidates) in enumerate(zip(studies, _fit_candidates(config, studies))):
        candidates["oracle"] = truth
        for name in sorted(candidates):
            model = candidates[name]
            for k in config.budgets:
                solution = greedy_im(
                    model, k, "mc", substream(config.seed, "im-root", rep, name, k), replicates=config.mc_replicates
                )
                est = estimate_spread_mc(
                    truth,
                    solution.seed_set,
                    config.eval_replicates,
                    substream(config.seed, "im-eval", rep, k),
                )
                rows.append(
                    {
                        "rep": rep,
                        "model": name,
                        "k": k,
                        "spread": est.mean,
                        "spread_se": est.std_error,
                    }
                )
    return rows, _aggregate(rows, ["model", "k"], "spread")


def run_spread_comparison(config: ExperimentConfig):
    """Spread prediction from held-out seed sets under candidate thresholds.

    Ground truth: beta(2, 2) thresholds.  Candidates refit the weights
    under their own threshold assumption; predictions are compared to the
    true spreads by relative error.
    """
    candidates = {
        "beta-2-2": make_beta(2, 2),
        "beta-1-2": make_beta(1, 2),
        "beta-2-1": make_beta(2, 1),
        "uniform": make_uniform(),
    }
    rows = []
    for rep in range(config.replications):
        truth = _sample_model(config, rep, specs=make_beta(2, 2), tag="spread")
        train = _simulate_traces(config, truth, config.n_traces, rep, tag="spread")
        dist = SeedDistribution.uniform_by_size(config.s_max)
        test_seeds = [
            sample_seed(dist, truth.graph, substream(config.seed, "test-seed", rep, i))
            for i in range(config.n_test)
        ]
        datasets = build_all_node_data(train, truth.graph, validate=False)

        def spreads(model):  # every model's spreads share the draws of (seed, "ev", rep, i)
            return [estimate_spread_mc(model, s, config.eval_replicates, substream(config.seed, "ev", rep, i)).mean
                    for i, s in enumerate(test_seeds)]

        true_spreads = spreads(truth)
        for name, spec in candidates.items():
            predicted = spreads(_fitted_model(truth.graph, spec, fit_all(datasets, spec)))
            rows.append(
                {
                    "rep": rep,
                    "candidate": name,
                    "rmae": rmae(true_spreads, predicted),
                    "mean_bias": float(np.mean(np.asarray(predicted) - np.asarray(true_spreads))),
                    "n_test": len(test_seeds),
                }
            )
    return rows, _aggregate(rows, ["candidate"], "rmae")


EXPERIMENTS = {
    "rmae-vs-traces": run_rmae_vs_traces,
    "rmae-vs-n": run_rmae_vs_n,
    "ci-coverage": run_ci_coverage,
    "activation-prediction": run_activation_prediction,
    "im-comparison": run_im_comparison,
    "spread-comparison": run_spread_comparison,
}


def _check_study(name: str, config: ExperimentConfig):
    """Refuse the ``config`` values that study ``name`` cannot run on: a
    budget outside [0, n] in im-comparison, the only study that reads
    ``budgets``, and a ``d_max`` above the support bound 1 of the beta
    thresholds that three studies' truths have, whatever ``family`` says."""
    if name == "im-comparison":
        for b in config.budgets:
            if not 0 <= b <= config.n:
                raise ValueError(f"budgets entry {b} outside [0, {config.n}]")
    if name in ("activation-prediction", "im-comparison", "spread-comparison") and config.d_max > 1.0:
        raise ValueError(f"d_max {config.d_max} exceeds the support bound 1.0 of {name}'s beta thresholds")


def run_experiment(name: str, config: ExperimentConfig):
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    _check_study(name, config)
    return EXPERIMENTS[name](config)
