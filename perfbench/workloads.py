"""The four benchmark workloads.

Each workload makes its inputs from the run seed in `prepare` (this is
set-up, timed as part of `setup_s`) and then repeats identical passes of
`run_pass`.  A pass drives gltnet only through its public API and
`gltnet.cli.main`, checks its outputs, and returns a `PassResult` whose
digest must be the same for every pass of a run.

Sizes: `full` is what the benchmark measures; `smoke` is a tiny size that
only checks that the harness emits every metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

import gltnet
from gltnet import cli, experiments
from gltnet.rng import substream

# Reported as fit_rmae by workloads whose outputs contain no weight estimate:
# the RMAE of an all-zero estimate against any nonzero truth is exactly 1.
NO_ESTIMATE_RMAE = 1.0


@dataclass
class PassResult:
    digest: str
    attempted: int
    failed: int
    fit_rmae: float
    im_spread: float
    problems: list = field(default_factory=list)  # failed output checks
    written_bytes: int = 0


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _seeds(seed, count):
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


# -- cli-chain -------------------------------------------------------------------


class CliChain:
    """generate -> simulate -> fit -> infer -> im (fitted) -> spread (truth)."""

    sizes = {
        "full": dict(n=80, k=6, count=300, im_k=3, im_reps=200, spread_reps=5000),
        "smoke": dict(n=10, k=2, count=40, im_k=2, im_reps=20, spread_reps=200),
    }
    outputs = ("model.json", "traces.jsonl", "fit.json", "fitted.json",
               "infer.json", "im.json", "spread.json")

    def prepare(self, seed, size, workdir):
        s = self.sizes[size]
        gen, sim, im, spread = _seeds(seed, 4)
        path = lambda name: os.path.join(workdir, name)
        family = "beta:1,3"
        commands = [
            ["generate", "--n", str(s["n"]), "--k", str(s["k"]), "--family", family,
             "--seed", str(gen), "--out", path("model.json")],
            ["simulate", "--model", path("model.json"), "--count", str(s["count"]),
             "--s-max", "5", "--seed", str(sim), "--out", path("traces.jsonl")],
            ["fit", "--model", path("model.json"), "--traces", path("traces.jsonl"),
             "--family", family, "--out", path("fit.json"),
             "--model-out", path("fitted.json")],
            ["infer", "--model", path("model.json"), "--traces", path("traces.jsonl"),
             "--family", family, "--out", path("infer.json")],
            ["im", "--model", path("fitted.json"), "--k", str(s["im_k"]),
             "--replicates", str(s["im_reps"]), "--seed", str(im),
             "--out", path("im.json")],
        ]
        spread_args = ["--model", path("model.json"), "--replicates",
                       str(s["spread_reps"]), "--seed", str(spread),
                       "--out", path("spread.json")]
        return dict(commands=commands, spread_args=spread_args, path=path)

    def _run(self, argv, problems):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            problems.append(f"{argv[0]} exited {code}: {err.getvalue().strip()[:300]}")
        return code == 0

    def run_pass(self, state):
        path = state["path"]
        for name in self.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path(name))
        problems = []
        attempted = failed = 0
        for argv in state["commands"]:
            attempted += 1
            failed += not self._run(argv, problems)
        seeds = ",".join(str(v) for v in _load(path("im.json"))["seeds"])
        attempted += 1
        failed += not self._run(["spread", "--seed-set", seeds] + state["spread_args"],
                                problems)
        fit = _load(path("fit.json"))["nodes"]
        attempted += len(fit)
        failed += sum("error" in entry for entry in fit.values())
        for doc in ("fit.json", "infer.json"):
            for v, entry in _load(path(doc))["nodes"].items():
                if "error" not in entry and not entry["converged"]:
                    problems.append(f"{doc}: node {v} certificate does not hold")
        truth = _load(path("model.json"))["weights"]
        fitted = _load(path("fitted.json"))["weights"]
        digest = hashlib.sha256()
        written = 0
        for name in self.outputs:
            with open(path(name), "rb") as fh:
                data = fh.read()
            digest.update(data)
            written += len(data)
        return PassResult(
            digest=digest.hexdigest(),
            attempted=attempted,
            failed=failed,
            fit_rmae=gltnet.rmae(truth, fitted),
            im_spread=_load(path("spread.json"))["mean"],
            problems=problems,
            written_bytes=written,
        )


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# -- im-study --------------------------------------------------------------------


class ImStudy:
    """experiments.run_im_comparison, scaled down from acceptance criterion 14."""

    sizes = {
        "full": dict(n=16, replications=3, n_traces=300, budget=3,
                     mc_replicates=100, eval_replicates=1000),
        "smoke": dict(n=10, replications=1, n_traces=60, budget=2,
                      mc_replicates=20, eval_replicates=100),
    }
    models = ("glt", "ic", "lt", "oracle", "ptp", "wc")

    def prepare(self, seed, size, workdir):
        s = dict(self.sizes[size])
        budget = s.pop("budget")
        config = experiments.ExperimentConfig(
            seed=_seeds(seed, 1)[0], k=4, budgets=(budget,), beta_grid=(1, 2, 3, 4, 5), **s)
        return dict(config=config)

    def run_pass(self, state):
        config = state["config"]
        budget = config.budgets[0]
        rows, summary = experiments.run_im_comparison(config)
        seen = {(r["rep"], r["model"], r["k"]) for r in rows
                if math.isfinite(r["spread"])}
        expected = {(rep, m, budget) for rep in range(config.replications)
                    for m in self.models}
        spread = {s["model"]: s["mean"] for s in summary if s["k"] == budget}
        problems = [
            f"k={budget}: glt spread {spread.get('glt')} < {m} spread {spread.get(m)}"
            for m in ("lt", "wc", "ptp")
            if not spread.get("glt", -1) >= spread.get(m, math.inf)
        ]
        return PassResult(
            digest=_digest([[r["rep"], r["model"], r["k"], repr(r["spread"]),
                             repr(r["spread_se"])] for r in rows]),
            attempted=len(expected),
            failed=len(expected - seen),
            fit_rmae=NO_ESTIMATE_RMAE,
            im_spread=spread.get("glt", math.nan),
            problems=problems,
        )


# -- influence-large ---------------------------------------------------------------


def _cws_model(seed, tag, n, k, d_max, spec):
    graph = gltnet.generate_cws(n, k, 0.2, substream(seed, "graph", tag))
    weights = gltnet.sample_weights_simplex(graph, d_max, substream(seed, "weights", tag))
    return gltnet.GltModel(graph, weights, spec)


class InfluenceLarge:
    """Greedy MC on n=100 and MC spreads on n=1000; no fitting."""

    sizes = {
        "full": dict(greedy_n=100, budget=3, greedy_reps=300, spread_n=1000,
                     spread_calls=3, spread_reps=200, seed_set_size=10),
        "smoke": dict(greedy_n=30, budget=2, greedy_reps=20, spread_n=60,
                      spread_calls=3, spread_reps=50, seed_set_size=3),
    }

    def prepare(self, seed, size, workdir):
        s = self.sizes[size]
        spec = gltnet.make_beta(1, 3)
        greedy_model = _cws_model(seed, "greedy", s["greedy_n"], 8, 0.5, spec)
        spread_model = _cws_model(seed, "spread", s["spread_n"], 8, 0.5, spec)
        pick = substream(seed, "seed-sets")
        seed_sets = [
            sorted(int(v) for v in pick.choice(s["spread_n"], s["seed_set_size"],
                                               replace=False))
            for _ in range(s["spread_calls"])
        ]
        roots = _seeds(seed, 1 + s["spread_calls"])
        return dict(greedy_model=greedy_model, spread_model=spread_model,
                    seed_sets=seed_sets, roots=roots, s=s)

    def run_pass(self, state):
        s, roots, seed_sets = state["s"], state["roots"], state["seed_sets"]
        solution = gltnet.greedy_im(state["greedy_model"], s["budget"], "mc", roots[0],
                                    replicates=s["greedy_reps"])
        estimates = [
            gltnet.estimate_spread_mc(state["spread_model"], seed_set, s["spread_reps"], root)
            for seed_set, root in zip(seed_sets, roots[1:])
        ]
        problems = []
        if not min(solution.gains) >= 0:
            problems.append(f"negative greedy gain: {solution.gains}")
        problems += [f"spread {est.mean} below seed-set size {len(seed_set)}"
                     for est, seed_set in zip(estimates, seed_sets)
                     if not est.mean >= len(seed_set)]
        means = [solution.spread.mean] + [est.mean for est in estimates]
        return PassResult(
            digest=_digest([list(solution.seeds), [repr(g) for g in solution.gains],
                            [repr(m) for m in means],
                            [repr(est.std_error) for est in estimates]]),
            attempted=len(means),
            failed=sum(not math.isfinite(m) for m in means),
            fit_rmae=NO_ESTIMATE_RMAE,
            im_spread=solution.spread.mean,
            problems=problems,
        )


# -- exact-small -------------------------------------------------------------------


class ExactSmall:
    """Exact oracle and exhaustive diagnostics on several small models."""

    sizes = {
        "full": dict(n=9, instances=8, greedy_k=3, optimal_k=2, s_max=2, max_budget=2),
        "smoke": dict(n=7, instances=2, greedy_k=2, optimal_k=2, s_max=1, max_budget=1),
    }

    def prepare(self, seed, size, workdir):
        s = self.sizes[size]
        spec = gltnet.make_beta(1, 2)
        models = [_cws_model(seed, f"exact-{i}", s["n"], 4, 0.9, spec)
                  for i in range(s["instances"])]
        return dict(models=models, s=s)

    def run_pass(self, state):
        s = state["s"]
        problems, digests, spreads = [], [], []
        attempted = failed = 0
        for i, model in enumerate(state["models"]):
            calls = {
                "greedy": lambda: gltnet.greedy_im(model, s["greedy_k"], "exact"),
                "optimal": lambda: gltnet.optimal_seed_set(model, s["optimal_k"], "exact"),
                "identifiability": lambda: gltnet.check_identifiability(
                    model.graph, gltnet.SeedDistribution.uniform_by_size(s["s_max"])),
                "submodularity": lambda: gltnet.check_submodularity_exact(
                    model, max_budget=s["max_budget"]),
            }
            out = {}
            for name, call in calls.items():
                attempted += 1
                try:
                    out[name] = call()
                except gltnet.EnumerationCapError as exc:
                    failed += 1
                    problems.append(f"model {i} {name}: {exc}")
            greedy, optimal = out.get("greedy"), out.get("optimal")
            if greedy and optimal:
                prefix = sum(greedy.gains[: s["optimal_k"]])
                if prefix < (1 - 1 / math.e) * optimal[1] - 1e-9:
                    problems.append(f"model {i}: greedy spread {prefix} < (1-1/e) * "
                                    f"optimum {optimal[1]}")
            spreads.append(greedy.spread.mean if greedy else math.nan)
            report, violations = out.get("identifiability"), out.get("submodularity")
            digests.append([
                greedy and [list(greedy.seeds), [repr(g) for g in greedy.gains]],
                optimal and [sorted(optimal[0]), repr(optimal[1])],
                report and sorted((v, r.verdict) for v, r in report.nodes.items()),
                violations is not None and [[v.node, sorted(v.subset), sorted(v.superset)]
                                            for v in violations],
            ])
        return PassResult(
            digest=_digest(digests),
            attempted=attempted,
            failed=failed,
            fit_rmae=NO_ESTIMATE_RMAE,
            im_spread=sum(spreads) / len(spreads),
            problems=problems,
        )


WORKLOADS = {
    "cli-chain": CliChain,
    "im-study": ImStudy,
    "influence-large": InfluenceLarge,
    "exact-small": ExactSmall,
}
