"""Runtime tracing of gltnet from outside the package.

`Tracer.install()` wraps public functions and a few class methods of gltnet
in the current process, replacing the name in every `gltnet.*` module
namespace that bound it, so calls made inside the package are seen too.
`Tracer.uninstall()` puts the original objects back.  Nothing in gltnet is
edited on disk.

Each wrapped call records a span (name, start, end, parent, pass id) in
memory.  Calls too frequent for spans (the threshold distribution methods)
only bump counters.  `pass_metrics()` turns the spans and counters of
one pass into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

# (module, attribute, span name).  The span name's first component is the
# layer; its self time counts towards `<layer>` metrics.
SPANNED = [
    ("gltnet.cli", "main", None),  # named cli.<subcommand> from argv
    ("gltnet.serialize", "dump_json", "serialize.dump_json"),
    ("gltnet.serialize", "load_json", "serialize.load_json"),
    ("gltnet.serialize", "write_traces_jsonl", "serialize.write_traces_jsonl"),
    ("gltnet.serialize", "read_traces_jsonl", "serialize.read_traces_jsonl"),
    ("gltnet.serialize", "model_from_dict", "serialize.model_from_dict"),
    ("gltnet.serialize", "model_to_dict", "serialize.model_to_dict"),
    ("gltnet.serialize", "fit_results_to_dict", "serialize.fit_results_to_dict"),
    ("gltnet.graph", "generate_cws", "graph.generate_cws"),
    ("gltnet.graph", "sample_weights_simplex", "graph.sample_weights_simplex"),
    ("gltnet.model", "simulate_trace", "model.simulate_trace"),
    ("gltnet.likelihood", "build_node_data", "likelihood.build_node_data"),
    ("gltnet.likelihood", "node_value_and_gradient", "likelihood.eval"),
    ("gltnet.likelihood", "node_log_likelihood", "likelihood.eval"),
    ("gltnet.likelihood", "node_hessian", "likelihood.eval"),
    ("gltnet.estimation", "fit_node", "estimation.fit_node"),
    ("gltnet.estimation", "fit_all", "estimation.fit_all"),
    ("gltnet.estimation", "fit_with_threshold_grid", "estimation.grid"),
    ("gltnet.estimation", "baseline_wc", "estimation.baseline"),
    ("gltnet.estimation", "baseline_ptp", "estimation.baseline"),
    ("gltnet.inference", "node_covariance", "inference.node_covariance"),
    ("gltnet.inference", "weight_intervals", "inference.weight_intervals"),
    ("gltnet.influence", "greedy_im", "influence.greedy_im"),
    ("gltnet.influence", "estimate_spread_mc", "influence.estimate_spread_mc"),
    ("gltnet.influence", "optimal_seed_set", "influence.optimal_seed_set"),
    ("gltnet.diagnostics", "check_identifiability", "diagnostics.identifiability"),
    ("gltnet.diagnostics", "check_submodularity_exact", "diagnostics.submodularity"),
    ("gltnet.experiments", "run_im_comparison", "experiments.run_im_comparison"),
]

# (module, class, method, span name or None for a counter only)
METHODS = [
    ("gltnet.model", "ExactSpreadOracle", "spread", "model.exact.spread"),
] + [
    ("gltnet.thresholds", "ThresholdSpec", m, None)
    for m in (
        "cdf", "sf", "density", "density_derivative", "inverse_cdf",
        "log_sf", "interval_prob", "log_interval_prob",
    )
]

CLI_COMMANDS = ("generate", "simulate", "fit", "infer", "im", "spread")


class Span:
    """An open span; closed spans are kept as plain tuples (see `Tracer._close`)."""

    __slots__ = ("sid", "name", "start", "parent", "child_s")

    def __init__(self, sid, name, start, parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.parent = parent
        self.child_s = 0.0


# fields of a closed span tuple; tuples of plain values are not tracked by the
# garbage collector, so a long run's spans do not slow collections down
SID, NAME, START, END, PARENT, PASS, CHILD_S = range(7)


def _duration(span):
    return span[END] - span[START]


def _self_s(span):
    return span[END] - span[START] - span[CHILD_S]


def _percentile_ms(samples, q):
    """The q-quantile in ms, or None unless 10 samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    beyond = len(ordered) - math.floor(q * len(ordered)) - 1
    if beyond < 10:
        return None
    return 1e3 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    """Records spans and counters while installed; passes are tagged."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.pass_id = "setup"
        self._stack = []
        self._next_id = 0
        self._saved = []  # (namespace, attribute, original) to restore
        self._trace_keys = {}  # id(traces) -> (traces, content key)
        self._builds = {}  # pass id -> set of (node, traces key)

    # -- recording ------------------------------------------------------------

    def begin_pass(self, pass_id):
        self.pass_id = pass_id
        self._trace_keys.clear()  # drop references to the last pass's traces

    def count(self, name, n=1):
        key = (self.pass_id, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, name, time.perf_counter(),
                    None if parent is None else parent.sid)
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span):
        end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += end - span.start
        self.spans.append((span.sid, span.name, span.start, end, span.parent,
                           self.pass_id, span.child_s))

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.count(span.name + ".raised")
                raise
            finally:
                tracer._close(span)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        return wrapper

    def _wrap_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(self_, x, *rest):
            tracer.count("thresholds.calls")
            if not hasattr(x, "ndim") or x.ndim == 0:
                tracer.count("thresholds.scalar_calls")
            return fn(self_, x, *rest)

        return wrapper

    def _after_hooks(self):
        def simulate(args, trace):
            self.count("model.activations", sum(len(s) for s in trace.steps[1:]))

        def build(args, data):
            self.count("likelihood.rows", len(data.outcome))
            key = (args["v"], self._traces_key(args["traces"]))
            self._builds.setdefault(self.pass_id, set()).add(key)

        def fit_result(args, result):
            self.count("estimation.iterations", result.iterations)
            if not result.converged:
                self.count("estimation.unconverged")

        def fit_all(args, results):
            for r in results.values():
                if not r.estimated:
                    self.count("estimation.failed")

        def covariance(args, cov):
            if not cov.valid:
                self.count("inference.invalid")

        def greedy(args, solution):
            if args["spread_evaluator"] != "mc":
                return
            # each step evaluates every remaining candidate, plus the current
            # seed set once it is nonempty, on `replicates` closures
            n = args["model"].graph.n
            for step in range(args["budget"]):
                self.count("influence.closures",
                           args["replicates"] * (n - step + (step > 0)))

        def spread_mc(args, est):
            self.count("influence.closures", args["replicates"])

        def submodularity(args, violations):
            self.count("diagnostics.violations", len(violations))

        return {
            "model.simulate_trace": simulate,
            "likelihood.build_node_data": build,
            "estimation.fit_node": fit_result,
            "estimation.fit_all": fit_all,
            "inference.node_covariance": covariance,
            "influence.greedy_im": greedy,
            "influence.estimate_spread_mc": spread_mc,
            "diagnostics.submodularity": submodularity,
        }

    def _traces_key(self, traces):
        """A content key for a trace list, cached per list object."""
        got = self._trace_keys.get(id(traces))
        if got is None or got[0] is not traces:
            got = (traces, hash(tuple(traces)))
            self._trace_keys[id(traces)] = got
        return got[1]

    # -- install / uninstall ----------------------------------------------------

    def install(self):
        if self._saved:
            return
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gltnet" or name.startswith("gltnet."))]
        hooks = self._after_hooks()
        for module_name, attr, name in SPANNED:
            original = getattr(sys.modules[module_name], attr)
            if name is None:
                name = lambda args: "cli." + (args[0][0] if args and args[0] else "?")
            wrapper = self._wrap(original, name, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            if name is None:
                wrapper = self._wrap_counter(original)
            else:
                wrapper = self._wrap(original, name)
            self._saved.append((cls, method, original))
            setattr(cls, method, wrapper)

    def uninstall(self):
        while self._saved:
            target, key, original = self._saved.pop()
            setattr(target, key, original)

    # -- metrics ------------------------------------------------------------------

    def pass_metrics(self, pass_id):
        """Per-layer metrics of one traced pass (percentiles excluded)."""
        spans = [s for s in self.spans if s[PASS] == pass_id]
        counts = {name: n for (pid, name), n in self.counts.items() if pid == pass_id}
        by_name = {}
        for s in spans:
            by_name.setdefault(s[NAME], []).append(s)

        def calls(name):
            return len(by_name.get(name, ()))

        def self_s(*names, prefix=None):
            total = 0.0
            for s in spans:
                if s[NAME] in names or (prefix and s[NAME].startswith(prefix)):
                    total += _self_s(s)
            return total

        def inclusive(name):
            return sum(_duration(s) for s in by_name.get(name, ()))

        out = {}
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.wall_s"] = inclusive(f"cli.{cmd}")
        out["serialize.self_s"] = self_s(prefix="serialize.")
        out["model.simulate_trace.calls"] = calls("model.simulate_trace")
        out["model.simulate_trace.self_s"] = self_s("model.simulate_trace")
        out["model.activations"] = counts.get("model.activations", 0)
        out["model.exact.spread_calls"] = calls("model.exact.spread")
        out["model.exact.self_s"] = self_s("model.exact.spread")
        out["thresholds.calls"] = counts.get("thresholds.calls", 0)
        out["thresholds.scalar_calls"] = counts.get("thresholds.scalar_calls", 0)
        builds = calls("likelihood.build_node_data")
        out["likelihood.build_node_data.calls"] = builds
        out["likelihood.build_node_data.self_s"] = self_s("likelihood.build_node_data")
        out["likelihood.rows"] = counts.get("likelihood.rows", 0)
        distinct = len(self._builds.get(pass_id, ()))
        out["likelihood.build_reuse_ratio"] = distinct / builds if builds else 0.0
        evals = calls("likelihood.eval")
        out["likelihood.evals"] = evals
        out["likelihood.eval.self_s"] = self_s("likelihood.eval")
        fits = calls("estimation.fit_node")
        out["estimation.fit_node.calls"] = fits
        out["estimation.fit_node.self_s"] = self_s("estimation.fit_node")
        out["estimation.iterations"] = counts.get("estimation.iterations", 0)
        fit_ids = {s[SID] for s in by_name.get("estimation.fit_node", ())}
        evals_in_fits = sum(1 for s in by_name.get("likelihood.eval", ())
                            if s[PARENT] in fit_ids)
        out["estimation.evals_per_fit"] = evals_in_fits / fits if fits else 0.0
        out["estimation.grid.self_s"] = self_s("estimation.grid")
        out["estimation.self_s"] = self_s(prefix="estimation.")
        out["estimation.unconverged"] = counts.get("estimation.unconverged", 0)
        out["estimation.failed"] = (counts.get("estimation.failed", 0)
                                    + counts.get("estimation.fit_node.raised", 0))
        out["inference.node_covariance.calls"] = calls("inference.node_covariance")
        out["inference.node_covariance.self_s"] = self_s("inference.node_covariance")
        out["inference.invalid"] = counts.get("inference.invalid", 0)
        out["influence.greedy_im.self_s"] = self_s("influence.greedy_im")
        out["influence.estimate_spread_mc.calls"] = calls("influence.estimate_spread_mc")
        out["influence.estimate_spread_mc.self_s"] = self_s("influence.estimate_spread_mc")
        closures = counts.get("influence.closures", 0)
        out["influence.closures"] = closures
        mc_s = out["influence.greedy_im.self_s"] + out["influence.estimate_spread_mc.self_s"]
        out["influence.closures_per_s"] = closures / mc_s if closures and mc_s > 0 else 0.0
        out["diagnostics.identifiability.self_s"] = self_s("diagnostics.identifiability")
        out["diagnostics.submodularity.self_s"] = self_s("diagnostics.submodularity")
        out["diagnostics.violations"] = counts.get("diagnostics.violations", 0)
        out["experiments.self_s"] = self_s(prefix="experiments.")
        out["graph.generate_cws.self_s"] = self_s("graph.generate_cws")
        return out

    def percentiles(self, pass_ids):
        """p50/p90 in ms, pooled over the passes; None where unresolved."""
        out = {}
        for metric, name in (("model.exact", "model.exact.spread"),
                             ("estimation.fit_node", "estimation.fit_node")):
            samples = [_duration(s) for s in self.spans
                       if s[NAME] == name and s[PASS] in pass_ids]
            out[f"{metric}.p50_ms"] = _percentile_ms(samples, 0.5)
            out[f"{metric}.p90_ms"] = _percentile_ms(samples, 0.9)
        return out

    def dump(self):
        """Spans as plain rows, for writing out once the run is over."""
        return [
            {"id": s[SID], "name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "pass": s[PASS]}
            for s in self.spans
        ]
