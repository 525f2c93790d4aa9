"""Command-line interface.

Subcommands: generate, simulate, fit, infer, diagnose, im, spread,
experiment.  Primary outputs are JSON / JSONL / CSV files written
atomically; every command is a pure function of its inputs and the root
seed, so reruns are byte-identical.  Failures print a machine-readable
error object on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace

from . import __version__
from .diagnostics import check_identifiability, check_submodularity_exact
from .estimation import DEFAULT_EPSILON, EstimationError, FitOptions, fit_all, fit_with_threshold_grid
from .experiments import EXPERIMENTS, ExperimentConfig, _check_study, _fitted_model, _sample, _simulate, run_experiment
from .graph import SeedDistribution
from .inference import _covariances, weight_intervals
from .influence import estimate_spread_mc, exact_evaluator, greedy_im
from .likelihood import build_all_node_data, build_pseudo_node_data
from .rng import substream
from .serialize import (
    SchemaError,
    _node_ids,
    atomic_write_text,
    dump_json,
    fit_results_to_dict,
    graph_from_dict,
    graph_to_dict,
    load_json,
    model_from_dict,
    model_to_dict,
    read_pseudo_jsonl,
    read_traces_jsonl,
    write_traces_jsonl,
)
from .thresholds import spec_from_dict

__all__ = ["main"]

# fits are serial; the flag stays so existing command lines keep working
_THREADS_HELP = "accepted for compatibility; has no effect"


def _parse_family(text: str) -> dict:
    if text in ("uniform", "exponential"):
        return {"family": text}
    if text.startswith("beta:"):
        try:
            alpha, beta = (float(x) for x in text[len("beta:") :].split(","))
        except ValueError as exc:
            raise SchemaError(
                f"expected beta:ALPHA,BETA, got {text!r}"
            ) from exc
        return {"family": "beta", "alpha": alpha, "beta": beta}
    raise SchemaError(
        f"unknown family {text!r}; use uniform, exponential, or beta:A,B"
    )


def _parse_grid(text: str) -> tuple:
    """Grid entries "a:b,a:b,..." of beta parameters (or bare betas)."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            a, b = token.split(":") if ":" in token else ("1", token)
            out.append((float(a), float(b)))
        except ValueError as exc:
            raise SchemaError(f"bad grid entry {token!r}; use A:B or B") from exc
        if not all(0 < x < math.inf for x in out[-1]):
            raise SchemaError(f"bad grid entry {token!r}; --grid parameters must be finite and positive")
    if not out:
        raise SchemaError(f"empty grid {text!r}")
    return tuple(out)


def _load_graph_or_model(args):
    if getattr(args, "model", None):
        model = model_from_dict(load_json(args.model), where=args.model)
        return model.graph, model
    if getattr(args, "graph", None):
        return graph_from_dict(load_json(args.graph), where=args.graph), None
    raise SchemaError("supply --graph or --model")


def _run_fits(args):
    """``(graph, spec, results, datasets)``: every fit uses the rows in
    ``datasets``, built once per node."""
    graph, model = _load_graph_or_model(args)
    options = FitOptions(args.epsilon, args.gamma)
    family = _parse_family(args.family)
    if args.pseudo:
        by_node = {}
        for pt in read_pseudo_jsonl(args.pseudo, graph):
            by_node.setdefault(pt.node, []).append(pt)
        datasets = {
            v: build_pseudo_node_data(pts, v, graph) for v, pts in sorted(by_node.items())
        }
    elif args.traces:
        # the reader has already checked each trace against the graph
        traces = read_traces_jsonl(args.traces, graph)
        datasets = build_all_node_data(traces, graph, validate=False)
    else:
        raise SchemaError("supply --traces or --pseudo")

    spec = spec_from_dict(family)
    grid = _parse_grid(args.grid) if args.grid else None
    if grid and family["family"] != "beta":
        raise SchemaError("--grid applies to beta thresholds; set --family beta:A,B")

    if grid:
        informative = {v: data for v, data in datasets.items() if data.n_informative_rows}
        results = fit_with_threshold_grid(informative, grid, options)
        failed = next((r for r in results.values() if not r.estimated), None)
        if failed is not None:
            raise EstimationError(failed.error)
    else:
        results = fit_all(datasets, spec, options)
    return graph, spec, results, datasets


def cmd_generate(args):
    spec = spec_from_dict(_parse_family(args.family))
    if args.d_max > spec.support_bound:
        raise SchemaError(f"--d-max {args.d_max} exceeds the threshold support bound {spec.support_bound}")
    model = _sample(args.n, args.k, args.p, args.d_max, spec, args.seed)
    dump_json(model_to_dict(model), args.out)
    if args.graph_out:
        dump_json(graph_to_dict(model.graph), args.graph_out)
    return {"out": args.out, "edges": model.graph.edge_count()}


def cmd_simulate(args):
    if args.count < 0:
        raise SchemaError(f"--count must be nonnegative, got {args.count}")
    model = model_from_dict(load_json(args.model), where=args.model)
    traces = _simulate(model, args.count, args.s_max, args.seed)
    write_traces_jsonl(traces, args.out)
    return {"out": args.out, "traces": len(traces)}


def cmd_fit(args):
    graph, spec, results, _ = _run_fits(args)
    dump_json(fit_results_to_dict(results), args.out)
    if args.model_out:
        dump_json(model_to_dict(_fitted_model(graph, spec, results)), args.model_out)
    estimated = sum(1 for r in results.values() if r.estimated)
    return {"out": args.out, "nodes_estimated": estimated}


def cmd_infer(args):
    _, _, results, datasets = _run_fits(args)
    intervals = {
        v: (cov, weight_intervals(results[v], cov, args.level) if cov.valid else [])
        for v, cov in _covariances(datasets, results).items()
    }
    dump_json(fit_results_to_dict(results, intervals), args.out)
    return {"out": args.out, "nodes": len(results)}


def cmd_diagnose(args):
    graph, model = _load_graph_or_model(args)
    if args.seeds:
        raw = load_json(args.seeds)
        pair = "a [[nodes...], probability] pair"
        if not isinstance(raw, list):
            raise SchemaError(f"expected a list, each entry {pair}", where=args.seeds)
        support = []
        for entry in raw:
            if not (isinstance(entry, list) and len(entry) == 2 and type(entry[1]) in (int, float)):
                raise SchemaError(f"expected {pair}, got {entry!r}", where=args.seeds)
            support.append((frozenset(_node_ids(entry[0], args.seeds)), entry[1]))
        try:
            dist = SeedDistribution.explicit(support)
        except ValueError as exc:
            raise SchemaError(str(exc), where=args.seeds) from exc
    else:
        dist = SeedDistribution.uniform_by_size(args.s_max)
    report = check_identifiability(graph, dist, state_cap=args.state_cap)
    doc = {"identifiability": {}}
    for v, node_report in sorted(report.nodes.items()):
        entry = {
            "verdict": node_report.verdict,
            "parents": list(node_report.parents),
            "achievable_subsets": [sorted(s) for s in node_report.achievable],
        }
        if node_report.rank is not None:
            entry["rank"] = node_report.rank
            entry["rank_deficiency"] = node_report.rank_deficiency
        if node_report.witnesses is not None:
            entry["witnesses"] = [sorted(s) for s in node_report.witnesses]
            entry["matrix"] = [list(row) for row in node_report.matrix]
            entry["determinant"] = node_report.determinant
        doc["identifiability"][str(v)] = entry
    if model is not None:
        violations = check_submodularity_exact(
            model, max_budget=args.max_budget, node_cap=args.node_cap
        )
        doc["submodularity"] = {
            "violations": [
                {**asdict(viol), "subset": sorted(viol.subset), "superset": sorted(viol.superset)}
                for viol in violations
            ],
            "concave_cdfs": all(
                model.spec(v).concave_cdf for v in model.graph.child_nodes()
            ),
        }
    dump_json(doc, args.out)
    return {"out": args.out}


def cmd_im(args):
    model = model_from_dict(load_json(args.model), where=args.model)
    solution = greedy_im(
        model,
        args.k,
        args.evaluator,
        args.seed,
        replicates=args.replicates,
        node_cap=args.node_cap,
    )
    doc = {
        "seeds": list(solution.seeds),
        "gains": list(solution.gains),
        "spread": solution.spread.mean,
        "se": solution.spread.std_error,
        "evaluator": args.evaluator,
        "replicates": solution.spread.replicates,
    }
    dump_json(doc, args.out)
    return doc


def cmd_spread(args):
    model = model_from_dict(load_json(args.model), where=args.model)
    seed_set = set()
    for token in filter(None, args.seed_set.split(",")):
        try:
            seed_set.add(int(token))
        except ValueError as exc:
            raise SchemaError(f"bad seed-set entry {token!r}; use comma-separated node ids") from exc
    if args.evaluator == "mc":
        est = estimate_spread_mc(
            model, seed_set, args.replicates, substream(args.seed, "spread")
        )
        doc = {"mean": est.mean, "se": est.std_error, "replicates": est.replicates}
    else:
        value = exact_evaluator(model, args.evaluator, args.node_cap)([seed_set])[0]
        doc = {"mean": value, "se": 0.0, "replicates": 0}
    dump_json(doc, args.out)
    return doc


def _write_csv(rows, path):
    if not rows:
        atomic_write_text(path, "")
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _write_svg(summary, path):
    """Minimal polyline chart of the first numeric x column vs the mean."""
    numeric_keys = [
        k
        for k in summary[0]
        if k not in ("mean", "median", "two_se", "count")
        and isinstance(summary[0][k], (int, float))
    ]
    if not numeric_keys:
        return False
    x_key = numeric_keys[-1]
    series_keys = [k for k in summary[0] if k not in (x_key, "mean", "median", "two_se", "count")]
    series = {}
    for row in summary:
        label = ",".join(f"{k}={row[k]}" for k in series_keys) or "all"
        series.setdefault(label, []).append((row[x_key], row["mean"]))
    width, height, pad = 480, 320, 45
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0

    def sx(x):
        return pad + (x - x0) / span_x * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / span_y * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="11" text-anchor="middle">{x_key}</text>',
        f'<text x="12" y="{height // 2}" font-size="11" transform="rotate(-90 12 {height // 2})" text-anchor="middle">mean</text>',
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    for i, (label, pts) in enumerate(sorted(series.items())):
        pts = sorted(pts)
        colour = palette[i % len(palette)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{colour}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * i}" font-size="10" fill="{colour}">{label}</text>'
        )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
    return True


def _config_value(key, value, default, where):
    """A config file's ``value`` for ``key`` in the shape of the key's
    ``default``: an integer, a number, an object, or a nonempty list of such,
    lists as tuples."""
    if isinstance(default, tuple) and isinstance(value, list) and value:
        return tuple(_config_value(key, x, default[0], where) for x in value)
    kinds = (dict,) if isinstance(default, dict) else (int, float) if isinstance(default, float) else (int,)
    if isinstance(default, tuple) or type(value) not in kinds:
        raise SchemaError(f"config key {key!r} takes values shaped like {default!r}, got {value!r}", where=where)
    return value


def cmd_experiment(args):
    config = ExperimentConfig(seed=args.seed)
    if args.config:
        raw = load_json(args.config)
        if not isinstance(raw, dict):
            raise SchemaError(f"expected a JSON object of config keys, got {raw!r}", where=args.config)
        valid = {f.name for f in fields(ExperimentConfig)}
        for key, value in raw.items():
            if key not in valid:
                raise SchemaError(f"unknown config key {key!r}", where=args.config)
            raw[key] = _config_value(key, value, getattr(config, key), args.config)
        try:
            config = replace(config, **raw)
            _check_study(args.experiment, config)
        except ValueError as exc:
            raise SchemaError(str(exc), where=args.config) from exc
    os.makedirs(args.out_dir, exist_ok=True)
    rows, summary = run_experiment(args.experiment, config)
    rows_path = os.path.join(args.out_dir, f"{args.experiment}_rows.csv")
    summary_path = os.path.join(args.out_dir, f"{args.experiment}_summary.csv")
    _write_csv(rows, rows_path)
    _write_csv(summary, summary_path)
    doc = {"rows": rows_path, "summary": summary_path, "n_rows": len(rows)}
    if args.plot and summary:
        svg_path = os.path.join(args.out_dir, f"{args.experiment}.svg")
        if _write_svg(summary, svg_path):
            doc["plot"] = svg_path
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gltnet",
        description="General linear threshold diffusion: simulate, fit, infer, maximize",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"gltnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("generate", help="sample a synthetic model (CWS graph + simplex weights)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, default=0.2)
    p.add_argument("--d-max", type=float, default=1.0)
    p.add_argument("--family", default="uniform")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--graph-out")
    p.set_defaults(func=cmd_generate)

    p = add_parser("simulate", help="sample propagation traces from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--s-max", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    for name in ("fit", "infer"):
        p = add_parser(
            name,
            help=(
                "maximum-likelihood weight fit"
                if name == "fit"
                else "fit plus observed-information intervals"
            ),
        )
        p.add_argument("--graph")
        p.add_argument("--model")
        p.add_argument("--traces")
        p.add_argument("--pseudo")
        p.add_argument("--family", default="uniform")
        p.add_argument("--grid", help="beta grid, e.g. 1:1,1:2,1:3 or 1,2,3")
        p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
        p.add_argument("--gamma", type=float)
        p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
        p.add_argument("--out", required=True)
        if name == "fit":
            p.add_argument("--model-out", help="also write the fitted model JSON")
            p.set_defaults(func=cmd_fit)
        else:
            p.add_argument("--level", type=float, default=0.95)
            p.set_defaults(func=cmd_infer)

    p = add_parser("diagnose", help="identifiability (and submodularity) report")
    p.add_argument("--graph")
    p.add_argument("--model")
    p.add_argument("--seeds", help="JSON file of [[nodes...], probability] pairs")
    p.add_argument("--s-max", type=int, default=1)
    p.add_argument("--state-cap", type=int, default=100_000)
    p.add_argument("--max-budget", type=int, default=None)
    p.add_argument("--node-cap", type=int, default=10**6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = add_parser("im", help="greedy influence maximization")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--evaluator", choices=["mc", "exact", "bipartite"], default="mc")
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--node-cap", type=int, default=10**6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_im)

    p = add_parser("spread", help="spread of a given seed set")
    p.add_argument("--model", required=True)
    p.add_argument("--seed-set", required=True, help="comma-separated node ids")
    p.add_argument("--evaluator", choices=["mc", "exact", "bipartite"], default="mc")
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--node-cap", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spread)

    p = add_parser("experiment", help="run a named synthetic study")
    p.add_argument("--experiment", required=True, choices=sorted(EXPERIMENTS))
    p.add_argument("--config", help="JSON file of ExperimentConfig overrides")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        summary = args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all failures
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error), file=sys.stderr)
        return 1
    if summary is not None:
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
