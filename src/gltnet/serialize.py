"""JSON / JSONL schemas and atomic file I/O.

Documents (node ids and counts are JSON integers, never floats or bools):
  graph:   {"n": int, "edges": [[parent, child], ...]}
  model:   graph fields + "weights" (canonical edge order) + "thresholds"
           (per-node family dicts)
  traces:  JSONL, one {"steps": [[...], ...]} object per line
  pseudo:  JSONL, one {"node": v, "active_parents": [...], "y": 0|1} per line
  fit:     {"nodes": {"<v>": {"parents": [...], "weights": [...], ...}}}

Input errors carry the file position (key path or line number).  Writes go
through a temp file and rename, so a crash never leaves a partial document.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .graph import Graph, is_node_id
from .likelihood import PseudoTrace
from .model import GltModel, Trace, validate_trace
from .thresholds import spec_from_dict, spec_to_dict

__all__ = [
    "SchemaError",
    "atomic_write_text",
    "graph_to_dict",
    "graph_from_dict",
    "model_to_dict",
    "model_from_dict",
    "trace_to_dict",
    "trace_from_dict",
    "write_traces_jsonl",
    "read_traces_jsonl",
    "write_pseudo_jsonl",
    "read_pseudo_jsonl",
    "fit_results_to_dict",
    "load_json",
    "dump_json",
]


class SchemaError(ValueError):
    """Malformed document, annotated with its position."""

    def __init__(self, message, where=""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def atomic_write_text(path: str, text: str):
    """Write via a sibling temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj, path: str):
    """Write ``obj`` as JSON; NaN and Infinity, which JSON lacks, are refused."""
    atomic_write_text(path, json.dumps(obj, indent=2, allow_nan=False) + "\n")


def load_json(path: str):
    def refuse(constant):  # NaN, Infinity or -Infinity
        raise SchemaError(f"{constant} is not a JSON number", where=path)

    with open(path) as handle:
        try:
            return json.load(handle, parse_constant=refuse)
        except json.JSONDecodeError as exc:
            raise SchemaError(str(exc), where=path) from exc


def _need(d, key, where):
    if not isinstance(d, dict):
        raise SchemaError(f"expected a JSON object, got {d!r}", where=where)
    if key not in d:
        raise SchemaError(f"missing key {key!r}", where=where)
    return d[key]


def graph_to_dict(graph: Graph) -> dict:
    return {"n": graph.n, "edges": [[u, v] for u, v in graph.edges]}


def graph_from_dict(d: dict, where: str = "graph") -> Graph:
    n = _need(d, "n", where)
    edges = _need(d, "edges", where)
    if not isinstance(edges, list):
        raise SchemaError(f"expected a list of edges, got {edges!r}", where=where)
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise SchemaError(f"expected a [parent, child] edge, got {e!r}", where=where)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise SchemaError(str(exc), where=where) from exc


def model_to_dict(model: GltModel) -> dict:
    out = graph_to_dict(model.graph)
    out["weights"] = [float(w) for w in model.weights]
    out["thresholds"] = [spec_to_dict(s) for s in model.thresholds]
    return out


def model_from_dict(d: dict, where: str = "model") -> GltModel:
    n = _need(d, "n", where)
    thresholds = _need(d, "thresholds", where)
    if not isinstance(thresholds, list):
        raise SchemaError(f"expected a list of threshold objects, got {thresholds!r}", where=where)
    try:
        specs = [spec_from_dict(t) for t in thresholds]
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc), where=where) from exc
    if is_node_id(n) and n > len(specs):  # refused before the graph builds n per-node lists
        raise SchemaError(f"expected {n} threshold specs, got {len(specs)}", where=where)
    graph = graph_from_dict(d, where=where)
    weights = _need(d, "weights", where)
    try:
        return GltModel(graph, np.asarray(weights, dtype=float), specs)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc), where=where) from exc


def trace_to_dict(trace: Trace) -> dict:
    return {"steps": [sorted(s) for s in trace.steps]}


def _node_ids(values, where):
    """A JSON array of node ids, each a JSON integer (not a float or bool)."""
    if not isinstance(values, list):
        raise SchemaError(f"expected a list of node ids, got {values!r}", where=where)
    for v in values:
        if type(v) is not int:
            raise SchemaError(f"node id {v!r} is not an integer", where=where)
    return values


def trace_from_dict(d: dict, where: str = "trace", graph: Graph = None) -> Trace:
    """Parse a trace; with ``graph``, also check its feasibility there."""
    steps = _need(d, "steps", where)
    if not isinstance(steps, list):
        raise SchemaError(f"expected a list of steps, got {steps!r}", where=where)
    try:
        trace = Trace([_node_ids(step, where) for step in steps])
        return trace if graph is None else validate_trace(graph, trace)
    except ValueError as exc:
        raise SchemaError(str(exc), where=where) from exc


def _write_jsonl(records, path: str):
    """One JSON object per line, each line ending in a newline."""
    lines = [json.dumps(record) for record in records]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def write_traces_jsonl(traces, path: str):
    _write_jsonl((trace_to_dict(t) for t in traces), path)


def _jsonl_records(path: str):
    """``(where, record)`` for each nonblank line of a JSONL file, where
    ``where`` is its ``file:line`` position."""
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(str(exc), where=where) from exc
            yield where, record


def read_traces_jsonl(path: str, graph: Graph = None) -> list:
    """Traces of a JSONL file; with ``graph``, each is checked feasible there."""
    return [trace_from_dict(d, where=where, graph=graph) for where, d in _jsonl_records(path)]


def write_pseudo_jsonl(pseudo_traces, path: str):
    _write_jsonl(({"node": pt.node, "active_parents": sorted(pt.active_parents), "y": pt.y}
                  for pt in pseudo_traces), path)


def read_pseudo_jsonl(path: str, graph: Graph = None) -> list:
    """Pseudo-traces of a JSONL file.

    With ``graph``, each must name a node of it and only that node's parents.
    """
    out = []
    for where, d in _jsonl_records(path):
        node = _need(d, "node", where)
        _node_ids([node], where)
        active = _node_ids(_need(d, "active_parents", where), where)
        y = _need(d, "y", where)
        if type(y) is not int:
            raise SchemaError(f"outcome {y!r} is not an integer", where=where)
        try:
            pt = PseudoTrace(node=node, active_parents=active, y=y)
            if graph is not None:
                stray = pt.active_parents - graph.parents(node)
                if stray:
                    raise ValueError(f"{sorted(stray)} are not parents of node {node}")
            out.append(pt)
        except ValueError as exc:
            raise SchemaError(str(exc), where=where) from exc
    return out


def fit_results_to_dict(results: dict, intervals: dict = None) -> dict:
    """Fit (and optionally inference) output document.

    ``results`` maps node -> NodeFitResult; ``intervals`` optionally maps
    node -> (CovarianceResult, [Interval, ...]).
    """
    nodes = {}
    for v in sorted(results):
        r = results[v]
        entry = {
            "parents": list(r.parents),
            "converged": bool(r.converged),
            "n_obs": int(r.n_obs),
        }
        if r.estimated:
            entry["weights"] = [float(x) for x in r.weights]
            entry["loglik"] = float(r.loglik)
            entry["at_boundary"] = bool(r.at_boundary)
        else:
            entry["error"] = r.error
        if r.phi is not None:
            entry["phi"] = {
                "family": r.phi["family"],
                "params": list(np.atleast_1d(r.phi["params"])),
            }
        if intervals and v in intervals:
            cov, ints = intervals[v]
            entry["valid"] = bool(cov.valid and not r.at_boundary)
            if cov.valid:
                entry["stderr"] = [
                    float(np.sqrt(max(cov.sigma[i, i], 0.0)))
                    for i in range(len(r.parents))
                ]
                entry["ci"] = [[it.lower, it.upper] for it in ints]
        nodes[str(v)] = entry
    return {"nodes": nodes}
