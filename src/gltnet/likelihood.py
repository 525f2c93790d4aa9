"""Per-node sufficient data and log-likelihood evaluation.

For a child node v, every (trace, time) pair at which v gains a newly active
parent, up to the last time v is inactive, contributes a row: the cumulative
0/1 parent indicators before and after the gain, plus an outcome.  All rows
come from one (traces x n) table of first-active rounds r (``model.NEVER``
for nodes that never activate), read once per trace set.  With v's last
inactive round ``r_v - 1`` (or the horizon if v never activates; -1 if v is
seeded), the rows are the distinct (trace, parent round <= last) keys in
trace-then-round order, ``z_curr = parent rounds <= round``, and ``z_prev``
is the trace's previous row (zeros for its first).  Intermediate
non-activation rows are kept for bookkeeping (they determine the sample size
N_v) but marked FOLDED: the trace likelihood telescopes them away, so only
each trace's last row, the activation row or the final-exposure row,
carries a likelihood term:

    activated-now row:         log[F(theta clast) - F(theta cprev)]
    not-activated-terminal:    log[1 - F(theta clast)]

Gradients and Hessians are analytic, using the threshold density and its
derivative.  Rows are aggregated by distinct indicator patterns before
evaluation, which makes the cost per likelihood call independent of the
number of traces.

The value, gradient and Hessian share one kernel, which never branches on
the threshold family and evaluates a stack of nodes at once (the per-node
functions are stacks of one).  It computes each array once per evaluation:
the arguments ``z @ theta``, then the unchecked ``ThresholdSpec`` forms
``_interval`` and ``_sf``, their logs ``_log_interval`` and ``_log_sf`` for
the value, ``_density`` for the gradient or Hessian and
``_density_derivative`` for the Hessian; ``z @ theta`` with 0/1 indicators
and positive weights is never negative, so no argument check is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph, is_node_id
from .model import NEVER, ZeroProbabilityError, _activation_rounds, validate_trace

__all__ = [
    "ROW_TERMINAL",
    "ROW_ACTIVATED",
    "ROW_FOLDED",
    "NodeData",
    "PseudoTrace",
    "build_node_data",
    "build_all_node_data",
    "build_pseudo_node_data",
    "node_log_likelihood",
    "node_value_and_gradient",
    "node_gradient",
    "node_hessian",
]

ROW_TERMINAL = 0
ROW_ACTIVATED = 1
ROW_FOLDED = -1


@dataclass
class NodeData:
    """Observation rows for one child node.

    ``n_obs`` counts every row (including folded ones): it is the number of
    times the node acquired a newly active parent across all traces, the
    effective sample size of the node's fit.
    """

    node: int
    parents: tuple
    z_prev: np.ndarray  # (rows, m) uint8, cumulative parent indicator before
    z_curr: np.ndarray  # (rows, m) uint8, cumulative parent indicator after
    outcome: np.ndarray  # (rows,) int8
    trace_index: np.ndarray  # (rows,) int64

    @property
    def n_obs(self) -> int:
        return int(self.outcome.shape[0])

    @property
    def n_informative_rows(self) -> int:
        return int(np.sum(self.outcome != ROW_FOLDED))

    def compressed(self):
        """Distinct (z_prev, z_curr) patterns with counts, per outcome kind:
        ``(zp_act, zc_act, w_act, zc_term, w_term)``, separate float64 arrays."""
        return self._patterns

    @cached_property
    def _patterns(self):
        def _group(rows):
            # each 0/1 row packed into one void scalar; the packed bytes
            # compare in the lexicographic order of the rows
            packed = np.packbits(rows, axis=1)
            keys = np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1])))
            _, first, counts = np.unique(keys.ravel(), return_index=True, return_counts=True)
            return rows[first], counts.astype(float)

        m = len(self.parents)
        act = self.outcome == ROW_ACTIVATED
        uniq_a, w_a = _group(np.hstack([self.z_prev[act], self.z_curr[act]]))
        uniq_t, w_t = _group(self.z_curr[self.outcome == ROW_TERMINAL])
        # astype copies each block into its own C-contiguous array; strided
        # views of one array change the rounding of the kernel's BLAS products
        return uniq_a[:, :m].astype(float), uniq_a[:, m:].astype(float), w_a, uniq_t.astype(float), w_t


@dataclass(frozen=True)
class PseudoTrace:
    """A partial observation: did the active-parent set A_v activate v?"""

    node: int
    active_parents: frozenset
    y: int

    def __post_init__(self):
        parents = frozenset(self.active_parents)
        for u in (self.node, *parents):
            if not is_node_id(u):
                raise ValueError(f"node id {u!r} is not an integer")
        object.__setattr__(self, "active_parents", frozenset(map(int, parents)))
        if not self.active_parents:
            raise ValueError("a pseudo-trace with no active parents carries no information")
        if self.y not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {self.y}")


def build_node_data(traces, graph: Graph, v: int, validate: bool = True) -> NodeData:
    """Extract node v's rows from full traces (one node of :func:`build_all_node_data`).

    Seeded appearances contribute nothing; traces where v never has an
    active parent contribute nothing.  Rows stop at the last time v is
    inactive.
    """
    parents = graph.parent_list(v)
    if not parents:
        raise ValueError(f"node {v} has no parents")
    if validate:
        traces = [validate_trace(graph, t) for t in traces]
    return _node_rows(*_activation_rounds(traces, graph.n), parents, v)


def build_all_node_data(traces, graph: Graph, validate: bool = True) -> dict:
    """Rows of every child node, ``{v: NodeData}`` in ``graph.child_nodes()`` order.

    Each trace is checked once and read once, into the activation-round
    table.  ``validate=False`` skips the check for traces already known to
    be feasible on ``graph``.
    """
    if validate:
        traces = [validate_trace(graph, t) for t in traces]
    rounds, horizons = _activation_rounds(traces, graph.n)
    return {v: _node_rows(rounds, horizons, graph.parent_list(v), v) for v in graph.child_nodes()}


def _node_rows(rounds, horizons, parents, v) -> NodeData:
    """Node v's rows from the activation-round table (see the module docstring)."""
    r_v = rounds[:, v]
    last = np.where(r_v == NEVER, horizons, r_v - 1)
    parent_rounds = rounds[:, list(parents)]
    gained = parent_rounds <= last[:, None]
    # distinct (trace, gain round) keys, sorted by trace, then round
    span = horizons.max(initial=0) + 1
    keys = np.unique(np.nonzero(gained)[0] * span + parent_rounds[gained])
    trace_index, t = np.divmod(keys, span)
    z_curr = (parent_rounds[trace_index] <= t[:, None]).astype(np.uint8)
    first = np.diff(trace_index, prepend=-1) != 0  # each trace's first row
    final = np.diff(trace_index, append=-1) != 0  # and its last
    z_prev = np.roll(z_curr, 1, axis=0) * ~first[:, None]
    outcome = np.full(keys.size, ROW_FOLDED, dtype=np.int8)
    outcome[final] = np.where(r_v[trace_index[final]] == NEVER, ROW_TERMINAL, ROW_ACTIVATED)
    return NodeData(v, parents, z_prev, z_curr, outcome, trace_index)


def build_pseudo_node_data(pseudo_traces, v: int, graph: Graph) -> NodeData:
    """Node data from pseudo-traces (v, A_v, y); z_prev is identically zero."""
    parents = graph.parent_list(v)
    index = {u: j for j, u in enumerate(parents)}
    pseudo_traces = list(pseudo_traces)
    z_curr = np.zeros((len(pseudo_traces), len(parents)), dtype=np.uint8)
    for n, pt in enumerate(pseudo_traces):
        if pt.node != v:
            raise ValueError(f"pseudo-trace references node {pt.node}, expected {v}")
        for u in pt.active_parents:
            j = index.get(u)
            if j is None:
                raise ValueError(f"parent {u} is not a parent of node {v}")
            z_curr[n, j] = 1
    outcomes = [ROW_ACTIVATED if pt.y else ROW_TERMINAL for pt in pseudo_traces]
    outcome = np.array(outcomes, dtype=np.int8)
    trace_index = np.arange(len(pseudo_traces), dtype=np.int64)
    return NodeData(v, parents, np.zeros_like(z_curr), z_curr, outcome, trace_index)


def _stack(datas, m: int):
    """The patterns of the nodes ``datas`` in zero-padded (nodes x patterns x
    ``m``) arrays: ``(zp_a, zc_a, w_a, zc_t, w_t, empty, pad_a, pad_t)``, the
    masks marking activation rows with no previously active parent and the
    padding rows.  Padding rows weigh 0."""
    n = len(datas)
    n_a, n_t = (np.array([d._patterns[i].size for d in datas]) for i in (2, 4))
    a, t = n_a.max(), n_t.max()
    zp_a, zc_a, zc_t, w_a, w_t = (np.zeros(shape) for shape in ((n, a, m), (n, a, m), (n, t, m), (n, a), (n, t)))
    for b, d in enumerate(datas):
        zp, zc, wa, zt, wt = d._patterns
        k = zp.shape[1]
        zp_a[b, : wa.size, :k], zc_a[b, : wa.size, :k], w_a[b, : wa.size] = zp, zc, wa
        zc_t[b, : wt.size, :k], w_t[b, : wt.size] = zt, wt
    return zp_a, zc_a, w_a, zc_t, w_t, ~zp_a.any(axis=2), np.arange(a) >= n_a[:, None], np.arange(t) >= n_t[:, None]


def _evaluate(stack, theta, spec, order: int):
    """The likelihood kernel at ``theta`` (nodes x m) for a :func:`_stack`:
    ``(value, grad, hess, vanished)``, the gradient from ``order`` 1 and the
    Hessian from ``order`` 2 (else None).  ``vanished`` is 1 where an
    activation factor vanished, 2 where only a survival factor did (value
    -inf, the rest meaningless), else 0.  A stack of one rounds like a
    per-node kernel; in a larger stack, zero padding can move low bits.
    Padding rows sit at the threshold median, where every factor is finite
    and nonzero, so they add exact zeros."""
    zp_a, zc_a, w_a, zc_t, w_t, empty, pad_a, pad_t = stack
    column = theta[:, :, None]
    x_a, y_a, x_t = (zc_a @ column)[..., 0], (zp_a @ column)[..., 0], (zc_t @ column)[..., 0]
    x_a[pad_a] = x_t[pad_t] = spec._median
    diffs = spec._interval(x_a, y_a)
    surv = spec._sf(x_t)
    tol = spec.interval_zero_tol()
    vanished = np.where((diffs <= tol).any(axis=1), 1, 2 * (surv <= tol).any(axis=1))
    grad = hess = None
    # only a node with a vanished factor divides by zero or takes log(0)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.zeros(len(theta))
        value += _dot(w_a, spec._log_interval(x_a, y_a, diffs))
        value += _dot(w_t, spec._log_sf(x_t, surv))
        value[vanished > 0] = -np.inf
        if order == 0:
            return value, grad, hess, vanished
        # an all-zero z_prev row contributes nothing regardless of the density
        # value at 0, which may be infinite (e.g. beta with alpha < 1)
        fx, ft = spec._density(x_a), spec._density(x_t)
        fy = np.where(empty, 0.0, spec._density(y_a))
        grad = np.zeros(theta.shape)
        grad += _gram(zc_a, w_a * fx / diffs) - _gram(zp_a, w_a * fy / diffs)
        grad -= _gram(zc_t, w_t * ft / surv)
        if order == 1:
            return value, grad, hess, vanished
        dfx, dft = spec._density_derivative(x_a), spec._density_derivative(x_t)
        dfy = np.where(empty, 0.0, spec._density_derivative(y_a))
        hess = np.zeros(theta.shape + theta.shape[-1:])
        coef_cc = w_a * (dfx / diffs - (fx / diffs) ** 2)
        coef_pp = w_a * (-dfy / diffs - (fy / diffs) ** 2)
        coef_cp = w_a * fx * fy / diffs**2
        hess += _gram(zc_a, coef_cc, zc_a)
        hess += _gram(zp_a, coef_pp, zp_a)
        cross = _gram(zc_a, coef_cp, zp_a)
        hess += cross + cross.transpose(0, 2, 1)
        hess += _gram(zc_t, w_t * (-dft / surv - (ft / surv) ** 2), zc_t)
    return value, grad, hess, vanished


def _dot(u, v):
    """Row-wise dot products of two (nodes x k) arrays."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _gram(z, coef, other=None):
    """Per node, ``(z * coef[:, None]).T @ other``, or ``z.T @ coef`` without ``other``."""
    if other is None:
        return (z.transpose(0, 2, 1) @ coef[:, :, None])[..., 0]
    return (z * coef[:, :, None]).transpose(0, 2, 1) @ other


def _single(node_data: NodeData, theta, spec, order: int):
    """The kernel on one node: ``(value, grad, hess)``, raising
    :class:`ZeroProbabilityError` where a likelihood factor vanished."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(node_data.parents),):
        raise ValueError(f"theta has shape {theta.shape}, node {node_data.node} has {len(node_data.parents)} parents")
    value, grad, hess, vanished = _evaluate(_stack([node_data], theta.size), theta[None], spec, order)
    if vanished[0]:
        kind = "activation" if vanished[0] == 1 else "survival"
        raise ZeroProbabilityError(node_data.node, None, f"{kind} factor vanished at this theta")
    return float(value[0]), grad, hess


def node_log_likelihood(node_data: NodeData, theta, spec) -> float:
    """Log-likelihood of node_data at parent weights theta."""
    return _single(node_data, theta, spec, 0)[0]


def node_value_and_gradient(node_data: NodeData, theta, spec):
    """Log-likelihood and its analytic gradient, in one pass."""
    value, grad, _ = _single(node_data, theta, spec, 1)
    return value, grad[0]


def node_gradient(node_data: NodeData, theta, spec) -> np.ndarray:
    return node_value_and_gradient(node_data, theta, spec)[1]


def node_hessian(node_data: NodeData, theta, spec) -> np.ndarray:
    """Analytic Hessian of the node log-likelihood (exactly symmetric)."""
    return _single(node_data, theta, spec, 2)[2][0]
