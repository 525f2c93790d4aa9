"""Structural diagnostics: identifiability, submodularity, triggering embedding.

Identifiability of a node's parent weights is decided by collecting every
parent subset that can appear as a newly-activated set while the node is
still inactive and checking, with exact integer arithmetic, whether the 0/1
matrix of achievable subsets has full rank.  One forward search over the
feasible trace prefixes from the seed support serves every node: the
prefixes that leave a node inactive are exactly those its own search would
reach.  ``state_cap`` bounds each node's share of that search, which holds
sets as Python-int bitmasks.

Submodularity and monotonicity of the influence function are checked
exhaustively against exact spreads on small graphs, in one exact-oracle
batch that refuses more than ``node_cap`` seed sets before building them.
The triggering-set embedding solver reconstructs, for an in-degree-3 star,
the unique signed measure a triggering model would need, certifying
non-embeddability when any of its entries is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Graph, SeedDistribution
from .influence import _spread_table, exact_evaluator
from .model import GltModel

SPREAD_TOL = 1e-9  # spread differences the exact checks treat as zero
EMBEDDING_TOL = 1e-9  # negative triggering-set mass treated as zero

__all__ = [
    "NodeIdentifiability",
    "IdentifiabilityReport",
    "SubmodularityViolation",
    "MonotonicityViolation",
    "TriggeringEmbedding",
    "check_identifiability",
    "check_submodularity_exact",
    "check_monotonicity_exact",
    "solve_triggering_embedding",
]


@dataclass
class NodeIdentifiability:
    node: int
    verdict: str  # "identifiable" | "not-identifiable" | "unknown-cap-exceeded"
    parents: tuple
    achievable: tuple  # achievable parent subsets, as frozensets
    rank: int = None
    rank_deficiency: int = None
    witnesses: tuple = None  # subsets whose indicator matrix is invertible
    matrix: tuple = None  # rows: parents, columns: witnesses
    determinant: int = None


@dataclass
class IdentifiabilityReport:
    nodes: dict  # node -> NodeIdentifiability

    @property
    def identifiable(self) -> bool:
        return all(r.verdict == "identifiable" for r in self.nodes.values())

    def verdict(self, v: int) -> str:
        return self.nodes[v].verdict


def _node_mask(nodes) -> int:
    """The bitmask of a collection of int node ids."""
    mask = 0
    for u in nodes:
        mask |= 1 << u
    return mask


def child_masks(graph: Graph) -> list:
    """Per node, the bitmask of its children."""
    return [_node_mask(graph.children(u)) for u in range(graph.n)]


def _frontier_children(child_mask, frontier: int) -> int:
    """The union of ``child_mask`` over the nodes of the ``frontier`` mask."""
    children = 0
    while frontier:
        low = frontier & -frontier
        children |= child_mask[low.bit_length() - 1]
        frontier ^= low
    return children


def _exact_rank_and_pivots(columns, m):
    """Rank over the rationals of an m x k 0/1 matrix given as columns.

    Returns (rank, pivot column indices, determinant of the pivot columns,
    or None when the rank is below m); exact, no floating point.
    """
    reduced = []  # list of (pivot_row, vector) with vector[pivot_row] == 1
    pivots = []
    det = Fraction(1)  # product of the pivots, signed by the lead-row order
    for j, col in enumerate(columns):
        vec = [Fraction(x) for x in col]
        for pivot_row, basis in reduced:
            if vec[pivot_row]:
                factor = vec[pivot_row]
                vec = [a - factor * b for a, b in zip(vec, basis)]
        lead = next((i for i, a in enumerate(vec) if a), None)
        if lead is None:
            continue
        inv = vec[lead]
        vec = [a / inv for a in vec]
        det *= -inv if sum(row > lead for row, _ in reduced) % 2 else inv
        reduced.append((lead, vec))
        pivots.append(j)
        if len(pivots) == m:
            break
    return len(pivots), pivots, int(det) if len(pivots) == m else None


def _achievable_subsets(graph, support, state_cap, counting=False):
    """Per child node v, the masks F & P(v) over the reachable (A, F) with v
    outside A, by one depth-first search over states ``A << n | F``; and the
    mask of the nodes capped as :func:`check_identifiability` says.  A search
    that outgrows ``state_cap`` states restarts, counting states per node and
    keeping a state only while an uncapped child node is outside its A."""
    n, child_mask, full = graph.n, child_masks(graph), (1 << graph.n) - 1
    nodes = uncapped = _node_mask(graph.child_nodes())
    states = {m << n | m for m in {_node_mask(s) for s, p in support if p > 0} if nodes & ~m}
    stack, count, nonseed, children, seen = list(states), [0] * n, 0, {}, {}
    while stack:
        state = stack.pop()
        active, frontier = state >> n, state & full
        free = uncapped & ~active
        if not free:
            continue
        while counting and free:  # count the state toward each uncapped node outside A
            v = (free & -free).bit_length() - 1
            free ^= 1 << v
            count[v] += 1
            nonseed |= (active != frontier) << v
            if count[v] > state_cap and nonseed >> v & 1:
                uncapped ^= 1 << v
        cand = children.get(frontier)
        if cand is None:
            cand = children[frontier] = _frontier_children(child_mask, frontier)
        cand &= ~active
        seen[frontier] = seen.get(frontier, 0) | cand  # the candidates met with this frontier
        sub = cand
        while sub:
            grown = active | sub
            new = grown << n | sub
            if new not in states and uncapped & ~grown:
                if len(states) >= state_cap and not counting:
                    return _achievable_subsets(graph, support, state_cap, True)
                states.add(new)
                stack.append(new)
            sub = (sub - 1) & cand
    parent_mask = {v: _node_mask(graph.parent_list(v)) for v in graph.child_nodes()}
    found = {v: {f & mask for f, cand in seen.items() if cand >> v & 1} for v, mask in parent_mask.items()}
    return found, nodes & ~uncapped


def check_identifiability(graph: Graph, seed_distribution: SeedDistribution, state_cap: int = 100_000) -> IdentifiabilityReport:
    """Theorem-style identifiability verdict for every child node.

    A node is identifiable iff the achievable parent subsets contain m of
    them whose 0/1 incidence matrix is invertible; rank decisions use exact
    integer arithmetic.  One forward search from the seed support collects
    every node's subsets.  A node gets the verdict "unknown-cap-exceeded",
    with a partial list of subsets, when more than ``state_cap`` of the
    search's states leave it inactive and one of them is not a seed state.
    """
    if state_cap < 1:
        raise ValueError(f"state_cap must be at least 1, got {state_cap}")
    support = [(frozenset(map(graph._check, s)), p) for s, p in seed_distribution.explicit_support(graph.n)]
    found, capped = _achievable_subsets(graph, support, state_cap)
    nodes = {}
    for v in graph.child_nodes():
        parents = graph.parent_list(v)
        subsets = tuple(
            frozenset(u for u in parents if mask >> u & 1) for mask in sorted(found[v])
        )
        nodes[v] = record = NodeIdentifiability(v, "unknown-cap-exceeded", parents, subsets)
        if capped >> v & 1:
            continue
        columns = [[1 if u in s else 0 for u in parents] for s in subsets]
        record.rank, pivots, record.determinant = _exact_rank_and_pivots(columns, len(parents))
        record.rank_deficiency = len(parents) - record.rank
        if record.rank_deficiency:
            record.verdict = "not-identifiable"
        else:
            record.verdict = "identifiable"
            record.witnesses = tuple(subsets[j] for j in pivots)
            record.matrix = tuple(tuple(1 if u in s else 0 for s in record.witnesses) for u in parents)
    return IdentifiabilityReport(nodes=nodes)


# -- submodularity -------------------------------------------------------------


@dataclass(frozen=True)
class SubmodularityViolation:
    node: int
    subset: frozenset
    superset: frozenset
    gain_at_subset: float
    gain_at_superset: float

    @property
    def magnitude(self) -> float:
        return self.gain_at_superset - self.gain_at_subset


@dataclass(frozen=True)
class MonotonicityViolation:
    subset: frozenset
    superset: frozenset
    spread_subset: float
    spread_superset: float


def _mask_to_set(mask):
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _exact_scan(model: GltModel, budget: int, node_cap: int):
    """The exact spread of each seed set of up to ``budget + 1`` nodes, keyed
    by bitmask, and the ``(S, S + v)`` bitmask pairs with ``|S| <= budget``
    and v outside S, S in increasing bitmask order, then v."""
    n = model.graph.n
    table = _spread_table(exact_evaluator(model, "exact", node_cap), n, range(min(budget + 1, n) + 1))
    sigma = {_node_mask(s): value for s, value in table.items()}
    bases = sorted(m for m in sigma if m.bit_count() <= budget)
    return sigma, [(s, s | 1 << v) for s in bases for v in range(n) if not s >> v & 1]


def check_submodularity_exact(model: GltModel, max_budget: int = None, node_cap: int = 10**6) -> list:
    """Exhaustive diminishing-returns check against exact spreads.

    Tests sigma(S' + v) - sigma(S') >= sigma(S + v) - sigma(S) for every
    S' subset of S with |S| <= max_budget (default: all sets) and v outside
    S, flagging violations beyond ``SPREAD_TOL``.  Only feasible on graphs
    small enough for exact spread enumeration.  Refuses a negative budget.
    """
    n = model.graph.n
    if max_budget is not None and max_budget < 0:
        raise ValueError(f"max_budget must be nonnegative, got {max_budget}")
    sigma, pairs = _exact_scan(model, n if max_budget is None else min(max_budget, n), node_cap)
    violations = []
    for s_mask, grown in pairs:
        bit = grown ^ s_mask
        gain_s = sigma[grown] - sigma[s_mask]
        sub = s_mask
        while sub:  # the proper subsets S' of S, in decreasing bitmask order
            sub = (sub - 1) & s_mask
            gain_sub = sigma[sub | bit] - sigma[sub]
            if gain_sub < gain_s - SPREAD_TOL:
                violations.append(SubmodularityViolation(
                    bit.bit_length() - 1, _mask_to_set(sub), _mask_to_set(s_mask), gain_sub, gain_s))
    return violations


def check_monotonicity_exact(model: GltModel, node_cap: int = 10**6) -> list:
    """Exhaustive sigma(S) <= sigma(S + v) check (should never fail), flagging
    decreases beyond ``SPREAD_TOL``."""
    sigma, pairs = _exact_scan(model, model.graph.n, node_cap)
    return [MonotonicityViolation(_mask_to_set(s), _mask_to_set(t), sigma[s], sigma[t])
            for s, t in pairs if sigma[t] < sigma[s] - SPREAD_TOL]


# -- triggering embedding --------------------------------------------------------


@dataclass
class TriggeringEmbedding:
    probabilities: dict  # frozenset of parent labels -> solved mass
    feasible: bool
    negative_sets: tuple

    def mass(self, subset) -> float:
        return self.probabilities[frozenset(subset)]


def solve_triggering_embedding(model_or_weights, cdf=None) -> TriggeringEmbedding:
    """Solve for the triggering-set distribution matching a 3-star model.

    Accepts either a GltModel on a star of in-degree 3 (child cdf and
    weights extracted) or a 3-vector of weights together with an explicit
    cdf callable.  The 8 subset masses are the solution of the linear
    system equating the activation probability of every seed subset; the
    embedding is infeasible as a distribution when any mass is negative
    beyond ``EMBEDDING_TOL``.
    """
    if isinstance(model_or_weights, GltModel):
        graph = model_or_weights.graph
        child = [v for v in range(graph.n) if graph.in_degree(v) == 3]
        if len(child) != 1 or graph.edge_count() != 3:
            raise ValueError("expected a star graph with a single in-degree-3 child")
        child = child[0]
        labels = graph.parent_list(child)
        weights = model_or_weights.theta(child)
        cdf = model_or_weights.spec(child).cdf
    else:
        weights = np.asarray(model_or_weights, dtype=float)
        if weights.shape != (3,):
            raise ValueError(f"expected 3 weights, got shape {weights.shape}")
        if cdf is None:
            raise ValueError("an explicit cdf is required with raw weights")
        labels = (0, 1, 2)
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for row, t_mask in enumerate(range(1, 8)):
        for s_mask in range(8):
            if s_mask & t_mask:
                a[row, s_mask] = 1.0
        b[row] = cdf(sum(weights[i] for i in range(3) if t_mask >> i & 1))
    a[7, :] = 1.0
    b[7] = 1.0
    try:
        p = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"triggering-embedding system is singular: {exc}") from exc
    probabilities = {}
    for s_mask in range(8):
        subset = frozenset(labels[i] for i in range(3) if s_mask >> i & 1)
        probabilities[subset] = float(p[s_mask])
    negative = tuple(s for s, q in probabilities.items() if q < -EMBEDDING_TOL)
    return TriggeringEmbedding(
        probabilities=probabilities,
        feasible=not negative,
        negative_sets=negative,
    )
