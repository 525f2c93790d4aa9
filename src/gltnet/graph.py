"""Directed graphs with a canonical edge order, plus the synthetic generators.

Edges are stored sorted lexicographically by (child, parent), so per-child
weight vectors occupy contiguous slices of any edge-aligned array and the
parent order within a child is ascending node index.  Node indices are
0-based.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .rng import as_generator

__all__ = [
    "Graph",
    "GraphError",
    "SeedDistribution",
    "build_graph",
    "children_of_set",
    "generate_cws",
    "sample_weights_simplex",
    "sample_seed",
]


_INTEGER_TYPES = (int, np.integer)
CWS_MAX_ATTEMPTS = 100  # generate_cws draws before giving up on connectivity
SUPPORT_MAX_SETS = 200_000  # largest uniform-by-size support explicit_support enumerates
_MAX_NODES = 10**6  # largest node count a Graph or generate_cws takes; Graph(_MAX_NODES, []) peaks near 0.25 GB


def is_node_id(v) -> bool:
    """True for an integer node id; ``bool`` is excluded, as in the JSON readers."""
    return isinstance(v, _INTEGER_TYPES) and type(v) is not bool


class GraphError(ValueError):
    """Invalid graph construction or query."""


def _check_node_count(n):
    """Refuse a node count that is not an integer in [0, _MAX_NODES], before
    anything is allocated per node."""
    if not is_node_id(n):
        raise GraphError(f"node count {n!r} is not an integer")
    if n < 0:
        raise GraphError(f"node count must be nonnegative, got {n}")
    if n > _MAX_NODES:
        raise GraphError(f"node count n={n} exceeds the ceiling {_MAX_NODES}")


class Graph:
    """Simple directed graph with edges sorted by (child, parent).

    Immutable after construction; all accessors return fresh sets so callers
    can mutate them freely.
    """

    __slots__ = ("n", "edges", "_parents", "_children", "_child_offsets", "_parent_index")

    def __init__(self, n: int, edge_list):
        _check_node_count(n)
        edges = []
        for e in edge_list:
            for v in (e[0], e[1]):
                if not is_node_id(v):
                    raise GraphError(f"node id {v!r} is not an integer")
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            edges.append((u, v))
        edges.sort(key=lambda e: (e[1], e[0]))
        for a, b in zip(edges, edges[1:]):
            if a == b:
                raise GraphError(f"duplicate edge {a}")
        self.n = n
        self.edges = tuple(edges)
        par = [[] for _ in range(n)]
        chi = [[] for _ in range(n)]
        for u, v in edges:
            par[v].append(u)
            chi[u].append(v)
        self._parents = tuple(tuple(p) for p in par)
        self._children = tuple(tuple(sorted(c)) for c in chi)
        # the child-by-parent edge matrix in CSR form: row offsets, parent indices
        self._child_offsets = np.cumsum([0] + [len(p) for p in par], dtype=np.int64)
        self._parent_index = np.array([u for u, _ in edges], dtype=np.int64)

    # -- neighborhoods -----------------------------------------------------

    def parents(self, v: int) -> set:
        self._check(v)
        return set(self._parents[v])

    def children(self, v: int) -> set:
        self._check(v)
        return set(self._children[v])

    def parent_list(self, v: int) -> tuple:
        """Parents of v in canonical (ascending-index) order."""
        self._check(v)
        return self._parents[v]

    def in_degree(self, v: int) -> int:
        self._check(v)
        return len(self._parents[v])

    def child_slice(self, v: int) -> slice:
        """Slice of the canonical edge order holding v's parent edges."""
        self._check(v)
        return slice(int(self._child_offsets[v]), int(self._child_offsets[v + 1]))

    def child_nodes(self) -> list:
        """Nodes with at least one parent (the only ones that can activate)."""
        return [v for v in range(self.n) if self._parents[v]]

    def edge_count(self) -> int:
        return len(self.edges)

    def _check(self, v) -> int:
        """``v`` as an int node id; GraphError unless an integer in range."""
        if not is_node_id(v):
            raise GraphError(f"node id {v!r} is not an integer")
        if not 0 <= v < self.n:
            raise GraphError(f"node {v} out of range for n={self.n}")
        return int(v)

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def build_graph(node_count: int, edge_list) -> Graph:
    """Build a simple directed graph; any edge-list order is canonicalized."""
    return Graph(node_count, edge_list)


def children_of_set(graph: Graph, nodes) -> set:
    """Union of children of nodes in S, excluding S itself."""
    s = set(nodes)
    out = set()
    for v in s:
        out.update(graph.children(v))
    return out - s


# -- synthetic generators --------------------------------------------------


def _weakly_connected(n, undirected_edges) -> bool:
    if n == 0:
        return True
    adj = [[] for _ in range(n)]
    for u, v in undirected_edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == n


def _watts_strogatz_edges(n, k, p, rng):
    # ring lattice: each node linked to its k/2 nearest neighbours per side,
    # then each edge's far endpoint rewired with probability p
    half = k // 2
    neighbours = [set() for _ in range(n)]
    for u in range(n):
        for j in range(1, half + 1):
            neighbours[u].add((u + j) % n)
            neighbours[(u + j) % n].add(u)
    for j in range(1, half + 1):
        for u in range(n):
            v = (u + j) % n
            if p > 0 and rng.random() < p:
                if len(neighbours[u]) >= n - 1:
                    continue  # u already linked to everyone else
                w = int(rng.integers(0, n))
                while w == u or w in neighbours[u]:
                    w = int(rng.integers(0, n))
                if v in neighbours[u]:
                    neighbours[u].discard(v)
                    neighbours[v].discard(u)
                    neighbours[u].add(w)
                    neighbours[w].add(u)
    edges = set()
    for u in range(n):
        for v in neighbours[u]:
            edges.add((min(u, v), max(u, v)))
    return edges


def generate_cws(n: int, k: int, p: float, rng) -> Graph:
    """Connected Watts-Strogatz graph with each undirected edge doubled.

    Rewiring runs on the undirected skeleton; the returned directed graph has
    exactly ``k * n`` edges.  Regenerates until the skeleton is connected,
    raising after ``CWS_MAX_ATTEMPTS`` failures.
    """
    if not (n > k >= 2):
        raise GraphError(f"need n > k >= 2, got n={n}, k={k}")
    if k % 2 != 0:
        raise GraphError(f"ring-lattice degree k must be even, got {k}")
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"rewiring probability p must be in [0, 1], got {p}")
    _check_node_count(n)
    rng = as_generator(rng)
    for _ in range(CWS_MAX_ATTEMPTS):
        undirected = _watts_strogatz_edges(n, k, p, rng)
        if len(undirected) == n * k // 2 and _weakly_connected(n, undirected):
            directed = [(u, v) for u, v in undirected] + [(v, u) for u, v in undirected]
            return Graph(n, directed)
    raise GraphError(
        f"no connected Watts-Strogatz graph in {CWS_MAX_ATTEMPTS} attempts "
        f"(n={n}, k={k}, p={p})"
    )


def sample_weights_simplex(graph: Graph, d_max: float, rng) -> np.ndarray:
    """Per child node, draw parent weights uniformly from the scaled simplex.

    theta_v ~ Unif{w >= 0, ||w||_1 <= d_max}, realized by normalizing m+1
    i.i.d. standard exponentials and dropping the last coordinate (a flat
    Dirichlet), which is exact and rejection-free.  The returned vector is
    aligned to the canonical edge order, and per-child sums are clamped so
    that ||theta_v||_1 <= d_max holds exactly in floating point.
    """
    if not 0 < d_max < np.inf:
        raise GraphError(f"d_max must be finite and positive, got {d_max}")
    rng = as_generator(rng)
    weights = np.zeros(graph.edge_count())
    for v in range(graph.n):
        m = graph.in_degree(v)
        if m == 0:
            continue
        e = rng.standard_exponential(m + 1)
        weights[graph.child_slice(v)] = _cap_sum(d_max * (e[:m] / e.sum()), d_max)
    return weights


def _cap_sum(x: np.ndarray, bound: float) -> np.ndarray:
    """``x`` with ulps shaved off its largest entry, in place, until its float
    sum is at most ``bound``: scaled weights meant to sum to ``bound`` can
    round an ulp above it (e.g. 7 * (1/7) > 1)."""
    while x.sum() > bound:
        j = int(np.argmax(x))
        x[j] = np.nextafter(x[j], 0.0)
    return x


# -- seed distributions ----------------------------------------------------


@dataclass(frozen=True)
class SeedDistribution:
    """Distribution of the initial active set.

    Either an explicit finite ``support`` of (node set, probability) pairs,
    or the uniform-by-size law parameterized by ``s_max``: draw a size s
    uniformly on {1, ..., s_max}, then a uniform s-subset of the nodes.
    ``explicit_support`` enumerates the latter up to ``SUPPORT_MAX_SETS`` sets.
    """

    support: tuple = None
    s_max: int = None

    def __post_init__(self):
        if (self.support is None) == (self.s_max is None):
            raise GraphError("specify exactly one of support / s_max")
        if self.support is not None:
            sup = tuple((frozenset(s), float(p)) for s, p in self.support)
            if not sup:
                raise GraphError("explicit seed support is empty")
            total = 0.0
            for s, p in sup:
                if not s:
                    raise GraphError("seed support must exclude the empty set")
                if p < 0:
                    raise GraphError("seed probabilities must be nonnegative")
                total += p
            if abs(total - 1.0) > 1e-9:
                raise GraphError(f"seed probabilities sum to {total}, expected 1")
            object.__setattr__(self, "support", sup)
        else:
            if self.s_max < 1:
                raise GraphError(f"s_max must be >= 1, got {self.s_max}")

    @staticmethod
    def explicit(support) -> "SeedDistribution":
        return SeedDistribution(support=tuple(support))

    @staticmethod
    def uniform_by_size(s_max: int) -> "SeedDistribution":
        return SeedDistribution(s_max=s_max)

    def sample(self, n: int, rng) -> set:
        rng = as_generator(rng)
        if self.support is not None:
            u = rng.random()
            acc = 0.0
            for s, p in self.support:
                acc += p
                if u < acc:
                    return set(s)
            return set(self.support[-1][0])
        s_max = min(self.s_max, n)
        if s_max < 1:
            raise GraphError("graph has no nodes to seed")
        size = int(rng.integers(1, s_max + 1))
        return set(int(x) for x in rng.choice(n, size=size, replace=False))

    def explicit_support(self, n: int) -> tuple:
        """Expand to an explicit (frozenset, probability) list.

        Uniform-by-size laws are enumerated; refuses when the support would
        exceed ``SUPPORT_MAX_SETS``.
        """
        if self.support is not None:
            return self.support
        s_max = min(self.s_max, n)
        total_sets = sum(comb(n, s) for s in range(1, s_max + 1))
        if total_sets > SUPPORT_MAX_SETS:
            raise GraphError(
                f"uniform-by-size support has {total_sets} sets, above the "
                f"cap {SUPPORT_MAX_SETS}"
            )
        out = []
        for s in range(1, s_max + 1):
            p = 1.0 / (s_max * comb(n, s))
            for subset in combinations(range(n), s):
                out.append((frozenset(subset), p))
        return tuple(out)


def sample_seed(seed_dist: SeedDistribution, graph: Graph, rng) -> set:
    """Draw a nonempty seed set from the declared distribution."""
    seed = seed_dist.sample(graph.n, rng)
    for v in seed:
        graph._check(v)
    return seed
