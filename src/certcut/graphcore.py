"""Simple undirected graphs and the structural statistics the cut algorithms
consume: degeneracy orders, triangle and clique counts, induced subgraphs, and
exact cut bookkeeping.

All types are immutable after construction; all operations are pure functions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    BudgetExceeded,
    DuplicateEdge,
    LabelSizeMismatch,
    OutOfRangeVertex,
    SelfLoop,
    VertexOutOfRange,
)

Edge = tuple[int, int]

CLIQUE_STEP_BUDGET = 10**9


def _adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(a)) for a in adj)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``edges`` is sorted with u < v in every pair; ``adjacency`` lists are
    sorted and consistent with it. Build instances via :meth:`from_edges`,
    which validates (no self-loops, no duplicates, ids in range).
    """

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 0:
            raise VertexOutOfRange(f"vertex count {n} is negative")
        seen = set()
        norm = []
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u}, {v}) outside [0, {n})")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise DuplicateEdge(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        norm.sort()
        return cls(n, tuple(norm), _adjacency(n, norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def adj_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(a) for a in self.adjacency)

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays ``(eu, ev)`` of ``edges``, in edge order."""
        flat = np.fromiter(chain.from_iterable(self.edges), dtype=np.intp, count=2 * self.m)
        pairs = flat.reshape(self.m, 2)
        return np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])

    @cached_property
    def degeneracy_order(self) -> DegeneracyOrder:
        """Canonical degeneracy order, computed once per graph."""
        return degeneracy_order(self)

    @cached_property
    def triangles(self) -> int:
        """Number of 3-cliques, counted once per graph."""
        return count_triangles(self)

    def crossing_count(self, labels: np.ndarray) -> int:
        """Number of edges whose endpoints carry different ``labels``."""
        eu, ev = self.edge_index
        return int(np.count_nonzero(labels[eu] != labels[ev]))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj_sets[u]

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Cut:
    """A 2-labeling of the vertices with its cached crossing-edge count."""

    side: tuple[int, ...]
    value: int

    def flipped(self) -> "Cut":
        return Cut(tuple(1 - s for s in self.side), self.value)


EMPTY_CUT = Cut((), 0)


@dataclass(frozen=True)
class DegeneracyOrder:
    """A vertex order in which every vertex has few earlier neighbors.

    ``back_neighbors[v]`` is the set of neighbors of ``v`` that appear before
    it in ``order``; ``degeneracy`` is the maximum back-degree, which for the
    canonical order equals the graph degeneracy exactly.
    """

    order: tuple[int, ...]
    back_neighbors: tuple[frozenset[int], ...]
    degeneracy: int

    @cached_property
    def position(self) -> tuple[int, ...]:
        pos = [0] * len(self.order)
        for i, v in enumerate(self.order):
            pos[v] = i
        return tuple(pos)


def degeneracy_order(g: Graph) -> DegeneracyOrder:
    """Canonical degeneracy order via minimum-degree peeling.

    Repeatedly removes a minimum-degree vertex (lowest id on ties) and lists
    the removal sequence reversed, so each vertex's back-neighbors are exactly
    its residual neighbors at removal time. The resulting maximum back-degree
    is the exact graph degeneracy.
    """
    n = g.n
    deg = [g.degree(v) for v in range(n)]
    removed = [False] * n
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removal = []
    degeneracy = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        removal.append(v)
        degeneracy = max(degeneracy, d)
        for w in g.adjacency[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    order = tuple(reversed(removal))
    pos = {v: i for i, v in enumerate(order)}
    back = tuple(
        frozenset(w for w in g.adjacency[v] if pos[w] < pos[v]) for v in range(n)
    )
    return DegeneracyOrder(order, back, degeneracy)


def count_triangles(g: Graph) -> int:
    """Exact number of 3-cliques."""
    adj = g.adj_sets
    total = 0
    for u, v in g.edges:
        a, b = adj[u], adj[v]
        if len(a) > len(b):
            a, b = b, a
        total += sum(1 for w in a if w > v and w in b)
    return total


def count_back_triangles(g: Graph, order: DegeneracyOrder) -> tuple[int, ...]:
    """Per-vertex count of triangles closed inside the back-neighbor set.

    Summing over all vertices recovers the global triangle count for any
    valid order.
    """
    adj = g.adj_sets
    out = []
    for v in range(g.n):
        back = order.back_neighbors[v]
        twice = sum(len(adj[w] & back) for w in back)
        out.append(twice // 2)
    return tuple(out)


def count_cliques(g: Graph, r: int, budget: int = CLIQUE_STEP_BUDGET) -> int:
    """Exact number of r-cliques by ordered forward-neighbor intersection.

    Raises BudgetExceeded once the enumeration has charged more than
    ``budget`` elementary steps.
    """
    if r < 2:
        raise ValueError("clique size r must be >= 2")
    fwd = tuple(
        frozenset(w for w in g.adjacency[v] if w > v) for v in range(g.n)
    )
    steps = 0

    def extend(cand: frozenset, need: int) -> int:
        nonlocal steps
        steps += len(cand) + 1
        if steps > budget:
            raise BudgetExceeded(f"clique enumeration exceeded {budget} steps")
        if need == 1:
            return len(cand)
        return sum(extend(cand & fwd[v], need - 1) for v in sorted(cand))

    total = 0
    for v in range(g.n):
        total += extend(fwd[v], r - 1)
    return total


def find_clique(g: Graph, r: int, budget: int = CLIQUE_STEP_BUDGET):
    """First r-clique in lexicographic vertex order, or None."""
    if r < 1:
        raise ValueError("clique size r must be >= 1")
    if r == 1:
        return (0,) if g.n else None
    fwd = tuple(
        frozenset(w for w in g.adjacency[v] if w > v) for v in range(g.n)
    )
    steps = 0

    def extend(prefix: tuple, cand: frozenset):
        nonlocal steps
        steps += len(cand) + 1
        if steps > budget:
            raise BudgetExceeded(f"clique search exceeded {budget} steps")
        if len(prefix) == r:
            return prefix
        for v in sorted(cand):
            hit = extend(prefix + (v,), cand & fwd[v])
            if hit is not None:
                return hit
        return None

    for v in range(g.n):
        hit = extend((v,), fwd[v])
        if hit is not None:
            return hit
    return None


def is_kr_free(g: Graph, r: int, budget: int = CLIQUE_STEP_BUDGET) -> bool:
    return find_clique(g, r, budget) is None


def cut_value(g: Graph, side) -> Cut:
    """Cut with the exact crossing count for a full 0/1 labeling."""
    side = tuple(int(s) for s in side)
    if len(side) != g.n:
        raise LabelSizeMismatch(f"labeling covers {len(side)} of {g.n} vertices")
    if any(s not in (0, 1) for s in side):
        raise ValueError("labels must be 0 or 1")
    return Cut(side, g.crossing_count(np.asarray(side)))


def edwards_bound(m: int) -> float:
    """m/2 + (sqrt(8m+1) - 1)/8, a cut value every m-edge graph attains."""
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    return m / 2 + (math.sqrt(8 * m + 1) - 1) / 8


@dataclass(frozen=True)
class VertexMap:
    """Bidirectional vertex relabeling for an induced subgraph."""

    to_parent: tuple[int, ...]

    @cached_property
    def to_sub(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.to_parent)}


def induced_subgraph(g: Graph, vs) -> tuple[Graph, VertexMap]:
    """Compact relabeled subgraph induced by ``vs`` plus the vertex map.

    The relabeling is monotone: sorted parent ids map to 0..|vs|-1. When
    ``vs`` covers every vertex that relabeling is the identity, and ``g``
    itself is returned, so the facts cached on it carry over.
    """
    vs = sorted(set(int(v) for v in vs))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise OutOfRangeVertex(f"vertex set not contained in [0, {g.n})")
    vmap = VertexMap(tuple(vs))
    if len(vs) == g.n:
        return g, vmap
    to_sub = vmap.to_sub
    edges = []
    for v in vs:
        sv = to_sub[v]
        for w in g.adjacency[v]:
            if w > v and w in to_sub:
                edges.append((sv, to_sub[w]))
    edges.sort()
    return Graph(len(vs), tuple(edges), _adjacency(len(vs), edges)), vmap
