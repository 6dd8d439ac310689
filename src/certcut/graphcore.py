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
    def triangle_list(self) -> np.ndarray:
        """Every triangle once, listed once per graph (see :func:`triangle_list`)."""
        return triangle_list(self)

    @cached_property
    def triangles(self) -> int:
        """Number of 3-cliques, counted once per graph."""
        return count_triangles(self)

    def crossing_count(self, labels: np.ndarray) -> int:
        """Number of edges whose endpoints carry different ``labels``."""
        eu, ev = self.edge_index
        return int(np.count_nonzero(labels[eu] != labels[ev]))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Cut:
    """A 2-labeling of the vertices with its cached crossing-edge count."""

    side: tuple[int, ...]
    value: int


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
        """Index of every vertex in ``order``; -1 for vertices outside it."""
        pos = [-1] * len(self.back_neighbors)
        for i, v in enumerate(self.order):
            pos[v] = i
        return tuple(pos)


def peel(g: Graph, alive=None) -> DegeneracyOrder:
    """Canonical min-degree peel of the vertices marked in ``alive`` (every
    vertex when None), in ``g``'s own ids.

    Repeatedly removes a minimum-degree vertex of the residual graph (lowest
    id on ties) and lists the removal sequence reversed, so each vertex's
    back-neighbors are exactly its residual neighbors at removal time and the
    maximum back-degree is the exact degeneracy of the graph induced by
    ``alive``. Each degree keeps a min-heap of ids, a vertex is pushed again
    whenever its degree drops, and the current minimum degree drops by at
    most one per removal: O((n + m) log Delta) for the lowest-id tie-break. Vertices
    outside ``alive`` are not in ``order`` and have empty back sets; since
    ``induced_subgraph`` relabels monotonically, this is the subgraph's own
    canonical order mapped back to ``g``.
    """
    n = g.n
    adj = g.adjacency
    if alive is None:
        live = [True] * n
        deg = [len(a) for a in adj]
    else:
        mask = np.asarray(alive, dtype=bool)
        eu, ev = g.edge_index
        both = mask[eu] & mask[ev]
        deg = (np.bincount(eu[both], minlength=n) + np.bincount(ev[both], minlength=n)).tolist()
        live = mask.tolist()
    # ascending ids, so every bucket starts out as a valid heap
    buckets = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        if live[v]:
            buckets[deg[v]].append(v)
    pop, push = heapq.heappop, heapq.heappush
    removal = []
    back = [frozenset()] * n
    degeneracy = 0
    d = 0
    for _ in range(sum(live)):
        while True:
            bucket = buckets[d]
            if not bucket:
                d += 1
                continue
            v = pop(bucket)
            # d never exceeds the least live degree, so a live id popped
            # from bucket d has degree d; stale entries are removed ids
            if live[v]:
                break
        live[v] = False
        removal.append(v)
        if d > degeneracy:
            degeneracy = d
        # the residual neighbors, filtered from the ascending adjacency
        rest = [w for w in adj[v] if live[w]]
        back[v] = frozenset(rest)
        for w in rest:
            k = deg[w] - 1
            deg[w] = k
            push(buckets[k], w)
        if d:
            d -= 1
    return DegeneracyOrder(tuple(reversed(removal)), tuple(back), degeneracy)


def degeneracy_order(g: Graph) -> DegeneracyOrder:
    """Canonical degeneracy order of the whole graph (see :func:`peel`)."""
    return peel(g)


# wedges generated and checked per numpy pass; bounds the scratch arrays
TRIANGLE_CHUNK = 1 << 15


def triangle_list(g: Graph) -> np.ndarray:
    """Every 3-clique once, as rows ``(u, v, w)`` ascending in (degree, id).

    Each edge points from the endpoint lower in (degree, id) order to the
    higher one, so every triangle is exactly one wedge (u; v, w) of two
    out-neighbors of u whose closing edge v-w exists, and there are
    O(m^1.5) wedges (Chiba & Nishizeki, SIAM J. Comput. 1985). Wedges are
    generated ``TRIANGLE_CHUNK`` at a time and looked up among the sorted
    edge keys.
    """
    n = g.n
    eu, ev = g.edge_index
    deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    up = rank[eu] < rank[ev]
    tail = np.where(up, eu, ev)
    head = np.where(up, ev, eu)
    by_row = np.lexsort((rank[head], tail))
    tail, head = tail[by_row], head[by_row]
    # out-edge p pairs with every later out-edge q of the same tail
    row_end = np.cumsum(np.bincount(tail, minlength=n))[tail]
    fan = row_end - np.arange(g.m) - 1
    fan_end = np.cumsum(fan)
    wedges = int(fan_end[-1]) if g.m else 0
    keys = eu * n + ev  # ascending, since ``edges`` is sorted
    found = []
    for start in range(0, wedges, TRIANGLE_CHUNK):
        w = np.arange(start, min(start + TRIANGLE_CHUNK, wedges))
        p = np.searchsorted(fan_end, w, side="right")
        q = p + fan[p] - (fan_end[p] - w) + 1
        a, b = head[p], head[q]
        key = np.minimum(a, b) * n + np.maximum(a, b)
        at = np.minimum(np.searchsorted(keys, key), g.m - 1)
        hit = keys[at] == key
        found.append(np.stack((tail[p][hit], a[hit], b[hit]), axis=1))
    if not found:
        return np.empty((0, 3), dtype=np.intp)
    return np.concatenate(found)


def count_triangles(g: Graph) -> int:
    """Exact number of 3-cliques."""
    return len(g.triangle_list)


def count_back_triangles(g: Graph, order: DegeneracyOrder) -> tuple[int, ...]:
    """Per-vertex count of triangles closed inside the back-neighbor set.

    A triangle is closed inside exactly the back set of its last vertex in
    ``order``; triangles with a vertex outside a partial order (one from
    :func:`peel` on a vertex subset) are in no back set. Summing over all
    vertices recovers the triangle count of the ordered vertices.
    """
    pos = np.asarray(order.position, dtype=np.intp)
    pa, pb, pc = pos[g.triangle_list.T]
    last = np.maximum(np.maximum(pa, pb), pc)[(pa >= 0) & (pb >= 0) & (pc >= 0)]
    ordered = np.asarray(order.order, dtype=np.intp)
    return tuple(np.bincount(ordered[last], minlength=g.n).tolist())


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
