"""Simple undirected graphs and the structural statistics the cut algorithms
consume: degeneracy orders, triangle and clique counts, induced subgraphs, and
exact cut bookkeeping.

All types are immutable after construction; all operations are pure functions.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise

import numpy as np

from .errors import (
    BudgetExceeded,
    DuplicateEdge,
    LabelSizeMismatch,
    OutOfRangeVertex,
    ParseError,
    SelfLoop,
    VertexOutOfRange,
)

CLIQUE_STEP_BUDGET = 10**9


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1 in four read-only arrays.

    ``indptr``/``indices`` hold the CSR rows: the neighbors of v, ascending,
    are ``indices[indptr[v]:indptr[v + 1]]``. ``eu``/``ev`` hold the edges,
    eu < ev, sorted by (eu, ev). Build instances via :meth:`from_edges`.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    eu: np.ndarray
    ev: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Graph on n vertices from (u, v) pairs or an (m, 2) int array. The
        first bad pair in input order raises VertexOutOfRange, SelfLoop or
        DuplicateEdge, checked in that order, with its position in ``index``."""
        if n < 0:
            raise VertexOutOfRange(f"vertex count {n} is negative")
        if isinstance(edges, np.ndarray):
            pairs = ids = edges.astype(np.int64, copy=False).reshape(-1, 2)
        else:
            pairs = list(edges)
            try:
                ids = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
            except OverflowError:  # clamp ids beyond int64; they stay out of range
                ids = np.array([min(max(x, -1), n) for x in chain.from_iterable(pairs)])
            ids = ids.reshape(-1, 2)
        lo, hi = ids.min(axis=1), ids.max(axis=1)
        out = (lo < 0) | (hi >= n)
        loop = lo == hi
        bad = out | loop
        # bad pairs get distinct negative keys, so only good pairs repeat
        key = np.where(bad, -1 - np.arange(len(ids)), lo * n + hi)
        by_key = np.argsort(key, kind="stable")
        key = key[by_key]
        # the stable sort puts every repeat after the pair it repeats
        bad[by_key[1:][key[1:] == key[:-1]]] = True
        if bad.any():
            i = int(bad.argmax())
            raise _bad_pair(n, pairs[i], i, out[i], loop[i])
        eu, ev = np.divmod(key, max(n, 1))
        return _from_sorted_edges(n, eu, ev)

    @property
    def m(self) -> int:
        return len(self.eu)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted ``(u, v)`` Python-int pairs, made from ``eu``/``ev`` per access."""
        return tuple(zip(self.eu.tolist(), self.ev.tolist()))

    def rows(self) -> list[list[int]]:
        """Every neighbor row as a list of Python ints, ascending. Made on
        every call, so a Python loop over rows calls it once."""
        flat = self.indices.tolist()
        return [flat[a:b] for a, b in pairwise(self.indptr.tolist())]

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
        return int(np.count_nonzero(labels[self.eu] != labels[self.ev]))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _bad_pair(n: int, pair, i: int, out: bool, loop: bool) -> ParseError:
    """The error for bad pair number i. Built here, not bound to a local of
    ``from_edges``: an exception in a local of the frame its traceback holds
    is a reference cycle, which keeps that frame's arrays alive until the
    cyclic collector runs, so every rejected ``random_regular`` pairing
    would add to the peak memory."""
    u, v = (int(x) for x in pair)
    if out:
        err = VertexOutOfRange(f"edge ({u}, {v}) outside [0, {n})")
    elif loop:
        err = SelfLoop(f"self-loop at vertex {u}")
    else:
        err = DuplicateEdge(f"duplicate edge {(min(u, v), max(u, v))}")
    err.index = i
    return err


def _from_sorted_edges(n: int, eu: np.ndarray, ev: np.ndarray) -> Graph:
    """Graph of valid edges sorted by (eu, ev), eu < ev. In edge order the
    lower and the upper neighbors of each vertex ascend, so a stable sort
    by row leaves every row ascending."""
    row = np.concatenate((ev, eu))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    indices = np.concatenate((eu, ev))[np.argsort(row, kind="stable")]
    for a in (indptr, indices, eu, ev):
        a.flags.writeable = False
    return Graph(n, indptr, indices, eu, ev)


@dataclass(frozen=True)
class Cut:
    """A 2-labeling of the vertices with its cached crossing-edge count."""

    side: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class DegeneracyOrder:
    """A vertex order in which every vertex has few earlier neighbors.

    ``order`` lists some or all of the ``n`` vertices. The back-neighbors of
    a vertex are its neighbors earlier in ``order`` (see :func:`back_pairs`);
    ``degeneracy`` is the maximum back-degree, which for the canonical order
    equals the graph degeneracy exactly.
    """

    n: int
    order: tuple[int, ...]
    degeneracy: int

    @cached_property
    def position(self) -> np.ndarray:
        """Read-only index of every vertex in ``order``; -1 for vertices
        outside it."""
        pos = np.full(self.n, -1, dtype=np.intp)
        pos[np.fromiter(self.order, np.intp, len(self.order))] = np.arange(len(self.order))
        pos.flags.writeable = False
        return pos


def back_pairs(g: Graph, order: DegeneracyOrder) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, cols)``, one pair per edge of ``g`` whose endpoints are both
    in ``order``, in edge order: ``owner`` is the later endpoint and ``cols``
    the earlier one, its back-neighbor. The pairs of one owner list its
    back-neighbors in ascending id."""
    pu, pv = order.position[g.eu], order.position[g.ev]
    both = (pu >= 0) & (pv >= 0)
    later = pu > pv
    return np.where(later, g.eu, g.ev)[both], np.where(later, g.ev, g.eu)[both]


def peel(g: Graph, alive=None) -> DegeneracyOrder:
    """Canonical min-degree peel of the vertices marked in ``alive`` (every
    vertex when None), in ``g``'s own ids.

    Repeatedly removes a minimum-degree vertex of the residual graph (lowest
    id on ties) and lists the removal sequence reversed, so each vertex's
    back-neighbors are exactly its residual neighbors at removal time and the
    maximum back-degree is the exact degeneracy of the graph induced by
    ``alive``. Only the order and that degeneracy are kept; :func:`back_pairs`
    reads the back-neighbors off the edges. Each degree keeps a min-heap of
    ids, a vertex is pushed again whenever its degree drops, and the current
    minimum degree drops by at most one per removal: O((n + m) log Delta) for
    the lowest-id tie-break. Vertices outside ``alive`` are not in ``order``
    and have no back-neighbors; since ``induced_subgraph`` relabels
    monotonically, this is the subgraph's own canonical order mapped back to
    ``g``.
    """
    n = g.n
    adj = g.rows()
    mask = np.ones(n, dtype=bool) if alive is None else np.asarray(alive, dtype=bool)
    both = mask[g.eu] & mask[g.ev]
    deg = (np.bincount(g.eu[both], minlength=n) + np.bincount(g.ev[both], minlength=n)).tolist()
    live = mask.tolist()
    # ascending ids, so every bucket starts out as a valid heap
    buckets = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        if live[v]:
            buckets[deg[v]].append(v)
    pop, push = heapq.heappop, heapq.heappush
    removal = []
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
        for w in adj[v]:
            if live[w]:
                k = deg[w] - 1
                deg[w] = k
                push(buckets[k], w)
        if d:
            d -= 1
    return DegeneracyOrder(n, tuple(reversed(removal)), degeneracy)


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
    eu, ev = g.eu, g.ev
    deg = np.diff(g.indptr)
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
    keys = eu * n + ev  # ascending, since the edges are sorted
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
    pa, pb, pc = order.position[g.triangle_list.T]
    last = np.maximum(np.maximum(pa, pb), pc)[(pa >= 0) & (pb >= 0) & (pc >= 0)]
    ordered = np.asarray(order.order, dtype=np.intp)
    return tuple(np.bincount(ordered[last], minlength=g.n).tolist())


def _forward_sets(g: Graph) -> list[frozenset[int]]:
    """For each vertex v, the part of its ascending row above v."""
    return [frozenset(row[bisect_right(row, v):]) for v, row in enumerate(g.rows())]


def count_cliques(g: Graph, r: int, budget: int = CLIQUE_STEP_BUDGET) -> int:
    """Exact number of r-cliques by ordered forward-neighbor intersection.

    Raises BudgetExceeded once the enumeration has charged more than
    ``budget`` elementary steps.
    """
    if r < 2:
        raise ValueError("clique size r must be >= 2")
    fwd = _forward_sets(g)
    steps = 0

    def extend(cand: frozenset, need: int) -> int:
        nonlocal steps
        steps += len(cand) + 1
        if steps > budget:
            raise BudgetExceeded(f"clique enumeration exceeded {budget} steps")
        if need == 1:
            return len(cand)
        return sum(extend(cand & fwd[v], need - 1) for v in sorted(cand))

    return sum(extend(cand, r - 1) for cand in fwd)


def find_clique(g: Graph, r: int, budget: int = CLIQUE_STEP_BUDGET):
    """First r-clique in lexicographic vertex order, or None."""
    if r < 1:
        raise ValueError("clique size r must be >= 1")
    if r == 1:
        return (0,) if g.n else None
    fwd = _forward_sets(g)
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

    try:
        for v in range(g.n):
            hit = extend((v,), fwd[v])
            if hit is not None:
                return hit
        return None
    finally:
        # extend holds itself through its closure; breaking that cycle frees
        # fwd when the search returns, not at the next cyclic collection
        extend = None


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
    """Vertex relabeling of an induced subgraph: local id i is parent id
    ``to_parent[i]``."""

    to_parent: tuple[int, ...]


def induced_subgraph(g: Graph, vs) -> tuple[Graph, VertexMap]:
    """Compact relabeled subgraph induced by ``vs`` plus the vertex map.

    The relabeling is monotone: sorted parent ids map to 0..|vs|-1, so the
    kept edges stay in sorted order. When ``vs`` covers every vertex that
    relabeling is the identity, and ``g`` itself is returned, so the facts
    cached on it carry over.
    """
    vs = sorted(set(int(v) for v in vs))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise OutOfRangeVertex(f"vertex set not contained in [0, {g.n})")
    vmap = VertexMap(tuple(vs))
    if len(vs) == g.n:
        return g, vmap
    keep = np.zeros(g.n, dtype=bool)
    keep[vs] = True
    local = np.cumsum(keep) - 1
    inside = keep[g.eu] & keep[g.ev]
    return _from_sorted_edges(len(vs), local[g.eu[inside]], local[g.ev[inside]]), vmap
