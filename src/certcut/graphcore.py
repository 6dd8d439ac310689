"""Simple undirected graphs and the structural statistics the cut algorithms
consume: degeneracy orders, triangle and clique counts, induced subgraphs, and
exact cut bookkeeping.

All types are immutable after construction; all operations are pure functions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, pairwise

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

    @cached_property
    def degeneracy_order(self) -> DegeneracyOrder:
        """Canonical degeneracy order, computed once per graph."""
        return degeneracy_order(self)

    @cached_property
    def triangle_edges(self) -> np.ndarray:
        """Every triangle once as its three edge ids, listed once per graph
        (see :func:`triangle_edges`)."""
        return triangle_edges(self)

    @cached_property
    def triangles(self) -> int:
        """Number of 3-cliques, counted once per graph."""
        return count_triangles(self)

    def crossing_count(self, labels: np.ndarray, ends=None) -> int | np.ndarray:
        """Number of edges whose endpoints carry different ``labels``; for an
        (r, n) block of labelings, an int array of each row's count. Row j
        is read at j*n + endpoint on the flat block; a 1-D labeling is one
        row, and its count comes back as an int.

        With ``ends``, the graph is blocks side by side: block b is the
        vertices before ``ends[b]`` and from ``ends[b - 1]`` on, and no edge
        joins two blocks. An (r, n) block then gets an (r, len(ends)) array
        of each row's count per block."""
        block = labels if labels.ndim == 2 else labels[None]
        flat, at = block.reshape(-1), self.n * np.arange(len(block))[:, None]
        cross = flat[self.eu + at] != flat[self.ev + at]
        if ends is None:
            counts = np.count_nonzero(cross, axis=1)
            return counts if labels.ndim == 2 else int(counts[0])
        # the edges are sorted, so block b's run ends where eu reaches ends[b]
        total = np.zeros((len(block), self.m + 1), dtype=np.intp)
        np.cumsum(cross, axis=1, out=total[:, 1:])
        return np.diff(total[:, self.eu.searchsorted(ends)], axis=1, prepend=0)

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


@dataclass(frozen=True, eq=False)
class DegeneracyOrder:
    """A vertex order in which every vertex has few earlier neighbors.

    ``order``, a read-only intp array, is a permutation of every vertex of
    the graph. The back-neighbors of a vertex are its neighbors earlier in
    ``order`` (see :func:`back_pairs`); ``degeneracy`` bounds every
    back-degree, and equals the maximum back-degree, the graph degeneracy,
    for the canonical order (:func:`degeneracy_order`).
    """

    order: np.ndarray
    degeneracy: int

    @cached_property
    def position(self) -> np.ndarray:
        """Read-only index of every vertex in ``order``."""
        pos = np.empty(len(self.order), dtype=np.intp)
        pos[self.order] = np.arange(len(self.order))
        pos.flags.writeable = False
        return pos


def back_pairs(g: Graph, order: DegeneracyOrder) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, cols)``, one pair per edge of ``g``, in edge order:
    ``owner`` is the later endpoint in ``order`` and ``cols`` the earlier
    one, its back-neighbor. The pairs of one owner list its back-neighbors
    in ascending id."""
    later = order.position[g.eu] > order.position[g.ev]
    return np.where(later, g.eu, g.ev), np.where(later, g.ev, g.eu)


def degeneracy_order(g: Graph) -> DegeneracyOrder:
    """Canonical degeneracy order: the min-degree peel of ``g``.

    Repeatedly removes a minimum-degree vertex of the residual graph (lowest
    id on ties) and lists the removal sequence reversed, so each vertex's
    back-neighbors are exactly its residual neighbors at removal time and the
    maximum back-degree is the exact degeneracy. Only the order and that
    degeneracy are kept; :func:`back_pairs` reads the back-neighbors off the
    edges. Each degree keeps a min-heap of ids, a vertex is pushed again
    whenever its degree drops, and the current minimum degree drops by at
    most one per removal: O((n + m) log Delta) for the lowest-id tie-break.
    Isolated vertices are the first removals, in increasing id, so they are
    taken in one array step and the heaps hold only the rest.
    """
    n = g.n
    deg = np.diff(g.indptr)
    # a vertex of degree 0 is a minimum whose removal lowers no other
    # degree, so all of them go first, before any heap pop
    removal = np.flatnonzero(deg == 0).tolist()
    rest = np.flatnonzero(deg).tolist()
    flat, ptr = g.indices.tolist(), g.indptr.tolist()
    deg = deg.tolist()
    live = [False] * n
    # ascending ids, so every bucket starts out as a valid heap
    buckets = [[] for _ in range(max(deg, default=0) + 1)]
    for v in rest:
        live[v] = True
        buckets[deg[v]].append(v)
    pop, push = heapq.heappop, heapq.heappush
    degeneracy = 0
    d = 0
    for _ in range(len(rest)):
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
        for w in flat[ptr[v]:ptr[v + 1]]:
            if live[w]:
                k = deg[w] - 1
                deg[w] = k
                push(buckets[k], w)
        if d:
            d -= 1
    removal.reverse()
    order = np.array(removal, dtype=np.intp)
    order.flags.writeable = False
    # drop the lists first: the result's size varies with interpreter state,
    # and built under their peak it would make the peak vary too
    del removal, rest, flat, ptr, deg, live, buckets
    return DegeneracyOrder(order, degeneracy)


# entries of scratch per array pass: the rows of a rounding or count block
# times its longest per-row array, the vertices and edges of an
# induced_unions run, the wedges of a triangle listing pass (before the rest of
# its last tail), the triangle pairs of a 4-clique check, the pair draws of
# a random graph, and 16 times the sets (live rounding generators) of a run
ROUND_CHUNK = 1 << 14


def block_rows(*sizes: int) -> int:
    """Rows of a block whose longest per-row array has max(``sizes``)
    entries: at least one, and ``ROUND_CHUNK`` entries in all."""
    return max(1, ROUND_CHUNK // max(*sizes, 1))


def best_row(blocks, ends: list[int], tops: list[int] | None = None) -> tuple[np.ndarray, list[int]]:
    """The first row with the largest count over ``(rows, counts)`` blocks,
    taken per vertex block of ``ends`` (as in :meth:`Graph.crossing_count`),
    and the counts as a list. ``counts`` has one column per block, or is 1-D
    for one block; each block's entries come from its own first row of
    largest count. Reading stops once every block's count reaches its entry
    of ``tops``: no later row can beat it, and a tie never replaces the
    first maximum."""
    winners, values = [None] * len(ends), [-1] * len(ends)
    for rows, counts in blocks:
        cols = counts.reshape(len(counts), -1)
        for b, j in enumerate(cols.argmax(axis=0).tolist()):
            v = int(cols[j, b])
            if v > values[b]:
                values[b], winners[b] = v, rows[j]
        if values == tops:
            break
    return np.concatenate([row[a:z] for row, (a, z) in zip(winners, pairwise([0, *ends]))]), values


def triangle_list(g: Graph) -> np.ndarray:
    """Every 3-clique once, as rows ``(u, v, w)`` ascending in (degree, id),
    read from the edge ids of the cached ``g.triangle_edges``, in its order."""
    return np.stack(_triangle_vertices(g, g.triangle_edges), axis=1)


def triangle_edges(g: Graph) -> np.ndarray:
    """Every 3-clique once, as rows ``(uv, uw, vw)`` of indices into
    ``g.eu``/``g.ev``, from :func:`_triangle_passes`."""
    return _stacked([edges for edges, _ in _triangle_passes(g)])


def _triangle_vertices(g: Graph, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertices ``(u, v, w)`` of listed triangles ``(uv, uw, vw)``: u is
    the endpoint that the first two edges share."""
    a, b = g.eu[edges[:, 0]], g.ev[edges[:, 0]]
    c, d = g.eu[edges[:, 1]], g.ev[edges[:, 1]]
    u = np.where((a == c) | (a == d), a, b)
    return u, a + b - u, c + d - u


def _stacked(found: list[np.ndarray]) -> np.ndarray:
    """The pass rows of ``found`` as one (T, 3) array."""
    return np.concatenate(found) if found else np.empty((0, 3), dtype=np.intp)


def _triangle_passes(g: Graph):
    """The rows of :func:`triangle_edges`, one ``(edges, closes_k4)`` per
    pass that finds any; ``closes_k4()`` tells whether the pass's triangles
    close a 4-clique (see :func:`_closes_k4`).

    Each edge points from the endpoint lower in (degree, id) order to the
    higher one, so every triangle is exactly one wedge (u; v, w) of two
    out-edges u->v and u->w whose closing edge v->w exists, and there are
    O(m^1.5) wedges (Chiba & Nishizeki, SIAM J. Comput. 1985). The
    out-edges are sorted once by their rank-space keys
    ``rank[tail] * n + rank[head]``, so out-rows come in tail rank, each
    sorted by head rank, and a wedge's key ``rank[v] * n + rank[w]`` is
    found by ``searchsorted`` at the closing out-edge itself: a triangle's
    row is the edge ids of its wedge's two out-edges and of that one. A
    pass covers whole tails: ``ROUND_CHUNK`` wedges, then the rest of the
    tail of its last one, at most m more, so its scratch is O(m +
    ``ROUND_CHUNK``) and its wedges are those of a run of out-edges, spelled
    out with ``np.repeat``.
    """
    n, m = g.n, g.m
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(np.diff(g.indptr), kind="stable")] = np.arange(n)
    ru, rv = rank[g.eu], rank[g.ev]
    tail, head = np.minimum(ru, rv), np.maximum(ru, rv)
    keys = tail * n + head
    # the keys are distinct, so any sort gives the one order
    by_row = np.argsort(keys)
    keys, tail, head = keys[by_row], tail[by_row], head[by_row]
    # out-edge p pairs with each of the fan[p] later out-edges of its tail,
    # in the wedges before fan_end[p]
    fan = np.cumsum(np.bincount(tail, minlength=n))[tail] - np.arange(m) - 1
    fan_end = np.cumsum(fan)
    wedges = int(fan_end[-1]) if m else 0
    start = first = 0
    while start < wedges:
        # wedges start to stop - 1, of out-edges first to last - 1
        last, stop = m, wedges
        if start + ROUND_CHUNK < wedges:
            # run on to the tail's last out-edge, p + fan[p]
            p = int(np.searchsorted(fan_end, start + ROUND_CHUNK - 1, side="right"))
            last = p + int(fan[p]) + 1
            stop = int(fan_end[last - 1])
        fans = fan[first:last]
        # pass wedge i of out-edge p pairs it with out-edge i + shift[p - first]
        shift = np.arange(first + 1, last + 1) - fan_end[first:last] + fans + start
        p = np.repeat(np.arange(first, last), fans)
        q = np.arange(stop - start) + np.repeat(shift, fans)
        key = head[p] * n + head[q]
        at = np.minimum(np.searchsorted(keys, key), m - 1)
        hit = keys[at] == key
        found = np.flatnonzero(hit)
        if len(found):
            p, q = p[found], q[found]
            yield (by_row[np.stack((p, q, at[found]), axis=1)],
                   partial(_closes_k4, hit, p, q, shift[q - first]))
        start, first = stop, last


def _closes_k4(hit: np.ndarray, p: np.ndarray, q: np.ndarray, shift: np.ndarray) -> bool:
    """Whether a pass's triangles, its ``hit`` wedges (p, q), close a
    4-clique. In (degree, id) order a 4-clique u < v < w < x is two hits
    (p, qi) and (p, qj), qi < qj, of one out-edge p = u->v, and a hit on
    the wedge of the same tail that pairs qi with qj. That wedge is in the
    same pass, as all of u's wedges are, at pass index ``qj - shift[i]``
    for hit i = (p, qi). The hits of one out-edge are consecutive; their
    pairs are checked ``ROUND_CHUNK`` at a time, against the pass's own
    ``hit`` mask."""
    # hit i pairs with the later[i] hits after it of its out-edge, pair
    # numbers ends[i] - later[i] to ends[i] - 1, pair k with hit k - off[i]
    nth = np.arange(1, len(p) + 1)
    later = np.searchsorted(p, p, side="right") - nth
    ends = np.cumsum(later)
    off = ends - later - nth
    pairs = int(ends[-1])
    for a in range(0, pairs, ROUND_CHUNK):
        b = min(a + ROUND_CHUNK, pairs)
        i, j = np.searchsorted(ends, (a, b - 1), side="right").tolist()
        counts = later[i:j + 1].copy()
        counts[-1] -= ends[j] - b
        counts[0] -= a - (ends[i] - later[i])
        partner = np.arange(a, b) - np.repeat(off[i:j + 1], counts)
        if hit[q[partner] - np.repeat(shift[i:j + 1], counts)].any():
            return True
    return False


def count_triangles(g: Graph) -> int:
    """Exact number of 3-cliques: the length of ``g.triangle_edges`` if it
    is cached, else the passes' row counts, keeping no rows."""
    if "triangle_edges" in g.__dict__:
        return len(g.triangle_edges)
    return sum(len(edges) for edges, _ in _triangle_passes(g))


def count_back_triangles(g: Graph, order: DegeneracyOrder) -> tuple[int, ...]:
    """Per-vertex count of triangles closed inside the back-neighbor set.

    A triangle is closed inside exactly the back set of its last vertex in
    ``order``, so summing over all vertices recovers the triangle count.
    """
    _, last = _last_positions(g, order.position)
    return tuple(np.bincount(order.order[last], minlength=g.n).tolist())


def _last_positions(g: Graph, position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per edge, then per triangle of ``g.triangle_edges``, the position of
    its last vertex in the order whose ``position`` array is given (as
    :attr:`DegeneracyOrder.position`). An edge's last vertex is its owner
    in :func:`back_pairs`; a triangle's is the later of the last vertices
    of its edges uw and vw, which between them hold all three of its
    vertices. Both arrays are new."""
    edge = np.maximum(position[g.eu], position[g.ev])
    return edge, np.maximum(edge[g.triangle_edges[:, 1]], edge[g.triangle_edges[:, 2]])


def _forward_sets(g: Graph) -> list[frozenset[int]]:
    """For each vertex v, its neighbors above v: the run of ``ev`` over the
    edges with ``eu == v``."""
    ev = g.ev.tolist()
    ends = np.searchsorted(g.eu, np.arange(g.n + 1)).tolist()
    return [frozenset(ev[a:b]) for a, b in pairwise(ends)]


def find_clique(g: Graph, r: int, budget: int = CLIQUE_STEP_BUDGET):
    """First r-clique in lexicographic vertex order, or None; BudgetExceeded
    past ``budget`` steps, one per prefix plus one per candidate it extends
    with. A K_r-free graph, r = 3 or 4, whose n + 2m steps (+ 2T for r = 4,
    T triangles) fit the budget is answered by the passes of the triangle
    listing without the search, so every witness and refusal is the
    search's. The passes stop at a triangle (r = 3), a pass that closes a
    4-clique, or once 2T is past the budget, and drop what they listed;
    otherwise they were the whole listing, kept as ``g.triangle_edges``.
    Memory is O(n + m) plus, for r = 4, at most budget/2 listed rows of
    three edge ids."""
    if r < 1:
        raise ValueError("clique size r must be >= 1")
    if r == 1:
        return (0,) if g.n else None
    free_budget = budget - g.n - 2 * g.m
    if r in (3, 4) and free_budget >= 0:
        found, triangles = [], 0
        for edges, closes_k4 in _triangle_passes(g):
            triangles += len(edges)
            if r == 3 or 2 * triangles > free_budget or closes_k4():
                break
            found.append(edges)
        else:
            # the passes saw every wedge: keep the listing for g.triangles
            g.__dict__.setdefault("triangle_edges", _stacked(found))
            return None
        del found, edges, closes_k4
    # a frame is a prefix's candidates (None: every vertex) and an ascending iterator
    fwd = _forward_sets(g)
    stack, prefix, steps = [(None, iter(range(g.n)))], [], 0
    while stack:
        cand, rest = stack[-1]
        v = next(rest, None)
        if v is None:
            stack.pop()
            del prefix[-1:]  # the vertex that opened the frame; none for the root
            continue
        ext = fwd[v] if cand is None else cand & fwd[v]
        steps += len(ext) + 1
        if steps > budget:
            raise BudgetExceeded(f"clique search exceeded {budget} steps")
        if len(prefix) + 1 == r:
            return (*prefix, v)
        prefix.append(v)
        stack.append((ext, iter(sorted(ext))))
    return None


def _binary_labels(side) -> np.ndarray:
    """``side`` as a uint8 array; ValueError unless every label is 0 or 1."""
    labels = np.asarray(side)
    if labels.ndim != 1 or not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    return labels.astype(np.uint8)


def cut_value(g: Graph, side) -> Cut:
    """Cut with the exact crossing count for a full 0/1 labeling."""
    if len(side) != g.n:
        raise LabelSizeMismatch(f"labeling covers {len(side)} of {g.n} vertices")
    labels = _binary_labels(side)
    return Cut(tuple(labels.tolist()), g.crossing_count(labels))


def edwards_bound(m: int) -> float:
    """m/2 + (sqrt(8m+1) - 1)/8, a cut value every m-edge graph attains."""
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    return m / 2 + (math.sqrt(8 * m + 1) - 1) / 8


def _id_array(n: int, vs) -> np.ndarray:
    """The ids of ``vs`` as an intp array, in its order and with its
    repeats; OutOfRangeVertex for an id outside [0, n) or not integral."""
    raw = vs if isinstance(vs, np.ndarray) else np.array(list(vs))
    if raw.size and not (0 <= raw.min() and raw.max() < n):
        raise OutOfRangeVertex(f"vertex set not contained in [0, {n})")
    # bool, signed and unsigned ids are integral by their dtype
    if raw.dtype.kind not in "biu" and (raw % 1 != 0).any():
        raise OutOfRangeVertex("vertex ids must be integers")
    return raw.astype(np.intp, copy=False)


def _vertex_ids(n: int, vs) -> np.ndarray:
    """The distinct vertices of ``vs``, ascending, as a read-only intp array
    (see :func:`_id_array`)."""
    keep = np.zeros(n, dtype=bool)
    keep[_id_array(n, vs)] = True
    ids = np.flatnonzero(keep)
    ids.flags.writeable = False
    return ids


def induced_subgraph(g: Graph, vs) -> tuple[Graph, np.ndarray]:
    """Compact relabeled subgraph induced by ``vs`` plus its sorted parent
    ids: local vertex i is ``ids[i]``, so the kept edges stay sorted. When
    ``vs`` covers every vertex, ``g`` itself is returned, so the facts cached
    on it carry over. This is the one-set case of :func:`induced_unions`.
    """
    sub, (ids,) = next(induced_unions(g, [vs]))
    return sub, ids


def induced_unions(g: Graph, sets):
    """The subgraphs induced by consecutive runs of ``sets``, each run's side
    by side as one graph.

    Yields ``(graph, parts)`` per run, ``parts`` holding each set's sorted
    read-only parent ids: the vertices of ``graph`` are the parts' ids in
    order, each set's relabeled in ascending id after the sets before it. No
    edge joins two sets, so each set's edges stay one sorted run. A run
    grows while its vertices and its edges each stay within ``ROUND_CHUNK``
    and its sets within ``ROUND_CHUNK // 16``, and holds at least one set. A
    set covering every vertex forms a run alone, which yields ``g`` itself,
    so the facts cached on it (its peel, its triangles) carry over. ``sets``
    is read lazily: a full run is yielded at once, any other when the next
    set does not fit.
    """
    keep = np.zeros(g.n, dtype=bool)
    run, n, m = [], 0, 0
    for vs in sets:
        ids = _vertex_ids(g.n, vs)
        whole = len(ids) == g.n
        eu, ev = (g.eu, g.ev) if whole else _induced_edges(g, keep, ids)
        if run and (whole or max(n + len(ids), m + len(eu)) > ROUND_CHUNK):
            yield _side_by_side(g, run)
            run, n, m = [], 0, 0
        run.append((ids, eu, ev))
        n, m = n + len(ids), m + len(eu)
        if whole or max(n, m) >= ROUND_CHUNK or len(run) >= ROUND_CHUNK // 16:
            yield _side_by_side(g, run)
            run, n, m = [], 0, 0
    if run:
        yield _side_by_side(g, run)


def _induced_edges(g: Graph, keep: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges inside ``ids``, relabeled 0..len(ids)-1 in ascending id;
    ``keep`` is an all-False scratch mask over ``g``'s vertices."""
    keep[ids] = True
    local = np.cumsum(keep) - 1
    inside = keep[g.eu] & keep[g.ev]
    keep[ids] = False
    return local[g.eu[inside]], local[g.ev[inside]]


def _side_by_side(g: Graph, run) -> tuple[Graph, list[np.ndarray]]:
    """One graph of the ``(ids, eu, ev)`` induced subgraphs of ``run``, in
    order, and their ids (see :func:`induced_unions`)."""
    parts = [ids for ids, _, _ in run]
    if len(run) == 1:
        ids, eu, ev = run[0]
        return (g if len(ids) == g.n else _from_sorted_edges(len(ids), eu, ev)), parts
    starts = [0, *accumulate(len(ids) for ids in parts)]
    eu = np.concatenate([eu + start for start, (_, eu, _) in zip(starts, run)])
    ev = np.concatenate([ev + start for start, (_, _, ev) in zip(starts, run)])
    return _from_sorted_edges(starts[-1], eu, ev), parts
