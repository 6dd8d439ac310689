"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's own enumeration paths: plain
itertools implementations straight from the definitions, usable up
to a dozen-ish vertices.
"""

import heapq
import math
from fractions import Fraction
from itertools import combinations, pairwise, product
from typing import NamedTuple

import numpy as np

from certcut._rng import _ROUNDING_PATH, make_rng
from certcut.chromatic import Coloring, TPartition, split_probability
from certcut.decompose import SAMPLE_P, extend_cut
from certcut.embedding import CutCertificate, EpsilonPlan, check_eps, default_eps, sdp_cut
from certcut.errors import (
    BudgetExceeded,
    CliqueFound,
    DuplicateEdge,
    ImproperColoring,
    InvalidParameter,
    SelfLoop,
    TooFewVertices,
    VertexOutOfRange,
)
from certcut.graphcore import (
    CLIQUE_STEP_BUDGET,
    Cut,
    DegeneracyOrder,
    Graph,
    back_pairs,
    cut_value,
    induced_subgraph,
)
from certcut.oracle import T_CUT_BUDGET, OracleBudget


def rows(g: Graph) -> list[list[int]]:
    """Every neighbor row of ``g``, ascending, as a list of Python ints."""
    flat = g.indices.tolist()
    return [flat[a:b] for a, b in pairwise(g.indptr.tolist())]


def reference_from_edges(n: int, edges) -> tuple[tuple, tuple]:
    """Check and normalise the pairs one at a time, in input order, and
    build the rows by appending: returns (sorted edges, ascending rows)."""
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
    adj = [[] for _ in range(n)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(norm), tuple(tuple(sorted(a)) for a in adj)


def brute_max_cut(g: Graph) -> int:
    best = 0
    for bits in product((0, 1), repeat=max(g.n - 1, 0)):
        side = (0,) + bits
        best = max(best, sum(1 for u, v in g.edges if side[u] != side[v]))
    return best


def reference_max_cut_exact(g: Graph) -> Cut:
    """Optimal cut by one pass over all 2^(n-1) labelings per edge, vertex 0
    on side 0, refined vertex by vertex to the lexicographically smallest
    optimal labeling."""
    if g.n == 0:
        return Cut((), 0)
    masks = np.arange(1 << (g.n - 1), dtype=np.uint32)
    values = np.zeros(masks.shape, dtype=np.uint16)
    for u, v in g.edges:
        bit_u = masks >> (u - 1) if u else 0
        values += ((bit_u ^ (masks >> (v - 1))) & 1).astype(np.uint16)
    best = int(values.max())
    cand = values == best
    for v in range(1, g.n):
        sub = cand & (((masks >> (v - 1)) & 1) == 0)
        if sub.any():
            cand = sub
    mask = int(masks[np.flatnonzero(cand)[0]])
    side = (0,) + tuple((mask >> (v - 1)) & 1 for v in range(1, g.n))
    return Cut(side, best)


def brute_max_t_cut(g: Graph, t: int) -> int:
    best = 0
    for rest in product(range(t), repeat=max(g.n - 1, 0)):
        part = (0,) + rest
        best = max(best, sum(1 for u, v in g.edges if part[u] != part[v]))
    return best


def brute_degeneracy(g: Graph) -> int:
    """max over nonempty induced subgraphs of their minimum degree."""
    worst = 0
    adj = rows(g)
    verts = list(range(g.n))
    for size in range(1, g.n + 1):
        for subset in combinations(verts, size):
            inside = set(subset)
            mindeg = min(
                sum(1 for w in adj[v] if w in inside) for v in subset
            )
            worst = max(worst, mindeg)
    return worst


def brute_triangle_list(g: Graph) -> list[tuple[int, int, int]]:
    adj = [frozenset(row) for row in rows(g)]
    return [
        (a, b, c)
        for a, b, c in combinations(range(g.n), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    ]


def brute_triangles(g: Graph) -> int:
    return len(brute_triangle_list(g))


def brute_clique_list(g: Graph, r: int) -> list[tuple[int, ...]]:
    """Every r-clique, in lexicographic vertex order."""
    adj = [frozenset(row) for row in rows(g)]
    return [group for group in combinations(range(g.n), r)
            if all(v in adj[u] for u, v in combinations(group, 2))]


def brute_cliques(g: Graph, r: int) -> int:
    return len(brute_clique_list(g, r))


def reference_find_clique(g: Graph, r: int, budget: int = CLIQUE_STEP_BUDGET):
    """First r-clique in lexicographic vertex order, or None, by the
    exhaustive search on every input: each prefix is charged one step plus
    one per candidate above it, and BudgetExceeded is raised past
    ``budget`` steps."""
    if r == 1:
        return (0,) if g.n else None
    fwd = [frozenset(w for w in row if w > v) for v, row in enumerate(rows(g))]
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


def reference_triangle_list(g: Graph) -> np.ndarray:
    """The rows of ``triangle_list`` in its order (out-rows by tail rank,
    each by head rank), every wedge in one pass and looked up among the
    id-space edge keys ``eu * n + ev``."""
    n, m = g.n, g.m
    if m == 0:
        return np.empty((0, 3), dtype=np.intp)
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(np.diff(g.indptr), kind="stable")] = np.arange(n)
    up = rank[g.eu] < rank[g.ev]
    tail = np.where(up, g.eu, g.ev)
    head = np.where(up, g.ev, g.eu)
    by_row = np.lexsort((rank[head], rank[tail]))
    tail, head = tail[by_row], head[by_row]
    fan = np.cumsum(np.bincount(rank[tail], minlength=n))[rank[tail]] - np.arange(m) - 1
    fan_end = np.cumsum(fan)
    w = np.arange(fan_end[-1])
    p = np.searchsorted(fan_end, w, side="right")
    q = p + fan[p] - (fan_end[p] - w) + 1
    a, b = head[p], head[q]
    keys = g.eu * n + g.ev
    key = np.minimum(a, b) * n + np.maximum(a, b)
    hit = keys[np.minimum(np.searchsorted(keys, key), m - 1)] == key
    return np.stack((tail[p][hit], a[hit], b[hit]), axis=1)


def brute_independence_number(g: Graph) -> int:
    adj = [frozenset(row) for row in rows(g)]
    best = 0
    for size in range(g.n, 0, -1):
        for group in combinations(range(g.n), size):
            if all(v not in adj[u] for u, v in combinations(group, 2)):
                return size
    return best


def count_r_cycles(g: Graph, r: int) -> int:
    """Distinct cycles of length exactly r (as vertex sets with a cyclic
    order), counted once each: minimal vertex first, second < last."""
    adj = [frozenset(row) for row in rows(g)]
    total = 0

    def walk(path):
        nonlocal total
        v = path[-1]
        if len(path) == r:
            if path[0] in adj[v] and path[1] < path[-1]:
                total += 1
            return
        for w in sorted(adj[v]):
            if w > path[0] and w not in path:
                walk(path + [w])

    for start in range(g.n):
        walk([start])
    return total


def reference_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) from one draw over every pair, materialised as tuples in
    row-major order of the upper triangle."""
    rng = make_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph.from_edges(n, [])
    keep = rng.random(len(pairs)) < p
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


def reference_random_bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    """Random bipartite graph from one draw over all a*b pairs (u, a + v)."""
    rng = make_rng(seed)
    pairs = [(u, a + v) for u in range(a) for v in range(b)]
    if not pairs:
        return Graph.from_edges(a + b, [])
    keep = rng.random(len(pairs)) < p
    return Graph.from_edges(a + b, [e for e, k in zip(pairs, keep) if k])


def reference_find_cycle(adj: dict, n: int, r: int, steps: list, budget: int):
    """First r-cycle in lexicographic path order, scanning start vertices
    from 0: the start is the cycle's minimum, interior vertices ascend."""
    for start in range(n):
        path = [start]
        on_path = {start}

        def dfs():
            steps[0] += 1
            if steps[0] > budget:
                raise BudgetExceeded(f"cycle search exceeded {budget} steps")
            v = path[-1]
            if len(path) == r:
                return start in adj[v]
            for w in sorted(adj[v]):
                if w > start and w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    if dfs():
                        return True
                    path.pop()
                    on_path.remove(w)
            return False

        if len(adj[start]) >= 2 and dfs():
            return path
    return None


def reference_make_cr_free(g: Graph, r: int, budget: int = 10**8) -> Graph:
    """Delete the smallest edge of the first r-cycle found, rescanning from
    vertex 0 after every deletion, until no r-cycle remains."""
    adj = {v: set(row) for v, row in enumerate(rows(g))}
    steps = [0]
    while True:
        cycle = reference_find_cycle(adj, g.n, r, steps, budget)
        if cycle is None:
            break
        u, v = min(tuple(sorted((cycle[i], cycle[(i + 1) % r]))) for i in range(r))
        adj[u].discard(v)
        adj[v].discard(u)
    edges = sorted((u, v) for u in adj for v in adj[u] if u < v)
    return Graph.from_edges(g.n, edges)


def _sets(n: int, owner, cols) -> tuple[frozenset[int], ...]:
    """The frozensets V_i = {cols[k] : owner[k] = i} of n owners."""
    sets = [set() for _ in range(n)]
    for i, j in zip(owner.tolist(), cols.tolist()):
        sets[i].add(j)
    return tuple(map(frozenset, sets))


def reference_random_plan(g: Graph, rng) -> EpsilonPlan:
    """``verify.random_plan`` row by row in scalar draws: each neighbor of
    vertex i, ascending, joins V_i when its draw is below 1/2, then eps_i is
    one draw times the cap of V_i."""
    sets, eps = [], []
    for row in rows(g):
        chosen = frozenset(w for w in row if rng.random() < 0.5)
        cap = 1.0 / math.sqrt(len(chosen)) if chosen else 1.0
        sets.append(chosen)
        eps.append(float(rng.random()) * cap)
    return EpsilonPlan.from_sets(sets, eps)


def plan_sets(plan) -> tuple[frozenset[int], ...]:
    """The plan's subsets V_i, rebuilt as frozensets from its pair arrays."""
    return _sets(len(plan.eps), plan.owner, plan.cols)


def back_sets(g: Graph, order: DegeneracyOrder) -> tuple[frozenset[int], ...]:
    """The back-neighbor set of every vertex, rebuilt from ``back_pairs``."""
    return _sets(g.n, *back_pairs(g, order))


def edge_inner_bound(plan, u: int, v: int) -> float:
    """Upper bound on <v_u, v_v> for an edge: pairs each membership indicator
    with the set owner's eps (-eps_v/4 when u is in V_v, and symmetrically),
    plus eps_u eps_v |V_u ^ V_v| for the shared support."""
    sets = plan_sets(plan)
    b = 0.0
    if u in sets[v]:
        b -= plan.eps[v] / 4.0
    if v in sets[u]:
        b -= plan.eps[u] / 4.0
    return b + plan.eps[u] * plan.eps[v] * len(sets[u] & sets[v])


def reference_vector(emb, i: int) -> dict[int, float]:
    """Vector i of ``emb`` straight from its plan, as a dict in the vector's
    own order: 1 at coordinate i, then -eps_i at each j of V_i (in the
    plan's pair order), all divided by sqrt(1 + eps_i^2 |V_i|)."""
    plan = emb.plan
    e, vi = float(plan.eps[i]), plan.cols[plan.owner == i].tolist()
    norm = math.sqrt(1.0 + e * e * len(vi))
    vec = {i: 1.0 / norm}
    for j in vi:
        vec[j] = -e / norm
    return vec


def reference_inner(a: dict[int, float], b: dict[int, float]) -> float:
    """Dict inner product over the smaller support (``a``'s on a tie), in
    that vector's order."""
    if len(a) > len(b):
        a, b = b, a
    return sum(val * b[k] for k, val in a.items() if k in b)


def reference_edge_terms(emb) -> tuple[float, ...]:
    """Per-edge arccos(<v_u, v_v>)/pi from the reference vectors, the inner
    product clamped to [-1, 1]."""
    terms = []
    for u, v in emb.graph.edges:
        x = reference_inner(reference_vector(emb, u), reference_vector(emb, v))
        terms.append(math.acos(min(1.0, max(-1.0, x))) / math.pi)
    return tuple(terms)


def reference_plan_lower_bound(g, plan) -> float:
    """Plan bound m/2 + sum eps_i |V_i|/(4 pi) - sum_E eps_u eps_v |V_u ^ V_v|/2,
    intersecting the two frozensets of every edge."""
    sets, eps = plan_sets(plan), plan.eps.tolist()
    gain = math.fsum(eps[i] * len(sets[i]) for i in range(g.n)) / (4.0 * math.pi)
    loss = math.fsum(eps[u] * eps[v] * len(sets[u] & sets[v]) for u, v in g.edges)
    return g.m / 2.0 + gain - loss / 2.0


def reference_hyperplane_round(emb, rng) -> tuple[tuple[int, ...], int]:
    """Per-vertex rounding straight from the definition: side 1 unless the
    dot product, summed term by term in the vector's own order, is >= 0."""
    n = emb.graph.n
    w = rng.standard_normal(n)
    side = []
    for i in range(n):
        d = sum(val * w[j] for j, val in reference_vector(emb, i).items())
        side.append(0 if d >= 0.0 else 1)
    value = sum(1 for u, v in emb.graph.edges if side[u] != side[v])
    return tuple(side), value


def reference_rounding_rows(seeds, count: int, sizes) -> np.ndarray:
    """Rows of rounding directions one row and one segment at a time: row k
    holds, for each seed, the k-th run of its size of normals of the seed's
    rounding stream."""
    gens = [make_rng(seed, _ROUNDING_PATH) for seed in seeds]
    return np.array([np.concatenate([gen.standard_normal(n) for gen, n in zip(gens, sizes)])
                     for _ in range(count)]).reshape(count, sum(sizes))


def reference_best_rounding(emb, repeats: int, seed: int) -> tuple[tuple[int, ...], int]:
    """First strict maximum over repeats, repeat k rounding with the k-th
    direction drawn from the rounding stream of ``seed``."""
    best, rng = None, make_rng(seed, _ROUNDING_PATH)
    for _ in range(max(1, repeats)):
        side, value = reference_hyperplane_round(emb, rng)
        if best is None or value > best[1]:
            best = (side, value)
    return best


def reference_max_t_cut(g: Graph, base_side, t: int, rng, repeats: int) -> tuple[tuple[int, ...], int]:
    """Per-vertex t-way refinement: the same draws as ``max_t_cut``, mapped to
    parts one vertex at a time; first strict maximum over repeats."""
    s, odd = divmod(t, 2)
    best_part, best_val = None, -1
    for _ in range(max(1, repeats)):
        part = [0] * g.n
        if odd:
            draws = rng.integers(0, t, size=g.n) if g.n else []
            for v in range(g.n):
                k = int(draws[v])
                if k >= 2 * s:
                    part[v] = 2 * s
                elif base_side[v] == 0:
                    part[v] = k // 2
                else:
                    part[v] = s + k // 2
        else:
            draws = rng.integers(0, s, size=g.n) if g.n else []
            for v in range(g.n):
                part[v] = int(draws[v]) + (0 if base_side[v] == 0 else s)
        val = sum(1 for u, v in g.edges if part[u] != part[v])
        if val > best_val:
            best_part, best_val = tuple(part), val
    return best_part, best_val


class ReferenceOrder(NamedTuple):
    """A vertex order with the back-neighbor set of every vertex."""

    order: tuple[int, ...]
    back_neighbors: tuple[frozenset[int], ...]
    degeneracy: int


def reference_back_sets(g: Graph, order) -> tuple[frozenset[int], ...]:
    """For every vertex in ``order``, its neighbors earlier in ``order``;
    the empty set for every other vertex."""
    pos = {v: i for i, v in enumerate(order)}
    return tuple(
        frozenset(w for w in row if pos.get(w, len(pos)) < pos[v]) if v in pos else frozenset()
        for v, row in enumerate(rows(g))
    )


def reference_degeneracy_order(g: Graph) -> ReferenceOrder:
    """Min-degree peel with one heap of (degree, id) pairs and lazy deletion:
    lowest degree first, lowest id on ties, removal sequence reversed; the
    back sets are read off the order by :func:`reference_back_sets`."""
    n = g.n
    adj = rows(g)
    deg = [len(a) for a in adj]
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
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    order = tuple(reversed(removal))
    return ReferenceOrder(order, reference_back_sets(g, order), degeneracy)


def reference_count_triangles(g: Graph) -> int:
    """Triangles by set intersection along every edge, each counted at its
    largest vertex."""
    adj = [frozenset(row) for row in rows(g)]
    total = 0
    for u, v in g.edges:
        a, b = adj[u], adj[v]
        if len(a) > len(b):
            a, b = b, a
        total += sum(1 for w in a if w > v and w in b)
    return total


def reference_back_triangles(g: Graph, order) -> tuple[int, ...]:
    """Per-vertex triangles inside the back set of ``order`` (a
    ``DegeneracyOrder`` or a ``ReferenceOrder``), by set intersection."""
    adj = [frozenset(row) for row in rows(g)]
    backs = reference_back_sets(g, order.order)
    out = []
    for v in range(g.n):
        back = backs[v]
        twice = sum(len(adj[w] & back) for w in back)
        out.append(twice // 2)
    return tuple(out)


def reference_partition(g: Graph, eps: float):
    """Triangle-sparse partition rebuilding the residual subgraph every round
    to recount its edges and triangles, and searching the whole graph's
    reference peel, taken once, restricted to the residual: recount the back
    sets and back triangles by set loops and strip the back set of the first
    vertex closing back-degree/eps of them. Returns (parts, witnesses,
    remainder) in ``g``'s ids."""
    canon = reference_degeneracy_order(g)
    parts, witnesses = [], []
    residual = set(range(g.n))
    while True:
        sub, _ = induced_subgraph(g, sorted(residual))
        t = reference_count_triangles(sub)
        if t == 0 or t * eps < sub.m:
            break
        live = tuple(v for v in canon.order if v in residual)
        order = ReferenceOrder(live, reference_back_sets(g, live), canon.degeneracy)
        t_back = reference_back_triangles(g, order)
        hit = None
        for v in order.order:
            dv = len(order.back_neighbors[v])
            if dv >= 1 and t_back[v] * eps >= dv:
                hit = order.back_neighbors[v], v
                break
        if hit is None:
            break
        dense, w = hit
        parts.append(dense)
        witnesses.append(w)
        residual -= dense
    return tuple(parts), tuple(witnesses), frozenset(residual)


def reference_combine_subcuts(g: Graph, blocks) -> tuple[int, ...]:
    """Sides of the greedy block merge, one vertex and one edge at a time:
    each block, in list order, keeps its own labels unless flipping them
    cuts more of its edges to the vertices already placed."""
    adj = rows(g)
    side = [0] * g.n
    placed = [False] * g.n
    for vs, cut in blocks:
        members = sorted(vs)
        near = [(cut.side[i], w) for i, v in enumerate(members) for w in adj[v] if placed[w]]
        uncut = sum(own == side[w] for own, w in near)
        flip = 0 if 2 * uncut <= len(near) else 1
        for i, v in enumerate(members):
            side[v] = cut.side[i] ^ flip
            placed[v] = True
    return tuple(side)


def _ramsey_bound(r: int, s: int) -> int:
    return math.comb(r + s - 2, s - 1)


def reference_ramsey(adj, verts, r: int, s: int) -> set[int]:
    """Pivot recursion for a Ramsey independent set, one nesting level per
    pivot kept on the non-neighbor branch: the max-degree pivot (lowest id on
    a tie) either descends into its neighborhood with r - 1 or joins the set
    found in its non-neighborhood with s - 1."""
    if s <= 0:
        return set()
    if len(verts) < _ramsey_bound(r, s):
        raise TooFewVertices(f"{len(verts)} vertices, need {_ramsey_bound(r, s)}")
    vset = set(verts)
    if r == 2:
        for v in verts:
            for w in adj[v]:
                if w > v and w in vset:
                    raise CliqueFound((v, w))
        return set(verts[:s])
    if s == 1:
        return {verts[0]}
    pivot = max(verts, key=lambda v: (sum(1 for w in adj[v] if w in vset), -v))
    nbrs = [w for w in adj[pivot] if w in vset]
    if len(nbrs) >= _ramsey_bound(r - 1, s):
        try:
            return reference_ramsey(adj, nbrs, r - 1, s)
        except CliqueFound as found:
            raise CliqueFound((*found.witness, pivot)) from None
    nbr_set = set(nbrs)
    non = [v for v in verts if v != pivot and v not in nbr_set]
    return reference_ramsey(adj, non, r, s - 1) | {pivot}


def reference_coloring_cut(g: Graph, col: Coloring) -> tuple[Cut, CutCertificate]:
    """The derandomized class split as it was first written: each class
    goes to the capacity-feasible group of larger exact conditional
    expectation (A on a tie), both expectations rebuilt in Fractions by a
    loop over every unplaced class."""
    if len(col.color) != g.n:
        raise ImproperColoring(f"coloring covers {len(col.color)} of {g.n} vertices")
    edges = g.edges
    for u, v in edges:
        if col.color[u] == col.color[v]:
            raise ImproperColoring(f"edge ({u}, {v}) is monochromatic")
    t = col.classes
    if t <= 1:
        cut = cut_value(g, [0] * g.n)
        return cut, CutCertificate(0.0, None, "coloring_bound", 0.0)

    weights = [[0] * t for _ in range(t)]
    for u, v in edges:
        cu, cv = col.color[u], col.color[v]
        weights[cu][cv] += 1
        weights[cv][cu] += 1
    cap_a, cap_b = (t + 1) // 2, t // 2
    assign: list[int | None] = [None] * t
    # running aggregates: weight between the two assigned groups, each
    # unassigned class's weight to either group, and weight among unassigned
    w_ab = 0
    w_to_a = [0] * t
    w_to_b = [0] * t
    w_free = sum(weights[x][y] for x in range(t) for y in range(x + 1, t))
    a_rem, b_rem = cap_a, cap_b

    def expectation_after(c: int, grp: int) -> Fraction:
        a2 = a_rem - (1 if grp == 0 else 0)
        b2 = b_rem - (1 if grp == 1 else 0)
        free = a2 + b2
        fixed = w_ab + (w_to_b[c] if grp == 0 else w_to_a[c])
        cross_c = 0
        mixed = 0
        for y in range(t):
            if assign[y] is None and y != c:
                cross_c += weights[c][y]
                wa = w_to_a[y] + (weights[c][y] if grp == 0 else 0)
                wb = w_to_b[y] + (weights[c][y] if grp == 1 else 0)
                mixed += wa * b2 + wb * a2
        total = Fraction(fixed)
        if free:
            total += Fraction(mixed, free)
        if free >= 2:
            total += (w_free - cross_c) * Fraction(2 * a2 * b2, free * (free - 1))
        return total

    order = sorted(range(t), key=lambda c: (-sum(weights[c]), c))
    for c in order:
        options = []
        if a_rem:
            options.append((expectation_after(c, 0), 0))
        if b_rem:
            options.append((expectation_after(c, 1), 1))
        grp = max(options, key=lambda o: (o[0], -o[1]))[1]
        assign[c] = grp
        if grp == 0:
            w_ab += w_to_b[c]
            a_rem -= 1
        else:
            w_ab += w_to_a[c]
            b_rem -= 1
        for y in range(t):
            if assign[y] is None:
                w_free -= weights[c][y]
                if grp == 0:
                    w_to_a[y] += weights[c][y]
                else:
                    w_to_b[y] += weights[c][y]
    side = [assign[col.color[v]] for v in range(g.n)]
    cut = cut_value(g, side)
    cert = float(g.m * split_probability(t))
    return cut, CutCertificate(cert, None, "coloring_bound", cert)


def reference_max_t_cut_exact(g: Graph, t: int, budget: OracleBudget | None = None) -> TPartition:
    """Optimal t-partition by chunked enumeration of every base-t code with
    vertex 0 in part 0, one pass per edge over each chunk of 2^18 codes;
    codes are read most-significant digit first, so ties resolve to the
    lexicographically smallest part sequence."""
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    budget = budget or T_CUT_BUDGET
    if g.n > budget.max_vertices:
        raise BudgetExceeded(f"{g.n} vertices exceed the cap {budget.max_vertices}")
    if g.n == 0:
        return TPartition((), 0)
    free = g.n - 1
    total = t**free
    if total * max(g.m, 1) > budget.max_steps:
        raise BudgetExceeded("enumeration work exceeds the step cap")
    place = [t ** (free - v) for v in range(1, g.n)]  # digit weight of vertex v
    best_val = -1
    best_code = 0
    edges = g.edges
    chunk = 1 << 18
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = [None] + [(codes // place[v - 1]) % t for v in range(1, g.n)]
        values = np.zeros(codes.shape, dtype=np.uint16)
        for u, v in edges:
            du = digits[u] if u else 0
            values += (du != digits[v]).astype(np.uint16)
        idx = int(values.argmax())
        val = int(values[idx])
        if val > best_val:
            best_val = val
            best_code = start + idx
    part = [0] * g.n
    for v in range(1, g.n):
        part[v] = (best_code // place[v - 1]) % t
    return TPartition(tuple(part), best_val)


def reference_sampled_sdp_cut(g: Graph, p=None, eps=None, rng=None, repeats: int = 32):
    """``sampled_sdp_cut`` as one induced subgraph, ``sdp_cut`` and extension
    per sample, in turn."""
    if p is None:
        p = SAMPLE_P
    if not 0.0 < p <= 1.0:
        raise InvalidParameter(f"p must lie in (0, 1], got {p}")
    if rng is None:
        rng = make_rng(0)
    if eps is None:
        eps = default_eps(g)
    check_eps(g, eps)
    best_cut = None
    best_cert = -math.inf
    for _ in range(max(1, repeats)):
        sample_graph, vs = induced_subgraph(g, np.flatnonzero(rng.random(g.n) < p))
        inner_seed = int(rng.integers(0, 2**63))
        sample_cut, sample_cert = sdp_cut(sample_graph, eps, 32, inner_seed)
        extended, _ = extend_cut(g, vs, sample_cut)
        cert = g.m / 2 + (sample_cert.expected_value - sample_graph.m / 2)
        if best_cut is None or extended.value > best_cut.value:
            best_cut = extended
        best_cert = max(best_cert, cert)
    return best_cut, CutCertificate(best_cert, None, "sampled_extension", g.m / 2)
