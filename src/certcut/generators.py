"""Test-instance factories: random regular graphs via the configuration
model, Erdos-Renyi graphs, short-cycle destruction, and the standard dense
clique-free families. Every generator is deterministic given its seed: the
same spec always produces the same edge list, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import make_rng
from .errors import (
    BudgetExceeded,
    DuplicateEdge,
    InfeasibleDegree,
    InfeasibleSpec,
    InvalidParameter,
    RetryLimitExceeded,
    SelfLoop,
)
from .graphcore import Graph


def random_regular(n: int, d: int, seed: int = 0, max_restarts: int = 1000) -> Graph:
    """Simple d-regular graph from the stub-pairing model.

    Pairings producing self-loops or multi-edges are rejected wholesale and
    the pairing restarts (up to ``max_restarts`` times). The acceptance rate
    decays like exp(-(d-1)/2 - (d-1)^2/4), so degrees beyond ~5 need a much
    larger restart budget.
    """
    _check_sizes("vertex count", n=n)
    if max_restarts < 0:
        raise InvalidParameter(f"max_restarts must be >= 0, got {max_restarts}")
    if d < 0 or (n * d) % 2 != 0 or (d >= n and n > 0):
        raise InfeasibleDegree(f"no simple {d}-regular graph on {n} vertices")
    rng = make_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_restarts):
        pairing = stubs[rng.permutation(len(stubs))] if len(stubs) else stubs
        try:
            return Graph.from_edges(n, pairing.reshape(-1, 2))
        except (SelfLoop, DuplicateEdge):
            continue
    raise RetryLimitExceeded(f"no simple pairing found in {max_restarts} restarts")


PAIR_CHUNK = 1 << 16


def _kept_pairs(rng, total: int, p: float) -> np.ndarray:
    """Flat pair indices k < ``total`` whose uniform draw falls below p.

    The draws are made ``PAIR_CHUNK`` at a time; a numpy ``Generator`` yields
    the same doubles in chunks as in one call, so the kept set depends only
    on the seed, and memory is O(chunk + kept).
    """
    kept = [
        start + np.flatnonzero(rng.random(min(PAIR_CHUNK, total - start)) < p)
        for start in range(0, total, PAIR_CHUNK)
    ]
    return np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi graph: each pair appears independently with probability p.

    Pair (u, v), u < v, is draw number u*n - u(u+1)/2 + (v - u - 1), the
    row-major order of the upper triangle.
    """
    _check_sizes("vertex count", n=n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    k = _kept_pairs(make_rng(seed), n * (n - 1) // 2 if n > 1 else 0, p)
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * n - rows * (rows + 1) // 2
    u = np.searchsorted(row_start, k, side="right") - 1
    v = k - row_start[u] + u + 1
    return Graph.from_edges(n, np.stack((u, v), axis=1))


def _find_cycle(adj: dict, n: int, r: int, steps: list, budget: int, first: int):
    # first r-cycle in lexicographic path order among start vertices >= first:
    # the start vertex is the cycle's minimum, interior vertices are explored
    # in increasing id order
    try:
        for start in range(first, n):
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
    finally:
        # dfs holds itself through its closure; breaking that cycle frees
        # adj's sets when the search returns, not at the next cyclic collection
        dfs = None


def make_cr_free(g: Graph, r: int, budget: int = 10**8) -> Graph:
    """Delete one edge per detected r-cycle until none of length exactly r
    remains. The deleted edge is the lexicographically smallest of the found
    cycle, so the output is deterministic; the final rescan certifies it.

    The search for the next cycle resumes at the start (minimum) vertex of
    the one just found, not at vertex 0. That finds the same cycle as a scan
    from 0: deleting edges never creates a cycle, so a start vertex that
    closed no r-cycle before a deletion closes none after it. ``budget``
    caps the DFS steps of these resumed searches, summed over all of them.
    """
    if r < 3:
        raise InvalidParameter(f"cycle length r must be >= 3, got {r}")
    adj = {v: set(row) for v, row in enumerate(g.rows())}
    steps = [0]
    first = 0
    while True:
        cycle = _find_cycle(adj, g.n, r, steps, budget, first)
        if cycle is None:
            break
        first = cycle[0]
        cycle_edges = [
            tuple(sorted((cycle[i], cycle[(i + 1) % r]))) for i in range(r)
        ]
        u, v = min(cycle_edges)
        adj[u].discard(v)
        adj[v].discard(u)
    edges = sorted((u, v) for u in adj for v in adj[u] if u < v)
    return Graph.from_edges(g.n, edges)


def _check_sizes(what: str, **sizes: int) -> None:
    if any(x < 0 for x in sizes.values()):
        got = ", ".join(f"{name}={x}" for name, x in sizes.items())
        raise InvalidParameter(f"{what} must be >= 0, got {got}")


def complete(n: int) -> Graph:
    _check_sizes("vertex count", n=n)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    _check_sizes("vertex count", n=n)
    if n < 3:
        raise InfeasibleSpec("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    _check_sizes("vertex count", n=n)
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def star(leaves: int) -> Graph:
    _check_sizes("leaf count", leaves=leaves)
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph.from_edges(10, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    _check_sizes("part sizes", a=a, b=b)
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def random_bipartite(a: int, b: int, p: float, seed: int = 0) -> Graph:
    """Each of the a*b pairs (u, a + v) appears independently with
    probability p; pair (u, a + v) is draw number u*b + v."""
    _check_sizes("part sizes", a=a, b=b)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    k = _kept_pairs(make_rng(seed), a * b, p)
    return Graph.from_edges(a + b, np.stack((k // b, a + k % b), axis=1))


def turan(n: int, classes: int) -> Graph:
    """Complete multipartite graph with balanced classes (v's class is v mod
    classes); the canonical dense K_(classes+1)-free instance."""
    _check_sizes("vertex count", n=n)
    if classes < 1:
        raise InfeasibleSpec("need at least one class")
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u % classes != v % classes
    ]
    return Graph.from_edges(n, edges)


def blowup(base: Graph, k: int) -> Graph:
    """Replace every base vertex with an independent k-set, every base edge
    with the complete bipartite join of the two sets."""
    if k < 1:
        raise InfeasibleSpec("blowup factor must be >= 1")
    edges = [(u * k + i, v * k + j) for u, v in base.edges for i in range(k) for j in range(k)]
    return Graph.from_edges(base.n * k, edges)


def disjoint_cliques(count: int, size: int) -> Graph:
    _check_sizes("clique count and size", count=count, size=size)
    edges = [(c * size + u, c * size + v)
             for c in range(count) for u in range(size) for v in range(u + 1, size)]
    return Graph.from_edges(count * size, edges)


@dataclass(frozen=True)
class GenSpec:
    """Declarative generator spec: model name, parameters, seed."""

    model: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def family(spec: GenSpec) -> Graph:
    """Dispatch a GenSpec to its factory; unknown models or bad parameters
    raise InfeasibleSpec."""
    p = dict(spec.params)
    try:
        if spec.model == "regular":
            return random_regular(p.pop("n"), p.pop("d"), spec.seed, **p)
        if spec.model == "gnp":
            return gnp(p.pop("n"), p.pop("p"), spec.seed)
        if spec.model == "bipartite":
            return random_bipartite(p.pop("a"), p.pop("b"), p.pop("p", 1.0), spec.seed)
        if spec.model == "turan":
            return turan(p.pop("n"), p.pop("classes"))
        if spec.model == "blowup":
            return blowup(cycle(p.pop("cycle")), p.pop("k"))
        if spec.model == "disjoint-cliques":
            return disjoint_cliques(p.pop("count"), p.pop("size"))
    except KeyError as missing:
        raise InfeasibleSpec(f"model {spec.model!r} is missing parameter {missing}") from None
    except (ValueError, TypeError) as bad:
        raise InfeasibleSpec(f"model {spec.model!r}: {bad}") from None
    raise InfeasibleSpec(f"unknown model {spec.model!r}")
