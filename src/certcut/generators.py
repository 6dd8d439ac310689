"""Test-instance factories: random regular graphs via the configuration
model, Erdos-Renyi graphs, short-cycle destruction, and the standard dense
clique-free families. Every generator is deterministic given its seed: the
same spec always produces the same edge list, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
from .graphcore import Graph, _from_sorted_edges, block_rows
from .harness import MAX_HEADER_VERTICES


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


def _kept_pairs(seed: int, total: int, p: float) -> np.ndarray:
    """Flat pair indices k < ``total`` whose uniform draw from
    ``make_rng(seed)`` falls below p, which must lie in [0, 1].

    The draws are made ``block_rows(1)`` at a time; a numpy ``Generator``
    yields the same doubles in chunks as in one call, so the kept set depends
    only on the seed, and memory is O(chunk + kept).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng, chunk = make_rng(seed), block_rows(1)
    kept = [
        start + np.flatnonzero(rng.random(min(chunk, total - start)) < p)
        for start in range(0, total, chunk)
    ]
    return np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi graph: each pair appears independently with probability p.

    Pair (u, v), u < v, is draw number u*n - u(u+1)/2 + (v - u - 1), the
    row-major order of the upper triangle.
    """
    _check_sizes("vertex count", n=n)
    k = _kept_pairs(seed, n * (n - 1) // 2 if n > 1 else 0, p)
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * n - rows * (rows + 1) // 2
    u = np.searchsorted(row_start, k, side="right") - 1
    v = k - row_start[u] + u + 1
    return Graph.from_edges(n, np.stack((u, v), axis=1))


def make_cr_free(g: Graph, r: int, budget: int = 10**8) -> Graph:
    """``g`` without its r-cycles: edge (s, a), s < a, is deleted exactly
    when ``g`` has an r-cycle whose least vertex is s and whose other
    neighbour of s is some b > a. That is what deleting the smallest edge
    of the first r-cycle in lexicographic path order leaves, repeated until
    none remains: each deletion at s removes the edge from s to its smaller
    cycle neighbour, which no cycle that is still to be found uses.

    For each s and each neighbour a > s, ascending, one search over the
    rows of ``g`` looks for a path a ... b of r - 2 edges through distinct
    vertices above s. It runs on an explicit stack, so r has no depth
    limit. ``budget`` caps the steps: one per search, one per vertex pushed.
    """
    if r < 3:
        raise InvalidParameter(f"cycle length r must be >= 3, got {r}")
    flat, ptr = g.indices.tolist(), g.indptr.tolist()
    steps, drop = 0, []
    for s in range(g.n):
        higher = [b for b in flat[ptr[s]:ptr[s + 1]] if b > s]
        ends = set(higher)
        for a in higher[:-1]:  # the largest has no b > a to close at
            steps += 1
            if steps > budget:
                raise BudgetExceeded(f"cycle search exceeded {budget} steps")
            path, on_path, todo = [a], {a}, [iter(flat[ptr[a]:ptr[a + 1]])]
            while todo:
                for w in todo[-1]:
                    if w > s and w not in on_path:
                        break
                else:
                    on_path.remove(path.pop())
                    todo.pop()
                    continue
                steps += 1
                if steps > budget:
                    raise BudgetExceeded(f"cycle search exceeded {budget} steps")
                if len(path) < r - 2:
                    path.append(w)
                    on_path.add(w)
                    todo.append(iter(flat[ptr[w]:ptr[w + 1]]))
                elif w > a and w in ends:
                    drop.append(s * g.n + a)
                    break
    keep = np.ones(g.m, dtype=bool)
    keep[np.searchsorted(g.eu * g.n + g.ev, drop)] = False
    return _from_sorted_edges(g.n, g.eu[keep], g.ev[keep])


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
    k = _kept_pairs(seed, a * b, p)
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
    i, j = np.divmod(np.arange(k * k), k)
    pairs = np.stack((base.eu[:, None] * k + i, base.ev[:, None] * k + j), axis=-1)
    return Graph.from_edges(base.n * k, pairs)


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


class Model(NamedTuple):
    """A ``family`` model: its parameter names, and its vertex count and
    factory as functions of the parameter dict."""

    params: tuple[str, ...]
    vertices: Callable[[dict], int]
    build: Callable[[dict, int], Graph]


# blowup builds its base cycle before checking k
MODELS = {
    "regular": Model(("n", "d", "max_restarts"), lambda p: p["n"],
                     lambda p, seed: random_regular(p.pop("n"), p.pop("d"), seed, **p)),
    "gnp": Model(("n", "p"), lambda p: p["n"], lambda p, seed: gnp(p["n"], p["p"], seed)),
    "bipartite": Model(("a", "b", "p"), lambda p: p["a"] + p["b"],
                       lambda p, seed: random_bipartite(p["a"], p["b"], p.get("p", 1.0), seed)),
    "turan": Model(("n", "classes"), lambda p: p["n"], lambda p, _: turan(p["n"], p["classes"])),
    "blowup": Model(("cycle", "k"), lambda p: max(p["cycle"], 0) * max(p["k"], 1),
                    lambda p, _: blowup(cycle(p["cycle"]), p["k"])),
    "disjoint-cliques": Model(("count", "size"), lambda p: max(p["count"], 0) * max(p["size"], 0),
                              lambda p, _: disjoint_cliques(p["count"], p["size"])),
}


def family(spec: GenSpec) -> Graph:
    """Build a GenSpec by its model's entry in ``MODELS``; unknown models,
    names outside the model's ``params`` or bad values raise InfeasibleSpec.
    A spec of more than ``MAX_HEADER_VERTICES`` vertices, which no edge-list
    reader accepts, raises BudgetExceeded before anything is built."""
    if spec.model not in MODELS:
        raise InfeasibleSpec(f"unknown model {spec.model!r}")
    model, p = MODELS[spec.model], dict(spec.params)
    if stray := [name for name in p if name not in model.params]:
        raise InfeasibleSpec(f"model {spec.model!r} has no parameter {stray[0]!r}")
    try:
        if (vertices := model.vertices(p)) > MAX_HEADER_VERTICES:
            raise BudgetExceeded(f"model {spec.model!r} makes {vertices} vertices, "
                                 f"above the cap {MAX_HEADER_VERTICES}")
        return model.build(p, spec.seed)
    except KeyError as missing:
        raise InfeasibleSpec(f"model {spec.model!r} is missing parameter {missing}") from None
    except (ValueError, TypeError) as bad:
        raise InfeasibleSpec(f"model {spec.model!r}: {bad}") from None
