"""Decomposition of degenerate graphs into dense common-neighborhood parts
plus a triangle-sparse remainder, and the cut frameworks built on it: greedy
(derandomized) block combination, greedy cut extension, the composite
best-of-candidates solver, its clique-free specialization, and the
vertex-sampled variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Callable

from ._rng import derive_seed, make_rng
from .chromatic import coloring_cut, kr_free_coloring
from .embedding import CutCertificate, check_eps, eps_cap, sdp_cut
from .errors import (
    InvalidParameter,
    NotACutOfInducedSubgraph,
    NotAPartition,
    NotEnoughTriangles,
    NotKrFree,
)
from .graphcore import (
    CLIQUE_STEP_BUDGET,
    Cut,
    DegeneracyOrder,
    Graph,
    count_back_triangles,
    cut_value,
    find_clique,
    induced_subgraph,
)

KR_SURPLUS_CONSTANT = 1.0 / 388.0


@dataclass(frozen=True)
class Decomposition:
    """Partition into dense parts V_1..V_k plus a triangle-sparse remainder.

    Each part has at most d vertices (d = graph degeneracy), all adjacent to
    its witness vertex, and spans at least |V_i|/eps_used internal edges; the
    remainder induces at most m/eps_used triangles.
    """

    parts: tuple[frozenset[int], ...]
    remainder: frozenset[int]
    eps_used: float
    witnesses: tuple[int, ...]


@dataclass(frozen=True)
class SubSolver:
    """Callable (Graph) -> (Cut, CutCertificate) with a descriptor string."""

    fn: Callable[[Graph], tuple[Cut, CutCertificate]]
    descriptor: str

    def __call__(self, g: Graph) -> tuple[Cut, CutCertificate]:
        return self.fn(g)


def as_subsolver(sub) -> SubSolver:
    if isinstance(sub, SubSolver):
        return sub
    return SubSolver(sub, getattr(sub, "__name__", "callable"))


def find_dense_subset(g: Graph, order: DegeneracyOrder, eps: float):
    """Back-neighbor set of the first vertex (in order) whose back-triangle
    count reaches back-degree/eps; that vertex is the common neighbor.

    Returns (vertex set, witness). Requires a triangle-rich graph; raises
    NotEnoughTriangles when no vertex qualifies.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    t_back = count_back_triangles(g, order)
    for v in order.order:
        dv = len(order.back_neighbors[v])
        if dv >= 1 and t_back[v] * eps >= dv:
            return order.back_neighbors[v], v
    raise NotEnoughTriangles(
        f"no vertex closes back-degree/{eps} triangles inside its back-neighbor set"
    )


def partition_triangle_sparse(g: Graph, eps: float) -> Decomposition:
    """Iteratively strip dense common-neighborhood subsets until the residual
    induces at most m/eps triangles. Terminates because every extracted part
    is nonempty."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    parts: list[frozenset[int]] = []
    witnesses: list[int] = []
    residual = list(range(g.n))
    while True:
        sub, vmap = induced_subgraph(g, residual)
        t = sub.triangles
        if t == 0 or t * eps < sub.m:
            break
        try:
            dense, w = find_dense_subset(sub, sub.degeneracy_order, eps)
        except NotEnoughTriangles:
            # float rounding at the eps boundary; residual counts as sparse
            break
        parts.append(frozenset(vmap.to_parent[v] for v in dense))
        witnesses.append(vmap.to_parent[w])
        residual = [vmap.to_parent[v] for v in range(sub.n) if v not in dense]
    return Decomposition(tuple(parts), frozenset(residual), eps, tuple(witnesses))


def _check_block_cut(g: Graph, vs, cut: Cut):
    sub, vmap = induced_subgraph(g, vs)
    if len(cut.side) != sub.n:
        raise NotACutOfInducedSubgraph(
            f"cut labels {len(cut.side)} vertices, induced subgraph has {sub.n}"
        )
    check = cut_value(sub, cut.side)
    if check.value != cut.value:
        raise NotACutOfInducedSubgraph(
            f"cut claims value {cut.value}, recount gives {check.value}"
        )
    return sub, vmap


def combine_subcuts(g: Graph, blocks) -> tuple[Cut, CutCertificate]:
    """Merge per-block cuts, choosing each block's orientation greedily.

    Blocks are processed in list order; the orientation placing more of the
    block's edges-to-already-placed-vertices across the cut wins (ties keep
    the block's own labels). The result is always at least the random
    orientation expectation (m - sum m_i)/2 + sum of block cut values, which
    is returned as the certificate.
    """
    seen: set[int] = set()
    for vs, _ in blocks:
        vs = set(vs)
        if vs & seen:
            raise NotAPartition("blocks overlap")
        seen |= vs
    if seen != set(range(g.n)):
        raise NotAPartition("blocks do not cover the vertex set")

    side = [0] * g.n
    placed = [False] * g.n
    internal_edges = 0
    internal_value = 0
    for vs, cut in blocks:
        sub, vmap = _check_block_cut(g, vs, cut)
        internal_edges += sub.m
        internal_value += cut.value
        keep = flip = 0
        for local, v in enumerate(vmap.to_parent):
            sv = cut.side[local]
            for w in g.adjacency[v]:
                if placed[w]:
                    if sv != side[w]:
                        keep += 1
                    else:
                        flip += 1
        orient = 0 if keep >= flip else 1
        for local, v in enumerate(vmap.to_parent):
            side[v] = cut.side[local] ^ orient
            placed[v] = True
    final = cut_value(g, side)
    cert = (g.m - internal_edges) / 2 + internal_value
    return final, CutCertificate(cert, None, "block_combination", cert)


def extend_cut(g: Graph, u, cut_u: Cut) -> tuple[Cut, CutCertificate]:
    """Extend a cut of the induced subgraph on ``u`` to the whole graph.

    Outside vertices are placed one at a time (increasing id) on the side
    cutting more of their already-placed edges (ties to side 0), so the value
    is always at least the certificate (m - m(u))/2 + cut_u.value.
    """
    sub, vmap = _check_block_cut(g, u, cut_u)
    side = [0] * g.n
    placed = [False] * g.n
    for local, v in enumerate(vmap.to_parent):
        side[v] = cut_u.side[local]
        placed[v] = True
    for v in range(g.n):
        if placed[v]:
            continue
        to_one = sum(1 for w in g.adjacency[v] if placed[w] and side[w] == 1)
        to_zero = sum(1 for w in g.adjacency[v] if placed[w] and side[w] == 0)
        side[v] = 0 if to_one >= to_zero else 1
        placed[v] = True
    final = cut_value(g, side)
    cert = (g.m - sub.m) / 2 + cut_u.value
    return final, CutCertificate(cert, None, "extension", cert)


def greedy_half_cut(g: Graph) -> tuple[Cut, CutCertificate]:
    """Greedy placement of every vertex; value (and certificate) >= m/2."""
    return extend_cut(g, (), Cut((), 0))


def composite_cut(
    g: Graph,
    eps: float,
    sub,
    repeats: int = 32,
    seed: int = 0,
) -> tuple[Cut, CutCertificate]:
    """Best of four candidate cuts built from the triangle-sparse partition.

    Partitions with parameter 8*eps, then evaluates: (a) the subsolver on
    every dense part plus rounding on the sparse remainder, greedily
    combined; (b) the plain parts-vs-remainder bipartition; (c) rounding on
    the whole graph; (d) the greedy half cut, which guarantees value >= m/2
    unconditionally. Returns the best cut by value; the certificate is the
    largest candidate certificate (each one is a valid max-cut lower bound).
    """
    sub = as_subsolver(sub)
    check_eps(g, eps)
    decomp = partition_triangle_sparse(g, 8 * eps)

    blocks = []
    for part in decomp.parts:
        part_graph, _ = induced_subgraph(g, part)
        part_cut, _ = sub(part_graph)
        blocks.append((part, part_cut))
    rem_graph, _ = induced_subgraph(g, decomp.remainder)
    rem_cut, _ = sdp_cut(rem_graph, eps, repeats, derive_seed(seed, 1))
    blocks.append((decomp.remainder, rem_cut))
    cut_a, cert_a = combine_subcuts(g, blocks)

    left = set()
    for part in decomp.parts:
        left |= part
    cut_b = cut_value(g, [0 if v in left else 1 for v in range(g.n)])
    cert_b = CutCertificate(float(cut_b.value), None, "parts_vs_remainder", float(cut_b.value))

    cut_c, cert_c = sdp_cut(g, eps, repeats, derive_seed(seed, 2))

    cut_d, cert_d = greedy_half_cut(g)

    candidates = [(cut_a, cert_a), (cut_b, cert_b), (cut_c, cert_c), (cut_d, cert_d)]
    best_cut = max(candidates, key=lambda c: c[0].value)[0]
    best_cert = max(c.expected_value for _, c in candidates)
    return best_cut, CutCertificate(best_cert, None, "half", g.m / 2)


def kr_cut(
    g: Graph,
    r: int,
    repeats: int = 32,
    seed: int = 0,
    clique_budget: int = CLIQUE_STEP_BUDGET,
) -> tuple[Cut, CutCertificate]:
    """Composite cut for K_r-free graphs with eps = d^(-1 + 1/(2r-4)).

    Dense parts live inside a vertex neighborhood, hence are K_(r-1)-free and
    are solved by the coloring-cut pipeline. The certificate is measured
    against the closed-form surplus reference (1/2 + c*eps) m with
    c = 1/388; it always dominates m/2.
    """
    if r < 3:
        raise InvalidParameter(f"r must be >= 3, got {r}")
    witness = find_clique(g, r, clique_budget)
    if witness is not None:
        raise NotKrFree(witness)
    d = g.degeneracy_order.degeneracy
    if d == 0:
        empty = cut_value(g, [0] * g.n)
        return empty, CutCertificate(0.0, None, "kr_surplus", 0.0)
    eps = float(d) ** (-1.0 + 1.0 / (2 * r - 4))

    def color_solver(h: Graph):
        return coloring_cut(h, kr_free_coloring(h, r - 1))

    if r == 4:
        # parts are triangle-free, so constant-eps rounding carries its full
        # closed-form surplus there; keep whichever cut turns out larger
        part_counter = count()

        def part_solver(h: Graph):
            colored = color_solver(h)
            rounded = sdp_cut(h, None, repeats, derive_seed(seed, 3, next(part_counter)))
            return rounded if rounded[0].value > colored[0].value else colored

        sub = SubSolver(part_solver, "max(coloring_cut, sdp_cut)[triangle-free]")
    else:
        sub = SubSolver(color_solver, f"coloring_cut[K_{r - 1}-free]")
    cut, cert = composite_cut(g, eps, sub, repeats, seed)
    bound = (0.5 + KR_SURPLUS_CONSTANT * eps) * g.m
    return cut, CutCertificate(cert.expected_value, None, "kr_surplus", bound)


def epsilon_for_surplus_exponent(a: float, c_prime: float, d: int) -> float:
    """eps = c' * d^(-(2-a)/(1+a)) for a subsolver with surplus c' m^a."""
    if not 0.5 <= a <= 1.0:
        raise ValueError("surplus exponent a must lie in [1/2, 1]")
    if d < 1:
        raise ValueError("degeneracy must be >= 1")
    return c_prime * float(d) ** (-(2.0 - a) / (1.0 + a))


def sampled_sdp_cut(
    g: Graph,
    p: float | None = None,
    eps: float | None = None,
    rng=None,
    repeats: int = 32,
    kst_constant: float = 1.0,
    rounding_repeats: int = 32,
) -> tuple[Cut, CutCertificate]:
    """Round on a random vertex sample, then greedily extend to the graph.

    Each repeat keeps every vertex independently with probability ``p``
    (default 1/(10 * kst_constant); the constant is a configuration knob with
    no canonical value), rounds the induced subgraph, and extends. The
    returned cut is the best sample; the certificate is the best repeat's
    m/2 + (subgraph certificate - m(V')/2), a valid max-cut lower bound.
    """
    if p is None:
        p = 1.0 / (10.0 * kst_constant)
    if not 0.0 < p <= 1.0:
        raise InvalidParameter(f"p must lie in (0, 1], got {p}")
    if rng is None:
        rng = make_rng(0)
    if eps is None:
        eps = min(1.0, eps_cap(g))
    check_eps(g, eps)
    best_cut = None
    best_cert = -math.inf
    for _ in range(max(1, repeats)):
        keep = rng.random(g.n) < p if g.n else []
        vs = [v for v in range(g.n) if keep[v]]
        sample_graph, _ = induced_subgraph(g, vs)
        inner_seed = int(rng.integers(0, 2**63))
        sample_cut, sample_cert = sdp_cut(sample_graph, eps, rounding_repeats, inner_seed)
        extended, _ = extend_cut(g, vs, sample_cut)
        cert = g.m / 2 + (sample_cert.expected_value - sample_graph.m / 2)
        if best_cut is None or extended.value > best_cut.value:
            best_cut = extended
        best_cert = max(best_cert, cert)
    return best_cut, CutCertificate(best_cert, None, "sampled_extension", g.m / 2)
