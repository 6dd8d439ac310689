"""Decomposition of degenerate graphs into dense common-neighborhood parts
plus a triangle-sparse remainder, and the cut frameworks built on it: greedy
(derandomized) block combination, greedy cut extension, the composite
best-of-candidates solver, its clique-free specialization, and the
vertex-sampled variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice, pairwise, tee
from typing import Callable

import numpy as np

from ._rng import derive_seed, make_rng
from .chromatic import coloring_cut, kr_free_coloring
from .embedding import CutCertificate, check_eps, default_eps, exact_expected_cut, sdp_cut, sdp_cuts
from .errors import (
    InvalidParameter,
    NotACutOfInducedSubgraph,
    NotAPartition,
    NotEnoughTriangles,
    NotKrFree,
    OutOfRangeVertex,
)
from .graphcore import (
    Cut,
    DegeneracyOrder,
    Graph,
    _binary_labels,
    _id_array,
    _last_positions,
    _vertex_ids,
    block_rows,
    cut_value,
    find_clique,
    induced_subgraph,
    induced_unions,
)

KR_SURPLUS_CONSTANT = 1.0 / 388.0

# default vertex-keep probability of sampled_sdp_cut: 1/(10 c) with c = 1,
# a constant with no canonical value
SAMPLE_P = 0.1

# samples that sampled_sdp_cut extends in one sweep (extend_cuts): the CLI's
# default --repeats, so a default run sweeps once, and the sweep's memory
# stays bounded for any repeat count
EXTEND_BATCH = 32


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Partition into dense parts V_1..V_k plus a triangle-sparse remainder.

    Each is a sorted read-only intp array of ids. A part has at most d
    vertices (d = graph degeneracy), all adjacent to its witness vertex, and
    spans at least |V_i|/eps_used internal edges; the remainder induces at
    most m/eps_used triangles.
    """

    parts: tuple[np.ndarray, ...]
    remainder: np.ndarray
    eps_used: float
    witnesses: tuple[int, ...]


def _check_partition_eps(eps: float):
    if not eps > 0:
        raise InvalidParameter(f"eps must be positive, got {eps}")


def find_dense_subset(g: Graph, order: DegeneracyOrder, eps: float):
    """Back-neighbor set of the first vertex (in order) whose back-triangle
    count reaches back-degree/eps; that vertex is the common neighbor.

    Returns (sorted read-only id array, witness). Requires a triangle-rich
    graph; raises NotEnoughTriangles when no vertex qualifies.
    """
    _check_partition_eps(eps)
    own, last = _last_positions(g, order.position)
    dv, t_back = (np.bincount(x, minlength=g.n) for x in (own, last))
    return _dense_subset(g, order.order, order.position, dv, t_back, eps)


def _dense_subset(g: Graph, order: np.ndarray, position: np.ndarray, dv: np.ndarray,
                  t_back: np.ndarray, eps: float) -> tuple[np.ndarray, int]:
    """The rule of :func:`find_dense_subset` on counts per position of
    ``order``: the first position j with ``dv[j] >= 1`` and ``t_back[j] *
    eps >= dv[j]`` (int64 counts, compared as floats). Returns the back set
    of v = ``order[j]``, its neighbors at positions 0 to j - 1 of
    ``position`` (-1 outside the order), and v; NotEnoughTriangles when no
    position qualifies."""
    hit = (dv >= 1) & (t_back * eps >= dv)
    if not hit.any():
        raise NotEnoughTriangles(
            f"no vertex closes back-degree/{eps} triangles inside its back-neighbor set"
        )
    j = int(hit.argmax())
    v = int(order[j])
    near = g.indices[g.indptr[v]:g.indptr[v + 1]]
    at = position[near]
    dense = near[(at >= 0) & (at < j)]  # ascending, as the CSR row is
    dense.flags.writeable = False
    return dense, v


def partition_triangle_sparse(g: Graph, eps: float) -> Decomposition:
    """Iteratively strip dense common-neighborhood subsets until the residual
    induces at most m/eps triangles. Terminates because every extracted part
    is nonempty.

    The residual lives on ``g``'s own vertex ids, and its order is ``g``'s
    canonical order restricted to it, so no round builds a subgraph or peels
    again. Restriction changes no live vertex's back-edges or back-triangles
    (those counted at it as the owner of an edge or the last vertex of a
    triangle of ``g.triangle_edges``), so both counts, per canonical
    position, are taken once and each round subtracts what its part kills:
    an edge with an endpoint in the part, and a triangle whose edge uw or vw
    died. Back-degrees in that order are at most d, and each live triangle
    and edge is counted once, so some vertex qualifies whenever t * eps >=
    m. The first check reads ``g.triangles`` and ``g.m``, so a graph that is
    sparse already costs no counts.
    """
    _check_partition_eps(eps)
    parts: list[np.ndarray] = []
    witnesses: list[int] = []
    t, m = g.triangles, g.m
    remainder = np.arange(g.n)
    if t and t * eps >= m:
        canon = g.degeneracy_order
        # position is -1 once a vertex is in a part, last once a triangle dies
        position = canon.position.copy()
        own, last = _last_positions(g, position)
        dv, t_back = np.bincount(own, minlength=g.n), np.bincount(last, minlength=g.n)
        dead = np.zeros(g.m, dtype=bool)
        uw, vw = g.triangle_edges[:, 1], g.triangle_edges[:, 2]
        while t and t * eps >= m:
            try:
                dense, w = _dense_subset(g, canon.order, position, dv, t_back, eps)
            except NotEnoughTriangles:
                # float rounding at the eps boundary; residual counts as sparse
                break
            parts.append(dense)
            witnesses.append(w)
            position[dense] = -1
            gone = ~dead & ((position[g.eu] < 0) | (position[g.ev] < 0))
            dead |= gone
            died = (last >= 0) & (dead[uw] | dead[vw])
            dv -= np.bincount(own[gone], minlength=g.n)
            t_back -= np.bincount(last[died], minlength=g.n)
            last[died] = -1
            m -= int(np.count_nonzero(gone))
            t -= int(np.count_nonzero(died))
        remainder = np.flatnonzero(position >= 0)
    remainder.flags.writeable = False
    return Decomposition(tuple(parts), remainder, eps, tuple(witnesses))


def _vertex_masks(n: int, sets) -> np.ndarray:
    """An (r, n) bool array whose row i marks the vertices of ``sets[i]``
    (ids checked by :func:`_id_array`)."""
    keep = np.zeros((len(sets), n), dtype=bool)
    for row, vs in zip(keep, sets):
        row[_id_array(n, vs)] = True
    return keep


def _checked_labels(g: Graph, keep: np.ndarray, cuts: list[Cut]) -> tuple[np.ndarray, list[int]]:
    """Check ``cuts[i]`` against the subgraph induced by the vertices of row
    i of the (r, n) mask ``keep``, on ``g``'s own edges. Returns the labels
    as an (r, n) array (2 outside the row's vertices) and each row's number
    of edges inside them. The sizes are checked first, then the labels, then
    the values, each in row order."""
    for cut, size in zip(cuts, map(np.count_nonzero, keep)):
        if len(cut.side) != size:
            raise NotACutOfInducedSubgraph(
                f"cut labels {len(cut.side)} vertices, induced subgraph has {size}"
            )
    lab = np.full(keep.shape, 2, dtype=np.uint8)
    # a row's vertices ascend in the mask, as its labels do in its cut
    lab[keep] = _binary_labels(np.concatenate([np.asarray(cut.side) for cut in cuts]))
    a, b = lab.take(g.eu, axis=1), lab.take(g.ev, axis=1)
    inside = (a < 2) & (b < 2)
    for cut, value in zip(cuts, map(np.count_nonzero, inside & (a != b))):
        if value != cut.value:
            raise NotACutOfInducedSubgraph(f"cut claims value {cut.value}, recount gives {value}")
    return lab, [int(np.count_nonzero(row)) for row in inside]


def combine_subcuts(g: Graph, blocks) -> tuple[Cut, CutCertificate]:
    """Merge per-block cuts, choosing each block's orientation greedily.

    Blocks are processed in list order; the orientation placing more of the
    block's edges-to-already-placed-vertices across the cut wins (ties keep
    the block's own labels). The result is always at least the random
    orientation expectation (m - sum m_i)/2 + sum of block cut values, which
    is returned as the certificate.
    """
    block = np.full(g.n, -1, dtype=np.intp)  # index of every vertex's block
    for k, (vs, _) in enumerate(blocks):
        try:
            ids = _vertex_ids(g.n, vs)
        except OutOfRangeVertex:
            raise NotAPartition("blocks do not cover the vertex set") from None
        if (block[ids] >= 0).any():
            raise NotAPartition("blocks overlap")
        block[ids] = k
    if (block < 0).any():
        raise NotAPartition("blocks do not cover the vertex set")

    bu, bv = block[g.eu], block[g.ev]
    later, earlier = np.maximum(bu, bv), np.minimum(bu, bv)
    side = np.zeros(g.n, dtype=np.uint8)
    internal_edges = 0
    for k, (_, cut) in enumerate(blocks):
        keep = block == k
        (lab,), (inside,) = _checked_labels(g, keep[None], [cut])
        internal_edges += inside
        side[keep] = lab[keep]
        # flip the block if its own labels leave most edges to placed vertices uncut
        to_placed = (later == k) & (earlier < k)
        uncut = np.count_nonzero(side[g.eu[to_placed]] == side[g.ev[to_placed]])
        if 2 * uncut > np.count_nonzero(to_placed):
            side[keep] ^= 1
    final = cut_value(g, side)
    cert = (g.m - internal_edges) / 2 + sum(cut.value for _, cut in blocks)
    return final, CutCertificate(cert, None, "block_combination", cert)


def extend_cut(g: Graph, u, cut_u: Cut) -> tuple[Cut, CutCertificate]:
    """Extend a cut of the induced subgraph on ``u`` to the whole graph.

    Outside vertices are placed one at a time (increasing id) on the side
    cutting more of their already-placed edges (ties to side 0), so the value
    is always at least the certificate (m - m(u))/2 + cut_u.value.
    """
    (lab,), (inside,) = _checked_labels(g, _vertex_masks(g.n, [u]), [cut_u])
    side = lab.tolist()  # 2 marks a vertex not placed yet
    flat, ptr = g.indices.tolist(), g.indptr.tolist()
    for v in np.flatnonzero(lab == 2).tolist():
        near = [side[w] for w in flat[ptr[v]:ptr[v + 1]] if side[w] < 2]
        side[v] = 0 if 2 * sum(near) >= len(near) else 1
    final = cut_value(g, side)
    cert = (g.m - inside) / 2 + cut_u.value
    return final, CutCertificate(cert, None, "extension", cert)


def extend_cuts(g: Graph, parts, cuts) -> tuple[np.ndarray, list[int]]:
    """:func:`extend_cut` of every cut ``cuts[s]`` of the subgraph induced by
    ``parts[s]``, all in one sweep over the vertices in increasing id.

    Returns an (S, n) uint8 array whose row s is the extension of cut s,
    and the rows' values. In the sweep each vertex holds one Python int of
    S lanes of 2h bits, lane s for cut s: 0 while the vertex is unplaced in
    that cut, 1 on side 0 and 2^h on side 1. With the maximum degree below
    2^(h - 1), one sum over a vertex's neighbours gives c0 + 2^h c1 in
    every lane, c0 and c1 its placed neighbours on each side, and no lane
    carries into the next. ``((lo | HB) - hi - ONE) & HB``, with lo and hi
    the lanes' low and high halves, HB bit h - 1 and ONE bit 0 of every
    lane, then marks side 1 in exactly the lanes where c0 > c1; ties go to
    side 0. The lanes to place are those where the vertex's own int is 0.

    Every cut is checked with :func:`extend_cut`'s errors and messages.
    Cuts are checked and counted in blocks of :func:`block_rows` rows; a
    block checks its rows' ids, then their sizes, labels and values.
    """
    parts, cuts = list(parts), list(cuts)
    if len(parts) != len(cuts):
        raise InvalidParameter(f"{len(cuts)} cuts for {len(parts)} vertex sets")
    n, rows = g.n, len(cuts)
    if not rows:
        return np.empty((0, n), dtype=np.uint8), []
    block = block_rows(g.n, g.m)
    degree = np.diff(g.indptr)
    h = int(degree.max(initial=0)).bit_length() + 1
    width = 2 * h
    size = max(1, -(-rows * width // 8))  # bytes per vertex
    # lane s of vertex v starts at bit s * width of row v, little-endian
    packed = np.zeros((n, size), dtype=np.uint8)
    unplaced = np.zeros(n, dtype=bool)  # in some cut
    for start in range(0, rows, block):
        keep = _vertex_masks(n, parts[start : start + block])
        lab, _ = _checked_labels(g, keep, cuts[start : start + block])
        lane, v = np.nonzero(keep)
        at = (start + lane) * width + h * lab[lane, v]
        np.bitwise_or.at(packed, (v, at >> 3), np.left_shift(1, at & 7).astype(np.uint8))
        unplaced |= ~keep.all(axis=0)
    raw, from_bytes = packed.tobytes(), int.from_bytes
    # the ints and the neighbour lists set the peak; the last block's
    # arrays would only add to it
    del packed, keep, lab, lane, v, at
    zs = [from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    del raw
    one = sum(1 << (width * s) for s in range(rows))
    hb, lo = one << (h - 1), one * ((1 << h) - 1)
    flat, ptr = g.indices.tolist(), g.indptr.tolist()
    # a vertex without neighbours takes side 0, as its unplaced lanes read
    for v in np.flatnonzero(unplaced & (degree > 0)).tolist():
        z = zs[v]
        free = one & ~(z | z >> h)
        t = sum([zs[w] for w in flat[ptr[v] : ptr[v + 1]]])
        up = ((t & lo | hb) - (t >> h & lo) - one) >> (h - 1) & free
        zs[v] = z | free ^ up | up << h
    del flat, ptr
    # the side-1 bit of every lane, read off a chunk of vertices at a time
    at = np.arange(rows) * width + h
    byte, bit = at >> 3, (at & 7).astype(np.uint8)
    sides = np.empty((rows, n), dtype=np.uint8)
    chunk = block_rows(rows)
    for a in range(0, n, chunk):
        ints = b"".join([z.to_bytes(size, "little") for z in zs[a : a + chunk]])
        ints = np.frombuffer(ints, dtype=np.uint8).reshape(-1, size)
        sides[:, a : a + chunk] = (ints[:, byte] >> bit & 1).T
    values = [int(x) for a in range(0, rows, block) for x in g.crossing_count(sides[a : a + block])]
    return sides, values


def greedy_half_cut(g: Graph) -> tuple[Cut, CutCertificate]:
    """Greedy placement of every vertex; value (and certificate) >= m/2."""
    return extend_cut(g, (), Cut((), 0))


def round_induced(g: Graph, sets, eps: float | None, repeats: int):
    """Round the subgraph induced by each ``(ids, seed)`` of ``sets``, read
    lazily, as ``sdp_cut(induced_subgraph(g, ids)[0], eps, repeats, seed)``
    does: consecutive sets are the blocks of one graph (:func:`induced_unions`,
    :func:`sdp_cuts`). Yields each set's sorted ids, uint8 labels, cut value,
    union embedding and slice of the union's edges, in set order; the slice
    of the union's :func:`exact_expected_cut` terms is the set's own."""
    sets, seeds = tee(sets)
    for union, parts in induced_unions(g, (ids for ids, _ in sets)):
        ends = list(accumulate(map(len, parts)))
        run = [seed for _, seed in islice(seeds, len(parts))]
        labels, values, emb = sdp_cuts(union, ends, eps, repeats, run)
        edges = pairwise([0, *union.eu.searchsorted(ends).tolist()])
        for ids, a, z, value, (ea, ez) in zip(parts, [0, *ends], ends, values, edges):
            yield ids, labels[a:z], value, emb, slice(ea, ez)


def induced_cuts(g: Graph, sets, eps: float | None, repeats: int) -> list[Cut]:
    """The cuts of :func:`round_induced`, one per ``(ids, seed)`` of ``sets``."""
    return [Cut(tuple(lab.tolist()), v) for _, lab, v, _, _ in round_induced(g, sets, eps, repeats)]


def composite_cut(
    g: Graph,
    eps: float,
    sub: Callable[[Graph, tuple[np.ndarray, ...]], list[Cut]] | None = None,
    repeats: int = 32,
    seed: int = 0,
) -> tuple[Cut, CutCertificate]:
    """Best of four candidate cuts built from the triangle-sparse partition.

    Partitions with parameter 8*eps, then evaluates: (a) ``sub(g, parts)``,
    one cut per dense part, plus rounding on the sparse remainder, greedily
    combined; (b) the plain parts-vs-remainder bipartition; (c) rounding on
    the whole graph; (d) the greedy half cut, which guarantees value >= m/2
    unconditionally. Returns the best cut by value; the certificate is the
    largest candidate certificate (each one is a valid max-cut lower bound).

    Without ``sub``, every part is rounded with its own default eps and
    seed (seed, 9); the remainder takes seed (seed, 1) and the whole graph
    (seed, 2).
    """
    check_eps(g, eps)
    decomp = partition_triangle_sparse(g, 8 * eps)

    rem_cuts = induced_cuts(g, [(decomp.remainder, derive_seed(seed, 1))], eps, repeats)
    if sub is None:
        sets = [(part, derive_seed(seed, 9)) for part in decomp.parts]
        part_cuts = induced_cuts(g, sets, None, repeats)
    else:
        part_cuts = sub(g, decomp.parts)
    blocks = zip((*decomp.parts, decomp.remainder), part_cuts + rem_cuts)
    cut_a, cert_a = combine_subcuts(g, list(blocks))

    in_remainder = np.zeros(g.n, dtype=bool)
    in_remainder[decomp.remainder] = True
    cut_b = cut_value(g, in_remainder)
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
) -> tuple[Cut, CutCertificate]:
    """Composite cut for K_r-free graphs with eps = d^(-1 + 1/(2r-4)).

    Dense parts live inside a vertex neighborhood, hence are K_(r-1)-free and
    are solved by the coloring-cut pipeline; for r = 4 a part's rounding, seed
    (seed, 3, i) for part i, replaces its coloring cut when strictly larger.
    The certificate is measured against the closed-form surplus reference
    (1/2 + c*eps) m with c = 1/388; it always dominates m/2.
    """
    if r < 3:
        raise InvalidParameter(f"r must be >= 3, got {r}")
    witness = find_clique(g, r)
    if witness is not None:
        raise NotKrFree(witness)
    d = g.degeneracy_order.degeneracy
    if d == 0:
        empty = cut_value(g, [0] * g.n)
        return empty, CutCertificate(0.0, None, "kr_surplus", 0.0)
    eps = float(d) ** (-1.0 + 1.0 / (2 * r - 4))

    def sub(h: Graph, parts):
        graphs = [induced_subgraph(h, part)[0] for part in parts]
        cuts = [coloring_cut(p, kr_free_coloring(p, r - 1))[0] for p in graphs]
        if r == 4:
            # parts are triangle-free, so constant-eps rounding carries its
            # full closed-form surplus there; keep whichever cut is larger
            sets = [(part, derive_seed(seed, 3, i)) for i, part in enumerate(parts)]
            rounded = induced_cuts(h, sets, None, repeats)
            cuts = [b if b.value > a.value else a for a, b in zip(cuts, rounded)]
        return cuts

    cut, cert = composite_cut(g, eps, sub, repeats, seed)
    bound = (0.5 + KR_SURPLUS_CONSTANT * eps) * g.m
    return cut, CutCertificate(cert.expected_value, None, "kr_surplus", bound)


def sampled_sdp_cut(
    g: Graph,
    p: float | None = None,
    eps: float | None = None,
    rng=None,
    repeats: int = 32,
) -> tuple[Cut, CutCertificate]:
    """Round on a random vertex sample, then greedily extend to the graph.

    Each repeat keeps every vertex independently with probability ``p``
    (default ``SAMPLE_P``), rounds the induced subgraph 32 times, and
    extends. The returned cut is the best sample; the certificate is the
    best repeat's m/2 + (subgraph certificate - m(V')/2), a valid max-cut
    lower bound.

    Each repeat draws its sample from ``rng``, then the seed of its
    rounding. :func:`round_induced` gives each sample the cut and, in its union's
    certificate, the edge terms it gets on its own, and :func:`extend_cuts` extends
    ``EXTEND_BATCH`` cuts in one sweep, giving each the extension
    :func:`extend_cut` gives it. The first sample of the largest extension
    wins.
    """
    p = SAMPLE_P if p is None else p
    if not 0.0 < p <= 1.0:
        raise InvalidParameter(f"p must lie in (0, 1], got {p}")
    rng = make_rng(0) if rng is None else rng
    eps = default_eps(g) if eps is None else eps
    check_eps(g, eps)

    def samples():
        for _ in range(max(1, repeats)):
            # the sample's draws come first, then its rounding seed
            yield np.flatnonzero(rng.random(g.n) < p), int(rng.integers(0, 2**63))

    best_side, best_value, best_cert = None, -1, -math.inf
    rounded = round_induced(g, samples(), eps, 32)
    # consecutive samples share a union, and every whole-graph sample is g
    # itself at this call's eps, so each union graph is certified once
    last = [None, None]  # the union graph last certified, and its terms

    def terms(emb):
        if last[0] is not emb.graph:
            last[:] = emb.graph, exact_expected_cut(emb).per_edge_terms
        return last[1]

    # a batch's cuts wait for their sweep as bytes, not as tuples of ints
    while batch := [(vs, Cut(labels, value), math.fsum(terms(emb)[at]) - (at.stop - at.start) / 2)
                    for vs, labels, value, emb, at in islice(rounded, EXTEND_BATCH)]:
        parts, cuts, gains = zip(*batch)
        best_cert = max(best_cert, g.m / 2 + max(gains))
        sides, values = extend_cuts(g, parts, cuts)
        j = values.index(max(values))
        if values[j] > best_value:
            best_side, best_value = sides[j].copy(), values[j]
    best_cut = Cut(tuple(best_side.tolist()), best_value)
    return best_cut, CutCertificate(best_cert, None, "sampled_extension", g.m / 2)
