"""Explicit feasible solutions of the max-cut SDP relaxation, hyperplane
rounding, and exact expectation certificates.

Vertex i gets the unit vector v_i = (e_i - eps_i * sum_{j in V_i} e_j)/norm_i,
norm_i = sqrt(1 + eps_i^2 |V_i|), for a chosen neighbor subset V_i. Rounding by
the sign of <v_i, w> for a random direction w cuts an edge with probability
arccos(<v_i, v_j>)/pi; the sum of those probabilities is a deterministic lower
bound on the maximum cut that dominates the closed-form plan bound. No SDP
solver is involved anywhere.

A plan is arrays only: one (i, j) pair per j of V_i, and eps. An embedding
stores its graph, its plan and the edge of every pair, looked up once when
the plan is validated. With own_i = 1/norm_i and
off_i = -eps_i/norm_i, an edge (u, v) has <v_u, v_v> = own_u off_v [u in V_v]
+ off_u own_v [v in V_u] + off_u off_v |V_u ^ V_v|: the certificate reads
three integers per edge and depends on no set's iteration order; one pass
over them gives the exact expectation and the plan bound, on the graph the
embedding holds. Rounding takes the sign of w_i - eps_i * (sum of w over
V_i), which is norm_i * <v_i, w>, for an (r, n) block of directions w at
once. Repeat k of ``sdp_cut`` rounds the k-th run of n normals of the one
rounding stream of its seed, and the winning row's sides become the cut as
rounded, without a second draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, pairwise

import numpy as np

from ._rng import normal_blocks
from .errors import EpsilonTooLarge, InvalidEpsilon
from .graphcore import Cut, Graph, _triangle_vertices, back_pairs, best_row, block_rows
from .graphcore import cut_value  # noqa: F401  (kept importable from this module)

_EPS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EpsilonPlan:
    """Per-vertex neighbor subsets V_i and weights eps_i, as arrays: one pair
    ``(owner[k], cols[k]) = (i, j)`` for each j of V_i, and eps_i at ``eps[i]``.

    Feasibility: V_i is a subset of the neighbors of i, eps_i >= 0, and
    eps_i <= 1/sqrt(|V_i|) whenever V_i is nonempty (eps_i <= 1 otherwise).
    """

    owner: np.ndarray
    cols: np.ndarray
    eps: np.ndarray

    @classmethod
    def from_sets(cls, sets, eps) -> "EpsilonPlan":
        """Plan with V_i = ``sets[i]`` and eps_i = ``eps[i]``; the pairs of
        one owner follow its set's iteration order. Ids too large for int64
        become -1, which no edge has."""
        if len(sets) != len(eps):
            raise InvalidEpsilon(f"plan has {len(sets)} sets and {len(eps)} eps values")
        sizes = np.fromiter(map(len, sets), np.intp, len(sets))
        owner = np.repeat(np.arange(len(sets)), sizes)
        try:
            cols = np.fromiter(chain.from_iterable(sets), np.intp, len(owner))
        except OverflowError:
            cols = np.array([j if abs(j) < 2**62 else -1 for j in chain.from_iterable(sets)])
        return cls(owner, cols, np.array(eps, dtype=float))

    def validate(self, g: Graph) -> np.ndarray:
        """Refuse malformed arrays, then the first infeasible vertex at its
        first failed check: V_i among i's neighbors and without repeats, then
        eps_i finite, nonnegative and capped. Returns the index in ``g``'s
        edges of every pair."""
        n, owner, cols, eps = g.n, self.owner, self.cols, self.eps
        if len(eps) != n:
            raise InvalidEpsilon(f"plan covers {len(eps)} of {n} vertices")
        if len(owner) != len(cols):
            raise InvalidEpsilon(f"plan has {len(owner)} owners but {len(cols)} members")
        stray = (owner < 0) | (owner >= n)
        if stray.any():
            raise InvalidEpsilon(f"pair owner {owner[stray.argmax()]} outside [0, {n})")
        # clipped to -1 or n, an id outside [0, n) keys no edge u*n + v with
        # 0 <= u < v < n, and neither does j = i
        j = np.minimum(np.maximum(cols, -1), n)
        key, keys = np.minimum(owner, j) * n + np.maximum(owner, j), g.eu * n + g.ev
        at = np.searchsorted(keys, key)
        edge = at < g.m
        edge[edge] = keys[at[edge]] == key[edge]
        # an edge holds at most one pair per endpoint: slot 2e + [owner is v]
        slot = 2 * at + (owner > j)
        repeat = edge & (np.bincount(slot[edge], minlength=2 * g.m + 2)[slot] > 1)
        outside = np.bincount(owner[~edge], minlength=n) > 0
        twice = np.bincount(owner[repeat], minlength=n) > 0
        sizes = np.bincount(owner, minlength=n)
        caps = 1.0 / np.sqrt(np.maximum(sizes, 1))
        # NaN fails both comparisons
        bad = outside | twice | ~((eps >= 0.0) & (eps <= caps + _EPS_TOL))
        if not bad.any():
            return at
        i = int(bad.argmax())
        if outside[i]:
            raise InvalidEpsilon(f"V_{i} is not a subset of the neighbors of {i}")
        if twice[i]:
            raise InvalidEpsilon(f"V_{i} lists {cols[repeat & (owner == i)][0]} twice")
        e = float(eps[i])
        if not math.isfinite(e):
            raise InvalidEpsilon(f"eps_{i} = {e} is not finite")
        if e < 0.0:
            raise InvalidEpsilon(f"eps_{i} = {e} is negative")
        size = int(sizes[i])
        cap = 1.0 / math.sqrt(size) if size else 1.0
        raise InvalidEpsilon(f"eps_{i} = {e} exceeds 1/sqrt(|V_{i}|) = {cap}")


def eps_cap(g: Graph) -> float:
    """Largest constant eps a back-neighbor plan of ``g`` admits:
    1/sqrt(degeneracy), or inf for an edgeless graph."""
    d = g.degeneracy_order.degeneracy
    return 1.0 / math.sqrt(d) if d else math.inf


def default_eps(g: Graph) -> float:
    """The default constant eps, min(1, eps_cap(g)): 1.0 when edgeless."""
    return _default_eps(g.degeneracy_order.degeneracy)


def _default_eps(d: int) -> float:
    """min(1, 1/sqrt(d)) for a graph of degeneracy d: 1.0 when d = 0."""
    return min(1.0, 1.0 / math.sqrt(d)) if d else 1.0


def check_eps(g: Graph, eps: float) -> None:
    """Refuse a constant eps that is not finite, not positive, or above
    ``eps_cap(g)``; the cap is vacuous for edgeless graphs."""
    if not math.isfinite(eps):
        raise EpsilonTooLarge(f"eps = {eps} is not finite")
    if eps <= 0.0:
        raise EpsilonTooLarge("eps must be positive")
    cap = eps_cap(g)
    if eps > cap + _EPS_TOL:
        raise EpsilonTooLarge(f"eps = {eps} exceeds 1/sqrt(degeneracy) = {cap}")


def back_neighbor_plan(g: Graph, eps: float | None, ends=None) -> EpsilonPlan:
    """Constant-eps plan on the back-neighbor pairs of ``g``'s degeneracy
    order (:func:`back_pairs`), one pair per edge.

    Vertices with no back-neighbors get eps_i = 0 (their vector is a plain
    basis vector either way). ``eps`` must pass :func:`check_eps`; None
    gives each vertex block of ``ends`` (default: one) the :func:`default_eps`
    of its largest back-degree, its own degeneracy (see :func:`sdp_cuts`).
    """
    owner, cols = back_pairs(g, g.degeneracy_order)
    back = np.bincount(owner, minlength=g.n)
    if eps is None:
        spans = list(pairwise([0, *(ends or [g.n])]))
        eps = np.repeat([_default_eps(int(back[a:z].max(initial=0))) for a, z in spans],
                        [z - a for a, z in spans])
    else:
        check_eps(g, eps)
    return EpsilonPlan(owner, cols, np.where(back > 0, eps, 0.0))


@dataclass(frozen=True, eq=False)
class Embedding:
    """The unit vectors of ``plan``'s explicit SDP point on ``graph``;
    ``pair_edge[k]`` is the index in ``graph``'s edges of plan pair k."""

    graph: Graph
    plan: EpsilonPlan
    pair_edge: np.ndarray


@dataclass(frozen=True)
class CutCertificate:
    """Deterministic lower bound on the expected value of a cut procedure.

    ``expected_value`` is the certified quantity. When ``per_edge_terms`` is
    present it sums to ``expected_value``. ``bound_reference`` names the
    closed-form bound the certificate is measured against, whose numeric
    value is ``bound_value``; derandomized procedures are guaranteed to meet
    their certificate pointwise.
    """

    expected_value: float
    per_edge_terms: tuple[float, ...] | None = None
    bound_reference: str | None = None
    bound_value: float | None = None


def build_vectors(g: Graph, plan: EpsilonPlan) -> Embedding:
    """Unit vectors of the explicit SDP-feasible point for a feasible ``plan``;
    norm_i^2 = 1 + eps_i^2 |V_i| lies in [1, 2]."""
    return Embedding(g, plan, plan.validate(g))


def edge_counts(emb: Embedding) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[u in V_v], [v in V_u] (bool) and |V_u ^ V_v| (int) per edge of the
    embedding's graph. Each plan pair (x, k) marks slot 2e + [x > k] of its
    edge e, found once by validation (``emb.pair_edge``), so "k in V_x" for
    the edge e = (x, k) is that slot of one bool array. A common member k
    of V_u and V_v closes the triangle (u, v, k), so each triangle of
    ``g.triangle_edges`` is tested once per edge, k its third vertex, by
    the slots of its other two edges.
    """
    g, plan = emb.graph, emb.plan
    member = np.zeros(2 * g.m, dtype=bool)
    member[2 * emb.pair_edge + (plan.owner > plan.cols)] = True
    uv, uw, vw = g.triangle_edges.T
    u, v, w = _triangle_vertices(g, g.triangle_edges)

    def holds(e, x, k):  # k in V_x, for the edge e = (x, k)
        return member[2 * e + (x > k)]

    # w is in V_u and V_v, v in V_u and V_w, u in V_v and V_w
    shared = (uv[holds(uw, u, w) & holds(vw, v, w)], uw[holds(uv, u, v) & holds(vw, w, v)],
              vw[holds(uv, v, u) & holds(uw, w, u)])
    return member[1::2], member[::2], np.bincount(np.concatenate(shared), minlength=g.m)


def edge_inner(g: Graph, plan: EpsilonPlan, counts: tuple[np.ndarray, ...]) -> np.ndarray:
    """<v_u, v_v> per edge of ``g``: the closed form's three terms, in order,
    from ``counts = edge_counts(build_vectors(g, plan))``."""
    u_in_v, v_in_u, common = counts
    eps = plan.eps
    norm = np.sqrt(1.0 + eps * eps * np.bincount(plan.owner, minlength=g.n))
    own, off = 1.0 / norm, -eps / norm
    off_u, off_v = off[g.eu], off[g.ev]
    return own[g.eu] * off_v * u_in_v + off_u * own[g.ev] * v_in_u + off_u * off_v * common


def _plan_bound(g: Graph, plan: EpsilonPlan, common: np.ndarray) -> float:
    """m/2 + sum eps_i |V_i|/(4 pi) - sum_E eps_u eps_v |V_u ^ V_v|/2, from
    ``common`` = |V_u ^ V_v| per edge."""
    # fsum is exactly rounded, so the zero terms are left out
    eps, sizes, shared = plan.eps, np.bincount(plan.owner, minlength=g.n), common > 0
    gain = math.fsum((eps * sizes)[sizes > 0].tolist()) / (4.0 * math.pi)
    loss = math.fsum((eps[g.eu[shared]] * eps[g.ev[shared]] * common[shared]).tolist()) / 2.0
    return g.m / 2.0 + gain - loss


def exact_expected_cut(emb: Embedding) -> CutCertificate:
    """Exact expected cut of hyperplane rounding, sum_E arccos(<v_u, v_v>)/pi,
    on the embedding's graph, with per-edge terms in edge order. One
    :func:`edge_counts` pass gives the terms and the closed-form plan bound
    (:func:`plan_lower_bound`), the certificate's ``bound_value``."""
    g, plan = emb.graph, emb.plan
    counts = edge_counts(emb)
    x = np.minimum(np.maximum(edge_inner(g, plan, counts), -1.0), 1.0)
    probs = [math.acos(t) / math.pi for t in x.tolist()]
    return CutCertificate(expected_value=math.fsum(probs), per_edge_terms=tuple(probs),
                          bound_reference="plan_bound", bound_value=_plan_bound(g, plan, counts[2]))


def plan_lower_bound(g: Graph, plan: EpsilonPlan) -> float:
    """Closed-form cut bound of a feasible plan, m/2 + sum eps_i |V_i|/(4 pi)
    - sum_E eps_u eps_v |V_u ^ V_v|/2, from :func:`edge_counts` alone."""
    return _plan_bound(g, plan, edge_counts(build_vectors(g, plan))[2])


def hyperplane_round(emb: Embedding, w: np.ndarray, ends=None) -> tuple[np.ndarray, np.ndarray]:
    """Sides and crossing counts of an (r, n) block of directions ``w``; with
    ``ends``, counts per row and vertex block (see :meth:`Graph.crossing_count`).

    Vertex i of row j is on side 1 (True) where w_ji - eps_i * (sum of w_j
    over V_i) = norm_i * <v_i, w_j> is negative or NaN; this matches a
    term-by-term dot product except within rounding error of zero. Pair k of
    row j reads and adds at j*n + k on the flat block, so each row rounds
    the same in any block."""
    g, plan = emb.graph, emb.plan
    flat, at = w.reshape(-1), g.n * np.arange(len(w))[:, None]
    owner, cols = (plan.owner + at).reshape(-1), (plan.cols + at).reshape(-1)
    sums = np.bincount(owner, weights=flat[cols], minlength=flat.size).reshape(w.shape)
    # ~(... >= 0) rather than < 0, so that NaN lands on side 1
    sides = ~(w - plan.eps * sums >= 0.0)
    return sides, g.crossing_count(sides, ends)


def sdp_cut(
    g: Graph,
    eps: float | None = None,
    repeats: int = 32,
    seed: int = 0,
) -> tuple[Cut, CutCertificate]:
    """Round the constant-eps back-neighbor embedding ``repeats`` times.

    Returns the best sampled cut together with the exact-expectation
    certificate, which always dominates the closed-form plan bound. ``eps``
    defaults to :func:`default_eps`. Repeat k rounds the k-th n normals of
    the rounding stream of ``seed``. This is the one-block case of :func:`sdp_cuts`.
    """
    labels, (value,), emb = sdp_cuts(g, [g.n], eps, repeats, [seed])
    return Cut(tuple(labels.tolist()), value), exact_expected_cut(emb)


def sdp_cuts(g: Graph, ends: list[int], eps: float | None, repeats: int,
             seeds) -> tuple[np.ndarray, list[int], Embedding]:
    """:func:`sdp_cut` of every block of a graph of blocks side by side.

    Block b is the vertices before ``ends[b]`` and from ``ends[b - 1]`` on,
    and no edge joins two blocks. Its cut is the one ``sdp_cut`` returns on
    the subgraph the block induces, with seed ``seeds[b]``: the canonical
    peel restricted to a block is the block's own, so the block's plan
    pairs, default eps (``eps`` None) and edge terms are its own, and row k
    holds in segment b the k-th run of normals of the stream of seeds[b].
    Returns the labels as one uint8 array, the blocks' cut values and the
    embedding rounded, uncertified: its :func:`exact_expected_cut` terms are
    in edge order, so each block's terms are one run of them.

    Repeats are rounded and counted in blocks of :func:`block_rows` rows,
    and each block takes its first repeat of the largest value
    (:func:`best_row`). No later repeat can beat one that cuts all of a
    block's edges, so no rows are drawn once every block has one.
    """
    emb = build_vectors(g, back_neighbor_plan(g, eps, ends))
    rows = block_rows(g.n, len(emb.plan.owner), g.m)
    draws = normal_blocks(seeds, max(1, repeats), [z - a for a, z in pairwise([0, *ends])], rows)
    # one block is counted whole by crossing_count, as best_row's one column
    split = () if len(ends) == 1 else (ends,)
    blocks = (hyperplane_round(emb, w, *split) for w in draws)
    tops = [z - a for a, z in pairwise([0, *g.eu.searchsorted(ends).tolist()])]
    sides, values = best_row(blocks, ends, tops)
    return sides.view(np.uint8), values, emb
