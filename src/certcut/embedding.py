"""Explicit feasible solutions of the max-cut SDP relaxation, hyperplane
rounding, and exact expectation certificates.

The embedding assigns vertex i the unit vector obtained by normalizing the
sparse vector with 1 at coordinate i and -eps_i on a chosen neighbor subset
V_i. Rounding by the sign of the dot product with a random direction cuts an
edge with probability arccos(<v_i, v_j>)/pi, and summing those probabilities
gives a deterministic lower bound on the maximum cut that dominates the
closed-form plan bound; no SDP solver is involved anywhere.

Rounding is one array pass per direction. Each embedding keeps its vectors as
slot rows, with the vertices ordered by support size, largest first: row s
holds entry s of every vector that has more than s entries, in the vector's
own order (entry 0 is coordinate i itself, then V_i), so row s covers a
prefix of that order and the rows together store each entry once. The dot
products accumulate row by row from 0, which adds the terms in the same order
as a per-vertex ``sum`` over the vector, so the sides are bit-identical to
that sum. Repeat k of ``sdp_cut`` draws its direction from the stream
(seed, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from ._rng import make_rng
from .errors import EpsilonTooLarge, InvalidEpsilon
from .graphcore import Cut, DegeneracyOrder, Graph, degeneracy_order
from .graphcore import cut_value  # noqa: F401  (kept importable from this module)

_EPS_TOL = 1e-12


@dataclass(frozen=True)
class EpsilonPlan:
    """Per-vertex neighbor subsets V_i and weights eps_i.

    Feasibility: V_i is a subset of the neighbors of i, eps_i >= 0, and
    eps_i <= 1/sqrt(|V_i|) whenever V_i is nonempty (eps_i <= 1 otherwise).
    """

    sets: tuple[frozenset[int], ...]
    eps: tuple[float, ...]

    def validate(self, g: Graph) -> None:
        if len(self.sets) != g.n or len(self.eps) != g.n:
            raise InvalidEpsilon(f"plan covers {len(self.sets)} of {g.n} vertices")
        for i in range(g.n):
            if not self.sets[i] <= g.adj_sets[i]:
                raise InvalidEpsilon(f"V_{i} is not a subset of the neighbors of {i}")
            e = self.eps[i]
            if not math.isfinite(e):
                raise InvalidEpsilon(f"eps_{i} = {e} is not finite")
            if e < 0.0:
                raise InvalidEpsilon(f"eps_{i} = {e} is negative")
            cap = 1.0 / math.sqrt(len(self.sets[i])) if self.sets[i] else 1.0
            if e > cap + _EPS_TOL:
                raise InvalidEpsilon(f"eps_{i} = {e} exceeds 1/sqrt(|V_{i}|) = {cap}")


def back_neighbor_plan(g: Graph, eps: float, order: DegeneracyOrder | None = None) -> EpsilonPlan:
    """Constant-eps plan on the back-neighbor sets of a degeneracy order.

    Vertices with no back-neighbors get eps_i = 0 (their vector is a plain
    basis vector either way). Requires 0 < eps <= 1/sqrt(degeneracy); the cap
    is vacuous for edgeless graphs, where every set is empty, but eps must
    still be finite.
    """
    if order is None:
        order = degeneracy_order(g)
    cap = 1.0 / math.sqrt(order.degeneracy) if order.degeneracy else math.inf
    if not math.isfinite(eps):
        raise EpsilonTooLarge(f"eps = {eps} is not finite")
    if eps <= 0.0:
        raise EpsilonTooLarge("eps must be positive")
    if eps > cap + _EPS_TOL:
        raise EpsilonTooLarge(f"eps = {eps} exceeds 1/sqrt(degeneracy) = {cap}")
    sets = order.back_neighbors
    return EpsilonPlan(sets, tuple(eps if s else 0.0 for s in sets))


@dataclass(frozen=True)
class Embedding:
    """Per-vertex unit vectors stored sparsely (support = {i} union V_i)."""

    graph: Graph
    plan: EpsilonPlan
    vecs: tuple[dict, ...]
    norms: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.graph.n

    def inner(self, i: int, j: int) -> float:
        a, b = self.vecs[i], self.vecs[j]
        if len(a) > len(b):
            a, b = b, a
        return sum(val * b[k] for k, val in a.items() if k in b)

    def dense_matrix(self) -> np.ndarray:
        mat = np.zeros((self.n, self.n))
        for i, vec in enumerate(self.vecs):
            for j, val in vec.items():
                mat[i, j] = val
        return mat

    @cached_property
    def slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
        """``(order, cols, vals, starts)``: ``order`` lists the vertices by
        support size, largest first. Row s is ``cols[starts[s]:starts[s + 1]]``
        (``vals`` alike); its entry j is entry s of ``vecs[order[j]]``, for
        every j whose vector has more than s entries."""
        n = self.n
        sizes = np.fromiter(map(len, self.vecs), np.intp, n)
        order = np.argsort(-sizes, kind="stable")
        sizes = sizes[order]
        vecs = [self.vecs[i] for i in order.tolist()]
        total = int(sizes.sum())
        cols = np.fromiter(chain.from_iterable(vecs), np.intp, total)
        vals = np.fromiter(chain.from_iterable(vec.values() for vec in vecs), float, total)
        # slot of every entry; a stable sort by slot keeps the vertex order
        slot = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        by_slot = np.argsort(slot, kind="stable")
        starts = (0, *np.cumsum(np.bincount(slot)).tolist())
        return order, cols[by_slot], vals[by_slot], starts

    def round_sides(self, w: np.ndarray) -> np.ndarray:
        """Boolean side of every vertex for direction ``w``: True (side 1)
        where the dot product is negative, False where it is >= 0."""
        order, cols, vals, starts = self.slots
        terms = w[cols]
        terms *= vals
        d = np.zeros(self.n)
        for a, b in zip(starts, starts[1:]):
            d[: b - a] += terms[a:b]
        side = np.empty(self.n, dtype=bool)
        # ~(d >= 0) rather than d < 0, so that NaN lands on side 1
        side[order] = ~(d >= 0.0)
        return side


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
    """Unit vectors of the explicit SDP-feasible point for ``plan``.

    The pre-normalization vector for i has squared norm 1 + eps_i^2 |V_i|,
    which always lies in [1, 2].
    """
    plan.validate(g)
    vecs, norms = [], []
    for i in range(g.n):
        e = plan.eps[i]
        norm = math.sqrt(1.0 + e * e * len(plan.sets[i]))
        vec = {i: 1.0 / norm}
        for j in plan.sets[i]:
            vec[j] = -e / norm
        vecs.append(vec)
        norms.append(norm)
    return Embedding(g, plan, tuple(vecs), tuple(norms))


def _check_same_graph(g: Graph, emb: Embedding) -> None:
    if emb.graph is not g and (emb.graph.n != g.n or emb.graph.edges != g.edges):
        raise ValueError("embedding was built for a different graph")


def exact_expected_cut(g: Graph, emb: Embedding) -> CutCertificate:
    """Exact expected cut of hyperplane rounding: sum of arccos(<v_i,v_j>)/pi."""
    _check_same_graph(g, emb)
    probs = []
    for u, v in g.edges:
        x = emb.inner(u, v)
        x = 1.0 if x > 1.0 else (-1.0 if x < -1.0 else x)
        probs.append(math.acos(x) / math.pi)
    return CutCertificate(
        expected_value=math.fsum(probs),
        per_edge_terms=tuple(probs),
        bound_reference="plan_bound",
        bound_value=plan_lower_bound(g, emb.plan),
    )


def plan_lower_bound(g: Graph, plan: EpsilonPlan) -> float:
    """Closed-form cut bound m/2 + sum eps_i |V_i|/(4 pi) - sum_E eps_i eps_j |V_i ^ V_j|/2."""
    gain = math.fsum(plan.eps[i] * len(plan.sets[i]) for i in range(g.n)) / (4.0 * math.pi)
    loss = (
        math.fsum(
            plan.eps[u] * plan.eps[v] * len(plan.sets[u] & plan.sets[v])
            for u, v in g.edges
        )
        / 2.0
    )
    return g.m / 2.0 + gain - loss


def edge_inner_bound(plan: EpsilonPlan, u: int, v: int) -> float:
    """Upper bound on <v_u, v_v> for an edge: pairs each membership indicator
    with the set owner's eps (-eps_v/4 when u is in V_v, and symmetrically),
    plus eps_u eps_v |V_u ^ V_v| for the shared support."""
    b = 0.0
    if u in plan.sets[v]:
        b -= plan.eps[v] / 4.0
    if v in plan.sets[u]:
        b -= plan.eps[u] / 4.0
    return b + plan.eps[u] * plan.eps[v] * len(plan.sets[u] & plan.sets[v])


def hyperplane_round(emb: Embedding, rng) -> Cut:
    """Split by the sign of each vector's dot product with a standard normal
    direction; exact-zero dot products land on side 0."""
    side = emb.round_sides(rng.standard_normal(emb.n))
    return Cut(tuple(side.view(np.uint8).tolist()), emb.graph.crossing_count(side))


def sdp_cut(
    g: Graph,
    eps: float | None = None,
    repeats: int = 32,
    seed: int = 0,
) -> tuple[Cut, CutCertificate]:
    """Round the constant-eps back-neighbor embedding ``repeats`` times.

    Returns the best sampled cut together with the exact-expectation
    certificate, which always dominates the closed-form plan bound. ``eps``
    defaults to exactly 1/sqrt(degeneracy). Repeat k draws from the
    independent sub-stream (seed, k).
    """
    order = degeneracy_order(g)
    if eps is None:
        eps = 1.0 / math.sqrt(order.degeneracy) if order.degeneracy else 1.0
    plan = back_neighbor_plan(g, eps, order)
    emb = build_vectors(g, plan)
    cert = exact_expected_cut(g, emb)
    best = None
    for k in range(max(1, repeats)):
        cut = hyperplane_round(emb, make_rng(seed, k))
        if best is None or cut.value > best.value:
            best = cut
    return best, cert
