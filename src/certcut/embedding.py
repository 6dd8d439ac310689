"""Explicit feasible solutions of the max-cut SDP relaxation, hyperplane
rounding, and exact expectation certificates.

The embedding assigns vertex i the unit vector obtained by normalizing the
sparse vector with 1 at coordinate i and -eps_i on a chosen neighbor subset
V_i. Rounding by the sign of the dot product with a random direction cuts an
edge with probability arccos(<v_i, v_j>)/pi, and summing those probabilities
gives a deterministic lower bound on the maximum cut that dominates the
closed-form plan bound; no SDP solver is involved anywhere.

An embedding stores only its graph and its plan, no per-vertex vector:
``Embedding.entries`` defines vector i once. In its own order, vector i is
1/norm_i at coordinate i, then -eps_i/norm_i at each j of V_i in set order.

Rounding is one array pass per direction and reads no entry: vector i is
(e_i - eps_i * sum_{j in V_i} e_j)/norm_i with norm_i >= 1, so <v_i, w> has
the sign of w_i - eps_i * (sum of w over V_i). The sides match a term-by-term
dot product except where it lies within rounding error of zero, and they
depend on neither the norms nor V_i's iteration order. Repeat k of
``sdp_cut`` draws its direction from the stream (seed, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from ._rng import make_rng
from .errors import EpsilonTooLarge, InvalidEpsilon
from .graphcore import Cut, Graph
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
        rows = g.rows()
        for i in range(g.n):
            if not self.sets[i].issubset(rows[i]):
                raise InvalidEpsilon(f"V_{i} is not a subset of the neighbors of {i}")
            e = self.eps[i]
            if not math.isfinite(e):
                raise InvalidEpsilon(f"eps_{i} = {e} is not finite")
            if e < 0.0:
                raise InvalidEpsilon(f"eps_{i} = {e} is negative")
            cap = 1.0 / math.sqrt(len(self.sets[i])) if self.sets[i] else 1.0
            if e > cap + _EPS_TOL:
                raise InvalidEpsilon(f"eps_{i} = {e} exceeds 1/sqrt(|V_{i}|) = {cap}")


def eps_cap(g: Graph) -> float:
    """Largest constant eps a back-neighbor plan of ``g`` admits:
    1/sqrt(degeneracy), or inf for an edgeless graph."""
    d = g.degeneracy_order.degeneracy
    return 1.0 / math.sqrt(d) if d else math.inf


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


def back_neighbor_plan(g: Graph, eps: float) -> EpsilonPlan:
    """Constant-eps plan on the back-neighbor sets of ``g``'s degeneracy order.

    Vertices with no back-neighbors get eps_i = 0 (their vector is a plain
    basis vector either way). ``eps`` must pass :func:`check_eps`.
    """
    check_eps(g, eps)
    sets = g.degeneracy_order.back_neighbors
    return EpsilonPlan(sets, tuple(eps if s else 0.0 for s in sets))


@dataclass(frozen=True)
class Embedding:
    """The unit vectors of ``plan``'s explicit SDP point on ``graph``, derived
    from the plan (support {i} union V_i, entries from :attr:`entries`); no
    per-vertex dict is stored."""

    graph: Graph
    plan: EpsilonPlan

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def norms(self) -> tuple[float, ...]:
        """Pre-normalization norms sqrt(1 + eps_i^2 |V_i|)."""
        return tuple(math.sqrt(1.0 + e * e * len(s)) for s, e in zip(self.plan.sets, self.plan.eps))

    @cached_property
    def entries(self) -> tuple[list[float], list[float]]:
        """``(own, off)``: vector i is ``own[i]`` at coordinate i, then
        ``off[i]`` at each j of V_i, in the set's iteration order."""
        own = [1.0 / norm for norm in self.norms]
        off = [-e / norm for e, norm in zip(self.plan.eps, self.norms)]
        return own, off

    def inner(self, i: int, j: int) -> float:
        """<v_i, v_j>, summed over the smaller support (i's on a tie) in its
        vector's order: the own coordinate first, then V_i."""
        sets = self.plan.sets
        vi, vj = sets[i], sets[j]
        if len(vi) > len(vj):
            i, j, vi, vj = j, i, vj, vi
        own, off = self.entries
        fi, oj, fj = off[i], own[j], off[j]
        terms = [own[i] * oj] if i == j else [own[i] * fj] if i in vj else []
        for k in vi:
            if k == j:
                terms.append(fi * oj)
            elif k in vj:
                terms.append(fi * fj)
        return sum(terms)

    def dense_matrix(self) -> np.ndarray:
        own, off = self.entries
        mat = np.diag(own)
        for i, s in enumerate(self.plan.sets):
            mat[i, list(s)] = off[i]
        return mat

    @cached_property
    def plan_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(owner, cols, eps)``: one pair ``(owner[k], cols[k]) = (i, j)``
        for each j of V_i, and eps_i at ``eps[i]``."""
        sets = self.plan.sets
        sizes = np.fromiter(map(len, sets), np.intp, self.n)
        owner = np.repeat(np.arange(self.n), sizes)
        cols = np.fromiter(chain.from_iterable(sets), np.intp, len(owner))
        return owner, cols, np.array(self.plan.eps, dtype=float)

    def round_sides(self, w: np.ndarray) -> np.ndarray:
        """Boolean side of every vertex for direction ``w``: True (side 1)
        where w_i - eps_i * (sum of w over V_i) is negative or NaN, False
        where it is >= 0. That value is norm_i * <v_i, w>, so the sides match
        a term-by-term dot product except within rounding error of zero."""
        owner, cols, eps = self.plan_arrays
        sums = np.bincount(owner, weights=w[cols], minlength=self.n)
        # ~(... >= 0) rather than < 0, so that NaN lands on side 1
        return ~(w - eps * sums >= 0.0)


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
    return Embedding(g, plan)


def exact_expected_cut(g: Graph, emb: Embedding) -> CutCertificate:
    """Exact expected cut of hyperplane rounding: sum of arccos(<v_i,v_j>)/pi."""
    if emb.graph is not g and (emb.graph.n != g.n or emb.graph.edges != g.edges):
        raise ValueError("embedding was built for a different graph")
    probs = []
    for u, v in zip(g.eu.tolist(), g.ev.tolist()):
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
            for u, v in zip(g.eu.tolist(), g.ev.tolist())
        )
        / 2.0
    )
    return g.m / 2.0 + gain - loss


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
    defaults to min(1, eps_cap(g)). Repeat k draws from the independent
    sub-stream (seed, k).
    """
    if eps is None:
        eps = min(1.0, eps_cap(g))
    plan = back_neighbor_plan(g, eps)
    emb = build_vectors(g, plan)
    cert = exact_expected_cut(g, emb)
    best = None
    for k in range(max(1, repeats)):
        cut = hyperplane_round(emb, make_rng(seed, k))
        if best is None or cut.value > best.value:
            best = cut
    return best, cert
