"""Self-check suites behind `certcut verify`: randomized invariant batteries
for the certificate engine, the decomposition, the coloring cuts, and the
t-cut expectation formulas. Each suite returns (ok, detail) and is
deterministic given its seed; the acceptance tests run the same suites at
their own seeds and counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from ._rng import make_rng
from .chromatic import (
    coloring_class_bound,
    coloring_cut,
    coloring_pipeline_floor,
    kr_free_coloring,
    t_cut_expected_value,
)
from .decompose import partition_triangle_sparse
from .embedding import (
    EpsilonPlan,
    build_vectors,
    eps_cap,
    exact_expected_cut,
    sdp_cut,
)
from .generators import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_cliques,
    gnp,
    make_cr_free,
    path,
    random_bipartite,
    random_regular,
    star,
    turan,
)
from .graphcore import Graph, cut_value, induced_subgraph

TOL = 1e-9


def _random_graph(rng, max_n=60):
    n = int(rng.integers(2, max_n + 1))
    if rng.random() < 0.25:
        n = min(n, 20)
        p = 0.2 + 0.5 * rng.random()
    else:
        p = min(1.0, (1.0 + 3.0 * rng.random()) / n)
    return gnp(n, p, seed=int(rng.integers(0, 2**63)))


def random_plan(g, rng):
    """Feasible plan with each neighbor in V_i at rate 1/2 and eps_i drawn
    uniformly below its cap. Row i reads ``rng.random(2m + n)`` from index
    indptr[i] + i: one draw per neighbor, ascending, then one for eps_i."""
    row = np.repeat(np.arange(g.n), np.diff(g.indptr))
    draws = rng.random(2 * g.m + g.n)
    chosen = draws[np.arange(2 * g.m) + row] < 0.5
    sizes = np.bincount(row[chosen], minlength=g.n)
    eps = draws[g.indptr[1:] + np.arange(g.n)] * (1.0 / np.sqrt(np.maximum(sizes, 1)))
    return EpsilonPlan(row[chosen], g.indices[chosen], eps)


def check_plan_dominance(count=1000, seed=0):
    """Exact rounding expectation dominates the closed-form plan bound."""
    rng = make_rng(seed, 101)
    worst = math.inf
    for _ in range(count):
        g = _random_graph(rng)
        cert = exact_expected_cut(build_vectors(g, random_plan(g, rng)))
        margin = cert.expected_value - cert.bound_value
        worst = min(worst, margin)
        if margin < -TOL:
            return False, f"dominance violated by {margin:.3e}"
    return True, f"{count} plans, worst margin {worst:.3e}"


def check_triangle_sparse_constant(count=100, seed=0):
    """Certificate reaches (1/2 + eps/60) m whenever triangles <= m/(8 eps)."""
    rng = make_rng(seed, 103)
    done = 0
    while done < count:
        g = _random_graph(rng, 40)
        if g.m == 0:
            continue
        eps = eps_cap(g)
        if len(g.triangle_edges) * 8.0 * eps > g.m:
            continue
        _, cert = sdp_cut(g, eps, repeats=1, seed=done)
        floor = (0.5 + eps / 60.0) * g.m
        if cert.expected_value < floor - TOL:
            return False, f"certificate {cert.expected_value} below {floor}"
        done += 1
    return True, f"{count} triangle-sparse graphs"


def decomposition_invariants(g: Graph, decomp) -> str | None:
    """Return a violation message, or None if all partition invariants hold."""
    eps = decomp.eps_used
    d = g.degeneracy_order.degeneracy
    claims = np.bincount(np.concatenate((decomp.remainder, *decomp.parts)), minlength=g.n)
    if claims.max(initial=0) > 1:
        return "parts overlap"
    if len(claims) != g.n or not claims.all():
        return "parts plus remainder do not partition the vertex set"
    if len(decomp.witnesses) != len(decomp.parts):
        return "witness count mismatch"
    for part, w in zip(decomp.parts, decomp.witnesses):
        if len(part) > d:
            return f"part of size {len(part)} exceeds degeneracy {d}"
        if not np.isin(part, g.indices[g.indptr[w]:g.indptr[w + 1]]).all():
            return f"part not adjacent to witness {w}"
        sub, _ = induced_subgraph(g, part)
        if sub.m * eps < len(part):
            return f"part has {sub.m} edges, needs {len(part)}/eps"
    rem, _ = induced_subgraph(g, decomp.remainder)
    if rem.triangles * eps > rem.m:
        return "remainder is not triangle-sparse"
    return None


def check_decomposition(count=200, seed=0):
    """All four partition invariants across random graphs and an eps grid."""
    rng = make_rng(seed, 104)
    grid = [0.1, 0.25, 0.5, 1.0, 2.0]
    for k in range(count):
        if k % 4 == 0:
            n = int(rng.integers(50, 301))
            g = gnp(n, 6.0 / n, int(rng.integers(0, 2**63)))
        else:
            g = _random_graph(rng, 60)
        eps = grid[k % len(grid)]
        decomp = partition_triangle_sparse(g, eps)
        bad = decomposition_invariants(g, decomp)
        if bad:
            return False, f"graph {k} (n={g.n}, eps={eps}): {bad}"
    return True, f"{count} decompositions"


def _kr_free_pool(count, seed):
    rng = make_rng(seed, 105)
    pool = []
    while len(pool) < count:
        kind = len(pool) % 5
        s = int(rng.integers(0, 2**63))
        if kind == 0:
            g, r = turan(int(rng.integers(12, 60)), 2), 3
        elif kind == 1:
            g, r = turan(int(rng.integers(12, 60)), 3), 4
        elif kind == 2:
            g, r = random_bipartite(int(rng.integers(4, 14)), int(rng.integers(4, 14)), 0.6, s), 3
        elif kind == 3:
            n = 2 * int(rng.integers(8, 30))
            g, r = make_cr_free(random_regular(n, 3, s), 3), 3
        else:
            g, r = disjoint_cliques(int(rng.integers(3, 12)), 3), 4
        if g.m == 0:
            continue
        pool.append((g, r))
    return pool


def check_coloring_classes(count=60, seed=0):
    """Colorings are proper with class count <= 4 n^((r-2)/(r-1))."""
    for k, (g, r) in enumerate(_kr_free_pool(count, seed)):
        col = kr_free_coloring(g, r)
        color = np.asarray(col.color)
        if (color[g.eu] == color[g.ev]).any():
            return False, f"graph {k}: improper coloring"
        if col.classes > coloring_class_bound(g.n, r) + TOL:
            return False, f"graph {k}: {col.classes} classes exceed the bound"
    return True, f"{count} clique-free graphs"


def check_coloring_cut(count=60, seed=0):
    """Greedy class split meets its certificate, which meets (1/2 + 1/(2t)) m
    and the clique-free pipeline floor (1/2 + 1/(8 n^((r-2)/(r-1)))) m."""
    for k, (g, r) in enumerate(_kr_free_pool(count, seed)):
        col = kr_free_coloring(g, r)
        cut, cert = coloring_cut(g, col)
        t = col.classes
        if cut.value < cert.expected_value:
            return False, f"graph {k}: value {cut.value} below certificate"
        if t >= 2 and cert.expected_value < (0.5 + 1.0 / (2 * t)) * g.m - TOL:
            return False, f"graph {k}: certificate below the class-count floor"
        if cert.expected_value < coloring_pipeline_floor(g.n, g.m, r) - TOL:
            return False, f"graph {k}: certificate below the pipeline floor"
    return True, f"{count} colorings"


def tcut_expectation_oracle(g: Graph, base_side, t: int) -> Fraction:
    """Exhaustive expectation of the random t-way refinement of a base cut:
    enumerate every joint outcome of the per-vertex independent draws."""
    s, odd = divmod(t, 2)
    options = []
    for v in range(g.n):
        own = range(s) if base_side[v] == 0 else range(s, 2 * s)
        if odd:
            options.append([(q, Fraction(2, t)) for q in own] + [(2 * s, Fraction(1, t))])
        else:
            options.append([(q, Fraction(1, s)) for q in own])
    total = Fraction(0)
    edges = g.edges
    for outcome in product(*options):
        part = [q for q, _ in outcome]
        prob = math.prod(q for _, q in outcome)
        total += prob * sum(1 for u, v in edges if part[u] != part[v])
    return total


def _tcut_cases(seed):
    rng = make_rng(seed, 106)
    graphs = [complete(3), complete(4), cycle(4), cycle(5), path(5), star(4),
              complete_bipartite(2, 3)]
    for k in range(4):
        graphs.append(gnp(int(rng.integers(4, 8)), 0.5, int(rng.integers(0, 2**63))))
    cases = []
    for g in graphs:
        sides = {tuple([0] * g.n), tuple(v % 2 for v in range(g.n))}
        for _ in range(2):
            sides.add(tuple(int(b) for b in rng.integers(0, 2, size=g.n)))
        for side in sorted(sides):
            cases.append((g, cut_value(g, side)))
    return cases


def check_tcut_expectation(seed=0, count=None):
    """Closed-form t-cut certificate equals the exhaustive expectation, on
    the first ``count`` (graph, base, t) cases, or on all of them."""
    cases = [(g, base, t) for g, base in _tcut_cases(seed) for t in (2, 3, 4)]
    checked = 0
    for g, base, t in cases[:count]:
        closed = t_cut_expected_value(g.m, base.value, t)
        exact = float(tcut_expectation_oracle(g, base.side, t))
        if abs(closed - exact) > TOL:
            return False, f"n={g.n}, t={t}: closed {closed} vs exact {exact}"
        checked += 1
    return True, f"{checked} (graph, base, t) cases"


SUITES = {
    "plan-dominance": check_plan_dominance,
    "triangle-sparse-constant": check_triangle_sparse_constant,
    "decomposition": check_decomposition,
    "coloring-cut": check_coloring_cut,
    "coloring-classes": check_coloring_classes,
    "tcut-expectation": check_tcut_expectation,
}


def run_suite(name: str, seed: int = 0, count: int | None = None):
    fn = SUITES[name]
    return fn(seed=seed) if count is None else fn(count=count, seed=seed)
