"""Coloring-based cuts: constructive Ramsey independent sets, clique-free
colorings with a sublinear class count, the derandomized two-group class
split, and the randomized refinement of a 2-cut into t parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CliqueFound,
    ImproperColoring,
    InvalidParameter,
    LabelSizeMismatch,
    NotACutOfInducedSubgraph,
    TooFewVertices,
)
from .embedding import CutCertificate
from .graphcore import Cut, Graph, best_row, block_rows, cut_value


@dataclass(frozen=True)
class Coloring:
    """Proper vertex coloring with class ids 0..classes-1, every class nonempty."""

    color: tuple[int, ...]
    classes: int


@dataclass(frozen=True)
class TPartition:
    """A t-way vertex labeling with its separated-edge count."""

    part: tuple[int, ...]
    value: int


def _ramsey_bound(r: int, s: int) -> int:
    # binomial upper bound for the off-diagonal Ramsey number R(r, s)
    return math.comb(r + s - 2, s - 1)


def _ramsey(g: Graph, mask: np.ndarray, r: int, s: int) -> set[int]:
    # each pass either descends into the pivot's neighborhood with r - 1 or
    # keeps the pivot and goes on in its non-neighborhood with s - 1; an edge
    # inside the mask at r = 2 is a clique with every pivot descended into
    picked, pivots = set(), []
    eu, ev = g.eu, g.ev
    while s > 0:
        inside = mask[eu] & mask[ev]
        eu, ev = eu[inside], ev[inside]
        size = int(np.count_nonzero(mask))
        if size < _ramsey_bound(r, s):
            raise TooFewVertices(
                f"{size} vertices cannot certify an independent set of size {s} "
                f"(need {_ramsey_bound(r, s)})"
            )
        if r == 2:
            if len(eu):  # the first edge in (eu, ev) order
                raise CliqueFound((int(eu[0]), int(ev[0]), *pivots))
            return picked | set(np.flatnonzero(mask)[:s].tolist())
        if s == 1:
            return picked | {int(mask.argmax())}
        deg = np.bincount(eu, minlength=g.n) + np.bincount(ev, minlength=g.n)
        pivot = int(np.where(mask, deg, -1).argmax())  # lowest id on a tie
        nbrs = np.zeros(g.n, dtype=bool)
        nbrs[g.indices[g.indptr[pivot]:g.indptr[pivot + 1]]] = True
        nbrs &= mask
        if deg[pivot] >= _ramsey_bound(r - 1, s):
            mask, r = nbrs, r - 1
            pivots.append(pivot)
            continue
        mask = mask & ~nbrs
        mask[pivot] = False
        picked.add(pivot)
        s -= 1
    return picked


def ramsey_independent_set(g: Graph, r: int, s: int) -> frozenset[int]:
    """Independent set of size >= s in a K_r-free graph by pivot descent.

    Picks a maximum-degree pivot; if its neighborhood is large enough the
    search descends there with r-1, otherwise it finds s-1 vertices in the
    non-neighborhood and adds the pivot. Raises CliqueFound (with a verified
    witness) if an r-clique is discovered, or TooFewVertices when the vertex
    count is below the binomial Ramsey bound.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if s < 0:
        raise ValueError("s must be >= 0")
    return frozenset(_ramsey(g, np.ones(g.n, dtype=bool), r, s))


def _grow_maximal(g: Graph, ind: set[int], mask: np.ndarray) -> set[int]:
    # greedy maximal extension inside mask, lowest id first
    free = mask.copy()
    for v in ind:
        free[g.indices[g.indptr[v]:g.indptr[v + 1]]] = False
    for v in np.flatnonzero(free).tolist():
        if free[v]:
            ind.add(v)
            free[g.indices[g.indptr[v]:g.indptr[v + 1]]] = False
    return ind


def _floor_root(n: int, k: int) -> int:
    if k == 1:
        return n
    s = max(1, int(round(n ** (1.0 / k))))
    while s**k > n:
        s -= 1
    while (s + 1) ** k <= n:
        s += 1
    return s


def kr_free_coloring(g: Graph, r: int) -> Coloring:
    """Proper coloring of a K_r-free graph with at most 4 n^((r-2)/(r-1)) classes.

    Peels one Ramsey independent set of size floor(n_res^(1/(r-1))) per class
    (grown to a maximal independent set, which only reduces the class count);
    residuals of at most 4^(r-1) vertices are finished by greedy coloring,
    which uses at most that many classes and keeps the bound valid.
    """
    if r < 2:
        raise InvalidParameter(f"r must be >= 2, got {r}")
    color = np.full(g.n, -1, dtype=np.int64)
    residual = np.ones(g.n, dtype=bool)
    next_class = 0
    base_threshold = 4 ** (r - 1)
    while size := int(np.count_nonzero(residual)):
        if size <= base_threshold:
            for v in np.flatnonzero(residual).tolist():
                used = set(color[g.indices[g.indptr[v]:g.indptr[v + 1]]].tolist())
                c = next_class
                while c in used:
                    c += 1
                color[v] = c
            next_class = int(color.max()) + 1
            break
        s = _floor_root(size, r - 1)
        ind = list(_grow_maximal(g, _ramsey(g, residual, r, s), residual))
        color[ind] = next_class
        residual[ind] = False
        next_class += 1
    return Coloring(tuple(color.tolist()), next_class)


def coloring_class_bound(n: int, r: int) -> float:
    """The class-count guarantee 4 n^((r-2)/(r-1)) for K_r-free colorings."""
    return 4.0 * n ** ((r - 2) / (r - 1))


def coloring_pipeline_floor(n: int, m: int, r: int) -> float:
    """The K_r-free coloring-cut floor (1/2 + 1/(8 n^((r-2)/(r-1)))) m; 0 if n = 0."""
    return (0.5 + 1.0 / (8.0 * n ** ((r - 2) / (r - 1)))) * m if n else 0.0


def split_probability(t: int) -> Fraction:
    """Probability a class pair is separated by a random floor/ceil grouping."""
    if t < 2:
        return Fraction(0)
    return Fraction((t // 2) * ((t + 1) // 2), t * (t - 1) // 2)


def coloring_cut(g: Graph, col: Coloring) -> tuple[Cut, CutCertificate]:
    """Derandomized class split into groups of ceil(t/2) and floor(t/2) classes.

    Classes are placed one at a time, heaviest incident weight first, in the
    group with the larger exact conditional expectation of the final cut
    (A on a tie, the other group once one is full), so the result is always
    at least the random split's expectation m * floor(t/2) * ceil(t/2) / C(t,2).

    With a and b open slots in A and B (f = a + b), x and y the weight from
    class c to A and to B, z its weight to the other unplaced classes, S_A
    and S_B the weight from all unplaced classes to A and to B, and W the
    weight among them, E[cut | c in A] - E[cut | c in B] is
    (y - x) + ((S_A - x) - (S_B - y) + z(b - a))/(f - 1)
    + 2(a - b)(W - z)/((f - 1)(f - 2)), whose last term is 0 when a = b = 1.
    Times (f - 1) max(f - 2, 1) it is an integer, and its sign decides.
    """
    if len(col.color) != g.n:
        raise ImproperColoring(f"coloring covers {len(col.color)} of {g.n} vertices")
    color = np.asarray(col.color, dtype=np.int64)
    t = col.classes
    if len(color) and not (0 <= color.min() and color.max() < t):
        raise ImproperColoring(f"class ids outside [0, {t})")
    cu, cv = color[g.eu], color[g.ev]
    mono = np.flatnonzero(cu == cv)
    if len(mono):
        raise ImproperColoring(f"edge ({g.eu[mono[0]]}, {g.ev[mono[0]]}) is monochromatic")
    weights = np.zeros((t, t), dtype=np.int64)
    np.add.at(weights, (cu, cv), 1)
    weights += weights.T
    total = weights.sum(axis=1)
    # running: to_a/to_b (read while a class is unplaced), S_A, S_B and W
    to_a = np.zeros(t, dtype=np.int64)
    to_b = np.zeros(t, dtype=np.int64)
    in_a = np.zeros(t, dtype=bool)
    a, b = (t + 1) // 2, t // 2
    s_a = s_b = 0
    w = g.m
    for c in np.argsort(-total, kind="stable"):
        x, y = int(to_a[c]), int(to_b[c])
        z = int(total[c]) - x - y
        f = a + b
        lead = (y - x) * (f - 1) + (s_a - x) - (s_b - y) + z * (b - a)
        if not b or (a and lead * max(f - 2, 1) + 2 * (a - b) * (w - z) >= 0):
            in_a[c] = True
            a, s_a, s_b = a - 1, s_a - x + z, s_b - y
            to_a += weights[c]
        else:
            b, s_a, s_b = b - 1, s_a - x, s_b - y + z
            to_b += weights[c]
        w -= z
    cut = cut_value(g, ~in_a[color])
    cert = float(g.m * split_probability(t))
    return cut, CutCertificate(cert, None, "coloring_bound", cert)


def t_cut_expected_value(m: int, base_value: int, t: int) -> float:
    """Exact expectation of the random t-way refinement of a 2-cut.

    With c cut and i = m - c uncut base edges: even t = 2s gives m - i/s;
    odd t = 2s+1 gives m - (c + (4s+1) i) / t^2.
    """
    if t < 2:
        raise InvalidParameter(f"t must be >= 2, got {t}")
    c = base_value
    i = m - c
    s, odd = divmod(t, 2)
    if odd:
        return m - (c + (4 * s + 1) * i) / (t * t)
    return m - i / s


def max_t_cut(
    g: Graph,
    base: Cut,
    t: int,
    rng,
    repeats: int = 32,
) -> tuple[TPartition, CutCertificate]:
    """Refine a 2-cut into t parts by random splitting; best of ``repeats``.

    Even t = 2s scatters each side uniformly over its own s parts. Odd
    t = 2s+1 sends side-A vertices to each of parts 0..s-1 with probability
    2/(2s+1) and to the shared part 2s with probability 1/(2s+1) (side B
    symmetrically on parts s..2s-1), using exact integer draws. The
    certificate is the exact closed-form expectation; the headline reference
    is ((t-1)/t) m. Repeats are drawn and counted in blocks of
    :func:`block_rows` rows, which consume ``rng`` as one draw per repeat
    would; the first repeat of the largest value wins (:func:`best_row`).
    """
    if not 2 <= t <= np.iinfo(np.int64).max:
        raise InvalidParameter(f"t must lie in [2, 2^63 - 1], got {t}")
    if len(base.side) != g.n:
        raise LabelSizeMismatch(f"base cut covers {len(base.side)} of {g.n} vertices")
    side_b = np.asarray(base.side) != 0  # any nonzero side is side 1
    value = g.crossing_count(side_b)
    if value != base.value:
        raise NotACutOfInducedSubgraph(f"cut claims value {base.value}, recount gives {value}")
    s, odd = divmod(t, 2)
    cert = t_cut_expected_value(g.m, value, t)
    # first part of each vertex's own block: 0 on side 0, s on side 1
    offset = s * side_b
    repeats, rows = max(1, repeats), block_rows(g.n, g.m)
    draws = (rng.integers(0, t if odd else s, size=(min(rows, repeats - start), g.n))
             for start in range(0, repeats, rows))
    parts = (np.where(d >= 2 * s, 2 * s, d // 2 + offset) if odd else d + offset for d in draws)
    best_part, (best_val,) = best_row(((p, g.crossing_count(p)) for p in parts), [g.n])
    return (
        TPartition(tuple(best_part.tolist()), best_val),
        CutCertificate(cert, None, "tcut_headline", (t - 1) / t * g.m),
    )
