"""Exact desk-scale solvers used as ground truth for every randomized or
certified algorithm: exhaustive max-cut and max-t-cut, plus a Monte-Carlo
estimator for rounding expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chromatic import TPartition
from .embedding import Embedding
from .errors import BudgetExceeded
from .graphcore import Cut, Graph

_CHUNK = 1 << 18


@dataclass(frozen=True)
class OracleBudget:
    """Limits for exhaustive search: vertex cap and elementary-step cap."""

    max_vertices: int
    max_steps: int = 10**9


TWO_CUT_BUDGET = OracleBudget(max_vertices=22)
T_CUT_BUDGET = OracleBudget(max_vertices=12)


def max_cut_exact(g: Graph, budget: OracleBudget | None = None) -> Cut:
    """Optimal cut by vectorized enumeration of all labelings with vertex 0
    pinned to side 0. Ties resolve to the lexicographically smallest labeling.
    """
    budget = budget or TWO_CUT_BUDGET
    if g.n > budget.max_vertices:
        raise BudgetExceeded(f"{g.n} vertices exceed the cap {budget.max_vertices}")
    if g.n == 0:
        return Cut((), 0)
    free = g.n - 1
    if (1 << free) * max(g.m, 1) > budget.max_steps:
        raise BudgetExceeded("enumeration work exceeds the step cap")
    masks = np.arange(1 << free, dtype=np.uint32)
    values = np.zeros(masks.shape, dtype=np.uint16)
    for u, v in g.edges:
        bit_u = masks >> (u - 1) if u else 0  # vertex 0 is pinned to side 0
        values += ((bit_u ^ (masks >> (v - 1))) & 1).astype(np.uint16)
    best = int(values.max())
    cand = values == best
    # refine to the lexicographically smallest side sequence
    for v in range(1, g.n):
        zero_bit = ((masks >> (v - 1)) & 1) == 0
        sub = cand & zero_bit
        if sub.any():
            cand = sub
    mask = int(masks[np.flatnonzero(cand)[0]])
    side = (0,) + tuple((mask >> (v - 1)) & 1 for v in range(1, g.n))
    return Cut(side, best)


def max_t_cut_exact(g: Graph, t: int, budget: OracleBudget | None = None) -> TPartition:
    """Optimal t-partition by chunked enumeration with vertex 0 in part 0.

    Codes are read most-significant digit first, so ties resolve to the
    lexicographically smallest part sequence.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
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
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
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


def monte_carlo_cut_mean(emb: Embedding, trials: int, rng) -> tuple[float, float]:
    """Sample mean and standard error of hyperplane-rounded cut values."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mat = emb.dense_matrix()
    directions = rng.standard_normal((trials, emb.n))
    sides = (directions @ mat.T) < 0
    values = np.count_nonzero(sides[:, emb.graph.eu] != sides[:, emb.graph.ev], axis=1)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr
