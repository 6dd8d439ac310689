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
from .errors import BudgetExceeded, InvalidParameter
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
    """Optimal cut by prefix extension over all labelings with vertex 0
    pinned to side 0.

    Vertices 1..n-1 are placed in order. After vertex v, entry i of
    ``values`` is the number of cut edges among 0..v for the labeling whose
    bits, most significant first, are the sides of 1..v. Placing v appends
    one bit: v cuts its earlier neighbours on the other side, counted with
    one popcount of i against v's neighbour mask, so the work is O(2^n), not
    O(m 2^n). Index order is the lexicographic order of the sides, so the
    first maximum is the lexicographically smallest optimal labeling. The
    step cap keeps its m * 2^(n-1) form, the cost of a pass per edge, so a
    budget refuses exactly the graphs it refused before.
    """
    budget = budget or TWO_CUT_BUDGET
    if g.n > budget.max_vertices:
        raise BudgetExceeded(f"{g.n} vertices exceed the cap {budget.max_vertices}")
    if g.n == 0:
        return Cut((), 0)
    free = g.n - 1
    if (1 << free) * max(g.m, 1) > budget.max_steps:
        raise BudgetExceeded("enumeration work exceeds the step cap")
    # bit v-1-u for each neighbour u < v of v; vertex 0's bit, v-1, lies
    # above every index of the prefix table, so it counts only on side 1
    nb = [0] * g.n
    for u, v in g.edges:
        nb[v] |= 1 << (v - 1 - u)
    values = np.zeros(1, dtype=np.uint16)
    for v in range(1, g.n):
        ones = np.arange(len(values), dtype=np.uint32)
        ones &= nb[v]
        ones = np.bitwise_count(ones)  # earlier neighbours on side 1
        nxt = np.empty((len(values), 2), dtype=np.uint16)
        np.add(values, ones, out=nxt[:, 0])
        np.add(values, nb[v].bit_count(), out=nxt[:, 1])
        nxt[:, 1] -= ones
        values = nxt.reshape(-1)
    mask = int(values.argmax())
    side = (0,) + tuple((mask >> (free - v)) & 1 for v in range(1, g.n))
    return Cut(side, int(values[mask]))


def max_t_cut_exact(g: Graph, t: int, budget: OracleBudget | None = None) -> TPartition:
    """Optimal t-partition by chunked enumeration with vertex 0 in part 0.

    Codes are read most-significant digit first, so ties resolve to the
    lexicographically smallest part sequence.
    """
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
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
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    g = emb.graph
    values = np.array([g.crossing_count(emb.round_sides(rng.standard_normal(g.n))) for _ in range(trials)])
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr
