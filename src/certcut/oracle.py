"""Exact desk-scale solvers used as ground truth for every randomized or
certified algorithm: exhaustive max-cut and max-t-cut, plus a Monte-Carlo
estimator for rounding expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chromatic import TPartition
from .embedding import Embedding, hyperplane_round
from .errors import BudgetExceeded, InvalidParameter
from .graphcore import Cut, Graph, block_rows


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
    """Optimal t-partition by prefix extension with vertex 0 in part 0.

    Vertices 1..n-1 are placed in order, one digit each. After vertex v,
    entry i of ``values`` is the number of separated edges among 0..v for
    the labeling whose digits, most significant first, are the parts of
    1..v. Placing v gives part c the old value plus v's earlier degree
    minus its earlier neighbours in part c, subtracted per neighbour
    through a strided view of the new table. Vertex v takes only parts
    below min(t, v + 1): renumbering the parts in order of first use keeps
    the value and never makes the part sequence larger, so the
    lexicographically smallest optimum needs no other part, and the table
    holds at most min(t, n)^(n-1) entries. Index order is the
    lexicographic order of the parts, so the first maximum is that
    optimum. The step cap keeps its m * t^(n-1) form, the cost of a pass
    per edge over every code, so a budget refuses exactly the graphs it
    refused before.
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
    radix = [min(t, v + 1) for v in range(g.n)]  # vertex 0's single digit is part 0
    earlier = [[] for _ in range(g.n)]
    for u, v in g.edges:
        earlier[v].append(u)
    values = np.zeros(1, dtype=np.uint16)
    for v in range(1, g.n):
        nxt = np.empty((len(values), radix[v]), dtype=np.uint16)
        np.add(values[:, None], len(earlier[v]), out=nxt)
        for u in earlier[v]:
            # axes: the digits of 0..u-1, of u, of u+1..v-1 and of v
            view = nxt.reshape(math.prod(radix[:u]), radix[u], -1, radix[v])
            for c in range(radix[u]):  # u < v, so radix[u] <= radix[v]
                view[:, c, :, c] -= 1
        values = nxt.reshape(-1)
    code = int(values.argmax())
    part = np.unravel_index(code, radix[1:])
    return TPartition((0, *map(int, part)), int(values[code]))


def monte_carlo_cut_mean(emb: Embedding, trials: int, rng) -> tuple[float, float]:
    """Sample mean and standard error of hyperplane-rounded cut values."""
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    g = emb.graph
    rows = block_rows(g.n, len(emb.plan.owner), g.m)
    values = np.concatenate([
        hyperplane_round(emb, rng.standard_normal((min(rows, trials - start), g.n)))[1]
        for start in range(0, trials, rows)
    ])
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr
