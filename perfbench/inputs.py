"""Seeded inputs for the certcut benchmark.

Every graph is built here from the workload seed with Python's own
``random.Random``, never with ``certcut.generators``: a change to the
program's generators must not change what the benchmark feeds it. Cut
requests carry edge-list text only, exactly what ``certcut cut`` reads.

Sizes and degrees are fixed ladders; the seed only decides which edges a
random graph has and the seed of each request, so work per pass stays close
from seed to seed. Blow-ups and Turan graphs are fixed, as ``certcut gen``
makes them.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

# expected outcome of a request, as the CLI's exit code
OK, PARSE, PRECONDITION, BUDGET = 0, 2, 3, 4


@dataclass(frozen=True)
class CutRequest:
    """``certcut cut --algo <algo> --seed <seed> --r <r> --t <t>`` on ``text``."""

    label: str
    text: str
    n: int
    m: int
    algo: str
    seed: int
    r: int = 3
    t: int = 3
    expect: int = OK


@dataclass(frozen=True)
class GenRequest:
    """``certcut gen --model <model> ... --seed <seed> --cr-free <cr_free>``."""

    label: str
    model: str
    params: tuple
    seed: int
    cr_free: int = 0
    expect: int = OK


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_pct: float
    requests: tuple

    @property
    def cut_requests(self) -> int:
        return sum(isinstance(q, CutRequest) for q in self.requests)

    def digest(self) -> str:
        h = hashlib.sha256()
        for q in self.requests:
            h.update(repr(q).encode())
        return h.hexdigest()


# ---------------------------------------------------------------- graphs


def regular(n: int, d: int, rng: random.Random) -> list:
    """Simple d-regular graph from the configuration model. Stubs left in a
    loop or a repeated pair are pooled with the stubs of as many random
    accepted pairs and paired again, so no round starts from scratch."""
    stubs = [v for v in range(n) for _ in range(d)]
    edges: set = set()
    while stubs:
        rng.shuffle(stubs)
        pending = []
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                pending += e
            else:
                edges.add(e)
        if pending:
            for e in rng.sample(sorted(edges), min(len(edges), len(pending) // 2)):
                edges.remove(e)
                pending += e
        stubs = pending
    return sorted(edges)


def gnp(n: int, p: float, rng: random.Random) -> list:
    """G(n, p) in O(n + m) by geometric skipping over the pairs (w, v), w < v."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    log_q = math.log(1.0 - p)
    edges = []
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


def tripartite(n: int, p: float, rng: random.Random) -> list:
    """Random 3-partite graph (parts v mod 3), hence K4-free."""
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u % 3 != v % 3 and rng.random() < p
    ]


def bipartite(a: int, b: int, p: float, rng: random.Random) -> list:
    return [(u, a + v) for u in range(a) for v in range(b) if rng.random() < p]


def blowup_cycle(k: int, size: int) -> list:
    """C_k with every vertex replaced by an independent ``size``-set; free of
    triangles for k >= 4."""
    return [
        (u * size + i, ((u + 1) % k) * size + j)
        for u in range(k)
        for i in range(size)
        for j in range(size)
    ]


def turan(n: int, classes: int) -> list:
    """Complete balanced ``classes``-partite graph, hence K_(classes+1)-free."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if u % classes != v % classes]


def edge_list(n: int, edges) -> tuple[str, int]:
    """Canonical edge-list text ("n m" header, sorted u < v pairs) and m."""
    norm = sorted((u, v) if u < v else (v, u) for u, v in edges)
    lines = [f"{n} {len(norm)}"]
    lines.extend(f"{u} {v}" for u, v in norm)
    return "\n".join(lines) + "\n", len(norm)


def _cut(label, n, edges, algos, seed, **kw):
    text, m = edge_list(n, edges)
    return [CutRequest(f"{label}/{a}", text, n, m, a, seed, **kw) for a in algos]


# ---------------------------------------------------------------- workloads


def sparse_sdp(seed: int) -> Workload:
    rng = random.Random(f"sparse-sdp/{seed}")
    algos = ("sdp", "tcut", "composite")
    reqs = []
    for n in (3600, 2800, 2200, 1700, 1300, 1000, 780, 600):
        reqs += _cut(f"regular-{n}", n, regular(n, 3, rng), algos, rng.randrange(2**32))
    for n in (1600, 1200, 900, 680, 510, 380, 290):
        reqs += _cut(f"gnp-{n}", n, gnp(n, 6.0 / (n - 1), rng), algos, rng.randrange(2**32))
    return Workload(
        "sparse-sdp",
        "large triangle-poor graphs: rounding and cut counting dominate, decomposition stops at once",
        90.0,
        tuple(reqs),
    )


def dense_decompose(seed: int) -> Workload:
    rng = random.Random(f"dense-decompose/{seed}")
    reqs = []
    for n, deg in ((300, 40), (340, 45)):
        reqs += _cut(f"gnp-{n}-{deg}", n, gnp(n, deg / (n - 1), rng), ("composite",),
                     rng.randrange(2**32))
    for i in range(20):
        n = 200 + 4 * i
        deg = 28 + i // 3
        # chromatic on every other graph keeps the median inside the kr requests
        algos = ("kr", "chromatic") if i % 2 else ("kr",)
        reqs += _cut(f"tripartite-{n}-{deg}", n, tripartite(n, deg / (2 * n / 3), rng),
                     algos, rng.randrange(2**32), r=4)
    return Workload(
        "dense-decompose",
        "dense triangle-rich graphs: partitioning strips many parts, with cliques and colorings; rounding is a smaller share",
        85.0,
        tuple(reqs),
    )


SMALL_SIZES = (8, 12, 16, 20, 40, 80, 140, 200)
BLOWUPS = ((4, 2), (6, 2), (4, 4), (5, 4), (5, 8), (8, 10), (7, 20), (10, 20))
TURAN_SIZES = (8, 12, 16, 20, 30, 40, 50, 60)


def small_batch(seed: int) -> Workload:
    rng = random.Random(f"small-batch/{seed}")
    base = ("sdp", "composite", "tcut", "sampled")
    reqs = []

    def add(label, n, edges, r=None):
        algos = base + (("exact",) if n <= 20 else ()) + (("kr", "chromatic") if r else ())
        reqs.extend(_cut(label, n, edges, algos, rng.randrange(2**32), r=r or 3))

    for i, n in enumerate(SMALL_SIZES):
        d = 3 if i % 2 == 0 else 4
        add(f"regular-{n}-{d}", n, regular(n, d, rng))
        add(f"gnp-{n}", n, gnp(n, 4.0 / (n - 1), rng))
        a = n // 2
        add(f"bipartite-{n}", n, bipartite(a, n - a, min(0.9, 8.0 / n), rng), r=3)
    for k, size in BLOWUPS:
        add(f"blowup-{k}x{size}", k * size, blowup_cycle(k, size), r=3)
    for i, n in enumerate(TURAN_SIZES):
        classes = 2 + i % 3
        add(f"turan-{n}-{classes}", n, turan(n, classes), r=classes + 1)

    gens = (
        ("gnp", 60, 3), ("gnp", 120, 4), ("gnp", 250, 0), ("gnp", 500, 3),
        ("gnp", 1000, 4), ("gnp", 2000, 0),
        ("regular", 60, 5), ("regular", 120, 0), ("regular", 250, 4), ("regular", 500, 5),
        ("regular", 1000, 3), ("regular", 2000, 4),
    )
    for i, (model, n, cr_free) in enumerate(gens):
        if model == "gnp":
            params = (("n", n), ("p", 4.0 / (n - 1)))
        else:
            params = (("d", 3 + i % 2), ("max_restarts", 1000), ("n", n))
        reqs.append(GenRequest(f"gen-{model}-{n}-c{cr_free}", model, params,
                               rng.randrange(2**32), cr_free))
    reqs.extend(_refusals(rng))
    return Workload(
        "small-batch",
        "hundreds of tiny cut and gen requests, as bench and verify make: fixed per-call costs dominate",
        90.0,
        tuple(reqs),
    )


def _refusals(rng: random.Random) -> list:
    """Requests the CLI must refuse with a documented exit code."""
    out = []
    for i in range(2):
        n = 30 + 10 * i
        text, m = edge_list(n, gnp(n, 0.2, rng))
        lines = text.splitlines()
        u, v = map(int, lines[1].split())
        bad = {
            "duplicate-edge": "\n".join([f"{n} {m + 1}"] + lines[1:] + [lines[1]]) + "\n",
            "self-loop": "\n".join([f"{n} {m + 1}"] + lines[1:] + [f"{u} {u}"]) + "\n",
            "header-count": "\n".join([f"{n} {m + 1}"] + lines[1:]) + "\n",
            "vertex-range": "\n".join([f"{n} {m + 1}"] + lines[1:] + [f"{u} {n}"]) + "\n",
            "token": text.replace(f"{u} {v}\n", f"{u} x{v}\n", 1),
        }
        seed = rng.randrange(2**32)
        for kind, bad_text in bad.items():
            out.append(CutRequest(f"refuse-parse-{kind}-{n}/sdp", bad_text, n, m, "sdp", seed,
                                  expect=PARSE))
        tri_n = 12 + 6 * i
        out += _cut(f"refuse-kr-turan-{tri_n}", tri_n, turan(tri_n, 3), ("kr",),
                    rng.randrange(2**32), r=3, expect=PRECONDITION)
        big = 30 + 2 * i
        out += _cut(f"refuse-exact-{big}", big, regular(big, 3, rng), ("exact",),
                    rng.randrange(2**32), expect=BUDGET)
        out.append(GenRequest(f"refuse-gen-regular-odd-{i}", "regular",
                              (("d", 3), ("max_restarts", 1000), ("n", 61 + 2 * i)),
                              rng.randrange(2**32), expect=PRECONDITION))
    return out


WORKLOADS = {
    "sparse-sdp": sparse_sdp,
    "dense-decompose": dense_decompose,
    "small-batch": small_batch,
}
