"""Output checks for benchmark requests.

Each check returns ``None`` when the output is acceptable and a one-line
reason otherwise. The checks use no certcut code: they read the JSON report
or the edge-list text the program produced and test it against facts the
benchmark knows about its own input.
"""

from __future__ import annotations

import json
import math

from inputs import CutRequest, GenRequest

FLOAT_TOL = 1e-9


def _no_constant(token):
    raise ValueError(f"non-finite number {token}")


def edwards_bound(m: int) -> float:
    return m / 2 + (math.sqrt(8 * m + 1) - 1) / 8


def check_cut(req: CutRequest, output: str) -> str | None:
    """Check one ``certcut cut`` JSON report against its request."""
    try:
        rep = json.loads(output, parse_constant=_no_constant)
    except ValueError as exc:
        return f"report is not finite JSON: {exc}"
    if not isinstance(rep, dict):
        return "report is not a JSON object"
    # "1e999" parses to inf without passing through parse_constant
    if any(isinstance(v, float) and not math.isfinite(v) for v in rep.values()):
        return "report holds a non-finite number"
    try:
        n, m, algo, seed = rep["n"], rep["m"], rep["algo"], rep["seed"]
        value, surplus = rep["value"], rep["surplus_num"]
        cert, bound = rep["certificate"], rep["bound"]
    except KeyError as missing:
        return f"report lacks field {missing}"
    if (n, m, algo, seed) != (req.n, req.m, req.algo, req.seed):
        return f"report describes n={n} m={m} {algo} seed={seed}, not the request"
    if not isinstance(value, int) or not isinstance(surplus, int):
        return "value and surplus_num must be integers"
    if surplus != 2 * value - m:
        return f"surplus_num {surplus} != 2*{value} - {m}"
    if not 0 <= value <= m:
        return f"value {value} outside [0, {m}]"
    if algo == "exact" and value < edwards_bound(m) - FLOAT_TOL:
        return f"exact value {value} below the Edwards bound {edwards_bound(m)}"
    if algo == "chromatic" and value < cert:
        return f"chromatic value {value} below its certificate {cert}"
    if algo in ("composite", "kr") and 2 * value < m:
        return f"{algo} value {value} below m/2 = {m / 2}"
    if algo == "sdp" and cert < bound - FLOAT_TOL:
        return f"sdp certificate {cert} below the plan bound {bound}"
    return None


def _has_cycle(adj, r: int) -> bool:
    """Whether some cycle has exactly r vertices (r >= 3). Each cycle is found
    from its smallest vertex, walking only through larger ones."""
    def walk(start, v, depth, path):
        if depth == r - 1:
            return start in adj[v]
        for w in adj[v]:
            if w > start and w not in path:
                path.add(w)
                if walk(start, w, depth + 1, path):
                    return True
                path.discard(w)
        return False

    return any(walk(s, s, 0, {s}) for s in range(len(adj)))


def check_gen(req: GenRequest, output: str) -> str | None:
    """Check one ``certcut gen`` edge list: a simple graph, edges sorted,
    the requested shape, and no cycle of the requested length."""
    lines = output.split("\n")
    if lines[-1] != "":
        return "edge list lacks its trailing newline"
    try:
        rows = [tuple(int(x) for x in ln.split()) for ln in lines[:-1]]
    except ValueError:
        return "edge list holds a non-integer token"
    if not rows or any(len(row) != 2 for row in rows):
        return "edge list rows must hold two integers"
    (n, m), edges = rows[0], rows[1:]
    if len(edges) != m:
        return f"header declares {m} edges, found {len(edges)}"
    if any(not 0 <= u < v < n for u, v in edges):
        return "edges must satisfy 0 <= u < v < n"
    if any(a >= b for a, b in zip(edges, edges[1:])):
        return "edges are not strictly sorted (unsorted or repeated)"
    params = dict(req.params)
    if n != params["n"]:
        return f"graph has {n} vertices, {params['n']} requested"
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if req.model == "regular":
        d = params["d"]
        if any(len(a) > d or (not req.cr_free and len(a) != d) for a in adj):
            return f"graph is not {d}-regular" + (" minus deleted edges" if req.cr_free else "")
    if req.cr_free and _has_cycle(adj, req.cr_free):
        return f"graph still has a cycle of length {req.cr_free}"
    return None
