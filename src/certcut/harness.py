"""File formats and run reports: edge-list/DIMACS parsing, the canonical
edge-list writer, and the JSON/CSV report schema emitted by the CLI.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields

from .errors import BudgetExceeded, DuplicateEdge, ParseError, SelfLoop, VertexOutOfRange
from .graphcore import Graph

# largest vertex count a header may declare; the graph allocates one
# adjacency list per declared vertex, edges or not
MAX_HEADER_VERTICES = 10**6

CSV_HEADER = (
    "graph,n,m,degeneracy,triangles,algo,params,seed,value,"
    "surplus_num,certificate,bound,ms"
)


def parse_graph(data: bytes | str) -> Graph:
    """Parse an edge list (header "n m", 0-indexed pairs) or DIMACS
    ("p edge n m", "e u v" 1-indexed). The format is auto-detected from the
    first token; validation errors carry the offending line number. A
    header declaring more than ``MAX_HEADER_VERTICES`` vertices raises
    BudgetExceeded.
    """
    text = data.decode() if isinstance(data, (bytes, bytearray)) else data
    lines = text.splitlines()
    first = next((ln for ln in lines if ln.strip()), "")
    token = first.split()[0] if first.split() else ""
    if token in ("p", "c", "e"):
        return _parse_dimacs(lines)
    return _parse_edge_list(lines)


def _parse_edge_list(lines) -> Graph:
    header = None
    header_no = 0
    entries = []
    for no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if header is None:
            if len(parts) != 2:
                raise ParseError("expected header 'n m'", no)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ParseError("expected header 'n m'", no) from None
            header_no = no
            continue
        if len(parts) != 2:
            raise ParseError("expected edge 'u v'", no)
        try:
            entries.append((int(parts[0]), int(parts[1]), no))
        except ValueError:
            raise ParseError("expected edge 'u v'", no) from None
    if header is None:
        raise ParseError("empty input", 1)
    _check_counts(header, header_no, len(entries), "header")
    return _assemble(header[0], entries, one_indexed=False)


def _parse_dimacs(lines) -> Graph:
    header = None
    header_no = 0
    entries = []
    for no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if header is not None:
                raise ParseError("duplicate problem line", no)
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise ParseError("expected 'p edge n m'", no)
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError("expected 'p edge n m'", no) from None
            header_no = no
        elif parts[0] == "e":
            if header is None:
                raise ParseError("edge before problem line", no)
            if len(parts) != 3:
                raise ParseError("expected 'e u v'", no)
            try:
                entries.append((int(parts[1]), int(parts[2]), no))
            except ValueError:
                raise ParseError("expected 'e u v'", no) from None
        else:
            raise ParseError(f"unknown line type {parts[0]!r}", no)
    if header is None:
        raise ParseError("missing problem line", 1)
    _check_counts(header, header_no, len(entries), "problem line")
    return _assemble(header[0], entries, one_indexed=True)


def _check_counts(header, header_no, found, what):
    n, m = header
    if n < 0 or m < 0:
        raise ParseError("negative header counts", header_no)
    if found != m:
        raise ParseError(f"{what} declares {m} edges, found {found}", header_no)


def _assemble(n, entries, one_indexed) -> Graph:
    if n > MAX_HEADER_VERTICES:
        raise BudgetExceeded(f"header declares {n} vertices, above the cap {MAX_HEADER_VERTICES}")
    shift = 1 if one_indexed else 0
    seen = set()
    edges = []
    for u, v, no in entries:
        u -= shift
        v -= shift
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"vertex in edge ({u + shift}, {v + shift}) out of range", no)
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u + shift}", no)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdge(f"duplicate edge {e}", no)
        seen.add(e)
        edges.append(e)
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    """Canonical output format: "n m" header, then sorted "u v" lines with
    u < v and a trailing newline; byte-exact for reproducibility."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


@dataclass
class RunReport:
    """One algorithm run: graph stats, parameters, value, certificate, bound.

    ``surplus_num`` is the exact half-integer surplus numerator 2*value - m,
    so surplus = surplus_num / 2 without float drift. ``ms`` is wall time and
    is excluded from determinism comparisons.
    """

    graph: str
    n: int
    m: int
    degeneracy: int
    triangles: int
    algo: str
    params: str
    seed: int
    value: int
    surplus_num: int
    certificate: float
    bound: float
    ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def to_csv_row(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="")
        writer.writerow([getattr(self, f.name) for f in fields(self)])
        return buf.getvalue()
