"""File formats and run reports: edge-list/DIMACS parsing, the canonical
edge-list writer, and the JSON/CSV report schema emitted by the CLI.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import BudgetExceeded, DuplicateEdge, ParseError, SelfLoop, VertexOutOfRange
from .graphcore import Graph

# largest vertex count a header may declare; every declared vertex costs
# the graph a CSR row pointer and a run of per-vertex work, edges or not
MAX_HEADER_VERTICES = 10**6

# the bytes of a plain edge list: digits, '-', and space, tab and '\n' as
# the only separators (the only ones among them at or below b" ")
_PLAIN_BYTES = b"0123456789- \t\n"
# an id of at most 18 digits is below 2**63, so int64 holds it exactly
_MAX_DIGITS = 18

CSV_HEADER = (
    "graph,n,m,degeneracy,triangles,algo,params,seed,value,"
    "surplus_num,certificate,bound,ms"
)


def parse_graph(data: bytes | str) -> Graph:
    """Parse an edge list (header "n m", 0-indexed pairs) or DIMACS
    ("p edge n m", "e u v" 1-indexed). The format is auto-detected from the
    first token; validation errors carry the offending line number. A
    header declaring more than ``MAX_HEADER_VERTICES`` vertices raises
    BudgetExceeded. Bytes must be UTF-8; otherwise ParseError names the
    line that holds the first undecodable byte.
    """
    g = _parse_plain(data)
    return g if g is not None else _parse_lines(data)


def _parse_plain(data: bytes | str) -> Graph | None:
    """The graph of a plain edge list, read in array passes over its bytes,
    or None for any other input, which the line parser then reads and, if
    it is bad, refuses. Plain means: only the bytes in ``_PLAIN_BYTES``;
    exactly two ids ``-?[0-9]{1,18}`` on every nonblank line; a header with
    n in [0, MAX_HEADER_VERTICES] and m equal to the number of edge lines;
    and edges that ``Graph.from_edges`` accepts. On such input ``str.split``
    and ``int`` read the same ids as ``np.fromstring``.
    """
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode("ascii")
    data = bytes(data)
    if data.translate(None, _PLAIN_BYTES):
        return None
    b = np.frombuffer(data, np.uint8)
    sep = np.ones(len(b) + 2, bool)  # sep[j] is True when byte j - 1 separates
    np.less_equal(b, ord(" "), out=sep[1:-1])
    # tokens run from a separator-to-byte edge to the next byte-to-separator one
    edges = np.flatnonzero(sep[1:] != sep[:-1])
    starts, ends = edges[0::2], edges[1::2]
    if len(starts) < 2 or len(starts) % 2:
        return None
    neg = b[starts] == ord("-")
    digits = ends - starts - neg
    # a '-' only opens a token, and every token has 1 to 18 digits
    if not sep[np.flatnonzero(b == ord("-"))].all() or digits.min() < 1 or digits.max() > _MAX_DIGITS:
        return None
    # each token's line is the number of newlines before it; the two tokens
    # of a pair share a line, and the next pair starts on a later one
    line = np.searchsorted(np.flatnonzero(b == ord("\n")), starts)
    if (line[0::2] != line[1::2]).any() or (line[2::2] == line[1:-1:2]).any():
        return None
    ids = np.fromstring(data, np.int64, sep=" ")
    n, m = ids[:2].tolist()
    if not 0 <= n <= MAX_HEADER_VERTICES or m != len(ids) // 2 - 1:
        return None
    try:
        return Graph.from_edges(n, ids[2:].reshape(-1, 2))
    except (VertexOutOfRange, SelfLoop, DuplicateEdge):
        return None


def _parse_lines(data: bytes | str) -> Graph:
    """``parse_graph`` line by line: every input, and the only source of
    its errors."""
    text = _decode(data) if isinstance(data, (bytes, bytearray)) else data
    lines = text.splitlines()
    first = next((ln for ln in lines if ln.strip()), "")
    token = first.split()[0] if first.split() else ""
    if token in ("p", "c", "e"):
        return _parse_dimacs(lines)
    return _parse_edge_list(lines)


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # the bytes before err.start decode; "x" stands in for the bad byte,
        # so the line count is that byte's line as splitlines numbers lines
        no = len((data[: err.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"input is not UTF-8 (byte 0x{data[err.start]:02x})", no) from None


def _int_pair(tokens, what, no) -> tuple[int, int]:
    """Exactly two integer tokens, or ParseError(``what``) at line ``no``."""
    try:
        u, v = map(int, tokens)
    except ValueError:
        raise ParseError(what, no) from None
    return u, v


def _parse_edge_list(lines) -> Graph:
    header = None
    header_no = 0
    entries = []
    for no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if header is None:
            header, header_no = _int_pair(parts, "expected header 'n m'", no), no
        else:
            entries.append((*_int_pair(parts, "expected edge 'u v'", no), no))
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
            if len(parts) < 2 or parts[1] not in ("edge", "col"):
                raise ParseError("expected 'p edge n m'", no)
            header, header_no = _int_pair(parts[2:], "expected 'p edge n m'", no), no
        elif parts[0] == "e":
            if header is None:
                raise ParseError("edge before problem line", no)
            entries.append((*_int_pair(parts[1:], "expected 'e u v'", no), no))
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


# what an edge that Graph.from_edges refuses says at its input line, in the
# ids as the input wrote them
_BAD_EDGE = {
    VertexOutOfRange: "vertex in edge ({u}, {v}) out of range",
    SelfLoop: "self-loop at vertex {u}",
    DuplicateEdge: "duplicate edge ({lo}, {hi})",
}


def _assemble(n, entries, one_indexed) -> Graph:
    if n > MAX_HEADER_VERTICES:
        raise BudgetExceeded(f"header declares {n} vertices, above the cap {MAX_HEADER_VERTICES}")
    shift = 1 if one_indexed else 0
    try:
        return Graph.from_edges(n, [(u - shift, v - shift) for u, v, _ in entries])
    except (VertexOutOfRange, SelfLoop, DuplicateEdge) as err:
        u, v, no = entries[err.index]
        text = _BAD_EDGE[type(err)].format(u=u, v=v, lo=min(u, v), hi=max(u, v))
        raise type(err)(text, no) from None


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
