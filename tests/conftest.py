import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from certcut.generators import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_cliques,
    gnp,
    path,
    petersen,
    star,
    turan,
)
from certcut.graphcore import Graph


def k4_minus_edge() -> Graph:
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def k4_with_pendant_path() -> Graph:
    # K_4 on {0..3} plus a 10-edge path hanging off vertex 3
    edges = list(complete(4).edges) + [(v, v + 1) for v in range(3, 13)]
    return Graph.from_edges(14, edges)


def named_small_graphs() -> dict[str, Graph]:
    graphs = {
        "k2": complete(2),
        "k3": complete(3),
        "k4": complete(4),
        "k5": complete(5),
        "k7": complete(7),
        "k4_minus_edge": k4_minus_edge(),
        "c4": cycle(4),
        "c5": cycle(5),
        "c6": cycle(6),
        "p5": path(5),
        "star9": star(9),
        "k23": complete_bipartite(2, 3),
        "k33": complete_bipartite(3, 3),
        "turan_6_3": turan(6, 3),
        "petersen": petersen(),
        "two_triangles": disjoint_cliques(2, 3),
        "k4_pendant_path": k4_with_pendant_path(),
        "edgeless5": Graph.from_edges(5, []),
    }
    for s in range(3):
        graphs[f"gnp12_{s}"] = gnp(12, 0.3, seed=100 + s)
        graphs[f"gnp16_{s}"] = gnp(16, 0.25, seed=200 + s)
    return graphs


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


@pytest.fixture(scope="session")
def small_graphs():
    return named_small_graphs()
