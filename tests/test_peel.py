"""The in-place partition layer against the rebuild-per-round reference.

``degeneracy_order``, ``back_pairs``, ``triangle_list``,
``count_back_triangles`` and ``partition_triangle_sparse`` must give exactly
what the loops in ``oracles`` give: the same order, back sets, triangles,
parts, witnesses and remainder.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from certcut import decompose, graphcore
from certcut._rng import make_rng
from certcut.decompose import find_dense_subset, partition_triangle_sparse
from certcut.generators import complete, cycle, gnp, petersen, random_regular, star, turan
from certcut.graphcore import (
    Graph,
    count_back_triangles,
    count_triangles,
    degeneracy_order,
    induced_subgraph,
    triangle_list,
)
from oracles import (
    back_sets,
    brute_triangle_list,
    reference_back_sets,
    reference_back_triangles,
    reference_count_triangles,
    reference_degeneracy_order,
    reference_partition,
    reference_triangle_list,
    rows,
)
from conftest import graphs


def random_tripartite(n: int, p: float, seed: int) -> Graph:
    """K_4-free: every edge joins two of three classes (v mod 3)."""
    rng = make_rng(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u % 3 != v % 3 and rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def corpus():
    graphs = {
        "n0": Graph.from_edges(0, []),
        "n1": Graph.from_edges(1, []),
        "m0": Graph.from_edges(6, []),
        "k7": complete(7),
        "c9": cycle(9),
        "star8": star(8),
        "petersen": petersen(),
        "isolated": Graph.from_edges(9, [(0, 3), (3, 5), (5, 0), (6, 8)]),
        # vertex 1 reaches degree 0 only once 0 is removed, so it is not
        # among the isolated vertices that the peel takes first
        "edge_isolated": Graph.from_edges(6, [(0, 1)]),
        "regular3_80": random_regular(80, 3, seed=4),
        "turan_40_3": turan(40, 3),
        "turan_45_5": turan(45, 5),
        "tripartite_90": random_tripartite(90, 0.4, 1),
    }
    for seed, (n, p) in enumerate([(12, 0.5), (40, 0.2), (90, 0.1), (120, 0.3), (200, 0.15)]):
        graphs[f"gnp{n}_{seed}"] = gnp(n, p, seed=70 + seed)
    return graphs


CORPUS = corpus()


def masks(g: Graph):
    rng = make_rng(g.n, g.m)
    yield np.zeros(g.n, dtype=bool)
    yield np.ones(g.n, dtype=bool)
    isolated = np.ones(g.n, dtype=bool)
    adj = rows(g)
    for v in range(0, g.n, 3):
        isolated[adj[v]] = False
        isolated[v] = True  # keep v, drop its neighbors: v is isolated
    yield isolated
    for keep in (0.3, 0.7):
        yield rng.random(g.n) < keep


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestPeel:
    def test_degeneracy_order_matches_heap_peel(self, name):
        g = CORPUS[name]
        got, want = degeneracy_order(g), reference_degeneracy_order(g)
        assert got.order.tolist() == list(want.order)
        assert got.degeneracy == want.degeneracy
        assert back_sets(g, got) == want.back_neighbors

    def test_masked_peel_is_induced_subgraph_order(self, name):
        # the canonical peel masked to a vertex subset is an order of the
        # induced subgraph whose back sets are the whole order's, cut down
        # to the subset: the partition counts its residual this way
        g = CORPUS[name]
        whole = back_sets(g, g.degeneracy_order)
        for alive in masks(g):
            sub, ids = induced_subgraph(g, np.flatnonzero(alive).tolist())
            up = ids.tolist()
            down = {v: i for i, v in enumerate(up)}
            mapped = [down[v] for v in g.degeneracy_order.order.tolist() if alive[v]]
            assert sorted(mapped) == list(range(sub.n))
            want = reference_back_sets(sub, mapped)
            assert [frozenset(w for w in whole[v] if alive[w]) for v in up] == [
                frozenset(up[w] for w in b) for b in want
            ]
            assert max(map(len, want), default=0) <= g.degeneracy_order.degeneracy

    def test_back_triangles_match_set_loop(self, name):
        g = CORPUS[name]
        order = degeneracy_order(g)
        assert count_back_triangles(g, order) == reference_back_triangles(g, order)


def test_isolated_vertices_are_removed_first():
    order = degeneracy_order(CORPUS["edge_isolated"])
    assert order.order.tolist()[::-1] == [2, 3, 4, 5, 0, 1]
    assert order.degeneracy == 1
    assert degeneracy_order(CORPUS["isolated"]).order.tolist()[::-1] == [1, 2, 4, 7, 6, 8, 0, 3, 5]


def fresh(g: Graph) -> Graph:
    """An equal graph with nothing cached, so its listing is made anew."""
    return Graph(g.n, g.indptr, g.indices, g.eu, g.ev)


def check_triangle_list(g: Graph):
    tri = triangle_list(fresh(g))
    assert tri.shape == (len(tri), 3)
    found = [tuple(sorted(int(v) for v in row)) for row in tri]
    assert len(set(found)) == len(found)
    adj = [frozenset(row) for row in rows(g)]
    assert all(b in adj[a] and c in adj[a] and c in adj[b] for a, b, c in found)
    assert sorted(found) == brute_triangle_list(g)


def check_same_rows(g: Graph):
    got, want = triangle_list(fresh(g)), reference_triangle_list(g)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()


class TestTriangleList:
    @pytest.mark.parametrize("name", [k for k in sorted(CORPUS) if CORPUS[k].n <= 90])
    def test_matches_brute_force(self, name):
        check_triangle_list(CORPUS[name])

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("name", ["k7", "isolated", "gnp40_1", "turan_40_3", "tripartite_90"])
    def test_chunk_boundaries_inside_a_vertex(self, monkeypatch, name, chunk):
        monkeypatch.setattr(graphcore, "ROUND_CHUNK", chunk)
        check_triangle_list(CORPUS[name])

    @pytest.mark.parametrize("chunk", [7, graphcore.ROUND_CHUNK])
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_rows_and_order_match_id_key_lookup(self, monkeypatch, name, chunk):
        # the corpus has degree ties (cliques, cycles, regular and Turan
        # graphs), isolated vertices and m = 0
        monkeypatch.setattr(graphcore, "ROUND_CHUNK", chunk)
        check_same_rows(CORPUS[name])

    @given(graphs(max_n=12))
    @settings(deadline=None, max_examples=200)
    def test_rows_and_order_match_id_key_lookup_on_random_graphs(self, g):
        check_same_rows(g)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_count_matches_set_loop_and_cache(self, name):
        g = CORPUS[name]
        assert count_triangles(g) == reference_count_triangles(g) == g.triangles
        assert g.triangle_edges is g.triangle_edges
        assert triangle_list(g).tolist() == reference_triangle_list(g).tolist()


def partition_cases():
    for name in ("gnp120_3", "gnp200_4", "turan_40_3", "turan_45_5", "tripartite_90", "k7", "isolated"):
        for eps in (0.25, 1.0, 4.0, 16.0):
            yield name, eps


@pytest.mark.parametrize("name,eps", list(partition_cases()))
def test_partition_matches_rebuild_per_round(name, eps):
    g = CORPUS[name]
    got = partition_triangle_sparse(g, eps)
    parts, witnesses, remainder = reference_partition(g, eps)
    assert [p.tolist() for p in got.parts] == [sorted(p) for p in parts]
    assert got.witnesses == witnesses
    assert got.remainder.tolist() == sorted(remainder)
    assert got.eps_used == eps


def first_round_cases():
    for name, g in sorted(CORPUS.items()):
        for eps in (0.25, 0.5, 1.0, 2.0, 8.0, 16.0):
            if g.triangles and g.triangles * eps >= g.m:
                yield name, eps


@pytest.mark.parametrize("name,eps", list(first_round_cases()))
def test_lemma_is_the_partitions_first_round(name, eps):
    # the partition's first round searches the whole canonical order, as
    # the lemma does
    g = CORPUS[name]
    dense, witness = find_dense_subset(g, degeneracy_order(g), eps)
    got = partition_triangle_sparse(g, eps)
    assert dense.tolist() == got.parts[0].tolist()
    assert witness == got.witnesses[0]


def test_partition_reference_cases_strip_many_parts():
    # the comparison above covers long runs of rounds, not only the first
    stripped = {name: len(partition_triangle_sparse(CORPUS[name], 16.0).parts)
                for name in ("gnp120_3", "gnp200_4", "turan_40_3", "tripartite_90")}
    assert all(k >= 5 for k in stripped.values()), stripped
    assert max(stripped.values()) >= 20, stripped


def test_partition_walks_no_whole_list_per_round(monkeypatch):
    # the back-edge and back-triangle counts are taken once and each round
    # subtracts what its part kills, so over 20 and more rounds no list
    # of all edges or triangles is gathered again
    calls = Counter()
    for module in (graphcore, decompose):
        for name in ("back_pairs", "count_back_triangles", "_last_positions", "_triangle_passes"):
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
    g = fresh(CORPUS["gnp200_4"])
    got = partition_triangle_sparse(g, 16.0)
    assert len(got.parts) >= 20
    assert calls["_triangle_passes"] == calls["_last_positions"] == 1, calls
    assert calls["back_pairs"] == calls["count_back_triangles"] == 0, calls


@pytest.mark.parametrize("seed", range(12))
def test_partition_matches_on_random_dense_graphs(seed):
    rng = make_rng(seed, 5)
    n = int(rng.integers(20, 90))
    g = gnp(n, float(rng.uniform(0.1, 0.5)), seed=300 + seed)
    eps = float(rng.choice([0.5, 2.0, 8.0, 32.0]))
    got = partition_triangle_sparse(g, eps)
    parts, witnesses, remainder = reference_partition(g, eps)
    assert [p.tolist() for p in got.parts] == [sorted(p) for p in parts]
    assert (got.witnesses, got.remainder.tolist()) == (witnesses, sorted(remainder))
