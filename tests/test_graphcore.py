import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcut.errors import (
    BudgetExceeded,
    DuplicateEdge,
    LabelSizeMismatch,
    OutOfRangeVertex,
    SelfLoop,
    VertexOutOfRange,
)
from certcut.generators import complete, complete_bipartite, cycle, gnp, petersen, star
from certcut.graphcore import (
    Graph,
    count_back_triangles,
    count_cliques,
    count_triangles,
    cut_value,
    degeneracy_order,
    edwards_bound,
    find_clique,
    induced_subgraph,
    is_kr_free,
)
from oracles import brute_cliques, brute_degeneracy, brute_max_cut, brute_triangles


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoop):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            Graph.from_edges(2, [(0, 2)])

    def test_edges_normalized_sorted(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0)])
        assert g.edges == ((0, 2), (1, 3))
        assert g.adjacency == ((2,), (3,), (0,), (1,))


class TestDegeneracyOrder:
    def test_star_is_one_degenerate(self):
        assert degeneracy_order(star(9)).degeneracy == 1

    def test_complete_graph(self):
        assert degeneracy_order(complete(5)).degeneracy == 4

    def test_cycle(self):
        assert degeneracy_order(cycle(5)).degeneracy == 2

    def test_isolated_vertices_get_empty_back_sets(self):
        g = Graph.from_edges(4, [(0, 1)])
        order = degeneracy_order(g)
        assert order.back_neighbors[2] == frozenset()
        assert order.back_neighbors[3] == frozenset()

    def test_graph_caches_its_order_and_triangles(self):
        g = gnp(30, 0.3, 4)
        assert g.degeneracy_order is g.degeneracy_order
        assert g.degeneracy_order == degeneracy_order(g)
        assert g.triangles == count_triangles(g)

    def test_canonical_k4_order(self):
        order = degeneracy_order(complete(4))
        assert order.order == (3, 2, 1, 0)
        assert order.back_neighbors[0] == frozenset({1, 2, 3})

    @given(graphs())
    @settings(deadline=None, max_examples=60)
    def test_matches_brute_force_and_sums_to_m(self, g):
        order = degeneracy_order(g)
        assert sorted(order.order) == list(range(g.n))
        assert sum(len(order.back_neighbors[v]) for v in range(g.n)) == g.m
        assert order.degeneracy == max(
            (len(order.back_neighbors[v]) for v in range(g.n)), default=0
        )
        assert order.degeneracy == brute_degeneracy(g)


class TestTriangles:
    def test_k4(self):
        assert count_triangles(complete(4)) == 4

    def test_bipartite_has_none(self):
        assert count_triangles(complete_bipartite(4, 5)) == 0

    def test_petersen_has_none(self):
        g = petersen()
        assert brute_triangles(g) == 0
        assert count_triangles(g) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_matches_brute_force(self, seed):
        g = gnp(11, 0.4, seed)
        assert count_triangles(g) == brute_triangles(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_back_triangles_sum_to_total(self, seed):
        g = gnp(12, 0.35, seed)
        order = degeneracy_order(g)
        assert sum(count_back_triangles(g, order)) == count_triangles(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_back_triangles_sum_for_any_order(self, seed):
        # the per-vertex split depends on the order, the total never does
        from certcut._rng import make_rng
        from certcut.graphcore import DegeneracyOrder

        g = gnp(12, 0.4, seed + 30)
        perm = tuple(int(v) for v in make_rng(seed).permutation(12))
        pos = {v: i for i, v in enumerate(perm)}
        back = tuple(
            frozenset(w for w in g.adjacency[v] if pos[w] < pos[v]) for v in range(12)
        )
        order = DegeneracyOrder(perm, back, max(len(b) for b in back))
        assert sum(count_back_triangles(g, order)) == count_triangles(g)


class TestCliques:
    def test_k5_counts_itself(self):
        assert count_cliques(complete(5), 5) == 1

    def test_c5_has_no_triangle(self):
        assert count_cliques(cycle(5), 3) == 0

    def test_k4_minus_edge_has_two_triangles(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert brute_cliques(g, 3) == 2
        assert count_cliques(g, 3) == 2

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_matches_brute_force(self, r, seed):
        g = gnp(10, 0.5, seed)
        assert count_cliques(g, r) == brute_cliques(g, r)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            count_cliques(complete(12), 6, budget=50)

    def test_find_clique_and_freeness(self):
        assert find_clique(cycle(5), 3) is None
        assert is_kr_free(cycle(5), 3)
        assert find_clique(complete(4), 3) == (0, 1, 2)
        assert not is_kr_free(complete(4), 4)


class TestCutValue:
    def test_bipartition_of_k33(self):
        g = complete_bipartite(3, 3)
        assert cut_value(g, (0, 0, 0, 1, 1, 1)).value == 9

    def test_constant_labeling(self):
        g = gnp(8, 0.5, 1)
        assert cut_value(g, [0] * 8).value == 0

    def test_c5_handpicked(self):
        side = [1, 0, 1, 0, 0]  # vertices {0, 2} on one side
        assert cut_value(cycle(5), side).value == 4

    def test_size_mismatch(self):
        with pytest.raises(LabelSizeMismatch):
            cut_value(cycle(5), [0, 1])

    @given(graphs())
    @settings(deadline=None, max_examples=40)
    def test_flip_preserves_value(self, g):
        side = [v % 2 for v in range(g.n)]
        cut = cut_value(g, side)
        assert cut.value <= g.m
        assert cut.flipped().value == cut.value
        assert cut_value(g, [1 - s for s in side]).value == cut.value


class TestEdwardsBound:
    def test_zero_edges(self):
        assert edwards_bound(0) == 0.0

    def test_ten_edges_is_six(self):
        assert edwards_bound(10) == pytest.approx(6.0)

    def test_three_edges_is_two(self):
        assert edwards_bound(3) == pytest.approx(2.0)
        assert brute_max_cut(complete(3)) == 2

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_tight_for_odd_complete_graphs(self, k):
        g = complete(k)
        assert brute_max_cut(g) == pytest.approx(edwards_bound(g.m))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            edwards_bound(-1)


class TestInducedSubgraph:
    def test_triangle_of_k4(self):
        sub, vmap = induced_subgraph(complete(4), {0, 1, 2})
        assert sub.n == 3 and sub.m == 3
        assert vmap.to_parent == (0, 1, 2)

    def test_empty_set(self):
        sub, _ = induced_subgraph(cycle(5), ())
        assert sub.n == 0 and sub.m == 0

    def test_c5_three_vertices_single_edge(self):
        sub, vmap = induced_subgraph(cycle(5), {0, 1, 3})
        assert sub.edges == ((0, 1),)
        assert vmap.to_sub == {0: 0, 1: 1, 3: 2}

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeVertex):
            induced_subgraph(cycle(5), {0, 7})

    def test_full_vertex_set_returns_the_graph_itself(self):
        g = petersen()
        sub, vmap = induced_subgraph(g, range(g.n))
        assert sub is g
        assert vmap.to_parent == tuple(range(g.n))

    def test_maps_are_inverse(self):
        sub, vmap = induced_subgraph(petersen(), {1, 3, 5, 8})
        for local, parent in enumerate(vmap.to_parent):
            assert vmap.to_sub[parent] == local
