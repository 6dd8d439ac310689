import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcut.errors import (
    BudgetExceeded,
    DuplicateEdge,
    LabelSizeMismatch,
    OutOfRangeVertex,
    ParseError,
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
    peel,
)
from conftest import graphs
from oracles import (
    back_sets,
    brute_cliques,
    brute_degeneracy,
    brute_max_cut,
    brute_triangles,
    reference_degeneracy_order,
    reference_from_edges,
)


@st.composite
def pair_lists(draw):
    """(n, pairs): distinct in-range pairs, flipped at random, mixed with
    repeats in either orientation, self-loops and ids that are negative, too
    large or beyond int64."""
    n = draw(st.integers(-1, 8))
    good = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = draw(st.lists(st.sampled_from(good), unique=True)) if good else []
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in pairs]
    if draw(st.booleans()):  # else a valid list
        if pairs:
            pairs += draw(st.lists(st.sampled_from(pairs).map(lambda e: e[::-1]), max_size=2))
        ids = st.integers(-2, n + 2) | st.sampled_from([2**63, -(2**64), 10**30])
        pairs += draw(st.lists(st.tuples(ids, ids), max_size=3))
        pairs += draw(st.lists(st.integers(0, max(n - 1, 0)).map(lambda v: (v, v)), max_size=1))
    return n, draw(st.permutations(pairs))


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

    def test_refusals_leave_no_reference_cycle(self):
        # a refused pair list is freed as soon as its error is dropped; a cycle
        # would wait for the collector, and random_regular's restarts pile up
        gc.collect()
        gc.disable()
        try:
            for n, edges in ((2, [(0, 0)]), (3, np.array([[0, 1], [1, 0]])), (2, [(0, 2)])):
                try:
                    Graph.from_edges(n, edges)
                except ParseError:
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    @given(pair_lists())
    @settings(deadline=None, max_examples=300)
    def test_matches_the_pair_loop(self, case):
        # same error class and message for the first bad pair, else same edges and rows
        n, pairs = case
        inputs = [pairs]
        if all(abs(x) < 2**62 for e in pairs for x in e):
            inputs.append(np.array(pairs, dtype=np.int64).reshape(-1, 2))
        for edges in inputs:
            try:
                want = reference_from_edges(n, pairs)
            except ParseError as err:
                with pytest.raises(ParseError) as got:
                    Graph.from_edges(n, edges)
                assert type(got.value) is type(err) and str(got.value) == str(err)
                if n >= 0:  # ``index`` is the first bad pair: every pair before it is good
                    reference_from_edges(n, pairs[: got.value.index])
                    with pytest.raises(type(err)):
                        reference_from_edges(n, pairs[: got.value.index + 1])
                continue
            g = Graph.from_edges(n, edges)
            assert g.edges == want[0]
            assert g.rows() == [list(row) for row in want[1]]

    def test_edges_normalized_sorted(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0)])
        assert g.edges == ((0, 2), (1, 3))
        assert g.rows() == [[2], [3], [0], [1]]


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
        assert back_sets(g, order)[2] == frozenset()
        assert back_sets(g, order)[3] == frozenset()

    def test_graph_caches_its_order_and_triangles(self):
        g = gnp(30, 0.3, 4)
        assert g.degeneracy_order is g.degeneracy_order
        assert g.degeneracy_order == degeneracy_order(g)
        assert g.triangles == count_triangles(g)

    def test_canonical_k4_order(self):
        order = degeneracy_order(complete(4))
        assert order.order == (3, 2, 1, 0)
        assert back_sets(complete(4), order)[0] == frozenset({1, 2, 3})

    @given(graphs())
    @settings(deadline=None, max_examples=60)
    def test_matches_brute_force_and_sums_to_m(self, g):
        order = degeneracy_order(g)
        back = back_sets(g, order)
        assert sorted(order.order) == list(range(g.n))
        assert sum(len(back[v]) for v in range(g.n)) == g.m
        assert order.degeneracy == max(
            (len(back[v]) for v in range(g.n)), default=0
        )
        assert order.degeneracy == brute_degeneracy(g)

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_back_pairs_give_the_reference_back_sets(self, data):
        # on every vertex and on a random vertex subset, mapped up from the
        # reference peel of the induced subgraph
        g = data.draw(graphs())
        some = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=bool)
        for alive in (np.ones(g.n, dtype=bool), some):
            sub, vmap = induced_subgraph(g, np.flatnonzero(alive).tolist())
            want = reference_degeneracy_order(sub)
            up = vmap.to_parent
            back = [frozenset()] * g.n
            for i, b in enumerate(want.back_neighbors):
                back[up[i]] = frozenset(up[w] for w in b)
            got = peel(g, alive)
            assert got.order == tuple(up[v] for v in want.order)
            assert back_sets(g, got) == tuple(back)


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
        adj = g.rows()
        back = tuple(
            frozenset(w for w in adj[v] if pos[w] < pos[v]) for v in range(12)
        )
        order = DegeneracyOrder(12, perm, max(len(b) for b in back))
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
        assert find_clique(complete(4), 3) == (0, 1, 2)
        assert find_clique(complete(4), 4) == (0, 1, 2, 3)

    @pytest.mark.parametrize("r", [3, 9])  # found, and not found
    def test_find_clique_leaves_no_reference_cycle(self, r):
        # a cycle would keep the search's sets alive until the next collection
        gc.collect()
        gc.disable()
        try:
            find_clique(gnp(30, 0.3, 1), r)
            assert gc.collect() == 0
        finally:
            gc.enable()


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
        assert vmap.to_parent == (0, 1, 3)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeVertex):
            induced_subgraph(cycle(5), {0, 7})

    def test_full_vertex_set_returns_the_graph_itself(self):
        g = petersen()
        sub, vmap = induced_subgraph(g, range(g.n))
        assert sub is g
        assert vmap.to_parent == tuple(range(g.n))

    def test_maps_are_inverse(self):
        # local edges map onto exactly the parent edges inside the set
        g = petersen()
        sub, vmap = induced_subgraph(g, {1, 3, 5, 8})
        up = vmap.to_parent
        assert up == (1, 3, 5, 8)
        inside = {(u, v) for u, v in g.edges if u in up and v in up}
        assert {(up[a], up[b]) for a, b in sub.edges} == inside
