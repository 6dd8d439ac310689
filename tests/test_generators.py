import bisect
import gc
import math
import tracemalloc

import pytest

from certcut import generators
from certcut.errors import (
    BudgetExceeded,
    InfeasibleDegree,
    InfeasibleSpec,
    InvalidParameter,
    VertexOutOfRange,
)
from certcut.generators import (
    GenSpec,
    blowup,
    complete,
    complete_bipartite,
    cycle,
    disjoint_cliques,
    family,
    gnp,
    make_cr_free,
    petersen,
    random_bipartite,
    random_regular,
    star,
    turan,
)
from certcut.graphcore import count_cliques, count_triangles
from oracles import (
    count_r_cycles,
    reference_gnp,
    reference_make_cr_free,
    reference_random_bipartite,
)


class TestRandomRegular:
    def test_unique_cubic_graph_on_four_vertices(self):
        for seed in (0, 1, 17):
            g = random_regular(4, 3, seed)
            assert g.edges == complete(4).edges

    def test_odd_total_degree_infeasible(self):
        with pytest.raises(InfeasibleDegree):
            random_regular(5, 3, 0)

    def test_degree_too_large_infeasible(self):
        with pytest.raises(InfeasibleDegree):
            random_regular(4, 4, 0)

    def test_output_is_simple_and_regular(self):
        g = random_regular(20, 3, seed=7)
        assert all(len(a) == 3 for a in g.rows())
        assert len(set(g.edges)) == g.m == 30

    def test_reproducible(self):
        assert random_regular(30, 4, seed=5).edges == random_regular(30, 4, seed=5).edges

    def test_zero_degree(self):
        assert random_regular(6, 0, 0).m == 0

    def test_negative_restart_budget_is_refused(self):
        with pytest.raises(InvalidParameter, match="max_restarts"):
            random_regular(10, 3, 0, max_restarts=-1)
        with pytest.raises(InfeasibleSpec, match="max_restarts"):
            family(GenSpec("regular", {"n": 10, "d": 3, "max_restarts": -1}))
        # a zero budget is still a budget
        with pytest.raises(BudgetExceeded):
            random_regular(10, 3, 0, max_restarts=0)


class TestGnp:
    def test_p_zero_edgeless(self):
        assert gnp(10, 0.0, 0).m == 0

    def test_p_one_complete(self):
        assert gnp(6, 1.0, 0).edges == complete(6).edges

    def test_edge_count_near_mean(self):
        # Binomial(4950, 0.1): mean 495, sigma ~ 21.1; stay within 5 sigma
        g = gnp(100, 0.1, seed=3)
        sigma = math.sqrt(4950 * 0.1 * 0.9)
        assert abs(g.m - 495) <= 5 * sigma

    def test_reproducible(self):
        assert gnp(40, 0.2, seed=9).edges == gnp(40, 0.2, seed=9).edges

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            gnp(5, 1.5, 0)


class TestChunkedPairDraws:
    """Chunked draws give the same graph as one draw over every pair."""

    @pytest.mark.parametrize("chunk", [1, 7, 37])
    def test_gnp_matches_reference(self, monkeypatch, chunk):
        monkeypatch.setattr(generators, "PAIR_CHUNK", chunk)
        for n in (0, 1, 2, 3, 5, 8, 13, 21, 34):
            for p in (0.0, 0.05, 0.3, 1.0):
                for seed in range(3):
                    assert gnp(n, p, seed).edges == reference_gnp(n, p, seed).edges, (n, p, seed)

    def test_gnp_matches_reference_across_many_chunks(self, monkeypatch):
        monkeypatch.setattr(generators, "PAIR_CHUNK", 37)
        assert gnp(300, 0.02, 5).edges == reference_gnp(300, 0.02, 5).edges
        monkeypatch.undo()
        assert gnp(1500, 0.003, 6).edges == reference_gnp(1500, 0.003, 6).edges

    @pytest.mark.parametrize("chunk", [1, 7, 37])
    def test_random_bipartite_matches_reference(self, monkeypatch, chunk):
        monkeypatch.setattr(generators, "PAIR_CHUNK", chunk)
        for a in (0, 1, 4, 9):
            for b in (0, 1, 6, 11):
                for p in (0.0, 0.3, 1.0):
                    seed = 16 * a + b
                    got = random_bipartite(a, b, p, seed)
                    assert got.edges == reference_random_bipartite(a, b, p, seed).edges, (a, b, p)
                    assert got.n == a + b

    @pytest.mark.parametrize("n", [-1, -3, -4])
    def test_negative_vertex_count_refused_as_before(self, n):
        # gnp refuses the size itself; the reference still reaches Graph.from_edges
        with pytest.raises(InvalidParameter, match="vertex count"):
            gnp(n, 0.5, 1)
        with pytest.raises(VertexOutOfRange, match="negative"):
            reference_gnp(n, 0.5, 1)

    def test_gnp_memory_is_not_quadratic(self):
        # 4.5 million pairs; as tuples they would take hundreds of MB
        tracemalloc.start()
        try:
            g = gnp(3000, 4 / 2999, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == 3000 and g.m > 0
        assert peak < 20 * 2**20, peak


def _cr_free_within(g, r, budget):
    try:
        make_cr_free(g, r, budget=budget)
    except BudgetExceeded:
        return False
    return True


class TestMakeCrFree:
    def test_c5_becomes_a_path(self):
        g = make_cr_free(cycle(5), 5)
        assert g.edges == ((0, 4), (1, 2), (2, 3), (3, 4))
        assert count_r_cycles(g, 5) == 0

    def test_k4_loses_one_edge_per_triangle_found(self):
        g = make_cr_free(complete(4), 3)
        assert count_triangles(g) == 0
        assert g.edges == ((0, 3), (1, 3), (2, 3))
        # never deletes more edges than there were r-cycles to destroy
        assert 6 - g.m <= count_r_cycles(complete(4), 3)

    def test_bipartite_untouched_for_odd_cycles(self):
        g = complete_bipartite(3, 4)
        assert make_cr_free(g, 3).edges == g.edges
        assert make_cr_free(g, 5).edges == g.edges

    @pytest.mark.parametrize("seed", range(4))
    def test_regular_graph_made_triangle_free(self, seed):
        g0 = random_regular(16, 3, seed)
        g = make_cr_free(g0, 3)
        assert count_triangles(g) == 0
        assert g0.m - g.m <= count_r_cycles(g0, 3)

    def test_cycle_search_leaves_no_reference_cycle(self):
        # a cycle would keep the adjacency sets alive until the next collection
        g0 = random_regular(16, 3, 0)
        gc.collect()
        gc.disable()
        try:
            make_cr_free(g0, 3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("seed", range(3))
    def test_five_cycles_destroyed(self, seed):
        g0 = random_regular(24, 3, seed)
        g = make_cr_free(g0, 5)
        assert count_r_cycles(g, 5) == 0
        assert g0.m - g.m <= count_r_cycles(g0, 5)

    def test_deterministic(self):
        g0 = gnp(12, 0.4, 3)
        assert make_cr_free(g0, 4).edges == make_cr_free(g0, 4).edges

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", range(6))
    def test_resumed_search_matches_rescan_from_zero(self, r, seed):
        for g0 in (gnp(14 + 3 * seed, 0.3, seed), random_regular(18, 3, seed)):
            g = make_cr_free(g0, r)
            assert g.edges == reference_make_cr_free(g0, r).edges
            assert count_r_cycles(g, r) == 0

    def test_triangle_path_matches_on_a_larger_sparse_graph(self):
        g0 = gnp(400, 8 / 399, 1)
        g = make_cr_free(g0, 3)
        assert g.edges == reference_make_cr_free(g0, 3).edges
        assert count_triangles(g) == 0 < count_triangles(g0)

    def test_tiny_budget_raises(self):
        with pytest.raises(BudgetExceeded):
            make_cr_free(complete(6), 3, budget=3)

    def test_budget_counts_only_resumed_steps(self):
        # the rescan from vertex 0 repeats the dead starts after every
        # deletion, so it needs more steps than the resumed search
        g0 = gnp(60, 0.2, 2)
        steps = 1 + bisect.bisect_left(range(1, 10**6), True, key=lambda b: _cr_free_within(g0, 3, b))
        with pytest.raises(BudgetExceeded):
            reference_make_cr_free(g0, 3, budget=steps)
        with pytest.raises(BudgetExceeded):
            make_cr_free(g0, 3, budget=steps - 1)

    def test_only_exact_length_cycles_die(self):
        # destroying 4-cycles in K4 must leave a triangle behind
        g = make_cr_free(complete(4), 4)
        assert g.edges == ((0, 3), (1, 2), (1, 3), (2, 3))
        assert count_r_cycles(g, 4) == 0
        assert count_triangles(g) == 1


class TestFamilies:
    def test_turan_two_classes_is_complete_bipartite(self):
        g = turan(6, 2)
        assert g.m == 9
        assert count_triangles(g) == 0

    def test_turan_three_classes_is_k4_free(self):
        g = turan(6, 3)
        assert g.m == 12
        assert count_cliques(g, 4) == 0
        assert count_cliques(g, 3) == 8

    def test_disjoint_cliques(self):
        g = disjoint_cliques(5, 3)
        assert g.m == 15
        assert count_triangles(g) == 5

    def test_blowup_of_cycle_is_triangle_free(self):
        g = blowup(cycle(5), 2)
        assert g.n == 10 and g.m == 20
        assert count_triangles(g) == 0

    def test_star_path_petersen_shapes(self):
        assert len(star(9).rows()[0]) == 9
        assert petersen().m == 15
        assert all(len(a) == 3 for a in petersen().rows())

    def test_random_bipartite_has_no_odd_cycles(self):
        g = random_bipartite(6, 7, 0.5, seed=2)
        assert count_triangles(g) == 0

    @pytest.mark.parametrize("a, b", [(-1, 3), (3, -1), (-2, -2)])
    def test_negative_part_sizes_are_refused(self, a, b):
        with pytest.raises(InvalidParameter, match="part sizes"):
            complete_bipartite(a, b)
        with pytest.raises(InvalidParameter, match="part sizes"):
            random_bipartite(a, b, 0.5, seed=0)
        with pytest.raises(InfeasibleSpec, match="part sizes"):
            family(GenSpec("bipartite", {"a": a, "b": b, "p": 0.5}))

    def test_empty_parts_are_allowed(self):
        assert complete_bipartite(0, 3).n == 3 and complete_bipartite(0, 3).m == 0
        assert random_bipartite(3, 0, 0.5, seed=0).m == 0


class TestFamilyDispatch:
    def test_matches_direct_calls(self):
        assert family(GenSpec("regular", {"n": 12, "d": 3}, seed=4)).edges == random_regular(12, 3, 4).edges
        assert family(GenSpec("gnp", {"n": 15, "p": 0.3}, seed=4)).edges == gnp(15, 0.3, 4).edges
        assert family(GenSpec("bipartite", {"a": 3, "b": 3})).edges == complete_bipartite(3, 3).edges
        assert family(GenSpec("turan", {"n": 9, "classes": 3})).edges == turan(9, 3).edges
        assert family(GenSpec("disjoint-cliques", {"count": 2, "size": 4})).edges == disjoint_cliques(2, 4).edges

    def test_unknown_model(self):
        with pytest.raises(InfeasibleSpec):
            family(GenSpec("hypercube", {"n": 8}))

    def test_missing_parameter(self):
        with pytest.raises(InfeasibleSpec):
            family(GenSpec("regular", {"n": 8}))

    def test_infeasible_parameters(self):
        with pytest.raises(InfeasibleSpec):
            family(GenSpec("turan", {"n": 5, "classes": 0}))

    def test_bipartite_p_above_one_is_refused(self):
        with pytest.raises(InfeasibleSpec, match="p must lie"):
            family(GenSpec("bipartite", {"a": 2, "b": 2, "p": 1.5}))

    def test_bipartite_at_p_one_keeps_every_pair(self):
        for a in range(0, 41, 5):
            for b in (0, 1, 7, 40):
                want = complete_bipartite(a, b).edges
                assert random_bipartite(a, b, 1.0, seed=a + b).edges == want
                assert family(GenSpec("bipartite", {"a": a, "b": b}, seed=3)).edges == want
