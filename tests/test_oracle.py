import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from certcut._rng import make_rng
from certcut.embedding import (
    EpsilonPlan,
    back_neighbor_plan,
    build_vectors,
    default_eps,
    exact_expected_cut,
    hyperplane_round,
)
from certcut.errors import BudgetExceeded, InvalidParameter
from certcut.generators import complete, complete_bipartite, cycle, gnp, petersen, random_regular
from certcut.graphcore import Graph, block_rows, edwards_bound
from certcut.oracle import OracleBudget, max_cut_exact, max_t_cut_exact, monte_carlo_cut_mean
from conftest import graphs
from oracles import brute_max_cut, brute_max_t_cut, reference_max_cut_exact, reference_max_t_cut_exact


class TestMaxCutExact:
    def test_k5_matches_edwards(self):
        assert max_cut_exact(complete(5)).value == 6

    def test_c5(self):
        assert max_cut_exact(cycle(5)).value == 4

    def test_petersen(self):
        assert max_cut_exact(petersen()).value == 12

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matches_brute_force(self, seed):
        g = gnp(11, 0.4, seed)
        cut = max_cut_exact(g)
        assert cut.value == brute_max_cut(g)
        # the labeling actually achieves the claimed value
        assert sum(1 for u, v in g.edges if cut.side[u] != cut.side[v]) == cut.value

    def test_ties_break_to_lexicographically_smallest(self):
        assert max_cut_exact(complete(4)).side == (0, 0, 1, 1)
        assert max_cut_exact(Graph.from_edges(3, [])).side == (0, 0, 0)

    def test_vertex_budget(self):
        with pytest.raises(BudgetExceeded):
            max_cut_exact(gnp(30, 0.2, 0))

    def test_step_budget(self):
        with pytest.raises(BudgetExceeded):
            max_cut_exact(gnp(20, 0.3, 0), OracleBudget(max_vertices=22, max_steps=100))

    @pytest.mark.parametrize("name_m", [(3, 3), (5, 10), (7, 21)])
    def test_dominates_edwards(self, name_m):
        k, m = name_m
        g = complete(k)
        assert g.m == m
        assert max_cut_exact(g).value >= edwards_bound(m) - 1e-9


def _shifted(g: Graph) -> Graph:
    """g on vertices 1..n, so that vertex 0 is isolated."""
    return Graph.from_edges(g.n + 1, [(u + 1, v + 1) for u, v in g.edges])


class TestPrefixExtension:
    """max_cut_exact against the per-edge enumeration it replaced."""

    @given(graphs(max_n=14))
    @settings(deadline=None, max_examples=200)
    def test_matches_the_per_edge_enumeration(self, g):
        assert max_cut_exact(g) == reference_max_cut_exact(g)

    @pytest.mark.parametrize(
        "g",
        [
            gnp(18, 0.3, 1),
            gnp(20, 0.3, 2),
            gnp(22, 0.3, 3),
            complete(22),  # nearly every labeling ties
            random_regular(20, 3, 4),
            Graph.from_edges(22, []),
            _shifted(gnp(19, 0.3, 5)),
        ],
        ids=["gnp18", "gnp20", "gnp22", "k22", "regular20_3", "edgeless22", "isolated0"],
    )
    def test_full_size_cases(self, g):
        assert max_cut_exact(g) == reference_max_cut_exact(g)

    def test_peak_memory(self):
        # no full-length temporary per edge: the per-edge enumeration peaks at 42 MB here
        g = gnp(22, 0.3, 5)
        tracemalloc.start()
        try:
            max_cut_exact(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


class TestMaxTCutExact:
    def test_k4_all_parts(self):
        assert max_t_cut_exact(complete(4), 4).value == 6

    def test_k4_three_parts(self):
        assert max_t_cut_exact(complete(4), 3).value == 5
        assert brute_max_t_cut(complete(4), 3) == 5

    def test_c5_three_colorable(self):
        assert max_t_cut_exact(cycle(5), 3).value == 5

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_matches_brute_force(self, t, seed):
        g = gnp(7, 0.5, seed)
        part = max_t_cut_exact(g, t)
        assert part.value == brute_max_t_cut(g, t)
        assert sum(1 for u, v in g.edges if part.part[u] != part.part[v]) == part.value

    def test_two_cut_agrees_with_max_cut(self):
        g = gnp(9, 0.5, 4)
        assert max_t_cut_exact(g, 2).value == max_cut_exact(g).value

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            max_t_cut_exact(gnp(14, 0.3, 0), 3)

    def test_ties_break_to_lexicographically_smallest(self):
        assert max_t_cut_exact(Graph.from_edges(3, []), 3).part == (0, 0, 0)
        assert max_t_cut_exact(complete(2), 4).part == (0, 1)

    @pytest.mark.parametrize("t", [0, -1])
    def test_rejects_t_below_one(self, t):
        with pytest.raises(InvalidParameter):
            max_t_cut_exact(complete(3), t)
        with pytest.raises(ValueError):
            max_t_cut_exact(complete(3), t)


class TestTCutPrefixExtension:
    """max_t_cut_exact against the chunked per-edge enumeration it replaced."""

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_edge_enumeration(self, t, seed):
        rng = make_rng(seed + 900, t)
        for n in range(11):
            if t ** max(n - 2, 0) > 1 << 15:  # keep the reference quick
                break
            g = gnp(n, float(rng.random()), int(rng.integers(0, 2**31)))
            assert max_t_cut_exact(g, t) == reference_max_t_cut_exact(g, t)

    @pytest.mark.parametrize(
        "g, t",
        [
            (Graph.from_edges(10, []), 3),  # every labeling ties
            (complete(8), 4),
            (complete(6), 9),  # t above n - 1
            (Graph.from_edges(2, [(0, 1)]), 100_000),
            (Graph.from_edges(2, []), 100_000),
            (_shifted(gnp(8, 0.5, 6)), 3),
        ],
        ids=["edgeless10", "k8", "k6_t9", "k2_huge_t", "two_isolated_huge_t", "isolated0"],
    )
    def test_special_cases(self, g, t):
        assert max_t_cut_exact(g, t) == reference_max_t_cut_exact(g, t)

    @pytest.mark.parametrize(
        "g, t, budget",
        [
            (gnp(13, 0.3, 0), 2, None),
            (gnp(12, 0.5, 1), 7, None),
            (gnp(8, 0.5, 2), 3, OracleBudget(max_vertices=12, max_steps=100)),
        ],
        ids=["vertex_cap", "step_cap", "custom_steps"],
    )
    def test_budget_refusals_unchanged(self, g, t, budget):
        with pytest.raises(BudgetExceeded) as new:
            max_t_cut_exact(g, t, budget)
        with pytest.raises(BudgetExceeded) as old:
            reference_max_t_cut_exact(g, t, budget)
        assert str(new.value) == str(old.value)

    def test_peak_memory(self):
        # no int64 digit array per vertex: the chunked enumeration peaks near 50 MB here
        g = gnp(12, 0.5, 1)
        tracemalloc.start()
        try:
            max_t_cut_exact(g, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, peak


class TestMonteCarlo:
    def test_antipodal_pair_always_cut(self):
        g = Graph.from_edges(2, [(0, 1)])
        emb = build_vectors(g, EpsilonPlan.from_sets((frozenset({1}), frozenset({0})), (1.0, 1.0)))
        mean, stderr = monte_carlo_cut_mean(emb, 200, make_rng(0))
        assert mean == 1.0 and stderr == 0.0

    def test_orthogonal_single_edge_is_fair(self):
        g = Graph.from_edges(2, [(0, 1)])
        plan = EpsilonPlan.from_sets((frozenset(), frozenset()), (0.0, 0.0))
        emb = build_vectors(g, plan)
        mean, _ = monte_carlo_cut_mean(emb, 10_000, make_rng(1))
        assert 0.48 <= mean <= 0.52

    def test_k33_mean_matches_exact_expectation(self):
        g = complete_bipartite(3, 3)
        emb = build_vectors(g, back_neighbor_plan(g, 1.0 / 3**0.5))
        exact = exact_expected_cut(emb).expected_value
        mean, stderr = monte_carlo_cut_mean(emb, 10_000, make_rng(2))
        assert abs(mean - exact) <= 3 * max(stderr, 1e-9)

    @pytest.mark.parametrize("n", [1, 5, 33, 200])
    def test_blocks_draw_as_one_trial_at_a_time(self, n):
        g = gnp(n, 0.1, seed=n)
        emb = build_vectors(g, back_neighbor_plan(g, default_eps(g)))
        # several blocks where the graph is large enough, one partial block otherwise
        trials = min(2 * block_rows(g.n, len(emb.plan.owner), g.m) + 3, 1500)
        rng, ref = make_rng(31, n), make_rng(31, n)
        values = [hyperplane_round(emb, ref.standard_normal((1, n)))[1][0] for _ in range(trials)]
        mean, stderr = monte_carlo_cut_mean(emb, trials, rng)
        assert mean == float(np.mean(values))
        assert stderr == float(np.std(values, ddof=1) / math.sqrt(trials))
        # both consumed the same draws
        assert rng.random() == ref.random()

    def test_rejects_zero_trials(self):
        g = Graph.from_edges(2, [(0, 1)])
        emb = build_vectors(g, EpsilonPlan.from_sets((frozenset(), frozenset()), (0.0, 0.0)))
        with pytest.raises(ValueError):
            monte_carlo_cut_mean(emb, 0, make_rng(0))

    def test_zero_trials_is_an_invalid_parameter(self):
        g = Graph.from_edges(2, [(0, 1)])
        emb = build_vectors(g, EpsilonPlan.from_sets((frozenset(), frozenset()), (0.0, 0.0)))
        with pytest.raises(InvalidParameter):
            monte_carlo_cut_mean(emb, 0, make_rng(0))
