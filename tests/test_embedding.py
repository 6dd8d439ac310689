import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcut._rng import make_rng
from certcut.embedding import (
    Embedding,
    EpsilonPlan,
    back_neighbor_plan,
    build_vectors,
    edge_inner_bound,
    exact_expected_cut,
    hyperplane_round,
    plan_lower_bound,
    sdp_cut,
)
from certcut.errors import EpsilonTooLarge, InvalidEpsilon
from certcut.generators import (
    complete,
    complete_bipartite,
    cycle,
    gnp,
    make_cr_free,
    petersen,
    random_bipartite,
    random_regular,
)
from certcut.graphcore import Graph, count_triangles, degeneracy_order

TOL = 1e-9


def k2_plan():
    # vertex 1 points at vertex 0 with full weight
    return EpsilonPlan((frozenset(), frozenset({0})), (1.0, 1.0))


def identity_plan(g):
    return EpsilonPlan(tuple(frozenset() for _ in range(g.n)), (0.0,) * g.n)


def random_plan(g, rng):
    sets, eps = [], []
    for v in range(g.n):
        chosen = frozenset(w for w in g.adjacency[v] if rng.random() < 0.5)
        cap = 1.0 / math.sqrt(len(chosen)) if chosen else 1.0
        sets.append(chosen)
        eps.append(float(rng.random()) * cap)
    return EpsilonPlan(tuple(sets), tuple(eps))


class TestEpsilonPlan:
    def test_rejects_epsilon_above_cap(self):
        g = complete(3)
        plan = EpsilonPlan(
            (frozenset(), frozenset({0}), frozenset({0, 1})),
            (0.0, 1.0, 0.9),  # 0.9 > 1/sqrt(2)
        )
        with pytest.raises(InvalidEpsilon):
            build_vectors(g, plan)

    def test_rejects_non_neighbor_set(self):
        g = Graph.from_edges(3, [(0, 1)])
        plan = EpsilonPlan((frozenset(), frozenset({2}), frozenset()), (0.0, 1.0, 0.0))
        with pytest.raises(InvalidEpsilon):
            build_vectors(g, plan)

    def test_rejects_negative_epsilon(self):
        g = complete(2)
        with pytest.raises(InvalidEpsilon):
            build_vectors(g, EpsilonPlan((frozenset(), frozenset({0})), (0.0, -0.1)))

    def test_back_neighbor_plan_zeroes_empty_sets(self):
        g = cycle(5)
        plan = back_neighbor_plan(g, 0.5)
        first = degeneracy_order(g).order[0]
        assert plan.eps[first] == 0.0
        assert any(e == 0.5 for e in plan.eps)

    def test_back_neighbor_plan_epsilon_cap(self):
        with pytest.raises(EpsilonTooLarge):
            back_neighbor_plan(complete(5), 0.6)  # cap is 1/2
        with pytest.raises(EpsilonTooLarge):
            back_neighbor_plan(complete(5), 0.0)


class TestBuildVectors:
    def test_k2_inner_product(self):
        g = complete(2)
        emb = build_vectors(g, k2_plan())
        assert emb.norms[1] == pytest.approx(math.sqrt(2))
        assert emb.inner(0, 1) == pytest.approx(-1 / math.sqrt(2))

    def test_identity_embedding(self):
        g = gnp(8, 0.5, 0)
        emb = build_vectors(g, identity_plan(g))
        for u, v in g.edges:
            assert emb.inner(u, v) == 0.0

    def test_k3_prenorm_squared_norm_is_two(self):
        g = complete(3)
        plan = back_neighbor_plan(g, 1 / math.sqrt(2))
        emb = build_vectors(g, plan)
        heavy = next(v for v in range(3) if len(plan.sets[v]) == 2)
        assert emb.norms[heavy] ** 2 == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_norms_and_support(self, seed):
        g = gnp(12, 0.4, seed)
        plan = random_plan(g, make_rng(seed))
        emb = build_vectors(g, plan)
        for v in range(g.n):
            norm_sq = sum(x * x for x in emb.vecs[v].values())
            assert abs(norm_sq - 1.0) <= 1e-12
            assert set(emb.vecs[v]) == {v} | set(plan.sets[v])
            assert 1.0 <= emb.norms[v] ** 2 <= 2.0 + 1e-12


class TestExactExpectedCut:
    def test_orthogonal_gives_half(self):
        g = gnp(9, 0.5, 1)
        emb = build_vectors(g, identity_plan(g))
        assert exact_expected_cut(g, emb).expected_value == pytest.approx(g.m / 2)

    def test_k2_three_quarters(self):
        g = complete(2)
        cert = exact_expected_cut(g, build_vectors(g, k2_plan()))
        assert cert.expected_value == pytest.approx(0.75)
        assert cert.per_edge_terms == (pytest.approx(0.75),)

    def test_antipodal_probability_one(self):
        g = complete(2)
        emb = Embedding(g, identity_plan(g), ({0: 1.0}, {0: -1.0}), (1.0, 1.0))
        assert exact_expected_cut(g, emb).expected_value == pytest.approx(1.0)

    def test_terms_sum_to_expected_value(self):
        g = gnp(10, 0.5, 2)
        cert = exact_expected_cut(g, build_vectors(g, random_plan(g, make_rng(5))))
        assert cert.expected_value == pytest.approx(math.fsum(cert.per_edge_terms))
        assert all(0.0 <= p <= 1.0 for p in cert.per_edge_terms)


class TestPlanLowerBound:
    def test_zero_epsilon_gives_half(self):
        g = gnp(10, 0.4, 3)
        assert plan_lower_bound(g, identity_plan(g)) == pytest.approx(g.m / 2)

    def test_k33_back_neighbor_value(self):
        g = complete_bipartite(3, 3)
        plan = back_neighbor_plan(g, 1 / math.sqrt(3))
        expected = 4.5 + 9 / (4 * math.pi * math.sqrt(3))
        assert plan_lower_bound(g, plan) == pytest.approx(expected)

    def test_k3_direct_evaluation(self):
        g = complete(3)
        plan = back_neighbor_plan(g, 1 / math.sqrt(2))
        expected = 1.5 + 3 / (math.sqrt(2) * 4 * math.pi) - 0.25
        assert plan_lower_bound(g, plan) == pytest.approx(expected)
        cert = exact_expected_cut(g, build_vectors(g, plan))
        assert cert.expected_value >= expected - TOL


class TestInnerProductBound:
    @pytest.mark.parametrize("seed", range(6))
    def test_edges_respect_owner_paired_bound(self, seed):
        g = gnp(14, 0.4, seed)
        plan = random_plan(g, make_rng(seed + 50))
        emb = build_vectors(g, plan)
        for u, v in g.edges:
            assert emb.inner(u, v) <= edge_inner_bound(plan, u, v) + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_constant_epsilon_plans_match_symmetric_form(self, seed):
        # with one shared epsilon the owner-paired and literal forms coincide
        g = gnp(14, 0.45, seed + 20)
        order = degeneracy_order(g)
        if order.degeneracy == 0:
            pytest.skip("edgeless sample")
        eps = 1 / math.sqrt(order.degeneracy)
        plan = back_neighbor_plan(g, eps)
        emb = build_vectors(g, plan)
        for u, v in g.edges:
            literal = (
                -plan.eps[u] / 4 * (u in plan.sets[v])
                - plan.eps[v] / 4 * (v in plan.sets[u])
                + plan.eps[u] * plan.eps[v] * len(plan.sets[u] & plan.sets[v])
            )
            assert emb.inner(u, v) <= literal + 1e-12

    def test_arcsine_scalar_inequality_on_grid(self):
        # asin(a - b) <= (pi/2) a - b for a, b in [0, 1]
        grid = np.linspace(0.0, 1.0, 401)
        a, b = np.meshgrid(grid, grid)
        lhs = np.arcsin(a - b)
        rhs = math.pi / 2 * a - b
        assert np.all(lhs <= rhs + 1e-12)


class TestDominance:
    @pytest.mark.parametrize("seed", range(25))
    def test_exact_expectation_dominates_plan_bound(self, seed):
        rng = make_rng(seed + 900)
        n = int(rng.integers(2, 40))
        g = gnp(n, min(1.0, 4.0 / n), int(rng.integers(0, 2**62)))
        plan = random_plan(g, rng)
        cert = exact_expected_cut(g, build_vectors(g, plan))
        assert cert.expected_value >= plan_lower_bound(g, plan) - TOL
        assert cert.bound_value == pytest.approx(plan_lower_bound(g, plan))

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=50)
    def test_dominance_hypothesis_seeds(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(2, 16))
        g = gnp(n, 0.5, int(rng.integers(0, 2**62)))
        plan = random_plan(g, rng)
        cert = exact_expected_cut(g, build_vectors(g, plan))
        assert cert.expected_value >= plan_lower_bound(g, plan) - TOL


class TestHyperplaneRound:
    def test_orthogonal_k2_is_fair(self):
        g = complete(2)
        emb = build_vectors(g, identity_plan(g))
        vals = [hyperplane_round(emb, make_rng(0, k)).value for k in range(10_000)]
        assert abs(sum(vals) / len(vals) - 0.5) <= 0.02

    def test_antipodal_always_cut(self):
        g = complete(2)
        emb = Embedding(g, identity_plan(g), ({0: 1.0}, {0: -1.0}), (1.0, 1.0))
        assert all(hyperplane_round(emb, make_rng(1, k)).value == 1 for k in range(50))

    def test_k33_monte_carlo_within_four_root_m(self):
        g = complete_bipartite(3, 3)
        emb = build_vectors(g, back_neighbor_plan(g, 1 / math.sqrt(3)))
        exact = exact_expected_cut(g, emb).expected_value
        trials = 10_000
        mean = sum(hyperplane_round(emb, make_rng(7, k)).value for k in range(trials)) / trials
        assert abs(mean - exact) <= 4 * math.sqrt(g.m) / math.sqrt(trials)

    def test_deterministic_given_stream(self):
        g = petersen()
        emb = build_vectors(g, back_neighbor_plan(g, 0.5))
        assert hyperplane_round(emb, make_rng(3)).side == hyperplane_round(emb, make_rng(3)).side


class TestSdpCut:
    def test_triangle_free_certificate_formula(self):
        for g in (petersen(), random_bipartite(5, 6, 0.6, 1), make_cr_free(random_regular(20, 3, 2), 3)):
            assert count_triangles(g) == 0
            d = degeneracy_order(g).degeneracy
            eps = 1 / math.sqrt(d)
            _, cert = sdp_cut(g, eps, repeats=4, seed=0)
            floor = g.m / 2 + eps * g.m / (4 * math.pi)
            assert cert.bound_value == pytest.approx(floor)
            assert cert.expected_value >= floor - TOL

    def test_single_edge_best_cut_is_one(self):
        cut, cert = sdp_cut(complete(2), repeats=32, seed=0)
        assert cut.value == 1
        assert cert.expected_value == pytest.approx(0.75)

    def test_petersen_value_and_certificate(self):
        cut, cert = sdp_cut(petersen(), 1 / math.sqrt(3), repeats=64, seed=0)
        assert cut.value >= 8
        assert cert.expected_value >= 7.5 + 15 / (4 * math.pi * math.sqrt(3)) - TOL

    def test_epsilon_too_large(self):
        with pytest.raises(EpsilonTooLarge):
            sdp_cut(complete(5), eps=0.9)

    def test_default_epsilon_is_degeneracy_cap(self):
        g = cycle(6)
        _, cert = sdp_cut(g, repeats=1, seed=0)
        eps = 1 / math.sqrt(2)
        assert cert.bound_value == pytest.approx(g.m / 2 + eps * g.m / (4 * math.pi))

    def test_edgeless_graph(self):
        g = Graph.from_edges(4, [])
        cut, cert = sdp_cut(g, repeats=2, seed=0)
        assert cut.value == 0 and cert.expected_value == 0.0

    def test_zero_repeats_still_rounds_once(self):
        cut, cert = sdp_cut(complete(2), repeats=0, seed=0)
        assert cut.value in (0, 1)
        assert cert.expected_value == pytest.approx(0.75)

    def test_deterministic_given_seed(self):
        g = gnp(15, 0.3, 8)
        a = sdp_cut(g, repeats=8, seed=5)
        b = sdp_cut(g, repeats=8, seed=5)
        assert a[0] == b[0] and a[1].expected_value == b[1].expected_value

    @pytest.mark.parametrize("seed", range(8))
    def test_triangle_sparse_sixty_constant(self, seed):
        # certificate reaches (1/2 + eps/60) m once triangles <= m/(8 eps)
        rng = make_rng(seed + 300)
        while True:
            n = int(rng.integers(8, 40))
            g = gnp(n, 2.5 / n, int(rng.integers(0, 2**62)))
            d = degeneracy_order(g).degeneracy
            if d == 0:
                continue
            eps = 1 / math.sqrt(d)
            if count_triangles(g) * 8 * eps <= g.m:
                break
        _, cert = sdp_cut(g, eps, repeats=1, seed=0)
        assert cert.expected_value >= (0.5 + eps / 60) * g.m - TOL


class TestNonFiniteEpsilon:
    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_back_neighbor_plan_rejects(self, eps):
        with pytest.raises(EpsilonTooLarge):
            back_neighbor_plan(petersen(), eps)
        with pytest.raises(EpsilonTooLarge):
            back_neighbor_plan(Graph.from_edges(3, []), eps)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_plan_validate_rejects(self, eps):
        plan = EpsilonPlan((frozenset(), frozenset({0})), (0.0, eps))
        with pytest.raises(InvalidEpsilon):
            plan.validate(complete(2))

    def test_sdp_cut_rejects_nan(self):
        with pytest.raises(EpsilonTooLarge):
            sdp_cut(petersen(), math.nan, 2, 0)
