import dataclasses
import math
from typing import NamedTuple

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
    edge_counts,
    edge_inner,
    eps_cap,
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
from certcut.verify import random_plan
from oracles import (
    edge_inner_bound,
    plan_sets,
    reference_edge_terms,
    reference_inner,
    reference_plan_lower_bound,
    reference_random_plan,
    reference_vector,
)

TOL = 1e-9
ULP = 2.0**-52  # the largest gap allowed between two sums of the same terms


def k2_plan():
    # vertex 1 points at vertex 0 with full weight
    return EpsilonPlan.from_sets((frozenset(), frozenset({0})), (1.0, 1.0))


def antipodal_plan():
    # on K2, v_0 = (e_0 - e_1)/sqrt(2) and v_1 = -v_0
    return EpsilonPlan.from_sets((frozenset({1}), frozenset({0})), (1.0, 1.0))


def identity_plan(g):
    return EpsilonPlan.from_sets(tuple(frozenset() for _ in range(g.n)), (0.0,) * g.n)


class Pairs(NamedTuple):
    """Pair arrays handed to ``EpsilonPlan`` directly, not through ``from_sets``."""

    owner: list[int]
    cols: list[int]


def make_plan(sets, eps):
    """``EpsilonPlan`` from a ``Pairs`` row as given, or from a row of sets."""
    if isinstance(sets, Pairs):
        return EpsilonPlan(np.array(sets.owner, dtype=np.intp), np.array(sets.cols, dtype=np.intp),
                           np.array(eps, dtype=float))
    return EpsilonPlan.from_sets(tuple(map(frozenset, sets)), tuple(eps))


class TestEpsilonPlan:
    def test_rejects_epsilon_above_cap(self):
        g = complete(3)
        plan = EpsilonPlan.from_sets(
            (frozenset(), frozenset({0}), frozenset({0, 1})),
            (0.0, 1.0, 0.9),  # 0.9 > 1/sqrt(2)
        )
        with pytest.raises(InvalidEpsilon):
            build_vectors(g, plan)

    def test_rejects_non_neighbor_set(self):
        g = Graph.from_edges(3, [(0, 1)])
        plan = EpsilonPlan.from_sets((frozenset(), frozenset({2}), frozenset()), (0.0, 1.0, 0.0))
        with pytest.raises(InvalidEpsilon):
            build_vectors(g, plan)

    def test_rejects_negative_epsilon(self):
        g = complete(2)
        with pytest.raises(InvalidEpsilon):
            build_vectors(g, EpsilonPlan.from_sets((frozenset(), frozenset({0})), (0.0, -0.1)))

    @pytest.mark.parametrize(
        "g, sets, eps, message",
        [
            (complete(2), [set()], [0.0], "plan covers 1 of 2 vertices"),
            # from_sets refuses the length mismatch, naming both lengths
            (complete(2), [set(), set()], [0.0], "plan has 2 sets and 1 eps values"),
            (complete(2), [{0}, set()], [0.5, 0.0], "V_0 is not a subset of the neighbors of 0"),
            (Graph.from_edges(3, [(0, 1)]), [set(), {5}, set()], [0.0, 0.5, 0.0],
             "V_1 is not a subset of the neighbors of 1"),
            (Graph.from_edges(3, [(0, 1)]), [{-1}, set(), set()], [0.5, 0.0, 0.0],
             "V_0 is not a subset of the neighbors of 0"),
            (Graph.from_edges(3, [(0, 1)]), [set(), {2**70}, set()], [0.0, 0.5, 0.0],
             "V_1 is not a subset of the neighbors of 1"),
            # vertex 0 fails only the cap, vertex 1 only the subset check
            (Graph.from_edges(3, [(0, 1), (0, 2)]), [{1, 2}, {2}, set()], [0.9, 0.5, 0.0],
             "eps_0 = 0.9 exceeds 1/sqrt(|V_0|) = 0.7071067811865475"),
            # the subset check comes first within a vertex
            (complete(3), [set(), {0, 7}, set()], [0.0, -1.0, 0.0],
             "V_1 is not a subset of the neighbors of 1"),
            (complete(3), [set(), {0}, {0, 1}], [0.0, math.nan, -1.0], "eps_1 = nan is not finite"),
            (complete(3), [set(), {0}, set()], [0.0, -0.25, 2.0], "eps_1 = -0.25 is negative"),
            (complete(3), [set(), set(), set()], [0.0, 1.5, 0.0], "eps_1 = 1.5 exceeds 1/sqrt(|V_1|) = 1.0"),
            # malformed arrays, refused before any vertex is checked
            (complete(2), Pairs([], []), [0.0], "plan covers 1 of 2 vertices"),
            (complete(2), Pairs([2], [0]), [0.0, 0.5], "pair owner 2 outside [0, 2)"),
            (complete(2), Pairs([1, -1], [0, 1]), [0.0, 0.5], "pair owner -1 outside [0, 2)"),
            (complete(2), Pairs([1, 0], [0]), [0.5, 0.5], "plan has 2 owners but 1 members"),
            (complete(3), Pairs([2, 1, 2, 1], [1, 0, 0, 0]), [0.0, 0.5, 0.5], "V_1 lists 0 twice"),
            (complete(3), Pairs([2, 1, 2, 2], [7, 0, 0, 0]), [0.0, 0.5, 0.5],
             "V_2 is not a subset of the neighbors of 2"),
        ],
    )
    def test_first_bad_vertex_and_check_named(self, g, sets, eps, message):
        with pytest.raises(InvalidEpsilon) as err:
            make_plan(sets, eps).validate(g)
        assert str(err.value) == message

    def test_back_neighbor_plan_zeroes_empty_sets(self):
        g = cycle(5)
        plan = back_neighbor_plan(g, 0.5)
        first = degeneracy_order(g).order[0]
        assert plan.eps[first] == 0.0
        assert any(e == 0.5 for e in plan.eps)

    @pytest.mark.parametrize("seed", range(6))
    def test_back_neighbor_plan_has_one_pair_per_edge(self, seed):
        g = gnp(30, 0.1 + 0.1 * seed, seed)
        plan = back_neighbor_plan(g, eps_cap(g))
        pairs = sorted((min(i, j), max(i, j)) for i, j in zip(plan.owner.tolist(), plan.cols.tolist()))
        assert pairs == list(g.edges)
        pos = degeneracy_order(g).position
        assert bool(np.all(pos[plan.cols] < pos[plan.owner]))

    def test_back_neighbor_plan_epsilon_cap(self):
        with pytest.raises(EpsilonTooLarge):
            back_neighbor_plan(complete(5), 0.6)  # cap is 1/2
        with pytest.raises(EpsilonTooLarge):
            back_neighbor_plan(complete(5), 0.0)


def seeded_plans(seed):
    """Plans on one seeded G(n, p): random sets with random eps below each
    set's cap, the same sets with eps 0, and the back-neighbor plan at its cap."""
    rng = make_rng(seed, 31)
    g = gnp(int(rng.integers(2, 24)), float(rng.random()) * 0.6 + 0.1, seed)
    plan = random_plan(g, rng)
    plans = [plan, EpsilonPlan.from_sets(plan_sets(plan), (0.0,) * g.n)]
    if g.m:
        plans.append(back_neighbor_plan(g, 1 / math.sqrt(degeneracy_order(g).degeneracy)))
    return g, plans


class TestBuildVectors:
    def test_fields_are_graph_plan_and_pair_edge(self):
        assert [f.name for f in dataclasses.fields(Embedding)] == ["graph", "plan", "pair_edge"]

    @pytest.mark.parametrize("seed", range(12))
    def test_pair_edge_is_the_edge_of_each_pair(self, seed):
        g, plans = seeded_plans(seed)
        for plan in plans:
            emb = build_vectors(g, plan)
            assert len(emb.pair_edge) == len(plan.owner)
            for k, (i, j) in enumerate(zip(plan.owner.tolist(), plan.cols.tolist())):
                assert g.edges[emb.pair_edge[k]] == (min(i, j), max(i, j))

    @pytest.mark.parametrize("seed", range(12))
    def test_inner_matches_reference_vectors(self, seed):
        g, plans = seeded_plans(seed)
        for plan in plans:
            emb = build_vectors(g, plan)
            inner = inner_products(g, plan)
            terms = term_counts(g, plan)
            for k, (u, v) in enumerate(g.edges):
                want = reference_inner(reference_vector(emb, u), reference_vector(emb, v))
                assert_same_sum(inner[k], want, terms[k], (u, v))

    def test_k2_inner_product(self):
        g = complete(2)
        plan = k2_plan()
        emb = build_vectors(g, plan)
        assert reference_vector(emb, 1)[1] == pytest.approx(1 / math.sqrt(2))
        assert inner_products(g, plan) == [pytest.approx(-1 / math.sqrt(2))]

    def test_identity_embedding(self):
        g = gnp(8, 0.5, 0)
        plan = identity_plan(g)
        build_vectors(g, plan)
        assert inner_products(g, plan) == [0.0] * g.m

    def test_k3_prenorm_squared_norm_is_two(self):
        g = complete(3)
        plan = back_neighbor_plan(g, 1 / math.sqrt(2))
        emb = build_vectors(g, plan)
        heavy = next(v for v in range(3) if len(plan_sets(plan)[v]) == 2)
        assert reference_vector(emb, heavy)[heavy] ** -2 == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_norms_and_support(self, seed):
        g = gnp(12, 0.4, seed)
        plan = random_plan(g, make_rng(seed))
        emb = build_vectors(g, plan)
        for v in range(g.n):
            vec = reference_vector(emb, v)
            norm_sq = sum(x * x for x in vec.values())
            assert abs(norm_sq - 1.0) <= 1e-12
            assert set(vec) == {v} | set(plan_sets(plan)[v])
            assert 1.0 <= vec[v] ** -2 <= 2.0 + 1e-12


def inner_products(g, plan) -> list[float]:
    """<v_u, v_v> for every edge, as the certificate computes it."""
    return edge_inner(g, plan, edge_counts(build_vectors(g, plan))).tolist()


def term_counts(g, plan) -> list[int]:
    """Terms of each edge's inner product: [u in V_v] + [v in V_u] + |V_u ^ V_v|."""
    return [a + b + c for a, b, c in zip(*(x.tolist() for x in edge_counts(build_vectors(g, plan))))]


def assert_same_sum(got: float, want: float, terms: int, where) -> None:
    """``got`` and ``want`` add the same ``terms`` products in possibly
    different orders: with at most two there is one rounding, so they are
    equal bit for bit; with more they may differ in the last bit."""
    if terms <= 2:
        # repr tells 0.0 from -0.0, and round-trips every float
        assert repr(float(got)) == repr(float(want)), where
    else:
        assert abs(got - want) <= ULP, where


def random_plans(seed: int, count: int = 25):
    """``verify.random_plan`` plans on seeded G(n, p) graphs of 2 to 29 vertices."""
    rng = make_rng(seed, 32)
    for k in range(count):
        n = int(rng.integers(2, 30))
        g = gnp(n, float(rng.random()) * 0.8 + 0.1, seed * 1000 + k)
        yield g, random_plan(g, rng)


class TestRandomPlan:
    @pytest.mark.parametrize("seed", range(4))
    def test_draws_the_per_row_stream(self, seed):
        # V_i are compared as sets: the reference lists each owner's pairs in
        # frozenset order, random_plan in ascending id
        isolated = Graph.from_edges(9, [(1, 4), (1, 6), (2, 6), (4, 6)])
        graphs = [g for g, _ in random_plans(seed)] + [Graph.from_edges(6, []), isolated]
        for k, g in enumerate(graphs):
            rng, want_rng = make_rng(seed, 33, k), make_rng(seed, 33, k)
            got, want = random_plan(g, rng), reference_random_plan(g, want_rng)
            assert plan_sets(got) == plan_sets(want)
            assert got.eps.tobytes() == want.eps.tobytes()
            assert rng.random() == want_rng.random()


class TestEdgeCounts:
    @staticmethod
    def assert_counts(g, plan):
        u_in_v, v_in_u, common = edge_counts(build_vectors(g, plan))
        assert u_in_v.dtype == v_in_u.dtype == bool and len(common) == g.m
        got = list(zip(u_in_v.tolist(), v_in_u.tolist(), common.tolist()))
        sets = plan_sets(plan)
        want = [
            (u in sets[v], v in sets[u], len(sets[u] & sets[v]))
            for u, v in g.edges
        ]
        assert got == want

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_plans(self, seed):
        g, plans = seeded_plans(seed)
        for plan in plans:
            self.assert_counts(g, plan)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_plans(self, seed):
        for g, plan in random_plans(seed):
            self.assert_counts(g, plan)

    def test_edgeless_and_empty(self):
        for g in (Graph.from_edges(0, []), Graph.from_edges(5, [])):
            self.assert_counts(g, identity_plan(g))


class TestExactExpectedCut:
    def test_orthogonal_gives_half(self):
        g = gnp(9, 0.5, 1)
        emb = build_vectors(g, identity_plan(g))
        assert exact_expected_cut(emb).expected_value == pytest.approx(g.m / 2)

    def test_k2_three_quarters(self):
        g = complete(2)
        cert = exact_expected_cut(build_vectors(g, k2_plan()))
        assert cert.expected_value == pytest.approx(0.75)
        assert cert.per_edge_terms == (pytest.approx(0.75),)

    def test_antipodal_probability_one(self):
        g = complete(2)
        emb = build_vectors(g, antipodal_plan())
        assert exact_expected_cut(emb).expected_value == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_terms_match_reference_vectors(self, seed):
        g, plans = seeded_plans(seed)
        for plan in plans:
            emb = build_vectors(g, plan)
            got = exact_expected_cut(emb).per_edge_terms
            terms = term_counts(g, plan)
            for k, want in enumerate(reference_edge_terms(emb)):
                assert_same_sum(got[k], want, terms[k], k)

    def test_terms_sum_to_expected_value(self):
        g = gnp(10, 0.5, 2)
        cert = exact_expected_cut(build_vectors(g, random_plan(g, make_rng(5))))
        assert cert.expected_value == pytest.approx(math.fsum(cert.per_edge_terms))
        assert all(0.0 <= p <= 1.0 for p in cert.per_edge_terms)


class TestPlanLowerBound:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_set_intersection_reference(self, seed):
        g, plans = seeded_plans(seed)
        for plan in plans:
            assert repr(plan_lower_bound(g, plan)) == repr(reference_plan_lower_bound(g, plan))
            cert = exact_expected_cut(build_vectors(g, plan))
            assert repr(cert.bound_value) == repr(reference_plan_lower_bound(g, plan))

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
        cert = exact_expected_cut(build_vectors(g, plan))
        assert cert.expected_value >= expected - TOL


class TestInnerProductBound:
    @pytest.mark.parametrize("seed", range(6))
    def test_edges_respect_owner_paired_bound(self, seed):
        g = gnp(14, 0.4, seed)
        plan = random_plan(g, make_rng(seed + 50))
        build_vectors(g, plan)
        inner = inner_products(g, plan)
        for k, (u, v) in enumerate(g.edges):
            assert inner[k] <= edge_inner_bound(plan, u, v) + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_constant_epsilon_plans_match_symmetric_form(self, seed):
        # with one shared epsilon the owner-paired and literal forms coincide
        g = gnp(14, 0.45, seed + 20)
        order = degeneracy_order(g)
        if order.degeneracy == 0:
            pytest.skip("edgeless sample")
        eps = 1 / math.sqrt(order.degeneracy)
        plan = back_neighbor_plan(g, eps)
        inner = inner_products(g, plan)
        sets = plan_sets(plan)
        for k, (u, v) in enumerate(g.edges):
            literal = (
                -plan.eps[u] / 4 * (u in sets[v])
                - plan.eps[v] / 4 * (v in sets[u])
                + plan.eps[u] * plan.eps[v] * len(sets[u] & sets[v])
            )
            assert inner[k] <= literal + 1e-12

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
        cert = exact_expected_cut(build_vectors(g, plan))
        assert cert.expected_value >= plan_lower_bound(g, plan) - TOL
        assert cert.bound_value == pytest.approx(plan_lower_bound(g, plan))

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=50)
    def test_dominance_hypothesis_seeds(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(2, 16))
        g = gnp(n, 0.5, int(rng.integers(0, 2**62)))
        plan = random_plan(g, rng)
        cert = exact_expected_cut(build_vectors(g, plan))
        assert cert.expected_value >= plan_lower_bound(g, plan) - TOL


def directions(seed: int, count: int, n: int) -> np.ndarray:
    """Row k is the direction of stream (seed, k)."""
    return np.stack([make_rng(seed, k).standard_normal(n) for k in range(count)])


class TestHyperplaneRound:
    def test_orthogonal_k2_is_fair(self):
        g = complete(2)
        emb = build_vectors(g, identity_plan(g))
        _, vals = hyperplane_round(emb, directions(0, 10_000, g.n))
        assert abs(vals.mean() - 0.5) <= 0.02

    def test_antipodal_always_cut(self):
        g = complete(2)
        emb = build_vectors(g, antipodal_plan())
        _, vals = hyperplane_round(emb, directions(1, 50, g.n))
        assert (vals == 1).all()

    def test_k33_monte_carlo_within_four_root_m(self):
        g = complete_bipartite(3, 3)
        emb = build_vectors(g, back_neighbor_plan(g, 1 / math.sqrt(3)))
        exact = exact_expected_cut(emb).expected_value
        trials = 10_000
        _, vals = hyperplane_round(emb, directions(7, trials, g.n))
        assert abs(vals.mean() - exact) <= 4 * math.sqrt(g.m) / math.sqrt(trials)

    def test_deterministic_given_stream(self):
        g = petersen()
        emb = build_vectors(g, back_neighbor_plan(g, 0.5))
        first, _ = hyperplane_round(emb, make_rng(3).standard_normal((1, g.n)))
        again, _ = hyperplane_round(emb, make_rng(3).standard_normal((1, g.n)))
        assert np.array_equal(first, again)


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
        plan = EpsilonPlan.from_sets((frozenset(), frozenset({0})), (0.0, eps))
        with pytest.raises(InvalidEpsilon):
            plan.validate(complete(2))

    def test_sdp_cut_rejects_nan(self):
        with pytest.raises(EpsilonTooLarge):
            sdp_cut(petersen(), math.nan, 2, 0)
