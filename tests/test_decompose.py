import math

import pytest

from certcut._rng import make_rng
from certcut.decompose import (
    SubSolver,
    combine_subcuts,
    composite_cut,
    epsilon_for_surplus_exponent,
    extend_cut,
    find_dense_subset,
    greedy_half_cut,
    kr_cut,
    partition_triangle_sparse,
    sampled_sdp_cut,
)
from certcut.embedding import CutCertificate, sdp_cut
from certcut.errors import (
    EpsilonTooLarge,
    NotACutOfInducedSubgraph,
    NotAPartition,
    NotEnoughTriangles,
    NotKrFree,
)
from certcut.generators import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_cliques,
    gnp,
    make_cr_free,
    petersen,
    random_regular,
    star,
)
from certcut.graphcore import (
    Cut,
    Graph,
    cut_value,
    degeneracy_order,
    induced_subgraph,
)
from certcut.oracle import max_cut_exact
from certcut.verify import decomposition_invariants
from oracles import brute_max_cut


def exact_subsolver():
    return SubSolver(lambda h: (max_cut_exact(h), CutCertificate(0.0)), "exact")


def sdp_subsolver(seed=0):
    return SubSolver(lambda h: sdp_cut(h, None, 8, seed), "sdp")


class TestFindDenseSubset:
    def test_k4_trace(self):
        g = complete(4)
        dense, witness = find_dense_subset(g, degeneracy_order(g), 2.0)
        assert dense == frozenset({2, 3}) and witness == 1
        sub, _ = induced_subgraph(g, dense)
        assert sub.m * 2.0 >= len(dense)
        assert dense <= g.adj_sets[witness]

    def test_triangle_free_raises(self):
        g = petersen()
        with pytest.raises(NotEnoughTriangles):
            find_dense_subset(g, degeneracy_order(g), 10.0)

    def test_two_disjoint_k4s_first_component_scanned(self):
        g = disjoint_cliques(2, 4)
        dense, witness = find_dense_subset(g, degeneracy_order(g), 2.0)
        assert dense == frozenset({6, 7}) and witness == 5


class TestPartitionTriangleSparse:
    def test_triangle_free_keeps_everything(self):
        decomp = partition_triangle_sparse(petersen(), 1.0)
        assert decomp.parts == () and decomp.remainder == frozenset(range(10))

    def test_k4_trace(self):
        decomp = partition_triangle_sparse(complete(4), 2.0)
        assert [sorted(p) for p in decomp.parts] == [[2, 3]]
        assert sorted(decomp.remainder) == [0, 1]
        assert decomp.witnesses == (1,)

    def test_k5_trace(self):
        decomp = partition_triangle_sparse(complete(5), 4.0)
        assert [sorted(p) for p in decomp.parts] == [[3, 4], [1, 2]]
        assert sorted(decomp.remainder) == [0]

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_invariants_on_random_graphs(self, eps, seed):
        rng = make_rng(seed + 40)
        n = int(rng.integers(10, 80))
        g = gnp(n, min(1.0, 6.0 / n), int(rng.integers(0, 2**62)))
        decomp = partition_triangle_sparse(g, eps)
        assert decomposition_invariants(g, decomp) is None

    def test_empty_graph(self):
        decomp = partition_triangle_sparse(Graph.from_edges(0, []), 1.0)
        assert decomp.parts == () and decomp.remainder == frozenset()


class TestCombineSubcuts:
    def test_single_block_is_identity(self):
        g = cycle(5)
        inner = cut_value(g, (0, 1, 0, 1, 0))
        cut, cert = combine_subcuts(g, [(frozenset(range(5)), inner)])
        assert cut.value == inner.value
        assert cert.expected_value == inner.value

    def test_disconnected_blocks_add_up(self):
        g = disjoint_cliques(2, 3)
        b0 = cut_value(*induced_subgraph(g, {0, 1, 2})[:1], (0, 0, 1))
        b1 = cut_value(*induced_subgraph(g, {3, 4, 5})[:1], (0, 1, 1))
        cut, cert = combine_subcuts(g, [({0, 1, 2}, b0), ({3, 4, 5}, b1)])
        assert cut.value == 4 and cert.expected_value == 4

    def test_c4_opposite_edges(self):
        g = cycle(4)
        left = cut_value(induced_subgraph(g, {0, 1})[0], (0, 1))
        right = cut_value(induced_subgraph(g, {2, 3})[0], (0, 1))
        cut, cert = combine_subcuts(g, [({0, 1}, left), ({2, 3}, right)])
        assert cert.expected_value == pytest.approx(3.0)
        assert cut.value == 4

    def test_rejects_overlap(self):
        g = cycle(4)
        c = cut_value(induced_subgraph(g, {0, 1})[0], (0, 1))
        with pytest.raises(NotAPartition):
            combine_subcuts(g, [({0, 1}, c), ({1, 2, 3}, cut_value(induced_subgraph(g, {1, 2, 3})[0], (0, 1, 0)))])

    def test_rejects_missing_vertices(self):
        g = cycle(4)
        c = cut_value(induced_subgraph(g, {0, 1})[0], (0, 1))
        with pytest.raises(NotAPartition):
            combine_subcuts(g, [({0, 1}, c)])

    @pytest.mark.parametrize("seed", range(5))
    def test_value_meets_certificate_exactly(self, seed):
        rng = make_rng(seed + 70)
        g = gnp(14, 0.4, int(rng.integers(0, 2**62)))
        verts = list(range(14))
        blocks = []
        start = 0
        while start < 14:
            size = int(rng.integers(1, 6))
            vs = verts[start : start + size]
            sub, _ = induced_subgraph(g, vs)
            side = [int(b) for b in rng.integers(0, 2, size=sub.n)]
            blocks.append((set(vs), cut_value(sub, side)))
            start += size
        cut, cert = combine_subcuts(g, blocks)
        assert cut.value >= cert.expected_value


class TestExtendCut:
    def test_whole_vertex_set_is_identity(self):
        g = cycle(5)
        inner = cut_value(g, (0, 1, 0, 1, 0))
        cut, cert = extend_cut(g, range(5), inner)
        assert cut.side == inner.side
        assert cert.expected_value == inner.value

    def test_star_from_two_leaves(self):
        g = star(4)
        empty_pair = cut_value(induced_subgraph(g, {1, 2})[0], (0, 0))
        cut, cert = extend_cut(g, {1, 2}, empty_pair)
        assert cert.expected_value == pytest.approx(2.0)
        assert cut.value == 4  # greedy places the hub opposite both leaves

    def test_c4_from_one_cut_edge(self):
        g = cycle(4)
        edge_cut = cut_value(induced_subgraph(g, {0, 1})[0], (0, 1))
        cut, cert = extend_cut(g, {0, 1}, edge_cut)
        assert cut.value == 4
        assert cert.expected_value == pytest.approx(2.5)

    def test_rejects_inconsistent_cut(self):
        g = cycle(4)
        with pytest.raises(NotACutOfInducedSubgraph):
            extend_cut(g, {0, 1}, Cut((0, 1), 5))
        with pytest.raises(NotACutOfInducedSubgraph):
            extend_cut(g, {0, 1}, Cut((0, 1, 0), 1))

    @pytest.mark.parametrize("seed", range(6))
    def test_surplus_transfer(self, seed):
        rng = make_rng(seed + 80)
        g = gnp(13, 0.35, int(rng.integers(0, 2**62)))
        vs = sorted(int(v) for v in rng.choice(13, size=6, replace=False))
        sub, _ = induced_subgraph(g, vs)
        side = [int(b) for b in rng.integers(0, 2, size=sub.n)]
        inner = cut_value(sub, side)
        cut, cert = extend_cut(g, vs, inner)
        assert cut.value >= cert.expected_value
        assert cut.value - g.m / 2 >= inner.value - sub.m / 2

    def test_greedy_half_cut_floor(self):
        for seed in range(5):
            g = gnp(20, 0.3, seed)
            cut, cert = greedy_half_cut(g)
            assert cert.expected_value == pytest.approx(g.m / 2)
            assert cut.value >= g.m / 2


class TestCompositeCut:
    def test_triangle_free_input_has_trivial_partition(self):
        g = petersen()
        eps = 1 / math.sqrt(3)
        cut, cert = composite_cut(g, eps, sdp_subsolver(), repeats=16, seed=0)
        assert cut.value >= g.m / 2
        assert cert.expected_value >= g.m / 2

    def test_k4_with_exact_subsolver_is_optimal(self):
        cut, cert = composite_cut(complete(4), 0.25, exact_subsolver(), repeats=8, seed=0)
        assert cut.value == 4
        assert cert.expected_value == pytest.approx(4.0)

    def test_k4_with_pendant_path(self):
        edges = list(complete(4).edges) + [(v, v + 1) for v in range(3, 13)]
        g = Graph.from_edges(14, edges)
        cut, _ = composite_cut(g, 0.25, exact_subsolver(), repeats=8, seed=0)
        assert cut.value >= 14
        assert brute_max_cut(g) == 14

    def test_epsilon_cap(self):
        with pytest.raises(EpsilonTooLarge):
            composite_cut(complete(5), 0.9, exact_subsolver())

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon(self, eps):
        with pytest.raises(EpsilonTooLarge):
            composite_cut(complete(5), eps, exact_subsolver())
        # no edges: the cap is infinite, so only the finiteness check applies
        with pytest.raises(EpsilonTooLarge):
            composite_cut(Graph.from_edges(4, []), eps, exact_subsolver())

    @pytest.mark.parametrize("seed", range(6))
    def test_half_floor_and_oracle_consistency(self, seed):
        rng = make_rng(seed + 60)
        n = int(rng.integers(6, 15))
        g = gnp(n, 0.45, int(rng.integers(0, 2**62)))
        d = degeneracy_order(g).degeneracy
        eps = 0.5 / math.sqrt(d) if d else 0.5
        cut, cert = composite_cut(g, eps, sdp_subsolver(), repeats=8, seed=seed)
        best = max_cut_exact(g).value
        assert g.m / 2 <= cut.value <= best
        assert g.m / 2 <= cert.expected_value <= best + 1e-9


class TestKrCut:
    def test_triangle_free_r3_reduces_to_rounding(self):
        g = make_cr_free(random_regular(18, 3, 5), 3)
        cut, cert = kr_cut(g, 3, repeats=16, seed=0)
        assert cut.value >= g.m / 2
        assert cert.expected_value >= g.m / 2
        d = degeneracy_order(g).degeneracy
        assert cert.bound_value == pytest.approx((0.5 + (1 / 388) * d**-0.5) * g.m)

    def test_twenty_disjoint_triangles(self):
        g = disjoint_cliques(20, 3)
        cut, cert = kr_cut(g, 4, repeats=8, seed=0)
        assert cut.value == 40
        assert cert.expected_value >= g.m / 2

    def test_c5_reaches_optimum(self):
        cut, _ = kr_cut(cycle(5), 3, repeats=32, seed=0)
        assert cut.value >= 4

    def test_rejects_graph_with_clique(self):
        with pytest.raises(NotKrFree) as err:
            kr_cut(complete(4), 3)
        assert len(err.value.witness) == 3

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            kr_cut(cycle(5), 2)

    def test_edgeless(self):
        cut, cert = kr_cut(Graph.from_edges(3, []), 3)
        assert cut.value == 0 and cert.expected_value == 0.0

    @pytest.mark.parametrize("r", [3, 4])
    def test_certificate_floor_on_clique_free_randoms(self, r):
        for seed in range(4):
            g = gnp(16, 0.3, seed + 10)
            g = make_cr_free(g, 3) if r == 3 else g
            from certcut.graphcore import is_kr_free

            if not is_kr_free(g, r):
                continue
            cut, cert = kr_cut(g, r, repeats=8, seed=seed)
            assert cert.expected_value >= g.m / 2
            assert cut.value <= max_cut_exact(g).value


class TestSampledSdpCut:
    def test_full_sample_matches_plain_certificate(self):
        g = complete_bipartite(3, 3)
        _, full = sdp_cut(g)
        _, cert = sampled_sdp_cut(g, p=1.0, rng=make_rng(1), repeats=3)
        assert cert.expected_value == pytest.approx(full.expected_value)

    def test_vanishing_sample_gives_half_certificate(self):
        g = complete_bipartite(3, 3)
        cut, cert = sampled_sdp_cut(g, p=1e-12, rng=make_rng(2), repeats=3)
        assert cert.expected_value == pytest.approx(g.m / 2)
        assert cut.value >= g.m / 2

    def test_k33_two_hundred_repeats(self):
        g = complete_bipartite(3, 3)
        cut, _ = sampled_sdp_cut(g, p=0.5, rng=make_rng(0), repeats=200)
        assert cut.value >= 7

    def test_default_probability_reference_floor(self):
        g = gnp(20, 0.2, 3)
        cut, cert = sampled_sdp_cut(g, rng=make_rng(5), repeats=4)
        assert cert.bound_value == g.m / 2
        assert cut.value >= g.m / 2

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            sampled_sdp_cut(cycle(4), p=0.0)


@pytest.mark.parametrize("eps", [math.nan, 0.0, 0.9])
@pytest.mark.parametrize("solve", [
    lambda g, eps: composite_cut(g, eps, exact_subsolver()),
    lambda g, eps: sampled_sdp_cut(g, p=1.0, eps=eps, rng=make_rng(0), repeats=1),
], ids=["composite", "sampled"])
def test_constant_epsilon_is_checked_up_front(solve, eps):
    # complete(5) has degeneracy 4, so the cap is 1/2
    with pytest.raises(EpsilonTooLarge):
        solve(complete(5), eps)


class TestEpsilonHelper:
    def test_known_exponents(self):
        assert epsilon_for_surplus_exponent(1.0, 1.0, 16) == pytest.approx(0.25)
        assert epsilon_for_surplus_exponent(0.8, 1.0, 8) == pytest.approx(8 ** (-2 / 3))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            epsilon_for_surplus_exponent(0.3, 1.0, 4)
        with pytest.raises(ValueError):
            epsilon_for_surplus_exponent(0.8, 1.0, 0)
