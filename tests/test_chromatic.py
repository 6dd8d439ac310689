import math

import numpy as np
import pytest

from certcut import chromatic
from certcut._rng import make_rng
from certcut.chromatic import (
    Coloring,
    coloring_class_bound,
    coloring_cut,
    kr_free_coloring,
    max_t_cut,
    ramsey_independent_set,
    t_cut_expected_value,
)
from certcut.errors import CliqueFound, ImproperColoring, NotACutOfInducedSubgraph, TooFewVertices
from certcut.generators import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_cliques,
    gnp,
    make_cr_free,
    path,
    petersen,
    random_bipartite,
    random_regular,
    star,
    turan,
)
from certcut.graphcore import Cut, Graph, cut_value, find_clique
from certcut.verify import tcut_expectation_oracle
from oracles import brute_independence_number, reference_coloring_cut, reference_ramsey, rows

TOL = 1e-9


def assert_independent(g, vertices):
    vs = sorted(vertices)
    adj = rows(g)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            assert v not in adj[u]


def assert_proper(g, col):
    for u, v in g.edges:
        assert col.color[u] != col.color[v]


class TestRamseyIndependentSet:
    def test_edgeless_returns_everything(self):
        g = Graph.from_edges(6, [])
        assert ramsey_independent_set(g, 2, 6) == frozenset(range(6))

    def test_c5_pair(self):
        got = ramsey_independent_set(cycle(5), 3, 2)
        assert len(got) >= 2
        assert_independent(cycle(5), got)

    def test_petersen_triple(self):
        g = petersen()
        assert brute_independence_number(g) == 4
        got = ramsey_independent_set(g, 3, 3)
        assert len(got) >= 3
        assert_independent(g, got)

    def test_clique_witness_is_verified(self):
        g = complete(17)  # large enough that the recursion must descend
        with pytest.raises(CliqueFound) as err:
            ramsey_independent_set(g, 3, 4)
        w = err.value.witness
        assert len(w) == 3
        adj = rows(g)
        for i, u in enumerate(w):
            for v in w[i + 1 :]:
                assert v in adj[u]

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVertices):
            ramsey_independent_set(cycle(4), 3, 4)  # R-bound 10 > 4

    @pytest.mark.parametrize("seed", range(5))
    def test_output_independent_on_triangle_free_randoms(self, seed):
        g = make_cr_free(gnp(24, 0.2, seed), 3)
        s = int(math.isqrt(g.n))
        got = ramsey_independent_set(g, 3, s)
        assert len(got) >= s
        assert_independent(g, got)


def ramsey_cases():
    """Seeded (graph, r, s) cases: clique-free graphs at the coloring's s,
    graphs that hold a K_r, and s above what the vertex count certifies."""
    cases = [
        (Graph.from_edges(2500, []), 3, 50),
        (random_regular(400, 3, 2), 3, 20),
        (make_cr_free(gnp(120, 0.06, 1), 3), 3, 10),
        (turan(60, 3), 4, 3),
        (turan(40, 2), 3, 6),
        (complete(17), 3, 4),
        (complete(30), 4, 3),
        (cycle(4), 3, 4),
        (petersen(), 2, 2),
        (Graph.from_edges(9, []), 2, 9),
    ]
    rng = make_rng(23)
    for k in range(40):
        n = int(rng.integers(2, 70))
        g = gnp(n, float(rng.random()) * 0.4, seed=k)
        r = int(rng.integers(2, 5))
        cases.append((g, r, max(1, math.isqrt(n) - int(rng.integers(0, 3)))))
    return cases


def ramsey_outcome(fn, *args):
    try:
        return "set", fn(*args)
    except CliqueFound as found:
        return "clique", found.witness
    except TooFewVertices:
        return "too few", None


class TestRamseyLoop:
    def test_matches_the_recursion(self):
        kinds = set()
        for g, r, s in ramsey_cases():
            got = ramsey_outcome(chromatic._ramsey, g, np.ones(g.n, dtype=bool), r, s)
            want = ramsey_outcome(reference_ramsey, rows(g), list(range(g.n)), r, s)
            assert got == want, (g.n, g.m, r, s)
            kinds.add(got[0])
        assert kinds == {"set", "clique", "too few"}

    def test_matches_the_recursion_on_vertex_subsets(self):
        # kr_free_coloring runs _ramsey on shrinking residuals, not on range(n)
        rng = make_rng(24)
        kinds = set()
        for g, r, s in ramsey_cases():
            for _ in range(3):
                mask = rng.random(g.n) < 0.5 + 0.5 * rng.random()
                given = mask.copy()
                got = ramsey_outcome(chromatic._ramsey, g, mask, r, s)
                want = ramsey_outcome(reference_ramsey, rows(g), np.flatnonzero(mask).tolist(), r, s)
                assert got == want, (g.n, g.m, r, s)
                assert (mask == given).all()
                kinds.add(got[0])
        assert kinds == {"set", "clique", "too few"}

    def test_nesting_is_at_most_r(self, monkeypatch):
        inner = chromatic._ramsey
        depth = deepest = 0

        def counted(*args):
            nonlocal depth, deepest
            depth += 1
            deepest = max(deepest, depth)
            try:
                return inner(*args)
            finally:
                depth -= 1

        monkeypatch.setattr(chromatic, "_ramsey", counted)
        # the descent into a pivot's neighbourhood is a step of the loop,
        # so every search is one frame
        for g, r in ((Graph.from_edges(2500, []), 3), (random_regular(4000, 3, 1), 3), (turan(200, 3), 4)):
            deepest = 0
            kr_free_coloring(make_cr_free(g, 3) if r == 3 else g, r)
            assert deepest == 1, (g.n, r, deepest)


class TestKrFreeColoring:
    def test_edgeless_single_class(self):
        col = kr_free_coloring(Graph.from_edges(5, []), 3)
        assert col.classes == 1

    def test_c5_within_bound(self):
        col = kr_free_coloring(cycle(5), 3)
        assert_proper(cycle(5), col)
        assert col.classes <= 8

    @pytest.mark.parametrize("a,b", [(7, 9), (12, 13)])
    def test_bipartite_respects_root_bound(self, a, b):
        g = complete_bipartite(a, b)
        col = kr_free_coloring(g, 3)
        assert_proper(g, col)
        assert col.classes <= 4 * math.sqrt(g.n) + TOL

    @pytest.mark.parametrize("r", [3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_clique_free_graphs(self, r, seed):
        if r == 3:
            g = make_cr_free(gnp(30, 0.25, seed + 20), 3)
        else:
            g = gnp(30, 0.12, seed + 20)
            if find_clique(g, 4) is not None:
                g = turan(30 + seed, 3)
        assert find_clique(g, r) is None
        col = kr_free_coloring(g, r)
        assert_proper(g, col)
        assert col.classes <= coloring_class_bound(g.n, r) + TOL
        assert sorted(set(col.color)) == list(range(col.classes))

    def test_turan_families(self):
        for n, classes in [(20, 2), (24, 3), (33, 3)]:
            g = turan(n, classes)
            col = kr_free_coloring(g, classes + 1)
            assert_proper(g, col)
            assert col.classes <= coloring_class_bound(n, classes + 1) + TOL

    def test_clique_discovery_propagates(self):
        with pytest.raises(CliqueFound):
            kr_free_coloring(complete(17), 3)


class TestColoringCut:
    def test_bipartite_coloring_cuts_everything(self):
        g = random_bipartite(4, 5, 0.7, 1)
        col = Coloring(tuple(0 if v < 4 else 1 for v in range(9)), 2)
        cut, cert = coloring_cut(g, col)
        assert cut.value == g.m
        assert cert.expected_value == pytest.approx(g.m)

    def test_k3_singletons(self):
        cut, cert = coloring_cut(complete(3), Coloring((0, 1, 2), 3))
        assert cert.expected_value == pytest.approx(2.0)
        assert cut.value == 2

    def test_k5_singletons(self):
        cut, cert = coloring_cut(complete(5), Coloring((0, 1, 2, 3, 4), 5))
        assert cert.expected_value == pytest.approx(6.0)
        assert cut.value == 6

    def test_improper_coloring_rejected(self):
        with pytest.raises(ImproperColoring):
            coloring_cut(complete(3), Coloring((0, 0, 1), 2))

    @pytest.mark.parametrize("color", [(0, 1, -1, 1), (0, 1, 2, 1)])
    def test_class_ids_outside_the_range_rejected(self, color):
        # -1 would put a vertex in no class and a cut below the certificate
        with pytest.raises(ImproperColoring):
            coloring_cut(cycle(4), Coloring(color, 2))

    def test_single_class_edgeless(self):
        cut, cert = coloring_cut(Graph.from_edges(4, []), Coloring((0, 0, 0, 0), 1))
        assert cut.value == 0 and cert.expected_value == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_value_meets_certificate_and_class_floor(self, seed):
        g = gnp(18, 0.3, seed + 40)
        col = kr_free_coloring(g, g.n)  # any proper coloring works here
        cut, cert = coloring_cut(g, col)
        t = col.classes
        assert cut.value >= cert.expected_value
        if t >= 2:
            assert cert.expected_value >= (0.5 + 1 / (2 * t)) * g.m - TOL

    @pytest.mark.parametrize("seed", range(5))
    def test_certificate_is_mean_over_all_groupings(self, seed):
        # enumerate every floor/ceil class grouping: the certificate is their
        # exact mean separated-edge count, and greedy meets or beats it
        from itertools import combinations

        rng = make_rng(seed + 500)
        g = gnp(10, 0.5, int(rng.integers(0, 2**62)))
        col = kr_free_coloring(g, g.n)
        t = col.classes
        if t < 2:
            return
        cut, cert = coloring_cut(g, col)
        values = []
        for group_a in combinations(range(t), (t + 1) // 2):
            in_a = set(group_a)
            side = [0 if col.color[v] in in_a else 1 for v in range(g.n)]
            values.append(cut_value(g, side).value)
        mean = sum(values) / len(values)
        assert cert.expected_value == pytest.approx(mean, abs=TOL)
        assert cut.value >= mean - TOL
        assert cut.value <= max(values)

    @pytest.mark.parametrize("r", [3, 4])
    def test_pipeline_floor_on_clique_free_inputs(self, r):
        pool = [turan(21, r - 1), turan(30, r - 1)]
        if r == 3:
            pool.append(make_cr_free(random_regular(26, 3, 3), 3))
        for g in pool:
            col = kr_free_coloring(g, r)
            _, cert = coloring_cut(g, col)
            floor = (0.5 + 1 / (8 * g.n ** ((r - 2) / (r - 1)))) * g.m
            assert cert.expected_value >= floor - TOL


def random_proper_coloring(g, rng, k):
    """A proper coloring from a greedy pass in random order that picks a
    random free class among k (a new one when none is free), renumbered so
    that every class is nonempty."""
    adj = rows(g)
    color = [-1] * g.n
    for v in rng.permutation(g.n).tolist():
        used = {color[u] for u in adj[v]}
        free = [c for c in range(k) if c not in used]
        color[v] = free[int(rng.integers(len(free)))] if free else k + max(used) + 1
    ids = {c: i for i, c in enumerate(sorted(set(color)))}
    return Coloring(tuple(ids[c] for c in color), len(ids))


class TestSplitMatchesReference:
    """coloring_cut's integer rule against the Fraction expectations it replaced."""

    @staticmethod
    def assert_same(g, col):
        assert coloring_cut(g, col) == reference_coloring_cut(g, col)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_proper_colorings(self, seed):
        rng = make_rng(seed + 700)
        for _ in range(5):
            n = int(rng.integers(0, 41))
            g = gnp(n, float(rng.random()), int(rng.integers(0, 2**31)))
            self.assert_same(g, random_proper_coloring(g, rng, int(rng.integers(1, 12))))

    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    def test_few_classes(self, t):
        rng = make_rng(t + 750)
        for n in range(t, 25) if t else [0]:
            g = gnp(n, 0.5, int(rng.integers(0, 2**31)))
            # t classes by residue, with the edges inside a class removed
            color = tuple(v % t for v in range(n))
            g = Graph.from_edges(n, [(u, v) for u, v in g.edges if color[u] != color[v]])
            self.assert_same(g, Coloring(color, t))

    @pytest.mark.parametrize("n, p", [(300, 0.0), (300, 0.02), (303, 0.01), (303, 0.05)])
    def test_identity_colorings_with_many_classes(self, n, p):
        self.assert_same(g := gnp(n, p, n), Coloring(tuple(range(g.n)), g.n))

    @pytest.mark.parametrize("r", [3, 4])
    def test_clique_free_colorings(self, r):
        pool = [turan(25, r - 1), turan(36, r - 1), make_cr_free(random_regular(40, 3, r), 3)]
        pool += [make_cr_free(gnp(60, 0.2, seed), r) for seed in range(4)]
        for g in pool:
            self.assert_same(g, kr_free_coloring(g, r))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 13])
    def test_tie_heavy_inputs(self, k):
        edgeless = Graph.from_edges(9 * k, [])
        self.assert_same(edgeless, Coloring(tuple(range(9 * k)), 9 * k))
        self.assert_same(edgeless, Coloring(tuple(v % k for v in range(9 * k)), k))
        cliques = disjoint_cliques(k, 4)
        self.assert_same(cliques, Coloring(tuple(v % 4 for v in range(cliques.n)), 4))
        self.assert_same(cliques, Coloring(tuple(range(cliques.n)), cliques.n))
        multi = turan(3 * k, k)
        self.assert_same(multi, Coloring(tuple(v % k for v in range(multi.n)), k))
        self.assert_same(multi, Coloring(tuple(range(multi.n)), multi.n))


class TestTCutExpectedValue:
    def test_even_formula_shrinks_to_base(self):
        assert t_cut_expected_value(10, 7, 2) == pytest.approx(7.0)

    def test_k3_value(self):
        assert t_cut_expected_value(3, 2, 3) == pytest.approx(20 / 9)

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_surplus_identities(self, t):
        m, c = 12, 9
        w = c - m / 2
        got = t_cut_expected_value(m, c, t) - (t - 1) / t * m
        if t % 2 == 0:
            assert got == pytest.approx(2 * w / t)
        else:
            assert got == pytest.approx(2 * (t - 1) * w / (t * t))


class TestMaxTCut:
    def test_t2_reduces_to_base(self):
        g = gnp(10, 0.4, 2)
        base = cut_value(g, [v % 2 for v in range(10)])
        part, cert = max_t_cut(g, base, 2, make_rng(0), repeats=5)
        assert part.value == base.value
        assert cert.expected_value == pytest.approx(base.value)

    def test_c4_even_split_keeps_perfect_cut(self):
        g = cycle(4)
        base = cut_value(g, (0, 1, 0, 1))
        for k in range(10):
            part, _ = max_t_cut(g, base, 4, make_rng(k), repeats=1)
            assert part.value == 4

    def test_base_value_is_recounted(self):
        # a base claiming 5 on a cut of value 0 would certify 40/9, not 20/9
        with pytest.raises(NotACutOfInducedSubgraph, match="claims value 5, recount gives 0"):
            max_t_cut(cycle(5), Cut((0,) * 5, 5), 3, make_rng(0))
        _, cert = max_t_cut(cycle(5), Cut((0,) * 5, 0), 3, make_rng(0))
        assert cert.expected_value == t_cut_expected_value(5, 0, 3)

    def test_k3_certificate(self):
        g = complete(3)
        base = cut_value(g, (0, 0, 1))
        _, cert = max_t_cut(g, base, 3, make_rng(1), repeats=10)
        assert cert.expected_value == pytest.approx(20 / 9)
        assert cert.expected_value >= 2 / 3 * 3 - TOL

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("name", ["k3", "c4", "p4", "star3", "k23"])
    def test_certificate_matches_exhaustive_oracle(self, t, name):
        g = {
            "k3": complete(3),
            "c4": cycle(4),
            "p4": path(4),
            "star3": star(3),
            "k23": complete_bipartite(2, 3),
        }[name]
        rng = make_rng(hash(name) & 0xFFFF)
        for side in ([0] * g.n, [v % 2 for v in range(g.n)], [int(b) for b in rng.integers(0, 2, g.n)]):
            base = cut_value(g, side)
            closed = t_cut_expected_value(g.m, base.value, t)
            exact = tcut_expectation_oracle(g, base.side, t)
            assert abs(closed - float(exact)) <= TOL

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_headline_floor_with_good_base(self, t):
        g = gnp(12, 0.4, 9)
        base = cut_value(g, [v % 2 for v in range(12)])
        if base.value < g.m / 2:
            base = cut_value(g, [1 - s for s in base.side])
        if base.value < g.m / 2:
            pytest.skip("base below half")
        _, cert = max_t_cut(g, base, t, make_rng(3), repeats=4)
        assert cert.expected_value >= (t - 1) / t * g.m - TOL

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_exhaustive_t_cut_dominates_certificates(self, t):
        # the optimal t-partition beats the splitter's certificate for any base
        from itertools import product

        from certcut.oracle import max_t_cut_exact

        g = gnp(6, 0.6, 13)
        best = max_t_cut_exact(g, t).value
        for bits in product((0, 1), repeat=g.n):
            base = cut_value(g, bits)
            assert t_cut_expected_value(g.m, base.value, t) <= best + TOL

    def test_exact_probability_draws_are_integer_based(self):
        # odd t: frequencies of the shared part approach 1/t
        g = Graph.from_edges(1, [])
        base = cut_value(g, [0])
        rng = make_rng(11)
        hits = 0
        trials = 9000
        for _ in range(trials):
            part, _ = max_t_cut(g, base, 3, rng, repeats=1)
            hits += part.part[0] == 2
        assert abs(hits / trials - 1 / 3) < 0.02
