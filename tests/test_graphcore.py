import gc
import tracemalloc
from itertools import combinations

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
from certcut import graphcore
from certcut.graphcore import (
    CLIQUE_STEP_BUDGET,
    Graph,
    back_pairs,
    count_back_triangles,
    count_triangles,
    cut_value,
    degeneracy_order,
    edwards_bound,
    _vertex_ids,
    find_clique,
    induced_subgraph,
    induced_unions,
    triangle_edges,
    triangle_list,
)
from conftest import graphs
from oracles import (
    back_sets,
    brute_clique_list,
    brute_cliques,
    brute_degeneracy,
    brute_max_cut,
    brute_triangles,
    reference_back_sets,
    reference_degeneracy_order,
    reference_find_clique,
    reference_from_edges,
    reference_triangle_list,
    rows,
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
            assert rows(g) == [list(row) for row in want[1]]

    def test_edges_normalized_sorted(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0)])
        assert g.edges == ((0, 2), (1, 3))
        assert rows(g) == [[2], [3], [0], [1]]


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
        got, want = g.degeneracy_order, degeneracy_order(g)
        assert len(got.order) == len(want.order) and got.degeneracy == want.degeneracy
        assert got.order.tolist() == want.order.tolist()
        assert g.triangles == count_triangles(g)

    def test_canonical_k4_order(self):
        order = degeneracy_order(complete(4))
        assert order.order.tolist() == [3, 2, 1, 0]
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
        # the reference peel's order, with the set-loop back sets
        g = data.draw(graphs())
        got = g.degeneracy_order
        assert got.order.tolist() == list(reference_degeneracy_order(g).order)
        assert all(len(x) == g.m for x in back_pairs(g, got))
        assert back_sets(g, got) == reference_back_sets(g, got.order.tolist())


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
        adj = rows(g)
        back = tuple(
            frozenset(w for w in adj[v] if pos[w] < pos[v]) for v in range(12)
        )
        order = DegeneracyOrder(np.array(perm, dtype=np.intp), max(len(b) for b in back))
        assert sum(count_back_triangles(g, order)) == count_triangles(g)


# graphs with no r-clique, by name: triangle-free ones are tried at r = 3
# and r = 4, the K4-free ones with triangles at r = 4
TRIANGLE_FREE = {
    **{f"cr_free_regular_{s}": lambda s=s: make_cr_free(random_regular(40, 3, s), 3) for s in range(4)},
    "bipartite_8_9": lambda: random_bipartite(8, 9, 0.5, 1),
    "bipartite_12_5": lambda: random_bipartite(12, 5, 0.7, 2),
    "cycle7": lambda: cycle(7),
    "petersen": petersen,
    "edgeless": lambda: Graph.from_edges(6, []),
}
K4_FREE = {
    "turan_12_3": lambda: turan(12, 3),
    "turan_15_3": lambda: turan(15, 3),
    "disjoint_k3": lambda: disjoint_cliques(3, 3),
}
KR_FREE = {**TRIANGLE_FREE, **K4_FREE}
KR_FREE_CASES = [(name, 3) for name in TRIANGLE_FREE] + [(name, 4) for name in KR_FREE]


@st.composite
def clique_cases(draw):
    """(graph, r), r = 3 or 4, on up to 14 vertices: a random graph of
    density 1/4, 1/2 or 3/4, a random tripartite graph of that density, a
    Turan graph, or a random graph with a 4-clique planted on drawn ids."""
    kind = draw(st.sampled_from(["random", "tripartite", "turan", "planted"]))
    n = draw(st.integers(0, 14))
    if kind == "turan":
        g = turan(n, draw(st.integers(1, 5)))
    else:
        pairs = [(u, v) for u, v in combinations(range(n), 2)
                 if kind != "tripartite" or u % 3 != v % 3]
        level = draw(st.integers(1, 3))
        weights = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
        edges = {e for e, w in zip(pairs, weights) if w < level}
        if kind == "planted" and n >= 4:
            edges |= set(combinations(sorted(draw(st.permutations(range(n)))[:4]), 2))
        g = Graph.from_edges(n, sorted(edges))
    return g, draw(st.sampled_from([3, 4]))


def clique_outcome(search, g: Graph, r: int, budget: int):
    """The clique ``search`` returns, or the message of its BudgetExceeded."""
    try:
        return search(g, r, budget)
    except BudgetExceeded as exc:
        return "refused", str(exc)


def clique_peak(g: Graph, r: int, budget: int):
    """``clique_outcome`` of find_clique and its traced peak in bytes."""
    tracemalloc.start()
    try:
        return clique_outcome(find_clique, g, r, budget), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def regular_100k():
    return random_regular(100_000, 3, 0)


class TestCliques:
    def test_k5_counts_itself(self):
        assert find_clique(complete(5), 5) == (0, 1, 2, 3, 4)
        assert find_clique(complete(5), 6) is None

    def test_c5_has_no_triangle(self):
        assert find_clique(cycle(5), 3) is None
        assert count_triangles(cycle(5)) == 0

    def test_k4_minus_edge_has_two_triangles(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert brute_cliques(g, 3) == 2
        assert count_triangles(g) == 2

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_matches_brute_force(self, r, seed):
        # the search returns the lexicographically first r-clique
        g = gnp(10, 0.5, seed)
        assert find_clique(g, r) == next(iter(brute_clique_list(g, r)), None)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            find_clique(complete(12), 6, budget=50)

    @pytest.mark.parametrize("name, r", KR_FREE_CASES)
    def test_search_steps_on_kr_free_graphs(self, name, r):
        # every k-clique, k < r, is one prefix, charged one step plus one per
        # (k+1)-clique that extends it upward: n + 2(N_2 + ... + N_(r-1))
        g = KR_FREE[name]()
        assert brute_cliques(g, r) == 0
        steps = g.n + 2 * sum(brute_cliques(g, k) for k in range(2, r))
        assert find_clique(g, r, budget=steps) is None
        with pytest.raises(BudgetExceeded):
            find_clique(g, r, budget=steps - 1)

    @given(clique_cases(), st.floats(0, 1))
    @settings(deadline=None, max_examples=300)
    def test_matches_exhaustive_search_at_the_step_count(self, case, share):
        # S, the search's steps on a K_r-free graph, one step less and a
        # drawn budget up to S: the settled freeness must answer and refuse
        # exactly as the search does
        g, r = case
        steps = g.n + 2 * g.m + (2 * brute_cliques(g, 3) if r == 4 else 0)
        for budget in (steps, steps - 1, int(share * steps)):
            got = clique_outcome(find_clique, g, r, budget)
            assert got == clique_outcome(reference_find_clique, g, r, budget)

    @pytest.mark.parametrize("r", [3, 4])
    def test_clique_check_memory_is_linear_in_the_graph(self, regular_100k, r):
        # about 130 bytes per vertex and edge at r = 3, where the graph's
        # one triangle sends find_clique to the search and its forward
        # sets, and 43 at r = 4, settled by the triangle passes alone; a
        # bitset per vertex indexed by global id would hold about n/12
        # bytes per vertex here, 3,200 per vertex and edge
        g = Graph(*(getattr(regular_100k, f) for f in ("n", "indptr", "indices", "eu", "ev")))
        _, peak = clique_peak(g, r, CLIQUE_STEP_BUDGET)
        assert peak < 256 * (g.n + g.m), peak

    @pytest.mark.parametrize("make, r, budget, expected", [
        (lambda: complete(600), 3, CLIQUE_STEP_BUDGET, (0, 1, 2)),
        (lambda: complete(600), 4, CLIQUE_STEP_BUDGET, (0, 1, 2, 3)),
        (lambda: turan(600, 3), 4, 1000, ("refused", "clique search exceeded 1000 steps")),
    ], ids=["k600-r3", "k600-r4", "turan600-r4-refused"])
    def test_dense_clique_check_memory_is_linear_in_the_graph(self, make, r, budget, expected):
        # a witness, or a K4-free graph refused long before its 16 million
        # steps: about 100 bytes per vertex and edge, for the forward sets;
        # listing every triangle first would take 24 bytes per triangle:
        # 860 MB on K600 and 190 MB on the Turan graph
        g = make()
        got, peak = clique_peak(g, r, budget)
        assert got == expected
        assert peak < 256 * (g.n + g.m), peak

    def test_find_clique_and_freeness(self):
        assert find_clique(cycle(5), 3) is None
        assert find_clique(complete(4), 3) == (0, 1, 2)
        assert find_clique(complete(4), 4) == (0, 1, 2, 3)

    @pytest.mark.parametrize("search", [find_clique])
    @pytest.mark.parametrize("r", [3, 9])  # found, and not found
    def test_clique_search_leaves_no_reference_cycle(self, r, search):
        # a cycle would keep the search's sets alive until the next collection
        gc.collect()
        gc.disable()
        try:
            search(gnp(30, 0.3, 1), r)
            assert gc.collect() == 0
        finally:
            gc.enable()


def pendant_k4(k: int) -> Graph:
    """turan(k, 3) with a vertex k joined to 0, 1 and 2: one 4-clique, whose
    lowest vertex in (degree, id) order is k, the last tail, so the triangle
    passes close it only in their last pass."""
    return Graph.from_edges(k + 1, [*turan(k, 3).edges, (0, k), (1, k), (2, k)])


def book_k4(k: int, closed: bool) -> Graph:
    """Edge 0-1 with pages 2..k+1, each joined to both ends and to k + 4
    leaves of its own; with ``closed``, the edge k-(k+1) closes the one
    4-clique (0, 1, k, k+1). The leaves put 0 and 1 below the pages in
    (degree, id) order, so 0->1 is one out-edge with k triangles, and the
    two pages of the 4-clique rank last among them: their pair is the last
    of the k(k-1)/2 pairs of that out-edge."""
    edges = [(0, 1)]
    leaf = k + 2
    for w in range(2, k + 2):
        edges += [(0, w), (1, w)]
        edges += [(w, leaf + i) for i in range(k + 4)]
        leaf += k + 4
    if closed:
        edges.append((k, k + 1))
    return Graph.from_edges(leaf, edges)


def check_edge_listing(g: Graph):
    """Each row of the edge listing is three distinct edge ids (uv, uw, vw)
    of one triangle, in the order of the reference rows (u, v, w), and the
    rows derived from it are those rows; on a K4-free graph, the listing
    that find_clique(g, 4) keeps is a fresh listing of an equal graph."""
    fields = [getattr(g, f) for f in ("n", "indptr", "indices", "eu", "ev")]
    edges, want = triangle_edges(g), reference_triangle_list(g)
    assert edges.dtype == np.intp and edges.shape == want.shape
    assert ((0 <= edges) & (edges < g.m)).all()
    ends = [sorted(pair) for pair in zip(g.eu.tolist(), g.ev.tolist())]
    for (uv, uw, vw), (u, v, w) in zip(edges.tolist(), want.tolist()):
        assert len({uv, uw, vw}) == 3
        assert [ends[uv], ends[uw], ends[vw]] == [sorted(p) for p in ((u, v), (u, w), (v, w))]
    assert triangle_list(g).tolist() == want.tolist()
    assert triangle_list(Graph(*fields)).tolist() == want.tolist()
    kept = Graph(*fields)
    if find_clique(kept, 4) is None:
        assert kept.__dict__["triangle_edges"].tolist() == triangle_edges(Graph(*fields)).tolist()


class TestTrianglePasses:
    # with a small ROUND_CHUNK every pass runs past its ROUND_CHUNK wedges
    # to the end of a tail, and the pairs of one out-edge's triangles
    # straddle the K4 check's slices

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    @given(case=clique_cases(), share=st.floats(0, 1))
    @settings(deadline=None, max_examples=150)
    def test_small_passes_match_the_references(self, chunk, case, share):
        g, _ = case
        steps = g.n + 2 * g.m + 2 * brute_cliques(g, 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphcore, "ROUND_CHUNK", chunk)
            assert triangle_list(g).tolist() == reference_triangle_list(g).tolist()
            for budget in (steps, steps - 1, int(share * steps)):
                g = Graph(*(getattr(g, f) for f in ("n", "indptr", "indices", "eu", "ev")))
                got = clique_outcome(find_clique, g, 4, budget)
                assert got == clique_outcome(reference_find_clique, g, 4, budget)
                # the passes alone settle a K4-free graph within the budget,
                # and then keep the listing they made
                settled = budget >= steps and brute_cliques(g, 4) == 0
                assert ("triangle_edges" in g.__dict__) == settled
                if settled:
                    assert triangle_list(g).tolist() == reference_triangle_list(g).tolist()

    @pytest.mark.parametrize("chunk", [1, 2, 5, graphcore.ROUND_CHUNK])
    @given(case=clique_cases())
    @settings(deadline=None, max_examples=100)
    def test_edge_listing_names_each_triangles_three_edges(self, chunk, case):
        g, _ = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphcore, "ROUND_CHUNK", chunk)
            check_edge_listing(g)

    @pytest.mark.parametrize("chunk", [1, 2, 5, graphcore.ROUND_CHUNK])
    @pytest.mark.parametrize("closed", [True, False])
    def test_edge_listing_of_book_k4(self, monkeypatch, chunk, closed):
        monkeypatch.setattr(graphcore, "ROUND_CHUNK", chunk)
        check_edge_listing(book_k4(6, closed))

    @pytest.mark.parametrize("chunk", [1, 2, 5, graphcore.ROUND_CHUNK])
    @pytest.mark.parametrize("closed", [True, False])
    def test_k4_in_a_later_pair_slice(self, monkeypatch, chunk, closed):
        # 6 pages: the 4-clique's pair is the 15th of its out-edge, after
        # every slice of 1, 2 or 5 pairs before it
        monkeypatch.setattr(graphcore, "ROUND_CHUNK", chunk)
        g = book_k4(6, closed)
        assert find_clique(g, 4) == ((0, 1, 6, 7) if closed else None)
        assert ("triangle_edges" in g.__dict__) is not closed
        assert triangle_list(g).tolist() == reference_triangle_list(g).tolist()
        assert g.triangles == 6 + 2 * closed

    @pytest.mark.parametrize("chunk", [1, 5])
    def test_k4_in_the_last_pass(self, monkeypatch, chunk):
        monkeypatch.setattr(graphcore, "ROUND_CHUNK", chunk)
        g = pendant_k4(12)
        assert find_clique(g, 4) == (0, 1, 2, 12)
        assert "triangle_edges" not in g.__dict__

    @pytest.mark.parametrize("free", ["all", "half", "few"])
    def test_listed_rows_stay_within_the_budget(self, free):
        # the passes hold the rows listed so far, 24 bytes each, until a
        # pass closes the 4-clique (here the last of many) or 2T passes the
        # budget, then drop them: O(n + m) plus 12 bytes per free step
        g = pendant_k4(240)
        triangles = 240**3 // 27 + 1
        budget = g.n + 2 * g.m + {"all": 2 * triangles + 2, "half": triangles, "few": 20_000}[free]
        tracemalloc.start()
        try:
            got = find_clique(g, 4, budget)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (0, 1, 2, 240)
        assert "triangle_edges" not in g.__dict__
        assert peak < 256 * (g.n + g.m) + 12 * (budget - g.n - 2 * g.m), peak
        assert after < 1 << 16, after


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

    @pytest.mark.parametrize("side", [
        [0.9, 1.2, 0],
        [0, 1.2, 0],
        [0, 1, -1],
        [0, 2, 1],
        np.array([0.0, 0.5, 1.0]),
        np.array([0, 2, 1], dtype=np.uint8),
    ])
    def test_refuses_labels_other_than_0_and_1(self, side):
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            cut_value(path(3), side)

    @pytest.mark.parametrize("side", [
        [0, 1, 0],
        (False, True, False),
        [0.0, 1.0, 0.0],
        np.array([False, True, False]),
        np.array([0, 1, 0]),
        np.array([0, 1, 0], dtype=np.uint8),
    ])
    def test_accepted_labels_give_one_int_tuple(self, side):
        cut = cut_value(path(3), side)
        assert (cut.side, cut.value) == ((0, 1, 0), 2)
        assert all(type(s) is int for s in cut.side)

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
        sub, ids = induced_subgraph(complete(4), {0, 1, 2})
        assert sub.n == 3 and sub.m == 3
        assert ids.tolist() == [0, 1, 2]

    def test_empty_set(self):
        sub, _ = induced_subgraph(cycle(5), ())
        assert sub.n == 0 and sub.m == 0

    def test_c5_three_vertices_single_edge(self):
        sub, ids = induced_subgraph(cycle(5), {0, 1, 3})
        assert sub.edges == ((0, 1),)
        assert ids.tolist() == [0, 1, 3]

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeVertex):
            induced_subgraph(cycle(5), {0, 7})

    @pytest.mark.parametrize("vs", [[0.5, 2.7], [0, 2.7], [1.5], np.array([0.0, 0.5])])
    def test_refuses_non_integral_ids(self, vs):
        with pytest.raises(OutOfRangeVertex, match="^vertex ids must be integers$"):
            induced_subgraph(path(3), vs)

    def test_lists_int_arrays_and_integral_floats_give_the_same_ids(self):
        vs = [7, 0, 3, 3, 11]
        expected = _vertex_ids(12, vs)
        assert expected.tolist() == [0, 3, 7, 11]
        for same in (np.array(vs, dtype=np.intp), np.array(vs, dtype=np.uint8),
                     np.array(vs, dtype=float), [float(v) for v in vs]):
            assert np.array_equal(_vertex_ids(12, same), expected)
        for bad in ([1.5], np.array([3.0, 1.5])):
            with pytest.raises(OutOfRangeVertex, match="^vertex ids must be integers$"):
                _vertex_ids(12, bad)

    def test_integral_floats_and_bools_name_vertices(self):
        assert induced_subgraph(path(3), [2.0, 0.0])[1].tolist() == [0, 2]
        assert induced_subgraph(path(3), [True, False, True])[1].tolist() == [0, 1]

    @given(st.data())
    @settings(deadline=None, max_examples=80)
    def test_ids_are_the_sorted_distinct_vertices(self, data):
        g = data.draw(graphs())
        raw = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
        for vs in (raw, set(raw), np.array(raw, dtype=np.int64), tuple(raw),
                   range(data.draw(st.integers(0, g.n)))):
            sub, ids = induced_subgraph(g, vs)
            assert ids.tolist() == sorted(set(vs))
            assert ids.dtype == np.intp and not ids.flags.writeable
            assert sub.n == len(ids)

    def test_full_vertex_set_returns_the_graph_itself(self):
        g = petersen()
        sub, ids = induced_subgraph(g, range(g.n))
        assert sub is g
        assert ids.tolist() == list(range(g.n))

    def test_maps_are_inverse(self):
        # local edges map onto exactly the parent edges inside the set
        g = petersen()
        sub, ids = induced_subgraph(g, {1, 3, 5, 8})
        up = tuple(ids.tolist())
        assert up == (1, 3, 5, 8)
        inside = {(u, v) for u, v in g.edges if u in up and v in up}
        assert {(up[a], up[b]) for a, b in sub.edges} == inside


class TestInducedUnions:
    @given(st.data())
    @settings(deadline=None, max_examples=80)
    def test_each_set_is_its_induced_subgraph_side_by_side(self, data):
        g = data.draw(graphs(max_n=12))
        sets = data.draw(st.lists(st.lists(st.integers(0, g.n - 1), max_size=g.n), max_size=6))
        groups = list(induced_unions(g, sets))
        # all of them fit one chunk, but a set of every vertex runs alone
        whole = [len(set(vs)) == g.n for vs in sets]
        expected = [k for k, w in enumerate(whole) if w or k == 0 or whole[k - 1]]
        assert [len(parts) for _, parts in groups] == [
            z - a for a, z in zip(expected, [*expected[1:], len(sets)])]
        left = iter(sets)
        for union, parts in groups:
            edges, start = [], 0
            for ids in parts:
                sub, sub_ids = induced_subgraph(g, next(left))
                assert np.array_equal(ids, sub_ids) and not ids.flags.writeable
                edges += [(u + start, v + start) for u, v in sub.edges]
                start += sub.n
            assert union.n == start
            assert union.edges == tuple(edges)

    def test_a_whole_set_alone_is_the_graph_itself(self):
        g = petersen()
        [(union, parts)] = induced_unions(g, [range(g.n)])
        assert union is g and parts[0].tolist() == list(range(g.n))
        # ... also between other sets, which join no run with it
        runs = list(induced_unions(g, [[0, 1], [2], range(g.n), range(g.n), [3]]))
        assert [[len(ids) for ids in parts] for _, parts in runs] == [[2, 1], [10], [10], [1]]
        assert runs[1][0] is g and runs[2][0] is g
        assert runs[0][0].n == 3 and runs[0][0].m == 1

    def test_runs_stay_within_the_rounding_chunk(self, monkeypatch):
        # runs of at most 64 vertices, 64 edges and 4 sets
        monkeypatch.setattr(graphcore, "ROUND_CHUNK", 64)
        # a 40-cycle and a K12 (66 edges) beside it
        k12 = [(40 + u, 40 + v) for u, v in complete(12).edges]
        g = Graph.from_edges(52, [*cycle(40).edges, *k12])
        sets = [range(30), range(10, 40), range(5), range(40, 52), range(52), *([v] for v in range(6))]
        runs = [[len(ids) for ids in parts] for _, parts in induced_unions(g, sets)]
        # 60 vertices and 58 edges, then 65 vertices would not fit; the K12's
        # 66 edges neither fit beside the 4 edges of range(5) nor leave room
        # after them; the whole graph takes a run alone; then 4 sets fill a run
        assert runs == [[30, 30], [5], [12], [52], [1, 1, 1, 1], [1, 1]]

    def test_reads_sets_lazily(self):
        read = []

        def sets():
            for k in range(3):
                read.append(k)
                yield [k]

        runs = induced_unions(path(4), sets())
        assert read == []
        next(runs)
        assert read == [0, 1, 2]
