"""The array rounding layer against per-vertex reference loops.

``sdp_cut``, ``hyperplane_round`` and ``max_t_cut`` must return the same
sides, parts and values as the loops in ``oracles``, which follow the
definitions one vertex and one edge at a time. ``max_t_cut`` matches bit for
bit. ``sdp_cut`` rounds its repeats in blocks of rows drawn by
``normal_blocks``, whose row k must be the k-th run of normals of the seed's
one rounding stream, and block rounding must match one row at a time.
Rounding takes the sign of w_i - eps_i * (sum of w over V_i), which is
norm_i * <v_i, w>, so its sides match the reference's term-by-term dot
product except within rounding error of a zero dot product; no case here
comes that close.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certcut import embedding, graphcore
from certcut._rng import _ROUNDING_PATH, make_rng, normal_blocks
from certcut.chromatic import max_t_cut
from certcut.cli import main
from certcut.decompose import round_induced
from certcut.embedding import (
    EpsilonPlan,
    back_neighbor_plan,
    build_vectors,
    exact_expected_cut,
    hyperplane_round,
    sdp_cut,
    sdp_cuts,
)
from certcut.generators import complete, cycle, gnp, petersen, random_regular, star
from certcut.graphcore import (
    Cut,
    Graph,
    best_row,
    block_rows,
    cut_value,
    degeneracy_order,
    induced_subgraph,
    induced_unions,
)
from certcut.verify import random_plan
from oracles import (
    plan_sets,
    reference_best_rounding,
    reference_hyperplane_round,
    reference_max_t_cut,
    reference_rounding_rows,
    rows,
)


def corpus():
    graphs = {
        "n0": Graph.from_edges(0, []),
        "n1": Graph.from_edges(1, []),
        "m0": Graph.from_edges(6, []),
        "k2": complete(2),
        "k6": complete(6),
        "c7": cycle(7),
        "star8": star(8),
        "petersen": petersen(),
        "isolated": Graph.from_edges(9, [(0, 3), (3, 5), (5, 0), (6, 8)]),
        "regular3_60": random_regular(60, 3, seed=4),
        "regular4_40": random_regular(40, 4, seed=9),
    }
    for seed, (n, p) in enumerate([(5, 0.5), (30, 0.05), (40, 0.2), (90, 0.08), (150, 0.3), (300, 0.02)]):
        graphs[f"gnp{n}_{seed}"] = gnp(n, p, seed=50 + seed)
    return graphs


CORPUS = corpus()
# 1800 edges: 9 rows per rounding block, so 32 or 33 repeats take 4 blocks
MANY_BLOCKS = random_regular(1200, 3, seed=5)


def eps_cap(g: Graph) -> float:
    d = degeneracy_order(g).degeneracy
    return 1.0 / math.sqrt(d) if d else 1.0


class FixedDirection:
    """Stands in for a generator: always returns the same direction."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def standard_normal(self, n):
        assert n == len(self.w)
        return self.w.copy()


def round_one(emb, w) -> tuple[tuple[int, ...], int]:
    """Sides and value of ``hyperplane_round`` on the one direction ``w``."""
    sides, counts = hyperplane_round(emb, np.asarray(w, dtype=float)[None])
    assert sides.shape == (1, emb.graph.n) and counts.shape == (1,)
    return tuple(sides[0].view(np.uint8).tolist()), int(counts[0])


@pytest.mark.parametrize("name", sorted(CORPUS) + ["many_blocks"])
@pytest.mark.parametrize("repeats", [1, 2, 5, 32, 33])
def test_sdp_cut_matches_reference(name, repeats):
    g = CORPUS.get(name, MANY_BLOCKS)
    for seed in (0, 7):
        cut, _ = sdp_cut(g, None, repeats, seed)
        emb = build_vectors(g, back_neighbor_plan(g, eps_cap(g)))
        side, value = reference_best_rounding(emb, repeats, seed)
        assert cut.side == side
        assert cut.value == value == cut_value(g, cut.side).value
        assert all(type(s) is int for s in cut.side)


@pytest.mark.parametrize("name", ["petersen", "regular3_60", "gnp90_3", "gnp150_4"])
def test_sdp_cut_matches_reference_off_cap(name):
    g = CORPUS[name]
    cap = eps_cap(g)
    # just inside the tolerance above the cap, and well below it
    for eps in (cap * (1.0 + 1e-13), cap / 3.0):
        cut, _ = sdp_cut(g, eps, 8, 3)
        emb = build_vectors(g, back_neighbor_plan(g, eps))
        assert (cut.side, cut.value) == reference_best_rounding(emb, 8, 3)


@pytest.mark.parametrize("name", ["k6", "c7", "petersen", "isolated", "gnp40_2"])
def test_hyperplane_round_matches_reference_on_full_neighborhoods(name):
    # a plan on whole neighborhoods gives wider, uneven supports than the
    # back-neighbor plan
    g = CORPUS[name]
    sets = tuple(frozenset(row) for row in rows(g))
    plan = EpsilonPlan.from_sets(sets, tuple(1.0 / math.sqrt(len(s)) if s else 0.0 for s in sets))
    emb = build_vectors(g, plan)
    for k in range(20):
        w = make_rng(11, k).standard_normal(g.n)
        assert round_one(emb, w) == reference_hyperplane_round(emb, make_rng(11, k))


# three edges on 2000 vertices: 8 rows per block, and most repeats tie, so
# the winner must be the first maximum across blocks, not within one
SPARSE_TIES = Graph.from_edges(2000, [(0, 1), (2, 3), (4, 5)])


def test_block_graphs_need_several_blocks():
    assert 3 * block_rows(MANY_BLOCKS.n, MANY_BLOCKS.m) < 32
    assert block_rows(SPARSE_TIES.n, SPARSE_TIES.m) == 8


@pytest.mark.parametrize("seed", [0, 7, 8])
def test_ties_across_blocks_keep_the_first_repeat(seed):
    g = SPARSE_TIES
    cut, _ = sdp_cut(g, None, 20, seed)
    emb = build_vectors(g, back_neighbor_plan(g, eps_cap(g)))
    assert (cut.side, cut.value) == reference_best_rounding(emb, 20, seed)
    base = cut_value(g, [v % 2 for v in range(g.n)])
    for t in (2, 3):
        part, _ = max_t_cut(g, base, t, make_rng(seed, t), 20)
        assert (part.part, part.value) == reference_max_t_cut(g, base.side, t, make_rng(seed, t), 20)


def drawn_rows(monkeypatch) -> list[int]:
    """Wrap ``embedding.normal_blocks``; the list gets each block's row count."""
    rows, draw = [], embedding.normal_blocks

    def counting(*args):
        for block in draw(*args):
            rows.append(len(block))
            yield block

    monkeypatch.setattr(embedding, "normal_blocks", counting)
    return rows


@pytest.mark.parametrize("name", ["c7", "petersen", "gnp90_3", "many_blocks"])
@pytest.mark.parametrize("repeats", [1, 5, 33])
def test_sdp_cut_draws_each_repeat_once(monkeypatch, name, repeats):
    # none of these graphs is bipartite, so no repeat cuts every edge
    g = CORPUS.get(name, MANY_BLOCKS)
    rows, rounded, round_block = drawn_rows(monkeypatch), [], embedding.hyperplane_round
    monkeypatch.setattr(embedding, "hyperplane_round", lambda emb, w: rounded.append(len(w)) or round_block(emb, w))
    sdp_cut(g, None, repeats, 5)
    assert sum(rows) == repeats
    assert max(rows) <= block_rows(g.n, g.m)
    # every drawn block is rounded once, and nothing else is
    assert rounded == rows


@pytest.mark.parametrize("name", ["petersen", "gnp90_3", "gnp150_4", "regular3_60"])
def test_sdp_cuts_give_each_block_its_own_sdp_cut(name):
    # the corpus graph with a K6 beside it
    base = CORPUS[name]
    six = [(base.n + u, base.n + v) for u, v in complete(6).edges]
    g = Graph.from_edges(base.n + 6, [*base.edges, *six])
    rng = make_rng(31)
    sets = [np.flatnonzero(rng.random(base.n) < p) for p in (0.5, 0.0, 0.05, 0.3)]
    # every vertex but one; a set of every vertex would run alone
    sets.insert(3, np.arange(1, g.n))
    # blocks of degeneracy 0, 1 and 5: an independent set, one edge, the K6
    free, independent = np.ones(g.n, dtype=bool), []
    for v in range(base.n):
        if free[v]:
            independent.append(v)
            free[g.indices[g.indptr[v] : g.indptr[v + 1]]] = False
    sets += [independent, [base.eu[0], base.ev[0]], np.arange(base.n, g.n)]
    [(union, parts)] = induced_unions(g, sets)
    ends = np.cumsum([len(vs) for vs in parts]).tolist()
    seeds = [int(s) for s in rng.integers(0, 2**63, len(parts))]
    edge_ends = union.eu.searchsorted(ends).tolist()
    # a given eps, then each block's own default eps; looped rather than
    # parametrized, so the test ids stay as they were
    for eps in (eps_cap(g) / 2, None):
        labels, values, emb = sdp_cuts(union, ends, eps, 32, seeds)
        assert labels.dtype == np.uint8 and len(labels) == union.n
        terms = exact_expected_cut(emb).per_edge_terms
        for vs, seed, a, z, ea, ez, value in zip(parts, seeds, [0, *ends], ends,
                                                 [0, *edge_ends], edge_ends, values):
            sub, _ = induced_subgraph(g, vs)
            alone, alone_cert = sdp_cut(sub, eps, 32, seed)
            assert Cut(tuple(labels[a:z].tolist()), value) == alone
            assert terms[ea:ez] == alone_cert.per_edge_terms


def test_edgeless_sdp_cut_draws_one_row(monkeypatch):
    g = Graph.from_edges(20_000, [])
    rows = drawn_rows(monkeypatch)
    cut, _ = sdp_cut(g, None, 3, 2)
    assert rows == [1]
    emb = build_vectors(g, back_neighbor_plan(g, 1.0))
    assert (cut.side, cut.value) == reference_best_rounding(emb, 3, 2)


# a star K_(1,4) among isolated vertices: 8 rows per block, and some row of
# the first block cuts all four edges
STAR_AMONG_ISOLATED = Graph.from_edges(2000, [(0, v) for v in range(1, 5)])


@pytest.mark.parametrize("seed", [0, 3])
def test_sdp_cut_stops_at_a_block_that_cuts_every_edge(monkeypatch, seed):
    g = STAR_AMONG_ISOLATED
    rows = drawn_rows(monkeypatch)
    cut, _ = sdp_cut(g, None, 32, seed)
    assert rows == [block_rows(g.n, g.m)] == [8]
    assert cut.value == g.m
    emb = build_vectors(g, back_neighbor_plan(g, eps_cap(g)))
    assert (cut.side, cut.value) == reference_best_rounding(emb, 32, seed)


def test_best_row_keeps_the_first_maximum_over_later_ties():
    blocks = [(np.array([[0], [1], [2]]), np.array([1, 3, 2])), (np.array([[3], [4]]), np.array([3, 3]))]
    row, (value,) = best_row(iter(blocks), [1])
    assert row.tolist() == [1] and value == 3
    # a later strict maximum still wins
    row, (value,) = best_row(iter(blocks + [(np.array([[5]]), np.array([4]))]), [1])
    assert row.tolist() == [5] and value == 4


def test_best_row_takes_each_block_from_its_own_first_maximum():
    # vertex blocks [0, 2), [2, 2) and [2, 5); counts have one column per block
    rows = np.arange(20).reshape(4, 5)
    counts = np.array([[1, 0, 2], [3, 0, 2], [3, 0, 5], [2, 0, 5]])
    best, values = best_row(iter([(rows[:3], counts[:3]), (rows[3:], counts[3:])]), [2, 2, 5])
    assert values == [3, 0, 5]
    assert best.tolist() == [5, 6, 12, 13, 14]
    # reading stops once every block has reached its top
    def blocks():
        yield rows[:2], counts[:2]
        yield rows[2:], counts[2:]
        raise AssertionError("read past the tops")

    assert best_row(blocks(), [2, 2, 5], [3, 0, 5])[1] == [3, 0, 5]


def test_crossing_count_per_vertex_block():
    # two triangles and an edge side by side, with an empty block between
    g = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (4, 5), (6, 7)])
    labels = np.array([[0, 1, 1, 0, 0, 0, 1, 0], [1, 1, 1, 0, 1, 1, 0, 0]], dtype=bool)
    ends = [3, 3, 6, 8]
    per_block = g.crossing_count(labels, ends)
    assert per_block.tolist() == [[2, 0, 0, 1], [0, 0, 2, 0]]
    assert per_block.sum(axis=1).tolist() == g.crossing_count(labels).tolist()


def test_best_row_reads_no_block_after_reaching_top():
    def blocks():
        yield np.array([[0], [1]]), np.array([2, 1])
        yield np.array([[2], [3]]), np.array([1, 5])
        raise AssertionError("read past the top count")

    assert best_row(blocks(), [1], [5])[1] == [5]
    with pytest.raises(AssertionError):
        best_row(blocks(), [1])


SEEDS = st.one_of(st.integers(-2**63, 2**64 - 1), st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]))


@given(SEEDS, st.integers(1, 9), st.integers(0, 12), st.integers(1, 4))
@example(0, 1, 0, 1)
@example(2**64 - 1, 3, 5, 2)
@example(2**32, 2, 3, 1)
@example(2**32 - 1, 4, 7, 3)
@settings(deadline=None, max_examples=200)
def test_normal_blocks_rows_are_the_repeat_streams(seed, count, n, rows):
    blocks = list(normal_blocks([seed], count, [n], rows))
    assert all(1 <= len(b) <= rows and b.shape[1:] == (n,) for b in blocks)
    drawn = np.concatenate(blocks)
    assert len(drawn) == count
    assert np.array_equal(drawn, reference_rounding_rows([seed], count, [n]))


@given(st.lists(st.tuples(SEEDS, st.integers(0, 6)), min_size=1, max_size=6),
       st.integers(1, 6), st.integers(1, 4))
@example([(-1, 3), (2**32, 0), (2**64 - 1, 2), (5, 1)], 4, 3)
@example([(-(2**63), 0), (0, 0)], 2, 1)
@example([(2**32 - 1, 4), (-(2**32), 5)], 3, 2)
@settings(deadline=None, max_examples=200)
def test_normal_blocks_segments_are_the_seed_streams(segments, count, rows):
    seeds, sizes = [s for s, _ in segments], [n for _, n in segments]
    blocks = list(normal_blocks(seeds, count, sizes, rows))
    assert all(1 <= len(b) <= rows and b.shape[1:] == (sum(sizes),) for b in blocks)
    drawn = np.concatenate(blocks)
    assert len(drawn) == count
    assert np.array_equal(drawn, reference_rounding_rows(seeds, count, sizes))


@given(st.lists(st.tuples(SEEDS, st.integers(0, 6)), min_size=1, max_size=5),
       st.integers(1, 12), st.lists(st.integers(1, 13), min_size=2, max_size=4))
@settings(deadline=None, max_examples=100)
def test_normal_blocks_do_not_depend_on_rows(segments, count, row_counts):
    seeds, sizes = [s for s, _ in segments], [n for _, n in segments]
    drawn = [np.concatenate(list(normal_blocks(seeds, count, sizes, rows))) for rows in row_counts]
    assert all(np.array_equal(d, drawn[0]) for d in drawn)
    for seed, n, end in zip(seeds, sizes, np.cumsum(sizes).tolist()):
        whole = make_rng(seed, _ROUNDING_PATH).standard_normal((count, n))
        assert np.array_equal(drawn[0][:, end - n:end], whole)


def test_normal_blocks_segments_cross_state_blocks():
    # two drawn segments (the empty one draws nothing) whose generators
    # carry their state across four blocks
    seeds, sizes = [3, 2**40, -7], [4, 0, 2]
    drawn = list(normal_blocks(seeds, 12, sizes, 3))
    assert [len(b) for b in drawn] == [3, 3, 3, 3]
    rows = np.concatenate(drawn)
    assert np.array_equal(rows, reference_rounding_rows(seeds, 12, sizes))
    assert np.array_equal(rows[:, :4], make_rng(3, _ROUNDING_PATH).standard_normal((12, 4)))
    assert np.array_equal(rows[:, 4:], make_rng(-7, _ROUNDING_PATH).standard_normal((12, 2)))


def test_normal_blocks_cross_state_blocks():
    drawn = list(normal_blocks([9], 11, [6], 3))
    assert [len(b) for b in drawn] == [3, 3, 3, 2]
    assert np.array_equal(np.concatenate(drawn), reference_rounding_rows([9], 11, [6]))


@pytest.mark.parametrize("seed", [0, 1, 5, 2**32, 2**64 - 1])
def test_rounding_stream_is_not_the_instance_stream(seed):
    # SeedSequence([s, 0]) equals SeedSequence([s]), so the rounding path
    # must be nonzero for the stream to differ from make_rng(s)
    assert _ROUNDING_PATH != 0
    (row,) = normal_blocks([seed], 1, [5], 1)
    assert not np.array_equal(row[0], make_rng(seed).standard_normal(5))
    assert np.array_equal(make_rng(seed, 0).standard_normal(5), make_rng(seed).standard_normal(5))


def test_bench_rows_round_apart_from_their_instance_stream(monkeypatch, capsys):
    # bench passes one seed to the generator and to the cut; the directions
    # its sdp_cut rounds must not be the normals of the generator's stream
    drawn = []
    draw = embedding.normal_blocks

    def recording(seeds, *rest):
        for block in draw(seeds, *rest):
            drawn.append((list(seeds), block))
            yield block

    monkeypatch.setattr(embedding, "normal_blocks", recording)
    code = main(["bench", "--family", "regular", "--nlist", "12", "--dlist", "3",
                 "--algo", "sdp", "--repeats", "4"])
    assert code == 0 and drawn and capsys.readouterr().out.count("\n") == 2
    for seeds, block in drawn:
        (seed,) = seeds
        n = block.shape[1]
        stream = make_rng(seed).standard_normal((len(block), n))
        assert not (block[:, None, :] == stream[None, :, :]).all(axis=2).any()


def block_cases():
    rng = make_rng(23)
    yield Graph.from_edges(0, []), back_neighbor_plan(Graph.from_edges(0, []), 1.0)
    for k in range(20):
        g = gnp(int(rng.integers(1, 40)), float(rng.random()), seed=200 + k)
        yield g, (random_plan if k % 2 else zero_eps_plan)(g, rng)
    g = CORPUS["petersen"]
    yield g, back_neighbor_plan(g, eps_cap(g))


def test_block_rounding_matches_one_row_at_a_time():
    rng = make_rng(29)
    for g, plan in block_cases():
        emb = build_vectors(g, plan)
        block = np.stack([*directions(g.n, rng), rng.standard_normal(g.n)])
        sides, values = hyperplane_round(emb, block)
        assert sides.shape == block.shape and values.shape == (len(block),)
        for w, side, value in zip(block, sides, values):
            assert round_one(emb, w) == (tuple(side.view(np.uint8).tolist()), value)
            assert g.crossing_count(side) == value


def test_sdp_cut_memory_does_not_grow_with_repeats(monkeypatch):
    # every block is one row of 200,000 normals, and 4 or 40 repeats read
    # one generator. The triangle keeps every repeat's cut below m, so
    # sdp_cut draws all of them.
    monkeypatch.setattr(graphcore, "ROUND_CHUNK", 16)
    # the first sdp_cut in a process leaves a few bytes allocated (56 when
    # this test runs alone), so an untraced call comes first
    sdp_cut(Graph.from_edges(200_000, [(0, 1), (0, 2), (1, 2)]), None, 4, 3)
    peaks = []
    for repeats in (4, 40):
        g = Graph.from_edges(200_000, [(0, 1), (0, 2), (1, 2)])
        tracemalloc.start()
        try:
            sdp_cut(g, None, repeats, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] == peaks[1] < 20 * 2**20, peaks


def test_sdp_cut_stream_memory_is_bounded_per_pass():
    # the rows are drawn ROUND_CHUNK entries at a time from one generator,
    # so 16,384 repeats peak about as 4,096 do
    peaks = []
    for repeats in (4096, 16384):
        g = petersen()
        tracemalloc.start()
        try:
            sdp_cut(g, None, repeats, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < min(1.25 * peaks[0], 3 * 2**20), peaks


def test_round_induced_memory_on_many_small_blocks():
    # 5,000 three-vertex paths, each a block with its own rounding
    # generator: a run of induced_unions holds at most ROUND_CHUNK // 16
    # sets, so at most that many generators are alive at once (a peak of
    # about 3.8 MiB; runs bounded by vertices and edges alone hold 5,461
    # sets of 3 vertices and peak near 11 MiB)
    k = 5000
    g = Graph.from_edges(3 * k, [(3 * i + a, 3 * i + a + 1) for i in range(k) for a in (0, 1)])
    sets = [(np.arange(3 * i, 3 * i + 3), i) for i in range(k)]
    tracemalloc.start()
    try:
        values = [value for _, _, value, _, _ in round_induced(g, iter(sets), None, 32)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == [2] * k
    assert peak < 6 * 2**20, peak


def test_zero_and_nan_directions_land_as_before():
    g = petersen()
    emb = build_vectors(g, back_neighbor_plan(g, eps_cap(g)))
    zero = np.zeros(g.n)
    signed_zero = np.where(np.arange(g.n) % 2, -0.0, 0.0)
    with_nan = np.linspace(-1.0, 1.0, g.n)
    with_nan[3] = np.nan
    for w in (zero, signed_zero, with_nan):
        assert round_one(emb, w) == reference_hyperplane_round(emb, FixedDirection(w))
    assert round_one(emb, zero)[0] == (0,) * g.n


def zero_eps_plan(g: Graph, rng) -> EpsilonPlan:
    """``random_plan`` with eps_i = 0 on every other nonempty V_i."""
    plan = random_plan(g, rng)
    sets = plan_sets(plan)
    eps = tuple(0.0 if s and i % 2 else e for i, (s, e) in enumerate(zip(sets, plan.eps)))
    return EpsilonPlan.from_sets(sets, eps)


def directions(n: int, rng):
    gauss = rng.standard_normal(n)
    with_nan = rng.standard_normal(n)
    with_nan[:: max(1, n // 3)] = np.nan
    yield gauss
    yield np.zeros(n)
    yield np.where(np.arange(n) % 2, -0.0, 0.0)
    yield with_nan


@pytest.mark.parametrize("make_plan", [random_plan, zero_eps_plan])
def test_factored_sign_matches_term_by_term_sum(make_plan):
    rng = make_rng(17)
    for k in range(60):
        n = int(rng.integers(1, 50))
        g = gnp(n, float(rng.random()), seed=k)
        emb = build_vectors(g, make_plan(g, rng))
        for w in directions(n, rng):
            assert round_one(emb, w) == reference_hyperplane_round(emb, FixedDirection(w))


def test_nan_in_v_i_puts_i_on_side_1_even_at_zero_eps():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    emb = build_vectors(g, EpsilonPlan.from_sets((frozenset({1, 2, 3}),) + (frozenset(),) * 3, (0.0,) * 4))
    w = np.array([1.0, np.nan, 1.0, 1.0])
    assert round_one(emb, w)[0] == (1, 1, 0, 0)
    assert reference_hyperplane_round(emb, FixedDirection(w))[0] == (1, 1, 0, 0)


def test_first_rounding_memory_is_linear_and_small():
    # one pair per V_i entry and a few length-n arrays; a second copy of
    # every vector entry in per-slot rows peaked at 34 MB here
    g = Graph.from_edges(200_000, [])
    emb = build_vectors(g, back_neighbor_plan(g, 1.0))
    w = make_rng(3).standard_normal(g.n)
    tracemalloc.start()
    try:
        sides, _ = hyperplane_round(emb, w[None])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(sides[0], w < 0.0)
    assert peak < 12 * 2**20, peak


def skewed_graph() -> Graph:
    """A dense core (K_25) joined to a long sparse periphery: supports range
    from 1 to 25 entries, so a few V_i hold most of the pairs."""
    core = list(complete(25).edges)
    ring = random_regular(400, 3, seed=2)
    edges = core + [(u + 25, v + 25) for u, v in ring.edges]
    edges += [(v, 25 + 16 * v) for v in range(25)]
    return Graph.from_edges(425, edges)


def test_skewed_supports_match_reference():
    g = skewed_graph()
    cap = eps_cap(g)
    assert cap == 1.0 / math.sqrt(24)
    for eps in (cap, cap / 2.0):
        emb = build_vectors(g, back_neighbor_plan(g, eps))
        for k in range(8):
            w = make_rng(13, k).standard_normal(g.n)
            assert round_one(emb, w) == reference_hyperplane_round(emb, make_rng(13, k))
        cut, _ = sdp_cut(g, eps, 6, 4)
        assert (cut.side, cut.value) == reference_best_rounding(emb, 6, 4)


def test_edge_index_and_crossing_count():
    g = CORPUS["gnp90_3"]
    assert list(zip(g.eu.tolist(), g.ev.tolist())) == list(g.edges)
    side = [v % 3 == 0 for v in range(g.n)]
    assert g.crossing_count(np.array(side)) == cut_value(g, side).value
    assert type(g.crossing_count(np.array(side))) is int
    empty = Graph.from_edges(0, [])
    assert empty.crossing_count(np.zeros(0, dtype=bool)) == 0


@pytest.mark.parametrize("name", sorted(CORPUS) + ["many_blocks"])
@pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("repeats", [1, 5, 32, 33])
def test_max_t_cut_matches_reference(name, t, repeats):
    g = CORPUS.get(name, MANY_BLOCKS)
    base = cut_value(g, [(v * 7 + 3) % 5 < 2 for v in range(g.n)])
    rng_new, rng_ref = make_rng(5, t), make_rng(5, t)
    part, _ = max_t_cut(g, base, t, rng_new, repeats)
    ref_part, ref_value = reference_max_t_cut(g, base.side, t, rng_ref, repeats)
    assert part.part == ref_part
    assert part.value == ref_value
    assert all(type(q) is int for q in part.part)
    # both consumed the same draws
    assert rng_new.integers(0, 2**62) == rng_ref.integers(0, 2**62)


def test_max_t_cut_treats_any_nonzero_side_as_side_b():
    g = cycle(6)
    base = Cut((0, 2, 0, 5, 0, 1), 6)
    for t in (3, 4):
        part, _ = max_t_cut(g, base, t, make_rng(1), 4)
        ref = reference_max_t_cut(g, base.side, t, make_rng(1), 4)
        assert (part.part, part.value) == ref
