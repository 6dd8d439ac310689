import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcut import cli, decompose, embedding, graphcore
from certcut._rng import make_rng
from certcut.chromatic import coloring_cut, kr_free_coloring
from certcut.decompose import (
    combine_subcuts,
    composite_cut,
    extend_cut,
    extend_cuts,
    find_dense_subset,
    greedy_half_cut,
    kr_cut,
    partition_triangle_sparse,
    round_induced,
    sampled_sdp_cut,
)
from certcut.embedding import default_eps, exact_expected_cut, sdp_cut
from certcut.errors import (
    EpsilonTooLarge,
    InvalidParameter,
    NotACutOfInducedSubgraph,
    NotAPartition,
    NotEnoughTriangles,
    NotKrFree,
    OutOfRangeVertex,
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
    find_clique,
    induced_subgraph,
)
from certcut.oracle import max_cut_exact
from certcut.verify import decomposition_invariants
from conftest import graphs
from test_golden import instance as golden_instance
from oracles import brute_max_cut, reference_combine_subcuts, reference_sampled_sdp_cut, rows


def exact_subsolver():
    return lambda g, parts: [max_cut_exact(induced_subgraph(g, part)[0]) for part in parts]


def sdp_subsolver(seed=0):
    return lambda g, parts: [
        sdp_cut(induced_subgraph(g, part)[0], None, 8, seed)[0] for part in parts
    ]


class TestFindDenseSubset:
    def test_k4_trace(self):
        g = complete(4)
        dense, witness = find_dense_subset(g, degeneracy_order(g), 2.0)
        assert dense.tolist() == [2, 3] and witness == 1
        sub, _ = induced_subgraph(g, dense)
        assert sub.m * 2.0 >= len(dense)
        assert set(dense.tolist()) <= set(rows(g)[witness])

    def test_triangle_free_raises(self):
        g = petersen()
        with pytest.raises(NotEnoughTriangles):
            find_dense_subset(g, degeneracy_order(g), 10.0)

    def test_two_disjoint_k4s_first_component_scanned(self):
        g = disjoint_cliques(2, 4)
        dense, witness = find_dense_subset(g, degeneracy_order(g), 2.0)
        assert dense.tolist() == [6, 7] and witness == 5

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0])
    def test_refuses_eps_not_positive(self, eps):
        g = complete(4)
        with pytest.raises(InvalidParameter, match="eps must be positive"):
            find_dense_subset(g, degeneracy_order(g), eps)


class TestPartitionTriangleSparse:
    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0])
    def test_refuses_eps_not_positive(self, eps):
        # a ValueError too, for callers that caught the old refusal
        with pytest.raises(InvalidParameter, match="eps must be positive"):
            partition_triangle_sparse(complete(4), eps)
        with pytest.raises(ValueError):
            partition_triangle_sparse(complete(4), eps)

    def test_triangle_free_keeps_everything(self):
        decomp = partition_triangle_sparse(petersen(), 1.0)
        assert decomp.parts == () and decomp.remainder.tolist() == list(range(10))

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
        assert decomp.parts == () and decomp.remainder.tolist() == []

    @given(graphs(max_n=14), st.sampled_from([0.25, 1.0, 4.0, 16.0]))
    @settings(deadline=None, max_examples=80)
    def test_parts_and_remainder_are_sorted_disjoint_arrays_covering_the_graph(self, g, eps):
        decomp = partition_triangle_sparse(g, eps)
        blocks = [*decomp.parts, decomp.remainder]
        for ids in blocks:
            assert ids.dtype == np.intp and not ids.flags.writeable
            assert ids.tolist() == sorted(set(ids.tolist()))
        assert sorted(v for ids in blocks for v in ids.tolist()) == list(range(g.n))


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

    @given(graphs(max_n=14), st.data())
    @settings(deadline=None, max_examples=80)
    def test_sides_match_the_per_vertex_merge(self, g, data):
        block_of = data.draw(st.lists(st.integers(0, 7), min_size=g.n, max_size=g.n))
        blocks = []
        for b in data.draw(st.permutations(sorted(set(block_of)))):
            vs = [v for v in range(g.n) if block_of[v] == b]
            blocks.append((vs, labeled_cut(data, g, vs)))
        cut, cert = combine_subcuts(g, blocks)
        assert cut.side == reference_combine_subcuts(g, blocks)
        assert cut.value >= cert.expected_value

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


# (blocks, error type, message) on cycle(4), whose edges are 01, 12, 23, 03
BAD_BLOCKS = [
    ([({0, 1}, Cut((0, 1), 1)), ({1, 2, 3}, Cut((0, 1, 0), 2))], NotAPartition, "blocks overlap"),
    ([({0, 1}, Cut((0, 1), 1))], NotAPartition, "blocks do not cover the vertex set"),
    ([({0, 1}, Cut((0, 1), 1)), ({2, 3, 4}, Cut((0, 1, 0), 1))], NotAPartition,
     "blocks do not cover the vertex set"),
    ([({0, 1}, Cut((0, 1, 0), 1)), ({2, 3}, Cut((0, 1), 1))], NotACutOfInducedSubgraph,
     "cut labels 3 vertices, induced subgraph has 2"),
    ([({0, 1}, Cut((0, 1), 1)), ({2, 3}, Cut((0, 1), 0))], NotACutOfInducedSubgraph,
     "cut claims value 0, recount gives 1"),
    ([({0, 1}, Cut((0, 2), 1)), ({2, 3}, Cut((0, 1), 1))], ValueError, "labels must be 0 or 1"),
]

# (u, cut of the subgraph induced by u, error type, message) on cycle(4)
BAD_EXTENSIONS = [
    ({0, 4}, Cut((0, 1), 0), OutOfRangeVertex, "vertex set not contained in [0, 4)"),
    ({0, 1}, Cut((0, 1, 0), 1), NotACutOfInducedSubgraph,
     "cut labels 3 vertices, induced subgraph has 2"),
    ({0, 1}, Cut((0, 1), 5), NotACutOfInducedSubgraph, "cut claims value 5, recount gives 1"),
    ({0, 1}, Cut((0, 2), 1), ValueError, "labels must be 0 or 1"),
]


class TestBadBlocks:
    @pytest.mark.parametrize("blocks,error,message", BAD_BLOCKS)
    def test_combine_subcuts_refuses(self, blocks, error, message):
        with pytest.raises(error) as err:
            combine_subcuts(cycle(4), blocks)
        assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("u,cut,error,message", BAD_EXTENSIONS)
    def test_extend_cut_refuses(self, u, cut, error, message):
        with pytest.raises(error) as err:
            extend_cut(cycle(4), u, cut)
        assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("side", [(0, 0.5), (0.9, 1.2)])
    def test_non_integral_labels_are_refused_not_truncated(self, side):
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            combine_subcuts(cycle(4), [({0, 1}, Cut(side, 1)), ({2, 3}, Cut((0, 1), 1))])
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            extend_cut(cycle(4), {0, 1}, Cut(side, 1))

    def test_non_integral_id_is_refused(self):
        with pytest.raises(NotAPartition, match="^blocks do not cover the vertex set$"):
            combine_subcuts(cycle(4), [([0, 1.5], Cut((0, 1), 0)), ({1, 2, 3}, Cut((0, 1, 0), 2))])
        with pytest.raises(OutOfRangeVertex, match="^vertex ids must be integers$"):
            extend_cut(cycle(4), [0, 1.5], Cut((0, 1), 0))

    def test_repeated_ids_name_one_vertex(self):
        cut, cert = extend_cut(cycle(4), [1, 0, 1], Cut((0, 1), 1))
        assert cut.value == 4 and cert.expected_value == 2.5


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


def random_part_cuts(g: Graph, count: int, seed: int):
    """``count`` random vertex sets of ``g``, some empty or whole, and a
    random cut of the subgraph each induces."""
    rng = make_rng(seed, 7)
    parts, cuts = [], []
    for _ in range(count):
        part = np.flatnonzero(rng.random(g.n) < rng.choice([0.0, 0.1, 0.5, 0.9, 1.0]))
        sub, _ = induced_subgraph(g, part)
        parts.append(part)
        cuts.append(cut_value(sub, rng.integers(0, 2, size=sub.n)))
    return parts, cuts


def assert_rows_are_extend_cut(g: Graph, parts, cuts):
    sides, values = extend_cuts(g, parts, cuts)
    assert sides.dtype == np.uint8 and sides.shape == (len(cuts), g.n)
    assert len(values) == len(cuts) and all(type(v) is int for v in values)
    for side, value, part, cut in zip(sides, values, parts, cuts):
        want, _ = extend_cut(g, part, cut)
        assert (tuple(side.tolist()), value) == (want.side, want.value)


class TestExtendCuts:
    @given(graphs(max_n=14), st.sampled_from([1, 2, 31, 32, 33]), st.integers(0, 2**32))
    @settings(deadline=None, max_examples=60)
    def test_every_row_is_extend_cut(self, g, count, seed):
        assert_rows_are_extend_cut(g, *random_part_cuts(g, count, seed))

    @pytest.mark.parametrize("count", [1, 2, 32, 33])
    def test_random_graphs(self, count):
        for seed in range(4):
            g = gnp(60, 0.15, seed)
            assert_rows_are_extend_cut(g, *random_part_cuts(g, count, seed))

    def test_empty_and_whole_parts(self):
        g = gnp(30, 0.3, 4)
        whole = cut_value(g, [v % 2 for v in range(g.n)])
        parts = [(), range(g.n), [3, 4], (), range(g.n)]
        pair = cut_value(induced_subgraph(g, [3, 4])[0], (0, 1))
        cuts = [Cut((), 0), whole, pair, Cut((), 0), whole]
        assert_rows_are_extend_cut(g, parts, cuts)
        sides, values = extend_cuts(g, parts, cuts)
        assert tuple(sides[1].tolist()) == whole.side and values[1] == whole.value

    def test_no_cuts(self):
        sides, values = extend_cuts(cycle(5), [], [])
        assert sides.shape == (0, 5) and values == []
        assert extend_cuts(Graph.from_edges(0, []), [()], [Cut((), 0)])[0].shape == (1, 0)

    @pytest.mark.parametrize("leaves", [127, 128])
    def test_lane_width_changes_at_degree_128(self, leaves):
        # the hub counts up to every leaf on one side: 127 fits 8-bit lane
        # halves, 128 needs 9 bits
        g = star(leaves)
        leaves_only = range(1, leaves + 1)
        parts = [leaves_only, leaves_only, leaves_only, range(1, leaves), [0, 1]]
        cuts = [Cut((0,) * leaves, 0), Cut((1,) * leaves, 0),
                Cut((0,) * (leaves // 2) + (1,) * (leaves - leaves // 2), 0),
                Cut((1,) * (leaves - 1), 0), Cut((0, 1), 1)]
        assert_rows_are_extend_cut(g, parts * 7, cuts * 7)
        sides, _ = extend_cuts(g, parts, cuts)
        assert sides[:3, 0].tolist() == [1, 0, 0]

    @pytest.mark.parametrize("chunk", [1, 40, 200])
    def test_row_and_vertex_blocks(self, monkeypatch, chunk):
        # a small chunk checks, reads and counts the rows in many blocks
        monkeypatch.setattr(graphcore, "ROUND_CHUNK", chunk)
        g = gnp(50, 0.1, 2)
        assert_rows_are_extend_cut(g, *random_part_cuts(g, 33, 5))

    @pytest.mark.parametrize("u,cut,error,message", BAD_EXTENSIONS)
    @pytest.mark.parametrize("at", [0, 1, 32])
    def test_refuses_like_extend_cut(self, u, cut, error, message, at):
        parts, cuts = [{2, 3}] * 33, [Cut((0, 1), 1)] * 33
        parts[at], cuts[at] = u, cut
        with pytest.raises(error) as err:
            extend_cuts(cycle(4), parts, cuts)
        assert type(err.value) is error and str(err.value) == message

    def test_refuses_bad_ids_and_labels_like_extend_cut(self):
        with pytest.raises(OutOfRangeVertex, match="^vertex ids must be integers$"):
            extend_cuts(cycle(4), [{2, 3}, [0, 1.5]], [Cut((0, 1), 1), Cut((0, 1), 0)])
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            extend_cuts(cycle(4), [{2, 3}, {0, 1}], [Cut((0, 1), 1), Cut((0, 0.5), 1)])
        with pytest.raises(InvalidParameter, match="^1 cuts for 2 vertex sets$"):
            extend_cuts(cycle(4), [{2, 3}, {0, 1}], [Cut((0, 1), 1)])

    def test_repeated_ids_name_one_vertex(self):
        sides, values = extend_cuts(cycle(4), [[1, 0, 1]], [Cut((0, 1), 1)])
        assert values == [4] and sides[0].tolist() == [0, 1, 0, 1]


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


@pytest.mark.parametrize("name", ["turan-60-3", "gnp-120-0.3"])
@pytest.mark.parametrize("repeats", [1, 8, 32])
def test_round_induced_gives_each_part_its_own_sdp_cut(name, repeats):
    g = golden_instance(name)
    parts = partition_triangle_sparse(g, 8 * default_eps(g)).parts
    assert len(parts) > 1
    rounded = list(round_induced(g, [(part, 5) for part in parts], None, repeats))
    assert len(rounded) == len(parts)
    for part, (ids, labels, value, emb, edges) in zip(parts, rounded):
        alone, cert = sdp_cut(induced_subgraph(g, part)[0], None, repeats, 5)
        assert ids.tolist() == part.tolist()
        assert (tuple(labels.tolist()), value) == (alone.side, alone.value)
        # the part's slice of its union's certificate is its own
        assert exact_expected_cut(emb).per_edge_terms[edges] == cert.per_edge_terms


def _counted_rounding(monkeypatch):
    """Record every certified embedding's graph, and every graph that
    ``round_induced`` rounds."""
    certified, unions = [], []
    certify, round_blocks = embedding.exact_expected_cut, decompose.sdp_cuts

    def counted(emb):
        certified.append(emb.graph)
        return certify(emb)

    for module in (embedding, decompose):
        monkeypatch.setattr(module, "exact_expected_cut", counted)
    monkeypatch.setattr(decompose, "sdp_cuts", lambda union, *rest: unions.append(union) or round_blocks(union, *rest))
    return certified, unions


CERTIFIED = {
    "sdp": lambda g: sdp_cut(g, None, 8, 1),
    "composite": lambda g: composite_cut(g, default_eps(g), repeats=8, seed=1),
    "kr4": lambda g: kr_cut(g, 4, repeats=8, seed=1),
    # every sample is the whole graph, so each rounds alone, and all three
    # share the one certificate of g
    "sampled_whole": lambda g: sampled_sdp_cut(g, p=1.0, rng=make_rng(2), repeats=3),
    # 40 samples of a tenth, side by side in unions (of at most 40 vertices
    # and edges, below)
    "sampled_batched": lambda g: sampled_sdp_cut(g, p=0.1, rng=make_rng(2), repeats=40),
    # the t-cut's base is rounded on the whole graph and never certified
    "tcut": lambda g: cli.run_cut_algorithm(g, "tcut", seed=1, epsilon="auto", repeats=8,
                                            r=3, t=3, p=None, max_vertices=None),
}


@pytest.mark.parametrize("algo", list(CERTIFIED))
def test_each_reported_certificate_is_computed_once(monkeypatch, algo):
    # composite and kr round their parts and remainder uncertified and
    # certify the whole graph; sampled certifies each union graph it rounds
    # once, and at p = 1 every union is g
    g = golden_instance("turan-60-3")
    assert partition_triangle_sparse(g, 8 * default_eps(g)).parts
    certified, unions = _counted_rounding(monkeypatch)
    if algo == "sampled_batched":
        monkeypatch.setattr(graphcore, "ROUND_CHUNK", 40)
    CERTIFIED[algo](g)
    if algo == "sampled_whole":
        assert len(certified) == 1 and certified[0] is g
        assert len(unions) == 3 and all(union is g for union in unions)
    elif algo == "sampled_batched":
        assert list(map(id, certified)) == list(map(id, unions))
        assert 3 < len(unions) < 40
    elif algo == "tcut":
        assert certified == [] and unions == []
    else:
        assert len(certified) == 1 and certified[0] is g
        assert len(unions) == (0 if algo == "sdp" else 2)


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
            if find_clique(g, r) is not None:
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


def assert_sampled_matches_reference(g, p, repeats, seed, eps=None):
    """Same cut, same certificate repr, and the same draws from ``rng``."""
    rng, ref_rng = make_rng(seed), make_rng(seed)
    cut, cert = sampled_sdp_cut(g, p=p, eps=eps, rng=rng, repeats=repeats)
    ref_cut, ref_cert = reference_sampled_sdp_cut(g, p=p, eps=eps, rng=ref_rng, repeats=repeats)
    assert cut == ref_cut
    assert repr(cert) == repr(ref_cert)
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


@given(graphs(max_n=14), st.sampled_from([1e-12, 0.1, 0.5, 1.0]), st.sampled_from([1, 3, 32, 40]),
       st.integers(0, 2**32))
@settings(deadline=None, max_examples=60)
def test_sampled_sdp_cut_matches_one_sample_at_a_time(g, p, repeats, seed):
    assert_sampled_matches_reference(g, p, repeats, seed)


def count_groups(monkeypatch) -> list[int]:
    """Wrap ``decompose.induced_unions``; the list gets each group's size."""
    sizes, unions = [], decompose.induced_unions

    def counting(g, sets):
        for union, parts in unions(g, sets):
            sizes.append(len(parts))
            yield union, parts

    monkeypatch.setattr(decompose, "induced_unions", counting)
    return sizes


@pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
def test_sampled_samples_split_across_groups(monkeypatch, p):
    # a 40-entry chunk holds a few samples of gnp(30, 0.2) at most, so the
    # 40 samples take many groups, some of one sample
    monkeypatch.setattr(graphcore, "ROUND_CHUNK", 40)
    groups = count_groups(monkeypatch)
    g = gnp(30, 0.2, seed=4)
    for seed in (0, 1):
        assert_sampled_matches_reference(g, p, 40, seed)
    assert sum(groups) == 80 and len(groups) > 4
    assert_sampled_matches_reference(g, p, 7, 2, eps=0.5 * default_eps(g))


def test_sampled_groups_fill_the_rounding_chunk(monkeypatch):
    groups = count_groups(monkeypatch)
    sampled_sdp_cut(gnp(200, 0.02, seed=1), p=0.1, rng=make_rng(3))
    assert groups == [32]


def test_sampled_sdp_cut_memory_stays_flat_on_whole_samples():
    # p = 1 keeps every vertex, so each sample rounds alone on the graph
    # itself; rounding 8 samples of 20,000 vertices side by side peaked at
    # 160 MB
    g = Graph.from_edges(20_000, random_regular(200, 3, seed=6).edges)
    peaks = []
    for repeats in (2, 8):
        tracemalloc.start()
        try:
            sampled_sdp_cut(g, p=1.0, rng=make_rng(4), repeats=repeats)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4 * 2**20, peaks


def test_sampled_sdp_cut_memory_is_flat_in_repeats():
    # samples are extended EXTEND_BATCH at a time, so three times the
    # repeats keeps the peak of one batch; most vertices are isolated, which
    # keeps the traced sweep short
    g = Graph.from_edges(20_000, random_regular(2000, 3, seed=6).edges)
    peaks = []
    for repeats in (32, 96):
        tracemalloc.start()
        try:
            sampled_sdp_cut(g, p=0.1, rng=make_rng(4), repeats=repeats)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


@pytest.mark.parametrize("eps", [math.nan, 0.0, 0.9])
@pytest.mark.parametrize("solve", [
    lambda g, eps: composite_cut(g, eps, exact_subsolver()),
    lambda g, eps: sampled_sdp_cut(g, p=1.0, eps=eps, rng=make_rng(0), repeats=1),
], ids=["composite", "sampled"])
def test_constant_epsilon_is_checked_up_front(solve, eps):
    # complete(5) has degeneracy 4, so the cap is 1/2
    with pytest.raises(EpsilonTooLarge):
        solve(complete(5), eps)


def labeled_cut(data, g, vs):
    """Cut of the subgraph induced by ``vs`` with drawn labels."""
    sub, _ = induced_subgraph(g, vs)
    return cut_value(sub, data.draw(st.lists(st.integers(0, 1), min_size=sub.n, max_size=sub.n)))


@given(graphs(), st.data())
@settings(deadline=None, max_examples=60)
def test_derandomized_cuts_meet_their_certificates(g, data):
    """Every derandomized procedure returns value >= certificate, with zero
    tolerance: greedy extension, greedy block combination, and the class
    split of a clique-free coloring."""
    results = [greedy_half_cut(g)]
    u = sorted(data.draw(st.sets(st.integers(0, g.n - 1))))
    results.append(extend_cut(g, u, labeled_cut(data, g, u)))
    block_of = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    blocks = []
    for b in sorted(set(block_of)):
        vs = [v for v in range(g.n) if block_of[v] == b]
        blocks.append((vs, labeled_cut(data, g, vs)))
    results.append(combine_subcuts(g, blocks))
    r = 2
    while find_clique(g, r) is not None:
        r += 1
    results.append(coloring_cut(g, kr_free_coloring(g, r)))
    for cut, cert in results:
        assert cut.value >= cert.expected_value
