"""certcut: graph cuts with exact-expectation certificates.

Explicit SDP-feasible embeddings with hyperplane rounding, triangle-sparse
decompositions of degenerate graphs, Ramsey/coloring cuts, Max-t-Cut
splitting, and exhaustive desk-scale oracles, each returning a cut together
with a deterministically computed lower bound on its expected value.
"""

from .chromatic import (
    Coloring,
    TPartition,
    coloring_class_bound,
    coloring_cut,
    kr_free_coloring,
    max_t_cut,
    ramsey_independent_set,
    t_cut_expected_value,
)
from .decompose import (
    Decomposition,
    combine_subcuts,
    composite_cut,
    extend_cut,
    extend_cuts,
    find_dense_subset,
    greedy_half_cut,
    kr_cut,
    partition_triangle_sparse,
    sampled_sdp_cut,
)
from .embedding import (
    CutCertificate,
    Embedding,
    EpsilonPlan,
    back_neighbor_plan,
    build_vectors,
    exact_expected_cut,
    hyperplane_round,
    plan_lower_bound,
    sdp_cut,
)
from .generators import (
    GenSpec,
    blowup,
    complete,
    complete_bipartite,
    cycle,
    disjoint_cliques,
    family,
    gnp,
    make_cr_free,
    path,
    petersen,
    random_bipartite,
    random_regular,
    star,
    turan,
)
from .graphcore import (
    Cut,
    DegeneracyOrder,
    Graph,
    back_pairs,
    count_back_triangles,
    count_triangles,
    cut_value,
    degeneracy_order,
    edwards_bound,
    find_clique,
    induced_subgraph,
    triangle_edges,
    triangle_list,
)
from .harness import RunReport, format_edge_list, parse_graph
from .oracle import OracleBudget, max_cut_exact, max_t_cut_exact, monte_carlo_cut_mean
from ._rng import make_rng

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
