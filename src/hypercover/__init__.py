"""Coverings and partitions of r-uniform hypergraphs by complete r-partite
blocks: explicit constructions, exact brute-force oracles, closed-form lower
bounds, a derandomized independent-set extractor, and GF(2) rank certificates.
"""

from .core import (
    Cover,
    GuardError,
    Hypergraph,
    MultiplicityList,
    MultiplicityProfile,
    RPartiteBlock,
    VerifyResult,
    complete_hypergraph,
    cover_from_json,
    cover_to_json,
    hypergraph_from_json,
    hypergraph_to_json,
    induced_subhypergraph,
    multiplicity_profile,
    verify_cover,
    verify_partition,
)
from .grids import grid3_cover, hex_cover, log_cover, star_partition
from .cube import (
    CubeGraph,
    LabelBlock,
    block_count_by_recurrence,
    check_gamma_closed_form,
    cube_graph,
    floor_e_minus_one_factorial,
    label_partition,
    label_table,
    pi_partition,
    pinto_upper_bound,
)
from .gf2 import (
    GF2Matrix,
    adjacency_cube_matrix,
    disjointness_matrix,
    disjointness_matrix_upto,
    gf2_rank,
    partition_lower_bound,
    rank_bound_from_cover,
)
from .bounds import (
    ExtractionResult,
    PeelResult,
    cover_incidence,
    derandomized_extraction,
    independent_matchings_lower_bound,
    inertia,
    is_proper_coloring,
    ks_chromatic_lower_bound,
    ks_order_lower_bound,
    link_lower_bound,
    matching_cover_lower_bound,
    peel_coloring,
    sum_of_orders,
    survivor_guarantee,
)
from .oracles import (
    SearchBudget,
    SearchOutcome,
    chromatic_number,
    enumerate_blocks,
    independence_number,
    matching_number,
    min_cover_size,
    min_partition_size,
    min_sum_of_orders,
)

__version__ = "0.1.0"
