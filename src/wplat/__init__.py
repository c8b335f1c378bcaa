"""wplat: exact arithmetic for the lattice of weighted (layered) set
partitions — transform numbers, Möbius/Whitney invariants, edge-labeling
verification, and the bijections with trees and diagrams."""

from .series import (
    BivariateSeries,
    SeriesError,
    exp_k_xy,
    log_k_xy,
    series_exp,
    series_log,
    series_pow_y,
)
from .stirling import (
    T_def,
    T_rec_split,
    bell,
    bell_row,
    elem_sym_spec,
    f_lambda,
    g_lambda,
    partitions,
    stirling1,
    stirling2,
    t_def,
    t_rec_elem_sym,
    t_rec_first_column,
    t_rec_split,
)
from .wpartition import (
    InvalidPartition,
    OneLineParseError,
    WeightedPartition,
    bottom,
    edge_set,
    edge_set_inverse,
    enumerate_all,
    enumerate_by_blocks,
    enumerate_tree_shapes,
    from_rooted_tree,
    one_line_parse,
    one_line_print,
    to_rooted_tree,
    tree_class_size,
    tree_shape,
    validate,
)
from .lattice import (
    TOP,
    CoverLabel,
    GuardExceeded,
    Poset,
    admissible_covers,
    build_poset,
    char_poly_product,
    char_poly_roots,
    char_poly_summation,
    hasse_dot,
    mobius_closed_form,
    paper_join,
    paper_meet,
    structural_checks,
)
from .chains import (
    LBT,
    CycleDiagram,
    apply_chain,
    chain_to_lbt,
    diagram_to_decreasing_chain,
    enumerate_colorings,
    enumerate_cycle_diagrams,
    enumerate_lbt,
    i_of_sigma,
    lbt_check,
    lbt_leaves,
    lbt_to_chain,
    t_via_diagrams,
    wt_k,
)

__version__ = "0.1.0"
