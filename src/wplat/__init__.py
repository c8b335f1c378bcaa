"""wplat: exact arithmetic for the lattice of weighted (layered) set
partitions — transform numbers, Möbius/Whitney invariants, edge-labeling
verification, and the bijections with trees and diagrams.

Importing the package loads none of its modules: each exported name, and
each module ``wplat.<module>``, is imported on first access (PEP 562), so a
command that needs only the numbers never loads the poset code.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"


class GuardExceeded(RuntimeError):
    """The size guard refuses the request (too large, or a bad WPLAT_GUARD)."""


class RouteMismatch(AssertionError):
    """Two independent routes to the same numbers disagree; the message names
    both values, and the command line reports it as exit 1."""


DEFAULT_GUARD = 200_000


def _guard_limit(guard: int | None) -> int:
    """The size guard's limit: ``guard``, else WPLAT_GUARD (an integer), else
    DEFAULT_GUARD; a WPLAT_GUARD that is no integer, or is negative, raises
    :class:`GuardExceeded`."""
    if guard is not None:
        return guard
    import os

    setting = os.environ.get("WPLAT_GUARD", str(DEFAULT_GUARD))
    try:
        limit = int(setting)
    except ValueError:
        raise GuardExceeded(f"WPLAT_GUARD must be an integer, got {setting!r}") from None
    if limit < 0:
        raise GuardExceeded(f"WPLAT_GUARD must be a non-negative integer, got {setting!r}")
    return limit


# module -> the names it exports through the package
_EXPORTS = {
    "series": ("BivariateSeries", "SeriesError", "exp_k_xy", "log_k_xy",
               "series_exp", "series_log", "series_pow_y"),
    "stirling": ("T_def", "T_rec_split", "bell", "bell_row", "elem_sym_spec",
                 "stirling1", "stirling2", "t_def", "t_rec_elem_sym",
                 "t_rec_first_column", "t_rec_split"),
    "wpartition": ("InvalidPartition", "OneLineParseError", "WeightedPartition",
                   "bottom", "edge_set", "edge_set_inverse", "enumerate_all",
                   "enumerate_by_blocks", "enumerate_tree_shapes",
                   "from_rooted_tree", "one_line_parse", "one_line_print",
                   "to_rooted_tree", "tree_class_size", "tree_shape", "validate"),
    "lattice": ("TOP", "CoverLabel", "Poset", "admissible_covers", "build_poset",
                "char_poly_product", "char_poly_roots", "char_poly_summation",
                "hasse_dot", "mobius_closed_form", "paper_join", "paper_meet",
                "structural_checks"),
    "chains": ("LBT", "CycleDiagram", "apply_chain", "chain_to_lbt",
               "diagram_to_decreasing_chain", "enumerate_colorings",
               "enumerate_cycle_diagrams", "enumerate_lbt", "i_of_sigma",
               "lbt_check", "lbt_to_chain", "t_via_diagrams", "wt_k"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = (*_EXPORTS, "cli")

__all__ = ["GuardExceeded", "RouteMismatch", *_HOMES]


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOMES:
        # read through the module each time, so that a replaced attribute shows
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
