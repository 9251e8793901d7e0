"""Deterministic (max_degree + 1) edge coloring of simple graphs.

The coloring algorithm is the Misra & Gries refinement of Vizing's
constructive argument: repeatedly pick an uncolored edge, build a maximal
fan, flip a Kempe chain when the candidate color is blocked, and rotate the
fan. Every structural lemma the argument relies on is available as an
executable checker, and an exhaustive backtracking oracle provides exact
chromatic indices for small instances.
"""

from .altpath import (
    AltPath,
    check_path,
    invert,
    is_inverted,
    is_maximal_path,
    maximal_path,
)
from .coloring import (
    Color,
    EdgeColoring,
    Verdict,
    Violation,
    format_coloring,
    parse_coloring,
)
from .fan import Fan, check_fan, is_maximal_fan, maximal_fan, rotate_fan
from .graph import (
    FAMILIES,
    Graph,
    complete_graph,
    cycle_graph,
    format_dimacs,
    gen_family,
    gnp_graph,
    parse_dimacs,
    path_graph,
    petersen_graph,
    star_graph,
)
from .oracle import backtrack_color, exact_chromatic_index, verify_coloring
from .vizing import StepTrace, extend_coloring, find_subfan, mk_edge_coloring

from . import errors

__all__ = [
    "AltPath",
    "Color",
    "EdgeColoring",
    "FAMILIES",
    "Fan",
    "Graph",
    "StepTrace",
    "Verdict",
    "Violation",
    "backtrack_color",
    "check_fan",
    "check_path",
    "complete_graph",
    "cycle_graph",
    "errors",
    "exact_chromatic_index",
    "extend_coloring",
    "find_subfan",
    "format_coloring",
    "format_dimacs",
    "gen_family",
    "gnp_graph",
    "invert",
    "is_inverted",
    "is_maximal_fan",
    "is_maximal_path",
    "maximal_fan",
    "maximal_path",
    "mk_edge_coloring",
    "parse_coloring",
    "parse_dimacs",
    "path_graph",
    "petersen_graph",
    "rotate_fan",
    "star_graph",
    "verify_coloring",
]
