"""Deterministic (max_degree + 1) edge coloring of simple graphs.

The coloring algorithm is the Misra & Gries refinement of Vizing's
constructive argument: repeatedly pick an uncolored edge, build a maximal
fan, flip a Kempe chain when the candidate color is blocked, and rotate the
fan. Every structural lemma the argument relies on is available as an
executable checker, and an exhaustive backtracking oracle provides exact
chromatic indices for small instances.

Every public name imports from here, but each module is imported on first
use (PEP 562), so `import mgcolor` alone compiles none of them.
"""

# Each public name under the module that defines it; `errors` is exported
# as the module itself.
_PUBLIC = {
    "altpath": ("AltPath", "check_path", "invert", "is_maximal_path", "maximal_path"),
    "certify": ("Verdict", "Violation"),
    "coloring": ("Color", "EdgeColoring"),
    "errors": (),
    "fan": ("Fan", "check_fan", "is_maximal_fan", "maximal_fan", "rotate_fan"),
    "formats": ("format_coloring", "parse_coloring"),
    "graph": (
        "FAMILIES", "Graph", "complete_graph", "cycle_graph", "format_dimacs",
        "gen_family", "gnp_graph", "parse_dimacs", "path_graph",
        "petersen_graph", "star_graph",
    ),
    "oracle": ("backtrack_color", "exact_chromatic_index", "verify_coloring"),
    "vizing": ("StepTrace", "extend_coloring", "find_subfan", "mk_edge_coloring"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_HOME, "errors"])


def __getattr__(name: str) -> object:
    # A submodule's name resolves to the submodule, as after an import.
    module = _HOME.get(name, name)
    if module not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
