"""The public surface and the names the benchmark's tracer wraps."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import mgcolor

PUBLIC = [
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

# Debug checks live in the main loop; no building block has its own switch.
TAKES_DEBUG = ["extend_coloring", "mk_edge_coloring"]

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_public_names():
    assert sorted(mgcolor.__all__) == sorted(PUBLIC)
    for name in mgcolor.__all__:
        assert getattr(mgcolor, name) is not None


def test_only_the_main_loop_takes_debug():
    takers = []
    for name in mgcolor.__all__:
        obj = getattr(mgcolor, name)
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                        if callable(fn) and not attr.startswith("__")]
        for label, fn in members:
            if callable(fn) and "debug" in inspect.signature(fn).parameters:
                takers.append(label)
    assert sorted(takers) == TAKES_DEBUG


def test_trace_targets_resolve():
    # The tracer records a name it cannot find as missing and carries on,
    # so a rename would silently drop that name's per-layer metrics.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for label, modname, qualname, _observe in tracing.TARGETS:
        owner = importlib.import_module(modname)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
        assert callable(vars(owner).get(attr)), label
