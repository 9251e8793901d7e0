"""The public surface and the names the benchmark's tracer wraps."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

# Functions that no code in `src/` refers to, each with its reason.
NO_SRC_CALLER = {
    # perfbench/tracing.py wraps `EdgeColoring.copy` for `coloring.copy.s`.
    "copy",
    # The library's validated writer, which perfbench/tracing.py wraps for
    # `coloring.set_edge_color.calls`; the exact oracle, its last caller in
    # `src/`, returns its witness as a tuple of colors.
    "set_edge_color",
    # The library's reader and checker of a coloring as an `EdgeColoring`,
    # which perfbench/tracing.py wraps for `coloring.parse_coloring.s` and
    # `oracle.verify_coloring.s`. `check`, their last caller in `src/`,
    # reads a file's edge maps and judges them with `certify`, never
    # loading `coloring.py`.
    "parse_coloring",
    "verify_coloring",
}


def test_public_names():
    assert sorted(mgcolor.__all__) == sorted(PUBLIC)
    for name in mgcolor.__all__:
        assert getattr(mgcolor, name) is not None


def test_every_function_in_src_is_referred_to_in_src():
    # A helper only tests call belongs in the tests. A reference is a name
    # or an attribute in code; a function's own `def` is neither, and a
    # string such as an export list does not count.
    defined, referred = set(), set()
    for path in Path(mgcolor.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    dunder = {name for name in defined if name.startswith("__") and name.endswith("__")}
    assert sorted(defined - dunder - referred) == sorted(NO_SRC_CALLER)


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


def test_the_checker_imports_none_of_the_code_it_checks():
    # `certify` judges the algorithm's output, so it stands apart from the
    # table, the kernels and the loop: it may import `graph`, `errors` and
    # the standard library, for type checks too.
    tree = ast.parse((Path(mgcolor.__file__).parent / "certify.py").read_text())
    sources = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            sources.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ["mgcolor"] * (node.level > 0) + [node.module] * bool(node.module)
            sources.add(".".join(base))
            sources.update(".".join([*base, alias.name]) for alias in node.names)
    package = {s.split(".")[1] for s in sources if s.startswith("mgcolor.")}
    assert package <= {"graph", "errors"}
    assert {s.split(".")[0] for s in sources} - {"mgcolor"} <= sys.stdlib_module_names


@pytest.mark.parametrize("first", ["formats", "coloring"])
def test_the_format_functions_are_one_pair_whichever_module_loads_first(first):
    # `coloring` imports `formats` at its end, so `formats` must not need
    # a finished `coloring` at import time.
    code = (
        f"import mgcolor.{first}; from mgcolor import coloring, formats; "
        "print(coloring.parse_coloring is formats.parse_coloring, "
        "coloring.format_coloring is formats.format_coloring)"
    )
    env = {**os.environ, "PYTHONPATH": str(TRACING.parent.parent / "src")}
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
    assert child.stdout.split() == ["True", "True"]


def test_a_color_run_loads_every_module_the_tracer_wraps(tmp_path):
    # The CLI imports each command's modules on first use, and the tracer
    # records a target whose module is not loaded when it installs as
    # missing. The bench's first operation is an untraced `color`, so that
    # run has to load every module the tracer wraps.
    gfile = tmp_path / "g.gr"
    gfile.write_text(mgcolor.format_dimacs(mgcolor.gnp_graph(12, 0.4, seed=1)))
    code = f"""
import importlib.util, sys
from mgcolor import cli
assert cli.main(["color", {str(gfile)!r}, "-o", {str(tmp_path / "g.col")!r}]) == 0
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
print(sorted({{modname for _, modname, _, _ in tracing.TARGETS}} - sys.modules.keys()))
"""
    env = {**os.environ, "PYTHONPATH": str(TRACING.parent.parent / "src")}
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
    assert child.stdout.splitlines()[-1] == "[]"  # after the summary line


def test_the_loop_calls_each_building_block_by_its_bound_name(monkeypatch):
    # The tracer times a block by wrapping the name `vizing` binds; a loop
    # that stopped calling a name would zero that block's metrics silently.
    from mgcolor import EdgeColoring, gnp_graph, mk_edge_coloring, vizing

    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("maximal_fan", "rotate_fan", "maximal_path", "find_subfan", "invert"):
        monkeypatch.setattr(vizing, name, counted(name, getattr(vizing, name)))
    monkeypatch.setattr(EdgeColoring, "min_free_color",
                        counted("min_free_color", EdgeColoring.min_free_color))
    g = gnp_graph(120, 0.1, seed=1)
    mk_edge_coloring(g)
    steps, inversions = 727, 659
    assert g.m == steps
    assert calls == {
        "maximal_fan": steps,
        "rotate_fan": steps,
        "maximal_path": inversions,
        "find_subfan": inversions,
        "invert": inversions,
        "min_free_color": 2 * steps,
    }
