"""A committed mutant set: source edits the tests must keep catching.

Each `Mutant` names a file under `src/mgcolor`, an exact snippet of it, the
replacement, the test ids that must fail once the replacement is made, and,
for a known survivor, the ids it passes with the reason. The tier-1 test
`tests/test_mutants.py` checks that every snippet occurs exactly once in
`src/`, so the table cannot go stale. The full run is opt-in:

    python3 tests/mutants.py [NAME ...]

For each mutant (or each one named) it copies `src/`, `tests/`, `perfbench/`
(which tests read, for the tracer's targets) and `pyproject.toml` to a
temporary directory, applies the replacement to the copy of `src/` and runs
the ids in a child `pytest` whose `PYTHONPATH` is the copy's `src`, with a
fixed Hypothesis seed, an address-space cap and a time limit, so a kill that
rests on random search is the same on every run and a mutant that loops
cannot hang or exhaust the host. A run that fails, hits the cap or times out
kills the mutant. The exit status is 1 when any verdict differs from the
table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mgcolor"
LIMIT_BYTES = 512 * 2**20
TIMEOUT_S = 300

ONE_STEP = tuple(
    f"tests/test_debug_checks.py::test_one_step_on_{name}"
    for name in (
        "every_state_of_every_graph_up_to_four_vertices",
        "every_state_of_sampled_adjacency_orders",
        "sampled_states_of_five_vertex_graphs",
    )
)
KERNELS = ("tests/test_kernels.py",)
INVERT_EXAMPLE = (
    "tests/test_kernels.py::test_invert_writes_both_orientations_and_moves_the_last_slots"
)
PARSERS = tuple(
    f"tests/test_fuzz.py::test_parse_{name}_matches_the_reference_parser"
    for name in ("dimacs", "coloring")
)

GNP_PIN = ("tests/test_graph.py::TestGnpMatchesTheReference",)
ORACLE_PIN = (
    "tests/test_oracle.py::TestExactChromaticIndex"
    "::test_witness_matches_the_reference_on_every_small_graph"
)


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/mgcolor
    snippet: str
    replacement: str
    kill: tuple[str, ...]  # ids whose run must fail
    survive: tuple[str, ...] = ()  # ids whose run passes, a known survivor
    why: str = ""


MUTANTS = (
    # The subfan rule, path and rotation: the one-step lemma tests.
    Mutant("subfan-plus-one", "vizing.py",
           "tuple.__new__(Fan, (x, seq[:idx]))", "tuple.__new__(Fan, (x, seq[:idx + 1]))",
           ONE_STEP),
    Mutant("subfan-minus-one", "vizing.py",
           "tuple.__new__(Fan, (x, seq[:idx]))", "tuple.__new__(Fan, (x, seq[:idx - 1]))",
           ONE_STEP),
    Mutant("path-parity-flipped", "altpath.py",
           "coloring.kempe_walk(x, a, b)", "coloring.kempe_walk(x, b, a)",
           ONE_STEP),
    Mutant("rotation-order-reversed", "coloring.py",
           "for f in reversed(seq):", "for f in seq:",
           ONE_STEP),
    Mutant("min-free-color-largest", "coloring.py",
           "return row.index(-1)", "return len(row) - 1 - row[::-1].index(-1)",
           ("tests/test_golden.py", "tests/test_vizing.py"),
           ONE_STEP + KERNELS,
           "any free color keeps every lemma, and the kernels are held to "
           "references that take the colors as given; only pinned outputs "
           "see which free color was chosen"),
    # A pending edge that is colored, or listed again, is refused at its
    # step by `maximal_fan` alone, in both modes.
    Mutant("maximal-fan-admits-a-colored-edge", "fan.py",
           "if coloring._colors[x].get(y) is not None:", "if False:",
           ("tests/test_debug_checks.py::test_a_step_that_colors_a_pending_edge_is_caught",
            "tests/test_vizing.py::TestExtendColoring"
            "::test_debug_rejects_an_already_colored_pending_edge")),
    # A rotation that skips the step's own edge keeps the coloring proper;
    # the debug check that {x, y} is colored after the step reports it, and
    # a fault injected there shows the check is live.
    Mutant("rotation-skips-the-step-edge", "fan.py",
           "coloring.shift_fan(x, seq, color)", "coloring.shift_fan(x, seq[1:], color)",
           ONE_STEP[:1]),
    Mutant("step-edge-check-skipped", "vizing.py",
           "if debug and coloring.color_of(x, y) is None:", "if False:",
           ("tests/test_debug_checks.py::test_a_rotation_that_skips_the_step_edge_is_caught",)),
    # Records are built with `tuple.__new__`, which checks no arity.
    Mutant("step-trace-one-field-short", "vizing.py",
           "len(subfan.seq), before, after", "len(subfan.seq), before",
           ("tests/test_step_records.py::test_every_record_the_loop_hands_out_is_whole",)),
    # The kernels against the per-edge reference blocks.
    Mutant("fan-scan-not-restarted", "coloring.py",
           "cs.remove(c)", "cs = cs[cs.index(c) + 1:]",
           ONE_STEP[2:] + KERNELS),
    Mutant("fan-first-match-to-last-match", "coloring.py",
           "for c in cs:", "for c in reversed(cs):",
           KERNELS),
    # The fan grows without end, so the run dies at the address-space cap.
    Mutant("fan-color-not-popped", "coloring.py",
           "cs.remove(c)", "pass",
           ("tests/test_vizing.py::TestFindSubfan::test_prefix_case",)),
    # The trusted rotation `shift_fan`, whose one-edge case `set_edge_color`
    # writes.
    Mutant("x-slot-cleared-unconditionally", "coloring.py",
           "if nx[old] == f:\n                    nx[old] = -1",
           "nx[old] = -1",
           ("tests/test_kernels.py::test_a_rotation_keeps_an_x_slot_it_has_just_written",
            "tests/test_kernels.py"
            "::test_a_rotation_that_revisits_a_vertex_keeps_the_slot_it_wrote_last")),
    Mutant("uncolor-one-orientation", "coloring.py",
           "del cx[f], colors[f][x]", "del cx[f]",
           ("tests/test_kernels.py::test_uncoloring_clears_both_orientations",)),
    # The trusted inversion `kempe_swap`.
    Mutant("kempe-swap-last-vertex-slots-kept", "coloring.py",
           "nv[a] = nv[b] = -1", "if v != seq[-1]:\n                nv[a] = nv[b] = -1",
           (INVERT_EXAMPLE,)),
    Mutant("kempe-swap-one-orientation", "coloring.py",
           "colors[u][v] = colors[v][u] = col", "colors[u][v] = col",
           (INVERT_EXAMPLE,)),
    # The table is the loop's: `check` builds none, and a built table
    # indexes every color in the edge maps, once at each vertex, so a color
    # at its width is refused, and so is one a vertex repeats, and a path
    # color that would index a row from its end.
    Mutant("parse-builds-the-table", "formats.py",
           "coloring.palette, coloring._colors = _read_rows(graph, text)",
           "coloring.palette, coloring._colors = _read_rows(graph, text)\n    coloring._table()",
           ("tests/test_limits.py::test_check_holds_the_edge_maps_and_no_table",)),
    Mutant("table-range-check-admits-width", "coloring.py",
           "if not 0 <= c < width:", "if not 0 <= c <= width:",
           ("tests/test_coloring.py::TestColoringFormat"
            "::test_a_color_beyond_the_table_is_checked_and_refused_by_the_loop",)),
    Mutant("maximal-path-skips-its-color-range-check", "altpath.py",
           "if not (0 <= a < width and 0 <= b < width):", "if False:",
           ("tests/test_altpath.py::TestMaximalPath::test_colors_outside_the_table_rejected",)),
    Mutant("table-admits-a-repeated-color", "coloring.py",
           "if slots[c] >= 0:", "if False:",
           ("tests/test_coloring.py::TestColoringFormat"
            "::test_a_color_repeated_at_a_vertex_is_checked_and_refused_by_the_loop",)),
    # The graph's neighbor index is built for its first reader, never by a
    # plain run; the checkers that skip it still see a colored non-edge.
    Mutant("graph-builds-the-index-eagerly", "graph.py",
           "self._adj_index = None", "self._adj_index = [dict.fromkeys(row) for row in adj]",
           ("tests/test_coloring.py::TestNeighborIndex"
            "::test_plain_color_and_check_of_a_valid_file_build_no_index",
            "tests/test_limits.py::test_the_parsed_graph_holds_its_adjacency_lists_alone")),
    # The checker, `certify`. The count never exceeds len(row), so `>=`
    # would be no mutant at all.
    Mutant("is-proper-admits-a-non-edge", "certify.py",
           "sum(map(row.__contains__, adj[u])) == len(row)",
           "sum(map(row.__contains__, adj[u])) <= len(row)",
           ("tests/test_coloring.py::TestIsProper::test_non_edge_violation",
            "tests/test_coloring.py::TestNeighborIndex"
            "::test_an_invalid_file_is_diagnosed_with_the_index[non_edge]")),
    Mutant("violation-at-admits-a-non-edge", "certify.py",
           "if not (row.keys() <= index[u].keys() and len(set(row.values())) == len(row)):",
           "if not len(set(row.values())) == len(row):",
           ("tests/test_coloring.py::TestIsProper::test_a_local_check_reports_a_non_edge",
            "tests/test_debug_checks.py::test_local_verdict_equals_full_verdict_after_a_fault")),
    # The lemma checkers: one gone vacuous would pass whatever it is shown.
    Mutant("check-fan-skips-the-free-color-test", "fan.py",
           "if not coloring.is_free(seq[i], col):", "if False:",
           ("tests/test_debug_checks.py::test_a_faulty_building_block_is_caught_at_its_step"
            "[find_subfan-whole_fan-SubfanError-invalid after inversion]",)),
    Mutant("check-fan-skips-the-uncolored-edge-test", "fan.py",
           """        if col is None:
            raise FanInvariantError(
                f"fan edge ({x}, {seq[i + 1]}) is uncolored but not first"
            )
""",
           """        if col is None:
            continue
""",
           ("tests/test_fan.py::TestCheckFan::test_rejects_broken_color_property",)),
    Mutant("is-maximal-fan-always-true", "fan.py",
           "return not coloring.fan_extension(x, fan.last(), outside)", "return True",
           ("tests/test_fan.py::TestMaximalFan::test_prefix_of_maximal_fan_not_maximal",)),
    Mutant("check-path-skips-the-duplicate-test", "altpath.py",
           "if len(set(seq)) != len(seq):\n        raise PathInvariantError",
           "if False:\n        raise PathInvariantError",
           ("tests/test_altpath.py::TestAlternates::test_a_walk_round_a_cycle_is_not_a_path",)),
    Mutant("check-path-parity-flipped", "altpath.py",
           "(path.b if i % 2 else path.a)", "(path.a if i % 2 else path.b)",
           ("tests/test_altpath.py::TestMaximalPath::test_two_vertex_path",)),
    Mutant("is-maximal-path-asks-for-the-wrong-color", "altpath.py",
           "want = path.a if len(path.seq) % 2 else path.b",
           "want = path.b if len(path.seq) % 2 else path.a",
           ("tests/test_altpath.py::TestNextColor::test_base_cases",)),
    Mutant("is-proper-skips-duplicates", "certify.py",
           "if duplicate is None and x in row_seen:", "if False:",
           ("tests/test_coloring.py::TestIsProper::test_duplicate_color_violation",)),
    Mutant("violation-at-returns-none", "certify.py",
           "return None if verdict.proper else verdict.first_violation", "return None",
           ("tests/test_debug_checks.py::test_local_verdict_equals_full_verdict_after_a_fault",)),
    # The single-pass parsers against the line-by-line reference parsers.
    Mutant("dimacs-duplicate-key-ignores-orientation", "graph.py",
           "key = (u - 1) * n + v - 1 if u < v else (v - 1) * n + u - 1\n"
           "            if key in seen:",
           "key = (u - 1) * n + v - 1\n            if key in seen:",
           PARSERS),
    Mutant("dimacs-duplicate-test-skipped-for-u-above-v", "graph.py",
           "if key in seen:\n                raise ParseError",
           "if key in seen and u < v:\n                raise ParseError",
           PARSERS),
    Mutant("dimacs-range-off-by-one", "graph.py",
           "if not (0 < u <= n and 0 < v <= n):",
           "if not (0 < u <= n + 1 and 0 < v <= n + 1):",
           PARSERS),
    Mutant("dimacs-error-field-order-reversed", "graph.py",
           "u, v = (_int_field(f, lineno) for f in fields[1:])",
           "v, u = (_int_field(f, lineno) for f in fields[:0:-1])",
           PARSERS),
    # Lines are read a chunk at a time, each chunk cut just after a "\n".
    Mutant("lines-chunk-cut-before-its-newline", "graph.py",
           'text.find("\\n", start + size) + 1) > 0', 'text.find("\\n", start + size)) > 0',
           ("tests/test_graph.py::test_lines_cut_in_chunks_are_splitlines",)),
    # The graph's edges: each once, and counted once.
    Mutant("edges-view-yields-both-orientations", "graph.py",
           "for u, row in enumerate(self._g.adj) for v in row if v > u)",
           "for u, row in enumerate(self._g.adj) for v in row)",
           ("tests/test_graph.py::TestQueries::test_edge_set",)),
    Mutant("graph-repeat-test-skipped", "graph.py",
           "if sum(map(len, map(set, self.adj))) == 2 * self.m:", "if True:",
           ("tests/test_graph.py::TestConstruction::test_duplicate_rejected_either_orientation",)),
    Mutant("build-counts-each-edge-twice", "graph.py",
           "self.m = sum(map(len, adj)) // 2", "self.m = sum(map(len, adj))",
           ("tests/test_graph.py::TestConstruction::test_triangle",)),
    # A header declaring 10**9 vertices must cost nothing until the graph
    # is built, after the last line; a bad later line then exits 2, not 3.
    Mutant("dimacs-allocates-per-vertex-at-header", "graph.py",
           'raise ParseError("n and m must be nonnegative", lineno)',
           'raise ParseError("n and m must be nonnegative", lineno)\n'
           "            rows = [[] for _ in range(n)]",
           ("tests/test_limits.py::test_huge_header_bad_later_line_allocates_nothing_per_vertex",)),
    Mutant("dimacs-whitespace-led-lines-skipped", "graph.py",
           "fields = line.split()\n        if not fields:",
           "fields = line.split()\n        if not fields or line[:1].isspace():",
           PARSERS),
    Mutant("coloring-self-loop-and-zero-color-swapped", "formats.py",
           """if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            if col < 1:
                raise ParseError("colors are 1-based and must be >= 1", lineno)""",
           """if col < 1:
                raise ParseError("colors are 1-based and must be >= 1", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)""",
           PARSERS),
    # The coloring is written one vertex's lines at a time, never held whole.
    Mutant("color-output-as-one-string", "formats.py",
           "out.writelines(chunks)", 'out.write("".join(chunks))',
           ("tests/test_cli.py::TestColor::test_output_streams_without_holding_a_copy",)),
    # The bulk G(n, p) draw against one `random()` per pair: a boundary
    # pair, whose top byte cannot settle it, must be decoded in full.
    Mutant("gnp-boundary-byte-counted-as-hit", "graph.py",
           "[2] * (rest > 0)", "[1] * (rest > 0)",
           GNP_PIN),
    Mutant("gnp-words-decoded-swapped", "graph.py",
           "w0 = int.from_bytes(words[8 * i : 8 * i + 4], \"little\")\n"
           "            w1 = int.from_bytes(words[8 * i + 4 : 8 * i + 8], \"little\")",
           "w1 = int.from_bytes(words[8 * i : 8 * i + 4], \"little\")\n"
           "            w0 = int.from_bytes(words[8 * i + 4 : 8 * i + 8], \"little\")",
           GNP_PIN),
    Mutant("gnp-boundary-compare-le", "graph.py",
           "(w1 >> 6) < limit", "(w1 >> 6) <= limit",
           GNP_PIN),
    # The exact oracle: its witness is pinned to the search that tried
    # every relabeling, and the search re-checks what it returns.
    Mutant("oracle-tests-one-end-only", "oracle.py",
           "if col in at_u or col in at_v:", "if col in at_u:",
           (ORACLE_PIN,)),
    Mutant("oracle-new-color-bound-off-by-one", "oracle.py",
           "range(min(k, opened + 1))", "range(min(k, opened))",
           (ORACLE_PIN,)),
    Mutant("oracle-colors-tried-highest-first", "oracle.py",
           "range(min(k, opened + 1))", "reversed(range(min(k, opened + 1)))",
           (ORACLE_PIN,)),
    # The process entry point: with stdout block-buffered, an exit that
    # skips its flush loses what `main` printed.
    Mutant("entry-skips-the-stdout-flush", "__main__.py",
           "for stream in (sys.stdout, sys.stderr):", "for stream in (sys.stderr,):",
           ("tests/test_cli.py::test_a_process_writes_what_main_writes_and_exits_with_its_code",)),
)


def occurrences(m: Mutant) -> int:
    return (SRC / m.file).read_text().count(m.snippet)


def _cap_memory() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


def run_ids(m: Mutant, ids: tuple[str, ...]) -> tuple[bool, str]:
    """(passed, detail) of the ids on a copy of the tree with `m` applied."""
    with tempfile.TemporaryDirectory(prefix="mgcolor-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / "src" / "mgcolor" / m.file
        text = target.read_text()
        if text.count(m.snippet) != 1:
            return False, f"snippet occurs {text.count(m.snippet)} times"
        target.write_text(text.replace(m.snippet, m.replacement))
        env = {**os.environ, "PYTHONPATH": str(work / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *ids]
        try:
            child = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                                   text=True, timeout=TIMEOUT_S, preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    last = child.stdout.strip().splitlines()[-1:] or [child.stderr.strip()[-200:]]
    if child.returncode not in (0, 1, 2):  # e.g. 4: an id was not found
        raise RuntimeError(f"{m.name}: pytest exit {child.returncode}: {last[0]}")
    return child.returncode == 0, last[0]


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failures = 0
    start = time.perf_counter()
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        t0 = time.perf_counter()
        passed, detail = run_ids(m, m.kill)
        verdict = "survived" if passed else "killed"
        ok = not passed
        if m.survive:
            still, tail = run_ids(m, m.survive)
            ok = ok and still
            detail += f"; {'passes' if still else 'fails'} its survivor ids: {tail}"
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {m.name}: {verdict} ({detail}) "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    print(f"{failures} unexpected verdicts, {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
