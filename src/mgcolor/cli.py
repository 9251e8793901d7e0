"""Command-line front end.

Subcommands: color, check, oracle, gen, stats. Exit codes are a stable
contract for harnesses:

  0  success / coloring is valid
  1  coloring is invalid (check only)
  2  input error: unparseable file, bad parameters, missing file
  3  resource cap exceeded: the oracle's edge cap, or out of memory
  4  internal error: an unexpected exception (a bug); the traceback goes
     to stderr

`main` returns the code and never exits, so it can be called in process.
A process, `python -m mgcolor` or the `mgcolor` command, enters through
`mgcolor.__main__.run`.

`color` reads its input, then opens `-o` and `--trace` before coloring, so
a bad path exits 2 at once, as does a closed stdout when `color` or `gen`
has no `-o` to write to; the trace is written one JSON line per step,
and the coloring streams to its file as `format_coloring` produces it.
`-o` and `--trace` naming the same file (after resolving the path) exits 2
before coloring.

Each command imports the modules only it runs inside its `cmd_*`
function, so that, say, `gen` never compiles the coloring loop. `oracle`
stays at module level: `--max-edges` takes its default from there. `color`
imports the file formats through `coloring`, so that `coloring.py`, the
largest module, compiles before the graph is read and before `formats`:
in that order it peaks no higher than when the package imported
everything up front. `check` judges the file's edge maps with `formats`
and `certify` alone, both imported before the graph is read, and never
loads `coloring.py` (README, "Memory").

All randomness flows from --seed; no command reads wall-clock entropy, so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from typing import TYPE_CHECKING, TextIO

from .errors import BadParamsError, InputError, TooLargeError
from .graph import FAMILIES, Graph, format_dimacs, gen_family, parse_dimacs
from .oracle import DEFAULT_MAX_EDGES, exact_chromatic_index

if TYPE_CHECKING:
    from .vizing import StepTrace

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_TOO_LARGE = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _open_out(path: str | None) -> AbstractContextManager:
    """`path` opened for writing, or stdout (left open) when there is none.

    Stdout is None when the process started with descriptor 1 closed.
    """
    if path:
        return open(path, "w", encoding="utf-8")
    if sys.stdout is None:
        raise BadParamsError("stdout is closed; name an output file with -o")
    return nullcontext(sys.stdout)


def _load_graph(path: str) -> Graph:
    return parse_dimacs(_read(path))


def _trace_writer(tr: TextIO, n: int) -> Callable[[StepTrace], object]:
    """`on_step` that writes each record to `tr` as one JSON object per line.

    Keys follow `StepTrace._fields`. Every field is an int or a tuple of
    vertices in [0, n), so one f-string, with each int in its decimal form
    and each tuple as its vertices' names joined inside brackets, gives the
    bytes of `json.dumps(step._asdict())` at a fraction of its cost.
    """
    name_of = [str(v) for v in range(n)].__getitem__
    join = ", ".join
    write = tr.write

    def on_step(step: StepTrace) -> None:
        (x, y), fan, a, b, path, k, before, after = step
        write(f'{{"edge": [{x}, {y}], "fan": [{join(map(name_of, fan))}], '
              f'"color_a": {a}, "color_b": {b}, "path": [{join(map(name_of, path))}], '
              f'"subfan_len": {k}, "colored_before": {before}, '
              f'"colored_after": {after}}}\n')

    return on_step


def cmd_color(args: argparse.Namespace) -> int:
    from .coloring import format_coloring
    from .vizing import mk_edge_coloring

    if args.output and args.trace and (
        os.path.realpath(args.output) == os.path.realpath(args.trace)
    ):
        raise BadParamsError(f"-o and --trace name the same file: {args.trace}")
    g = _load_graph(args.input)
    with _open_out(args.output) as out, (
        open(args.trace, "w", encoding="utf-8") if args.trace else nullcontext()
    ) as tr:
        on_step = _trace_writer(tr, g.n) if tr else None
        t0 = time.perf_counter()
        coloring = mk_edge_coloring(g, debug=args.debug_checks, on_step=on_step)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        format_coloring(coloring, out)
    summary = (
        f"{g.n} {g.m} {g.max_degree()} {coloring.palette} "
        f"{coloring.colors_used()} {elapsed_ms:.2f}"
    )
    print(summary, file=sys.stdout if args.output else sys.stderr)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from .certify import is_proper
    from .formats import _read_rows

    g = _load_graph(args.graph)
    palette, rows = _read_rows(g, _read(args.coloring))
    verdict = is_proper(g, palette, rows)
    if verdict.ok:
        print(
            f"valid: proper complete colors_used={verdict.colors_used} "
            f"palette={palette}"
        )
        return EXIT_OK
    print(f"invalid: {verdict.first_violation}")
    return EXIT_INVALID


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    k = exact_chromatic_index(g, max_edges=args.max_edges)
    print(f"chi_prime {k}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    g = _build_family(args.family, args.params, args.seed)
    with _open_out(args.output) as out:
        out.write(format_dimacs(g))
    return EXIT_OK


def _build_family(family: str, params: list[str], seed: int) -> Graph:
    if family not in FAMILIES:
        raise BadParamsError(
            f"unknown family {family!r}; expected one of {FAMILIES}"
        )
    n: int | None = None
    p: float | None = None
    if family == "petersen":
        if params:
            raise BadParamsError("petersen takes no parameters")
    elif family == "gnp":
        if len(params) != 2:
            raise BadParamsError("gnp needs parameters: n p")
        n = _int_param(params[0], "n")
        p = _float_param(params[1], "p")
    else:
        if len(params) != 1:
            raise BadParamsError(f"{family} needs one parameter: n")
        n = _int_param(params[0], "n")
    return gen_family(family, n=n, p=p, seed=seed)


def _int_param(s: str, name: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise BadParamsError(f"parameter {name} must be an integer, got {s!r}") from None


def _float_param(s: str, name: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise BadParamsError(f"parameter {name} must be a number, got {s!r}") from None


def cmd_stats(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    print(f"{g.n} {g.m} {g.max_degree()}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgcolor",
        description="Edge-color simple graphs with at most max_degree + 1 colors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_color = sub.add_parser("color", help="color a graph file")
    p_color.add_argument("input", help="graph file (DIMACS-like)")
    p_color.add_argument("-o", "--output", help="coloring output path (default stdout)")
    p_color.add_argument(
        "--debug-checks",
        action="store_true",
        help="run every per-step invariant assertion (slower, same output)",
    )
    p_color.add_argument("--trace", metavar="PATH", help="write per-step JSON lines")
    p_color.set_defaults(func=cmd_color)

    p_check = sub.add_parser("check", help="verify a coloring file against a graph")
    p_check.add_argument("graph")
    p_check.add_argument("coloring")
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser("oracle", help="exact chromatic index (small graphs)")
    p_oracle.add_argument("input")
    p_oracle.add_argument(
        "--max-edges",
        type=int,
        default=DEFAULT_MAX_EDGES,
        help=f"edge cap for the exact search (default {DEFAULT_MAX_EDGES})",
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a graph file")
    p_gen.add_argument("family", help="one of: " + ", ".join(FAMILIES))
    p_gen.add_argument("params", nargs="*", help="family parameters, e.g. n [p]")
    p_gen.add_argument("--seed", type=int, default=0, help="PRNG seed (gnp)")
    p_gen.add_argument("-o", "--output", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_stats = sub.add_parser("stats", help="print 'n m delta' for a graph file")
    p_stats.add_argument("input")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_TOO_LARGE
    except Exception:
        import traceback  # only on this path, to keep start-up lean

        traceback.print_exc()
        return EXIT_INTERNAL
