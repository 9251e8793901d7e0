"""Command-line front end.

Subcommands: color, check, oracle, gen, stats. Exit codes are a stable
contract for harnesses:

  0  success / coloring is valid
  1  coloring is invalid (check only)
  2  input error: unparseable file, bad parameters, missing file
  3  resource cap exceeded: the oracle's edge cap, or out of memory
  4  internal error: an unexpected exception (a bug); the traceback goes
     to stderr

All randomness flows from --seed; no command reads wall-clock entropy, so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from .coloring import format_coloring, parse_coloring
from .errors import BadParamsError, InputError, TooLargeError
from .graph import FAMILIES, Graph, format_dimacs, gen_family, parse_dimacs
from .oracle import DEFAULT_MAX_EDGES, exact_chromatic_index, verify_coloring
from .vizing import StepTrace, mk_edge_coloring

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_TOO_LARGE = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_graph(path: str) -> Graph:
    return parse_dimacs(_read(path))


def cmd_color(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    trace: list[StepTrace] | None = [] if args.trace else None
    t0 = time.perf_counter()
    coloring = mk_edge_coloring(g, debug=args.debug_checks, trace=trace)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    text = format_coloring(coloring)
    summary = (
        f"{g.n} {g.m} {g.max_degree()} {coloring.palette} "
        f"{coloring.colors_used()} {elapsed_ms:.2f}"
    )
    if args.output:
        _write(args.output, text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    if args.trace:
        lines = [json.dumps(asdict(step)) for step in trace or []]
        _write(args.trace, "\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    coloring = parse_coloring(g, _read(args.coloring))
    verdict = verify_coloring(g, coloring)
    if verdict.ok:
        print(
            f"valid: proper complete colors_used={verdict.colors_used} "
            f"palette={coloring.palette}"
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
    text = format_dimacs(g)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
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


if __name__ == "__main__":
    sys.exit(main())
