"""Inputs that must not cost more memory than the graph they describe.

Each case runs the CLI in a child process whose address space is capped at
512 MB (RLIMIT_AS, set in that child only). Memory linear in n and m fits
easily; an n-by-n or n-by-palette table for these inputs would not, and
the child would exit 3 (out of memory) instead of 0 or 1.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgcolor
from mgcolor import cycle_graph, format_dimacs

resource = pytest.importorskip("resource")

LIMIT_BYTES = 512 * 2**20
SRC = str(Path(mgcolor.__file__).resolve().parents[1])


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


def run_capped(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mgcolor", *argv],
        preexec_fn=_cap_memory,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def test_huge_vertex_count_one_edge(tmp_path):
    gfile = write(tmp_path / "big.gr", "p edge 40000 1\ne 1 2\n")
    cfile = str(tmp_path / "big.col")
    color = run_capped("color", gfile, "-o", cfile)
    assert color.returncode == 0, color.stderr
    assert Path(cfile).read_text() == "s 40000 1 2 1\ne 1 2 1\n"
    check = run_capped("check", gfile, cfile)
    assert check.returncode == 0, check.stderr
    assert check.stdout == "valid: proper complete colors_used=1 palette=2\n"


def test_huge_palette_header(tmp_path):
    gfile = write(tmp_path / "p3.gr", "p edge 3 2\ne 1 2\ne 2 3\n")
    ok = write(tmp_path / "ok.col", "s 3 2 1000000000 2\ne 1 2 1\ne 2 3 2\n")
    check = run_capped("check", gfile, ok)
    assert check.returncode == 0, check.stderr
    assert check.stdout == "valid: proper complete colors_used=2 palette=1000000000\n"

    beyond = write(tmp_path / "beyond.col", "s 3 2 1000000000 2\ne 1 2 1\ne 2 3 1000000001\n")
    check = run_capped("check", gfile, beyond)
    assert check.returncode == 1, check.stderr
    assert check.stdout == "invalid: bound edge (1, 2) colors 1000000000\n"


def test_long_cycle(tmp_path):
    gfile = write(tmp_path / "c.gr", format_dimacs(cycle_graph(100_000)))
    cfile = str(tmp_path / "c.col")
    color = run_capped("color", gfile, "-o", cfile)
    assert color.returncode == 0, color.stderr
    assert color.stdout.split()[:5] == ["100000", "100000", "2", "3", "3"]
    check = run_capped("check", gfile, cfile)
    assert check.returncode == 0, check.stderr
    assert check.stdout == "valid: proper complete colors_used=3 palette=3\n"
