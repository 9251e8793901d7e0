"""README is held to the code: it names every public name, and its examples run."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import mgcolor
from mgcolor import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block(lang: str, heading: str) -> str:
    """The first fenced `lang` block after `heading`."""
    start = README.index(f"\n{heading}\n")
    return re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start).group(1)


def test_every_public_name_is_a_word_of_the_readme():
    words = set(re.findall(r"\w+", README))
    assert sorted(set(mgcolor.__all__) - words) == []


def test_the_library_example_runs():
    exec(compile(block("python", "## Library"), "README.md", "exec"), {})


def test_each_cli_line_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [line for line in block("sh", "## CLI").splitlines() if line.startswith("mgcolor ")]
    outputs = {}
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.main(argv) == 0, line
        outputs[" ".join(argv)] = capsys.readouterr().out
    assert outputs["oracle c5.gr"] == "chi_prime 3\n"
