"""CLI subcommands, file formats on disk, and the exit-code contract."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest

from mgcolor import (
    AltPath,
    Fan,
    Graph,
    StepTrace,
    Verdict,
    Violation,
    complete_graph,
    cycle_graph,
    format_coloring,
    format_dimacs,
    gnp_graph,
    mk_edge_coloring,
    parse_dimacs,
    petersen_graph,
)
from mgcolor import cli, vizing
from mgcolor.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    return write(tmp_path / "k3.gr", format_dimacs(complete_graph(3)))


class TestColor:
    def test_k3(self, tmp_path, k3_file, capsys):
        out = tmp_path / "k3.col"
        assert main(["color", k3_file, "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s 3 3 3 3"
        assert len([l for l in lines if l.startswith("e ")]) == 3
        summary = capsys.readouterr().out.split()
        assert summary[:5] == ["3", "3", "2", "3", "3"]
        float(summary[5])  # time_ms parses

    def test_edgeless(self, tmp_path, capsys):
        gfile = write(tmp_path / "e.gr", "p edge 4 0\n")
        out = tmp_path / "e.col"
        assert main(["color", gfile, "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines == ["s 4 0 1 0"]

    def test_malformed_header_exit_2(self, tmp_path, capsys):
        gfile = write(tmp_path / "bad.gr", "p edge x 0\n")
        assert main(["color", gfile]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["color", str(tmp_path / "nope.gr")]) == 2

    def test_stdout_mode(self, k3_file, capsys):
        assert main(["color", k3_file]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("s 3 3 3 3\n")
        assert captured.err.split()[0] == "3"

    def test_trace(self, tmp_path, k3_file):
        out = tmp_path / "k3.col"
        tr = tmp_path / "k3.trace"
        assert main(["color", k3_file, "-o", str(out), "--trace", str(tr)]) == 0
        steps = [json.loads(line) for line in tr.read_text().splitlines()]
        assert len(steps) == 3
        for i, step in enumerate(steps):
            assert step["colored_before"] == i
            assert step["colored_after"] == i + 1

    def test_trace_keys_follow_the_step_trace_fields(self, tmp_path, k3_file):
        tr = tmp_path / "k3.trace"
        assert main(["color", k3_file, "-o", str(tmp_path / "k3.col"), "--trace", str(tr)]) == 0
        for line in tr.read_text().splitlines():
            assert list(json.loads(line)) == list(StepTrace._fields)

    @pytest.mark.parametrize("flag", ["-o", "--trace"])
    def test_unwritable_path_exits_2_before_coloring(
        self, tmp_path, k3_file, monkeypatch, capsys, flag
    ):
        calls = []
        monkeypatch.setattr(vizing, "mk_edge_coloring", lambda *a, **kw: calls.append(a))
        bad = str(tmp_path / "no-such-dir" / "out")
        assert main(["color", k3_file, flag, bad]) == 2
        assert calls == []
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("trace", ["same.out", "./same.out"])
    def test_output_and_trace_on_one_file_exit_2_before_coloring(
        self, tmp_path, k3_file, monkeypatch, capsys, trace
    ):
        # Two handles on one file would write the coloring over the trace.
        calls = []
        monkeypatch.setattr(vizing, "mk_edge_coloring", lambda *a, **kw: calls.append(a))
        monkeypatch.chdir(tmp_path)
        assert main(["color", k3_file, "-o", "same.out", "--trace", trace]) == 2
        assert calls == []
        assert not (tmp_path / "same.out").exists()
        assert "same file" in capsys.readouterr().err

    def test_output_may_overwrite_input(self, tmp_path, k3_file):
        assert main(["color", k3_file, "-o", k3_file]) == 0
        assert (tmp_path / "k3.gr").read_text().startswith("s 3 3 3 3\n")

    def test_trace_streams_without_holding_the_run(self, tmp_path, capsys):
        # The trace goes to disk step by step, so writing it costs no
        # memory that grows with the number of steps.
        gfile = write(tmp_path / "g.gr", format_dimacs(gnp_graph(500, 0.04, 3)))
        out, tr = str(tmp_path / "g.col"), str(tmp_path / "g.trace")

        def peak(argv):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        plain = peak(["color", gfile, "-o", out])
        traced = peak(["color", gfile, "-o", out, "--trace", tr])
        assert traced <= 1.25 * plain, (traced, plain)

    def test_output_streams_without_holding_a_copy(self, tmp_path, monkeypatch):
        # Once the coloring is done, `-o` gets it one vertex's lines at a
        # time: writing adds no list of lines or joined text to what the
        # graph and its coloring hold. Holding the text reads about 1.07 here.
        gfile = write(tmp_path / "g.gr", format_dimacs(gnp_graph(1000, 0.02, 3)))
        held = []

        def colored(*args, **kwargs):
            coloring = mk_edge_coloring(*args, **kwargs)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return coloring

        monkeypatch.setattr(vizing, "mk_edge_coloring", colored)
        tracemalloc.start()
        try:
            assert main(["color", gfile, "-o", str(tmp_path / "g.col")]) == 0
            writing = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert writing <= 1.03 * held[0], (writing, held)

    @pytest.mark.parametrize(
        "text", ["p edge 0 0\n", "p edge 3 0\n", "p edge 7 3\ne 2 6\ne 6 4\ne 4 2\n"]
    )
    def test_streamed_output_is_the_string_form(self, tmp_path, capsys, text):
        gfile = write(tmp_path / "g.gr", text)
        expect = format_coloring(mk_edge_coloring(parse_dimacs(text)))
        out = tmp_path / "g.col"
        assert main(["color", gfile, "-o", str(out)]) == 0
        assert out.read_bytes() == expect.encode()
        capsys.readouterr()
        assert main(["color", gfile]) == 0
        assert capsys.readouterr().out == expect

    def test_debug_checks_same_output(self, tmp_path, k3_file):
        a = tmp_path / "a.col"
        b = tmp_path / "b.col"
        assert main(["color", k3_file, "-o", str(a)]) == 0
        assert main(["color", k3_file, "--debug-checks", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_deterministic_bytes(self, tmp_path, k3_file):
        a = tmp_path / "a.col"
        b = tmp_path / "b.col"
        main(["color", k3_file, "-o", str(a)])
        main(["color", k3_file, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestCheck:
    def test_valid_round_trip(self, tmp_path, k3_file, capsys):
        out = tmp_path / "k3.col"
        main(["color", k3_file, "-o", str(out)])
        assert main(["check", k3_file, str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("valid")

    def test_deleted_line_incomplete(self, tmp_path, k3_file, capsys):
        out = tmp_path / "k3.col"
        main(["color", k3_file, "-o", str(out)])
        lines = out.read_text().splitlines()
        trimmed = tmp_path / "trimmed.col"
        trimmed.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["check", k3_file, str(trimmed)]) == 1
        assert "incomplete" in capsys.readouterr().out

    def test_color_beyond_palette_bound(self, tmp_path, k3_file, capsys):
        col = write(
            tmp_path / "bad.col", "s 3 3 3 3\ne 1 2 9\ne 1 3 2\ne 2 3 3\n"
        )
        assert main(["check", k3_file, col]) == 1
        assert "bound" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, code, out",
        [
            ("s 3 3 5 3\ne 1 2 1\ne 1 3 4\ne 2 3 2\n", 0,
             "valid: proper complete colors_used=3 palette=5\n"),
            ("s 3 3 5 2\ne 1 2 1\ne 1 3 4\n", 1, "invalid: incomplete edge (1, 2)\n"),
            ("s 3 3 5 3\ne 1 2 4\ne 1 3 4\ne 2 3 2\n", 1,
             "invalid: duplicate_color edge (0, 2) vertex 0 colors 3\n"),
        ],
        ids=["valid", "incomplete", "duplicate"],
    )
    def test_color_beyond_the_table_is_checked(self, tmp_path, k3_file, capsys, text, code, out):
        # K3 has max degree 2, so the loop's table holds colors 1..3 (0..2
        # inside); `check` reads the edge maps alone and never refuses 4.
        col = write(tmp_path / "wide.col", text)
        assert main(["check", k3_file, col]) == code
        assert capsys.readouterr().out == out

    def test_improper_detected(self, tmp_path, k3_file, capsys):
        col = write(
            tmp_path / "dup.col", "s 3 3 3 2\ne 1 2 1\ne 1 3 1\ne 2 3 2\n"
        )
        assert main(["check", k3_file, col]) == 1
        assert "duplicate_color" in capsys.readouterr().out

    def test_unparseable_coloring_exit_2(self, tmp_path, k3_file):
        col = write(tmp_path / "junk.col", "what is this\n")
        assert main(["check", k3_file, col]) == 2

    def test_dimension_mismatch_exit_2(self, tmp_path, k3_file):
        col = write(tmp_path / "wrong.col", "s 4 3 3 3\n")
        assert main(["check", k3_file, col]) == 2


class TestOracle:
    def test_c5(self, tmp_path, capsys):
        gfile = write(tmp_path / "c5.gr", format_dimacs(cycle_graph(5)))
        assert main(["oracle", gfile]) == 0
        assert capsys.readouterr().out.strip() == "chi_prime 3"

    def test_too_large_exit_3(self, tmp_path, capsys):
        gfile = write(tmp_path / "k9.gr", format_dimacs(complete_graph(9)))
        assert main(["oracle", gfile]) == 3

    def test_max_edges_flag(self, tmp_path, capsys):
        gfile = write(tmp_path / "k8.gr", format_dimacs(complete_graph(8)))
        assert main(["oracle", gfile, "--max-edges", "28"]) == 0
        assert capsys.readouterr().out.strip() == "chi_prime 7"

    @pytest.mark.parametrize("graph", [petersen_graph(), Graph(3)], ids=["petersen", "edgeless"])
    def test_a_negative_edge_cap_is_a_bad_parameter(self, tmp_path, capsys, graph):
        gfile = write(tmp_path / "g.gr", format_dimacs(graph))
        assert main(["oracle", gfile, "--max-edges", "-1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: edge cap must be nonnegative, got -1\n"


class TestExitContract:
    # A command made to raise stands in for a real failure; nothing here
    # exhausts memory.
    def raise_from_color(self, monkeypatch, exc):
        def failing(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_color", failing)

    def test_memory_error_exit_3(self, monkeypatch, k3_file, capsys):
        self.raise_from_color(monkeypatch, MemoryError())
        assert main(["color", k3_file]) == 3
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_unexpected_exception_exit_4(self, monkeypatch, k3_file, capsys):
        self.raise_from_color(monkeypatch, RuntimeError("boom"))
        assert main(["color", k3_file]) == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback")
        assert err.rstrip().endswith("RuntimeError: boom")


class TestGenStats:
    def test_gen_complete(self, tmp_path, capsys):
        out = tmp_path / "k4.gr"
        assert main(["gen", "complete", "4", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "p edge 4 6"
        assert parse_dimacs(text) == complete_graph(4)

    def test_gen_reparse_identical(self, tmp_path):
        out = tmp_path / "g.gr"
        assert main(["gen", "gnp", "12", "0.4", "--seed", "9", "-o", str(out)]) == 0
        text = out.read_text()
        assert format_dimacs(parse_dimacs(text)) == text

    def test_gen_seed_deterministic(self, tmp_path):
        a = tmp_path / "a.gr"
        b = tmp_path / "b.gr"
        main(["gen", "gnp", "15", "0.3", "--seed", "42", "-o", str(a)])
        main(["gen", "gnp", "15", "0.3", "--seed", "42", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_stdout(self, capsys):
        assert main(["gen", "petersen"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "p edge 10 15"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "complete"],                 # missing n
            ["gen", "complete", "4", "5"],       # extra param
            ["gen", "complete", "x"],            # junk n
            ["gen", "gnp", "5"],                 # missing p
            ["gen", "gnp", "5", "1.5"],          # p out of range
            ["gen", "cycle", "2"],               # too short
            ["gen", "moebius", "5"],             # unknown family
            ["gen", "petersen", "5"],            # petersen takes none
        ],
    )
    def test_gen_bad_params_exit_2(self, argv, capsys):
        assert main(argv) == 2

    def test_stats_petersen(self, tmp_path, capsys):
        gfile = write(tmp_path / "p.gr", format_dimacs(petersen_graph()))
        assert main(["stats", gfile]) == 0
        assert capsys.readouterr().out.strip() == "10 15 3"


class TestRoundTripPipeline:
    def test_gen_color_check(self, tmp_path, capsys):
        # A representative slice of the 1000-instance pipeline exercised in
        # full by the acceptance suite.
        for seed in range(25):
            gfile = tmp_path / f"g{seed}.gr"
            cfile = tmp_path / f"g{seed}.col"
            assert main(["gen", "gnp", "9", "0.5", "--seed", str(seed), "-o", str(gfile)]) == 0
            assert main(["color", str(gfile), "-o", str(cfile)]) == 0
            assert main(["check", str(gfile), str(cfile)]) == 0


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # Every `python -m mgcolor` process pays for what importing the CLI
    # pulls in; `dataclasses` alone brings `inspect`, `dis`, `ast` and
    # `tokenize`. Modules the interpreter loaded before the import (say,
    # from a site hook) are not mgcolor's doing and are left out.
    code = (
        "import sys; before = set(sys.modules); import mgcolor.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert child.stdout.strip() == "[]"


LOOP = {"mgcolor.vizing", "mgcolor.fan", "mgcolor.altpath"}
FORMAT = {"mgcolor.coloring", "mgcolor.formats"}
CERTIFY = {"mgcolor.certify"}


@pytest.mark.parametrize(
    "command, loads, skips",
    [
        # A plain run checks nothing; `--debug-checks` loads the checker.
        pytest.param(["color", "{g}", "-o", "{out}"], LOOP | FORMAT, CERTIFY, id="color"),
        pytest.param(["color", "{g}", "-o", "{out}", "--debug-checks"],
                     LOOP | FORMAT | CERTIFY, set(), id="color-debug"),
        # `check` judges the file's edge maps without the code it checks.
        pytest.param(["check", "{g}", "{c}"], {"mgcolor.formats"} | CERTIFY,
                     LOOP | {"mgcolor.coloring"}, id="check"),
        pytest.param(["oracle", "{g}"], {"mgcolor.graph", "mgcolor.oracle"},
                     LOOP | FORMAT | CERTIFY, id="oracle"),
        pytest.param(["gen", "gnp", "20", "0.2"], {"mgcolor.graph"}, LOOP | FORMAT | CERTIFY,
                     id="gen"),
        pytest.param(["stats", "{g}"], {"mgcolor.graph"}, LOOP | FORMAT | CERTIFY, id="stats"),
    ],
)
def test_each_command_imports_only_the_modules_it_runs(tmp_path, command, loads, skips):
    # Where no bytecode is cached, each `python -m mgcolor` process compiles
    # every module it imports; `-X importtime` lists them on stderr.
    files = {
        "g": write(tmp_path / "p.gr", format_dimacs(petersen_graph())),
        "c": write(tmp_path / "p.col", format_coloring(mk_edge_coloring(petersen_graph()))),
        "out": str(tmp_path / "out.col"),
    }
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "mgcolor",
         *(arg.format(**files) for arg in command)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr[-500:]
    loaded = {line.rpartition("|")[2].strip() for line in child.stderr.splitlines()
              if line.startswith("import time:")}
    assert loads <= loaded
    assert not loaded & skips


def mgcolor_process(argv, stdout, **kwargs):
    """`python -m mgcolor` on this tree, its stderr captured. The child's
    stdout is block-buffered, as outside a test run: with `PYTHONUNBUFFERED`
    set it would write each line at once, which hides a missing flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80")
    return subprocess.run([sys.executable, "-m", "mgcolor", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize(
    "command, code",
    [
        pytest.param(["check", "{g}", "{valid}"], 0, id="0-check-valid"),
        pytest.param(["--help"], 0, id="0-help"),
        pytest.param(["check", "{g}", "{clash}"], 1, id="1-check-clashing"),
        pytest.param(["check", "{g}", "{missing}"], 2, id="2-missing-file"),
        pytest.param(["oracle", "{g}", "--max-edges", "many"], 2, id="2-usage-error"),
        pytest.param(["oracle", "{k9}"], 3, id="3-oracle-over-the-cap"),
    ],
)
def test_a_process_writes_what_main_writes_and_exits_with_its_code(
    tmp_path, monkeypatch, k3_file, command, code
):
    # Whatever ends the process, the bytes and the exit code are those of
    # `cli.main` run in process; argparse's usage errors and `--help` exit
    # from inside it. COLUMNS fixes the width argparse wraps help to.
    files = {
        "g": k3_file,
        "valid": write(tmp_path / "k3.col", format_coloring(mk_edge_coloring(complete_graph(3)))),
        "clash": write(tmp_path / "clash.col", "s 3 3 3 2\ne 1 2 1\ne 1 3 1\ne 2 3 2\n"),
        "missing": str(tmp_path / "nope.col"),
        "k9": write(tmp_path / "k9.gr", format_dimacs(complete_graph(9))),
    }
    argv = [arg.format(**files) for arg in command]
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
    assert out.getvalue() or err.getvalue()
    with open(tmp_path / "stdout", "wb") as fh:
        child = mgcolor_process(argv, fh)
    assert child.returncode == code
    assert (tmp_path / "stdout").read_bytes() == out.getvalue().encode()
    assert child.stderr == err.getvalue().encode()


def pipe_with_no_reader():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return open(write_end, "wb")


@pytest.mark.parametrize(
    "sink, error",
    [
        pytest.param(
            partial(open, "/dev/full", "wb"), "OSError: [Errno 28] No space left on device",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full"),
            id="full-device",
        ),
        pytest.param(pipe_with_no_reader, "BrokenPipeError: [Errno 32] Broken pipe",
                     id="pipe-with-no-reader"),
    ],
)
def test_unflushable_stdout_exits_120_with_the_interpreter_message(k3_file, sink, error):
    # The output cannot be flushed; the interpreter reports that once, with
    # no traceback, and exits 120.
    with sink() as stdout:
        child = mgcolor_process(["stats", k3_file], stdout)
    assert child.returncode == 120
    first, second = child.stderr.decode().splitlines()
    assert first.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert second == error


CLOSED = b"error: stdout is closed; name an output file with -o\n"


@pytest.mark.parametrize(
    "command, code, stderr",
    [
        pytest.param(["stats", "{g}"], 0, b"", id="0-stats"),
        pytest.param(["color", "{g}", "-o", "{col}"], 0, b"", id="0-color-to-a-file"),
        pytest.param(["color", "{g}", "--trace", "{trace}"], 2, CLOSED, id="2-color"),
        pytest.param(["gen", "petersen"], 2, CLOSED, id="2-gen"),
    ],
)
def test_closed_stdout_exit_codes(tmp_path, k3_file, command, code, stderr):
    # `mgcolor stats g >&-`: the interpreter starts with `sys.stdout` None.
    # A command that would write its output there exits 2 before any work,
    # so not even the trace is opened.
    files = {"g": k3_file, "col": tmp_path / "k3.col", "trace": tmp_path / "k3.jsonl"}
    argv = [arg.format(**files) for arg in command]
    child = mgcolor_process(argv, None, preexec_fn=partial(os.close, 1))
    assert (child.returncode, child.stderr) == (code, stderr)
    assert not files["trace"].exists()
    if "-o" in command:
        want = format_coloring(mk_edge_coloring(complete_graph(3)))
        assert files["col"].read_text() == want


def test_the_console_script_runs_what_python_m_mgcolor_runs():
    # `tomllib` needs Python 3.11, so pyproject.toml is read as text.
    scripts = (ROOT / "pyproject.toml").read_text().split("\n[project.scripts]\n")[1]
    assert scripts.startswith('mgcolor = "mgcolor.__main__:run"\n')
    main_py = (SRC / "mgcolor" / "__main__.py").read_text()
    assert main_py.endswith('\nif __name__ == "__main__":\n    run()\n')


@pytest.mark.parametrize(
    "record, defaults",
    [
        pytest.param(
            Violation("bound"), {"edge": None, "vertex": None, "colors": ()}, id="Violation"
        ),
        pytest.param(Verdict(True, True, 0, True), {"first_violation": None}, id="Verdict"),
        pytest.param(Fan(0, (1,)), {}, id="Fan"),
        pytest.param(AltPath(0, 1, (0,)), {}, id="AltPath"),
        pytest.param(StepTrace((0, 1), (1,), 0, 0, (), 1, 0, 1), {}, id="StepTrace"),
    ],
)
def test_records_are_immutable_and_keep_their_defaults(record, defaults):
    assert record._field_defaults == defaults
    for name, value in defaults.items():
        assert getattr(record, name) == value
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
