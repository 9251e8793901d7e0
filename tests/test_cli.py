"""CLI subcommands, file formats on disk, and the exit-code contract."""

from __future__ import annotations

import json

import pytest

from mgcolor import format_dimacs, complete_graph, cycle_graph, parse_dimacs, petersen_graph
from mgcolor import cli
from mgcolor.cli import main


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
