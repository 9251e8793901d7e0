"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines. Every
tolerance and instance count is pinned here; the randomized parts are fully
seeded, so the suite is deterministic.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
import tracemalloc

from mgcolor import (
    check_fan,
    check_path,
    complete_graph,
    cycle_graph,
    format_dimacs,
    gnp_graph,
    invert,
    is_maximal_fan,
    is_maximal_path,
    maximal_fan,
    maximal_path,
    mk_edge_coloring,
    exact_chromatic_index,
    petersen_graph,
    rotate_fan,
    star_graph,
    verify_coloring,
)
from mgcolor.cli import main
from tests.helpers import (
    free_colors_on,
    is_inverted,
    pick_rotation_color,
    rand_proper_coloring,
    rotate_fan_direct,
    uncolored_edges,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_vizing_bound_end_to_end():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    for i in range(500):
        n = rng.randint(1, 50)
        p = (0.1, 0.3, 0.7)[i % 3]
        g = gnp_graph(n, p, rng.getrandbits(63))
        coloring = mk_edge_coloring(g)
        verdict = verify_coloring(g, coloring)
        assert verdict.ok, (n, p, verdict)
        assert verdict.colors_used <= g.max_degree() + 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: 500 G(n,p) colorings all proper/complete/bounded",
        elapsed < 10.0,
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_2_oracle_sandwich():
    spot = {
        "C5": (cycle_graph(5), 3),
        "C6": (cycle_graph(6), 2),
        "K4": (complete_graph(4), 3),
        "petersen": (petersen_graph(), 4),
    }
    for name, (g, expected) in spot.items():
        assert exact_chromatic_index(g) == expected, name

    instances = [complete_graph(n) for n in range(2, 7)]
    instances += [cycle_graph(n) for n in range(3, 10)]
    instances += [star_graph(k) for k in range(1, 7)]
    instances += [petersen_graph()]
    rng = random.Random(2002)
    for i in range(200):
        n = rng.randint(1, 8)
        p = (0.1, 0.3, 0.7)[i % 3]
        instances.append(gnp_graph(n, p, rng.getrandbits(63)))

    for g in instances:
        chi = exact_chromatic_index(g, max_edges=28)
        used = mk_edge_coloring(g).colors_used()
        delta = g.max_degree()
        if g.m == 0:
            assert chi == 0 and used == 0
        else:
            assert delta <= chi <= delta + 1, (delta, chi)
            assert chi <= used <= delta + 1, (chi, used)
    report(
        "criterion 2: oracle sandwich on 200 seeded + family graphs",
        True,
        f"{len(instances)} instances, spot checks C5=3 C6=2 K4=3 petersen=4",
    )


def test_criterion_3_lemma_suite():
    rng = random.Random(3003)
    sequences = rotations = inversions = subfan_hits = 0
    while sequences < 1000:
        n = rng.randint(2, 10)
        g = gnp_graph(n, rng.choice([0.2, 0.4, 0.7]), rng.getrandbits(63))
        if g.m == 0:
            continue
        coloring = rand_proper_coloring(rng, g)

        # Rotation lemma on a maximal fan from this state.
        free = uncolored_edges(coloring)
        if free:
            x, y = free[rng.randrange(len(free))]
            fan = maximal_fan(coloring, x, y)
            check_fan(coloring, fan)
            assert is_maximal_fan(coloring, fan)
            scratch = coloring.copy()
            rotate_fan(scratch, fan, pick_rotation_color(rng, coloring, fan))
            assert scratch.is_proper().proper
            rotations += 1

        # Inversion lemma and the not-in-path lemma (asserted on every step
        # of path construction).
        if coloring.palette >= 2:
            x = rng.randrange(g.n)
            free_colors = free_colors_on(coloring, x)
            if free_colors:
                b = rng.choice(free_colors)
                a = rng.choice([c for c in range(coloring.palette) if c != b])
                path = maximal_path(coloring, a, b, x)
                check_path(coloring, path)
                assert is_maximal_path(coloring, path)
                scratch = coloring.copy()
                invert(scratch, path)
                assert is_inverted(coloring, scratch, path)
                assert scratch.is_proper().proper
                inversions += 1

        # Subfan existence lemma: every inversion branch of the full
        # algorithm checks the selected subfan in debug mode.
        trace = []
        mk_edge_coloring(g, debug=True, on_step=trace.append)
        subfan_hits += sum(1 for step in trace if step.path)
        sequences += 1

    ok = rotations >= 400 and inversions >= 400 and subfan_hits >= 300
    report(
        "criterion 3: lemma suite, debug mode, 1000 mutation sequences",
        ok,
        f"rotations={rotations} inversions={inversions} subfan checks={subfan_hits}",
    )


def test_criterion_4_progress_invariant():
    rng = random.Random(4004)
    for _ in range(100):
        n = rng.randint(1, 20)
        g = gnp_graph(n, rng.choice([0.2, 0.5, 0.8]), rng.getrandbits(63))
        trace = []
        mk_edge_coloring(g, on_step=trace.append)
        assert len(trace) == g.m  # remaining edge set shrinks by 1 per step
        for i, step in enumerate(trace):
            assert step.colored_after == step.colored_before + 1
            assert step.colored_before == i
    report("criterion 4: +1 colored edge and -1 pending edge per iteration", True)


def test_criterion_5_determinism(tmp_path):
    gfile = tmp_path / "g.gr"
    gfile.write_text(format_dimacs(gnp_graph(30, 0.3, 555)))
    out_a = tmp_path / "a.col"
    out_b = tmp_path / "b.col"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["color", str(gfile), "-o", str(out_a)]) == 0
        assert main(["color", str(gfile), "-o", str(out_b)]) == 0
    byte_equal = out_a.read_bytes() == out_b.read_bytes()

    gnp_pure = all(
        gnp_graph(n, p, seed) == gnp_graph(n, p, seed)
        and format_dimacs(gnp_graph(n, p, seed)) == format_dimacs(gnp_graph(n, p, seed))
        for n, p, seed in [(10, 0.5, 42), (25, 0.1, 0), (40, 0.9, 2**62)]
    )
    report(
        "criterion 5: byte-identical reruns and pure gnp",
        byte_equal and gnp_pure,
    )


def coloring_peak_bytes(g) -> int:
    """Peak memory allocated while coloring `g` (the graph already exists)."""
    tracemalloc.start()
    try:
        mk_edge_coloring(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_criterion_6_scale():
    g = gnp_graph(1000, 0.02, 60606)
    t0 = time.perf_counter()
    coloring = mk_edge_coloring(g)
    elapsed = time.perf_counter() - t0
    verdict = verify_coloring(g, coloring)
    assert verdict.ok
    # Memory follows n and m: four times the vertices of a cycle cost about
    # four times the memory, where an n-by-n table would cost sixteen.
    small, large = (coloring_peak_bytes(cycle_graph(n)) for n in (2000, 8000))
    report(
        "criterion 6: G(1000, 0.02) colored with debug checks off, memory linear",
        elapsed < 5.0 and large < 6 * small,
        f"m={g.m}, {elapsed:.2f}s < 5s, 4x the vertices -> {large / small:.1f}x the memory",
    )


def test_criterion_7_dual_rotation():
    rng = random.Random(7007)
    instances = 0
    while instances < 1000:
        n = rng.randint(2, 10)
        g = gnp_graph(n, rng.choice([0.3, 0.6, 0.9]), rng.getrandbits(63))
        coloring = rand_proper_coloring(rng, g)
        free = uncolored_edges(coloring)
        if not free:
            continue
        x, y = free[rng.randrange(len(free))]
        fan = maximal_fan(coloring, x, y)
        color = pick_rotation_color(rng, coloring, fan)
        reference = rotate_fan_direct(coloring, fan, color)
        rotate_fan(coloring, fan, color)
        assert coloring == reference
        instances += 1
    report("criterion 7: fused rotation equals shift-then-color on 1000 fans", True)


def test_cli_round_trip_1000(tmp_path):
    # Library-level invariant from the CLI contract: gen -> color -> check
    # exits 0 for 1000 seeded instances. Per-command chatter is swallowed so
    # the acceptance log stays one line per check.
    rng = random.Random(8008)
    gfile = tmp_path / "g.gr"
    cfile = tmp_path / "g.col"
    sink = io.StringIO()
    for i in range(1000):
        n = rng.randint(1, 12)
        p = rng.choice(["0.1", "0.4", "0.8"])
        with contextlib.redirect_stdout(sink):
            assert main(["gen", "gnp", str(n), p, "--seed", str(i), "-o", str(gfile)]) == 0
            assert main(["color", str(gfile), "-o", str(cfile)]) == 0
            assert main(["check", str(gfile), str(cfile)]) == 0
    report("cli invariant: gen/color/check round trip on 1000 seeded instances", True)
