"""Golden outputs: the exact bytes `color`, `--trace` and `check` produce.

Every value here was pinned from a run of the package and is behaviour: a
change to any of them changes output bytes (see the determinism policy in
README). A refactor of the internals proves byte-identity by leaving this
file untouched.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from mgcolor import format_coloring, format_dimacs, gen_family, mk_edge_coloring
from mgcolor.cli import main


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def graph_id(key: tuple) -> str:
    return "-".join(str(f) for f in key if f is not None)


# (family, n, p, seed) -> sha256 of format_coloring(mk_edge_coloring(g)).
# Every generator family, plus gnp graphs up to more than 10k edges.
COLORING_DIGESTS = {
    ("complete", 1, None, 0): "f0aae1259a4effd0f8236fcca706b364d80e30234888a4e833643ee6fd145dcf",
    ("complete", 2, None, 0): "07a6570a8d867dc65db3bc366baaa381aa17cc8d14a799e680cc95c394d9406c",
    ("complete", 5, None, 0): "9f86faa44e2e07ed4c134bc12909ca1e29f75dec344547a7cc7dd375a165ca70",
    ("complete", 8, None, 0): "6801b38d18adce676a7c3e1830c8a80ae8b62371f660f87d02898da68dfeb42f",
    ("complete", 15, None, 0): "d19249aa271e86881460a122284c990fde68e40949c2ffcbc57e0eecba24d03e",
    ("complete", 40, None, 0): "68c261adac4cc0d97676b3beea6a87b4b29eee0ded14d5bbf696602b89477750",
    ("cycle", 3, None, 0): "ab03996358ceddfe2741e8be039155e8fb811cf45b11501137b9f15154910a8b",
    ("cycle", 4, None, 0): "b81bff34ae4c448d5ec666ac226810588606260ba2c8360e16c70ecf445eec84",
    ("cycle", 7, None, 0): "65b8d323ba5ebce75c08e2170dfe1431c0b40fbec940ee5ddd5bdb5c010217fe",
    ("cycle", 50, None, 0): "b06b9624c9b7c301c1277c875619f3ee59bf39692d584d82c995612577faa193",
    ("path", 0, None, 0): "ca22efd4a031cb1a65d0f95ca9914b8da4edc4dd9660438356188aeff137eb06",
    ("path", 1, None, 0): "f0aae1259a4effd0f8236fcca706b364d80e30234888a4e833643ee6fd145dcf",
    ("path", 2, None, 0): "07a6570a8d867dc65db3bc366baaa381aa17cc8d14a799e680cc95c394d9406c",
    ("path", 10, None, 0): "dd92e5aa02e77e7cd6f701c2fa81935c64eb7c8077efbeec25124a78082a5921",
    ("star", 0, None, 0): "f0aae1259a4effd0f8236fcca706b364d80e30234888a4e833643ee6fd145dcf",
    ("star", 1, None, 0): "07a6570a8d867dc65db3bc366baaa381aa17cc8d14a799e680cc95c394d9406c",
    ("star", 7, None, 0): "f05b05b09b18dd039727e5f51bb2bf594e1c050215417b77d1fcfe8ce7d0d1b5",
    ("star", 30, None, 0): "ae4a0e987089061b99b79ff6862bbed9ed9cf76cbfde246dd62b9b695fbdf56e",
    ("petersen", None, None, 0): "58ba023d22fbe43e959c178bd5c900b034220d5b57571ae5f571b641923bb0d5",
    ("gnp", 8, 0.5, 1): "b36f55de61747d6f8edcb2c7ebb648ff652c3eff693040e986efb635a4e43b5f",
    ("gnp", 12, 0.9, 2): "13fa6314ce7497d2f591297b525b95f200f88e754201647f7ef399047abdaf70",
    ("gnp", 20, 0.3, 3): "4222716009606ad795ef10a0db49910305abd5eeb4af2c574139fd7eba1a7f52",
    ("gnp", 40, 0.15, 4): "4d4cf73aafe28a202850cab760e17723d7ef12bbca5576fa207b782db2e0922a",
    ("gnp", 60, 0.3, 5): "ecf928a858a08fab9497b3d607af7692e08fdc9ccda993806e61cd5fa63d422b",
    ("gnp", 100, 0.1, 6): "4bbad9ce764cf893b3f1500cf9fcf968f48700891bf99782b9f45ea322fa2349",
    ("gnp", 150, 0.3, 7): "f2f9839e78a4f8f256efcd3362f039e97c5be3404a06f6bc51e4caad22b12eb1",
    ("gnp", 200, 0.05, 8): "cec0b60147513599aae36e61b750979b9792b8d80f25ee42dabfa5145f910dea",
    ("gnp", 500, 0.04, 9): "becde454cd507d479d80243a045360b1392fa945eee16340c14429642e7ff5d9",
    ("gnp", 1000, 0.02, 10): "6ece3228d2676b19a4d5375082e991b97a6a0f43a234ef5e917a282493282647",
    ("gnp", 1500, 0.01, 11): "887c221630c9a1da772d36f85978540b5d37f4dccbcbb33c96a62abafb06c174",
}


@pytest.mark.parametrize("key", list(COLORING_DIGESTS), ids=graph_id)
def test_coloring_digest(key):
    family, n, p, seed = key
    g = gen_family(family, n=n, p=p, seed=seed)
    assert sha256(format_coloring(mk_edge_coloring(g))) == COLORING_DIGESTS[key]


def test_large_graph_in_corpus():
    g = gen_family("gnp", n=1500, p=0.01, seed=11)
    assert g.m >= 10_000


# (family, n, p, seed) -> (sha256 of the coloring file, of the --trace file).
TRACE_DIGESTS = {
    ("star", 3, None, 0): (
        "b9f0c77d54474f1c14f0b3c432d9ea25c1e5c68a22aa9a6a855824ea91b47c05",
        "f5ce604ac1120dc8331c2ebc4d37b55a2e27c8e75135a791d8f5841c71aa48cc",
    ),
    ("complete", 5, None, 0): (
        "9f86faa44e2e07ed4c134bc12909ca1e29f75dec344547a7cc7dd375a165ca70",
        "99474196e24470198c973bbcd7f35465f9e7b40ad9588e93e57ca824d3b2dbd7",
    ),
    ("petersen", None, None, 0): (
        "7331d4755e91ead9cd030f7c127deba583246ee07617fe1bf9212ec03e55db0d",
        "ce7c284f69ef1007bd2bac671e1197e941335c1d84483fab1631ff8ae0bc97c4",
    ),
    ("gnp", 20, 0.3, 3): (
        "4222716009606ad795ef10a0db49910305abd5eeb4af2c574139fd7eba1a7f52",
        "cd5a1ab42cfaa7a9df4ac76704f90418a95b48771192a01a857d3a64e55c24f0",
    ),
}


@pytest.mark.parametrize("key", list(TRACE_DIGESTS), ids=graph_id)
def test_trace_digest(tmp_path, key):
    family, n, p, seed = key
    gfile = tmp_path / "g.gr"
    gfile.write_text(format_dimacs(gen_family(family, n=n, p=p, seed=seed)))
    out = tmp_path / "g.col"
    trace = tmp_path / "g.trace"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["color", str(gfile), "-o", str(out), "--trace", str(trace)])
    assert code == 0
    assert (sha256(out.read_bytes()), sha256(trace.read_bytes())) == TRACE_DIGESTS[key]


# Neighbor lists are built in file order, so canonical edge order here is
# (1,4) (1,2) (1,3) (2,5) (2,6) (3,4) (4,5), not sorted order.
CHECK_GRAPH = """\
p edge 6 7
e 1 4
e 1 2
e 2 5
e 3 1
e 3 4
e 4 5
e 6 2
"""

# Name -> (coloring file, expected exit code, expected stdout). Violations
# print 0-based vertices and colors.
CHECK_CASES = {
    "valid": (
        "s 6 7 4 4\ne 1 4 2\ne 1 2 1\ne 1 3 4\ne 2 5 2\ne 2 6 4\ne 3 4 1\ne 4 5 3\n",
        0,
        "valid: proper complete colors_used=4 palette=4\n",
    ),
    # Two non-edges, the later one in scan order first in the file.
    "non_edge": (
        "s 6 7 4 4\ne 1 4 2\ne 1 2 1\ne 1 3 4\ne 2 5 2\ne 2 6 4\ne 3 4 1\ne 4 5 3\n"
        "e 6 5 1\ne 3 6 2\n",
        1,
        "invalid: non_edge edge (2, 5) colors 1\n",
    ),
    # Color 2 twice at vertex 4 and at vertex 5.
    "duplicate_color": (
        "s 6 7 4 3\ne 1 4 2\ne 1 2 1\ne 1 3 4\ne 2 5 2\ne 2 6 4\ne 3 4 1\ne 4 5 2\n",
        1,
        "invalid: duplicate_color edge (3, 4) vertex 3 colors 1\n",
    ),
    # (1,2) and (1,4) missing: the first in canonical order is (1,4).
    "incomplete": (
        "s 6 7 4 4\ne 1 3 4\ne 2 5 2\ne 2 6 4\ne 3 4 1\ne 4 5 3\n",
        1,
        "invalid: incomplete edge (0, 3)\n",
    ),
    # Two colors beyond the palette, the later one in scan order first.
    "bound": (
        "s 6 7 4 5\ne 2 6 7\ne 1 4 2\ne 1 2 1\ne 1 3 9\ne 2 5 2\ne 3 4 1\ne 4 5 3\n",
        1,
        "invalid: bound edge (0, 2) colors 8\n",
    ),
    # Every kind at once: non-edges, a duplicate through a non-edge, a
    # missing edge and an out-of-palette color.
    "all_kinds": (
        "s 6 7 4 9\ne 5 6 4\ne 1 4 2\ne 1 3 9\ne 2 5 2\ne 2 6 4\ne 3 4 1\ne 4 5 2\n"
        "e 1 5 2\n",
        1,
        "invalid: non_edge edge (0, 4) colors 1\n",
    ),
    # No non-edge: the duplicate at vertex 5 wins over the missing edge and
    # the bound, and is reported from the row of vertex 5.
    "duplicate_incomplete_bound": (
        "s 6 7 4 9\ne 1 4 2\ne 1 3 9\ne 2 5 3\ne 2 6 4\ne 3 4 1\ne 4 5 3\n",
        1,
        "invalid: duplicate_color edge (4, 3) vertex 4 colors 2\n",
    ),
    # Proper: the missing edge wins over the bound.
    "incomplete_bound": (
        "s 6 7 4 9\ne 1 4 2\ne 1 3 9\ne 2 5 2\ne 2 6 4\ne 3 4 1\ne 4 5 3\n",
        1,
        "invalid: incomplete edge (0, 1)\n",
    ),
}


@pytest.mark.parametrize("name", list(CHECK_CASES))
def test_check_stdout(tmp_path, name):
    text, code, stdout = CHECK_CASES[name]
    gfile = tmp_path / "g.gr"
    gfile.write_text(CHECK_GRAPH)
    cfile = tmp_path / "g.col"
    cfile.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = main(["check", str(gfile), str(cfile)])
    assert (got, out.getvalue()) == (code, stdout)
