"""End-to-end and per-layer benchmark of the mgcolor CLI.

    python3 perfbench/run.py --workload traced --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

The program under test is the `src/` tree next to this directory, run as
the tests run it (`PYTHONPATH=src`); no installed copy is used.

`--trace 0` runs every operation as its own `python -m mgcolor` process,
starting the next only after the previous one has exited: a closed loop
with one client, so at most one core is busy. spawner.py starts each
process, times it from spawn to exit and reads its max RSS from
`os.wait4`. The host the baseline was taken on runs the same code at
speeds up to 2x apart for seconds to minutes at a time, so spawner.py also
times a fixed stdlib reference process between each two operations, and
every reported time is the wall time scaled by REF_S / the reference time
around it (raw wall medians are in the detail record). `--trace 1` runs the
same operations in-process through `mgcolor.cli.main`, each once without
and once with the timing wrappers of tracing.py, and reports per-layer
numbers and the tracing overhead.

Every output is checked: exit codes, the oracle's answers against known
chromatic indices, stdlib property checks of each coloring and trace file
(outputs.py), and, for the default seed, sha256 digests pinned in
golden.json. Any problem counts the operation as failed.

The last line of stdout is the JSON result: correct, attempted, failed and
the metrics. The JSON line before it is the detail record: environment
(resolved mgcolor path, Python, nproc, commit, seed), sample counts, tail
percentiles, failures, digests and missing layers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from shutil import rmtree

from outputs import clashing_copy, coloring_problem, sha256, trace_problem
from tracing import PER_LAYER, Tracer, layer_values

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPS = 3
# Median seconds of the spawner's reference process on the 2-vCPU host of
# baseline.json. Every process time is reported as its wall time times
# REF_S / the reference time measured around it: seconds at that host's
# median speed.
REF_S = 0.17

PETERSEN = (("petersen",), 4)
# Graphs of at most 25 edges whose chromatic index is known: Petersen is
# class 2, K_n has n - 1 colors for even n and n for odd n, odd cycles 3.
ORACLE_SET = (
    PETERSEN,
    (("complete", "7"), 7),
    (("complete", "6"), 5),
    (("complete", "5"), 5),
    (("cycle", "7"), 3),
)
OVER_CAP = ("complete", "8")  # 28 edges: over the oracle's 25-edge cap, exit 3


@dataclass(frozen=True)
class Workload:
    gnp: tuple[int, float]  # class G(n, p) of the seeded graphs
    graphs: int  # seeded graphs per run, used in turn
    trace: bool = False  # color with --trace
    debug: bool = False  # color with --debug-checks
    oracle: tuple = (PETERSEN,)  # (gen arguments, known chromatic index)
    exit_ops: bool = False  # also expect check -> 1 and oracle -> 3


# BENCHMARK.json gates `traced` and `checked` and says why. `sparse` and
# `dense` separate the n*n and the fan/path bottlenecks but spread too much
# between runs on a noisy 2-core host to be gated; they run by hand with
# --workload. Outside `checked` the oracle runs once per job on Petersen,
# which is almost all interpreter start-up: a control that every other
# process also pays.
WORKLOADS = {
    "sparse": Workload((4000, 0.0025), 3),
    "dense": Workload((600, 0.25), 3),
    "traced": Workload((2000, 0.01), 3, trace=True),
    "checked": Workload((120, 0.1), 8, debug=True, oracle=ORACLE_SET, exit_ops=True),
}
SELFTEST_GNP = {
    "sparse": (200, 0.02),
    "dense": (60, 0.25),
    "traced": (100, 0.05),
    "checked": (30, 0.15),
}

END_TO_END = {
    "color_s": "s",
    "check_s": "s",
    "oracle_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Op:
    kind: str
    argv: list[str]
    code: int  # expected exit code
    out: str  # expected stdout prefix


def graph_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"pct": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values), "tail": tail(values)}


class Run:
    """One benchmark run of one workload: its files, checks and samples."""

    def __init__(self, wl: Workload, seed: int, work: Path, pins: dict | None):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.pins = pins
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self._sound: set[str] = set()  # digests whose properties passed
        self._spawner: subprocess.Popen | None = None

    def path(self, label: str) -> Path:
        return self.work / label

    # -- running the CLI -------------------------------------------------

    def spawn(self, argv: list[str]) -> tuple[object, str, dict]:
        """One `python -m mgcolor` process, started by the spawner helper."""
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, str(HERE / "spawner.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
            )
        out = self.path("stdout.txt")
        request = {"argv": [sys.executable, "-m", "mgcolor", *argv],
                   "stdout": str(out), "stderr": str(self.path("stderr.txt"))}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        sample = {"wall": reply["wall"] * REF_S / reply["ref"], "raw_wall": reply["wall"],
                  "ref": reply["ref"], "rss_mb": reply["rss_mb"]}
        return reply["code"], out.read_text(), sample

    def close(self) -> None:
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait()
            self._spawner.stdout.close()

    # -- the operations --------------------------------------------------

    def gen_plan(self) -> list[tuple[str, list[str]]]:
        n, p = self.wl.gnp
        plan = [
            (f"g{i}.gr", ["gnp", str(n), str(p), "--seed", str(graph_seed(self.seed, i))])
            for i in range(self.wl.graphs)
        ]
        plan += [(f"o{j}.gr", list(args)) for j, (args, _) in enumerate(self.wl.oracle)]
        if self.wl.exit_ops:
            plan.append(("cap.gr", list(OVER_CAP)))
        return plan

    def plan(self, i: int) -> list[Op]:
        g, col = str(self.path(f"g{i}.gr")), str(self.path(f"g{i}.col"))
        color = ["color", g, "-o", col]
        if self.wl.trace:
            color += ["--trace", str(self.path(f"g{i}.trace"))]
        if self.wl.debug:
            color.append("--debug-checks")
        ops = [Op("color", color, 0, ""), Op("check", ["check", g, col], 0, "valid: proper complete")]
        ops += [
            Op("oracle", ["oracle", str(self.path(f"o{j}.gr"))], 0, f"chi_prime {chi}\n")
            for j, (_, chi) in enumerate(self.wl.oracle)
        ]
        if self.wl.exit_ops:
            ops.append(Op("check_invalid", ["check", g, str(self.path(f"g{i}.bad.col"))], 1, "invalid: duplicate_color"))
            ops.append(Op("oracle_cap", ["oracle", str(self.path("cap.gr"))], 3, ""))
        return ops

    def problem(self, op: Op, i: int, code: object, out: str) -> str | None:
        if code != op.code:
            return f"{op.kind} g{i}: exit {code}, expected {op.code}"
        if not out.startswith(op.out):
            return f"{op.kind} g{i}: stdout {out[:60]!r}, expected {op.out!r}"
        if op.kind != "color":
            return None
        g = self.path(f"g{i}.gr")
        col = self.path(f"g{i}.col")
        found = self.file_problem(f"g{i}.col", lambda: coloring_problem(g, col))
        if found is None and self.wl.trace:
            trace = self.path(f"g{i}.trace")
            found = self.file_problem(f"g{i}.trace", lambda: trace_problem(g, trace))
        if found is None and self.wl.exit_ops:
            clashing_copy(col, self.path(f"g{i}.bad.col"))
        return found

    def file_problem(self, label: str, properties) -> str | None:
        """Digest against the pin (default seed) or the first run; then properties."""
        digest = sha256(self.path(label))
        first = self.digests.setdefault(label, digest)
        if self.pins is not None:
            if label not in self.pins:
                return f"{label}: no pinned digest"
            if digest != self.pins[label]:
                return f"{label}: sha256 {digest[:16]} differs from the pinned {self.pins[label][:16]}"
        if digest != first:
            return f"{label}: sha256 {digest[:16]} differs from this run's first {first[:16]}"
        if digest not in self._sound:
            found = properties()
            if found is not None:
                return f"{label}: {found}"
            self._sound.add(digest)
        return None

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)

    # -- phases ----------------------------------------------------------

    def setup(self, reps: int) -> list[float]:
        """Generate the graph files with `mgcolor gen`, `reps` times over.

        Returns the summed time of each round's `gen` processes.
        """
        times = []
        for _ in range(reps):
            results = [(label, *self.spawn(["gen", *args, "-o", str(self.path(label))]))
                       for label, args in self.gen_plan()]
            times.append(sum(sample["wall"] for _, _, _, sample in results))
            for label, code, _, _ in results:
                self.record(f"gen {label}: exit {code}" if code != 0
                            else self.file_problem(label, lambda: None))
        return times

    def measure(self, seconds: float, runners) -> list[list[tuple[str, str, dict]]]:
        """Jobs over the graphs in turn: one round at least, then while they fit.

        A further job starts only if it would end by the deadline, judging
        by the last job. Returns one list per job of (op kind, runner name,
        sample).
        """
        deadline = time.perf_counter() + seconds
        jobs = []
        while True:
            start = time.perf_counter()
            jobs.append(self.job(len(jobs) % self.wl.graphs, runners))
            now = time.perf_counter()
            if len(jobs) >= self.wl.graphs and now + (now - start) > deadline:
                return jobs

    def job(self, i: int, runners) -> list[tuple[str, str, dict]]:
        samples = []
        for op in self.plan(i):
            for runner in runners:
                code, out, sample = runner(op.argv)
                self.record(self.problem(op, i, code, out))
                samples.append((op.kind, runner.__name__, sample))
        return samples


def inproc_runners(tracer: Tracer):
    """In-process CLI runs, without and with the timing wrappers."""
    from mgcolor import cli

    if not cli.__file__.startswith(str(SRC)):
        raise SystemExit(f"mgcolor.cli imports from {cli.__file__!r}, not from {SRC}")

    def call(main, argv):
        gc.collect()
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # report the crash as a failed operation
                code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        return code, out.getvalue(), wall

    def untraced(argv):
        code, out, wall = call(cli.main, argv)
        return code, out, {"wall": wall}

    def traced(argv):
        tracer.install()
        try:
            code, out, wall = call(lambda a: tracer.call("cli", cli.main, a), argv)
        finally:
            tracer.uninstall()
        snap, spans = tracer.take()
        return code, out, {"wall": wall, "snap": snap, "spans": spans}

    return untraced, traced


def end_to_end(run: Run, setup_times: list[float], jobs) -> tuple[dict, dict]:
    walls = {kind: [s["wall"] for job in jobs for k, _, s in job if k == kind]
             for kind in ("color", "check", "oracle")}
    rss = [max(s["rss_mb"] for _, _, s in job) for job in jobs]
    raw = {kind: [s["raw_wall"] for job in jobs for k, _, s in job if k == kind]
           for kind in walls}
    samples = {f"{kind}_s": summary(v) for kind, v in walls.items()}
    samples["raw_wall_median"] = {f"{kind}_s": statistics.median(v) for kind, v in raw.items()}
    samples["reference_s_median"] = statistics.median(s["ref"] for job in jobs for _, _, s in job)
    samples["peak_rss_mb"] = summary(rss)
    samples["setup_s"] = summary(setup_times)
    metrics = {name: {"value": samples[name]["median"], "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, {"samples": samples}


def per_layer(run: Run, tracer: Tracer, jobs) -> tuple[dict, dict]:
    traced = [[(k, s["snap"]) for k, r, s in job if r == "traced"] for job in jobs]
    values = layer_values(traced)
    wall = {r: sum(s["wall"] for job in jobs for _, rr, s in job if rr == r)
            for r in ("untraced", "traced")}
    values["trace.overhead"] = wall["traced"] / wall["untraced"]
    values["cli.trace_bytes"] = statistics.median(
        run.path(f"g{i}.trace").stat().st_size if run.wl.trace else 0
        for i in range(run.wl.graphs)
    )
    missing = sorted(name for name, (_, needs) in PER_LAYER.items()
                     if any(n in tracer.missing for n in needs))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in PER_LAYER.items() if name not in missing}

    by_op: dict[str, dict] = {}
    for job in jobs:
        for kind, r, s in job:
            entry = by_op.setdefault(kind, {"untraced_wall": [], "traced_wall": [], "self_s": {}})
            entry[f"{r}_wall"].append(s["wall"])
            for label, vals in s.get("snap", {}).items():
                if not label.startswith("#"):
                    entry["self_s"].setdefault(label, []).append(vals[2])
    for entry in by_op.values():
        for key in ("untraced_wall", "traced_wall"):
            entry[key] = statistics.median(entry[key])
        entry["self_s"] = {k: statistics.median(v) for k, v in entry["self_s"].items()}
    spans = [{"job": j, "op": kind, "spans": s["spans"]}
             for j, job in enumerate(jobs) for kind, r, s in job if r == "traced"]
    return metrics, {"missing": missing, "by_op": by_op, "spans": spans}


def environment(run: Run) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import mgcolor; print(mgcolor.__file__)"],
        env=run.env, cwd=ROOT, capture_output=True, text=True,
    )
    digest = hashlib.sha256()
    for f in sorted((SRC / "mgcolor").rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "mgcolor": probe.stdout.strip(),
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": run.seed,
    }


def bench(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
          pins: dict | None, setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """Run one workload; returns (contract result, detail record)."""
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(wl, seed, work, pins)
    try:
        env = environment(run)
        if not env["mgcolor"].startswith(str(SRC)):
            raise SystemExit(f"mgcolor resolves to {env['mgcolor']!r}, not to {SRC}")
        setup_times = run.setup(1 if trace else setup_reps)
        if trace:
            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            tracer = Tracer()
            jobs = run.measure(seconds, inproc_runners(tracer))
            metrics, extra = per_layer(run, tracer, jobs)
        else:
            jobs = run.measure(seconds, [run.spawn])
            metrics, extra = end_to_end(run, setup_times, jobs)
    finally:
        run.close()
        rmtree(work, ignore_errors=True)
    failed = len(run.failures)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": name,
        "trace": int(trace),
        "env": env,
        "jobs": len(jobs),
        "fail_ratio": failed / run.attempted,
        "failures": run.failures[:20],
        "digests": run.digests,
        **extra,
    }
    return result, detail


def selftest() -> int:
    """Every workload path once on tiny graphs, plus the failure accounting."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {declared} != {END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != {name: unit for name, (unit, _) in PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload WORKLOADS lacks")
    layers = json.loads((HERE / "baseline.json").read_text())["layers"]
    if set(layers) != set(PER_LAYER):
        problems.append("baseline.json layers differ from tracing.PER_LAYER")

    for name, wl in WORKLOADS.items():
        tiny = replace(wl, gnp=SELFTEST_GNP[name])
        first, detail = bench(name, tiny, DEFAULT_SEED, 0, False, None, setup_reps=2)
        pins = detail["digests"]
        wrong = {**pins, "g0.col": "0" * 64}
        cases = {
            "unpinned": (first, 0),
            "pinned": (bench(name, tiny, DEFAULT_SEED, 0, False, pins)[0], 0),
            "wrong pin": (bench(name, tiny, DEFAULT_SEED, 0, False, wrong)[0], 1),
            "traced": (bench(name, tiny, DEFAULT_SEED, 0, True, pins)[0], 0),
        }
        for case, (result, want_failed) in cases.items():
            got = result["failed"] > 0
            if got != bool(want_failed):
                problems.append(f"{name} {case}: failed={result['failed']}, expected {'some' if want_failed else 'none'}")
            print(f"{name:8} {case:10} attempted={result['attempted']} failed={result['failed']} "
                  f"metrics={len(result['metrics'])}")
        if set(cases["traced"][0]["metrics"]) != set(PER_LAYER):
            problems.append(f"{name} traced: per-layer metrics missing")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload once on tiny graphs and test the failure accounting")
    args = parser.parse_args(argv)
    if not (SRC / "mgcolor" / "cli.py").is_file():
        print(f"error: no mgcolor source tree at {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    pins = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text())
        pins = golden["digests"].get(args.workload, {})
    result, detail = bench(args.workload, WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace), pins)
    spans = detail.pop("spans", None)
    if spans is not None:
        out = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(spans))
        detail["spans_file"] = str(out.relative_to(ROOT))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
