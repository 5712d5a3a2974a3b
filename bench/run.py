"""End-to-end benchmark for dcverify.

    python3 bench/run.py --workload {scenarios,lp-rows,check-mix} --seed N
                         --seconds S --trace {0,1}

Runs dcverify the way a user does, one ``dcverify.cli.main(argv)`` call per
command with stdout captured, single-threaded in a closed loop over whole
passes of a fixed command list.  Every distinct output is checked against
the independent kernel in ``checks.py`` (later passes must reproduce the
checked bytes).  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints per-layer
metrics per pass.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIPPED = SRC / "dcverify" / "problems"
OUT = BENCH / "out"

SETUP_SPAWNS = 11
LP_GRIDS = (33, 65, 101)
MIX_PROBLEMS = 36

# layers each workload must reach; a traced pass that misses one is an error
EXPECTED_LAYERS = {
    "scenarios": ("problemfile.parse_problem", "cones.from_generators", "cones.cone_contains",
                  "problem.grid_points", "problem.evaluate", "problem.feasible_contains",
                  "problem.check_cone_convex", "problem.check_convexlike",
                  "dissipativity.check_approx_pseudo_dissipative",
                  "pareto.check_eps_weak_local_min", "multipliers.solve_feasibility",
                  "multipliers.sufficient_condition", "multipliers.necessary_condition",
                  "report.emit_report", "cli.main", "scenarios.run_scenario"),
    "lp-rows": ("problemfile.parse_problem", "cones.from_generators", "cones.cone_contains",
                "problem.grid_points", "problem.evaluate", "multipliers.solve_feasibility",
                "multipliers.sufficient_condition", "report.emit_report", "cli.main"),
    "check-mix": ("problemfile.parse_problem", "cones.from_generators",
                  "cones.from_halfspaces", "cones.cone_contains", "problem.grid_points",
                  "problem.evaluate", "problem.feasible_contains", "problem.check_convexlike",
                  "subdiff.eps_subdiff_contains", "subdiff.strong_subdiff_contains",
                  "dissipativity.check_approx_pseudo_dissipative",
                  "pareto.check_eps_weak_local_min", "pareto.check_eps_proper_local_min",
                  "multipliers.solve_feasibility", "multipliers.alternative_system",
                  "multipliers.sufficient_condition", "multipliers.necessary_condition",
                  "report.emit_report", "cli.main"),
}
COUNT_KEYS = ("calls", "points", "rows", "infeasible", "bytes")


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    kind: str          # "scenario" or a check kind
    path: Path         # the problem file the checks read
    target: str = ""   # scenario name, "example-4-1" or "notched" for lp-rows files
    mode: str = ""
    grid: int = 0


def _check(kind: str, path: Path, grid: int, mode: str = "", target: str = "") -> Command:
    argv = ["check", kind, "--problem", str(path), "--grid", str(grid)]
    if mode:
        argv += ["--mode", mode]
    argv += ["--format", "machine"]
    label = " ".join([kind, mode, path.stem, f"grid={grid}"]).replace("  ", " ")
    return Command(label, tuple(argv), kind, path, target, mode, grid)


def scenarios_workload(seed: int, workdir: Path) -> list[Command]:
    """Both shipped pipelines at their shipped grid; the seed sets the order."""
    cmds = [Command(f"scenario {name}", ("scenario", name, "--format", "machine"),
                    "scenario", SHIPPED / file, name)
            for name, file in (("example-3-1", "example_3_1.problem"),
                               ("example-4-1", "example_4_1.problem"))]
    random.Random(seed).shuffle(cmds)
    return cmds


def lp_rows_workload(seed: int, workdir: Path) -> list[Command]:
    """Corrected-sufficient on example-4-1 (always infeasible) and on two
    seeded notched problems (four feasible LPs each) at several grids."""
    import corpus
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    files = [(SHIPPED / "example_4_1.problem", "example-4-1")]
    for index, y_dim in enumerate((1, 2)):
        path = workdir / f"notched-{index}.problem"
        path.write_text(corpus.notched(rng, y_dim, index), encoding="utf-8")
        files.append((path, "notched"))
    return [_check("sufficient", path, g, "corrected", target)
            for g in LP_GRIDS for path, target in files]


def check_mix_workload(seed: int, workdir: Path) -> list[Command]:
    """A seeded corpus of small problems, each through every applicable check."""
    import corpus
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    cmds = []
    for index in range(MIX_PROBLEMS):
        text, facts = corpus.mixed(rng, index)
        path = workdir / f"mix-{index:02d}.problem"
        path.write_text(text, encoding="utf-8")
        g = facts["grid"]
        kinds = [("weak-min", ""), ("subdiff", ""), ("dissipative", ""), ("alternative", ""),
                 ("sufficient", "legacy-gl"), ("necessary", "corrected"),
                 ("necessary", "legacy-gl")]
        if facts["x_dim"] == 1:
            kinds.append(("sufficient", "corrected"))
        if facts["y_dim"] == 2 and facts["k_orthant"]:
            kinds.append(("proper-min", ""))
        cmds += [_check(kind, path, g, mode) for kind, mode in kinds]
    return cmds


WORKLOADS = {"scenarios": scenarios_workload, "lp-rows": lp_rows_workload,
             "check-mix": check_mix_workload}


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------


def run_command(cli, argv) -> tuple[object, float, bytes, str]:
    """(exit status or exception text, wall seconds, stdout bytes, stderr)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            status = cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # a traceback is a failed operation
            status = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return status, elapsed, out.buffer.getvalue(), err.getvalue()


class Runner:
    """Runs passes over a command list and checks every distinct output."""

    def __init__(self, cli, commands: list[Command]) -> None:
        from dcverify.report import emit_report, parse_machine_report
        self.cli = cli
        self.commands = commands
        self.roundtrip = lambda raw: emit_report(parse_machine_report(raw), "machine")
        self.reference: dict[str, tuple[bytes, int]] = {}
        self.samples = {c.label: [] for c in commands}
        self.attempted = self.failed = self.verdicts = 0
        self.timed = 0.0
        self.errors: list[str] = []    # wrong outputs
        self.failures: list[str] = []  # commands that exited with an error

    def run_pass(self) -> float:
        """One whole pass; returns the summed wall time of its commands."""
        import checks
        total = 0.0
        for cmd in self.commands:
            status, elapsed, out, err = run_command(self.cli, cmd.argv)
            self.attempted += 1
            if status != 0:
                self.failed += 1
                self.failures.append(f"{cmd.label}: {status} {err.strip()}")
                continue
            self.samples[cmd.label].append(elapsed)
            total += elapsed
            if cmd.label not in self.reference:
                try:
                    text = cmd.path.read_text(encoding="utf-8")
                    report = checks.check_report(cmd, text, out)
                    checks.require(self.roundtrip(out) == out,
                                   "machine report does not round-trip")
                except Exception as exc:
                    self.errors.append(f"{cmd.label}: {type(exc).__name__}: {exc}")
                    report = {"results": []}
                self.reference[cmd.label] = (out, len(report["results"]))
            elif out != self.reference[cmd.label][0]:
                self.errors.append(f"{cmd.label}: output differs from the checked pass")
            self.verdicts += self.reference[cmd.label][1]
        self.timed += total
        return total

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.errors,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing dcverify and its
    command line; one unmeasured spawn first writes the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", "import dcverify, dcverify.cli"]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(perf_counter() - start)
    return statistics.median(times)


def timed_run(runner: Runner, seconds: float) -> dict:
    start = perf_counter()
    while True:
        runner.run_pass()
        if perf_counter() - start >= seconds:
            break
    medians = [statistics.median(s) for s in runner.samples.values() if s]
    for cmd in runner.commands:
        s = runner.samples[cmd.label]
        if s:
            print(f"  {cmd.label}: median {statistics.median(s):.4f} s over {len(s)}")
    gmean = math.exp(statistics.fmean(math.log(m) for m in medians))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "command_gmean_s": (gmean, "s"),
        "verdicts_per_s": (runner.verdicts / runner.timed, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def traced_run(runner: Runner, seconds: float, workload: str, seed: int) -> dict:
    """Alternate untraced and traced passes; counts per traced pass must
    repeat exactly and traced outputs must equal the checked untraced ones."""
    from tracing import Tracer, per_layer_metrics
    tracer = Tracer()
    plain, traced, counts = [], [], None
    start = perf_counter()
    while True:
        plain.append(runner.run_pass())
        before = tracer.snapshot()
        tracer.recording = not traced
        tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
        after = tracer.snapshot()
        delta = {name: {k: after[name][k] - before[name][k] for k in COUNT_KEYS
                        if k in after[name]} for name in after}
        if counts is None:
            counts = delta
        elif delta != counts:
            runner.errors.append("per-layer counts differ between traced passes")
        if perf_counter() - start >= seconds:
            break
    for layer in EXPECTED_LAYERS[workload]:
        if counts[layer]["calls"] == 0:
            runner.errors.append(f"layer {layer} recorded no calls on {workload}")
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload, "seed": seed, "traced_passes": len(traced),
        "layers": tracer.stats,
        "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans],
    }), encoding="utf-8")
    overhead = statistics.median(traced) / statistics.median(plain)
    print(f"  tracing overhead {overhead:.3f} over {len(traced)} traced passes; "
          f"spans in {trace_file.relative_to(ROOT)}")
    metrics = per_layer_metrics(tracer.stats, len(traced))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dcverify" / "cli.py").is_file():
        print(f"bench: no dcverify sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = None if args.trace else measure_setup()
    import dcverify.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "dcverify":
        print(f"bench: imported dcverify from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    runner = Runner(cli, WORKLOADS[args.workload](args.seed, workdir))
    print(f"bench: {args.workload} seed={args.seed}: {len(runner.commands)} commands per pass")
    if args.trace:
        metrics = traced_run(runner, args.seconds, args.workload, args.seed)
    else:
        metrics = timed_run(runner, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    for line in runner.failures[:10] + runner.errors[:20]:
        print(f"  ERROR {line}")
    print(json.dumps(runner.result(metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
