"""Tests of the benchmark's checking kernel and tracer.

    python3 -m pytest bench -q

Each check must accept the program's real report and reject the same report
with a tampered witness, certificate or status.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import corpus  # noqa: E402
import kernel  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from kernel import CheckFailure  # noqa: E402

import dcverify.cli as cli  # noqa: E402

EX31 = run.SHIPPED / "example_3_1.problem"
EX41 = run.SHIPPED / "example_4_1.problem"


def output(cmd: run.Command) -> bytes:
    status, _, out, err = run.run_command(cli, cmd.argv)
    assert status == 0, err
    return out


def assert_rejects(cmd: run.Command, edit) -> None:
    """The real report passes its check; the edited one fails it."""
    raw = output(cmd)
    text = cmd.path.read_text(encoding="utf-8")
    checks.check_report(cmd, text, raw)
    payload = json.loads(raw)
    edit(payload["results"])
    with pytest.raises(CheckFailure):
        checks.check_report(cmd, text, json.dumps(payload).encode())


def test_weak_min_rejects_tampered_witness_and_status():
    cmd = run._check("weak-min", EX31, 21)

    def move_witness(results):
        results[0]["data"]["witness_x"] = ["1/2"]

    def flip(results):
        results[0]["status"] = "CertifiedOnGrid"
        for key in ("witness_x", "witness_value"):
            del results[0]["data"][key]

    assert_rejects(cmd, move_witness)
    assert_rejects(cmd, flip)


def test_sufficient_rejects_tampered_certificate_and_status():
    legacy = run._check("sufficient", EX31, 21, "legacy-gl")

    def negate_ystar(results):
        cert = results[0]["data"]["certificates"][0]
        cert["ystar"] = [f"-{v}" if v != "0" else v for v in cert["ystar"]]

    assert_rejects(legacy, negate_ystar)
    corrected = run._check("sufficient", EX41, 21, "corrected", "example-4-1")

    def certify(results):
        results[0]["status"] = "AllCandidatesCertified"
        results[0]["data"] = {"certificates": [{"ystar": ["1"], "zstar": ["0"]}] * 4}

    assert_rejects(corrected, certify)


def test_necessary_rejects_tampered_certificate_and_status():
    cmd = run._check("necessary", EX41, 21, "corrected")

    def swap(results):
        data = results[0]["data"]
        data["ystar"], data["zstar"] = data["zstar"], data["ystar"]

    def infeasible(results):
        results[0]["status"] = "InfeasibleOnGrid"
        results[0]["data"] = {"trace": ["multiplier system infeasible on the grid for "
                                        "every candidate pair"]}

    assert_rejects(cmd, swap)
    assert_rejects(cmd, infeasible)


def test_subdiff_dissipative_and_proper_min_reject_tampering():
    def first_witness(results):
        r = next(r for r in results if "witness" in r["data"] or r["status"] == "CertifiedOnGrid")
        if "witness" in r["data"]:
            del r["data"]["witness"]
            r["status"] = "CertifiedOnGrid"
        else:
            r["status"], r["data"]["witness"] = "Falsified", ["0"]

    def radius(results):
        results[0]["data"]["eps_samples"][0]["certified_radius"] = "1/2"

    def shear(results):
        results[0]["data"]["shear"] = "3/4"

    assert_rejects(run._check("subdiff", EX31, 9), first_witness)
    assert_rejects(run._check("dissipative", EX31, 9), radius)
    assert_rejects(run._check("proper-min", EX31, 9), shear)


def test_alternative_is_exclusive():
    cmd = run._check("alternative", EX31, 9)
    raw = output(cmd)
    status = json.loads(raw)["results"][0]["status"]

    def tamper(results):
        data = results[0]["data"]
        if status == "SolutionExists":
            data["x"] = ["1/2"]
        else:
            data["ystar"] = ["-1"] * len(data["ystar"])

    assert_rejects(cmd, tamper)


def test_scenario_rejects_tampered_known_answer():
    cmd = next(c for c in run.scenarios_workload(0, BENCH) if c.target == "example-4-1")

    def witness(results):
        r = next(r for r in results if r["name"] == "cone-convexity F")
        r["data"]["witness_lambda"] = "1/4"

    assert_rejects(cmd, witness)


def test_corpus_commands_pass_their_checks(tmp_path):
    cmds = run.check_mix_workload(7, tmp_path)[:12] + run.lp_rows_workload(7, tmp_path)[:3]
    for cmd in cmds:
        checks.check_report(cmd, cmd.path.read_text(encoding="utf-8"), output(cmd))


def test_cone_normals_and_rays():
    cone = kernel.Cone([(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)),
                        (Fraction(2), Fraction(1))])
    assert cone.normals == [(0, 1), (1, -1)]
    assert cone.rays == [(1, 0), (1, 1)]
    assert cone.w == (2, 1)
    assert cone.interior((2, 1)) and not cone.interior((1, 0)) and cone.member((1, 0))


def test_fourier_motzkin_matches_vertex_search():
    """Two-variable systems in the box [-2, 2]^2: feasible exactly when some
    intersection point of two boundary lines satisfies every row."""
    rng = random.Random(3)
    box = [((1, 0), -2), ((-1, 0), -2), ((0, 1), -2), ((0, -1), -2)]
    for _ in range(200):
        rows = box + [((Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
                       Fraction(rng.randint(-3, 3))) for _ in range(rng.randint(1, 4))]
        found = False
        for (a, b), (c, d) in itertools.combinations(rows, 2):
            det = a[0] * c[1] - a[1] * c[0]
            if det == 0:
                continue
            v = ((b * c[1] - a[1] * d) / det, (a[0] * d - b * c[0]) / det)
            if all(kernel.dot(r, v) >= s for r, s in rows):
                found = True
                break
        assert kernel.feasible(2, ge=rows) == found


def test_tracer_counts_without_changing_output():
    cmd = run._check("weak-min", EX41, 9)
    before = output(cmd)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = output(cmd)
    finally:
        tracer.uninstall()
    assert during == before
    assert tracer.stats["cli.main"]["calls"] == 1
    assert tracer.stats["problemfile.parse_problem"]["calls"] == 1
    assert tracer.stats["pareto.check_eps_weak_local_min"]["calls"] == 1
    assert tracer.stats["problem.grid_points"]["points"] > 0
    import dcverify.pareto as pareto
    import dcverify.problem as problem
    assert pareto.feasible_contains is problem.feasible_contains
    assert not hasattr(problem.GridSpec.points, "__wrapped__")


def test_notched_problem_certifies_at_every_grid(tmp_path):
    path = tmp_path / "n.problem"
    path.write_text(corpus.notched(random.Random(5), 2, 0), encoding="utf-8")
    for g in (9, 33):
        cmd = run._check("sufficient", path, g, "corrected")
        report = checks.check_report(cmd, path.read_text(encoding="utf-8"), output(cmd))
        assert report["results"][0]["status"] == "AllCandidatesCertified"
        assert len(report["results"][0]["data"]["certificates"]) == 4
