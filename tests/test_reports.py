"""Report rendering, round-trips, determinism, and witness re-verification."""

from fractions import Fraction
from pathlib import Path

import pytest

from dcverify import (
    GridSpec,
    NeighborhoodSpec,
    RationalVector,
    check_cone_convex,
    check_convexlike,
    cone_contains,
    emit_report,
    feasible_contains,
    parse_machine_report,
    run_scenario,
)
from dcverify.report import CheckResult, Report
from dcverify.scenarios import load_scenario_problem, scenario_names

V = RationalVector.of


def frac(s: str) -> Fraction:
    return Fraction(s)


def vec(strings) -> RationalVector:
    return RationalVector(tuple(Fraction(s) for s in strings))


@pytest.fixture(scope="module")
def report_3():
    return run_scenario("example-3-1")


@pytest.fixture(scope="module")
def report_4():
    return run_scenario("example-4-1")


class TestEmitAndParse:
    def test_empty_results_render(self):
        report = Report(command="check weak-min", problem="none.problem")
        data = emit_report(report, "machine")
        parsed = parse_machine_report(data)
        assert parsed.results == []
        assert parsed == report

    def test_rationals_stay_exact_in_machine_form(self):
        report = Report(command="demo", problem="demo",
                        results=[CheckResult("c", "ok", data={"value": ["1/2", "1/2"]})])
        data = emit_report(report, "machine")
        assert b'"1/2"' in data and b"0.5" not in data

    def test_round_trip_identity_on_scenarios(self, report_3, report_4):
        for report in (report_3, report_4):
            data = emit_report(report, "machine")
            parsed = parse_machine_report(data)
            assert parsed == report
            assert emit_report(parsed, "machine") == data

    def test_golden_reports_round_trip(self):
        golden = sorted((Path(__file__).parent / "golden").glob("*.json"))
        assert len(golden) == 27
        for path in golden:
            data = path.read_bytes()
            assert emit_report(parse_machine_report(data), "machine") == data

    @pytest.mark.parametrize("payload,field", [
        (b'{"tool":"dcverify"}', "'results'"),
        (b"[1,2]", "not a JSON object"),
        (b'{"tool":"dcverify","command":"c","problem":"p","options":{},"flags":[],'
         b'"results":[{"name":"n","params":{},"data":{}}]}', "'status'"),
    ], ids=["no-results", "not-an-object", "result-without-status"])
    def test_malformed_report_raises_value_error(self, payload, field):
        with pytest.raises(ValueError, match=field):
            parse_machine_report(payload)

    def test_unknown_format_rejected(self, report_4):
        with pytest.raises(ValueError):
            emit_report(report_4, "yaml")

    def test_text_rendering_is_stable_and_lists_checks(self, report_4):
        text = emit_report(report_4, "text").decode()
        assert text == emit_report(report_4, "text").decode()
        assert "necessary-legacy-gl: InfeasibleOnGrid" in text
        assert "necessary-corrected: Multipliers" in text


class TestDeterminism:
    def test_scenario_reports_byte_stable(self):
        for name in scenario_names():
            first = emit_report(run_scenario(name), "machine")
            second = emit_report(run_scenario(name), "machine")
            assert first == second


class TestScenarioQuartic:
    def test_result_order(self, report_3):
        names = [r.name for r in report_3.results]
        assert names == [
            "feasible-set",
            "cone-convexity F", "cone-convexity G",
            "cone-convexity H", "cone-convexity S",
            "convexlike F", "convexlike H",
            "dissipativity grad-G", "dissipativity grad-S",
            "sufficient-legacy-gl",
            "weak-min",
            "sufficient-corrected",
        ]

    def test_feasible_set_covers_whole_interval(self, report_3):
        result = report_3.result("feasible-set")
        assert result.data["feasible"] == result.data["total"] == "101"
        assert vec(result.data["min"]) == V(-1)
        assert vec(result.data["max"]) == V(1)

    def test_legacy_certificate_reverifies(self, report_3):
        parsed = load_scenario_problem("example-3-1")
        p = parsed.problem
        result = report_3.result("sufficient-legacy-gl")
        assert result.status == "AllCandidatesCertified"
        (cert,) = result.data["certificates"]
        ystar, zstar = vec(cert["ystar"]), vec(cert["zstar"])
        assert zstar == V(0, 0)
        assert cone_contains(p.K, ystar) and not ystar.is_zero()
        # complementarity and the scalarized subgradient rows, re-checked
        assert zstar.dot(p.H.evaluate(p.xbar) - p.S.evaluate(p.xbar)) == 0
        T = parsed.candidates_T[0]
        L = parsed.candidates_L[0]
        for x in GridSpec(p.C, 101).points():
            row_y = p.F.evaluate(x) - p.F.evaluate(p.xbar) - T.apply(x - p.xbar)
            row_z = p.H.evaluate(x) - p.H.evaluate(p.xbar) - L.apply(x - p.xbar)
            assert ystar.dot(row_y) + zstar.dot(row_z) >= 0

    def test_weak_min_witness_reverifies(self, report_3):
        p = load_scenario_problem("example-3-1").problem
        result = report_3.result("weak-min")
        assert result.status == "Falsified"
        x = vec(result.data["witness_x"])
        value = vec(result.data["witness_value"])
        assert value == V("-3/16", "-1/4")
        assert feasible_contains(p, x)
        assert p.objective(x) - p.objective(p.xbar) + p.eps == value
        assert cone_contains(p.K, -value, strict=True)

    def test_corrected_mode_outcome_recorded(self, report_3):
        result = report_3.result("sufficient-corrected")
        assert result.status == "FailedFor"
        assert vec(result.data["failed_alpha"]) == V(1, 1)


class TestScenarioExceptional:
    def test_result_order(self, report_4):
        names = [r.name for r in report_4.results]
        assert names == [
            "feasible-set",
            "cone-convexity F", "cone-convexity G",
            "cone-convexity H", "cone-convexity S",
            "convexlike F", "convexlike H",
            "weak-min",
            "necessary-legacy-gl",
            "necessary-corrected",
        ]

    def test_convexity_discrepancy_flagged(self, report_4):
        conv = report_4.result("cone-convexity F")
        assert conv.status == "Falsified"
        assert vec(conv.data["witness_x1"]) == V(-1)
        assert vec(conv.data["witness_x2"]) == V(1)
        assert frac(conv.data["witness_lambda"]) == Fraction(1, 2)
        assert report_4.result("convexlike F").status == "NotFalsified"
        assert any("map F" in flag and "convexlike" in flag for flag in report_4.flags)

    def test_convexity_witness_reverifies(self, report_4):
        p = load_scenario_problem("example-4-1").problem
        conv = report_4.result("cone-convexity F")
        x1 = vec(conv.data["witness_x1"])
        x2 = vec(conv.data["witness_x2"])
        lam = frac(conv.data["witness_lambda"])
        avg = p.F.evaluate(x1).scale(lam) + p.F.evaluate(x2).scale(1 - lam)
        mid = p.F.evaluate(x1.scale(lam) + x2.scale(1 - lam))
        assert not cone_contains(p.K, avg - mid)
        fresh = check_cone_convex(p.F, p.K, GridSpec(p.C, 101))
        assert fresh.witness == (x1, x2, lam)
        assert not check_convexlike(p.F, p.K, GridSpec(p.C, 101)).falsified

    def test_legacy_trace_contents(self, report_4):
        result = report_4.result("necessary-legacy-gl")
        assert result.status == "InfeasibleOnGrid"
        trace = result.data["trace"]
        assert any("forces zstar = 0" in line for line in trace)
        assert any("ystar in K*\\{0} is impossible" in line for line in trace)

    def test_corrected_certificate_reverifies(self, report_4):
        parsed = load_scenario_problem("example-4-1")
        p = parsed.problem
        result = report_4.result("necessary-corrected")
        assert result.status == "Multipliers"
        ystar, zstar = vec(result.data["ystar"]), vec(result.data["zstar"])
        assert (ystar, zstar) == (V(0), V(1))
        T = parsed.candidates_T[0]
        L = parsed.candidates_L[0]
        U = NeighborhoodSpec(Fraction(1, 2))
        for x in GridSpec(p.C, 101).points(extra=[p.xbar]):
            if not U.contains(x, p.xbar):
                continue
            row_y = p.F.evaluate(x) - p.F.evaluate(p.xbar) + p.eps - T.apply(x - p.xbar)
            row_z = p.H.evaluate(x) - p.H.evaluate(p.xbar) - L.apply(x - p.xbar)
            assert ystar.dot(row_y) + zstar.dot(row_z) >= 0

    def test_weak_min_certified(self, report_4):
        assert report_4.result("weak-min").status == "CertifiedOnGrid"
