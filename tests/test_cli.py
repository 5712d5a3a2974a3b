"""Command-line interface wiring."""

import json
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from dcverify.cli import main
from dcverify.scenarios import CHECK_KINDS


@pytest.fixture()
def problem_path(tmp_path) -> Path:
    text = files("dcverify").joinpath("problems", "example_4_1.problem").read_text("utf-8")
    path = tmp_path / "instance.problem"
    path.write_text(text, encoding="utf-8")
    return path


def run_main(capsysbinary, argv) -> bytes:
    assert main(argv) == 0
    return capsysbinary.readouterr().out


class TestScenarioCommand:
    def test_text_output(self, capsysbinary):
        out = run_main(capsysbinary, ["scenario", "example-4-1"])
        assert b"necessary-corrected: Multipliers" in out

    def test_machine_output_parses(self, capsysbinary):
        out = run_main(capsysbinary, ["scenario", "example-4-1", "--format", "machine"])
        payload = json.loads(out)
        assert payload["tool"] == "dcverify"
        assert payload["command"] == "scenario example-4-1"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "example-9-9"])


class TestCheckCommands:
    def test_weak_min(self, capsysbinary, problem_path):
        out = run_main(capsysbinary, [
            "check", "weak-min", "--problem", str(problem_path),
            "--grid", "41", "--format", "machine"])
        payload = json.loads(out)
        assert payload["options"]["grid"] == "41"
        (result,) = payload["results"]
        assert result["name"] == "weak-min"
        assert result["status"] == "CertifiedOnGrid"

    def test_subdiff(self, capsysbinary, problem_path):
        out = run_main(capsysbinary, [
            "check", "subdiff", "--problem", str(problem_path), "--grid", "21"])
        assert b"strong-subdiff S candidate 0: CertifiedOnGrid" in out

    def test_dissipative(self, capsysbinary, problem_path):
        out = run_main(capsysbinary, [
            "check", "dissipative", "--problem", str(problem_path), "--grid", "21"])
        assert b"dissipativity grad-G: NotFalsified" in out

    def test_alternative(self, capsysbinary, problem_path):
        out = run_main(capsysbinary, [
            "check", "alternative", "--problem", str(problem_path),
            "--grid", "21", "--format", "machine"])
        payload = json.loads(out)
        (result,) = payload["results"]
        assert result["status"] == "Multipliers"
        assert result["data"]["ystar"] == ["0"]
        assert result["data"]["zstar"] == ["1"]

    def test_necessary_modes(self, capsysbinary, problem_path):
        out = run_main(capsysbinary, [
            "check", "necessary", "--problem", str(problem_path),
            "--mode", "legacy-gl", "--grid", "41", "--format", "machine"])
        payload = json.loads(out)
        assert payload["results"][0]["status"] == "InfeasibleOnGrid"

    def test_sufficient_with_radius_override(self, capsysbinary, problem_path):
        out = run_main(capsysbinary, [
            "check", "sufficient", "--problem", str(problem_path),
            "--mode", "legacy-gl", "--radius", "1/4", "--grid", "21",
            "--format", "machine"])
        payload = json.loads(out)
        assert payload["options"]["radius"] == "1/4"

    def test_byte_order_mark_gives_the_same_report(self, capsysbinary, tmp_path):
        text = files("dcverify").joinpath("problems", "example_3_1.problem").read_text("utf-8")
        path = tmp_path / "instance.problem"
        reports = []
        for prefix in ("", "\ufeff"):
            path.write_text(prefix + text, encoding="utf-8")
            reports.append(run_main(capsysbinary, [
                "check", "weak-min", "--problem", str(path), "--grid", "21",
                "--format", "machine"]))
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert reports[0] == reports[1]

    def test_proper_min_requires_supported_space(self, capsys, problem_path):
        assert main(["check", "proper-min", "--problem", str(problem_path),
                     "--grid", "11"]) == 1
        assert "y_dim=2" in capsys.readouterr().err

    def test_malformed_problem_file_reports_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.problem"
        bad.write_text("[bogus]\n", encoding="utf-8")
        assert main(["check", "weak-min", "--problem", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "dcverify: error:" in err and "unknown section" in err

    def test_zero_denominator_in_problem_file_reports_cleanly(self, capsys, problem_path):
        text = problem_path.read_text(encoding="utf-8").replace("eps = 0", "eps = 1/0")
        problem_path.write_text(text, encoding="utf-8")
        assert main(["check", "weak-min", "--problem", str(problem_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dcverify: error: line ") and "zero denominator" in err

    def test_zero_denominator_radius_reports_cleanly(self, capsys, problem_path):
        assert main(["check", "weak-min", "--problem", str(problem_path),
                     "--radius", "1/0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dcverify: error:") and "zero denominator" in err

    def test_missing_problem_file_reports_cleanly(self, capsys, tmp_path):
        assert main(["check", "weak-min", "--problem", str(tmp_path / "nope")]) == 1
        assert "dcverify: error:" in capsys.readouterr().err


class TestScenarioSteps:
    """Every scenario result of a check kind is the result that
    ``dcverify check <kind> --mode <m> --target weak`` gives on the same file."""

    @pytest.mark.parametrize("name,file", [("example-3-1", "example_3_1.problem"),
                                           ("example-4-1", "example_4_1.problem")])
    def test_scenario_results_equal_check_results(self, capsysbinary, name, file):
        path = str(files("dcverify").joinpath("problems", file))
        scenario = json.loads(run_main(capsysbinary, ["scenario", name, "--format", "machine"]))
        matched = 0
        for result in scenario["results"]:
            kind, _, mode = result["name"].partition("-")
            if result["name"].startswith("dissipativity "):
                argv = ["dissipative"]
            elif result["name"] == "weak-min":
                argv = ["weak-min"]
            elif kind in ("sufficient", "necessary"):
                argv = [kind, "--mode", mode, "--target", "weak"]
            else:
                continue
            check = json.loads(run_main(capsysbinary, [
                "check", *argv, "--problem", path, "--format", "machine"]))
            assert result in check["results"]
            matched += 1
        assert matched == {"example-3-1": 5, "example-4-1": 3}[name]


class TestNoStateAcrossCommands:
    def test_second_problem_reports_as_if_run_first(self, capsysbinary, tmp_path):
        """Problem B, with the box and grid of problem A but other maps F,
        G, H and S and another xbar, reports the same bytes for every check
        kind after A has run in the same process as it does first in a
        fresh one, so no table kept on a grid or keyed by a map leaks
        between commands."""
        text = files("dcverify").joinpath("problems", "example_3_1.problem").read_text("utf-8")
        first, second = tmp_path / "a.problem", tmp_path / "b.problem"
        edits = (("[map F]\npoly 0 = 1 4\n", "[map F]\npoly 0 = 1 4, 1 1\n"),
                 ("poly 0 = 1 2\npoly 1 = 2 2", "poly 0 = 1 2, -1 1\npoly 1 = 3 3"),
                 ("[map H]\npoly 0 = 1 1\n", "[map H]\npoly 0 = 1 1, -1/2 0\n"),
                 ("[map S]\npoly 0 = 1 1, 1 0\n", "[map S]\npoly 0 = 1 1, 1 0\npoly 1 = 1 2\n"),
                 ("xbar = 0", "xbar = 3/4"))
        other = text
        for old, new in edits:
            assert old in other
            other = other.replace(old, new)
        first.write_text(text, encoding="utf-8")
        second.write_text(other, encoding="utf-8")

        def argv(path, kind):
            # the legacy mode, in which both problems' multiplier results differ
            return ["check", kind, "--problem", str(path), "--grid", "21", "--mode", "legacy-gl",
                    "--format", "machine"]

        fresh = [subprocess.run([sys.executable, "-m", "dcverify.cli", *argv(second, kind)],
                                capture_output=True, timeout=300, check=True).stdout
                 for kind in CHECK_KINDS]
        before = [run_main(capsysbinary, argv(first, kind)) for kind in CHECK_KINDS]
        after = [run_main(capsysbinary, argv(second, kind)) for kind in CHECK_KINDS]
        assert after == fresh
        assert all(json.loads(a)["results"] != json.loads(b)["results"]
                   for a, b in zip(before, after))


class TestParserPerProcess:
    def test_commands_in_one_process_print_what_fresh_ones_do(self, capsysbinary, problem_path):
        """The parser is built once per process; a command that sets no
        flag after ones that set several still gets every default."""
        commands = (["scenario", "example-4-1"],
                    ["check", "sufficient", "--problem", str(problem_path),
                     "--mode", "legacy-gl", "--target", "proper"],
                    ["check", "weak-min", "--problem", str(problem_path)])
        fresh = [subprocess.run([sys.executable, "-m", "dcverify.cli", *argv],
                                capture_output=True, timeout=300, check=True).stdout
                 for argv in commands]
        assert [run_main(capsysbinary, argv) for argv in commands] == fresh


class TestEntryPoint:
    def test_module_invocation(self, problem_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dcverify.cli", "scenario", "example-4-1"],
            capture_output=True, timeout=300)
        assert proc.returncode == 0
        assert b"weak-min: CertifiedOnGrid" in proc.stdout
