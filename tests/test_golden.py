"""Golden machine reports: every scenario and every check kind on the
shipped problems must render byte-identically to the committed files.
A check that a problem does not support is pinned by its error message
(``.err``) instead of a report (``.json``).

Regenerate (only when a change of output is intended and reviewed) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files
from pathlib import Path

import pytest

from dcverify.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
PROBLEMS = ("example_3_1", "example_4_1")
PLAIN_KINDS = ("weak-min", "proper-min", "subdiff", "dissipative", "alternative")
CONDITION_KINDS = ("sufficient", "necessary")


def _cases() -> list[tuple[str, list[str]]]:
    cases = [(f"scenario-{name}", ["scenario", name])
             for name in ("example-3-1", "example-4-1")]
    for problem in PROBLEMS:
        path = str(files("dcverify").joinpath("problems", f"{problem}.problem"))
        for what in PLAIN_KINDS:
            cases.append((f"{problem}-{what}", ["check", what, "--problem", path]))
        for what in CONDITION_KINDS:
            for mode in ("corrected", "legacy-gl"):
                for target in ("weak", "proper"):
                    cases.append((f"{problem}-{what}-{mode}-{target}",
                                  ["check", what, "--problem", path,
                                   "--mode", mode, "--target", target]))
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[str, bytes]:
    """(golden file suffix, bytes): the machine report, or the error text."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--format", "machine"])
    out.flush()
    if code == 0:
        return ".json", out.buffer.getvalue()
    return ".err", err.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_machine_report_matches_golden(name, argv):
    suffix, produced = _run(argv)
    assert produced == (GOLDEN_DIR / f"{name}{suffix}").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES:
        suffix, produced = _run(argv)
        (GOLDEN_DIR / f"{name}{suffix}").write_bytes(produced)
        print(name + suffix, file=sys.stderr)
