"""Mutation fuzzing of the problem-file parser.

The two shipped problem files are mutated byte by byte, token by token and
line by line;
whatever the result, ``parse_problem`` either parses it or raises
``ProblemFileError``, never another exception.
"""

from __future__ import annotations

import re
from importlib.resources import files

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dcverify.problemfile import ProblemFileError, parse_problem

SHIPPED = [files("dcverify").joinpath("problems", name).read_bytes()
           for name in ("example_3_1.problem", "example_4_1.problem")]

# replacement tokens: rational literals the parser must accept or refuse,
# out-of-range sizes, and the grammar's own words and separators
NUMBERS = ["0", "1", "-1", "2", "1/2", "-3/4", "1/0", "0/0", "-2/0", "1.5", "1e3", "inf",
           "nan", "+1", "1//2", "9" * 5000, "99999999"]
SYNTAX = ["[", "]", "=", "->", "|", ",", "#", "/", "-", "poly", "except", "generator",
          "lower", "upper", "xbar", "eps", "grid", "radius", "dilation", "correction", "T",
          "L", "x_dim", "y_dim", "z_dim", "[spaces]", "[cone K]", "[map F]", "[map Q]",
          "[options]", "[point]", "\n", "\t", "\u00e9", "\x00"]

SPLIT = re.compile(rb"(\s+)")
WORD = re.compile(rb"\S+")
LITERAL = re.compile(rb"-?[0-9]+(/[0-9]+)?")


@st.composite
def mutated(draw):
    data = bytearray(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["delete", "insert", "replace-byte", "number", "syntax",
                                   "drop-token", "repeat-token", "swap-lines",
                                   "repeat-line"]))
        if op in ("delete", "insert", "replace-byte"):
            at = draw(st.integers(0, len(data)))
            if op == "delete":
                del data[at:at + draw(st.integers(1, 40))]
            elif op == "insert":
                data[at:at] = draw(st.binary(min_size=1, max_size=8))
            elif at < len(data):
                data[at] = draw(st.integers(0, 255))
            continue
        if op in ("swap-lines", "repeat-line"):
            lines = data.split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            if op == "swap-lines":
                j = draw(st.integers(0, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines.insert(i + 1, lines[i])
            data = bytearray(b"\n".join(lines))
            continue
        parts = SPLIT.split(bytes(data))
        # a number replaces a number, so that it lands where a value is read
        word = LITERAL if op == "number" else WORD
        words = [k for k, part in enumerate(parts) if word.fullmatch(part)]
        if not words:
            continue
        k = draw(st.sampled_from(words))
        if op in ("number", "syntax"):
            parts[k] = draw(st.sampled_from(NUMBERS if op == "number" else SYNTAX)).encode()
        elif op == "drop-token":
            parts[k] = b""
        else:
            parts[k] = parts[k] * draw(st.integers(2, 3))
        data = bytearray(b"".join(parts))
    return bytes(data).decode("utf-8", errors="replace")


@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_problem_files_raise_only_problem_file_error(text):
    try:
        parse_problem(text)
    except ProblemFileError:
        pass


def test_repeated_lines_refuse_single_valued_keys_only():
    text = SHIPPED[1].decode("utf-8")
    assert text.count("xbar = 0\n") == 1 and text.count("generator = 1\n") == 2
    with pytest.raises(ProblemFileError, match="duplicate key 'xbar'"):
        parse_problem(text.replace("xbar = 0\n", "xbar = 0\nxbar = 0\n"))
    parsed = parse_problem(text.replace("generator = 1\n", "generator = 1\ngenerator = 1\n", 1))
    assert parsed.problem.K == parse_problem(text).problem.K
