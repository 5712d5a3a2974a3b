"""Structured reports with stable text and machine renderings.

A report is a command echo, run options, an ordered list of check results,
and discrepancy flags.  The machine rendering is JSON with every rational
as an exact ``p/q`` string; key order is sorted and list order is the
construction order, so identical inputs produce byte-identical output.
The text rendering is line oriented and equally stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .cones import RationalVector, format_rational

TOOL_NAME = "dcverify"


class Status(str, Enum):
    """Every status of a verdict, outcome or result; a member is its string."""

    __str__ = str.__str__  # so that f-strings print the value on 3.11+ too
    NOT_FALSIFIED = "NotFalsified"
    FALSIFIED = "Falsified"
    CERTIFIED_ON_GRID = "CertifiedOnGrid"
    NOT_CERTIFIED = "NotCertified"
    SOLUTION_EXISTS = "SolutionExists"
    MULTIPLIERS = "Multipliers"
    GRID_GAP = "GridGap"
    ALL_CANDIDATES_CERTIFIED = "AllCandidatesCertified"
    FAILED_FOR = "FailedFor"
    INFEASIBLE_ON_GRID = "InfeasibleOnGrid"
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"


@dataclass
class CheckResult:
    """One verdict: name, status, stringly-typed parameters and payload."""

    name: str
    status: str
    params: dict[str, Any] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)


@dataclass
class Report:
    command: str
    problem: str
    options: dict[str, str] = field(default_factory=dict)
    results: list[CheckResult] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    def result(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(f"no result named {name!r} in this report")


def vec_strs(v: RationalVector) -> list[str]:
    return [format_rational(c) for c in v.coords]


def emit_report(report: Report, format: str = "text") -> bytes:
    """Render to bytes; ``machine`` is JSON, ``text`` is line oriented."""
    if format == "machine":
        payload = {
            "tool": TOOL_NAME,
            "command": report.command,
            "problem": report.problem,
            "options": report.options,
            "results": [
                {"name": r.name, "status": r.status, "params": r.params, "data": r.data}
                for r in report.results
            ],
            "flags": report.flags,
        }
        return (_json(payload, "\n") + "\n").encode("ascii")
    if format == "text":
        return (render_text(report) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")


def _json(value: Any, newline: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes
    it, for the types a report holds; ``newline`` is a newline and the
    indent of the line ``value`` starts on."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        items = [_quote(k) + ": " + _json(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"not a report value: {value!r}")


_JSON_NAMES = {dict: "JSON object", list: "JSON list", str: "JSON string"}


def _field(obj: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ValueError(f"malformed machine report: {where} is not a JSON object")
    if key not in obj:
        raise ValueError(f"malformed machine report: {where} lacks the field {key!r}")
    if not isinstance(obj[key], kind):
        raise ValueError(f"malformed machine report: field {key!r} of {where} "
                         f"is not a {_JSON_NAMES[kind]}")
    return obj[key]


def parse_machine_report(data: bytes) -> Report:
    """Inverse of the machine rendering; emit(parse(emit(r))) is the identity.

    Anything that is not a well-formed dcverify machine report raises
    ``ValueError`` naming the missing or ill-typed field.
    """
    payload = json.loads(data.decode("utf-8"))
    if _field(payload, "tool", str, "the report") != TOOL_NAME:
        raise ValueError("not a dcverify machine report")
    results = []
    for idx, r in enumerate(_field(payload, "results", list, "the report")):
        where = f"result {idx}"
        results.append(CheckResult(
            _field(r, "name", str, where), _field(r, "status", str, where),
            dict(_field(r, "params", dict, where)), dict(_field(r, "data", dict, where))))
    return Report(
        command=_field(payload, "command", str, "the report"),
        problem=_field(payload, "problem", str, "the report"),
        options=dict(_field(payload, "options", dict, "the report")),
        results=results,
        flags=list(_field(payload, "flags", list, "the report")),
    )


def _flat(value: Any) -> str:
    if isinstance(value, list):
        return "(" + ", ".join(_flat(v) for v in value) + ")"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_flat(v)}" for k, v in sorted(value.items())) + "}"
    return str(value)


def render_text(report: Report) -> str:
    lines = [f"== {TOOL_NAME} {report.command}"]
    opts = " ".join(f"{k}={v}" for k, v in sorted(report.options.items()))
    lines.append(f"problem: {report.problem}" + (f" ({opts})" if opts else ""))
    for idx, r in enumerate(report.results, start=1):
        params = " ".join(f"{k}={_flat(v)}" for k, v in sorted(r.params.items()))
        head = f"[{idx}] {r.name}: {r.status}"
        if params:
            head += f" ({params})"
        lines.append(head)
        for key in sorted(r.data):
            lines.append(f"      {key} = {_flat(r.data[key])}")
    if report.flags:
        lines.append("flags:")
        for flag in report.flags:
            lines.append(f"  ! {flag}")
    return "\n".join(lines)
