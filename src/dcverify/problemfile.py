"""Sectioned key-value problem files.

A problem file is UTF-8 text describing one DC problem instance, the
candidate operators, and run options.  All numbers are integers or ``p/q``
rational literals; decimal notation is rejected so the parse is exact.
Dimensions, the grid, poly indices and exponents are integer literals: an
optional sign, then decimal digits (no underscore).

    # comment lines start with '#'
    [spaces]
    x_dim = 1
    y_dim = 2
    z_dim = 2

    [cone K]                 # objective ordering cone, one generator per line
    generator = 1 0
    generator = 0 1

    [cone D]                 # constraint ordering cone
    generator = 1 0
    generator = 0 1

    [map F]                  # per-coordinate monomial lists:
    poly 0 = 1 4             #   coordinate 0 gains  1 * x^4
    poly 1 = 1 2, -1 0       #   coordinate 1 gains  1 * x^2 - 1
    except = 0 -> 0 0        # optional value override at a point

    [set C]
    lower = -1
    upper = 1

    [point]
    xbar = 0
    eps = 0 0

    [candidates]             # operator candidates; with a 1-D domain one
    T = 0 0                  # line lists the operator column
    L = 1 0

    [options]
    grid = 101
    radius = 1/2
    dilation = 1/8 1/4 1/2 3/4
    correction = 1 1 | 1 1   # alpha | beta, repeatable

A ``poly`` entry is a comma-separated monomial list; each monomial is a
coefficient followed by one exponent per domain variable.  Coordinates with
no ``poly`` entry are the zero polynomial.  Unknown sections or keys are
rejected, with the offending line number, and so is a second occurrence of
a single-valued key (every key except ``generator``, ``poly``, ``except``,
``T``, ``L`` and ``correction``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cones import PolyhedralCone, RationalVector, is_integer_literal, parse_rational
from .multipliers import CorrectionPair
from .pareto import DEFAULT_RADIUS, DEFAULT_SHEARS
from .problem import BoxSet, DCProblem, Monomial, VectorMap
from .subdiff import LinearOperator

DEFAULT_GRID_POINTS = 101

_SECTIONS = ("spaces", "cone K", "cone D", "map F", "map G", "map H", "map S",
             "set C", "point", "candidates", "options")
_REQUIRED = ("spaces", "cone K", "cone D", "map F", "map G", "map H", "map S",
             "set C", "point")
# keys that may appear at most once in their section
_SINGLE = {"spaces": ("x_dim", "y_dim", "z_dim"), "set C": ("lower", "upper"),
           "point": ("xbar", "eps"), "options": ("grid", "radius", "dilation")}


class ProblemFileError(ValueError):
    def __init__(self, line: int | None, message: str) -> None:
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass
class ScenarioOptions:
    grid_points: int = DEFAULT_GRID_POINTS
    radius: Fraction = DEFAULT_RADIUS
    shears: tuple[Fraction, ...] = DEFAULT_SHEARS
    corrections: tuple[tuple[RationalVector, RationalVector], ...] | None = None


@dataclass
class ParsedProblem:
    problem: DCProblem
    candidates_T: list[LinearOperator]
    candidates_L: list[LinearOperator]
    options: ScenarioOptions = field(default_factory=ScenarioOptions)

    def correction_pairs(self) -> list[CorrectionPair] | None:
        if self.options.corrections is None:
            return None
        return [CorrectionPair.checked(a, b, self.problem.K, self.problem.D)
                for a, b in self.options.corrections]


def _rat(token: str, line: int) -> Fraction:
    try:
        return parse_rational(token)
    except ValueError as exc:
        raise ProblemFileError(line, str(exc)) from None


def _integer(text: str) -> int | None:
    """``text`` as an integer literal the way `parse_rational` reads one (an
    optional sign, then decimal digits), or None."""
    try:
        return int(text) if is_integer_literal(text) else None
    except ValueError:  # more digits than int() converts
        return None


def _rat_list(text: str, line: int) -> list[Fraction]:
    tokens = text.split()
    if not tokens:
        raise ProblemFileError(line, "expected at least one rational value")
    try:
        return list(map(parse_rational, tokens))
    except ValueError as exc:
        raise ProblemFileError(line, str(exc)) from None


def _vector(text: str, line: int, dim: int, what: str) -> RationalVector:
    values = _rat_list(text, line)
    if len(values) != dim:
        raise ProblemFileError(line, f"{what} needs {dim} values, got {len(values)}")
    return RationalVector(tuple(values))


def _split_sections(text: str) -> dict[str, list[tuple[int, str, str]]]:
    sections: dict[str, list[tuple[int, str, str]]] = {}
    # the current section's name, entries, single-valued keys and those seen
    current, entries, single, seen = "", None, (), set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ProblemFileError(lineno, f"unknown section [{name}]")
            if name in sections:
                raise ProblemFileError(lineno, f"duplicate section [{name}]")
            current, entries, single, seen = name, [], _SINGLE.get(name, ()), set()
            sections[name] = entries
            continue
        if entries is None:
            raise ProblemFileError(lineno, "content before the first section header")
        key, eq, value = line.partition("=")
        if not eq:
            raise ProblemFileError(lineno, "expected 'key = value'")
        key = key.strip()
        if key in single:
            if key in seen:
                raise ProblemFileError(lineno, f"duplicate key {key!r} in [{current}]")
            seen.add(key)
        entries.append((lineno, key, value.strip()))
    for name in _REQUIRED:
        if name not in sections:
            raise ProblemFileError(None, f"missing required section [{name}]")
    return sections


def _parse_spaces(entries) -> tuple[int, int, int]:
    dims = {}
    for lineno, key, value in entries:
        if key not in ("x_dim", "y_dim", "z_dim"):
            raise ProblemFileError(lineno, f"unknown key {key!r} in [spaces]")
        dims[key] = _integer(value)
        if dims[key] is None:
            raise ProblemFileError(lineno, f"{key} must be an integer")
        if dims[key] < 1:
            raise ProblemFileError(lineno, f"{key} must be positive")
    for key in ("x_dim", "y_dim", "z_dim"):
        if key not in dims:
            raise ProblemFileError(None, f"[spaces] is missing {key}")
    return dims["x_dim"], dims["y_dim"], dims["z_dim"]


def _parse_cone(entries, dim: int, name: str) -> PolyhedralCone:
    gens = []
    for lineno, key, value in entries:
        if key != "generator":
            raise ProblemFileError(lineno, f"unknown key {key!r} in [cone {name}]")
        gens.append(_vector(value, lineno, dim, "generator"))
    if not gens:
        raise ProblemFileError(None, f"[cone {name}] needs at least one generator")
    try:
        return PolyhedralCone.from_generators(gens)
    except ValueError as exc:
        raise ProblemFileError(None, f"[cone {name}]: {exc}") from None


def _parse_monomials(text: str, line: int, in_dim: int) -> list[Monomial]:
    monos: list[Monomial] = []
    try:
        for chunk in text.split(","):
            tokens = chunk.split()
            if len(tokens) != 1 + in_dim:
                raise ValueError(f"monomial needs a coefficient and {in_dim} exponents")
            coeff = parse_rational(tokens[0])
            try:
                exps = tuple(map(int, tokens[1:]))
            except ValueError:
                exps = ()
            # int() also reads underscores; name the first bad exponent
            if len(exps) != in_dim or "_" in chunk or min(exps) < 0:
                for t in tokens[1:]:
                    e = _integer(t)
                    if e is None:
                        raise ValueError(f"exponent {t!r} must be an integer")
                    if e < 0:
                        raise ValueError("exponents must be nonnegative")
            monos.append((exps, coeff))
    except ValueError as exc:
        raise ProblemFileError(line, str(exc)) from None
    return monos


def _parse_map(entries, in_dim: int, out_dim: int, name: str) -> VectorMap:
    coords: list[list[Monomial]] = [[] for _ in range(out_dim)]
    exceptions = []
    for lineno, key, value in entries:
        if key.startswith("poly"):
            parts = key.split()
            if len(parts) != 2:
                raise ProblemFileError(lineno, "expected 'poly <coordinate> = ...'")
            idx = _integer(parts[1])
            if idx is None:
                raise ProblemFileError(lineno, "poly coordinate must be an integer")
            if not 0 <= idx < out_dim:
                raise ProblemFileError(lineno, f"coordinate {idx} out of range for map {name}")
            coords[idx].extend(_parse_monomials(value, lineno, in_dim))
        elif key == "except":
            if "->" not in value:
                raise ProblemFileError(lineno, "expected 'except = <point> -> <value>'")
            left, right = value.split("->", 1)
            point = _vector(left, lineno, in_dim, "exception point")
            val = _vector(right, lineno, out_dim, "exception value")
            exceptions.append((point, val))
        else:
            raise ProblemFileError(lineno, f"unknown key {key!r} in [map {name}]")
    try:
        return VectorMap(in_dim, out_dim, tuple(tuple(m) for m in coords),
                         tuple(exceptions))
    except ValueError as exc:
        raise ProblemFileError(None, f"[map {name}]: {exc}") from None


def _parse_operator(text: str, line: int, out_dim: int, in_dim: int) -> LinearOperator:
    if ";" in text:
        rows = [r.strip() for r in text.split(";")]
    elif in_dim == 1:
        rows = None  # single line lists the column
    else:
        rows = [text]
    if rows is None:
        values = _rat_list(text, line)
        if len(values) != out_dim:
            raise ProblemFileError(line, f"operator column needs {out_dim} values")
        return LinearOperator(tuple((v,) for v in values))
    if len(rows) != out_dim:
        raise ProblemFileError(line, f"operator needs {out_dim} rows")
    matrix = []
    for r in rows:
        values = _rat_list(r, line)
        if len(values) != in_dim:
            raise ProblemFileError(line, f"operator row needs {in_dim} values")
        matrix.append(tuple(values))
    return LinearOperator(tuple(matrix))


def parse_problem(text: str) -> ParsedProblem:
    """Parse a problem file; syntax errors carry line numbers and semantic
    errors name the violated invariant.  One leading byte-order mark
    (U+FEFF, which some editors write) is dropped."""
    sections = _split_sections(text.removeprefix("\ufeff"))
    x_dim, y_dim, z_dim = _parse_spaces(sections["spaces"])
    K = _parse_cone(sections["cone K"], y_dim, "K")
    D = _parse_cone(sections["cone D"], z_dim, "D")
    F = _parse_map(sections["map F"], x_dim, y_dim, "F")
    G = _parse_map(sections["map G"], x_dim, y_dim, "G")
    H = _parse_map(sections["map H"], x_dim, z_dim, "H")
    S = _parse_map(sections["map S"], x_dim, z_dim, "S")

    lower = upper = None
    for lineno, key, value in sections["set C"]:
        if key == "lower":
            lower = _vector(value, lineno, x_dim, "lower bound")
        elif key == "upper":
            upper = _vector(value, lineno, x_dim, "upper bound")
        else:
            raise ProblemFileError(lineno, f"unknown key {key!r} in [set C]")
    if lower is None or upper is None:
        raise ProblemFileError(None, "[set C] needs lower and upper bounds")
    try:
        C = BoxSet(lower, upper)
    except ValueError as exc:
        raise ProblemFileError(None, f"[set C]: {exc}") from None

    xbar = eps = None
    for lineno, key, value in sections["point"]:
        if key == "xbar":
            xbar = _vector(value, lineno, x_dim, "xbar")
        elif key == "eps":
            eps = _vector(value, lineno, y_dim, "eps")
        else:
            raise ProblemFileError(lineno, f"unknown key {key!r} in [point]")
    if xbar is None or eps is None:
        raise ProblemFileError(None, "[point] needs xbar and eps")

    try:
        problem = DCProblem(x_dim, y_dim, z_dim, F, G, H, S, C, K, D, eps, xbar)
    except ValueError as exc:
        raise ProblemFileError(None, str(exc)) from None

    candidates_T: list[LinearOperator] = []
    candidates_L: list[LinearOperator] = []
    for lineno, key, value in sections.get("candidates", []):
        if key == "T":
            candidates_T.append(_parse_operator(value, lineno, y_dim, x_dim))
        elif key == "L":
            candidates_L.append(_parse_operator(value, lineno, z_dim, x_dim))
        else:
            raise ProblemFileError(lineno, f"unknown key {key!r} in [candidates]")

    options = ScenarioOptions()
    corrections: list[tuple[RationalVector, RationalVector]] = []
    for lineno, key, value in sections.get("options", []):
        if key == "grid":
            options.grid_points = _integer(value)
            if options.grid_points is None:
                raise ProblemFileError(lineno, "grid must be an integer")
            if options.grid_points < 2:
                raise ProblemFileError(lineno, "grid must be at least 2 points per axis")
        elif key == "radius":
            r = _rat(value, lineno)
            if r <= 0:
                raise ProblemFileError(lineno, "radius must be positive")
            options.radius = r
        elif key == "dilation":
            shears = tuple(_rat_list(value, lineno))
            if any(not 0 < m < 1 for m in shears):
                raise ProblemFileError(lineno, "dilation parameters must lie in (0, 1)")
            options.shears = shears
        elif key == "correction":
            if "|" not in value:
                raise ProblemFileError(lineno, "expected 'correction = <alpha> | <beta>'")
            left, right = value.split("|", 1)
            alpha = _vector(left, lineno, y_dim, "alpha")
            beta = _vector(right, lineno, z_dim, "beta")
            corrections.append((alpha, beta))
        else:
            raise ProblemFileError(lineno, f"unknown key {key!r} in [options]")
    if corrections:
        options.corrections = tuple(corrections)

    return ParsedProblem(problem, candidates_T, candidates_L, options)
