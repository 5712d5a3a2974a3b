"""The grid's value tables, against the per-point ``Fraction`` code they
replaced.

Omega, eps-weak and eps-proper minimality, eps-subdifferential membership,
the convexlike alternative and the multiplier row builders read integer
tables of each map on a grid's point list (`problem.PointTable`).  The code
they replaced is kept below as the oracle: whole verdicts and outcomes,
``CheckResult``s and every ``Constraint`` list handed to
``solve_feasibility`` must be equal.  The feasibility flags the tables give
must equal `feasible_contains` at every point, and a corrupted table row at
xbar must be caught.  Work counts pin that a scenario evaluates each map at
most once per point and asks `feasible_contains` only at xbar, and that no
check evaluates a map per grid point.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
from collections import Counter
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcverify.multipliers as multipliers
import dcverify.pareto as pareto
import dcverify.scenarios as scenarios
from dcverify import (
    BoxSet,
    ConeError,
    DCProblem,
    DimensionMismatchError,
    GridSpec,
    InteriorEmptyError,
    LinearOperator,
    NeighborhoodSpec,
    PolyhedralCone,
    RationalVector,
    VectorMap,
    check_convexlike,
    cone_contains,
    gradient_field,
    nonnegative_orthant,
)
from dcverify.cli import main
from dcverify.cones import _cleared, _int_primitive, format_rational
from dcverify.multipliers import AlternativeOutcome, Constraint, _pad, _prefix, _solve_multipliers
from dcverify.pareto import ProperMinVerdict, WeakMinVerdict
from dcverify.problem import PointTable, _MapTable, feasible_contains
from dcverify.problemfile import ParsedProblem, ScenarioOptions, parse_problem
from dcverify.report import CheckResult
from dcverify.scenarios import CHECK_KINDS, _params, check_results, omega_result, run_scenario
from dcverify.subdiff import SubdiffVerdict

# --- the replaced code, as the oracle --------------------------------------


def oracle_omega_result(parsed, grid):
    problem = parsed.problem
    pts = problem.certification_points(grid)
    feasible = [x for x in pts if feasible_contains(problem, x)]
    xbar_ok = feasible_contains(problem, problem.xbar)
    data = {
        "feasible": str(len(feasible)),
        "total": str(len(pts)),
        "xbar_feasible": "true" if xbar_ok else "false",
    }
    if feasible:
        data["min"] = [format_rational(c) for c in min(f.coords for f in feasible)]
        data["max"] = [format_rational(c) for c in max(f.coords for f in feasible)]
    return CheckResult("feasible-set", "CertifiedOnGrid" if xbar_ok else "Falsified",
                       params=_params(grid), data=data)


def oracle_local_points(problem, U, grid):
    return [x for x in problem.certification_points(grid) if U.contains(x, problem.xbar)]


def oracle_local_feasible_points(problem, U, grid):
    return (x for x in oracle_local_points(problem, U, grid) if feasible_contains(problem, x))


def oracle_check_eps_weak_local_min(problem, U, grid):
    base = problem.objective(problem.xbar)
    checked = 0
    for x in oracle_local_feasible_points(problem, U, grid):
        checked += 1
        diff = problem.objective(x) - base + problem.eps
        if cone_contains(problem.K, -diff, strict=True):
            return WeakMinVerdict("Falsified", x, diff, checked)
    return WeakMinVerdict("CertifiedOnGrid", checked=checked)


def oracle_check_eps_proper_local_min(problem, U, family, grid):
    if problem.y_dim != 2 or problem.K != nonnegative_orthant(2):
        raise ValueError("proper-minimality certification supports y_dim=2 with "
                         "the nonnegative orthant ordering cone only")
    base = problem.objective(problem.xbar)
    diffs = []
    for x in oracle_local_feasible_points(problem, U, grid):
        diffs.append(problem.objective(x) - base + problem.eps)
    for m in family.shears:
        dilated = family.cone(m)
        if all(not cone_contains(dilated, -d, strict=True) for d in diffs):
            return ProperMinVerdict("CertifiedOnGrid", shear=m, checked=len(diffs))
    return ProperMinVerdict("NotCertified", checked=len(diffs))


def oracle_eps_subdiff_contains(vmap, cone, xbar, T, eps, grid):
    if not cone_contains(cone, eps):
        raise ValueError("eps not in the ordering cone")
    if T.out_dim != vmap.out_dim or T.in_dim != vmap.in_dim:
        raise DimensionMismatchError("operator shape does not match the map")
    base = vmap.evaluate(xbar)
    for x in grid.points(extra=vmap.exception_points() + [xbar]):
        diff = vmap.evaluate(x) - base - T.apply(x - xbar) + eps
        if not cone_contains(cone, diff):
            return SubdiffVerdict("Falsified", x)
    return SubdiffVerdict("CertifiedOnGrid", None)


def oracle_strong_subdiff_contains(vmap, cone, xbar, T, grid):
    return oracle_eps_subdiff_contains(vmap, cone, xbar, T, RationalVector.zero(vmap.out_dim), grid)


def oracle_grid_rows(entries, K, D):
    y_dim, z_dim = K.dim, D.dim
    out = []
    seen = set()
    for coeff_y, coeff_z, label in entries:
        coeffs = _pad(coeff_y, coeff_z, y_dim, z_dim)
        if all(v == 0 for v in coeffs):
            continue
        if cone_contains(K, coeff_y) and cone_contains(D, coeff_z):
            continue
        key = _int_primitive(_cleared(coeffs)[1])
        if key in seen:
            continue
        seen.add(key)
        out.append(Constraint(coeffs, "ge", Fraction(0), label))
    return out


def oracle_local_values(problem, U, grid):
    xbar = problem.xbar
    F_base, H_base = problem.F.evaluate(xbar), problem.H.evaluate(xbar)
    return [(x, x - xbar, problem.F.evaluate(x) - F_base, problem.H.evaluate(x) - H_base)
            for x in oracle_local_points(problem, U, grid)]


def oracle_subgradient_rows(problem, values, T, L, eps=None):
    entries = []
    for x, step, dF, dH in values:
        moved_y = T.apply(step) if eps is None else T.apply(step) - eps
        entries.append((dF - moved_y, dH - L.apply(step), f"subgradient-row x={x}"))
    return oracle_grid_rows(entries, problem.K, problem.D)


def oracle_alternative_system(Fmap, Gmap, K, D, C_grid):
    warnings = []
    for vmap, cone, name in ((Fmap, K, "F"), (Gmap, D, "G")):
        verdict = check_convexlike(vmap, cone, C_grid)
        if verdict.falsified:
            x1, x2, lam = verdict.witness
            warnings.append(
                f"map {name} is not convexlike on the grid "
                f"(witness {x1}, {x2}, lambda={format_rational(lam)})")
    entries = []
    for x in C_grid.points(extra=Fmap.exception_points() + Gmap.exception_points()):
        fx, gx = Fmap.evaluate(x), Gmap.evaluate(x)
        if cone_contains(K, -fx, strict=True) and cone_contains(D, -gx, strict=True):
            return AlternativeOutcome("SolutionExists", x=x, warnings=tuple(warnings))
        entries.append((fx, gx, f"value-row x={x}"))
    certificate = _solve_multipliers(_prefix(K, D), oracle_grid_rows(entries, K, D), K.dim)
    return AlternativeOutcome("GridGap" if certificate is None else "Multipliers",
                              certificate=certificate, warnings=tuple(warnings))


ORACLES = (
    (scenarios, "check_eps_weak_local_min", oracle_check_eps_weak_local_min),
    (multipliers, "check_eps_weak_local_min", oracle_check_eps_weak_local_min),
    (scenarios, "check_eps_proper_local_min", oracle_check_eps_proper_local_min),
    (scenarios, "eps_subdiff_contains", oracle_eps_subdiff_contains),
    (scenarios, "strong_subdiff_contains", oracle_strong_subdiff_contains),
    (scenarios, "alternative_system", oracle_alternative_system),
    (multipliers, "_local_values", oracle_local_values),
    (multipliers, "_subgradient_rows", oracle_subgradient_rows),
)


@contextlib.contextmanager
def patched(bindings):
    saved = [(module, name, getattr(module, name)) for module, name, _ in bindings]
    try:
        for module, name, value in bindings:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


# --- generated problems ------------------------------------------------------

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def cones(draw, dim):
    if draw(st.booleans()):
        return nonnegative_orthant(dim)
    vectors = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    gens = draw(st.lists(vectors, min_size=1, max_size=dim + 1))
    try:
        return PolyhedralCone.from_generators([RationalVector.of(*g) for g in gens])
    except ConeError:
        return nonnegative_orthant(dim)


@st.composite
def problems(draw):
    """(parsed, grid, U, mode, target, tags): 1-D and 2-D boxes, one side of
    zero width at times; exceptional points on the grid, off it and at
    xbar; xbar on or off the grid; orthant and random cones of dimension
    1-3.  The tags name the cases drawn."""
    n = draw(st.integers(1, 2))
    lower = [draw(small) for _ in range(n)]
    widths = [draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)])) for _ in range(n)]
    flat = draw(st.sampled_from([None, n - 1])) if n == 2 else None
    if flat is not None:
        widths[flat] = Fraction(0)
    upper = [lo + w for lo, w in zip(lower, widths)]
    box = BoxSet(RationalVector(tuple(lower)), RationalVector(tuple(upper)))
    grid = GridSpec(box, draw(st.integers(2, 5) if n == 1 else st.integers(2, 4)))
    axes = [grid.axis_points(i) for i in range(n)]
    tags = {f"{n}-D"} | ({"flat side"} if flat is not None else set())

    def on_grid():
        return RationalVector(tuple(draw(st.sampled_from(axis)) for axis in axes))

    def off_grid():
        return RationalVector(tuple(lo + w * draw(st.sampled_from([Fraction(1, 7), Fraction(5, 9)]))
                                    for lo, w in zip(lower, widths)))

    if draw(st.booleans()):
        xbar = on_grid()
    else:
        xbar = off_grid()
        tags.add("xbar off the grid")
    y_dim, z_dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        y_dim = 2
        K = nonnegative_orthant(2)
    else:
        K = draw(cones(y_dim))
    D = draw(cones(z_dim))
    # affine maps make rows that vanish or lie on a cone's boundary
    monomial = st.tuples(st.tuples(*[st.integers(0, draw(st.integers(1, 2)))] * n), small)

    def vmap(out_dim):
        coords = tuple(tuple(draw(st.lists(monomial, max_size=3))) for _ in range(out_dim))
        sites = {}
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(["on the grid", "off the grid", "at xbar"]))
            point = {"on the grid": on_grid, "off the grid": off_grid}.get(kind, lambda: xbar)()
            tags.add(f"exception {kind}")
            sites[point.coords] = RationalVector(tuple(draw(small) for _ in range(out_dim)))
        return VectorMap(n, out_dim, coords, tuple((RationalVector(p), v) for p, v in sites.items()))

    F, G, H = vmap(y_dim), vmap(y_dim), vmap(z_dim)
    # S = H, as a map of its own, makes every point feasible
    S = VectorMap(n, z_dim, H.coords, H.exceptions) if draw(st.booleans()) else vmap(z_dim)
    eps = K.interior_point().scale(draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1)])))
    problem = DCProblem(n, y_dim, z_dim, F, G, H, S, box, K, D, eps, xbar)

    def operator(rows):
        return LinearOperator(tuple(tuple(draw(small) for _ in range(n)) for _ in range(rows)))

    # the Jacobians at xbar, as a command defaults them, or drawn operators
    candidates_T = [gradient_field(F).operators_at(xbar)[0] if draw(st.booleans())
                    else operator(y_dim) for _ in range(draw(st.integers(1, 2)))]
    candidates_L = [gradient_field(H).operators_at(xbar)[0] if draw(st.booleans())
                    else operator(z_dim) for _ in range(draw(st.integers(1, 2)))]
    parsed = ParsedProblem(problem, candidates_T, candidates_L, ScenarioOptions())
    U = NeighborhoodSpec(draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2)])))
    mode = draw(st.sampled_from([multipliers.MODE_CORRECTED, multipliers.MODE_LEGACY]))
    target = draw(st.sampled_from([multipliers.TARGET_WEAK, multipliers.TARGET_PROPER]))
    return parsed, grid, U, mode, target, frozenset(tags)


KINDS = ("weak-min", "proper-min", "subdiff", "alternative", "sufficient", "necessary")


def run_checks(parsed, grid, U, mode, target, omega):
    """The omega result and the results of every kind, or the error each
    raised, then the alternative's outcome, with the constraint lists every
    LP was handed."""
    systems, alternatives = [], []
    solve, alternative = multipliers.solve_feasibility, scenarios.alternative_system

    def spy(lfp):
        systems.append(lfp.constraints)
        return solve(lfp)

    def spy_alternative(*args):
        alternatives.append(alternative(*args))
        return alternatives[-1]

    outcomes = []
    with patched([(multipliers, "solve_feasibility", spy),
                  (scenarios, "alternative_system", spy_alternative)]):
        for kind in ("omega",) + KINDS:
            try:
                outcomes.append(omega(parsed, grid) if kind == "omega"
                                else check_results(kind, parsed, U, grid, mode, target))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
    return outcomes + alternatives, systems


def both(case):
    parsed, grid, U, mode, target, _ = case
    # a fresh grid for each side, so that neither reads the other's tables
    fresh = GridSpec(grid.box, grid.points_per_axis)
    new = run_checks(parsed, grid, U, mode, target, omega_result)
    with patched(ORACLES):
        old = run_checks(parsed, fresh, U, mode, target, oracle_omega_result)
    return new, old


def test_tables_match_fraction_oracle():
    """Equal results, alternative outcomes and LP systems on every generated
    problem; the strategy is not degenerate: every tagged case occurs, the
    weak-min check both certifies and falsifies, the alternative finds
    solutions and multipliers and meets a cone without interior, and
    subgradient and value rows reach the LPs."""
    tags, statuses, kinds, rows, value_rows = set(), set(), set(), 0, 0

    @settings(max_examples=80)
    @given(problems())
    def differential(case):
        nonlocal rows, value_rows
        (new, new_systems), (old, old_systems) = both(case)
        assert new == old
        assert new_systems == old_systems
        tags.update(case[-1])
        if isinstance(new[1], list):
            statuses.add(new[1][0].status)
        alternative = new[1 + KINDS.index("alternative")]
        kinds.add(alternative[0].status if isinstance(alternative, list) else alternative[0])
        labels = [c.label for system in new_systems for c in system]
        rows += sum(label.startswith("subgradient-row") for label in labels)
        value_rows += sum(label.startswith("value-row") for label in labels)

    differential()
    assert tags == {"1-D", "2-D", "flat side", "xbar off the grid", "exception on the grid",
                    "exception off the grid", "exception at xbar"}
    assert statuses == {"CertifiedOnGrid", "Falsified"}
    assert {"SolutionExists", "Multipliers", InteriorEmptyError} <= kinds
    assert rows > 0 and value_rows > 0


# --- feasibility flags -------------------------------------------------------

MIX_00 = Path(__file__).parent / "problems" / "mix-00.problem"


def direct_positions(problem, grid):
    """The positions of the certification points `feasible_contains` accepts."""
    points = problem.certification_points(grid)
    return points, [i for i, x in enumerate(points) if feasible_contains(problem, x)]


def test_flags_match_feasible_contains():
    """`pareto.feasibility` flags exactly the certification points
    `feasible_contains` accepts: on generated problems, some on a grid
    whose box is strictly wider than C, so that its points outside C must
    read infeasible; and at grids 5, 33 and 101 on both
    shipped problems, a 2-D corpus problem and a problem whose H and S
    tables have different scales."""
    tags = set()

    @settings(max_examples=80)
    @given(problems(), st.sampled_from([None, Fraction(1, 3), Fraction(1)]))
    def differential(case, pad):
        parsed, grid, *_, case_tags = case
        problem = parsed.problem
        if pad is not None:
            C = problem.C
            grid = GridSpec(BoxSet(RationalVector(tuple(c - pad for c in C.lower)),
                                   RationalVector(tuple(c + pad for c in C.upper))),
                            grid.points_per_axis)
            tags.add("grid wider than C")
        points, expected = direct_positions(problem, grid)
        positions = [i for i, ok in enumerate(pareto.feasibility(problem, grid)[0]) if ok]
        assert positions == expected
        assert all(problem.C.contains(points[i]) for i in positions)
        if any(problem.C.contains(x) for i, x in enumerate(points) if i not in positions):
            tags.add("infeasible point")
        tags.update(case_tags & {"exception at xbar"})

    differential()
    assert tags == {"grid wider than C", "infeasible point", "exception at xbar"}
    shipped = [scenarios.load_scenario_problem(name).problem for name in scenarios.scenario_names()]
    mix = parse_problem(MIX_00.read_text(encoding="utf-8")).problem
    # H and S on different table scales: feasible exactly where x <= 2/3
    scaled = dataclasses.replace(shipped[1], H=VectorMap.from_coeffs(1, 1, [[((1,), "1/2")]]),
                                 S=VectorMap.from_coeffs(1, 1, [[((0,), "1/3")]]))
    for problem in (*shipped, mix, scaled):
        for n in (5, 33, 101):
            grid = GridSpec(problem.C, n)
            points, expected = direct_positions(problem, grid)
            flags = pareto.feasibility(problem, grid)[0]
            assert [i for i, ok in enumerate(flags) if ok] == expected


@pytest.mark.parametrize("swap", [False, True])
def test_corrupt_table_row_at_xbar_raises(monkeypatch, swap):
    """With S's table row at xbar corrupted so that the table's flag there
    flips, `pareto.feasibility` raises RuntimeError and keeps no flags: on
    example-4-1, where xbar is feasible, and with H and S swapped, where it
    is not."""
    problem = scenarios.load_scenario_problem("example-4-1").problem
    if swap:
        problem = dataclasses.replace(problem, H=problem.S, S=problem.H)
    grid = GridSpec(problem.C, 33)
    values = PointTable.values

    def corrupt(table, vmap):
        rows = values(table, vmap)
        if vmap is not problem.S:
            return rows
        bad = copy.copy(rows)
        at = table.points.index(problem.xbar)
        shift = 10 ** 6 if swap else -10 ** 6
        bad.rows = [tuple(v + shift for v in row) if i == at else row
                    for i, row in enumerate(rows.rows)]
        return bad

    assert feasible_contains(problem, problem.xbar) is not swap
    monkeypatch.setattr(PointTable, "values", corrupt)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="xbar"):
            pareto.feasibility(problem, grid)
    assert not problem.certification_table(grid).flags


# --- work counts -------------------------------------------------------------


def test_scenario_evaluates_each_map_once_per_point(monkeypatch):
    """In a whole scenario, each map is tabulated once per point list and
    evaluated directly at most once per point of it; `feasible_contains`
    runs once, at xbar; and `VectorMap.evaluate` is called outside it only
    at xbar."""
    for name in ("example-3-1", "example-4-1"):
        builds, direct, feasible, outside = Counter(), Counter(), Counter(), Counter()
        build, poly_at, evaluate = _MapTable.__init__, _MapTable._poly_at, VectorMap.evaluate
        inside, degrees = [], {}

        def spy_build(self, vmap, index):
            builds[id(vmap), id(index)] += 1
            degrees[id(self)] = max((e for monos in vmap.coords for exponents, _ in monos
                                     for e in exponents), default=0)
            build(self, vmap, index)

        def spy_poly_at(self, key):
            direct[id(self), key] += 1
            return poly_at(self, key)

        def spy_feasible(problem, x):
            feasible[x] += 1
            inside.append(x)
            try:
                return feasible_contains(problem, x)
            finally:
                inside.pop()

        def spy_evaluate(vmap, x):
            if not inside:
                outside[x] += 1
            return evaluate(vmap, x)

        with monkeypatch.context() as m:
            m.setattr(_MapTable, "__init__", spy_build)
            m.setattr(_MapTable, "_poly_at", spy_poly_at)
            m.setattr(pareto, "feasible_contains", spy_feasible)
            m.setattr(VectorMap, "evaluate", spy_evaluate)
            run_scenario(name)
        parsed = scenarios.load_scenario_problem(name)
        assert builds and max(builds.values()) == 1
        assert direct and max(direct.values()) == 1
        # the shipped maps lie on a line: each table of a degree-d map
        # evaluates directly at most d + 1 keys, not each of the 101 points
        keys = Counter(table for table, _ in direct)
        assert all(count <= degrees[table] + 1 for table, count in keys.items())
        assert len(direct) <= sum(degree + 1 for degree in degrees.values())
        assert feasible == Counter({parsed.problem.xbar: 1})
        assert set(outside) == {parsed.problem.xbar}


def test_no_check_evaluates_a_map_per_grid_point(monkeypatch):
    """Every check kind on both shipped problems makes as many
    `VectorMap.evaluate` calls outside `feasible_contains` at grid 11 as at
    grid 41: the grid points are read from the tables."""
    inside, calls = [], [0]
    evaluate = VectorMap.evaluate

    def spy_feasible(problem, x):
        inside.append(x)
        try:
            return feasible_contains(problem, x)
        finally:
            inside.pop()

    def spy_evaluate(vmap, x):
        calls[0] += not inside
        return evaluate(vmap, x)

    monkeypatch.setattr(pareto, "feasible_contains", spy_feasible)
    monkeypatch.setattr(VectorMap, "evaluate", spy_evaluate)
    for problem in ("example_3_1", "example_4_1"):
        path = str(files("dcverify").joinpath("problems", f"{problem}.problem"))
        for kind in CHECK_KINDS:
            modes = [["--mode", m, "--target", t] for m in ("corrected", "legacy-gl")
                     for t in ("weak", "proper")] if kind in ("sufficient", "necessary") else [[]]
            for mode in modes:
                counts = []
                for grid in ("11", "41"):
                    before = calls[0]
                    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
                            contextlib.redirect_stderr(io.StringIO()):
                        main(["check", kind, "--problem", path, "--grid", grid, *mode])
                    counts.append(calls[0] - before)
                assert counts[0] == counts[1], (problem, kind, *mode, counts)
