"""Differential and property tests of the exact LP core.

``solve_feasibility`` stores its tableau as sparse integer rows and pivots
without fractions.  The oracle below is the dense ``Fraction`` two-phase
simplex it replaced, kept unchanged apart from the ``oracle_`` names: the
same columns, artificials included, the same Bland entering and leaving
rules.  Positive row scaling keeps every sign and ratio those rules read, so
both solvers must return equal results, slack and assignment included.
Fourier-Motzkin elimination gives an independent feasibility answer for
small systems.

The sparse pivot step that built a new dict per row update is kept below
as the pivot reference.  It is cheap enough for the long engine systems, so
the in-place row updates are checked against it pivot by pivot there.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcverify import Constraint, LinearFeasibilityProblem, solve_feasibility
from dcverify import multipliers
from dcverify.cli import main
from dcverify.multipliers import FeasibilityResult
from dcverify.pareto import NeighborhoodSpec
from dcverify.problem import GridSpec
from dcverify.scenarios import check_results, load_scenario_problem, run_scenario


# --- the dense Fraction solver, as the oracle ------------------------------


def oracle_pivot(tableau: list[list[Fraction]], zrow: list[Fraction], basis: list[int],
                 i: int, j: int) -> None:
    pv = tableau[i][j]
    tableau[i] = [v / pv for v in tableau[i]]
    for r in range(len(tableau)):
        if r != i and tableau[r][j] != 0:
            f = tableau[r][j]
            tableau[r] = [a - f * b for a, b in zip(tableau[r], tableau[i])]
    if zrow[j] != 0:
        f = zrow[j]
        zrow[:] = [a - f * b for a, b in zip(zrow, tableau[i])]
    basis[i] = j


def oracle_run_simplex(tableau: list[list[Fraction]], zrow: list[Fraction],
                       basis: list[int], ncols: int) -> str:
    """Minimize with Bland's rule; zrow holds c_B B^-1 A - c and the
    objective value (negated cost convention) in its last entry."""
    while True:
        enter = next((j for j in range(ncols) if zrow[j] > 0), None)
        if enter is None:
            return "optimal"
        best = None
        for r in range(len(tableau)):
            a = tableau[r][enter]
            if a > 0:
                ratio = tableau[r][-1] / a
                key = (ratio, basis[r])
                if best is None or key < best[0]:
                    best = (key, r)
        if best is None:
            return "unbounded"
        oracle_pivot(tableau, zrow, basis, best[1], enter)


def oracle_solve_feasibility(lfp: LinearFeasibilityProblem) -> FeasibilityResult:
    """Deterministic exact solve.

    Free variables are split into nonnegative parts; every ``>`` constraint
    shares one slack variable (bounded by one) that is maximized after
    feasibility, and the strict system holds exactly when its optimum is
    positive.
    """
    nvars = len(lfp.variables)
    has_strict = any(c.relation == "gt" for c in lfp.constraints)
    # column layout: P_0..P_{n-1}, N_0..N_{n-1}, [t, u], one surplus per inequality
    ncols = 2 * nvars + (2 if has_strict else 0)
    t_col = 2 * nvars if has_strict else None
    surplus_count = sum(1 for c in lfp.constraints if c.relation in ("ge", "gt"))
    first_surplus = ncols
    ncols += surplus_count

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    surplus_used = 0
    for c in lfp.constraints:
        row = [Fraction(0)] * ncols
        for k, coeff in enumerate(c.coeffs):
            row[k] = coeff
            row[nvars + k] = -coeff
        if c.relation in ("ge", "gt"):
            if c.relation == "gt":
                row[t_col] = Fraction(-1)
            row[first_surplus + surplus_used] = Fraction(-1)
            surplus_used += 1
        rows.append(row)
        rhs.append(Fraction(c.rhs))
    if has_strict:
        row = [Fraction(0)] * ncols
        row[t_col] = Fraction(1)
        row[t_col + 1] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))
    for r in range(len(rows)):
        if rhs[r] < 0:
            rows[r] = [-v for v in rows[r]]
            rhs[r] = -rhs[r]

    m = len(rows)
    # phase 1: artificial identity basis, minimize the artificial sum
    tableau = [rows[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
               + [rhs[i]] for i in range(m)]
    basis = [ncols + i for i in range(m)]
    width = ncols + m
    zrow = [Fraction(0)] * (width + 1)
    for j in range(ncols):
        zrow[j] = sum(tableau[i][j] for i in range(m))
    zrow[-1] = sum(rhs)
    if oracle_run_simplex(tableau, zrow, basis, ncols) != "optimal":
        raise RuntimeError("phase-1 simplex cannot be unbounded")
    if zrow[-1] != 0:
        return FeasibilityResult("Infeasible")

    # drive leftover artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= ncols:
            enter = next((j for j in range(ncols) if tableau[i][j] != 0), None)
            if enter is None:
                continue  # redundant row
            oracle_pivot(tableau, zrow, basis, i, enter)
        keep.append(i)
    tableau = [tableau[i][:ncols] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    if has_strict:
        # phase 2: maximize t, i.e. minimize -t
        cost = [Fraction(0)] * ncols
        cost[t_col] = Fraction(-1)
        zrow = [Fraction(0)] * (ncols + 1)
        for j in range(ncols + 1):
            col = [tableau[i][j] for i in range(len(tableau))]
            zrow[j] = sum(cost[basis[i]] * col[i] for i in range(len(tableau)))
        for j in range(ncols):
            zrow[j] -= cost[j]
        if oracle_run_simplex(tableau, zrow, basis, ncols) != "optimal":
            raise RuntimeError("bounded strict slack cannot be unbounded")

    values = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        values[b] = tableau[i][-1]
    assignment = tuple(values[k] - values[nvars + k] for k in range(nvars))
    slack = values[t_col] if has_strict else None
    if has_strict and slack <= 0:
        return FeasibilityResult("Infeasible", strict_slack=slack)
    return FeasibilityResult("Feasible", assignment, slack)


# --- the dict-building sparse pivot, as the pivot reference ---------------


def reference_eliminate(row: dict[int, int], p: int, prow: dict[int, int],
                        f: int) -> dict[int, int]:
    """p * row - f * prow, storing no zero entry, with the gcd divided out."""
    new = {k: p * v for k, v in row.items()}
    for k, v in prow.items():
        w = new.get(k, 0) - f * v
        if w:
            new[k] = w
        else:
            del new[k]
    g = math.gcd(*new.values())
    return {k: v // g for k, v in new.items()} if g > 1 else new


def reference_pivot(tableau: list[dict[int, int]], zrow: dict[int, int], basis: list[int],
                    i: int, j: int) -> None:
    """The pivot step with a new dict per row update; the objective row it
    computes is written back into zrow, which the simplex loop reads."""
    prow = tableau[i]
    p = prow[j]
    if p < 0:
        prow = tableau[i] = {k: -v for k, v in prow.items()}
        p = -p
    for r, row in enumerate(tableau):
        f = row.get(j)
        if f and r != i:
            tableau[r] = reference_eliminate(row, p, prow, f)
    basis[i] = j
    f = zrow.get(j)
    if f:
        new = reference_eliminate(zrow, p, prow, f)
        zrow.clear()
        zrow.update(new)


def solve_with_pivot(lfp: LinearFeasibilityProblem, pivot) -> tuple[FeasibilityResult, list]:
    """The result of ``solve_feasibility`` with ``pivot`` as its pivot step,
    and the (leaving row, entering column) of every pivot it made."""
    sequence = []

    def step(tableau, zrow, basis, i, j):
        sequence.append((i, j))
        pivot(tableau, zrow, basis, i, j)

    with mock.patch.object(multipliers, "_pivot", step):
        return solve_feasibility(lfp), sequence


def reference_checked(lfp: LinearFeasibilityProblem) -> FeasibilityResult:
    """The result of ``solve_feasibility``, asserted equal to the reference's,
    pivot sequence included."""
    result, sequence = solve_with_pivot(lfp, multipliers._pivot)
    assert (result, sequence) == solve_with_pivot(lfp, reference_pivot)
    return result


# --- brute force for small systems -----------------------------------------


def fourier_motzkin_feasible(lfp: LinearFeasibilityProblem) -> bool:
    """Whether some real point satisfies every row, by eliminating the
    variables one at a time.  A row is (a, strict, b) for a.x >= b, or
    a.x > b when strict; a combination is strict when either part is."""
    rows = []
    for c in lfp.constraints:
        a = list(c.coeffs)
        if c.relation == "eq":
            rows += [(a, False, c.rhs), ([-v for v in a], False, -c.rhs)]
        else:
            rows.append((a, c.relation == "gt", c.rhs))
    for k in range(len(lfp.variables)):
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        combined = {}
        for a, strict, b in [r for r in rows if r[0][k] == 0]:
            combined[(tuple(a), b)] = combined.get((tuple(a), b), False) or strict
        for ap, sp, bp in pos:
            for an, sn, bn in neg:
                mp, mn = -an[k], ap[k]
                key = (tuple(mp * u + mn * v for u, v in zip(ap, an)), mp * bp + mn * bn)
                combined[key] = combined.get(key, False) or sp or sn
        rows = [(list(a), strict, b) for (a, b), strict in combined.items()]
    return all(0 > b if strict else 0 >= b for _, strict, b in rows)


# --- generated systems -----------------------------------------------------

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
rhs_values = st.one_of(st.just(Fraction(0)), small)


@st.composite
def systems(draw, max_vars=4):
    n = draw(st.integers(1, max_vars))
    rows = draw(st.lists(
        st.builds(Constraint, st.tuples(*[small] * n),
                  st.sampled_from(("ge", "ge", "eq", "gt")), rhs_values),
        min_size=1, max_size=12))
    return LinearFeasibilityProblem(tuple(f"v{k}" for k in range(n)), tuple(rows))


@given(systems())
def test_integer_core_matches_fraction_oracle(lfp):
    result = solve_feasibility(lfp)
    assert result == oracle_solve_feasibility(lfp)
    if result.feasible:
        assert all(c.holds(result.assignment) for c in lfp.constraints)


@given(systems(max_vars=2))
def test_status_agrees_with_fourier_motzkin(lfp):
    assert solve_feasibility(lfp).feasible == fourier_motzkin_feasible(lfp)


def test_generated_systems_reach_both_statuses():
    """The strategy is not degenerate: it yields feasible and infeasible
    systems, with and without strict rows."""
    seen = set()

    @given(systems())
    def collect(lfp):
        strict = any(c.relation == "gt" for c in lfp.constraints)
        seen.add((solve_feasibility(lfp).feasible, strict))

    collect()
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@st.composite
def scale_fixed_systems(draw, max_vars=4):
    """Systems shaped like a multiplier system's: homogeneous ``ge`` rows
    and one equality with rhs 1, around a planted point that every ``ge``
    row pairs nonnegatively with.  Coefficients are p/q with q up to 128,
    so that the rows reach the solver over dens of very different sizes;
    the phase-1 objective sums the rows at that scale, and a wrong scale
    takes other pivots to another vertex."""
    n = draw(st.integers(2, max_vars))
    planted = draw(st.tuples(*[st.integers(-3, 3)] * n))

    def oriented(g):
        return g if sum(a * b for a, b in zip(g, planted)) >= 0 else tuple(-a for a in g)

    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 128))
    rows = [Constraint(oriented(g), "ge", 0)
            for g in draw(st.lists(st.tuples(*[coeff] * n), min_size=1, max_size=10))]
    rows.append(Constraint(draw(st.tuples(*[st.integers(-3, 3)] * n)), "eq", 1))
    return LinearFeasibilityProblem(tuple(f"v{k}" for k in range(n)), tuple(rows))


@given(scale_fixed_systems())
def test_scale_fixed_systems_match_fraction_oracle(lfp):
    result = solve_feasibility(lfp)
    assert result == oracle_solve_feasibility(lfp)
    if result.feasible:
        assert all(c.holds(result.assignment) for c in lfp.constraints)


# the oracle takes over a second on a 55-row system
GRID_EXAMPLES = 8
ZERO = Fraction(0)
scales = st.sampled_from([ZERO, Fraction(1), Fraction(1), Fraction(2), Fraction(1, 3)])


@st.composite
def grid_systems(draw):
    """Systems shaped like the ones the multiplier engines pose: dual-cone
    ``ge`` rows on the ystar part and on the zstar part, an optional
    complementarity equality, the scale-fixing equality with rhs 1, one or
    more strict rows on ystar, then 20-45 homogeneous ``ge`` rows drawn from
    a few base rows times a scale, so that duplicate, parallel and zero rows
    occur as they do among grid rows.  Such a system takes a long chain of
    degenerate pivots.  Some systems plant a point: every row but the
    complementarity one is turned to pair nonnegatively with it, so that
    feasible systems are common too."""
    y_dim, z_dim = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    n = y_dim + z_dim
    planted = draw(st.one_of(st.none(), st.tuples(*[small] * n)))

    def part(first, count):
        def oriented(v):
            g = (ZERO,) * first + v + (ZERO,) * (n - first - count)
            if planted is not None and sum(a * b for a, b in zip(g, planted)) < 0:
                return tuple(-a for a in g)
            return g
        return st.tuples(*[small] * count).map(oriented)

    rows = [Constraint(g, "ge", ZERO) for g in draw(st.lists(part(0, y_dim), min_size=1, max_size=3))]
    rows += [Constraint(g, "ge", ZERO)
             for g in draw(st.lists(part(y_dim, z_dim), min_size=1, max_size=3))]
    if draw(st.booleans()):
        rows.append(Constraint(draw(part(y_dim, z_dim)), "eq", ZERO))
    rows.append(Constraint(draw(part(0, n)), "eq", Fraction(1)))
    rows += [Constraint(g, "gt", ZERO) for g in draw(st.lists(part(0, y_dim), min_size=1, max_size=2))]
    base = draw(st.lists(part(0, n), min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), scales), min_size=20, max_size=45))
    rows += [Constraint(tuple(s * v for v in base[i]), "ge", ZERO) for i, s in picks]
    return LinearFeasibilityProblem(tuple(f"v{k}" for k in range(n)), tuple(rows))


@settings(max_examples=GRID_EXAMPLES)
@given(grid_systems())
def test_grid_shaped_systems_match_fraction_oracle(lfp):
    result = solve_feasibility(lfp)
    assert result == oracle_solve_feasibility(lfp)
    if result.feasible:
        assert all(c.holds(result.assignment) for c in lfp.constraints)


def test_grid_shaped_systems_reach_both_statuses_and_30_rows():
    statuses, most_rows = set(), 0

    @settings(max_examples=GRID_EXAMPLES)
    @given(grid_systems())
    def collect(lfp):
        nonlocal most_rows
        statuses.add(solve_feasibility(lfp).status)
        most_rows = max(most_rows, len(lfp.constraints))

    collect()
    assert statuses == {"Feasible", "Infeasible"}
    assert most_rows >= 30


@settings(max_examples=100)
@given(grid_systems())
def test_grid_shaped_systems_take_reference_pivots(lfp):
    reference_checked(lfp)


# --- the systems the multiplier engines build ------------------------------


def oracle_checked(monkeypatch) -> list[tuple[int, str]]:
    """Make every engine LP compare ``solve_feasibility`` with the oracle;
    the returned list receives (row count, status) per LP."""
    solved = []

    def compare(lfp):
        result = solve_feasibility(lfp)
        assert result == oracle_solve_feasibility(lfp)
        solved.append((len(lfp.constraints), result.status))
        return result

    monkeypatch.setattr(multipliers, "solve_feasibility", compare)
    return solved


def engine_systems(monkeypatch) -> list[LinearFeasibilityProblem]:
    """Spy on ``_solve_multipliers``: the returned list receives the full
    system (prefix + rows) of every multiplier LP an engine poses, also
    when a subset of its rows decides it."""
    posed = []
    solve = multipliers._solve_multipliers

    def spy(prefix, rows, y_dim):
        posed.append(multipliers._system(prefix + rows, y_dim))
        return solve(prefix, rows, y_dim)

    monkeypatch.setattr(multipliers, "_solve_multipliers", spy)
    return posed


def oracle_results(posed: list[LinearFeasibilityProblem]) -> list[tuple[int, str]]:
    """(row count, status) per system, each solved by ``solve_feasibility``
    and asserted equal to the oracle's result."""
    solved = []
    for lfp in posed:
        result = solve_feasibility(lfp)
        assert result == oracle_solve_feasibility(lfp)
        solved.append((len(lfp.constraints), result.status))
    return solved


def corrected_sufficient(name: str, points: int) -> None:
    parsed = load_scenario_problem(name)
    check_results("sufficient", parsed, NeighborhoodSpec(parsed.options.radius),
                  GridSpec(parsed.problem.C, points), mode=multipliers.MODE_CORRECTED)


@pytest.mark.parametrize("name", ["example-3-1", "example-4-1"])
def test_engine_systems_match_fraction_oracle(name, monkeypatch):
    """Every LP that the alternative, sufficient and necessary checks solve
    on a shipped problem gets the oracle's result."""
    solved = oracle_checked(monkeypatch)
    parsed = load_scenario_problem(name)
    U = NeighborhoodSpec(parsed.options.radius)
    grid = GridSpec(parsed.problem.C, 21)
    check_results("alternative", parsed, U, grid)
    for kind in ("sufficient", "necessary"):
        for mode in (multipliers.MODE_CORRECTED, multipliers.MODE_LEGACY):
            for target in (multipliers.TARGET_WEAK, multipliers.TARGET_PROPER):
                check_results(kind, parsed, U, grid, mode=mode, target=target)
    assert "Feasible" in {status for _, status in solved}


def test_long_degenerate_engine_systems_match_fraction_oracle(monkeypatch):
    """The long systems of the benchmark's LP workload: example-4-1's
    corrected sufficient check at grid 65, and the LPs of the example-3-1
    scenario at its grid of 101.  Each is solved whole, whether or not a
    subset of its rows decides it inside the engine."""
    posed = engine_systems(monkeypatch)
    corrected_sufficient("example-4-1", 65)
    assert oracle_results(posed) == [(37, "Infeasible")]
    posed.clear()
    run_scenario("example-3-1")
    assert oracle_results(posed) == [(7, "Feasible"), (32, "Infeasible")]


def test_row_updates_write_only_stored_entries(monkeypatch):
    """Work count, no timer: on example-4-1 at grid 101 (55 rows, 62
    columns, about 50 degenerate pivots that each update every row) a row
    update writes fewer than 5 entries on average.  Dense rows would write
    all 63.  The engine decides the system on a subset of its rows, so the
    full system it poses is solved here."""
    written = []
    eliminate = multipliers._eliminate

    def count(*args):
        row = eliminate(*args)
        written.append(len(row))
        return row

    posed = engine_systems(monkeypatch)
    corrected_sufficient("example-4-1", 101)
    monkeypatch.setattr(multipliers, "_eliminate", count)
    for lfp in posed:
        solve_feasibility(lfp)
    assert len(written) > 2000
    assert sum(written) / len(written) < 5


@pytest.mark.parametrize("name", ["example-3-1", "example-4-1"])
def test_engine_systems_take_reference_pivots(name, monkeypatch):
    """The sufficient and necessary checks of a shipped problem, in both
    modes and for both targets at grids 33, 65 and 101, pose long degenerate
    systems; every full system takes the reference's pivots and gets its
    result.  ``_solve_multipliers`` returns exactly what solving and
    certifying the full system gives, and every system it certifies was
    the last one it solved, with the full constraint tuple."""
    solved, posed, last, certified = [], [], [], []
    solve, certify = multipliers._solve_multipliers, multipliers._certificate

    def record(lfp):
        last.append(lfp)
        return solve_feasibility(lfp)

    def certify_last(lfp, result, y_dim):
        assert lfp is last[-1] and lfp.constraints == posed[-1]
        certified.append(len(lfp.constraints))
        return certify(lfp, result, y_dim)

    def compare(prefix, rows, y_dim):
        lfp = multipliers._system(prefix + rows, y_dim)
        solved.append(len(lfp.constraints))
        posed.append(lfp.constraints)
        result = reference_checked(lfp)
        full = certify(lfp, result, y_dim) if result.feasible else None
        assert solve(prefix, rows, y_dim) == full
        return full

    monkeypatch.setattr(multipliers, "solve_feasibility", record)
    monkeypatch.setattr(multipliers, "_certificate", certify_last)
    monkeypatch.setattr(multipliers, "_solve_multipliers", compare)
    parsed = load_scenario_problem(name)
    U = NeighborhoodSpec(parsed.options.radius)
    for points in (33, 65, 101):
        grid = GridSpec(parsed.problem.C, points)
        for kind in ("sufficient", "necessary"):
            for mode in (multipliers.MODE_CORRECTED, multipliers.MODE_LEGACY):
                for target in (multipliers.TARGET_WEAK, multipliers.TARGET_PROPER):
                    check_results(kind, parsed, U, grid, mode=mode, target=target)
    assert max(solved) >= 30
    assert certified


@st.composite
def split_grid_systems(draw):
    """A ``grid_systems`` draw as an engine poses it: (prefix, rows, y_dim),
    with the strict rows ending the prefix (as in the sufficient check) or
    starting the rows (as in the necessary check's proper branch)."""
    constraints = list(draw(grid_systems()).constraints)
    strict = [i for i, c in enumerate(constraints) if c.relation == "gt"]
    split = draw(st.sampled_from([strict[0], strict[-1] + 1]))
    y_dim = draw(st.integers(1, len(constraints[0].coeffs) - 1))
    return constraints[:split], constraints[split:], y_dim


@settings(max_examples=100)
@given(split_grid_systems())
def test_split_grid_systems_get_the_full_system_certificate(split):
    """``_solve_multipliers`` returns what solving and certifying the full
    system gives, on systems of 21-47 engine rows: below the subset gate and
    above it, feasible and infeasible."""
    prefix, rows, y_dim = split
    lfp = multipliers._system(prefix + rows, y_dim)
    result = solve_feasibility(lfp)
    full = multipliers._certificate(lfp, result, y_dim) if result.feasible else None
    assert multipliers._solve_multipliers(prefix, rows, y_dim) == full


PROBLEMS = Path(__file__).parent / "problems"
MIX_00 = PROBLEMS / "mix-00.problem"


def legacy_necessary(capsysbinary, points: int, path: Path = MIX_00) -> bytes:
    """The machine report of ``check necessary --mode legacy-gl`` on a
    corpus problem (the 2-D mix-00 by default) at the given grid."""
    assert main(["check", "necessary", "--problem", str(path), "--mode", "legacy-gl",
                 "--grid", str(points), "--format", "machine"]) == 0
    return capsysbinary.readouterr().out


def oracle_pivots(lfp: LinearFeasibilityProblem, monkeypatch) -> tuple[FeasibilityResult, list]:
    """The dense oracle's result on the rows as Fractions, and the (row,
    column) of every pivot it made."""
    sequence = []
    pivot = oracle_pivot

    def step(tableau, zrow, basis, i, j):
        sequence.append((i, j))
        pivot(tableau, zrow, basis, i, j)

    with monkeypatch.context() as m:
        m.setattr(sys.modules[__name__], "oracle_pivot", step)
        return oracle_solve_feasibility(lfp), sequence


def test_rows_keep_their_scale_through_den(monkeypatch, capsysbinary):
    """A row is its ints over den, and the phase-1 objective sums the rows
    at that scale.  The legacy necessary check of the corpus problem mix-01
    at grid 7 poses rows with den up to 128.  Read as ints over den, each of
    its systems takes the pivots, and reaches the vertex, that the dense
    oracle takes on the same rows as Fractions; a row posed as scaled ints
    over a scaled den is the same row.  The certified vertex is ystar =
    (1, 0); summed without den, as primitive rows, the objective leads to
    ystar = (4/11, 7/11)."""
    posed = engine_systems(monkeypatch)
    report = json.loads(legacy_necessary(capsysbinary, 7, PROBLEMS / "mix-01.problem"))
    assert report["results"][0]["data"]["ystar"] == ["1", "0"]
    assert max(c.den for lfp in posed for c in lfp.constraints) == 128
    for lfp in posed:
        for c in lfp.constraints:
            assert c == Constraint(c.coeffs, c.relation, c.rhs, c.label) == Constraint(
                [3 * v for v in c.ints], c.relation, 3 * c.rhs_int, c.label, den=3 * c.den)
        assert solve_with_pivot(lfp, multipliers._pivot) == oracle_pivots(lfp, monkeypatch)


# no tableau entry of the systems below grows past this many bits
ENTRY_BITS = 256


def largest_entry_bits(lfp: LinearFeasibilityProblem) -> int:
    """The bit length of the largest tableau entry, objective rows
    included, after any pivot of the solve."""
    most = 0
    pivot = multipliers._pivot

    def step(tableau, zrow, basis, i, j):
        nonlocal most
        pivot(tableau, zrow, basis, i, j)
        most = max(most, *(abs(v).bit_length() for row in (*tableau, zrow) for v in row.values()))

    with mock.patch.object(multipliers, "_pivot", step):
        solve_feasibility(lfp)
    return most


def test_division_schedule_bounds_entry_growth(monkeypatch, capsysbinary):
    """Rows other than the pivot row keep their content through a pivot,
    and every CONTENT_PERIOD pivots each row is divided by its content.
    On the long systems above (example-4-1's corrected sufficient check at
    grids 65 and 101, the example-3-1 scenario) and on the four 106-row
    LPs of a notched problem's corrected sufficient check at grid 401, no
    entry passes ENTRY_BITS: the largest reach 50 and 224 bits, against 211
    and 2,398 with no division past the pivot row.  Every system takes the
    reference's pivots."""
    posed = engine_systems(monkeypatch)
    corrected_sufficient("example-4-1", 65)
    corrected_sufficient("example-4-1", 101)
    run_scenario("example-3-1")
    assert main(["check", "sufficient", "--problem", str(PROBLEMS / "notched-1.problem"),
                 "--mode", "corrected", "--grid", "401"]) == 0
    assert b"AllCandidatesCertified" in capsysbinary.readouterr().out
    assert [len(lfp.constraints) for lfp in posed][-4:] == [106] * 4
    for lfp in posed:
        reference_checked(lfp)
        assert largest_entry_bits(lfp) <= ENTRY_BITS


def test_long_infeasible_systems_are_decided_on_a_few_rows(monkeypatch, capsysbinary):
    """Work count, no timer: at grid 65 each of mix-00's two legacy
    necessary LPs has 1,025 rows over 2 unknowns, and both are infeasible.
    Solved whole they take 1,853 pivots and about 1.9 million row updates;
    decided on subsets, 13 pivots and 144 updates."""
    eliminations = 0
    eliminate = multipliers._eliminate

    def count(*args):
        nonlocal eliminations
        eliminations += 1
        return eliminate(*args)

    monkeypatch.setattr(multipliers, "_eliminate", count)
    report = json.loads(legacy_necessary(capsysbinary, 65))
    assert report["results"][0]["status"] == "InfeasibleOnGrid"
    assert eliminations < 10_000


def test_subset_decision_keeps_report_bytes(monkeypatch, capsysbinary):
    """At grid 33 the report is the same byte for byte whether subsets
    decide mix-00's systems or, with the gate above any row count, the full
    solves do."""
    decided = []
    subset_infeasible = multipliers._subset_infeasible

    def spy(*args):
        decided.append(subset_infeasible(*args))
        return decided[-1]

    monkeypatch.setattr(multipliers, "_subset_infeasible", spy)
    gated = legacy_necessary(capsysbinary, 33)
    assert True in decided
    monkeypatch.setattr(multipliers, "SUBSET_ROWS", math.inf)
    decided.clear()
    assert legacy_necessary(capsysbinary, 33) == gated
    assert not decided


def test_drive_out_enters_least_stored_column(monkeypatch):
    """After phase 1, an artificial still basic (at level zero) is driven
    out by a pivot on the least column stored in its row, the column the
    oracle enters.  Here y0 >= 0 and -y0 >= 0 leave the artificial of the
    last row basic, and its row stores the surplus columns of both rows, 4
    and 6.  The pivot is degenerate and no strict row follows it with a
    phase 2, so the result does not show the column; the pivots made
    outside both simplex phases do."""
    one = Fraction(1)
    lfp = LinearFeasibilityProblem(("y0", "z0"), (
        Constraint((one, ZERO), "ge", ZERO), Constraint((ZERO, one), "ge", ZERO),
        Constraint((one, one), "eq", one), Constraint((-one, ZERO), "ge", ZERO)))
    depth, drive_outs = 0, []
    run_simplex, pivot = multipliers._run_simplex, multipliers._pivot

    def phase(*args):
        nonlocal depth
        depth += 1
        try:
            return run_simplex(*args)
        finally:
            depth -= 1

    def step(tableau, zrow, basis, i, j):
        if not depth:
            drive_outs.append((i, j, sorted(k for k in tableau[i] if k >= 0)))
        pivot(tableau, zrow, basis, i, j)

    monkeypatch.setattr(multipliers, "_run_simplex", phase)
    monkeypatch.setattr(multipliers, "_pivot", step)
    assert solve_feasibility(lfp) == FeasibilityResult("Feasible", (ZERO, one))
    assert drive_outs == [(3, 4, [4, 6])]


def test_pivot_guard_turns_a_lost_tableau_into_an_error(monkeypatch):
    """A row update that changes nothing keeps the entering column eligible
    forever; the pivot bound of a phase turns that loop into a
    `SolverLimitError` once the phase has made one pivot past the bound.
    The spy fails the test at the pivot after that, so a missing guard fails
    it fast instead of hanging it."""
    lfp = LinearFeasibilityProblem(("x",), (Constraint((Fraction(1),), "ge", Fraction(1)),))
    bound = multipliers.PIVOTS_PER_ROW * len(lfp.constraints) + 1
    pivots, pivot = [], multipliers._pivot

    def step(tableau, zrow, basis, i, j):
        pivots.append((i, j))
        assert len(pivots) <= bound, "the phase pivoted past its bound"
        pivot(tableau, zrow, basis, i, j)

    monkeypatch.setattr(multipliers, "_eliminate", lambda row, p, prow, f: row)
    monkeypatch.setattr(multipliers, "_pivot", step)
    with pytest.raises(multipliers.SolverLimitError, match="pivots per row"):
        solve_feasibility(lfp)
    assert pivots == [(0, 0)] * bound
