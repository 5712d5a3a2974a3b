"""Exact rational linear feasibility plus the four theorem engines.

The feasibility core solves small systems of linear constraints over named
rational unknowns (the components of the multiplier pair) with relations
``>=``, ``==`` and ``>``.  Strict relations are handled by a shared slack
variable bounded by one and maximized with a deterministic two-phase simplex
under Bland's rule; the strict system is satisfiable exactly when the
optimal slack is positive.  A ``Constraint`` is ints over one positive
den, and the phase-1 objective sums the rows at that scale.  Tableau rows
are sparse ints, each the exact row times a positive scale; pivots are
fraction-free and in place, and divide only the pivot row by its content
(every row, every CONTENT_PERIOD pivots).  Feasible assignments are read
back as exact ``Fraction`` values, and each certificate is checked exactly,
in integers, on its rows.

On top of the core sit the theorem engines:

* ``alternative_system``: either a grid point solving the strict system
  exists, or nonzero dual-cone multipliers certify nonnegativity of the
  scalarized values on the whole grid (the convexlike alternative).
* ``sufficient_condition``: certifies the multiplier hypotheses of the
  sufficient optimality conditions, in corrected mode (with interior
  correction pairs shifting the candidate operators) or in legacy mode
  (corrections absent); both carry the complementarity equality.
* ``necessary_condition``: searches candidate operator pairs for multipliers
  satisfying the scalarized subgradient system; legacy mode adds the
  complementarity equality, which is the defining difference between the
  modes, and the proper target restricts the objective multiplier to the
  strict polar or zero.

Value rows (the alternative) and subgradient rows are ints from the grid's
value tables (``problem.PointTable``); pruning and deduplication
(``_grid_rows``) read the ints, and the rows that survive become
constraints from those ints, each formatting its label only when read.

One function, ``_solve_multipliers``, poses, solves and certifies every
multiplier system: a prefix built once per engine call (the dual-cone rows,
the complementarity equality when the mode carries one, then scale fixing)
followed by the engine's own rows.  The modes differ only in their rows.
A system with at least ``SUBSET_ROWS`` engine rows is first decided on a
few of them by constraint generation (``_subset_infeasible``).  An
infeasible subset makes the whole system infeasible, which reaches a report
only as None, so no byte changes.  A feasible system is always solved whole.

The multiplier pair is scale-fixed by one linear equality: the pairings of
ystar with the generators of the objective cone plus the pairings of zstar
with the generators of the constraint cone sum to one.  Inside the dual
cones every one of those pairings is nonnegative, so the row is sign-safe
and excludes the zero functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

from .cones import (
    PolyhedralCone,
    RationalVector,
    _cleared,
    _dot,
    _int_primitive,
    as_fraction,
    cone_contains,
    format_rational,
)
from .pareto import NeighborhoodSpec, check_eps_weak_local_min
from .problem import DCProblem, GridSpec, VectorMap, check_convexlike
from .report import Status
from .subdiff import LinearOperator

MAX_VARIABLES = 8
# pivots per tableau row past which a simplex phase has lost its tableau;
# no LP of the tests or benchmark workloads makes more than 7.9
PIVOTS_PER_ROW = 80
# pivots of a solve between two divisions of every tableau row by its content
CONTENT_PERIOD = 8
# engine rows (past the prefix) from which a multiplier system is first
# decided on subsets; ge rows added per subset round; rounds at most
SUBSET_ROWS = 30
SUBSET_GE_ROWS = 8
SUBSET_ROUNDS = 3

MODE_CORRECTED = "corrected"
MODE_LEGACY = "legacy-gl"
TARGET_WEAK = "weak"
TARGET_PROPER = "proper"


class SolverLimitError(ValueError):
    """The feasibility system exceeds the supported variable count, or a
    simplex phase exceeds its pivot bound."""


# ---------------------------------------------------------------------------
# linear feasibility problems
# ---------------------------------------------------------------------------


class Constraint:
    """The row coeffs . v <relation> rhs (relation "ge", "eq" or "gt") as
    ints over one positive den, in lowest terms: coeffs = ints / den and
    rhs = rhs_int / den.  int or Fraction input, over ``den`` if given, is
    cleared here.  A grid row keeps its point and formats its label
    "<label> x=<point>" only when read."""

    __slots__ = ("ints", "relation", "rhs_int", "den", "_label", "_point")

    def __init__(self, coeffs: Sequence[Fraction | int], relation: str,
                 rhs: Fraction | int = 0, label: str = "", den: int = 1,
                 point: RationalVector | None = None) -> None:
        if relation not in ("ge", "eq", "gt"):
            raise ValueError(f"unknown relation {relation!r}")
        if type(den) is not int or den <= 0:
            raise ValueError(f"a constraint's den must be a positive int, not {den!r}")
        values = (*coeffs, rhs)
        if not all(type(v) is int for v in values):
            if not all(isinstance(v, (int, Fraction)) for v in values):
                raise ValueError("constraint coefficients and rhs must be int or Fraction")
            d, values = _cleared(values)
            den *= d
        g = math.gcd(*values, den)
        *ints, rhs_int = values if g == 1 else (v // g for v in values)
        self.ints, self.relation, self.rhs_int, self.den = tuple(ints), relation, rhs_int, den // g
        self._label, self._point = label, point

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.ints)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_int, self.den)

    @property
    def label(self) -> str:
        return self._label if self._point is None else f"{self._label} x={self._point}"

    def _key(self) -> tuple:
        return self.ints, self.relation, self.rhs_int, self.den, self.label

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constraint) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Constraint{self._key()!r}"

    def value(self, assignment: Sequence[Fraction]) -> Fraction:
        return sum(map(mul, self.ints, assignment), Fraction(0)) / self.den

    def holds(self, assignment: Sequence[Fraction]) -> bool:
        return self.residual_holds(self.value(assignment) - self.rhs)

    def residual_holds(self, residual: Fraction) -> bool:
        """Whether value - rhs = residual satisfies the relation."""
        if self.relation == "ge":
            return residual >= 0
        if self.relation == "eq":
            return residual == 0
        return residual > 0


@dataclass(frozen=True)
class LinearFeasibilityProblem:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if len(self.variables) > MAX_VARIABLES:
            raise SolverLimitError(
                f"{len(self.variables)} variables exceed the supported maximum {MAX_VARIABLES}")
        if not self.constraints:
            raise ValueError("a feasibility problem needs at least one constraint")
        if any(len(c.ints) != len(self.variables) for c in self.constraints):
            raise ValueError("constraint width does not match the variable count")


@dataclass(frozen=True)
class FeasibilityResult:
    status: Status  # FEASIBLE or INFEASIBLE
    assignment: tuple[Fraction, ...] | None = None
    strict_slack: Fraction | None = None

    @property
    def feasible(self) -> bool:
        return self.status == Status.FEASIBLE


def _divide_content(row: dict[int, int], sign: int = 1) -> None:
    """Divide the row by sign times the gcd of its stored entries, in place."""
    g = sign * math.gcd(*row.values())
    if g not in (0, 1):
        for k in row:
            row[k] //= g


def _eliminate(row: dict[int, int], p: int, prow: dict[int, int], f: int) -> dict[int, int]:
    """Set row to p * row - f * prow in place, storing no zero entry, and
    return it.  p = 1 leaves row unscaled and only prow's keys are touched;
    otherwise every entry is scaled first.  No common factor is divided
    out."""
    if p != 1:
        for k in row:
            row[k] *= p
    for k, v in prow.items():
        w = row.get(k, 0) - f * v
        if w:
            row[k] = w
        else:
            del row[k]
    return row


def _pivot(tableau: list[dict[int, int]], zrow: dict[int, int], basis: list[int],
           i: int, j: int) -> None:
    """Make column j basic in row i by fraction-free elimination, and
    eliminate column j from the objective row zrow the same way, in place.

    A row maps the column of each nonzero entry to that int, with a nonzero
    rhs under key -1; it is its tableau row times a positive scale.  Row i
    is divided by its content, and negated if its entry p in column j is
    negative; then p * R - f * R_i clears column j of a row R with entry f
    and keeps its scale positive (``_eliminate``).  Only stored entries are
    read or written.  Signs, ratios and zero patterns, all that the
    pivoting rules read, are those of the tableau.
    """
    prow = tableau[i]
    _divide_content(prow, -1 if prow[j] < 0 else 1)
    p = prow[j]
    for r, row in enumerate(tableau):
        f = row.get(j)
        if f and r != i:
            _eliminate(row, p, prow, f)
    basis[i] = j
    f = zrow.get(j)
    if f:
        _eliminate(zrow, p, prow, f)


def _step(tableau: list[dict[int, int]], zrow: dict[int, int], basis: list[int],
          i: int, j: int, made: int) -> int:
    """``_pivot`` as the solve's pivot made + 1, which is returned; after
    every CONTENT_PERIOD-th pivot each row, zrow too, is divided by its
    content, which bounds entry growth at a few gcd passes per row."""
    _pivot(tableau, zrow, basis, i, j)
    made += 1
    if not made % CONTENT_PERIOD:
        for row in tableau:
            _divide_content(row)
        _divide_content(zrow)
    return made


def _run_simplex(tableau: list[dict[int, int]], zrow: dict[int, int],
                 basis: list[int], made: int) -> int:
    """Minimize with Bland's rule, updating zrow to the optimal objective
    row, and return the solve's pivot count, made before; zrow holds
    c_B B^-1 A - c and the objective value (negated cost convention) under
    key -1.  The leaving row has the least (rhs / entry, basic column),
    with ratios compared by cross-multiplication.  A phase that needs more
    than PIVOTS_PER_ROW pivots per row raises."""
    for _ in range(PIVOTS_PER_ROW * len(tableau) + 1):
        enter = min((j for j, v in zrow.items() if v > 0 and j >= 0), default=None)
        if enter is None:
            return made
        leave = None
        for r, row in enumerate(tableau):
            a = row.get(enter, 0)
            if a > 0:
                b = row.get(-1, 0)
                if leave is not None:
                    lhs, rhs = b * best_a, best_rhs * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leave]):
                        continue
                leave, best_rhs, best_a = r, b, a
        if leave is None:
            raise RuntimeError("both simplex phases are bounded, yet a column is unbounded")
        made = _step(tableau, zrow, basis, leave, enter, made)
    raise SolverLimitError(f"a simplex phase needed more than {PIVOTS_PER_ROW} pivots per row")


def solve_feasibility(lfp: LinearFeasibilityProblem) -> FeasibilityResult:
    """Deterministic exact solve.

    Free variables are split into nonnegative parts; every ``>`` constraint
    shares one slack variable (bounded by one) that is maximized after
    feasibility, and the strict system holds exactly when its optimum is
    positive.  Tableau rows are sparse integer rows (see ``_pivot``); the
    phase-1 artificial columns are not stored, because they never enter the
    basis.  A basic value is read back as the row's right-hand side over its
    basic entry.
    """
    nvars = len(lfp.variables)
    has_strict = any(c.relation == "gt" for c in lfp.constraints)
    # column layout: P_0..P_{n-1}, N_0..N_{n-1}, [t, u], one surplus per inequality
    t_col = 2 * nvars if has_strict else None
    ncols = 2 * nvars + (2 if has_strict else 0)

    # each constraint row times its den, negated when the rhs is negative;
    # dens[i] is that (positive) factor
    tableau: list[dict[int, int]] = []
    dens: list[int] = []
    for c in lfp.constraints:
        den, rhs = c.den, c.rhs_int
        sign = -1 if rhs < 0 else 1
        row = {k: sign * v for k, v in enumerate(c.ints) if v}
        row.update({nvars + k: -v for k, v in row.items()})
        if c.relation != "eq":
            if c.relation == "gt":
                row[t_col] = -sign * den
            row[ncols] = -sign * den
            ncols += 1
        if rhs:
            row[-1] = abs(rhs)
        tableau.append(row)
        dens.append(den)
    if has_strict:
        tableau.append({t_col: 1, t_col + 1: 1, -1: 1})
        dens.append(1)

    m = len(tableau)
    # phase 1: artificial identity basis, minimize the artificial sum, whose
    # reduced costs are the column sums of the rows divided by their dens
    basis = [ncols + i for i in range(m)]
    common = math.lcm(*dens)
    zrow: dict[int, int] = {}
    for row, d in zip(tableau, dens):
        for k, v in row.items():
            zrow[k] = zrow.get(k, 0) + v * (common // d)
    zrow = {k: v for k, v in zrow.items() if v}
    made = _run_simplex(tableau, zrow, basis, 0)
    if zrow.get(-1):
        return FeasibilityResult(Status.INFEASIBLE)

    # drive leftover artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= ncols:
            enter = min((j for j in tableau[i] if j >= 0), default=None)
            if enter is None:
                continue  # redundant row
            made = _step(tableau, {}, basis, i, enter, made)  # no objective is read past phase 1
        keep.append(i)
    tableau = [tableau[i] for i in keep]
    basis = [basis[i] for i in keep]

    if has_strict:
        # phase 2: maximize t, i.e. minimize -t; the reduced costs are minus
        # t's row (its own entry cancels the cost), or e_t when t is nonbasic
        if t_col in basis:
            zrow = {k: -v for k, v in tableau[basis.index(t_col)].items() if k != t_col}
        else:
            zrow = {t_col: 1}
        _run_simplex(tableau, zrow, basis, made)

    zero = Fraction(0)
    values = {b: Fraction(row.get(-1, 0), row[b]) for row, b in zip(tableau, basis)
              if b < 2 * nvars or b == t_col}
    assignment = tuple(values.get(k, zero) - values.get(nvars + k, zero) for k in range(nvars))
    slack = values.get(t_col, zero) if has_strict else None
    if has_strict and slack <= 0:
        return FeasibilityResult(Status.INFEASIBLE, strict_slack=slack)
    return FeasibilityResult(Status.FEASIBLE, assignment, slack)


# ---------------------------------------------------------------------------
# certificates and corrections
# ---------------------------------------------------------------------------

SCALE_FIXING_LABEL = "scale-fixing"


@dataclass(frozen=True)
class MultiplierCertificate:
    """Exact multiplier pair with per-constraint residuals."""

    ystar: RationalVector
    zstar: RationalVector
    residuals: tuple[Fraction, ...]
    lfp: LinearFeasibilityProblem

    def assignment(self) -> tuple[Fraction, ...]:
        return tuple(self.ystar.coords) + tuple(self.zstar.coords)

    def verify(self, skip_scale_fixing: bool = False,
               scale: Fraction | int = 1) -> bool:
        """Re-check every constraint exactly; positive rescaling may skip the
        scale-fixing equality, which is the only non-homogeneous row."""
        s = as_fraction(scale)
        if s <= 0:
            raise ValueError("certificates only rescale by positive rationals")
        assignment = tuple(s * v for v in self.assignment())
        for c in self.lfp.constraints:
            if skip_scale_fixing and c.label == SCALE_FIXING_LABEL:
                continue
            if not c.holds(assignment):
                return False
        if all(v == 0 for v in assignment):
            return False
        return True

    def __str__(self) -> str:
        return f"ystar={self.ystar} zstar={self.zstar}"


def _int_residuals(constraints: Iterable[Constraint],
                   assignment: Sequence[Fraction]) -> Iterator[tuple[int, int]]:
    """(num, den) per constraint with value - rhs = num / den: with the
    assignment over one common denominator d and a row over its own den,
    den = den * d > 0, so num has the residual's sign."""
    d, nums = _cleared(assignment)
    for c in constraints:
        yield sum(v * n for v, n in zip(c.ints, nums) if v) - c.rhs_int * d, c.den * d


def _certificate(lfp: LinearFeasibilityProblem, result: FeasibilityResult,
                 y_dim: int) -> MultiplierCertificate:
    """The certificate of a feasible result, checked exactly: every residual
    must satisfy its relation and the multipliers must not all vanish, so no
    unverified multiplier verdict is reported.

    The check runs on integers (``_int_residuals``)."""
    assignment = result.assignment
    assert assignment is not None
    residuals = []
    for c, (num, den) in zip(lfp.constraints, _int_residuals(lfp.constraints, assignment)):
        residual = Fraction(num, den)
        if not c.residual_holds(num):
            raise RuntimeError(f"multiplier assignment breaks the {c.label or 'unlabelled'} "
                               f"row ({c.relation}, residual {format_rational(residual)})")
        residuals.append(residual)
    if not any(assignment):
        raise RuntimeError("multiplier assignment is all zero")
    ystar = RationalVector(assignment[:y_dim])
    zstar = RationalVector(assignment[y_dim:])
    return MultiplierCertificate(ystar, zstar, tuple(residuals), lfp)


@dataclass(frozen=True)
class CorrectionPair:
    """Interior shift pair (alpha, beta) for the corrected sufficient mode."""

    alpha: RationalVector
    beta: RationalVector

    @classmethod
    def checked(cls, alpha: RationalVector, beta: RationalVector,
                K: PolyhedralCone, D: PolyhedralCone) -> "CorrectionPair":
        if not cone_contains(K, alpha, strict=True):
            raise ValueError("alpha is not strictly interior to the objective cone")
        if not cone_contains(D, beta, strict=True):
            raise ValueError("beta is not strictly interior to the constraint cone")
        return cls(alpha, beta)


def default_corrections(K: PolyhedralCone, D: PolyhedralCone) -> list[CorrectionPair]:
    """Interior samples (w_K, w_D) / 2^k for k = 0..3."""
    wk = K.interior_point()
    wd = D.interior_point()
    return [
        CorrectionPair.checked(wk.scale(Fraction(1, 2 ** k)), wd.scale(Fraction(1, 2 ** k)), K, D)
        for k in range(4)
    ]


# ---------------------------------------------------------------------------
# shared row construction
# ---------------------------------------------------------------------------


def _pad(coeff_y: RationalVector | None, coeff_z: RationalVector | None,
         y_dim: int, z_dim: int) -> tuple[Fraction | int, ...]:
    ys = tuple(coeff_y.coords) if coeff_y is not None else (0,) * y_dim
    zs = tuple(coeff_z.coords) if coeff_z is not None else (0,) * z_dim
    return ys + zs


def _prefix(K: PolyhedralCone, D: PolyhedralCone,
            comp_slack: RationalVector | None = None) -> list[Constraint]:
    """The rows every multiplier system starts with: the dual-cone rows, the
    complementarity equality <zstar, comp_slack> = 0 when the mode carries
    one, then the scale-fixing equality."""
    y_dim, z_dim = K.dim, D.dim
    rows = [Constraint(_pad(g, None, y_dim, z_dim), "ge", 0, "ystar-dual-cone")
            for g in K.generators]
    rows += [Constraint(_pad(None, g, y_dim, z_dim), "ge", 0, "zstar-dual-cone")
             for g in D.generators]
    if comp_slack is not None:
        rows.append(Constraint(_pad(None, comp_slack, y_dim, z_dim), "eq", 0, "complementarity"))
    rows.append(Constraint(_pad(K.interior_point(), D.interior_point(), y_dim, z_dim),
                           "eq", 1, SCALE_FIXING_LABEL))
    return rows


def _system(constraints: Sequence[Constraint], y_dim: int) -> LinearFeasibilityProblem:
    """The constraints as a system in the unknowns y0.. (ystar) and z0.. (zstar)."""
    names = tuple(f"y{i}" if i < y_dim else f"z{i - y_dim}"
                  for i in range(len(constraints[0].ints)))
    return LinearFeasibilityProblem(names, tuple(constraints))


def _subset_infeasible(prefix: list[Constraint], rows: list[Constraint], y_dim: int) -> bool:
    """Whether a subset of prefix + rows is infeasible, in at most
    SUBSET_ROUNDS solves: the prefix, every eq/gt row and the first
    SUBSET_GE_ROWS ge rows, then, while the subset is feasible, the subset
    plus up to SUBSET_GE_ROWS rows its assignment violates.  False when no
    round decides the system."""
    rest = [i for i, c in enumerate(rows) if c.relation == "ge"][SUBSET_GE_ROWS:]
    for _ in range(SUBSET_ROUNDS):
        skip = set(rest)
        result = solve_feasibility(
            _system(prefix + [c for i, c in enumerate(rows) if i not in skip], y_dim))
        if not result.feasible:
            return True
        residuals = _int_residuals([rows[i] for i in rest], result.assignment)
        violated = [i for i, (num, _) in zip(rest, residuals)
                    if not rows[i].residual_holds(num)][:SUBSET_GE_ROWS]
        if not violated:
            return False
        rest = [i for i in rest if i not in violated]
    return False


def _solve_multipliers(prefix: list[Constraint], rows: list[Constraint],
                       y_dim: int) -> MultiplierCertificate | None:
    """The checked certificate of the system prefix + rows in the unknowns
    y0.. (ystar) and z0.. (zstar), or None when it is infeasible; a long
    system is first tried on subsets, and a feasible one is solved whole."""
    if len(rows) >= SUBSET_ROWS and _subset_infeasible(prefix, rows, y_dim):
        return None
    lfp = _system(prefix + rows, y_dim)
    result = solve_feasibility(lfp)
    return _certificate(lfp, result, y_dim) if result.feasible else None


def _ystar_strict_rows(K: PolyhedralCone, D: PolyhedralCone, target: str) -> list[Constraint]:
    """Nonzero / strict-polar side conditions on ystar via the shared slack."""
    y_dim, z_dim = K.dim, D.dim
    if target == TARGET_WEAK:
        K.interior_normals()  # the row below needs an interior point of K: refuse a K without one
        return [Constraint(_pad(K.interior_point(), None, y_dim, z_dim), "gt", 0, "ystar-nonzero")]
    if target == TARGET_PROPER:
        rows = [Constraint(_pad(b, None, y_dim, z_dim), "eq", 0, "ystar-vanishes-on-lineality")
                for b in K.lineality_basis]
        rows += [Constraint(_pad(g, None, y_dim, z_dim), "gt", 0, "ystar-strict-polar")
                 for g in K.generators if not K.contains(-g)]
        return rows
    raise ValueError(f"unknown target {target!r}")


def _grid_rows(points: Iterable[RationalVector], sy: int, ys: Iterable[Sequence[int]],
               sz: int, zs: Iterable[Sequence[int]], K: PolyhedralCone, D: PolyhedralCone,
               label: str) -> list[Constraint]:
    """Nonnegativity rows, with exact pruning and deduplication.

    The row at each point x is (cy / sy; cz / sz), for its int vectors cy
    of ys and cz of zs over the positive scales sy and sz.  Rows whose
    coefficient vectors lie in the primal cones are implied by the
    dual-cone constraints and are dropped; zero rows are trivially true;
    homogeneous rows equal up to positive scaling collapse to one.  All
    three tests read the ints, and each row kept becomes a ``Constraint``
    from its ints over lcm(sy, sz), labelled "<label> x=<x>" when read.
    """
    out: list[Constraint] = []
    seen: set[tuple[int, ...]] = set()
    common = math.lcm(sy, sz)
    fy, fz = common // sy, common // sz
    for x, cy, cz in zip(points, ys, zs):
        if not any(cy) and not any(cz):
            continue
        if all(_dot(a, cy) >= 0 for a in K.normals) and all(_dot(b, cz) >= 0 for b in D.normals):
            continue
        ints = [v * fy for v in cy] + [v * fz for v in cz]
        key = _int_primitive(ints)
        if key in seen:
            continue
        seen.add(key)
        out.append(Constraint(ints, "ge", 0, label, common, x))
    return out


# ---------------------------------------------------------------------------
# the convexlike alternative
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlternativeOutcome:
    kind: Status  # SOLUTION_EXISTS, MULTIPLIERS or GRID_GAP
    x: RationalVector | None = None
    certificate: MultiplierCertificate | None = None
    warnings: tuple[str, ...] = ()


def alternative_system(Fmap: VectorMap, Gmap: VectorMap, K: PolyhedralCone,
                       D: PolyhedralCone, C_grid: GridSpec) -> AlternativeOutcome:
    """Exactly one branch: a grid point with both values strictly negative,
    or nonzero dual multipliers with all scalarized grid values nonnegative.

    Convexlike falsification on the grid only warns; the search still runs,
    but a map and cone of different dimensions are refused there.  An
    infeasible multiplier system with no grid solution is surfaced as
    GridGap, which cannot happen when the strict system is insoluble over
    the whole convex domain rather than merely on the grid.  A K or D with
    empty interior is refused first, before any scan or table.
    """
    K_normals, D_normals = K.interior_normals(), D.interior_normals()
    warnings = []
    for vmap, cone, name in ((Fmap, K, "F"), (Gmap, D, "G")):
        verdict = check_convexlike(vmap, cone, C_grid)
        if verdict.falsified:
            x1, x2, lam = verdict.witness
            warnings.append(
                f"map {name} is not convexlike on the grid "
                f"(witness {x1}, {x2}, lambda={format_rational(lam)})")
    table = C_grid.table(Fmap.exception_points() + Gmap.exception_points())
    Ft, Gt = table.values(Fmap), table.values(Gmap)
    for x, fy, gy in zip(table.points, Ft.rows, Gt.rows):
        if all(_dot(a, fy) < 0 for a in K_normals) and all(_dot(b, gy) < 0 for b in D_normals):
            return AlternativeOutcome(Status.SOLUTION_EXISTS, x=x, warnings=tuple(warnings))
    rows = _grid_rows(table.points, Ft.scale, Ft.rows, Gt.scale, Gt.rows, K, D, "value-row")
    certificate = _solve_multipliers(_prefix(K, D), rows, K.dim)
    return AlternativeOutcome(Status.GRID_GAP if certificate is None else Status.MULTIPLIERS,
                              certificate=certificate, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# sufficient conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SufficientOutcome:
    kind: Status  # ALL_CANDIDATES_CERTIFIED or FAILED_FOR
    certificates: tuple[MultiplierCertificate, ...] = ()
    failed_T: LinearOperator | None = None
    failed_L: LinearOperator | None = None
    failed_correction: CorrectionPair | None = None

    @property
    def certified(self) -> bool:
        return self.kind == Status.ALL_CANDIDATES_CERTIFIED


def _check_inputs(candidates_T: Sequence[LinearOperator],
                  candidates_L: Sequence[LinearOperator], target: str, mode: str) -> None:
    if mode not in (MODE_CORRECTED, MODE_LEGACY):
        raise ValueError(f"unknown mode {mode!r}")
    if target not in (TARGET_WEAK, TARGET_PROPER):
        raise ValueError(f"unknown target {target!r}")
    if not candidates_T or not candidates_L:
        raise ValueError("candidate operator lists must be nonempty")


def _local_values(problem: DCProblem, U: NeighborhoodSpec, grid: GridSpec) -> tuple:
    """(table, positions, points, F(xbar), H(xbar)) for the certification
    points within U of xbar: the grid's tables hold F and H at every point,
    so no map is evaluated again whatever the candidates."""
    table = problem.certification_table(grid)
    local = table.within(problem.xbar, U.radius)
    points = problem.certification_points(grid)
    xbar = problem.xbar
    return (table, local, [points[i] for i in local],
            problem.F.evaluate(xbar), problem.H.evaluate(xbar))


def _subgradient_rows(problem: DCProblem, values: tuple, T: LinearOperator,
                      L: LinearOperator, eps: RationalVector | None = None) -> list[Constraint]:
    """Rows F(x) - F(xbar) - moved_y and H(x) - H(xbar) - moved_z over the
    local points, with moved_y = T(x - xbar) - eps and moved_z = L(x - xbar),
    formed as ints from the grid's tables."""
    table, local, points, F_base, H_base = values
    xbar = problem.xbar
    sy, ys = table.affine(problem.F, F_base, T.matrix,
                          eps if eps is not None else RationalVector.zero(problem.y_dim),
                          xbar, local)
    sz, zs = table.affine(problem.H, H_base, L.matrix, RationalVector.zero(problem.z_dim),
                          xbar, local)
    return _grid_rows(points, sy, ys, sz, zs, problem.K, problem.D, "subgradient-row")


def _zero_rows(first: int, count: int, width: int, label: str) -> list[Constraint]:
    """Unit equalities forcing the unknowns first .. first + count - 1 to zero."""
    return [Constraint(tuple(int(k == i) for k in range(width)), "eq", 0, label)
            for i in range(first, first + count)]


def sufficient_condition(problem: DCProblem,
                         candidates_T: Sequence[LinearOperator],
                         candidates_L: Sequence[LinearOperator],
                         corrections: Sequence[CorrectionPair] | None,
                         target: str, mode: str,
                         U: NeighborhoodSpec, grid: GridSpec) -> SufficientOutcome:
    """Certify the multiplier hypotheses for every candidate pair (and, in
    corrected mode, every correction pair), or report the first failure.

    Corrected mode subtracts the interior pair from the candidate operators,
    which is plain vector arithmetic only over a one-dimensional domain, so
    that mode requires x_dim = 1.  Legacy mode is the corrections-free
    variant and supports any domain dimension.
    """
    _check_inputs(candidates_T, candidates_L, target, mode)
    if mode == MODE_CORRECTED and problem.x_dim != 1:
        raise ValueError("corrected mode is defined for a one-dimensional domain only")
    if mode == MODE_CORRECTED:
        pairs: list[CorrectionPair | None] = list(
            corrections if corrections is not None
            else default_corrections(problem.K, problem.D))
        for p in pairs:
            CorrectionPair.checked(p.alpha, p.beta, problem.K, problem.D)
    else:
        pairs = [None]

    values = _local_values(problem, U, grid)
    comp_slack = problem.H.evaluate(problem.xbar) - problem.S.evaluate(problem.xbar)
    prefix = _prefix(problem.K, problem.D, comp_slack) + \
        _ystar_strict_rows(problem.K, problem.D, target)

    certificates = []
    for T in candidates_T:
        for L in candidates_L:
            for corr in pairs:
                if corr is None:
                    moved_T, moved_L = T, L
                else:
                    moved_T = LinearOperator.column((T.as_vector() - corr.alpha).coords)
                    moved_L = LinearOperator.column((L.as_vector() - corr.beta).coords)
                certificate = _solve_multipliers(
                    prefix, _subgradient_rows(problem, values, moved_T, moved_L), problem.y_dim)
                if certificate is None:
                    return SufficientOutcome(Status.FAILED_FOR, tuple(certificates),
                                             failed_T=T, failed_L=L,
                                             failed_correction=corr)
                certificates.append(certificate)
    return SufficientOutcome(Status.ALL_CANDIDATES_CERTIFIED, tuple(certificates))


# ---------------------------------------------------------------------------
# necessary conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NecessaryOutcome:
    kind: Status  # MULTIPLIERS or INFEASIBLE_ON_GRID
    certificate: MultiplierCertificate | None = None
    chosen_T: LinearOperator | None = None
    chosen_L: LinearOperator | None = None
    trace: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def necessary_condition(problem: DCProblem,
                        candidates_T: Sequence[LinearOperator],
                        candidates_L: Sequence[LinearOperator],
                        target: str, mode: str,
                        U: NeighborhoodSpec, grid: GridSpec) -> NecessaryOutcome:
    """Search the candidate pairs for a multiplier certificate.

    The scalarized subgradient rows quantify over the grid of U intersect C
    (the indicator term realized by domain restriction).  Legacy mode adds
    the complementarity equality.  The proper target tries the ystar = 0
    branch first, then the strict-polar branch.
    """
    _check_inputs(candidates_T, candidates_L, target, mode)

    warnings = []
    minimality = check_eps_weak_local_min(problem, U, grid)
    if not minimality.certified:
        warnings.append(
            f"base point is not certified weak-minimal on the grid "
            f"(witness {minimality.witness})")

    values = _local_values(problem, U, grid)
    y_dim, z_dim = problem.y_dim, problem.z_dim
    comp_slack = problem.H.evaluate(problem.xbar) - problem.S.evaluate(problem.xbar)
    prefix = _prefix(problem.K, problem.D, comp_slack if mode == MODE_LEGACY else None)
    branches = [[]] if target == TARGET_WEAK else [
        _zero_rows(0, y_dim, y_dim + z_dim, "ystar-zero"),
        _ystar_strict_rows(problem.K, problem.D, TARGET_PROPER)]
    for T in candidates_T:
        for L in candidates_L:
            grid_rows = _subgradient_rows(problem, values, T, L, problem.eps)
            for extra in branches:
                certificate = _solve_multipliers(prefix, extra + grid_rows, y_dim)
                if certificate is not None:
                    return NecessaryOutcome(Status.MULTIPLIERS, certificate=certificate,
                                            chosen_T=T, chosen_L=L, warnings=tuple(warnings))

    trace: list[str] = []
    if mode == MODE_LEGACY:
        # mechanized diagnosis for the shipped counterexample shape
        if cone_contains(problem.D, -comp_slack, strict=True):
            trace.append(
                "complementarity <zstar, (H-S)(xbar)> = 0 forces zstar = 0 "
                "(the constraint slack is strictly interior to -D)")
            z_zero = _zero_rows(y_dim, z_dim, y_dim + z_dim, "zstar-zero")
            grid_rows = _subgradient_rows(problem, values, candidates_T[0], candidates_L[0],
                                          problem.eps)
            diagnosis = _prefix(problem.K, problem.D)
            if all(_solve_multipliers(diagnosis, extra + z_zero + grid_rows, y_dim) is None
                   for extra in branches):
                trace.append(
                    "with zstar = 0 the subgradient rows admit no nonzero ystar: "
                    "ystar in K*\\{0} is impossible")
    if not trace:
        trace.append("multiplier system infeasible on the grid for every candidate pair")
    return NecessaryOutcome(Status.INFEASIBLE_ON_GRID, trace=tuple(trace), warnings=tuple(warnings))
