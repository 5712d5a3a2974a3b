"""Grid certification of eps-weak and eps-proper local Pareto minimality.

The base point is eps-weak locally minimal when no nearby feasible point
improves the DC objective by more than eps into the negative interior of the
ordering cone:

    F(x) - G(x) - (F(xbar) - G(xbar)) + eps  not in  -int K

for all feasible x in the neighborhood.  The proper variant replaces K by a
dilating cone K' whose interior swallows K minus its lineality space; the
existential over K' is sampled from a rational shear family

    K'_m = { y : y1 + m*y2 >= 0,  y2 + m*y1 >= 0 },   0 < m < 1,

which keeps every generator rational (rotation-based dilations would not)
and covers the two-dimensional nonnegative-orthant setting this toolkit
certifies.  "NotCertified" is therefore weaker than "not proper".

Both checks read F and G from the grid's value tables of the certification
points (`problem.PointTable`), and feasibility from flags that the same
tables give for H and S (`feasibility`), so each difference is an int vector
over one scale and each cone test compares its integer pairings with the
normals.  Only xbar is evaluated directly, and only a witness's difference
turns back into ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator

from .cones import PolyhedralCone, RationalVector, _cleared, _dot, as_fraction, nonnegative_orthant
from .problem import DCProblem, GridSpec, feasible_contains
from .report import Status

DEFAULT_SHEARS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
DEFAULT_RADIUS = Fraction(1, 2)


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Max-norm ball around the base point, intersected with C."""

    radius: Fraction

    def __post_init__(self) -> None:
        r = as_fraction(self.radius)
        if r <= 0:
            raise ValueError("neighborhood radius must be positive")
        object.__setattr__(self, "radius", r)

    def contains(self, x: RationalVector, center: RationalVector) -> bool:
        return (x - center).max_norm() <= self.radius


@dataclass(frozen=True)
class DilationFamily:
    """Shear parameters m in (0, 1) for the dilating cones K'_m."""

    shears: tuple[Fraction, ...] = DEFAULT_SHEARS

    def __post_init__(self) -> None:
        ms = tuple(as_fraction(m) for m in self.shears)
        if not ms:
            raise ValueError("dilation family must be nonempty")
        if any(not 0 < m < 1 for m in ms):
            raise ValueError("shear parameters must lie strictly between 0 and 1")
        object.__setattr__(self, "shears", ms)

    def cone(self, m: Fraction) -> PolyhedralCone:
        one = Fraction(1)
        return PolyhedralCone.from_halfspaces([
            RationalVector((one, m)),
            RationalVector((m, one)),
        ])


@dataclass(frozen=True)
class WeakMinVerdict:
    status: Status  # CERTIFIED_ON_GRID or FALSIFIED
    witness: RationalVector | None = None
    witness_value: RationalVector | None = None  # the offending difference vector
    checked: int = 0

    @property
    def certified(self) -> bool:
        return self.status == Status.CERTIFIED_ON_GRID


@dataclass(frozen=True)
class ProperMinVerdict:
    status: Status  # CERTIFIED_ON_GRID or NOT_CERTIFIED
    shear: Fraction | None = None
    checked: int = 0

    @property
    def certified(self) -> bool:
        return self.status == Status.CERTIFIED_ON_GRID


def feasibility(problem: DCProblem, grid: GridSpec) -> tuple[list[bool], bool]:
    """(flags, xbar_ok): the feasibility flag of each certification point, in
    list order, read from the grid's certification table the first time it
    is asked about the problem, and kept there.  H(x) - S(x) in -D is tested
    as a . (s*S_row - h*H_row) >= 0 for each normal a of D, over the lcm of
    the two scales, and x in C on the points.  `feasible_contains`
    decides xbar, and the table's flag there must agree (RuntimeError)."""
    table = problem.certification_table(grid)
    if id(problem) not in table.flags:
        H, S = table.values(problem.H), table.values(problem.S)
        scale = lcm(H.scale, S.scale)
        h, s = scale // H.scale, scale // S.scale
        diffs = ([s * v - h * u for u, v in zip(hs, ss)] for hs, ss in zip(H.rows, S.rows))
        flags = [all(_dot(a, d) >= 0 for a in problem.D.normals) and problem.C.contains(x)
                 for x, d in zip(problem.certification_points(grid), diffs)]
        ok = feasible_contains(problem, problem.xbar)
        at = table.position(problem.xbar)
        if at is not None and flags[at] != ok:
            raise RuntimeError(f"table and direct feasibility differ at xbar = {problem.xbar}")
        table.flags[id(problem)] = (problem, flags, ok)
    return table.flags[id(problem)][1:]


def _objective_rows(problem: DCProblem, U: NeighborhoodSpec,
                    grid: GridSpec) -> tuple[int, Iterator[tuple[int, list[int]]]]:
    """(M, rows): for each feasible certification point within U of xbar,
    in list order, its position and M * (F(x) - G(x) - (F - G)(xbar) + eps)
    as ints, read from the grid's tables; M > 0 is one common scale."""
    table = problem.certification_table(grid)
    F, G = table.values(problem.F), table.values(problem.G)
    scale, offsets = _cleared((problem.eps - problem.objective(problem.xbar)).coords,
                              F.scale, G.scale)
    f, g = scale // F.scale, scale // G.scale
    flags = feasibility(problem, grid)[0]
    local = [i for i in table.within(problem.xbar, U.radius) if flags[i]]
    return scale, ((i, [f * a - g * b + c for a, b, c in zip(F.rows[i], G.rows[i], offsets)])
                   for i in local)


def check_eps_weak_local_min(problem: DCProblem, U: NeighborhoodSpec,
                             grid: GridSpec) -> WeakMinVerdict:
    """Certify on the grid, or falsify with the exact witness point and its
    objective difference vector.  The difference is in -int K exactly when
    each of its integer pairings with the normals of K is negative, so a K
    with empty interior is refused before any work."""
    normals = problem.K.interior_normals()
    scale, rows = _objective_rows(problem, U, grid)
    checked = 0
    for i, diff in rows:
        checked += 1
        if all(_dot(a, diff) < 0 for a in normals):
            witness = problem.certification_table(grid).points[i]
            value = RationalVector(tuple(Fraction(v, scale) for v in diff))
            return WeakMinVerdict(Status.FALSIFIED, witness, value, checked)
    return WeakMinVerdict(Status.CERTIFIED_ON_GRID, checked=checked)


def check_eps_proper_local_min(problem: DCProblem, U: NeighborhoodSpec,
                               family: DilationFamily, grid: GridSpec) -> ProperMinVerdict:
    """Certify with the first shear parameter whose dilated cone works.

    Supported only for a two-dimensional objective space ordered by the
    nonnegative orthant, where the shear family is available in exact
    rational arithmetic.
    """
    if problem.y_dim != 2 or problem.K != nonnegative_orthant(2):
        raise ValueError("proper-minimality certification supports y_dim=2 with "
                         "the nonnegative orthant ordering cone only")
    _, rows = _objective_rows(problem, U, grid)
    diffs = [diff for _, diff in rows]
    for m in family.shears:
        # -d is interior to the dilated cone unless some pairing of d is >= 0
        normals = family.cone(m).normals
        if all(any(_dot(a, d) >= 0 for a in normals) for d in diffs):
            return ProperMinVerdict(Status.CERTIFIED_ON_GRID, shear=m, checked=len(diffs))
    return ProperMinVerdict(Status.NOT_CERTIFIED, checked=len(diffs))
