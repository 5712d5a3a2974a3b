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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cones import PolyhedralCone, RationalVector, as_fraction, cone_contains, nonnegative_orthant
from .problem import DCProblem, GridSpec, feasible_contains

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
    status: str  # "CertifiedOnGrid" | "Falsified"
    witness: RationalVector | None = None
    witness_value: RationalVector | None = None  # the offending difference vector
    checked: int = 0

    @property
    def certified(self) -> bool:
        return self.status == "CertifiedOnGrid"


@dataclass(frozen=True)
class ProperMinVerdict:
    status: str  # "CertifiedOnGrid" | "NotCertified"
    shear: Fraction | None = None
    checked: int = 0

    @property
    def certified(self) -> bool:
        return self.status == "CertifiedOnGrid"


def _local_points(problem: DCProblem, U: NeighborhoodSpec, grid: GridSpec) -> list[RationalVector]:
    return [x for x in problem.certification_points(grid)
            if U.contains(x, problem.xbar)]


def _local_feasible_points(problem: DCProblem, U: NeighborhoodSpec, grid: GridSpec):
    return (x for x in _local_points(problem, U, grid) if feasible_contains(problem, x))


def check_eps_weak_local_min(problem: DCProblem, U: NeighborhoodSpec,
                             grid: GridSpec) -> WeakMinVerdict:
    """Certify on the grid, or falsify with the exact witness point and its
    objective difference vector."""
    base = problem.objective(problem.xbar)
    checked = 0
    for x in _local_feasible_points(problem, U, grid):
        checked += 1
        diff = problem.objective(x) - base + problem.eps
        if cone_contains(problem.K, -diff, strict=True):
            return WeakMinVerdict("Falsified", x, diff, checked)
    return WeakMinVerdict("CertifiedOnGrid", checked=checked)


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
    base = problem.objective(problem.xbar)
    diffs = []
    for x in _local_feasible_points(problem, U, grid):
        diffs.append(problem.objective(x) - base + problem.eps)
    for m in family.shears:
        dilated = family.cone(m)
        if all(not cone_contains(dilated, -d, strict=True) for d in diffs):
            return ProperMinVerdict("CertifiedOnGrid", shear=m, checked=len(diffs))
    return ProperMinVerdict("NotCertified", checked=len(diffs))
