"""Subdifferential membership tests and 1-D interval computation.

A linear operator T belongs to the strong subdifferential of a map at xbar
when T(x - xbar) preceq_K map(x) - map(xbar) for every x; the eps variant
adds a +eps slack on the right.  Sets of operators are never enumerated:
the engines only need membership of supplied candidates, which a grid scan
falsifies with an exact witness or certifies on the grid.  In one dimension
the eps-subdifferential of a scalar function is an interval of difference
quotients and is computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cones import (
    DimensionMismatchError,
    PolyhedralCone,
    RationalVector,
    _dot,
    as_fraction,
    cone_contains,
)
from .problem import GridSpec, VectorMap
from .report import Status


@dataclass(frozen=True)
class LinearOperator:
    """Exact m x n rational matrix acting by matrix-vector product."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.matrix or not self.matrix[0]:
            raise ValueError("operator matrix must be nonempty")
        width = len(self.matrix[0])
        if any(len(row) != width for row in self.matrix):
            raise ValueError("ragged operator matrix")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int | str]]) -> "LinearOperator":
        return cls(tuple(tuple(as_fraction(v) for v in row) for row in rows))

    @classmethod
    def column(cls, values: Sequence[Fraction | int | str]) -> "LinearOperator":
        """Operator from a 1-D domain, given as its single column."""
        return cls(tuple((as_fraction(v),) for v in values))

    @property
    def out_dim(self) -> int:
        return len(self.matrix)

    @property
    def in_dim(self) -> int:
        return len(self.matrix[0])

    def apply(self, x: RationalVector) -> RationalVector:
        if x.dim != self.in_dim:
            raise DimensionMismatchError(f"operator in_dim {self.in_dim} vs vector dim {x.dim}")
        return RationalVector(tuple(
            sum((a * b for a, b in zip(row, x.coords)), Fraction(0))
            for row in self.matrix
        ))

    def as_vector(self) -> RationalVector:
        """For 1-D domains, the operator identified with its value column."""
        if self.in_dim != 1:
            raise ValueError("only operators with a 1-D domain identify with a vector")
        return RationalVector(tuple(row[0] for row in self.matrix))

    def __str__(self) -> str:
        from .cones import format_rational
        return "[" + "; ".join(
            " ".join(format_rational(v) for v in row) for row in self.matrix
        ) + "]"


@dataclass(frozen=True)
class SubdiffVerdict:
    """Grid verdict for a single candidate operator."""

    status: Status  # CERTIFIED_ON_GRID or FALSIFIED
    witness: RationalVector | None

    @property
    def certified(self) -> bool:
        return self.status == Status.CERTIFIED_ON_GRID


def strong_subdiff_contains(vmap: VectorMap, cone: PolyhedralCone, xbar: RationalVector,
                            T: LinearOperator, grid: GridSpec) -> SubdiffVerdict:
    """Check map(x) - map(xbar) - T(x - xbar) in cone for every grid x."""
    return eps_subdiff_contains(vmap, cone, xbar, T, RationalVector.zero(vmap.out_dim), grid)


def eps_subdiff_contains(vmap: VectorMap, cone: PolyhedralCone, xbar: RationalVector,
                         T: LinearOperator, eps: RationalVector, grid: GridSpec) -> SubdiffVerdict:
    """Check map(x) - map(xbar) - T(x - xbar) + eps in cone for every grid x;
    eps must be a cone member.  The differences are formed as ints from the
    grid's value table of the map (`PointTable.affine`) and tested by their
    pairings with the cone normals; only a witness is decoded."""
    if not cone_contains(cone, eps):
        raise ValueError("eps not in the ordering cone")
    if T.out_dim != vmap.out_dim or T.in_dim != vmap.in_dim:
        raise DimensionMismatchError("operator shape does not match the map")
    table = grid.table(vmap.exception_points() + [xbar])
    _, rows = table.affine(vmap, vmap.evaluate(xbar), T.matrix, eps, xbar, range(len(table)))
    for i, diff in enumerate(rows):
        if any(_dot(a, diff) < 0 for a in cone.normals):
            return SubdiffVerdict(Status.FALSIFIED, table.point(i))
    return SubdiffVerdict(Status.CERTIFIED_ON_GRID, None)


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval with optional open (unbounded) ends; lo > hi is empty."""

    lo: Fraction | None
    hi: Fraction | None

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def contains(self, t: Fraction) -> bool:
        if self.is_empty:
            return False
        if self.lo is not None and t < self.lo:
            return False
        if self.hi is not None and t > self.hi:
            return False
        return True


def scalar_eps_subdiff_interval(phi: VectorMap, xbar: Fraction | int | str,
                                eps: Fraction | int | str, grid: GridSpec) -> RationalInterval:
    """Grid-relative eps-subdifferential of a scalar function at xbar.

    The slopes t with t*(x - xbar) <= phi(x) - phi(xbar) + eps for all grid x
    form an interval: the upper end is the minimum difference quotient over
    grid points right of xbar, the lower end the maximum over points left of
    it.  A side with no grid points leaves that end unbounded (None).
    """
    if phi.in_dim != 1 or phi.out_dim != 1:
        raise ValueError("scalar interval computation needs a 1-D scalar map")
    xb = as_fraction(xbar)
    e = as_fraction(eps)
    if e < 0:
        raise ValueError("eps must be nonnegative")
    base_pt = RationalVector((xb,))
    if not grid.box.contains(base_pt):
        raise ValueError("grid interval must contain xbar")
    base = phi.evaluate(base_pt)[0]
    table = grid.table(phi.exception_points() + [base_pt])
    values = table.values(phi)
    lo: Fraction | None = None
    hi: Fraction | None = None
    for (x,), (y,) in zip(table.points, values.rows):
        if x == xb:
            continue
        quotient = (Fraction(y, values.scale) - base + e) / (x - xb)
        if x > xb:
            hi = quotient if hi is None else min(hi, quotient)
        else:
            lo = quotient if lo is None else max(lo, quotient)
    return RationalInterval(lo, hi)
