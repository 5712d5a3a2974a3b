"""DC problem model: polynomial vector maps, box constraint sets, exact grids.

The problem template is

    K-Min  F(x) - G(x)
    s.t.   x in C,  H(x) - S(x) in -D,

with F, G ordered by a cone K in the objective space and H, S ordered by a
cone D in the constraint space.  Maps are multivariate polynomials over Q
per output coordinate, plus a finite list of exceptional points whose values
override the polynomial exactly.  The override list is what lets a map take
a different value at a single point, which is the shape several instructive
instances need.

Convexity and convexlikeness are certified by sampling: the verdicts are
grid-relative ("NotFalsified", never "Proved"), and a Falsified verdict
always carries an exact witness that re-checks by direct evaluation.

A `GridSpec` keeps, for as long as it lives, what its points determine:
each point list as its `PointTable`, which indexes the points on an integer
lattice, decodes them once and holds each map as integers over one
positive scale at every point, evaluated once per point.  Every engine
reads those tables: the convexity scans (`_Lattice`) by packed key on the
lattice of their lambdas, every other engine by position, dissipativity on
its ball grids; only this module makes polynomials integer.
`VectorMap.evaluate` serves only single points: the base point (also in
`feasible_contains`, which cross-checks the table's flags), witnesses and
library callers.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, reduce
from fractions import Fraction
from math import floor, gcd, lcm, prod
from operator import and_, mul
from typing import Callable, Iterable, Iterator, Sequence

from .cones import (
    DimensionMismatchError,
    PolyhedralCone,
    RationalVector,
    _cleared,
    as_fraction,
    cone_contains,
)
from .report import Status

# one monomial: (exponent tuple, coefficient)
Monomial = tuple[tuple[int, ...], Fraction]
# a polynomial with int coefficients, as its monomials
IntPoly = list[tuple[tuple[int, ...], int]]

DEFAULT_LAMBDAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _eval_poly(monomials: Sequence[Monomial], x: Sequence[Fraction]) -> Fraction:
    """Exact value, summed as an int numerator over the lcm of the term
    denominators, with one reduction at the end."""
    num, den = 0, 1
    for exponents, coeff in monomials:
        n, d = coeff.numerator, coeff.denominator
        for xi, e in zip(x, exponents):
            if e:
                n *= xi.numerator ** e
                d *= xi.denominator ** e
        g = gcd(den, d)
        num = num * (d // g) + n * (den // g)
        den *= d // g
    return Fraction(num, den)


def _int_polys(polys: Sequence[Sequence[Monomial]], dens: Sequence[int],
               extra_dens: Iterable[int] = ()) -> tuple[int, list[IntPoly]]:
    """(scale, polys): scale times each polynomial, as an integer polynomial
    in the numerators X_d of the coordinates X_d / dens[d].  The scale is
    the least positive int that makes every coefficient integral and is a
    multiple of every one of extra_dens."""
    monomial_dens = [[coeff.denominator * prod(den ** e for den, e in zip(dens, exponents))
                      for exponents, coeff in monos] for monos in polys]
    scale = lcm(*(den for row in monomial_dens for den in row), *extra_dens)
    return scale, [[(exponents, coeff.numerator * (scale // den))
                    for (exponents, coeff), den in zip(monos, row)]
                   for monos, row in zip(polys, monomial_dens)]


def _int_eval(polys: Sequence[IntPoly], xs: Sequence[int]) -> list[int]:
    out = []
    for poly in polys:
        total = 0
        for exponents, c in poly:
            total += c * prod(map(pow, xs, exponents))
        out.append(total)
    return out


@dataclass(frozen=True)
class VectorMap:
    """Polynomial map Q^in_dim -> Q^out_dim with exceptional-point overrides."""

    in_dim: int
    out_dim: int
    coords: tuple[tuple[Monomial, ...], ...]
    exceptions: tuple[tuple[RationalVector, RationalVector], ...] = ()

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("map dimensions must be positive")
        if len(self.coords) != self.out_dim:
            raise ValueError("one monomial list per output coordinate is required")
        for monos in self.coords:
            for exponents, _ in monos:
                if len(exponents) != self.in_dim:
                    raise ValueError("exponent tuple length must equal in_dim")
        pts = [p.coords for p, _ in self.exceptions]
        if len(set(pts)) != len(pts):
            raise ValueError("exception points must be pairwise distinct")
        for p, v in self.exceptions:
            if p.dim != self.in_dim or v.dim != self.out_dim:
                raise DimensionMismatchError("exception point/value dimension mismatch")

    @classmethod
    def from_coeffs(cls, in_dim: int, out_dim: int,
                    coords: Sequence[Sequence[tuple[Sequence[int], Fraction | int | str]]],
                    exceptions: Sequence[tuple[RationalVector, RationalVector]] = ()) -> "VectorMap":
        packed = tuple(
            tuple((tuple(int(e) for e in exps), as_fraction(c)) for exps, c in monos)
            for monos in coords
        )
        return cls(in_dim, out_dim, packed, tuple(exceptions))

    @classmethod
    def zero(cls, in_dim: int, out_dim: int) -> "VectorMap":
        return cls(in_dim, out_dim, tuple(() for _ in range(out_dim)))

    def evaluate(self, x: RationalVector) -> RationalVector:
        """Exact evaluation; exceptional points override the polynomial."""
        if x.dim != self.in_dim:
            raise DimensionMismatchError(f"point dim {x.dim} vs map in_dim {self.in_dim}")
        for point, value in self.exceptions:
            if point.coords == x.coords:
                return value
        return RationalVector(tuple(_eval_poly(monos, x.coords) for monos in self.coords))

    def partial(self, coord: int, var: int) -> tuple[Monomial, ...]:
        """Exact partial derivative of the polynomial part of one coordinate."""
        out: list[Monomial] = []
        for exponents, coeff in self.coords[coord]:
            e = exponents[var]
            if e == 0:
                continue
            new_exp = list(exponents)
            new_exp[var] = e - 1
            out.append((tuple(new_exp), coeff * e))
        return tuple(out)

    def exception_points(self) -> list[RationalVector]:
        return [p for p, _ in self.exceptions]


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box in Q^n, the convex constraint set C."""

    lower: RationalVector
    upper: RationalVector

    def __post_init__(self) -> None:
        if self.lower.dim != self.upper.dim:
            raise DimensionMismatchError("box bound dimension mismatch")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("box lower bound exceeds upper bound")

    @classmethod
    def ball(cls, center: RationalVector, radius: Fraction) -> "BoxSet":
        """The max-norm ball of the radius around the center."""
        return cls(RationalVector(tuple(c - radius for c in center.coords)),
                   RationalVector(tuple(c + radius for c in center.coords)))

    @property
    def dim(self) -> int:
        return self.lower.dim

    def contains(self, x: RationalVector) -> bool:
        if x.dim != self.dim:
            raise DimensionMismatchError(f"point dim {x.dim} vs box dim {self.dim}")
        return all(lo <= xi <= hi for lo, xi, hi in zip(self.lower, x, self.upper))

    def intersect(self, other: "BoxSet") -> "BoxSet":
        lo = RationalVector(tuple(max(a, b) for a, b in zip(self.lower, other.lower)))
        hi = RationalVector(tuple(min(a, b) for a, b in zip(self.upper, other.upper)))
        return BoxSet(lo, hi)


class _LatticeMap:
    """One map on one point table, as integers: scale * map(x) at each
    fine key of the table's lattice, with one positive scale for the whole
    lattice.

    The map's polynomials become integer polynomials in the numerators
    base_d + K_d*unit_d of the fine coordinates, and the values of its
    exceptional points in the box override them at their keys.  `_row`
    says what a value becomes in the tables of a subclass.
    """

    def __init__(self, vmap: VectorMap, table: PointTable) -> None:
        self._axes = table.axes
        self.scale, self._polys = _int_polys(
            vmap.coords, table.dens, (v.denominator for _, value in vmap.exceptions for v in value))
        q, extra = table.q, table.extra_keys
        self._overrides = {q * extra[p.coords]: [int(v * self.scale) for v in value]
                           for p, value in vmap.exceptions if p.coords in extra}

    def _row(self, ys: Sequence[int]) -> tuple[int, ...]:
        return tuple(ys)

    def _poly_at(self, key: int) -> list[int]:
        """scale * map(x) by the polynomial at a fine key; see `PointTable`."""
        return _int_eval(self._polys, [base + key // stride % radix * unit
                                       for base, unit, stride, radix in self._axes])

    def _ys(self, key: int) -> list[int]:
        ys = self._overrides.get(key)
        return self._poly_at(key) if ys is None else ys

    def _tabulate_line(self, bound: int) -> list[list[int]] | None:
        """The rows at keys 0 .. size-1 of the fine lattice, one list per
        entry of a row, when it is a line (at most one radix is above 1) of
        size at most bound; None otherwise.

        Along the line each entry is a polynomial in the key of at most the
        degree d of the map in the varying coordinate, with integer values.
        It is evaluated directly at keys 0 .. d, and every further value
        comes from its forward-difference table by d integer additions (the
        method of differences; Knuth, TAOCP vol. 2, 4.6.4).  On a line of
        size at most d, the table of degree size - 1 through the keys it
        has is exact.  Exceptional keys then override their single values.
        """
        radices = [radix for *_, radix in self._axes]
        size = prod(radices)
        if sum(radix > 1 for radix in radices) > 1 or size > bound:
            return None
        degree = max((e for poly in self._polys for exponents, _ in poly
                      for e, radix in zip(exponents, radices) if radix > 1), default=0)
        d = min(degree, size - 1)
        rows = [self._row(self._poly_at(key)) for key in range(d + 1)]
        # the forward differences of orders 0 .. d at key 0
        heads = []
        while rows:
            heads.append(rows[0])
            rows = [tuple(b - a for a, b in zip(r, s)) for r, s in zip(rows, rows[1:])]
        columns = []
        for head in zip(*heads):
            # row m of the table is the running sum of row m + 1 from head[m]
            column = [head[-1]] * size
            for start in reversed(head[:-1]):
                column = list(itertools.accumulate(column[:-1], initial=start))
            columns.append(column)
        for key, ys in self._overrides.items():
            for column, value in zip(columns, self._row(ys)):
                column[key] = value
        return columns


class _MapTable(_LatticeMap):
    """scale * map(x) as ints at every point of one point table, in list
    order (`rows`).

    When the fine lattice is a line of at most twice as many keys as
    points, it is tabulated by differences; otherwise each point is
    evaluated by the polynomial.
    """

    def __init__(self, vmap: VectorMap, table: PointTable) -> None:
        super().__init__(vmap, table)
        q, keys = table.q, table.keys
        columns = self._tabulate_line(2 * len(keys))
        if columns is None:
            self.rows = [self._row(self._ys(q * key)) for key in keys]
        else:
            line = list(zip(*columns))
            self.rows = [line[q * key] for key in keys]


class PointTable:
    """One point list of a grid on the lattice q times finer than its
    coarse lattice, and its integer value tables.

    Every listed point is lo + k*h for an integer index vector k, where
    each axis step h is the rational gcd of the grid step and the offsets
    of the extra points from lo; grid points are lo + k*step by
    construction, so only the extra points need a gcd.  With every lambda
    written w/q, the combination lam*x_i + (1-lam)*x_j has index
    w*k_i + (q-w)*k_j on the fine lattice lo + K*h/q.  Index vectors are
    packed into one int by a mixed radix wide enough for the fine lattice;
    the packing is linear and order-preserving, and a convex combination
    never leaves the box, so combinations can be formed on the packed
    keys.  q is the lcm of the lambda denominators for the convexity scans
    (`_Lattice`) and 1 for every other engine.

    The table hides its packed keys behind positions 0 .. len - 1, in list
    order; the point at position i sits at fine key q * keys[i].  `points`
    decodes the whole list the first time it is asked for, `point(i)` one
    point, and `position` finds a listed extra point.  `offsets(center)`
    holds c * (x - center) as ints at every point, once per center, for
    `within` and `affine`.  `values(vmap)` holds scale * vmap(x) as ints
    at every point, one positive scale per map, computed the first time a
    map is asked for: each map is evaluated at most once per point, and
    exceptional values override.  The engines compare integer pairings of
    these rows with the cone normals; only witnesses and the LP rows that
    survive pruning turn back into Fractions.  `flags` keeps, per problem
    whose certification list this is, the feasibility flag of every point,
    in list order, and that of xbar (`pareto.feasibility`).
    Maps and problems are keyed by identity, and each entry keeps its key
    object alive, so no key is reused while the table lives.
    """

    def __init__(self, keys: list[int], axes: list[tuple[int, int, int, int]], dens: list[int],
                 extra_keys: dict[tuple[Fraction, ...], int], q: int) -> None:
        # packed coarse key per point, ascending, so in lexicographic point order
        self.keys = keys
        # fine-lattice coordinate x_d = (base_d + K_d*unit_d) / den_d with the
        # digit K_d = key // stride % radix; one (base, unit, stride, radix) per
        # axis.  `_columns` and `_LatticeMap._poly_at` inline the digit, so a
        # change to the packing changes both
        self.axes, self.dens = axes, dens
        # packed coarse key of each extra point in the box
        self.extra_keys = extra_keys
        self.q = q
        self._maps: dict[int, tuple[VectorMap, _MapTable]] = {}
        self._offsets: dict[tuple[Fraction, ...], tuple[int, list[tuple[int, ...]]]] = {}
        self.flags: dict[int, tuple[DCProblem, list[bool], bool]] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def _columns(self, keys: Sequence[int], value: Callable[[int, int], object]) -> Iterator[tuple]:
        """value(d, n) along each axis d for the point at each coarse key,
        with n = base_d + K_d*unit_d its fine numerator, computed once per
        distinct digit; one tuple per point."""
        columns = []
        for d, (base, unit, stride, radix) in enumerate(self.axes):
            ks = [self.q * key // stride % radix for key in keys]
            values = {k: value(d, base + k * unit) for k in set(ks)}
            columns.append(map(values.__getitem__, ks))
        return zip(*columns)

    def _decode(self, keys: Sequence[int]) -> list[RationalVector]:
        """The points at packed coarse keys, one Fraction per distinct coordinate."""
        dens = self.dens
        return [RationalVector(c) for c in self._columns(keys, lambda d, n: Fraction(n, dens[d]))]

    @cached_property
    def points(self) -> list[RationalVector]:
        return self._decode(self.keys)

    def point(self, i: int) -> RationalVector:
        """The point at position i, decoded alone."""
        return self._decode([self.keys[i]])[0]

    def position(self, x: RationalVector) -> int | None:
        """The position of a listed extra point (xbar or an exceptional
        point in the box), or None."""
        key = self.extra_keys.get(x.coords)
        return None if key is None else bisect_left(self.keys, key)

    def offsets(self, center: RationalVector) -> tuple[int, list[tuple[int, ...]]]:
        """(c, rows): c * (x - center) as ints for the point x at each
        position, with c > 0 the lcm of the axes' dens and the center's own
        denominators, so the center may lie off the lattice or outside the
        box.  Computed once per center."""
        hit = self._offsets.get(center.coords)
        if hit is None:
            dens = self.dens
            c, at = _cleared(center.coords, *dens)
            rows = list(self._columns(self.keys, lambda d, n: n * (c // dens[d]) - at[d]))
            hit = self._offsets[center.coords] = (c, rows)
        return hit

    def values(self, vmap: VectorMap) -> _MapTable:
        hit = self._maps.get(id(vmap))
        if hit is None:
            if vmap.in_dim != len(self.axes):
                raise DimensionMismatchError(
                    f"point dim {len(self.axes)} vs map in_dim {vmap.in_dim}")
            hit = self._maps[id(vmap)] = (vmap, _MapTable(vmap, self))
        return hit[1]

    def within(self, center: RationalVector, radius: Fraction) -> list[int]:
        """The positions of the points x with max-norm |x - center| <=
        radius: an integer bound on their offsets."""
        c, rows = self.offsets(center)
        bound = floor(radius * c)
        return [i for i, row in enumerate(rows) if max(map(abs, row)) <= bound]

    def affine(self, vmap: VectorMap, base: RationalVector, matrix: Sequence[Sequence[Fraction]],
               shift: RationalVector, center: RationalVector,
               positions: Iterable[int]) -> tuple[int, Iterator[list[int]]]:
        """(M, rows): M * (vmap(x) - base - A(x - center) + shift) as ints,
        lazily, for the point x at each position, with A the matrix, base
        the value vmap(center) and M > 0 the least common scale.

        With the offsets o = c * (x - center) each entry is (M/scale) *
        table value - sum_d (M*A_rd/c) * o_d + M*(shift_r - base_r), all
        integers.
        """
        table = self.values(vmap)
        if len(matrix) != vmap.out_dim or any(len(row) != vmap.in_dim for row in matrix):
            raise DimensionMismatchError("operator shape does not match the map")
        c, offsets = self.offsets(center)
        m, n = vmap.out_dim, vmap.in_dim
        scale, ints = _cleared([s - b for b, s in zip(base, shift)]
                               + [Fraction(a, c) for row in matrix for a in row], table.scale)
        f = scale // table.scale
        consts, slopes = ints[:m], [ints[at:at + n] for at in range(m, len(ints), n)]
        rows = table.rows
        return scale, ([f * y - sum(map(mul, coeffs, offsets[i])) + k
                        for y, coeffs, k in zip(rows[i], slopes, consts)] for i in positions)


@dataclass(frozen=True)
class GridSpec:
    """Exact rational grid: affine subdivisions of a box, points per axis.

    Point k of an axis is Fraction(base + k*unit, den), where base/den is
    the lower bound and unit/den the step.  A point list, keyed by the
    extra points that fall inside the box, is built only as its
    `PointTable` (`table`), once per q, and kept for as long as the
    instance lives; so are the ball grids built from this one (`ball`).
    Nothing is kept past the instance.
    """

    box: BoxSet
    points_per_axis: int
    _tables: dict[tuple[frozenset, int], PointTable] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _balls: dict[tuple, GridSpec] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be at least 2")

    def _axis(self, axis: int) -> tuple[int, int, int]:
        """(base, unit, den) with lower bound base/den and step unit/den;
        unit is 0 when the box is flat along the axis."""
        lo = self.box.lower[axis]
        step = (self.box.upper[axis] - lo) / (self.points_per_axis - 1)
        den, (base, unit) = _cleared((lo, step))
        return base, unit, den

    def axis_points(self, axis: int) -> list[Fraction]:
        base, unit, den = self._axis(axis)
        if not unit:
            return [Fraction(base, den)]
        return [Fraction(base + k * unit, den) for k in range(self.points_per_axis)]

    def points(self, extra: Iterable[RationalVector] = ()) -> list[RationalVector]:
        """All grid points in lexicographic order, merged with any extra
        points that fall inside the box (exceptional points, base points):
        a copy of the list its `table` decodes."""
        return list(self.table(extra).points)

    def table(self, extra: Iterable[RationalVector], q: int = 1) -> PointTable:
        """The `PointTable` of `points(extra)` on the lattice q times finer
        than its coarse lattice; built the first time it is asked for."""
        inside = frozenset(p.coords for p in extra
                           if p.dim == self.box.dim and self.box.contains(p))
        table = self._tables.get((inside, q))
        if table is None:
            table = self._tables[inside, q] = self._build_table(inside, q)
        return table

    def ball(self, center: RationalVector, radius: Fraction) -> GridSpec:
        """The grid with these points per axis on the max-norm ball of the
        radius around the center; built the first time it is asked for, so
        every scan of that ball shares its tables."""
        key = (center.coords, radius)
        grid = self._balls.get(key)
        if grid is None:
            grid = self._balls[key] = GridSpec(BoxSet.ball(center, radius), self.points_per_axis)
        return grid

    def _build_table(self, inside: frozenset, q: int) -> PointTable:
        lower = self.box.lower.coords
        coarse, axis_keys, radices = [], [], []
        for axis, lo in enumerate(lower):
            base, unit, den = self._axis(axis)
            step = Fraction(unit, den) if unit else Fraction(1)
            h = step
            for c in inside:
                h = _rational_gcd(h, c[axis] - lo)
            ratio = int(step / h)
            last = (self.points_per_axis - 1) * ratio if unit else 0
            coarse.append(h)
            axis_keys.append(range(0, last + 1, ratio))
            radices.append(q * last + 1)
        strides = [prod(radices[axis + 1:]) for axis in range(len(radices))]
        keys = [0]
        for ks, stride in zip(axis_keys, strides):
            keys = [key + k * stride for key in keys for k in ks]
        extra_keys = {c: sum(int((x - lo) / h) * stride
                             for x, lo, h, stride in zip(c, lower, coarse, strides))
                      for c in inside}
        axes, dens = [], []
        for lo, h, stride, radix in zip(lower, coarse, strides, radices):
            den, (base, unit) = _cleared((lo, h / q))
            axes.append((base, unit, stride, radix))
            dens.append(den)
        return PointTable(sorted({*keys, *extra_keys.values()}), axes, dens, extra_keys, q)


@dataclass(frozen=True)
class DCProblem:
    """A full problem instance: spaces, the four maps, cones, C, eps, xbar."""

    x_dim: int
    y_dim: int
    z_dim: int
    F: VectorMap
    G: VectorMap
    H: VectorMap
    S: VectorMap
    C: BoxSet
    K: PolyhedralCone
    D: PolyhedralCone
    eps: RationalVector
    xbar: RationalVector

    def __post_init__(self) -> None:
        checks = [
            (self.F, self.y_dim, "F"), (self.G, self.y_dim, "G"),
            (self.H, self.z_dim, "H"), (self.S, self.z_dim, "S"),
        ]
        for vmap, out_dim, name in checks:
            if vmap.in_dim != self.x_dim or vmap.out_dim != out_dim:
                raise DimensionMismatchError(f"map {name} has inconsistent dimensions")
        if self.C.dim != self.x_dim:
            raise DimensionMismatchError("constraint set C dimension mismatch")
        if self.K.dim != self.y_dim or self.D.dim != self.z_dim:
            raise DimensionMismatchError("cone dimension mismatch")
        if self.eps.dim != self.y_dim:
            raise DimensionMismatchError("eps dimension mismatch")
        if not cone_contains(self.K, self.eps):
            raise ValueError("eps not in K")
        if self.xbar.dim != self.x_dim:
            raise DimensionMismatchError("xbar dimension mismatch")
        if not self.C.contains(self.xbar):
            raise ValueError("xbar not in C")

    def objective(self, x: RationalVector) -> RationalVector:
        return self.F.evaluate(x) - self.G.evaluate(x)

    def constraint(self, x: RationalVector) -> RationalVector:
        return self.H.evaluate(x) - self.S.evaluate(x)

    def exception_points(self) -> list[RationalVector]:
        pts: list[RationalVector] = []
        for vmap in (self.F, self.G, self.H, self.S):
            pts.extend(vmap.exception_points())
        return pts

    def certification_points(self, grid: GridSpec) -> list[RationalVector]:
        """Grid points merged with xbar and all exceptional points in C."""
        return grid.points(extra=self.exception_points() + [self.xbar])

    def certification_table(self, grid: GridSpec) -> PointTable:
        """The value tables of `certification_points(grid)`."""
        return grid.table(self.exception_points() + [self.xbar])


def feasible_contains(problem: DCProblem, x: RationalVector) -> bool:
    """x in C and H(x) - S(x) in -D, both exact."""
    if x.dim != problem.x_dim:
        raise DimensionMismatchError(f"point dim {x.dim} vs x_dim {problem.x_dim}")
    if not problem.C.contains(x):
        return False
    return cone_contains(problem.D, -problem.constraint(x))


@dataclass(frozen=True)
class ConvexityVerdict:
    """Grid-relative verdict; Falsified carries the exact witness triple."""

    status: Status  # NOT_FALSIFIED or FALSIFIED
    witness: tuple[RationalVector, RationalVector, Fraction] | None = None

    @property
    def falsified(self) -> bool:
        return self.status == Status.FALSIFIED


def _pair_lambdas(lambdas: Sequence[Fraction]) -> list[Fraction]:
    lams = [as_fraction(l) for l in lambdas]
    for lam in lams:
        if not 0 < lam < 1:
            raise ValueError("lambda values must lie strictly between 0 and 1")
    return lams


def _rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Largest rational g such that a/g and b/g are both integers."""
    return Fraction(gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


def _at_least(row: Sequence[int], other: Sequence[int]) -> bool:
    return all(x >= y for x, y in zip(row, other))


class _Lattice(_LatticeMap):
    """Integer values of one map over one grid, shared by both convexity
    scans.

    The packed keys and fine axes come from the grid's `PointTable` for
    the q of the lambdas (`GridSpec.table`), which every map on the grid
    with the same in-box exceptional points and the same q shares.  The
    map is evaluated at most once per fine point reached, in a lazy memo.
    Its values are paired with every cone halfspace normal (primitive
    integer vectors) and scaled by one common denominator D of all map
    values on the fine lattice, so each point carries one int per halfspace
    and every cone inequality becomes an integer comparison.  Exceptional
    points in the box are scanned points, so their overrides are keyed by
    fine key like any other value.  Only a witness pair is decoded into
    points, by the table.

    When the scanned points vary along at most one axis, the fine lattice
    is one line whose packed keys are 0, 1, ...; `line` tabulates it by
    finite differences, both scans read their values from it, and
    `convex_on_line` walks it in order instead of visiting pairs.
    """

    def __init__(self, vmap: VectorMap, cone: PolyhedralCone, grid: GridSpec,
                 lambdas: Sequence[Fraction]) -> None:
        if vmap.out_dim != cone.dim:
            raise DimensionMismatchError("map and cone dimensions differ")
        self.lams = _pair_lambdas(lambdas)
        self.q = lcm(*(lam.denominator for lam in self.lams))
        self.table = grid.table(vmap.exception_points(), self.q)
        super().__init__(vmap, self.table)
        self.keys = self.table.keys
        self.normals = cone.normals
        lam_set = set(self.lams)
        # (lam, w, mirrored) in list order; mirrored when 1 - lam is not listed
        self._plan = [(lam, int(lam * self.q), (1 - lam) not in lam_set) for lam in self.lams]
        self._memo: dict[int, tuple[int, ...]] = {}

    @cached_property
    def values(self) -> list[tuple[int, ...]]:
        """The values of the scanned points, in point order; on a line they
        are read from its table."""
        self.line  # tabulating a line fills the memo
        return [self.value(self.q * key) for key in self.keys]

    @cached_property
    def line(self) -> list[list[int]] | None:
        """The whole fine lattice by `_tabulate_line`, one list per
        halfspace normal and also stored in the memo, when it is a line
        that is not longer than the scan: at most the number of (pair,
        lambda, orientation) tests.  None otherwise."""
        n = len(self.keys)
        columns = self._tabulate_line(n * (n - 1) // 2 * sum(1 + m for *_, m in self._plan))
        if columns is not None:
            self._memo.update(enumerate(zip(*columns)))
        return columns

    def _row(self, ys: Sequence[int]) -> tuple[int, ...]:
        """D * <a, map(x)> for each halfspace normal a."""
        return tuple(sum(ai * yi for ai, yi in zip(a, ys)) for a in self.normals)

    def value(self, key: int) -> tuple[int, ...]:
        """The pairings at packed fine key."""
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._row(self._ys(key))
        return hit

    def pairs(self):
        """(a, b, lam, w) with lam = w/q, in scan order: index pairs i < j
        in lexicographic order, each lambda in list order, and the mirrored
        orientation (j, i) right after (i, j) when 1 - lam is not itself
        listed.  Pairs i == j are skipped: their combination is the point
        itself, which can falsify neither check."""
        n = len(self.keys)
        for i in range(n):
            for j in range(i + 1, n):
                for lam, w, mirrored in self._plan:
                    yield i, j, lam, w
                    if mirrored:
                        yield j, i, lam, w

    def convex_on_line(self) -> bool:
        """True when no cone-convexity test of `pairs` can fail, shown by
        second differences along the fine line (Murota, Discrete Convex
        Analysis, 2003).

        It applies when the fine lattice is tabulated as a `line`.  If every
        halfspace pairing s has s(k-1) + s(k+1) >= 2 s(k) along the line,
        its piecewise-linear interpolant is convex and equals s at every
        fine key.  A test reads s at the fine keys A, B of two scanned
        points and at the fine key m = (w*A + (q-w)*B)/q, so
        q*s(m) <= w*s(A) + (q-w)*s(B) and the test holds.  When the walk
        finds a negative second difference, the pair scan reads the same
        table.
        """
        columns = self.line
        return columns is not None and all(
            b + a >= 2 * h for column in columns for b, h, a in zip(column, column[1:], column[2:]))

    def witness(self, a: int, b: int, lam: Fraction) -> ConvexityVerdict:
        return ConvexityVerdict(Status.FALSIFIED, (self.table.point(a), self.table.point(b), lam))


def check_cone_convex(vmap: VectorMap, cone: PolyhedralCone, grid: GridSpec,
                      lambdas: Sequence[Fraction] = DEFAULT_LAMBDAS) -> ConvexityVerdict:
    """Falsify the convexity inequality over all grid pairs and lambdas.

    Tests map(lam*x1 + (1-lam)*x2) preceq_cone lam*map(x1) + (1-lam)*map(x2)
    for unordered grid pairs; each lambda is mirrored unless its complement
    already appears in the list.  First failure in lexicographic order wins.

    On a line of scanned points whose halfspace pairings have nonnegative
    second differences on the fine lattice, `_Lattice.convex_on_line` shows
    that every test holds, so the verdict is NotFalsified without the pair
    scan; otherwise the pairs are scanned, reading the same table when the
    points lie on a line.
    """
    lat = _Lattice(vmap, cone, grid, lambdas)
    if lat.convex_on_line():
        return ConvexityVerdict(Status.NOT_FALSIFIED)
    q, keys, values, value = lat.q, lat.keys, lat.values, lat.value
    for a, b, lam, w in lat.pairs():
        wc = q - w
        mid = value(w * keys[a] + wc * keys[b])
        for sa, sb, sm in zip(values[a], values[b], mid):
            if w * sa + wc * sb < q * sm:
                return lat.witness(a, b, lam)
    return ConvexityVerdict(Status.NOT_FALSIFIED)


def check_convexlike(vmap: VectorMap, cone: PolyhedralCone, grid: GridSpec,
                     lambdas: Sequence[Fraction] = DEFAULT_LAMBDAS) -> ConvexityVerdict:
    """Falsify convexlikeness: every grid pair and lambda must admit some
    grid point whose image is dominated by the convex combination of values.

    The verdict is grid-relative in both quantifiers: pairs range over the
    grid and the existential witness x3 is searched over the grid only.
    """
    lat = _Lattice(vmap, cone, grid, lambdas)
    q, values = lat.q, lat.values
    # some grid point is dominated exactly when a componentwise-minimal value
    # row is; in lexicographic order no row is preceded by one it dominates
    minimal: list[tuple[int, ...]] = []
    for row in sorted(set(values)):
        if not any(_at_least(row, kept) for kept in minimal):
            minimal.append(row)
    # bit r of masks[a]: values[a] is at least minimal row r.  When both ends
    # of a pair are, so is every combination of their values
    masks = [sum(1 << r for r, kept in enumerate(minimal) if _at_least(row, kept))
             for row in values]
    if reduce(and_, masks, -1):
        return ConvexityVerdict(Status.NOT_FALSIFIED)
    bounds = [tuple(q * m for m in row) for row in minimal]
    for a, b, lam, w in lat.pairs():
        if masks[a] & masks[b]:
            continue
        wc = q - w
        target = [w * sa + wc * sb for sa, sb in zip(values[a], values[b])]
        if not any(_at_least(target, row) for row in bounds):
            return lat.witness(a, b, lam)
    return ConvexityVerdict(Status.NOT_FALSIFIED)
