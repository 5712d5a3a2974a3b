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
reads those tables: the convexity scans (as `_paired` maps) by packed key
on the lattice of their lambdas, every other engine by position,
dissipativity on its ball grids; only this module makes polynomials integer.
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


def _paired(vmap: VectorMap, normals: Sequence[Sequence[int]]) -> VectorMap:
    """The map x -> (<a, vmap(x)> for each normal a) as polynomials, with
    each exceptional value paired the same way.  Its tuples are built from
    lists: one built from a generator is resized, not taken from CPython's
    tuple free lists, and freed it grows them command after command."""
    coords = tuple([tuple([(exponents, ai * coeff) for ai, monos in zip(a, vmap.coords) if ai
                           for exponents, coeff in monos]) for a in normals])
    return VectorMap(vmap.in_dim, len(normals), coords, tuple([
        (p, RationalVector(tuple([sum(map(mul, a, value)) for a in normals])))
        for p, value in vmap.exceptions]))


class _MapTable:
    """One map on one point table, as integers: scale * map(x), one
    positive scale for the table's whole fine lattice, by integer
    polynomials in the numerators base_d + K_d*unit_d of the fine
    coordinates; the values of its exceptional points in the box override
    them at their keys.  `rows` holds the listed points, `at` any fine key
    and `line` the whole fine lattice when it is one line.
    """

    def __init__(self, vmap: VectorMap, table: PointTable) -> None:
        self._axes, self._keys, self._q = table.axes, table.keys, table.q
        self.scale, self._polys = _int_polys(
            vmap.coords, table.dens, (v.denominator for _, value in vmap.exceptions for v in value))
        extra = table.extra_keys
        self._memo = {self._q * extra[p.coords]: tuple([int(v * self.scale) for v in value])
                      for p, value in vmap.exceptions if p.coords in extra}
        # the line, as its columns and as its rows by fine key, once tabulated
        self._line = self._by_key = None

    def _poly_at(self, key: int) -> list[int]:
        """scale * map(x) by the polynomial at a fine key; see `PointTable`."""
        return _int_eval(self._polys, [base + key // stride % radix * unit
                                       for base, unit, stride, radix in self._axes])

    def at(self, key: int) -> tuple[int, ...]:
        """The values at a fine key: read from the `line` once it is
        tabulated, otherwise evaluated once."""
        if self._by_key is not None:
            return self._by_key[key]
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = tuple(self._poly_at(key))
        return hit

    @cached_property
    def rows(self) -> list[tuple[int, ...]]:
        """The values at the listed points, in list order; from the `line`
        when it has at most twice as many keys as points."""
        q, keys = self._q, self._keys
        if self.line(2 * len(keys)) is None:
            return [self.at(q * key) for key in keys]
        by_key = self._by_key
        return [by_key[q * key] for key in keys]

    def line(self, bound: int) -> list[list[int]] | None:
        """The values at keys 0 .. size-1 of the fine lattice, one list per
        entry of a row, when it is a line (at most one radix is above 1) of
        size at most bound; None otherwise.  Kept once a bound admits it.

        Along the line each entry is a polynomial in the key of at most the
        degree d of the map in the varying coordinate, with integer values.
        It is evaluated directly at keys 0 .. d, and every further value
        comes from its forward-difference table by d integer additions (the
        method of differences; Knuth, TAOCP vol. 2, 4.6.4).  On a line of
        size at most d, the table of degree size - 1 through the keys it
        has is exact.  The memo's values, overrides among them, are then
        written over their keys.
        """
        if self._line is not None:
            return self._line
        radices = [radix for *_, radix in self._axes]
        size = prod(radices)
        if sum(radix > 1 for radix in radices) > 1 or size > bound:
            return None
        degree = max((e for poly in self._polys for exponents, _ in poly
                      for e, radix in zip(exponents, radices) if radix > 1), default=0)
        d = min(degree, size - 1)
        rows = [self._poly_at(key) for key in range(d + 1)]
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
        for key, ys in self._memo.items():
            for column, value in zip(columns, ys):
                column[key] = value
        self._line, self._by_key = columns, list(zip(*columns))
        return columns


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
    and 1 for every other engine.

    The table hides its packed keys behind positions 0 .. len - 1, in list
    order; the point at position i sits at fine key q * keys[i].  `points`
    decodes the whole list the first time it is asked for, `point(i)` one
    point, and `position` finds a listed extra point.  `offsets(center)`
    holds c * (x - center) as ints at every point, once per center, for
    `within` and `affine`.  `values(vmap)` holds scale * vmap(x) as ints
    at every point, one positive scale per map, computed the first time a
    map is asked for: each map is evaluated at most once per point, and
    exceptional values override; `values(vmap, normals)` tabulates the map
    `_paired(vmap, normals)` the same way, for the convexity scans.  The
    engines compare integer pairings with the cone normals; only witnesses
    turn back into Fractions, and LP rows stay ints over a den.  `flags`
    keeps, per problem whose certification list this is, the feasibility
    flag of every point, in list order, and that of xbar
    (`pareto.feasibility`).  Maps and problems are keyed by identity, and
    each entry keeps its key object alive, so no key is reused while the
    table lives.
    """

    def __init__(self, keys: list[int], axes: list[tuple[int, int, int, int]], dens: list[int],
                 extra_keys: dict[tuple[Fraction, ...], int], q: int) -> None:
        # packed coarse key per point, ascending, so in lexicographic point order
        self.keys = keys
        # fine-lattice coordinate x_d = (base_d + K_d*unit_d) / den_d with the
        # digit K_d = key // stride % radix; one (base, unit, stride, radix) per
        # axis.  `_columns` and `_MapTable._poly_at` inline the digit, so a
        # change to the packing changes both
        self.axes, self.dens = axes, dens
        # packed coarse key of each extra point in the box
        self.extra_keys = extra_keys
        self.q = q
        self._maps: dict[tuple[int, tuple | None], tuple[VectorMap, VectorMap, _MapTable]] = {}
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

    def values(self, vmap: VectorMap, normals: tuple | None = None) -> _MapTable:
        hit = self._maps.get((id(vmap), normals))
        if hit is None:
            if vmap.in_dim != len(self.axes):
                raise DimensionMismatchError(
                    f"point dim {len(self.axes)} vs map in_dim {vmap.in_dim}")
            tabulated = vmap if normals is None else _paired(vmap, normals)
            hit = self._maps[id(vmap), normals] = (vmap, tabulated, _MapTable(tabulated, self))
        return hit[2]

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
    instance lives; so are the in-box set of each extra list and the ball
    grids built from this one (`ball`).  Nothing is kept past the
    instance.
    """

    box: BoxSet
    points_per_axis: int
    _tables: dict[tuple[frozenset, int], PointTable] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _inside: dict[tuple, frozenset] = field(
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
        extra = list(extra)
        coords = tuple([p.coords for p in extra])
        inside = self._inside.get(coords)
        if inside is None:
            inside = self._inside[coords] = frozenset(
                p.coords for p in extra if p.dim == self.box.dim and self.box.contains(p))
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


def _rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Largest rational g such that a/g and b/g are both integers."""
    return Fraction(gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


def _at_least(row: Sequence[int], other: Sequence[int]) -> bool:
    return all(x >= y for x, y in zip(row, other))


def _scan(vmap: VectorMap, cone: PolyhedralCone, grid: GridSpec, lambdas: Sequence[Fraction]
          ) -> tuple[PointTable, _MapTable, list[tuple[Fraction, int, bool]], int] | None:
    """What both convexity scans share: (table, values, plan, tests), or
    None for the whole space, where no test can fail.

    The table is the grid's `PointTable` for the q of the lambdas; the
    values, the map paired with the cone's normals on it, so every cone
    inequality is an integer comparison.  The plan holds (lam, w, mirrored)
    per lambda, mirrored when 1 - lam is not listed; tests counts the tests
    of `_pairs`, and a fine line no longer than that is tabulated.
    """
    if vmap.out_dim != cone.dim:
        raise DimensionMismatchError("map and cone dimensions differ")
    lams = [as_fraction(l) for l in lambdas]
    if not all(0 < lam < 1 for lam in lams):
        raise ValueError("lambda values must lie strictly between 0 and 1")
    if not cone.normals:
        return None
    q = lcm(*(lam.denominator for lam in lams))
    table = grid.table(vmap.exception_points(), q)
    plan = [(lam, int(lam * q), (1 - lam) not in lams) for lam in lams]
    n = len(table)
    tests = n * (n - 1) // 2 * sum(1 + mirrored for *_, mirrored in plan)
    values = table.values(vmap, cone.normals)
    values.line(tests)
    return table, values, plan, tests


def _pairs(n: int, plan: Sequence[tuple[Fraction, int, bool]]) -> Iterator[tuple]:
    """(a, b, lam, w) with lam = w/q, in scan order: index pairs i < j in
    lexicographic order, each lambda in list order, and the mirrored
    orientation (j, i) right after (i, j) when 1 - lam is not itself
    listed.  Pairs i == j are skipped: their combination is the point
    itself, which can falsify neither check."""
    for i in range(n):
        for j in range(i + 1, n):
            for lam, w, mirrored in plan:
                yield i, j, lam, w
                if mirrored:
                    yield j, i, lam, w


def _convex_on_line(columns: list[list[int]] | None) -> bool:
    """True when no cone-convexity test of `_pairs` can fail, shown by
    second differences along the tabulated fine line (Murota, Discrete
    Convex Analysis, 2003).  If every pairing s has s(k-1) + s(k+1) >=
    2 s(k), its piecewise-linear interpolant is convex and equals s at
    every fine key, so a test at the keys A, B and m = (w*A + (q-w)*B)/q
    has q*s(m) <= w*s(A) + (q-w)*s(B).
    """
    return columns is not None and all(
        b + a >= 2 * h for column in columns for b, h, a in zip(column, column[1:], column[2:]))


def _witness(table: PointTable, a: int, b: int, lam: Fraction) -> ConvexityVerdict:
    return ConvexityVerdict(Status.FALSIFIED, (table.point(a), table.point(b), lam))


def check_cone_convex(vmap: VectorMap, cone: PolyhedralCone, grid: GridSpec,
                      lambdas: Sequence[Fraction] = DEFAULT_LAMBDAS) -> ConvexityVerdict:
    """Falsify the convexity inequality over all grid pairs and lambdas.

    Tests map(lam*x1 + (1-lam)*x2) preceq_cone lam*map(x1) + (1-lam)*map(x2)
    for unordered grid pairs; each lambda is mirrored unless its complement
    already appears in the list.  First failure in lexicographic order wins.

    On a fine line whose pairings have nonnegative second differences,
    `_convex_on_line` shows that every test holds without the pair scan;
    otherwise the pairs are scanned on the same table.
    """
    scan = _scan(vmap, cone, grid, lambdas)
    if scan is None:
        return ConvexityVerdict(Status.NOT_FALSIFIED)
    table, values, plan, tests = scan
    if _convex_on_line(values.line(tests)):
        return ConvexityVerdict(Status.NOT_FALSIFIED)
    q, keys, rows, at = table.q, table.keys, values.rows, values.at
    for a, b, lam, w in _pairs(len(keys), plan):
        wc = q - w
        mid = at(w * keys[a] + wc * keys[b])
        for sa, sb, sm in zip(rows[a], rows[b], mid):
            if w * sa + wc * sb < q * sm:
                return _witness(table, a, b, lam)
    return ConvexityVerdict(Status.NOT_FALSIFIED)


def check_convexlike(vmap: VectorMap, cone: PolyhedralCone, grid: GridSpec,
                     lambdas: Sequence[Fraction] = DEFAULT_LAMBDAS) -> ConvexityVerdict:
    """Falsify convexlikeness: every grid pair and lambda must admit some
    grid point whose image is dominated by the convex combination of values.

    The verdict is grid-relative in both quantifiers: pairs range over the
    grid and the existential witness x3 is searched over the grid only.
    """
    scan = _scan(vmap, cone, grid, lambdas)
    if scan is None:
        return ConvexityVerdict(Status.NOT_FALSIFIED)
    table, values, plan, _ = scan
    q, rows = table.q, values.rows
    # some grid point is dominated exactly when a componentwise-minimal value
    # row is; in lexicographic order no row is preceded by one it dominates
    minimal: list[tuple[int, ...]] = []
    for row in sorted(set(rows)):
        if not any(_at_least(row, kept) for kept in minimal):
            minimal.append(row)
    # bit r of masks[a]: rows[a] is at least minimal row r.  When both ends
    # of a pair are, so is every combination of their values
    masks = [sum(1 << r for r, kept in enumerate(minimal) if _at_least(row, kept))
             for row in rows]
    if reduce(and_, masks, -1):
        return ConvexityVerdict(Status.NOT_FALSIFIED)
    bounds = [tuple(q * m for m in row) for row in minimal]
    for a, b, lam, w in _pairs(len(rows), plan):
        if masks[a] & masks[b]:
            continue
        wc = q - w
        target = [w * sa + wc * sb for sa, sb in zip(rows[a], rows[b])]
        if not any(_at_least(target, row) for row in bounds):
            return _witness(table, a, b, lam)
    return ConvexityVerdict(Status.NOT_FALSIFIED)
