"""Differential test: the integer-lattice convexity scans against a plain
``Fraction`` oracle.

The oracle is the direct form of both checks: every pair of scanned points,
every lambda and orientation in scan order, the map evaluated at each
convex combination as a ``Fraction`` vector, and cone membership by
halfspace dot products.  The lattice scans must give the same status and
the same first witness triple on every input.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import lcm, prod

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dcverify import (
    BoxSet,
    DimensionMismatchError,
    GridSpec,
    NeighborhoodSpec,
    PolyhedralCone,
    RationalVector,
    VectorMap,
    check_cone_convex,
    check_convexlike,
)
from dcverify.problem import ConvexityVerdict, _Lattice, _rational_gcd
from dcverify.scenarios import convexity_results, load_scenario_problem
from conftest import rationals


def _oracle_setup(vmap, cone, grid, lambdas):
    lams = [Fraction(l) for l in lambdas]
    pts = [p.coords for p in grid.points(extra=vmap.exception_points())]
    overrides = {p.coords: v.coords for p, v in vmap.exceptions}

    def ev(pt):
        hit = overrides.get(pt)
        if hit is not None:
            return hit
        values = []
        for monos in vmap.coords:
            total = Fraction(0)
            for exponents, coeff in monos:
                term = coeff
                for xi, e in zip(pt, exponents):
                    term *= xi ** e
                total += term
            values.append(total)
        return tuple(values)

    def member(diff):
        return all(sum(hk * dk for hk, dk in zip(h.coords, diff)) >= 0
                   for h in cone.halfspaces)

    def scan():
        lam_set = set(lams)
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                for lam in lams:
                    yield i, j, lam
                    if i != j and (1 - lam) not in lam_set:
                        yield j, i, lam

    return lams, pts, ev, member, scan


def _falsified(pts, a, b, lam):
    return ConvexityVerdict("Falsified", (RationalVector(pts[a]), RationalVector(pts[b]), lam))


def oracle_cone_convex(vmap, cone, grid, lambdas):
    _, pts, ev, member, scan = _oracle_setup(vmap, cone, grid, lambdas)
    for a, b, lam in scan():
        oml = 1 - lam
        combo = tuple(lam * p + oml * q for p, q in zip(pts[a], pts[b]))
        diff = tuple(lam * p + oml * q - m
                     for p, q, m in zip(ev(pts[a]), ev(pts[b]), ev(combo)))
        if not member(diff):
            return _falsified(pts, a, b, lam)
    return ConvexityVerdict("NotFalsified")


def oracle_convexlike(vmap, cone, grid, lambdas):
    _, pts, ev, member, scan = _oracle_setup(vmap, cone, grid, lambdas)
    values = [ev(p) for p in pts]
    for a, b, lam in scan():
        oml = 1 - lam
        target = tuple(lam * p + oml * q for p, q in zip(values[a], values[b]))
        if not any(member(tuple(t - v for t, v in zip(target, vk))) for vk in values):
            return _falsified(pts, a, b, lam)
    return ConvexityVerdict("NotFalsified")


small = rationals(-3, 3, max_denominator=3)
LAMBDA_POOL = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
               Fraction(3, 4), Fraction(2, 5)]


@st.composite
def grids(draw, dim):
    lower, upper = [], []
    for axis in range(dim):
        lo = draw(small)
        # the first axis of a 2-D box may collapse to a point (lo == hi)
        width = draw(st.sampled_from([0, Fraction(1), Fraction(2), Fraction(3, 2)])
                     if dim == 2 and axis == 0 else
                     st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]))
        lower.append(lo)
        upper.append(lo + width)
    n = draw(st.integers(2, 5 if dim == 1 else 3))
    return GridSpec(BoxSet(RationalVector(tuple(lower)), RationalVector(tuple(upper))), n)


@st.composite
def cones(draw, dim):
    if dim == 1:
        gens = draw(st.sampled_from([[(1,)], [(-1,)], [(1,), (-1,)]]))
    else:
        vec = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
        gens = draw(st.lists(vec, min_size=1, max_size=3))
        if draw(st.booleans()):
            # a lineality direction: its halfspaces come as a +- pair
            gens.append(tuple(-c for c in gens[0]))
    return PolyhedralCone.from_generators([RationalVector.of(*g) for g in gens])


@st.composite
def exception_point(draw, grid, lams):
    """An exceptional point on the grid, on the fine lattice of the
    lambdas only, or on neither (possibly outside the box)."""
    axes = [grid.axis_points(axis) for axis in range(grid.box.dim)]
    kind = draw(st.sampled_from(["grid", "fine", "off"]))
    if kind == "grid":
        return tuple(draw(st.sampled_from(a)) for a in axes)
    if kind == "fine":
        lam = draw(st.sampled_from(lams))
        return tuple(lam * draw(st.sampled_from(a)) + (1 - lam) * draw(st.sampled_from(a))
                     for a in axes)
    return tuple(draw(rationals(-4, 4, max_denominator=7))
                 for _ in axes)


@st.composite
def cases(draw):
    dim = draw(st.sampled_from([1, 1, 2]))
    out_dim = draw(st.sampled_from([1, 2]))
    grid = draw(grids(dim))
    lams = draw(st.lists(st.sampled_from(LAMBDA_POOL), min_size=1, max_size=3, unique=True))
    exponent = st.tuples(*[st.integers(0, 3)] * dim)
    coords = tuple(
        tuple((draw(exponent), draw(small))
              for _ in range(draw(st.integers(0, 3))))
        for _ in range(out_dim))
    points = draw(st.lists(exception_point(grid, lams), max_size=3, unique=True))
    exceptions = tuple(
        (RationalVector(p), RationalVector(tuple(draw(small) for _ in range(out_dim))))
        for p in points)
    vmap = VectorMap(dim, out_dim, coords, exceptions)
    return vmap, draw(cones(out_dim)), grid, lams


SETTINGS = settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(cases())
def test_cone_convex_matches_fraction_oracle(case):
    vmap, cone, grid, lams = case
    assert check_cone_convex(vmap, cone, grid, lams) == oracle_cone_convex(vmap, cone, grid, lams)


@SETTINGS
@given(cases())
def test_convexlike_matches_fraction_oracle(case):
    vmap, cone, grid, lams = case
    assert check_convexlike(vmap, cone, grid, lams) == oracle_convexlike(vmap, cone, grid, lams)


def test_mirrored_orientation_witness_matches_oracle():
    # lambda 1/3 without 2/3: the (j, i) orientation runs and is the first to fail
    notch = VectorMap(1, 1, ((),), ((RationalVector.of("1/3"), RationalVector.of(5)),))
    ray = PolyhedralCone.from_generators([RationalVector.of(1)])
    grid = GridSpec(BoxSet(RationalVector.of(0), RationalVector.of(1)), 2)
    lams = [Fraction(1, 3)]
    verdict = check_cone_convex(notch, ray, grid, lams)
    assert verdict == oracle_cone_convex(notch, ray, grid, lams)
    assert verdict.witness == (RationalVector.of(1), RationalVector.of(0), Fraction(1, 3))


@pytest.mark.parametrize("check", [check_cone_convex, check_convexlike])
def test_scans_refuse_map_and_cone_of_different_dimensions(check):
    # F(x) = (x, -x^2) into R^2 against a ray in R^1, as cone_contains refuses
    vmap = VectorMap.from_coeffs(1, 2, [[((1,), 1)], [((2,), -1)]])
    ray = PolyhedralCone.from_generators([RationalVector.of(1)])
    grid = GridSpec(BoxSet(RationalVector.of(-1), RationalVector.of(1)), 5)
    with pytest.raises(DimensionMismatchError):
        check(vmap, ray, grid)


@st.composite
def lines(draw):
    """Scanned points on one line: a 1-D box, or a 2-D box with one
    zero-width side.  Maps lean towards passing (affine parts plus
    nonnegative multiples of even powers, in the orthant), with an
    occasional arbitrary term or cone, and exceptions that keep or raise
    the polynomial's value on the grid, only on the fine lattice, or off
    both."""
    dim = draw(st.sampled_from([1, 1, 2]))
    flat = draw(st.integers(0, dim - 1)) if dim == 2 else None
    lower = [draw(small) for _ in range(dim)]
    width = st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)])
    upper = [lo if axis == flat else lo + draw(width) for axis, lo in enumerate(lower)]
    grid = GridSpec(BoxSet(RationalVector(tuple(lower)), RationalVector(tuple(upper))),
                    draw(st.integers(2, 12)))
    lams = draw(st.lists(st.sampled_from(LAMBDA_POOL), min_size=1, max_size=3, unique=True))
    out_dim = draw(st.sampled_from([1, 2]))
    unit = [tuple(int(i == axis) for i in range(dim)) for axis in range(dim)]
    coords = []
    for _ in range(out_dim):
        monos = [((0,) * dim, draw(small))]
        monos += [(e, draw(small)) for e in unit if draw(st.booleans())]
        monos += [(tuple(2 * draw(st.integers(1, 2)) * u for u in e),
                   draw(rationals(0, 3, max_denominator=3)))
                  for e in unit if draw(st.booleans())]
        if draw(st.integers(0, 4)) == 0:
            monos.append((draw(st.tuples(*[st.integers(0, 3)] * dim)), draw(small)))
        coords.append(tuple(monos))
    poly = VectorMap(dim, out_dim, tuple(coords))
    points = draw(st.lists(exception_point(grid, lams), max_size=2, unique=True))
    raise_by = st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-1)])
    exceptions = tuple(
        (RationalVector(p), RationalVector(tuple(v + draw(raise_by)
                                                 for v in poly.evaluate(RationalVector(p)))))
        for p in points)
    if draw(st.integers(0, 3)):
        cone = PolyhedralCone.from_generators([RationalVector(u) for u in
                                               ([(1, 0), (0, 1)] if out_dim == 2 else [(1,)])])
    else:
        cone = draw(cones(out_dim))
    return VectorMap(dim, out_dim, poly.coords, exceptions), cone, grid, lams


def _certificate_outcome(vmap, cone, grid, lams):
    lat = _Lattice(vmap, cone, grid, lams)
    if prod(radix for *_, radix in lat._axes) > sum(1 for _ in lat.pairs()):
        return "guard"
    return "accept" if lat.convex_on_line() else "decline"


@cache
def line_run() -> frozenset:
    """Run the line-certificate differential once per session, and return
    the certificate outcomes its draws reached."""
    seen = set()

    @SETTINGS
    @given(lines())
    def differential(case):
        vmap, cone, grid, lams = case
        verdict = check_cone_convex(vmap, cone, grid, lams)
        assert verdict == oracle_cone_convex(vmap, cone, grid, lams)
        outcome = _certificate_outcome(*case)
        seen.add(outcome)
        if outcome == "accept":
            assert not verdict.falsified

    differential()
    return frozenset(seen)


def test_line_certificate_matches_fraction_oracle():
    line_run()


def test_lines_reach_every_certificate_outcome():
    """The strategy is not degenerate: the certificate accepts, declines on
    a negative second difference, and is declined by the size guard.  Read
    from the differential's draws."""
    assert line_run() == {"accept", "decline", "guard"}


def _spy_values(monkeypatch):
    """Record each key `_Lattice.value` is asked for, and whether the map
    was evaluated there (the key was not in the memo yet)."""
    calls: list[tuple[int, bool]] = []
    value = _Lattice.value

    def spy(self, key):
        calls.append((key, key not in self._memo))
        return value(self, key)

    monkeypatch.setattr(_Lattice, "value", spy)
    return calls


def test_shipped_maps_certified_without_pair_scan(quartic_quadratic, monkeypatch):
    # 101 scanned points on a 401-point fine line; the pair scan would make
    # 5,050 pairs x 3 lambdas = 15,150 lookups per map.  Direct evaluations
    # are counted where the polynomial is evaluated, so values the line
    # table fills by differences cannot slip past the count.  Both checks
    # pass here without visiting a pair
    p = quartic_quadratic.problem
    grid = GridSpec(p.C, 101)

    def no_pairs(self):
        raise AssertionError("the pair scan ran")

    monkeypatch.setattr(_Lattice, "pairs", no_pairs)
    for vmap, cone in ((p.F, p.K), (p.G, p.K), (p.H, p.D), (p.S, p.D)):
        degree = max(e for monos in vmap.coords for (e,), _ in monos)
        with monkeypatch.context() as m:
            lattices, direct = [], []
            walk, poly_at = _Lattice.convex_on_line, _Lattice._poly_at
            m.setattr(_Lattice, "convex_on_line",
                      lambda self: lattices.append(self) or walk(self))
            m.setattr(_Lattice, "_poly_at", lambda self, key: direct.append(key) or poly_at(self, key))
            assert check_cone_convex(vmap, cone, grid) == ConvexityVerdict("NotFalsified")
            assert len(direct) <= degree + 1
            (lat,) = lattices
            assert len(lat._memo) <= 401
            # the convexlike scan reads its values from the same kind of table
            direct.clear()
            assert check_convexlike(vmap, cone, grid) == ConvexityVerdict("NotFalsified")
            assert len(direct) <= degree + 1


def test_size_guard_declines_without_walking(monkeypatch):
    # the exception at 1/997 refines the fine line to 4*19940 + 1 keys, far
    # more than the 22*21/2 pairs x 3 orientations the scan tests
    at = Fraction(1, 997)
    square = VectorMap(1, 1, ((((2,), Fraction(1)),),),
                       ((RationalVector.of(at), RationalVector.of(at * at)),))
    ray = PolyhedralCone.from_generators([RationalVector.of(1)])
    grid = GridSpec(BoxSet(RationalVector.of(0), RationalVector.of(1)), 21)
    lams = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    lat = _Lattice(square, ray, grid, lams)
    tests = sum(1 for _ in lat.pairs())
    assert tests == 693
    reached = dict(lat._memo)
    assert not lat.convex_on_line()
    assert lat._memo == reached
    calls = _spy_values(monkeypatch)
    verdict = check_cone_convex(square, ray, grid, lams)
    assert verdict == oracle_cone_convex(square, ray, grid, lams)
    assert sum(evaluated for _, evaluated in calls) < tests


# --- the grid's point tables on their lattices ------------------------------


def oracle_index(grid, extra, q):
    """The index as each lattice built it for itself: a rational gcd over
    the offsets of every scanned point, per axis, and a `Fraction` division
    per index.  Returns (points, keys, radices, axes, dens)."""
    points = grid.points(extra=extra)
    lower = grid.box.lower.coords
    coarse = []
    for axis, (lo, hi) in enumerate(zip(lower, grid.box.upper.coords)):
        step = (hi - lo) / (grid.points_per_axis - 1) if hi != lo else Fraction(1)
        for p in points:
            step = _rational_gcd(step, p[axis] - lo)
        coarse.append(step)
    index = [[int((c - lo) / h) for c, lo, h in zip(p.coords, lower, coarse)] for p in points]
    radices = [q * max(k[axis] for k in index) + 1 for axis in range(len(lower))]
    strides = [prod(radices[axis + 1:]) for axis in range(len(lower))]
    keys = [sum(ki * st for ki, st in zip(k, strides)) for k in index]
    steps = [h / q for h in coarse]
    dens = [lcm(lo.denominator, h.denominator) for lo, h in zip(lower, steps)]
    axes = [(int(lo * den), int(h * den), stride, radix) for lo, h, den, stride, radix
            in zip(lower, steps, dens, strides, radices)]
    return points, keys, radices, axes, dens


@st.composite
def boxes(draw):
    """A grid on a rational box of dimension 1 to 3 whose sides may have
    zero width, with extra points on the grid, on the fine lattice of the
    lambdas, or on neither, and the q of the lambdas."""
    dim = draw(st.integers(1, 3))
    lower = [draw(rationals(-3, 3, max_denominator=6)) for _ in range(dim)]
    widths = [draw(st.sampled_from([0, Fraction(1), Fraction(3, 2), Fraction(2, 3),
                                    Fraction(5, 7)])) for _ in range(dim)]
    upper = [lo + w for lo, w in zip(lower, widths)]
    grid = GridSpec(BoxSet(RationalVector(tuple(lower)), RationalVector(tuple(upper))),
                    draw(st.integers(2, 6 if dim == 1 else 3)))
    lams = draw(st.lists(st.sampled_from(LAMBDA_POOL), min_size=1, max_size=3, unique=True))
    extra = draw(st.lists(exception_point(grid, lams), max_size=3))
    return grid, [RationalVector(c) for c in extra], lcm(*(lam.denominator for lam in lams))


@SETTINGS
@given(boxes())
def test_index_matches_per_map_oracle(case):
    grid, extra, q = case
    box, n = grid.box, grid.points_per_axis
    inside = {p.coords for p in extra if box.contains(p)}
    direct = itertools.product(*([lo + k * (hi - lo) / (n - 1) for k in range(n)] if lo != hi
                                 else [lo] for lo, hi in zip(box.lower, box.upper)))
    assert [p.coords for p in grid.points(extra=extra)] == sorted(set(direct) | inside)
    # a second q on the same grid gets a table of its own
    for q in (q, q + 1):
        index = grid.table(extra, q)
        points, keys, radices, axes, dens = oracle_index(grid, extra, q)
        # point a sits at fine key q*keys[a]
        assert index.points == points
        assert index.keys == keys
        assert [radix for *_, radix in index.axes] == radices
        assert index.axes == axes
        assert index.dens == dens
        assert index.extra_keys == {p.coords: keys[points.index(p)]
                                    for p in extra if box.contains(p)}
        assert grid.table(list(reversed(extra)), q) is index


@pytest.mark.parametrize("name, builds", [("example-3-1", 1), ("example-4-1", 2)])
def test_convexity_scans_share_the_grid_index(name, builds, monkeypatch):
    # the scenario's four cone-convexity and two convexlike scans share one
    # table per set of in-box exceptional points: example-4-1's F and G
    # have an exception at 0, its H and S none
    built = []
    build = GridSpec._build_table

    def spy(grid, inside, q):
        built.append((inside, q))
        return build(grid, inside, q)

    monkeypatch.setattr(GridSpec, "_build_table", spy)
    parsed = load_scenario_problem(name)
    results, _ = convexity_results(parsed, GridSpec(parsed.problem.C, 101))
    assert len(results) == 6
    assert len(built) == builds == len(set(built))


# --- the point table's frame --------------------------------------------------


@st.composite
def framed(draw):
    """A grid from `boxes` with its extra points, a q, a center, a positive
    radius and a map whose exceptional points are some of the extra points.
    The center is a listed extra point, a listed grid point, or any
    rational point, which may lie off the lattice or outside the box."""
    grid, extra, _ = draw(boxes())
    q = draw(st.sampled_from([1, 2, 4]))
    dim, out_dim = grid.box.dim, draw(st.sampled_from([1, 2]))
    exponent = st.tuples(*[st.integers(0, 3)] * dim)
    coords = tuple(tuple((draw(exponent), draw(small)) for _ in range(draw(st.integers(0, 3))))
                   for _ in range(out_dim))
    overridden = draw(st.lists(st.sampled_from(extra), unique=True)) if extra else []
    vmap = VectorMap(dim, out_dim, coords, tuple(
        (p, RationalVector(tuple(draw(small) for _ in range(out_dim)))) for p in overridden))
    listed = [p for p in extra if grid.box.contains(p)]
    kind = draw(st.sampled_from(["extra", "grid", "any"] if listed else ["grid", "any"]))
    if kind == "extra":
        center = draw(st.sampled_from(listed))
    elif kind == "grid":
        center = draw(st.sampled_from(grid.points(extra=extra)))
    else:
        center = RationalVector(tuple(draw(rationals(-4, 4, max_denominator=7))
                                      for _ in range(grid.box.dim)))
    radius = draw(rationals(0, 2, max_denominator=6).filter(bool))
    return grid, extra, q, kind, center, radius, vmap


def test_point_table_frame_matches_fractions():
    """`points`, `offsets`, `within`, `position`, `point`, `len` and
    `values` of a grid's table for any q against the points in
    ``Fraction``s: offsets are c * (x - center) as ints with c > 0,
    `within` keeps exactly the points `NeighborhoodSpec.contains` keeps, in
    list order, each listed extra point sits at its list position, and the
    value rows are scale * `VectorMap.evaluate` at every point."""
    tags = set()

    @SETTINGS
    @given(framed())
    def differential(case):
        grid, extra, q, kind, center, radius, vmap = case
        table = grid.table(extra, q)
        points = grid.points(extra=extra)
        assert table.q == q and table.points == points
        c, rows = table.offsets(center)
        assert c > 0 and all(type(v) is int for row in rows for v in row)
        assert rows == [tuple(c * (xi - ci) for xi, ci in zip(x, center)) for x in points]
        assert table.offsets(center) == (c, rows)
        U = NeighborhoodSpec(radius)
        assert table.within(center, radius) == [i for i, x in enumerate(points)
                                                if U.contains(x, center)]
        assert len(table) == len(points)
        assert [table.point(i) for i in range(len(table))] == points
        for p in extra:
            assert table.position(p) == (points.index(p) if grid.box.contains(p) else None)
        assert all(table.position(x) is None for x in points if x not in extra)
        values = table.values(vmap)
        assert values.scale > 0 and all(type(v) is int for row in values.rows for v in row)
        assert values.rows == [tuple(values.scale * v for v in vmap.evaluate(x)) for x in points]
        box = grid.box
        tags.update({kind, f"{box.dim}-D"})
        if q != 1:
            tags.add("q != 1")
        if any(lo == hi for lo, hi in zip(box.lower, box.upper)):
            tags.add("flat axis")
        if center not in points:
            tags.add("off the list")
        if not box.contains(center):
            tags.add("outside the box")

    differential()
    assert tags == {"extra", "grid", "any", "1-D", "2-D", "3-D", "flat axis", "off the list",
                    "outside the box", "q != 1"}


# --- the line's difference table -------------------------------------------


@st.composite
def polynomial_lines(draw):
    """A map of degree up to 6 on a line: a 1-D box, or a 2-D box with one
    zero-width side, both with rational bounds; exceptions on the grid, only
    on the fine lattice, or off both."""
    dim = draw(st.sampled_from([1, 2]))
    flat = draw(st.integers(0, dim - 1)) if dim == 2 else None
    lower = [draw(rationals(-2, 2, max_denominator=5)) for _ in range(dim)]
    width = st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(4, 5)])
    upper = [lo if axis == flat else lo + draw(width) for axis, lo in enumerate(lower)]
    grid = GridSpec(BoxSet(RationalVector(tuple(lower)), RationalVector(tuple(upper))),
                    draw(st.integers(2, 9)))
    lams = draw(st.lists(st.sampled_from(LAMBDA_POOL), min_size=1, max_size=3, unique=True))
    out_dim = draw(st.sampled_from([1, 2]))
    exponent = st.tuples(*[st.integers(0, 6)] * dim)
    coords = tuple(tuple((draw(exponent), draw(small)) for _ in range(draw(st.integers(0, 4))))
                   for _ in range(out_dim))
    points = draw(st.lists(exception_point(grid, lams), max_size=3, unique=True))
    exceptions = tuple((RationalVector(p), RationalVector(tuple(draw(small) for _ in range(out_dim))))
                       for p in points)
    return VectorMap(dim, out_dim, coords, exceptions), draw(cones(out_dim)), grid, lams


@SETTINGS
@given(polynomial_lines())
def test_line_table_matches_direct_evaluation(case):
    vmap, cone, grid, lams = case
    lat = _Lattice(vmap, cone, grid, lams)
    size = prod(radix for *_, radix in lat._axes)
    assume(size <= 1500)
    columns = lat._tabulate_line(size)
    assert len(columns) == len(cone.normals)
    table = list(zip(*columns)) or [()] * size
    # the same keys on a lattice that has tabulated nothing
    direct = _Lattice(vmap, cone, grid, lams)
    assert table == [direct.value(key) for key in range(size)]
    # and, up to the common positive scale D, the Fraction pairings at the
    # point of each key, lo + key/(size-1) * (hi - lo)
    lo, hi = grid.box.lower, grid.box.upper
    pairings = [[sum(a * y for a, y in zip(normal, vmap.evaluate(RationalVector(
        tuple(l + Fraction(key, size - 1) * (h - l) for l, h in zip(lo, hi)))).coords))
                 for normal in cone.normals] for key in range(size)]
    nonzero = [(t, f) for row, frow in zip(table, pairings) for t, f in zip(row, frow) if f]
    scale = Fraction(nonzero[0][0]) / nonzero[0][1] if nonzero else Fraction(1)
    assert scale > 0
    assert [list(row) for row in table] == [[scale * f for f in frow] for frow in pairings]
