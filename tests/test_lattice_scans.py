"""Differential test: the integer-lattice convexity scans against a plain
``Fraction`` oracle.

The oracle is the direct form of both checks: every pair of scanned points,
every lambda and orientation in scan order, the map evaluated at each
convex combination as a ``Fraction`` vector, and cone membership by
halfspace dot products.  The lattice scans must give the same status and
the same first witness triple on every input.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dcverify import (
    BoxSet,
    GridSpec,
    PolyhedralCone,
    RationalVector,
    VectorMap,
    check_cone_convex,
    check_convexlike,
)
from dcverify.problem import ConvexityVerdict, _Lattice


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


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
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
    return tuple(draw(st.fractions(min_value=-4, max_value=4, max_denominator=7))
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
                   draw(st.fractions(min_value=0, max_value=3, max_denominator=3)))
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


@SETTINGS
@given(lines())
def test_line_certificate_matches_fraction_oracle(case):
    vmap, cone, grid, lams = case
    verdict = check_cone_convex(vmap, cone, grid, lams)
    assert verdict == oracle_cone_convex(vmap, cone, grid, lams)
    if _certificate_outcome(*case) == "accept":
        assert not verdict.falsified


def test_lines_reach_every_certificate_outcome():
    """The strategy is not degenerate: the certificate accepts, declines on
    a negative second difference, and is declined by the size guard."""
    seen = set()

    @SETTINGS
    @given(lines())
    def collect(case):
        seen.add(_certificate_outcome(*case))

    collect()
    assert seen == {"accept", "decline", "guard"}


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
    # 5,050 pairs x 3 lambdas = 15,150 lookups per map
    p = quartic_quadratic.problem
    grid = GridSpec(p.C, 101)

    def no_pairs(self):
        raise AssertionError("the pair scan ran")

    monkeypatch.setattr(_Lattice, "pairs", no_pairs)
    for vmap, cone in ((p.F, p.K), (p.G, p.K), (p.H, p.D), (p.S, p.D)):
        with monkeypatch.context() as m:
            calls = _spy_values(m)
            assert check_cone_convex(vmap, cone, grid) == ConvexityVerdict("NotFalsified")
        assert sum(evaluated for _, evaluated in calls) <= 401
        assert len(calls) <= 101 + 401


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
