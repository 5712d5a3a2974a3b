"""Map evaluation, feasibility, and the convexity/convexlike verdicts."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcverify import (
    BoxSet,
    DCProblem,
    GridSpec,
    PolyhedralCone,
    RationalVector,
    VectorMap,
    check_cone_convex,
    check_convexlike,
    cone_contains,
    feasible_contains,
    nonnegative_orthant,
)
from dcverify.problem import _eval_poly
from conftest import rationals, scalar_map

V = RationalVector.of
HALF = Fraction(1, 2)


def box1(lo, hi):
    return BoxSet(V(lo), V(hi))


class TestEvaluate:
    def test_quartic_quadratic_at_half(self, quartic_quadratic):
        assert quartic_quadratic.problem.F.evaluate(V(HALF)) == V("1/16", "1/4")

    def test_exceptional_point_override(self, exceptional_point):
        F = exceptional_point.problem.F
        assert F.evaluate(V(0)) == V(0)
        assert F.evaluate(V("1/3")) == V(-1)

    def test_zero_polynomial(self):
        zero = VectorMap.zero(1, 2)
        assert zero.evaluate(V("-7/3")) == V(0, 0)

    def test_evaluation_is_deterministic_and_exact(self):
        vmap = scalar_map(((2,), Fraction(3, 7)), ((0,), Fraction(-1, 5)))
        x = V("22/7")
        assert vmap.evaluate(x) == vmap.evaluate(x)
        assert vmap.evaluate(x)[0] == Fraction(3, 7) * Fraction(22, 7) ** 2 - Fraction(1, 5)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(st.tuples(*[st.integers(0, 4)] * n),
                           rationals(max_denominator=12)), max_size=6),
        st.lists(rationals(max_denominator=60), min_size=n, max_size=n))))
    def test_integer_sum_matches_term_by_term_fractions(self, case):
        monomials, x = case
        expected = Fraction(0)
        for exponents, coeff in monomials:
            term = coeff
            for xi, e in zip(x, exponents):
                term *= xi ** e
            expected += term
        assert _eval_poly(monomials, x) == expected

    def test_distinct_exception_points_enforced(self):
        with pytest.raises(ValueError):
            VectorMap(1, 1, ((),), ((V(0), V(1)), (V(0), V(2))))


class TestFeasibility:
    def test_interval_endpoint_feasible(self, quartic_quadratic):
        # H(1) - S(1) = (-1, -1) lies in -D
        p = quartic_quadratic.problem
        assert p.constraint(V(1)) == V(-1, -1)
        assert feasible_contains(p, V(1))

    def test_outside_box_infeasible(self, quartic_quadratic):
        assert not feasible_contains(quartic_quadratic.problem, V(2))

    def test_scalar_instance_feasible(self, exceptional_point):
        p = exceptional_point.problem
        assert p.constraint(V("-1/2"))[0] == -1
        assert feasible_contains(p, V("-1/2"))

    def test_base_points_are_feasible(self, quartic_quadratic, exceptional_point):
        for parsed in (quartic_quadratic, exceptional_point):
            assert feasible_contains(parsed.problem, parsed.problem.xbar)


class TestProblemInvariants:
    def test_eps_outside_cone_rejected(self, quartic_quadratic):
        p = quartic_quadratic.problem
        with pytest.raises(ValueError, match="eps not in K"):
            DCProblem(p.x_dim, p.y_dim, p.z_dim, p.F, p.G, p.H, p.S, p.C,
                      p.K, p.D, V(-1, 0), p.xbar)

    def test_xbar_outside_box_rejected(self, quartic_quadratic):
        p = quartic_quadratic.problem
        with pytest.raises(ValueError, match="xbar not in C"):
            DCProblem(p.x_dim, p.y_dim, p.z_dim, p.F, p.G, p.H, p.S, p.C,
                      p.K, p.D, p.eps, V(2))


class TestGridSpec:
    def test_endpoints_and_count(self):
        grid = GridSpec(box1(-1, 1), 5)
        assert [p[0] for p in grid.points()] == [Fraction(-1), -HALF, Fraction(0), HALF, Fraction(1)]

    def test_extra_points_merged_and_filtered(self):
        grid = GridSpec(box1(0, 1), 3)
        pts = grid.points(extra=[V("1/3"), V(7)])
        assert V("1/3") in pts and V(7) not in pts
        assert pts == sorted(pts, key=lambda p: p.coords)

    def test_product_grid(self):
        grid = GridSpec(BoxSet(V(0, 0), V(1, 1)), 2)
        assert len(grid.points()) == 4

    def test_minimum_two_points(self):
        with pytest.raises(ValueError):
            GridSpec(box1(0, 1), 1)

    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(rationals(-2, 2, max_denominator=4),
                           rationals(0, 2, max_denominator=3)), min_size=n, max_size=n),
        st.integers(2, 5),
        st.lists(st.lists(rationals(-3, 3, max_denominator=6), min_size=n, max_size=n)
                 | st.lists(rationals(max_denominator=6), min_size=1, max_size=3),
                 max_size=4))))
    def test_points_match_sorted_union(self, case):
        """Each call equals the sorted union of the grid and the in-box
        extras, repeated calls included, and returns a list of its own."""
        axes, n, extra = case
        box = BoxSet(RationalVector(tuple(lo for lo, _ in axes)),
                     RationalVector(tuple(lo + width for lo, width in axes)))
        grid = GridSpec(box, n)
        extra = [RationalVector(tuple(c)) for c in extra]
        expected = sorted(set(itertools.product(*(grid.axis_points(i) for i in range(box.dim))))
                          | {p.coords for p in extra if p.dim == box.dim and box.contains(p)})
        first = grid.points(extra=extra)
        first.clear()
        assert [p.coords for p in grid.points(extra=extra)] == expected
        assert [p.coords for p in grid.points(extra=reversed(extra))] == expected


class TestConeConvex:
    def test_quadratic_pair_is_cone_convex(self, quartic_quadratic):
        p = quartic_quadratic.problem
        grid = GridSpec(p.C, 21)
        assert not check_cone_convex(p.G, p.K, grid).falsified

    def test_exceptional_map_midpoint_falsification(self, exceptional_point):
        p = exceptional_point.problem
        verdict = check_cone_convex(p.F, p.K, GridSpec(p.C, 21))
        assert verdict.falsified
        x1, x2, lam = verdict.witness
        assert (x1, x2, lam) == (V(-1), V(1), HALF)
        # midpoint oracle: value at the combination strictly above the average
        avg = p.F.evaluate(x1).scale(lam) + p.F.evaluate(x2).scale(1 - lam)
        mid = p.F.evaluate(x1.scale(lam) + x2.scale(1 - lam))
        assert not cone_contains(p.K, avg - mid)

    def test_affine_maps_not_falsified(self):
        rng = random.Random(3)
        grid = GridSpec(box1(-1, 1), 9)
        K = nonnegative_orthant(2)
        for _ in range(10):
            m = VectorMap.from_coeffs(1, 2, [
                [((1,), rng.randint(-5, 5)), ((0,), rng.randint(-5, 5))],
                [((1,), rng.randint(-5, 5)), ((0,), rng.randint(-5, 5))],
            ])
            assert not check_cone_convex(m, K, grid).falsified

    def test_restriction_to_subgrid_preserves_not_falsified(self):
        # 6-point grid over [-1,1] is a subset of the 11-point grid
        vmap = scalar_map(((2,), Fraction(1)))
        ray = PolyhedralCone.from_generators([V(1)])
        fine = GridSpec(box1(-1, 1), 11)
        coarse = GridSpec(box1(-1, 1), 6)
        fine_pts = {p.coords for p in fine.points()}
        assert {p.coords for p in coarse.points()} <= fine_pts
        assert not check_cone_convex(vmap, ray, fine).falsified
        assert not check_cone_convex(vmap, ray, coarse).falsified

    def test_asymmetric_lambda_checks_both_orientations(self):
        # map convex except through a notch at 1/4; only one orientation of
        # the pair (-1, 1) with lambda 3/8 hits it
        notch = scalar_map(((0,), Fraction(0)),
                           exceptions=((V("1/4"), V(1)),))
        ray = PolyhedralCone.from_generators([V(1)])
        grid = GridSpec(box1(-1, 1), 2)
        verdict = check_cone_convex(notch, ray, grid, lambdas=[Fraction(3, 8)])
        assert verdict.falsified


class TestConvexlike:
    def test_two_valued_map_is_convexlike(self, exceptional_point):
        p = exceptional_point.problem
        assert not check_convexlike(p.F, p.K, GridSpec(p.C, 21)).falsified

    def test_cone_convex_implies_convexlike_on_grid(self, quartic_quadratic):
        p = quartic_quadratic.problem
        grid = GridSpec(p.C, 21)
        for vmap in (p.F, p.G):
            assert not check_cone_convex(vmap, p.K, grid).falsified
            assert not check_convexlike(vmap, p.K, grid).falsified

    def test_antitone_pair_falsified(self):
        # values (0,1) and (1,0) on a two-point domain: the midpoint target
        # (1/2, 1/2) dominates neither value
        vmap = VectorMap(1, 2, ((), ()),
                         ((V(0), V(0, 1)), (V(1), V(1, 0))))
        K = nonnegative_orthant(2)
        verdict = check_convexlike(vmap, K, GridSpec(box1(0, 1), 2))
        assert verdict.falsified
        x1, x2, lam = verdict.witness
        target = vmap.evaluate(x1).scale(lam) + vmap.evaluate(x2).scale(1 - lam)
        # brute-force oracle over the whole two-point domain
        assert all(not cone_contains(K, target - vmap.evaluate(x))
                   for x in (V(0), V(1)))
