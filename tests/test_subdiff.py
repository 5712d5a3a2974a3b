"""Subdifferential membership verdicts and the 1-D interval computation."""

import random
from fractions import Fraction

import pytest

from dcverify import (
    BoxSet,
    GridSpec,
    LinearOperator,
    PolyhedralCone,
    RationalVector,
    VectorMap,
    cone_contains,
    eps_subdiff_contains,
    nonnegative_orthant,
    scalar_eps_subdiff_interval,
    strong_subdiff_contains,
)
from conftest import scalar_map

V = RationalVector.of
F0 = Fraction(0)
RAY = PolyhedralCone.from_generators([V(1)])


def grid1(lo, hi, n):
    return GridSpec(BoxSet(V(lo), V(hi)), n)


def abs_map(grid: GridSpec) -> VectorMap:
    """|x| encoded by grid-point overrides (the polynomial part is unused)."""
    return VectorMap(1, 1, ((),),
                     tuple((p, V(abs(p[0]))) for p in grid.points()))


class TestStrongSubdiff:
    def test_zero_operator_for_even_pair(self, quartic_quadratic):
        p = quartic_quadratic.problem
        verdict = strong_subdiff_contains(p.G, p.K, V(0), LinearOperator.column([0, 0]),
                                          grid1(-1, 1, 21))
        assert verdict.certified

    def test_falsified_with_witness_half(self, quartic_quadratic):
        p = quartic_quadratic.problem
        T = LinearOperator.column([1, 0])
        verdict = strong_subdiff_contains(p.G, p.K, V(0), T, grid1(-1, 1, 5))
        assert not verdict.certified
        assert verdict.witness == V("1/2")
        # the witness re-verifies: (1/4, 1/2) - (1/2, 0) has a negative part
        diff = p.G.evaluate(V("1/2")) - p.G.evaluate(V(0)) - T.apply(V("1/2"))
        assert diff == V("-1/4", "1/2")
        assert not cone_contains(p.K, diff)

    def test_affine_map_gradient_certified(self):
        rng = random.Random(5)
        for _ in range(10):
            rows = [(Fraction(rng.randint(-4, 4)),) for _ in range(2)]
            consts = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
            vmap = VectorMap.from_coeffs(1, 2, [
                [((1,), rows[0][0]), ((0,), consts[0])],
                [((1,), rows[1][0]), ((0,), consts[1])],
            ])
            verdict = strong_subdiff_contains(vmap, nonnegative_orthant(2), V(0),
                                              LinearOperator(tuple(rows)), grid1(-1, 1, 9))
            assert verdict.certified


class TestEpsSubdiff:
    def test_zero_eps_reduces_to_strong(self, quartic_quadratic):
        p = quartic_quadratic.problem
        grid = grid1(-1, 1, 13)
        rng = random.Random(9)
        for _ in range(8):
            T = LinearOperator.column([Fraction(rng.randint(-2, 2), 2),
                                       Fraction(rng.randint(-2, 2), 2)])
            strong = strong_subdiff_contains(p.G, p.K, V(0), T, grid)
            relaxed = eps_subdiff_contains(p.G, p.K, V(0), T, V(0, 0), grid)
            assert strong.status == relaxed.status
            assert strong.witness == relaxed.witness

    def test_slope_one_with_quarter_slack(self):
        # x <= x^2 + 1/4 for all x, since (x - 1/2)^2 >= 0
        phi = scalar_map(((2,), Fraction(1)))
        verdict = eps_subdiff_contains(phi, RAY, V(0), LinearOperator.column([1]),
                                       V("1/4"), grid1(-1, 1, 41))
        assert verdict.certified

    def test_slope_three_halves_falsified(self):
        phi = scalar_map(((2,), Fraction(1)))
        verdict = eps_subdiff_contains(phi, RAY, V(0), LinearOperator.column(["3/2"]),
                                       V("1/4"), grid1(-1, 1, 41))
        assert not verdict.certified
        x = verdict.witness[0]
        assert Fraction(3, 2) * x > x * x + Fraction(1, 4)
        # the stated arithmetic at 3/4: 9/8 > 9/16 + 1/4
        assert Fraction(3, 2) * Fraction(3, 4) == Fraction(9, 8)
        assert Fraction(9, 8) > Fraction(9, 16) + Fraction(1, 4)

    def test_eps_outside_cone_rejected(self):
        phi = scalar_map(((2,), Fraction(1)))
        with pytest.raises(ValueError, match="eps not in"):
            eps_subdiff_contains(phi, RAY, V(0), LinearOperator.column([0]),
                                 V(-1), grid1(-1, 1, 5))

    def test_monotone_in_eps(self):
        # certification survives any cone-larger slack on the same grid
        phi = scalar_map(((2,), Fraction(1)), ((1,), Fraction(-1)))
        grid = grid1(-1, 1, 21)
        T = LinearOperator.column([0])
        assert eps_subdiff_contains(phi, RAY, V(0), T, V("1/4"), grid).certified
        for bigger in ("1/2", 1, 3):
            assert eps_subdiff_contains(phi, RAY, V(0), T, V(bigger), grid).certified


class TestScalarInterval:
    def test_absolute_value_interval(self):
        grid = grid1(-1, 1, 9)
        interval = scalar_eps_subdiff_interval(abs_map(grid), 0, 0, grid)
        assert (interval.lo, interval.hi) == (Fraction(-1), Fraction(1))

    def test_square_with_quarter_slack(self):
        # closed form: slopes t with t^2 <= 4 * (1/4), i.e. [-1, 1]; the grid
        # contains the minimizers +-1/2, so the endpoints are exact
        phi = scalar_map(((2,), Fraction(1)))
        interval = scalar_eps_subdiff_interval(phi, 0, "1/4", grid1(-1, 1, 101))
        assert (interval.lo, interval.hi) == (Fraction(-1), Fraction(1))

    def test_square_zero_slack_tightens_with_grid(self):
        phi = scalar_map(((2,), Fraction(1)))
        coarse = scalar_eps_subdiff_interval(phi, 0, 0, grid1(-1, 1, 11))
        fine = scalar_eps_subdiff_interval(phi, 0, 0, grid1(-1, 1, 101))
        assert (coarse.lo, coarse.hi) == (Fraction(-1, 5), Fraction(1, 5))
        assert (fine.lo, fine.hi) == (Fraction(-1, 50), Fraction(1, 50))

    def test_brute_force_oracle_matches(self):
        # independent recomputation of the defining quotients
        phi = scalar_map(((2,), Fraction(1)), ((1,), Fraction(1, 2)))
        grid = grid1(-1, 1, 17)
        eps = Fraction(1, 8)
        interval = scalar_eps_subdiff_interval(phi, 0, eps, grid)
        base = phi.evaluate(V(0))[0]
        ups = [(phi.evaluate(p)[0] - base + eps) / p[0]
               for p in grid.points() if p[0] > 0]
        downs = [(phi.evaluate(p)[0] - base + eps) / p[0]
                 for p in grid.points() if p[0] < 0]
        assert interval.hi == min(ups)
        assert interval.lo == max(downs)

    def test_monotone_in_eps_and_antitone_in_grid(self):
        phi = scalar_map(((2,), Fraction(1)))
        grid = grid1(-1, 1, 41)
        previous = None
        for eps in (0, "1/16", "1/4", 1):
            interval = scalar_eps_subdiff_interval(phi, 0, eps, grid)
            if previous is not None:
                assert interval.lo <= previous.lo and previous.hi <= interval.hi
            previous = interval
        coarse = scalar_eps_subdiff_interval(phi, 0, "1/4", grid1(-1, 1, 5))
        fine = scalar_eps_subdiff_interval(phi, 0, "1/4", grid1(-1, 1, 41))
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi

    def test_one_sided_grid_leaves_open_end(self):
        phi = scalar_map(((2,), Fraction(1)))
        interval = scalar_eps_subdiff_interval(phi, 0, 0, grid1(0, 1, 5))
        assert interval.lo is None and interval.hi is not None

    def test_empty_interval_signalled(self):
        grid = grid1(-1, 1, 9)
        neg_abs = VectorMap(1, 1, ((),),
                            tuple((p, V(-abs(p[0]))) for p in grid.points()))
        interval = scalar_eps_subdiff_interval(neg_abs, 0, 0, grid)
        assert interval.lo == 1 and interval.hi == -1
        assert interval.is_empty
