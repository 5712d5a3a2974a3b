"""Shared corpus builders for the test suite.

Random corpora are generated from fixed seeds so every run is
deterministic.  Builders either guarantee a property by construction
(documented per builder) or are plain random samples.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from dcverify import (
    BoxSet,
    ConeError,
    DCProblem,
    PolyhedralCone,
    RationalVector,
    VectorMap,
)
from dcverify.scenarios import load_scenario_problem

# Property tests draw the same examples on every run, keep no example
# database on disk, and have no per-example time limit.
settings.register_profile("dcverify", derandomize=True, database=None, deadline=None)
settings.load_profile("dcverify")


@pytest.fixture(scope="session")
def quartic_quadratic():
    """The shipped quartic/quadratic instance (vector objective)."""
    return load_scenario_problem("example-3-1")


@pytest.fixture(scope="session")
def exceptional_point():
    """The shipped exceptional-point instance (scalar objective)."""
    return load_scenario_problem("example-4-1")


@cache
def rationals(lo: int | None = None, hi: int | None = None, max_denominator: int = 1):
    """Fractions n/d with 1 <= d <= max_denominator and lo <= n/d <= hi
    (unbounded where None), drawn as two integers from strategies built
    once per bounds; drawing from `st.fractions` costs far more than the
    checks under test."""
    denominators = st.integers(1, max_denominator)
    numerators = {d: st.integers(None if lo is None else lo * d, None if hi is None else hi * d)
                  for d in range(1, max_denominator + 1)}

    @st.composite
    def rational(draw):
        d = draw(denominators)
        return Fraction(draw(numerators[d]), d)

    return rational()


def random_cone(rng: random.Random, dim: int) -> PolyhedralCone:
    """A random cone with a nonzero dual (needed for dual-cone round trips)."""
    while True:
        count = rng.randint(2, dim + 3)
        gens = []
        for _ in range(count):
            coords = tuple(Fraction(rng.randint(-5, 5)) for _ in range(dim))
            if any(coords):
                gens.append(RationalVector(coords))
        if not gens:
            continue
        try:
            cone = PolyhedralCone.from_generators(gens)
        except ConeError:
            continue
        if not cone.halfspaces:
            continue
        return cone


def quadratic_monomials(a: Fraction, b: Fraction, c: Fraction):
    """Monomial list of a*x^2 + b*x + c over a 1-D domain."""
    return [((2,), Fraction(a)), ((1,), Fraction(b)), ((0,), Fraction(c))]


def random_coeff(rng: random.Random, lo: int = -4, hi: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice([1, 2, 4]))


def scalar_map(*monos, exceptions=()) -> VectorMap:
    return VectorMap(1, 1, (tuple(monos),), tuple(exceptions))


def constraint_pair(rng: random.Random):
    """D-convex H, S with H - S <= 0 on [-1, 1] and strictly negative at 0.

    S is a random convex quadratic and H = S + r with r a convex quadratic
    minus a constant exceeding its maximum on the box, so every point of the
    box is feasible and the complementarity slack at 0 is strictly negative.
    """
    a_s = Fraction(rng.randint(0, 3))
    b_s = random_coeff(rng)
    a_r = Fraction(rng.randint(0, 2))
    u = random_coeff(rng, -2, 2)
    # r(x) = a_r (x - u)^2 - M with M > max over |x| <= 1
    peak = a_r * max((Fraction(-1) - u) ** 2, (Fraction(1) - u) ** 2)
    M = peak + 1
    S = scalar_map(((2,), a_s), ((1,), b_s))
    H = scalar_map(
        ((2,), a_s + a_r),
        ((1,), b_s - 2 * a_r * u),
        ((0,), a_r * u * u - M),
    )
    return H, S


def scalar_problem(F: VectorMap, G: VectorMap, H: VectorMap, S: VectorMap,
                   eps: Fraction = Fraction(0)) -> DCProblem:
    ray = PolyhedralCone.from_generators([RationalVector.of(1)])
    return DCProblem(
        x_dim=1, y_dim=1, z_dim=1, F=F, G=G, H=H, S=S,
        C=BoxSet(RationalVector.of(-1), RationalVector.of(1)),
        K=ray, D=ray,
        eps=RationalVector.of(eps), xbar=RationalVector.of(0),
    )
