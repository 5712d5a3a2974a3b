"""Cone algebra: membership, duality, lineality."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcverify import (
    ConeError,
    DimensionMismatchError,
    InteriorEmptyError,
    PolyhedralCone,
    RationalVector,
    cone_contains,
    cones,
    dual_cone,
    nonnegative_orthant,
    parse_problem,
    parse_rational,
)
from dcverify.cones import _cleared
from conftest import random_cone, rationals

V = RationalVector.of


def combo(coeffs, vectors):
    total = RationalVector.zero(vectors[0].dim)
    for c, v in zip(coeffs, vectors):
        total = total + v.scale(c)
    return total


class TestMembership:
    def test_quadrant_interior(self):
        K = nonnegative_orthant(2)
        assert cone_contains(K, V(1, 1), strict=True)

    def test_quadrant_boundary_ray(self):
        K = nonnegative_orthant(2)
        assert not cone_contains(K, V(1, 0), strict=True)
        assert cone_contains(K, V(1, 0))

    def test_nonneg_combination(self):
        # (2,1) = 1*(1,0) + 1*(1,1), solved by hand
        g1, g2 = V(1, 0), V(1, 1)
        cone = PolyhedralCone.from_generators([g1, g2])
        assert combo([1, 1], [g1, g2]) == V(2, 1)
        assert cone_contains(cone, V(2, 1))
        assert not cone_contains(cone, V(-1, 0))

    def test_zero_vector_is_member(self):
        for cone in (nonnegative_orthant(2),
                     PolyhedralCone.from_generators([V(1, 0), V(1, 1)])):
            assert cone_contains(cone, RationalVector.zero(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cone_contains(nonnegative_orthant(2), V(1, 2, 3))

    def test_strict_on_flat_cone_signals_interior_empty(self):
        ray = PolyhedralCone.from_generators([V(1, 0)])
        with pytest.raises(InteriorEmptyError):
            cone_contains(ray, V(1, 0), strict=True)

    def test_construction_rejects_dim_5(self):
        with pytest.raises(ConeError):
            PolyhedralCone.from_generators([V(1, 0, 0, 0, 0)])

    def test_construction_rejects_zero_generator(self):
        with pytest.raises(ConeError):
            PolyhedralCone.from_generators([V(0, 0)])


class TestDualCone:
    def test_quadrant_self_dual(self):
        K = nonnegative_orthant(2)
        assert dual_cone(K) == K

    def test_wedge_dual(self):
        # halfspaces y1 >= 0 and y1 + y2 >= 0; extreme rays (0,1), (1,-1)
        cone = PolyhedralCone.from_generators([V(1, 0), V(1, 1)])
        dual = dual_cone(cone)
        assert set(dual.generators) == {V(0, 1), V(1, -1)}

    def test_involution(self):
        cone = PolyhedralCone.from_generators([V(2, 1), V(1, 3)])
        assert dual_cone(dual_cone(cone)) == cone

    def test_involution_redundant_generators(self):
        lean = PolyhedralCone.from_generators([V(1, 0), V(1, 1)])
        fat = PolyhedralCone.from_generators([V(1, 0), V(1, 1), V(2, 1), V(3, 2)])
        assert lean == fat
        assert dual_cone(dual_cone(fat)) == lean

    def test_dual_of_full_space_raises(self):
        full = PolyhedralCone.from_generators([V(1, 0), V(-1, 0), V(0, 1), V(0, -1)])
        with pytest.raises(ConeError):
            dual_cone(full)

    def test_membership_against_dual_description(self):
        # v in cone iff v pairs nonnegatively with every dual generator
        rng = random.Random(11)
        for _ in range(25):
            cone = random_cone(rng, 2)
            dual = dual_cone(cone)
            v = V(Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)))
            by_halfspace = cone_contains(cone, v)
            by_dual = all(g.dot(v) >= 0 for g in dual.generators)
            assert by_halfspace == by_dual


class TestLinearity:
    def test_pointed_cone_empty_basis(self):
        assert list(nonnegative_orthant(2).lineality_basis) == []

    def test_halfplane_basis(self):
        halfplane = PolyhedralCone.from_generators([V(1, 0), V(-1, 0), V(0, 1)])
        assert [b.primitive() for b in halfplane.lineality_basis] == [V(1, 0)]

    def test_full_plane_basis_dimension(self):
        full = PolyhedralCone.from_generators([V(1, 0), V(-1, 0), V(0, 1), V(0, -1)])
        assert len(full.lineality_basis) == 2

    def test_lineality_vectors_are_two_sided_members(self):
        rng = random.Random(17)
        for _ in range(25):
            cone = random_cone(rng, 3)
            for b in cone.lineality_basis:
                assert cone_contains(cone, b) and cone_contains(cone, -b)


class TestConeProperties:
    def test_interior_pairing_positive_with_dual_generators(self):
        # interior points pair strictly positively with every nonzero dual
        # generator, exactly
        rng = random.Random(19)
        for dim in (2, 3, 4):
            for _ in range(12):
                cone = random_cone(rng, dim)
                if not cone.full_dimensional:
                    continue
                coeffs = [Fraction(rng.randint(1, 4), rng.choice([1, 2])) for _ in cone.generators]
                v = combo(coeffs, list(cone.generators))
                assert cone_contains(cone, v, strict=True)
                for ystar in dual_cone(cone).generators:
                    assert ystar.dot(v) > 0

    def test_involution_random_corpus(self):
        rng = random.Random(23)
        for dim in (2, 3, 4):
            for _ in range(10):
                cone = random_cone(rng, dim)
                assert dual_cone(dual_cone(cone)) == cone

    def test_strict_implies_nonstrict(self):
        rng = random.Random(29)
        for _ in range(30):
            cone = random_cone(rng, 2)
            if not cone.full_dimensional:
                continue
            v = V(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
            if cone_contains(cone, v, strict=True):
                assert cone_contains(cone, v)

    def test_closed_under_random_nonneg_combinations(self):
        rng = random.Random(31)
        for _ in range(20):
            cone = random_cone(rng, 3)
            coeffs = [Fraction(rng.randint(0, 5), rng.choice([1, 2, 3])) for _ in cone.generators]
            assert cone_contains(cone, combo(coeffs, list(cone.generators)))

    def test_canonical_equality_across_descriptions(self):
        a = PolyhedralCone.from_generators([V(2, 0), V(3, 3)])
        b = PolyhedralCone.from_generators([V(1, 1), V(1, 0), V(5, 2)])
        assert a == b


class TestFromHalfspaces:
    def test_round_trip_on_random_corpus(self):
        # each random cone, and the cone it spans with the line through its
        # first generator, is rebuilt from its own halfspaces
        rng = random.Random(37)
        with_line = set()
        for dim in (2, 3, 4):
            for _ in range(15):
                cone = random_cone(rng, dim)
                lined = PolyhedralCone.from_generators([*cone.generators, -cone.generators[0]])
                for K in (cone, lined):
                    if K.halfspaces:
                        assert PolyhedralCone.from_halfspaces(K.halfspaces, K.dim) == K
                        if K.lineality_basis:
                            with_line.add(dim)
        assert with_line == {2, 3, 4}

    def test_two_double_description_passes(self, monkeypatch):
        # the V-form of the given normals, then the V-form of its dual
        calls = 0
        dd_rays = cones._dd_rays

        def counted(normals, dim):
            nonlocal calls
            calls += 1
            return dd_rays(normals, dim)

        monkeypatch.setattr(cones, "_dd_rays", counted)
        for normals in ([V(1, 0), V(0, 1)], [V(1, 0, 0)], SLOW_HALFSPACES):
            calls = 0
            PolyhedralCone.from_halfspaces(normals)
            assert calls == 2

    def test_normals_of_another_dimension_raise(self):
        with pytest.raises(DimensionMismatchError):
            PolyhedralCone.from_halfspaces([V(1, 0)], dim=3)
        with pytest.raises(DimensionMismatchError):
            PolyhedralCone.from_halfspaces([V(1, 0), V(0, 1, 1)])

    def test_zero_cone_raises(self):
        with pytest.raises(ConeError, match="zero cone"):
            PolyhedralCone.from_halfspaces([V(1, 0), V(-1, 0), V(0, 1), V(0, -1)])
        with pytest.raises(ConeError, match="zero cone"):
            PolyhedralCone.from_halfspaces([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1),
                                            V(-1, -1, -1)])


# A 4-D cone whose canonical form took about 20 s when the double
# description combined every plus/minus pair and filtered by rank.
SLOW_GENERATORS = [V(-5, -4, 1, 2), V(-4, -4, -5, 5), V(-4, 3, -1, -5), V(-4, 3, 2, -4),
                   V(0, -2, -1, -3)]
SLOW_HALFSPACES = (V(-59, 46, -149, 19), V(-57, 52, -23, -27), V(-28, -22, 41, 1),
                   V(-13, -8, -2, 6), V(-1, -34, 7, -21), V(27, -142, -83, -175))


class TestDoubleDescription:
    @pytest.fixture
    def bounded_work(self, monkeypatch):
        """Fail once the double description makes more than 200 primitive
        integer rays: the work bound is a count, not wall time."""
        calls = 0
        make_primitive = cones._int_primitive

        def counted(row):
            nonlocal calls
            calls += 1
            if calls > 200:
                raise AssertionError("more than 200 _int_primitive calls")
            return make_primitive(row)

        monkeypatch.setattr(cones, "_int_primitive", counted)

    def test_five_generator_cone_in_4d(self, bounded_work):
        cone = PolyhedralCone.from_generators(SLOW_GENERATORS)
        assert cone.generators == tuple(SLOW_GENERATORS)
        assert cone.halfspaces == SLOW_HALFSPACES
        assert cone.lineality_basis == () and cone.full_dimensional

    def test_same_cone_from_its_halfspaces(self, bounded_work):
        cone = PolyhedralCone.from_halfspaces(SLOW_HALFSPACES)
        assert cone.generators == tuple(SLOW_GENERATORS)
        assert cone.halfspaces == SLOW_HALFSPACES

    def test_declared_as_k_in_a_problem_file(self, bounded_work):
        generator_lines = "".join(
            "generator = " + " ".join(str(c) for c in g) + "\n" for g in SLOW_GENERATORS)
        text = (
            "[spaces]\nx_dim = 1\ny_dim = 4\nz_dim = 1\n\n"
            f"[cone K]\n{generator_lines}\n"
            "[cone D]\ngenerator = 1\n\n"
            "[map F]\n\n[map G]\n\n[map H]\n\n[map S]\npoly 0 = 1 0\n\n"
            "[set C]\nlower = -1\nupper = 1\n\n"
            "[point]\nxbar = 0\neps = 0 0 0 0\n"
        )
        K = parse_problem(text).problem.K
        assert K.generators == tuple(SLOW_GENERATORS)
        assert K.halfspaces == SLOW_HALFSPACES


class TestRationalParsing:
    def test_parse_fraction(self):
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational("7") == 7

    def test_decimals_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("0.5")

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("3/0")


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def regex_parse_rational(text: str) -> Fraction:
    """The oracle: `parse_rational` as a regex match, then `Fraction(str)`."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an integer or p/q rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


# ASCII and other Unicode decimal digits (Arabic-Indic three, fullwidth
# five), and digits that are not decimal (superscript two, one half)
DIGITS = "0123456789\u0663\uff15\u00b2\u00bd"
LITERAL_TEXT = st.one_of(
    st.text(DIGITS + "+-/ _.e\t\n", max_size=12),
    st.builds("".join, st.lists(st.sampled_from([" ", "+", "-", "/", "0", "1", "12", "_", "."]
                                                 + list(DIGITS)), max_size=8)))


@given(LITERAL_TEXT)
def test_parse_rational_matches_regex_oracle(text):
    """Same Fraction, or the same ValueError message, as the regex oracle."""
    def outcome(parse):
        try:
            return parse(text)
        except ValueError as exc:
            return str(exc)
    assert outcome(parse_rational) == outcome(regex_parse_rational)


@given(st.lists(rationals(-20, 20, max_denominator=12), max_size=5),
       st.lists(st.integers(1, 12), max_size=3))
def test_cleared_is_the_least_clearing_scale(values, dens):
    """`_cleared(values, *dens)` gives d > 0, a multiple of every one of
    dens, and each value times d as an int; no smaller d does both, since
    d / p fails for every prime p dividing d."""
    d, ints = _cleared(values, *dens)
    assert d > 0 and all(d % e == 0 for e in dens)
    assert len(ints) == len(values)
    assert all(type(n) is int and n == v * d for n, v in zip(ints, values))
    primes = [p for p in range(2, d + 1) if d % p == 0 and all(p % r for r in range(2, p))]
    for p in primes:
        e = d // p
        assert any(e % den for den in dens) or any((v * e).denominator != 1 for v in values)
