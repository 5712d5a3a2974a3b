"""Differential tests of the cone layer against the code it replaced.

Two oracles are kept here, each pasted from an earlier version of
``cones`` with only the names changed, so neither test compares the
current code with itself:

* The rank-filtered double description (``oracle_dd_rays`` and
  ``oracle_vform_of_hcone``) starts from +-e_i, combines every plus/minus
  pair and prunes by active-set rank; ``oracle_vform_of_hcone`` keeps only
  the rays whose active set has the rank of an extreme ray.  It is swapped
  in for ``cones._vform_of_hcone``, the seam both constructors call, and
  must give an equal ``PolyhedralCone`` or the same ``ConeError`` message.
  Its ray set grows quadratically while the intermediate cone still
  contains a line, so in 4-D it can run for many seconds from five
  generators on; those inputs are capped at four vectors.  The code under
  test has no such limit (see ``test_cones.py::TestDoubleDescription``).
* The ``Fraction`` canonicalization (``fraction_from_generators`` and
  ``fraction_from_halfspaces``) computes the input rows, the RREF
  lineality basis, the Gram projection and the internal-error check over
  ``Fraction`` around today's ``cones._dd_rays``, and builds
  ``from_halfspaces`` through ``from_generators``.  It must agree with the
  integer layer on rational inputs with non-integer coordinates, up to six
  vectors in every dimension.

Membership is checked against plain ``Fraction`` dot products on the
stored halfspaces.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcverify import (
    ConeError,
    DimensionMismatchError,
    InteriorEmptyError,
    PolyhedralCone,
    RationalVector,
    cone_contains,
    cones,
)
from dcverify.cones import MAX_CONE_DIM, IntRow, _int_primitive
from conftest import random_cone

Row = tuple[Fraction, ...]


# --- exact linear algebra on tuples of Fractions, as the oracle ------------


def oracle_rref(rows: Sequence[Row], dim: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    row_idx = 0
    for col in range(dim):
        pivot_row = None
        for r in range(row_idx, len(mat)):
            if mat[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[row_idx], mat[pivot_row] = mat[pivot_row], mat[row_idx]
        pv = mat[row_idx][col]
        mat[row_idx] = [v / pv for v in mat[row_idx]]
        for r in range(len(mat)):
            if r != row_idx and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row_idx])]
        pivots.append(col)
        row_idx += 1
        if row_idx == len(mat):
            break
    return mat[:row_idx], pivots


def oracle_null_space_basis(rows: Sequence[Row], dim: int) -> list[Row]:
    """Canonical (RREF-derived) basis of {x : <r, x> = 0 for all rows r}."""
    reduced, pivots = oracle_rref(rows, dim)
    free_cols = [c for c in range(dim) if c not in pivots]
    basis: list[Row] = []
    for fc in free_cols:
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for r, pc in zip(reduced, pivots):
            vec[pc] = -r[fc]
        basis.append(tuple(vec))
    return basis


def oracle_project_off(vec: Row, basis: Sequence[Row]) -> Row:
    """Project vec onto the orthogonal complement of span(basis), exactly."""
    if not basis:
        return vec
    k = len(basis)
    # the Gram matrix is invertible, so [gram | rhs] reduces to [I | lam]
    aug = [tuple(sum(a * b for a, b in zip(basis[i], w)) for w in (*basis, vec))
           for i in range(k)]
    reduced, _ = oracle_rref(aug, k)
    proj = list(vec)
    for row, bvec in zip(reduced, basis):
        proj = [p - row[k] * b for p, b in zip(proj, bvec)]
    return tuple(proj)


def oracle_primitive_row(row: Row) -> Row:
    return RationalVector(row).primitive().coords


def oracle_to_int_row(row: Row) -> IntRow:
    prim = oracle_primitive_row(row)
    return tuple(int(v) for v in prim)


# --- the rank-filtered double description, as the oracle -------------------


def oracle_int_rank(rows: Sequence[IntRow], dim: int) -> int:
    """Rank of integer rows by fraction-free elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(dim):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        pval = prow[col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                f = mat[r][col]
                mat[r] = [v * pval - w * f for v, w in zip(mat[r], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def oracle_dd_rays(normals: Sequence[IntRow], dim: int) -> list[IntRow]:
    """Generating rays of {y : <a, y> >= 0 for all a in normals}.

    Incremental double description starting from the whole space (generated
    by +-e_i), inserting one halfspace at a time.  All positive/negative ray
    pairs are combined, which is exact; after each step the ray set is
    pruned back to the rays whose active-constraint rank is at least
    rank(processed) - 1, i.e. lineality members and extreme-class
    representatives of the intermediate cone, which keeps the set small
    while still generating the same cone.  All arithmetic is on primitive
    integer vectors.
    """
    rays: list[IntRow] = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        rays.append(tuple(e))
        rays.append(tuple(-v for v in e))
    processed: list[IntRow] = []
    for a in normals:
        plus, zero, minus = [], [], []
        for r in rays:
            s = sum(x * y for x, y in zip(a, r))
            if s > 0:
                plus.append((r, s))
            elif s == 0:
                zero.append(r)
            else:
                minus.append((r, s))
        new_rays = [r for r, _ in plus] + zero
        seen = set(new_rays)
        for rp, sp in plus:
            for rm, sm in minus:
                combo = tuple(sp * m - sm * p for p, m in zip(rp, rm))
                if all(v == 0 for v in combo):
                    continue
                key = _int_primitive(combo)
                if key not in seen:
                    seen.add(key)
                    new_rays.append(key)
        processed.append(a)
        min_rank = oracle_int_rank(processed, dim) - 1
        kept = []
        for r in sorted(set(new_rays)):
            active = [n for n in processed
                      if sum(x * y for x, y in zip(n, r)) == 0]
            if oracle_int_rank(active, dim) >= min_rank:
                kept.append(r)
        rays = kept
        if not rays:
            break
    return rays


def oracle_vform_of_hcone(normals: Sequence[Row], dim: int) -> tuple[list[Row], list[Row]]:
    """Canonical V-form of the cone {y : <a, y> >= 0 for all a in normals}.

    Returns (lineality basis, extreme-ray representatives).  The lineality
    basis is the RREF basis of the common kernel of the normals.  Each
    extreme-ray class modulo the lineality space is represented by the
    primitive integer vector of its projection onto the orthogonal
    complement of the lineality space, which makes the returned sets
    independent of how the cone was described.
    """
    int_normals = sorted({oracle_to_int_row(n) for n in normals if any(v != 0 for v in n)})
    frac_normals = [tuple(Fraction(v) for v in n) for n in int_normals]
    lin_basis = [oracle_primitive_row(b) for b in oracle_null_space_basis(frac_normals, dim)]
    target_rank = dim - len(lin_basis) - 1
    reps: set[Row] = set()
    if target_rank >= 0:
        for ray in oracle_dd_rays(int_normals, dim):
            active = [a for a in int_normals
                      if sum(x * y for x, y in zip(a, ray)) == 0]
            if oracle_int_rank(active, dim) != target_rank:
                continue
            proj = oracle_project_off(tuple(Fraction(v) for v in ray), lin_basis)
            if any(v != 0 for v in proj):
                reps.add(oracle_primitive_row(proj))
    return lin_basis, sorted(reps)


def oracle_int_vform(normals: Sequence[IntRow], dim: int) -> tuple[list[IntRow], list[IntRow]]:
    """``oracle_vform_of_hcone`` with the seam's types: int rows in and out."""
    lin_basis, reps = oracle_vform_of_hcone([tuple(map(Fraction, n)) for n in normals], dim)
    return [oracle_to_int_row(b) for b in lin_basis], [oracle_to_int_row(r) for r in reps]


# --- comparison ------------------------------------------------------------


def build(make, *args):
    try:
        return make(*args)
    except ConeError as err:
        return f"ConeError: {err}"


def oracle_build(make, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_vform_of_hcone", oracle_int_vform)
        return build(make, *args)


@st.composite
def vector_sets(draw):
    """Dims 1-3 with up to six vectors, 4-D with up to four; sometimes the
    negation of the first vector is among them, so lines occur often."""
    dim = draw(st.integers(1, 4))
    most = 4 if dim == 4 else 6
    vectors = st.tuples(*[st.integers(-4, 4)] * dim)
    rows = draw(st.lists(vectors, min_size=1, max_size=most))
    if len(rows) < most and draw(st.booleans()):
        rows.append(tuple(-v for v in rows[0]))
    return dim, [RationalVector.of(*r) for r in rows]


@settings(max_examples=200)
@given(vector_sets())
def test_cones_match_rank_filtered_oracle(case):
    dim, vectors = case
    for make, args in ((PolyhedralCone.from_generators, (vectors,)),
                       (PolyhedralCone.from_halfspaces, (vectors, dim))):
        assert build(make, *args) == oracle_build(make, *args)


def test_generated_sets_reach_every_cone_shape():
    """The strategy is not degenerate: in every dimension from 2 on, both
    constructions yield pointed cones and cones with a line, full-dimensional
    or flat, as far as four vectors allow in 4-D (a full-dimensional cone
    with a line needs five generators, a flat pointed one five normals), and
    the error paths are reached too."""
    shapes = set()

    @settings(max_examples=200)
    @given(vector_sets())
    def collect(case):
        dim, vectors = case
        for kind, cone in (("V", build(PolyhedralCone.from_generators, vectors)),
                           ("H", build(PolyhedralCone.from_halfspaces, vectors, dim))):
            if isinstance(cone, str):
                shapes.add((kind, cone))
                continue
            lin = len(cone.lineality_basis)
            shape = "space" if lin == dim else "line" if lin else "pointed"
            shapes.add((kind, dim, shape, cone.full_dimensional))

    collect()
    every_shape = {(shape, full) for shape in ("pointed", "line") for full in (True, False)}
    for kind in "VH":
        for dim in (2, 3):
            assert {(kind, dim, *shape) for shape in every_shape} <= shapes
        assert (kind, 3, "space", True) in shapes
    assert {("V", 4, "pointed", True), ("V", 4, "pointed", False), ("V", 4, "line", False),
            ("H", 4, "pointed", True), ("H", 4, "line", True), ("H", 4, "line", False)} <= shapes
    assert ("V", "ConeError: zero vector is not allowed as a generator") in shapes
    assert ("H", "ConeError: the given halfspaces define the zero cone") in shapes


# --- the Fraction canonicalization around today's double description -------


def fraction_vform_of_hcone(normals: Sequence[Row], dim: int) -> tuple[list[Row], list[Row]]:
    int_normals = sorted({oracle_to_int_row(n) for n in normals if any(v != 0 for v in n)})
    frac_normals = [tuple(Fraction(v) for v in n) for n in int_normals]
    lin_basis = [oracle_primitive_row(b) for b in oracle_null_space_basis(frac_normals, dim)]
    reps = {oracle_primitive_row(oracle_project_off(tuple(Fraction(v) for v in ray), lin_basis))
            for ray in cones._dd_rays(int_normals, dim)}
    return lin_basis, sorted(reps)


def fraction_from_generators(generators: Sequence[RationalVector]) -> PolyhedralCone:
    gens = list(generators)
    if not gens:
        raise ConeError("a cone needs at least one generator")
    dim = gens[0].dim
    if dim > MAX_CONE_DIM:
        raise ConeError(f"ambient dimension {dim} exceeds supported maximum {MAX_CONE_DIM}")
    for g in gens:
        if g.dim != dim:
            raise DimensionMismatchError("generators of mixed dimension")
        if g.is_zero():
            raise ConeError("zero vector is not allowed as a generator")
    gen_rows = sorted({g.primitive().coords for g in gens})

    # halfspaces of the cone = canonical V-form of its dual
    dual_lin, dual_reps = fraction_vform_of_hcone(gen_rows, dim)
    halfspace_rows = sorted(set(dual_reps)
                            | {b for b in dual_lin}
                            | {tuple(-v for v in b) for b in dual_lin})
    # canonical generators = canonical V-form of the halfspace cone
    lin, reps = fraction_vform_of_hcone(halfspace_rows, dim)
    canon_rows = sorted(set(reps)
                        | {b for b in lin}
                        | {tuple(-v for v in b) for b in lin})
    if not canon_rows:
        raise ConeError("degenerate construction: the zero cone is not representable")

    cone = PolyhedralCone(
        dim=dim,
        generators=tuple(RationalVector(r) for r in canon_rows),
        halfspaces=tuple(RationalVector(r) for r in halfspace_rows),
        lineality_basis=tuple(RationalVector(b) for b in lin),
        full_dimensional=(len(dual_lin) == 0),
    )
    for g in gen_rows:
        gv = RationalVector(g)
        for a in cone.halfspaces:
            if a.dot(gv) < 0:
                raise ConeError(f"internal error: generator {gv} violates halfspace {a}")
    return cone


def fraction_from_halfspaces(normals: Sequence[RationalVector], dim: int) -> PolyhedralCone:
    rows = list(normals)
    if not rows:
        raise ConeError("halfspace construction needs at least one normal")
    if dim > MAX_CONE_DIM:
        raise ConeError(f"ambient dimension {dim} exceeds supported maximum {MAX_CONE_DIM}")
    lin, reps = fraction_vform_of_hcone([r.coords for r in rows], dim)
    gen_rows = sorted(set(reps) | {b for b in lin} | {tuple(-v for v in b) for b in lin})
    if not gen_rows:
        raise ConeError("the given halfspaces define the zero cone")
    return fraction_from_generators([RationalVector(r) for r in gen_rows])


@st.composite
def rational_vector_sets(draw):
    """Dims 1-4 with up to six vectors whose coordinates are p/q with
    q up to 6; sometimes a rescaled negation of the first vector is among
    them, so lines occur often, and sometimes a rescaled copy, so that
    equal directions with different denominators meet."""
    dim = draw(st.integers(1, 4))
    coords = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=6))
    for sign in (-1, 1):
        if len(rows) < 6 and draw(st.booleans()):
            scale = sign * draw(st.builds(Fraction, st.integers(1, 5), st.integers(1, 5)))
            rows.append(tuple(scale * v for v in rows[0]))
    return dim, [RationalVector(r) for r in rows]


@settings(max_examples=300)
@given(rational_vector_sets())
def test_integer_layer_matches_fraction_canonicalization(case):
    dim, vectors = case
    assert (build(PolyhedralCone.from_generators, vectors)
            == build(fraction_from_generators, vectors))
    assert (build(PolyhedralCone.from_halfspaces, vectors, dim)
            == build(fraction_from_halfspaces, vectors, dim))


def test_rational_sets_reach_every_cone_shape():
    """The strategy is not degenerate: in every dimension it yields pointed
    and lined cones with non-integer input coordinates, and 4-D sets of
    five and six vectors."""
    shapes = set()

    @settings(max_examples=300)
    @given(rational_vector_sets())
    def collect(case):
        dim, vectors = case
        cone = build(PolyhedralCone.from_generators, vectors)
        if isinstance(cone, str) or all(c.denominator == 1 for v in vectors for c in v):
            return
        shapes.add((dim, "line" if cone.lineality_basis else "pointed"))
        if dim == 4:
            shapes.add((dim, len(vectors)))

    collect()
    assert {(dim, shape) for dim in (1, 2, 3, 4) for shape in ("line", "pointed")} <= shapes
    assert {(4, 5), (4, 6)} <= shapes


# --- membership against Fraction dot products --------------------------------


def fraction_member(cone: PolyhedralCone, v: RationalVector, strict: bool) -> bool:
    pairings = [sum((a * b for a, b in zip(h.coords, v.coords)), Fraction(0))
                for h in cone.halfspaces]
    return all(p > 0 if strict else p >= 0 for p in pairings)


@st.composite
def membership_cases(draw):
    """A cone from ``conftest.random_cone``: as drawn (pointed), with the
    line through its first generator, or flat (its first dim - 1
    generators), and query vectors with mixed denominators: the zero
    vector, rescaled generators on the boundary and random ones."""
    dim = draw(st.integers(1, 4))
    cone = random_cone(random.Random(draw(st.integers(0, 2 ** 32))), dim)
    shape = draw(st.sampled_from(["pointed", "lined", "flat"]))
    if shape == "lined":
        cone = PolyhedralCone.from_generators([*cone.generators, -cone.generators[0]])
    elif shape == "flat":
        cone = PolyhedralCone.from_generators(cone.generators[:max(dim - 1, 1)])
    coords = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
    scale = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 7))
    random_vectors = st.tuples(*[coords] * dim).map(RationalVector)
    on_generators = st.tuples(st.sampled_from(cone.generators), scale).map(
        lambda gs: gs[0].scale(gs[1]))
    vectors = st.one_of(st.just(RationalVector.zero(dim)), on_generators, random_vectors)
    return cone, draw(st.lists(vectors, min_size=2, max_size=6))


@settings(max_examples=300)
@given(membership_cases())
def test_membership_matches_fraction_dot_products(case):
    cone, vectors = case
    for v in vectors:
        for strict in (False, True):
            if strict and not cone.full_dimensional:
                for member in (cone.contains, lambda v, strict: cone_contains(cone, v, strict)):
                    with pytest.raises(InteriorEmptyError):
                        member(v, strict=True)
                continue
            expected = fraction_member(cone, v, strict)
            assert cone.contains(v, strict=strict) == expected
            assert cone_contains(cone, v, strict=strict) == expected


def test_membership_cases_reach_every_outcome():
    """The strategy is not degenerate: every cone shape occurs, and both
    verdicts of strict and non-strict membership occur, the boundary case
    (member but not interior) among them."""
    outcomes = set()

    @settings(max_examples=300)
    @given(membership_cases())
    def collect(case):
        cone, vectors = case
        lin = len(cone.lineality_basis)
        outcomes.add(("line" if lin else "pointed", cone.full_dimensional))
        for v in vectors:
            strict = cone.full_dimensional and fraction_member(cone, v, True)
            outcomes.add((fraction_member(cone, v, False), strict))

    collect()
    assert {("pointed", True), ("pointed", False), ("line", True), ("line", False),
            (True, True), (True, False), (False, False)} <= outcomes


def test_membership_checks_dimensions():
    cone = PolyhedralCone.from_generators([RationalVector.of(1, 0), RationalVector.of(1, 1)])
    bad = RationalVector.of(1, 2, 3)
    with pytest.raises(DimensionMismatchError):
        cone.contains(bad)
    with pytest.raises(DimensionMismatchError):
        cone_contains(cone, bad, strict=True)
    ray = PolyhedralCone.from_generators([RationalVector.of(1, 0)])
    with pytest.raises(DimensionMismatchError):
        ray.contains(bad, strict=True)
    with pytest.raises(InteriorEmptyError):
        cone_contains(ray, RationalVector.of(1, 0), strict=True)
