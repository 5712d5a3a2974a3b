"""Differential tests of the double-description core.

``cones._dd_rays`` keeps the lineality basis apart from the rays and combines
only adjacent ray pairs.  The oracle below is the routine it replaced, kept
unchanged apart from the ``oracle_`` names: it starts from +-e_i, combines
every plus/minus pair and prunes by active-set rank, and its
``_vform_of_hcone`` keeps only the rays whose active set has the rank of an
extreme ray.  Both must give equal ``PolyhedralCone`` dataclasses, or the
same ``ConeError`` message, from ``from_generators`` and ``from_halfspaces``.

The oracle's ray set grows quadratically while the intermediate cone still
contains a line, so in 4-D it can run for many seconds from five generators
on; the 4-D inputs are therefore capped at four vectors.  The code under test
has no such limit (see ``test_cones.py::TestDoubleDescription``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcverify import ConeError, PolyhedralCone, RationalVector, cones
from dcverify.cones import (
    IntRow,
    Row,
    _int_primitive,
    _null_space_basis,
    _primitive_row,
    _project_off,
    _to_int_row,
)


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
    int_normals = sorted({_to_int_row(n) for n in normals if any(v != 0 for v in n)})
    frac_normals = [tuple(Fraction(v) for v in n) for n in int_normals]
    lin_basis = [_primitive_row(b) for b in _null_space_basis(frac_normals, dim)]
    target_rank = dim - len(lin_basis) - 1
    reps: set[Row] = set()
    if target_rank >= 0:
        for ray in oracle_dd_rays(int_normals, dim):
            active = [a for a in int_normals
                      if sum(x * y for x, y in zip(a, ray)) == 0]
            if oracle_int_rank(active, dim) != target_rank:
                continue
            proj = _project_off(tuple(Fraction(v) for v in ray), lin_basis)
            if any(v != 0 for v in proj):
                reps.add(_primitive_row(proj))
    return lin_basis, sorted(reps)


# --- comparison ------------------------------------------------------------


def build(make, *args):
    try:
        return make(*args)
    except ConeError as err:
        return f"ConeError: {err}"


def oracle_build(make, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_vform_of_hcone", oracle_vform_of_hcone)
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
