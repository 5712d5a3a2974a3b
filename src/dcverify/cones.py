"""Exact rational polyhedral cone algebra.

Everything in this module is computed over arbitrary-precision rationals
(`fractions.Fraction`); there is no floating point and therefore no tolerance
policy.  A cone is stored in double description: a canonical generator set
(V-form) together with a canonical halfspace-normal set (H-form).  Canonical
means the stored sets depend only on the cone as a point set, never on the
particular generating vectors supplied, so cone equality is plain field
equality on the frozen dataclass.

Supported queries:

* membership, interior membership (``cone_contains``),
* the four order relations induced by a cone (``order_relation``),
* the dual cone via extreme-ray enumeration (``dual_cone``),
* strict-polar membership (``strict_polar_contains``),
* the lineality space, i.e. the largest subspace inside the cone
  (``PolyhedralCone.lineality_basis``).

Extreme rays are enumerated by an incremental double-description pass over
the halfspaces that keeps the lineality basis apart from the rays and
combines only adjacent ray pairs, so it yields one ray per extreme-ray class
with no rank test.  Ambient dimensions above 4 are rejected at construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

MAX_CONE_DIM = 4

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class ConeError(ValueError):
    """Invalid cone construction or degenerate result (e.g. the zero cone)."""


class InteriorEmptyError(ConeError):
    """Strict membership was queried on a cone with empty interior."""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


def parse_rational(text: str) -> Fraction:
    """Parse an integer or ``p/q`` literal.  Decimal notation is rejected."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an integer or p/q rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render a rational as ``p`` or ``p/q`` (never a decimal)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_fraction(value: Fraction | int | str) -> Fraction:
    """Coerce exact inputs to Fraction; floats are rejected to keep exactness."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected exact rational input, got {type(value).__name__}")


@dataclass(frozen=True)
class RationalVector:
    """A point or direction in Q^n."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) == 0:
            raise ValueError("empty vector")
        if any(type(c) is not Fraction for c in self.coords):
            object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    @classmethod
    def of(cls, *values: Fraction | int | str) -> "RationalVector":
        return cls(tuple(as_fraction(v) for v in values))

    @classmethod
    def from_values(cls, values: Iterable[Fraction | int | str]) -> "RationalVector":
        return cls(tuple(as_fraction(v) for v in values))

    @classmethod
    def zero(cls, dim: int) -> "RationalVector":
        return cls(tuple(Fraction(0) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __add__(self, other: "RationalVector") -> "RationalVector":
        self._check_dim(other)
        return RationalVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        self._check_dim(other)
        return RationalVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "RationalVector":
        return RationalVector(tuple(-a for a in self.coords))

    def scale(self, factor: Fraction | int) -> "RationalVector":
        f = as_fraction(factor)
        return RationalVector(tuple(f * a for a in self.coords))

    def dot(self, other: "RationalVector") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def max_norm(self) -> Fraction:
        return max(abs(c) for c in self.coords)

    def primitive(self) -> "RationalVector":
        """Scale by a positive rational to integer coordinates with gcd 1."""
        if self.is_zero():
            return self
        denom_lcm = 1
        for c in self.coords:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in self.coords]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        return RationalVector(tuple(Fraction(v // g) for v in ints))

    def _check_dim(self, other: "RationalVector") -> None:
        if len(self.coords) != len(other.coords):
            raise DimensionMismatchError(
                f"dimension mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __str__(self) -> str:
        return "(" + ", ".join(format_rational(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# exact linear algebra on tuples of Fractions
# ---------------------------------------------------------------------------

Row = tuple[Fraction, ...]


def _rref(rows: Sequence[Row], dim: int) -> tuple[list[list[Fraction]], list[int]]:
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


def _null_space_basis(rows: Sequence[Row], dim: int) -> list[Row]:
    """Canonical (RREF-derived) basis of {x : <r, x> = 0 for all rows r}."""
    reduced, pivots = _rref(rows, dim)
    free_cols = [c for c in range(dim) if c not in pivots]
    basis: list[Row] = []
    for fc in free_cols:
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for r, pc in zip(reduced, pivots):
            vec[pc] = -r[fc]
        basis.append(tuple(vec))
    return basis


def _project_off(vec: Row, basis: Sequence[Row]) -> Row:
    """Project vec onto the orthogonal complement of span(basis), exactly."""
    if not basis:
        return vec
    k = len(basis)
    # the Gram matrix is invertible, so [gram | rhs] reduces to [I | lam]
    aug = [tuple(sum(a * b for a, b in zip(basis[i], w)) for w in (*basis, vec))
           for i in range(k)]
    reduced, _ = _rref(aug, k)
    proj = list(vec)
    for row, bvec in zip(reduced, basis):
        proj = [p - row[k] * b for p, b in zip(proj, bvec)]
    return tuple(proj)


def _primitive_row(row: Row) -> Row:
    return RationalVector(row).primitive().coords


IntRow = tuple[int, ...]


def _int_primitive(row: Sequence[int]) -> IntRow:
    g = 0
    for v in row:
        g = gcd(g, abs(v))
    return tuple(v // g for v in row) if g else tuple(row)


def _to_int_row(row: Row) -> IntRow:
    prim = _primitive_row(row)
    return tuple(int(v) for v in prim)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


def _dd_rays(normals: Sequence[IntRow], dim: int) -> list[IntRow]:
    """One ray per extreme-ray class of {y : <a, y> >= 0 for all a in normals}.

    Incremental double description that keeps the lineality basis apart
    from the rays (Fukuda and Prodon, 1996).  It starts from the whole
    space: lineality basis e_1..e_d and no rays.  A halfspace a that cuts
    the lineality space turns one lineality vector l with <a, l> > 0 into a
    ray, and moves the other lineality vectors and the rays into a-perp
    along l.  Any other halfspace is a pointed step: the rays on its
    nonnegative side stay, and each adjacent plus/minus pair is combined
    into one ray on the hyperplane.  Two rays are adjacent when no third
    ray's zero set (the indices of the processed normals it lies on)
    contains their common zero set.  So every step keeps exactly one ray
    per extreme-ray class.  All arithmetic is on primitive integer vectors.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[IntRow, frozenset[int]]] = []
    for k, a in enumerate(normals):
        cut = next((i for i, v in enumerate(lineality) if _dot(a, v)), None)
        if cut is not None:
            l = lineality.pop(cut)
            al = _dot(a, l)
            if al < 0:
                l, al = tuple(-v for v in l), -al

            def along(v: IntRow) -> IntRow:
                s = _dot(a, v)
                return _int_primitive([al * x - s * y for x, y in zip(v, l)])

            lineality = [along(v) for v in lineality]
            rays = [(along(r), z | {k}) for r, z in rays]
            rays.append((l, frozenset(range(k))))
            continue
        signed = [(r, z, _dot(a, r)) for r, z in rays]
        new_rays = [(r, z | {k} if s == 0 else z) for r, z, s in signed if s >= 0]
        for rp, zp, sp in signed:
            for rm, zm, sm in signed:
                common = zp & zm
                if sp > 0 > sm and sum(common <= z for _, z in rays) == 2:
                    combo = [sp * m - sm * p for p, m in zip(rp, rm)]
                    new_rays.append((_int_primitive(combo), common | {k}))
        rays = new_rays
    return [r for r, _ in rays]


def _vform_of_hcone(normals: Sequence[Row], dim: int) -> tuple[list[Row], list[Row]]:
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
    reps = {_primitive_row(_project_off(tuple(Fraction(v) for v in ray), lin_basis))
            for ray in _dd_rays(int_normals, dim)}
    return lin_basis, sorted(reps)


# ---------------------------------------------------------------------------
# polyhedral cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyhedralCone:
    """A generated convex cone in Q^n with derived halfspace form.

    ``generators`` and ``halfspaces`` are canonical: two cones that are equal
    as point sets compare equal as dataclasses regardless of the generating
    vectors they were built from.  Generators of the lineality part appear as
    +-pairs; all stored vectors are primitive integer vectors.
    """

    dim: int
    generators: tuple[RationalVector, ...]
    halfspaces: tuple[RationalVector, ...]
    lineality_basis: tuple[RationalVector, ...]
    full_dimensional: bool

    @classmethod
    def from_generators(cls, generators: Sequence[RationalVector | Sequence]) -> "PolyhedralCone":
        gens = [g if isinstance(g, RationalVector) else RationalVector.from_values(g)
                for g in generators]
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
        dual_lin, dual_reps = _vform_of_hcone(gen_rows, dim)
        halfspace_rows = sorted(set(dual_reps)
                                | {b for b in dual_lin}
                                | {tuple(-v for v in b) for b in dual_lin})
        # canonical generators = canonical V-form of the halfspace cone
        lin, reps = _vform_of_hcone(halfspace_rows, dim)
        canon_rows = sorted(set(reps)
                            | {b for b in lin}
                            | {tuple(-v for v in b) for b in lin})
        if not canon_rows:
            raise ConeError("degenerate construction: the zero cone is not representable")

        cone = cls(
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

    @classmethod
    def from_halfspaces(cls, normals: Sequence[RationalVector | Sequence], dim: int | None = None) -> "PolyhedralCone":
        rows = [n if isinstance(n, RationalVector) else RationalVector.from_values(n)
                for n in normals]
        if not rows:
            raise ConeError("halfspace construction needs at least one normal")
        d = dim if dim is not None else rows[0].dim
        if d > MAX_CONE_DIM:
            raise ConeError(f"ambient dimension {d} exceeds supported maximum {MAX_CONE_DIM}")
        lin, reps = _vform_of_hcone([r.coords for r in rows], d)
        gen_rows = sorted(set(reps) | {b for b in lin} | {tuple(-v for v in b) for b in lin})
        if not gen_rows:
            raise ConeError("the given halfspaces define the zero cone")
        return cls.from_generators([RationalVector(r) for r in gen_rows])

    def contains(self, v: RationalVector, strict: bool = False) -> bool:
        if v.dim != self.dim:
            raise DimensionMismatchError(f"vector dim {v.dim} vs cone dim {self.dim}")
        if strict:
            if not self.full_dimensional:
                raise InteriorEmptyError("interior empty: cone is not full-dimensional")
            return all(a.dot(v) > 0 for a in self.halfspaces)
        return all(a.dot(v) >= 0 for a in self.halfspaces)

    def interior_point(self) -> RationalVector:
        """Sum of the generators; strictly interior when full-dimensional."""
        total = RationalVector.zero(self.dim)
        for g in self.generators:
            total = total + g
        return total

    def __str__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"cone{{{gens}}}"


def nonnegative_orthant(dim: int) -> PolyhedralCone:
    """The componentwise-nonnegative cone Q^dim_+."""
    gens = []
    for i in range(dim):
        coords = [Fraction(0)] * dim
        coords[i] = Fraction(1)
        gens.append(RationalVector(tuple(coords)))
    return PolyhedralCone.from_generators(gens)


def cone_contains(cone: PolyhedralCone, v: RationalVector, strict: bool = False) -> bool:
    """Exact membership (all halfspace pairings >= 0) or interior membership (> 0)."""
    return cone.contains(v, strict=strict)


ORDER_KINDS = ("preceq", "prec", "npreceq", "nprec")


def order_relation(cone: PolyhedralCone, yl: RationalVector, yr: RationalVector, kind: str) -> bool:
    """Order relations induced by the cone, evaluated on the difference yr - yl.

    ``preceq``: yr - yl is a member; ``prec``: yr - yl is interior;
    ``npreceq`` / ``nprec`` are the exact negations.
    """
    if kind not in ORDER_KINDS:
        raise ValueError(f"unknown order relation {kind!r}; expected one of {ORDER_KINDS}")
    diff = yr - yl
    if kind == "preceq":
        return cone.contains(diff)
    if kind == "prec":
        return cone.contains(diff, strict=True)
    if kind == "npreceq":
        return not cone.contains(diff)
    return not cone.contains(diff, strict=True)


def dual_cone(cone: PolyhedralCone) -> PolyhedralCone:
    """The cone of functionals nonnegative on ``cone``.

    Its halfspace normals are the input's generators; its generator list is
    the canonical extreme-ray enumeration already cached as the input's
    halfspace set.  Duality of the whole space would be the zero cone, which
    is not representable and raises :class:`ConeError`.
    """
    if not cone.halfspaces:
        raise ConeError("dual of the full space is the zero cone, which has no nonzero generators")
    return PolyhedralCone.from_generators(cone.halfspaces)


def strict_polar_contains(cone: PolyhedralCone, ystar: RationalVector) -> bool:
    """Membership in the strict polar: functionals strictly positive on the
    cone minus its lineality space.

    Positivity on the generators outside the lineality space extends to the
    whole pointed part only when the functional also vanishes on the
    lineality space, so that condition is checked as well.  For a subspace
    cone the defining quantifier ranges over the empty set and every
    functional qualifies.
    """
    if ystar.dim != cone.dim:
        raise DimensionMismatchError(f"vector dim {ystar.dim} vs cone dim {cone.dim}")
    outside = [g for g in cone.generators if not cone.contains(-g)]
    if not outside:
        return True
    if any(ystar.dot(b) != 0 for b in cone.lineality_basis):
        return False
    return all(ystar.dot(g) > 0 for g in outside)
