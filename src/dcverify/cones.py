"""Exact rational polyhedral cone algebra.

Everything in this module is exact, with no floating point and therefore no
tolerance policy.  Vectors hold `fractions.Fraction`s; canonicalization and
membership run on primitive integer rows (each vector scaled once by the lcm
of its denominators, then divided by the gcd), with a fraction-free RREF for
the lineality basis and a fraction-free Gram solve for projections.  A cone
is stored in double description: a canonical generator set (V-form)
together with a canonical halfspace-normal set (H-form).  Canonical means
the stored sets depend only on the cone as a point set, never on the
particular generating vectors supplied, so cone equality is plain field
equality on the frozen dataclass.

Supported queries:

* membership, interior membership (``cone_contains``),
* the dual cone via extreme-ray enumeration (``dual_cone``),
* the lineality space, i.e. the largest subspace inside the cone
  (``PolyhedralCone.lineality_basis``).

Extreme rays are enumerated by an incremental double-description pass over
the halfspaces that keeps the lineality basis apart from the rays and
combines only adjacent ray pairs, so it yields one ray per extreme-ray class
with no rank test.  Ambient dimensions above 4 are rejected at construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

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
# exact linear algebra on primitive integer rows
# ---------------------------------------------------------------------------

IntRow = tuple[int, ...]


def _int_primitive(row: Sequence[int]) -> IntRow:
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else tuple(row)


def _cleared(values: Sequence[Fraction], *dens: int) -> tuple[int, list[int]]:
    """(d, ints): d > 0 the lcm of the values' denominators and of dens,
    and each value times d, as an int."""
    d = lcm(*(v.denominator for v in values), *dens)
    return d, [v.numerator * (d // v.denominator) for v in values]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _int_rref(rows: Sequence[Sequence[int]], cols: int) -> tuple[list[Sequence[int]], list[int]]:
    """Fraction-free reduced row echelon form over the first ``cols``
    columns: (nonzero rows, pivot columns).  Each pivot column is zero
    outside its pivot row; every row is kept primitive."""
    mat = list(rows)
    pivots: list[int] = []
    for col in range(cols):
        k = len(pivots)
        found = next((r for r in range(k, len(mat)) if mat[r][col]), None)
        if found is None:
            continue
        mat[k], mat[found] = mat[found], mat[k]
        prow, pv = mat[k], mat[k][col]
        mat = [_int_primitive([pv * x - r[col] * y for x, y in zip(r, prow)])
               if i != k and r[col] else r for i, r in enumerate(mat)]
        pivots.append(col)
        if k + 1 == len(mat):
            break
    return mat[:len(pivots)], pivots


def _lineality(normals: Sequence[IntRow], dim: int) -> list[IntRow]:
    """Canonical basis of {x : <a, x> = 0 for all normals a}: for each free
    column of the RREF, its null vector (1 there) times the lcm of the
    pivots, made primitive."""
    reduced, pivots = _int_rref(normals, dim)
    scale = lcm(*(r[pc] for r, pc in zip(reduced, pivots)))
    basis = []
    for fc in range(dim):
        if fc not in pivots:
            vec = [0] * dim
            vec[fc] = scale
            for r, pc in zip(reduced, pivots):
                vec[pc] = -r[fc] * (scale // r[pc])
            basis.append(_int_primitive(vec))
    return basis


def _project_off(rays: Sequence[IntRow], basis: Sequence[IntRow]) -> list[IntRow]:
    """Each ray projected onto the orthogonal complement of span(basis),
    made primitive.  The Gram system G lam = B r is solved fraction-free for
    all rays at once; with s > 0 the lcm of the pivots, s * lam is integer
    and s * r - B^T (s * lam) is the projection scaled by s."""
    if not basis:
        return list(rays)
    k = len(basis)
    aug = [[_dot(b, w) for w in (*basis, *rays)] for b in basis]
    reduced, _ = _int_rref(aug, k)  # the Gram matrix is invertible
    scale = lcm(*(row[i] for i, row in enumerate(reduced)))
    projected = []
    for j, ray in enumerate(rays):
        lam = [row[k + j] * (scale // row[i]) for i, row in enumerate(reduced)]
        projected.append(_int_primitive([scale * x - _dot(lam, col)
                                         for x, col in zip(ray, zip(*basis))]))
    return projected


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


def _vform_of_hcone(normals: Sequence[IntRow], dim: int) -> tuple[list[IntRow], list[IntRow]]:
    """Canonical V-form of the cone {y : <a, y> >= 0 for all a in normals}.

    Returns (lineality basis, extreme-ray representatives).  The lineality
    basis is the RREF basis of the common kernel of the normals.  Each
    extreme-ray class modulo the lineality space is represented by the
    primitive integer vector of its projection onto the orthogonal
    complement of the lineality space, which makes the returned sets
    independent of how the cone was described.
    """
    lin_basis = _lineality(normals, dim)
    return lin_basis, sorted(set(_project_off(_dd_rays(normals, dim), lin_basis)))


def _rows(lin: Sequence[IntRow], reps: Sequence[IntRow]) -> list[IntRow]:
    """A V-form as one sorted row list: the rays and +-each lineality vector."""
    return sorted({*reps, *lin, *(tuple(-v for v in b) for b in lin)})


def _vector(row: IntRow) -> RationalVector:
    return RationalVector(tuple(map(Fraction, row)))


# ---------------------------------------------------------------------------
# polyhedral cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyhedralCone:
    """A generated convex cone in Q^n with derived halfspace form.

    ``generators`` and ``halfspaces`` are canonical: two cones that are equal
    as point sets compare equal as dataclasses regardless of the generating
    vectors they were built from.  Generators of the lineality part appear as
    +-pairs; all stored vectors are primitive integer vectors.  ``normals``
    holds the halfspaces as int tuples, for membership tests.
    """

    dim: int
    generators: tuple[RationalVector, ...]
    halfspaces: tuple[RationalVector, ...]
    lineality_basis: tuple[RationalVector, ...]
    full_dimensional: bool
    normals: tuple[IntRow, ...] = field(init=False, repr=False, compare=False)

    @classmethod
    def from_generators(cls, generators: Sequence[RationalVector | Sequence]) -> "PolyhedralCone":
        gens = [g if isinstance(g, RationalVector) else RationalVector.of(*g)
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
        gen_rows = sorted({_int_primitive(_cleared(g.coords)[1]) for g in gens})
        # halfspaces of the cone = canonical V-form of its dual
        dual_lin, dual_reps = _vform_of_hcone(gen_rows, dim)
        halfspace_rows = _rows(dual_lin, dual_reps)
        # canonical generators = canonical V-form of the halfspace cone
        lin, reps = _vform_of_hcone(halfspace_rows, dim)
        canon_rows = _rows(lin, reps)
        if not canon_rows:
            raise ConeError("degenerate construction: the zero cone is not representable")
        return cls._canonical(dim, gen_rows, canon_rows, halfspace_rows, lin, not dual_lin)

    @classmethod
    def from_halfspaces(cls, normals: Sequence[RationalVector | Sequence], dim: int | None = None) -> "PolyhedralCone":
        rows = [n if isinstance(n, RationalVector) else RationalVector.of(*n)
                for n in normals]
        if not rows:
            raise ConeError("halfspace construction needs at least one normal")
        d = dim if dim is not None else rows[0].dim
        if d > MAX_CONE_DIM:
            raise ConeError(f"ambient dimension {d} exceeds supported maximum {MAX_CONE_DIM}")
        if any(r.dim != d for r in rows):
            raise DimensionMismatchError(f"halfspace normals must have dimension {d}")
        int_rows = sorted({_int_primitive(_cleared(r.coords)[1]) for r in rows if not r.is_zero()})
        # canonical generators = canonical V-form of the given halfspaces
        lin, reps = _vform_of_hcone(int_rows, d)
        canon_rows = _rows(lin, reps)
        if not canon_rows:
            raise ConeError("the given halfspaces define the zero cone")
        # halfspaces of the cone = canonical V-form of its dual
        dual_lin, dual_reps = _vform_of_hcone(canon_rows, d)
        return cls._canonical(d, canon_rows, canon_rows, _rows(dual_lin, dual_reps), lin,
                              not dual_lin)

    @classmethod
    def _canonical(cls, dim: int, checked: list[IntRow], generators: list[IntRow],
                   halfspaces: list[IntRow], lineality: list[IntRow], full: bool) -> "PolyhedralCone":
        """The cone of canonical rows, once every row in ``checked`` is
        found to satisfy every halfspace."""
        for g in checked:
            for a in halfspaces:
                if _dot(a, g) < 0:
                    raise ConeError(f"internal error: generator {_vector(g)} "
                                    f"violates halfspace {_vector(a)}")
        cone = cls(dim, tuple(map(_vector, generators)), tuple(map(_vector, halfspaces)),
                   tuple(map(_vector, lineality)), full)
        object.__setattr__(cone, "normals", tuple(halfspaces))
        return cone

    def contains(self, v: RationalVector, strict: bool = False) -> bool:
        if v.dim != self.dim:
            raise DimensionMismatchError(f"vector dim {v.dim} vs cone dim {self.dim}")
        x = _cleared(v.coords)[1]
        if strict:
            return all(_dot(a, x) > 0 for a in self.interior_normals())
        return all(_dot(a, x) >= 0 for a in self.normals)

    def interior_normals(self) -> tuple[IntRow, ...]:
        """The normals, for an interior test (every pairing positive); a
        cone that is not full-dimensional has no interior to test."""
        if not self.full_dimensional:
            raise InteriorEmptyError("interior empty: cone is not full-dimensional")
        return self.normals

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
