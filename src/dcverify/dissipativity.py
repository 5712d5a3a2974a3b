"""Sampling verdicts for approximate pseudo-dissipativity of operator fields.

An operator field assigns to every point a finite set of linear operators
(given as polynomial formulas per matrix entry, plus exceptional points that
override the whole set).  The field is approximately pseudo-dissipative at a
base point when for every strictly interior eps there is a neighborhood on
which some operator pair (one taken at x, one at the base point) satisfies

    (T - T*)(x - xbar)  preceq_K  eps * d(x, xbar),

with d the max-norm, which keeps the right-hand side rational and every
comparison exact.  The interior-eps quantifier can only be sampled, so the
positive verdict is "NotFalsified" for the sampled eps list; falsification
is exact and carries the radius-exhaustion trace and a witness point.

The check evaluates once per radius, not once per (eps, radius) scan.  Each
radius's ball grid is built the first time a scan reaches that radius, and
each of its points gets one row the first time a scan reaches the point:
for every (T, T*) pair, the pairings <a, (T - T*)(x - xbar)> / d(x, xbar)
with each halfspace normal a of the cone, as integers over one positive
scale per pair.  The rows a^T T* of the base operators are formed once per
call.  Since a pair satisfies the inequality at x exactly when each of its
pairings is at most <a, eps>, an eps sample is tested by integer
comparisons alone.  The scan order, and with it the first violator in
lexicographic order for each (eps, radius), is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .cones import (
    DimensionMismatchError,
    PolyhedralCone,
    RationalVector,
    as_fraction,
    cone_contains,
)
from .problem import BoxSet, GridSpec, Monomial, VectorMap, _eval_poly
from .subdiff import LinearOperator

DEFAULT_RADII = (Fraction(1, 2), Fraction(1, 8), Fraction(1, 32),
                 Fraction(1, 128), Fraction(1, 512))


@dataclass(frozen=True)
class OperatorField:
    """Set-valued map x -> finite list of linear operators.

    ``formulas`` holds one matrix of polynomial entries per member of the
    set; ``exceptions`` overrides the full operator list at specific points.
    """

    in_dim: int
    out_dim: int
    formulas: tuple[tuple[tuple[tuple[Monomial, ...], ...], ...], ...]
    exceptions: tuple[tuple[RationalVector, tuple[LinearOperator, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.formulas and not self.exceptions:
            raise ValueError("an operator field needs at least one operator formula")
        for formula in self.formulas:
            if len(formula) != self.out_dim:
                raise ValueError("formula row count must equal out_dim")
            for row in formula:
                if len(row) != self.in_dim:
                    raise ValueError("formula column count must equal in_dim")
        for point, ops in self.exceptions:
            if not ops:
                raise ValueError("exception operator lists must be nonempty")
            if point.dim != self.in_dim:
                raise ValueError("exception point dimension mismatch")

    def operators_at(self, x: RationalVector) -> list[LinearOperator]:
        for point, ops in self.exceptions:
            if point.coords == x.coords:
                return list(ops)
        out = []
        for formula in self.formulas:
            rows = tuple(
                tuple(_eval_poly(entry, x.coords) for entry in row)
                for row in formula
            )
            out.append(LinearOperator(rows))
        if not out:
            raise ValueError(f"operator field has no operator at {x}")
        return out

    def exception_points(self) -> list[RationalVector]:
        return [p for p, _ in self.exceptions]


def gradient_field(vmap: VectorMap) -> OperatorField:
    """Singleton field of the exact Jacobian of the polynomial part of a map.

    Exceptional values of the map carry no derivative information; at those
    points the polynomial part's Jacobian is used unchanged.
    """
    formula = tuple(
        tuple(vmap.partial(i, j) for j in range(vmap.in_dim))
        for i in range(vmap.out_dim)
    )
    return OperatorField(vmap.in_dim, vmap.out_dim, (formula,))


@dataclass(frozen=True)
class RadiusTrial:
    radius: Fraction
    witness: RationalVector | None  # None means the radius certified


@dataclass(frozen=True)
class EpsEvidence:
    eps: RationalVector
    certified_radius: Fraction | None
    trials: tuple[RadiusTrial, ...]


@dataclass(frozen=True)
class DissipativityVerdict:
    status: str  # "NotFalsified" | "Falsified"
    evidence: tuple[EpsEvidence, ...]
    eps: RationalVector | None = None       # failing eps sample
    witness: RationalVector | None = None   # violator at the smallest radius

    @property
    def falsified(self) -> bool:
        return self.status == "Falsified"


def default_eps_samples(cone: PolyhedralCone, count: int = 5) -> list[RationalVector]:
    """Interior samples w / 2^k for k = 0..count-1, w the generator sum."""
    w = cone.interior_point()
    return [w.scale(Fraction(1, 2 ** k)) for k in range(count)]


def check_approx_pseudo_dissipative(field: OperatorField, xbar: RationalVector,
                                    cone: PolyhedralCone,
                                    eps_samples: Sequence[RationalVector] | None = None,
                                    radii: Sequence[Fraction] | None = None,
                                    grid_template: GridSpec | None = None) -> DissipativityVerdict:
    """Search, per eps sample, for a neighborhood radius whose whole grid
    admits a satisfying operator pair; falsified when the smallest radius
    still contains a violating point for some eps.  The per-radius tables
    are described in the module docstring.
    """
    if eps_samples is None:
        eps_samples = default_eps_samples(cone)
    for eps in eps_samples:
        if not cone_contains(cone, eps, strict=True):
            raise ValueError(f"eps sample {eps} is not strictly interior to the cone")
    if radii is None:
        radii = DEFAULT_RADII
    radii = [as_fraction(r) for r in radii]
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(a <= b for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    points_per_axis = grid_template.points_per_axis if grid_template is not None else 33

    # the cone's integer normals, as (coordinate, coefficient) for each
    # nonzero coefficient
    normals = [[(i, c) for i, c in enumerate(a) if c] for a in cone.normals]

    def functionals(op: LinearOperator) -> tuple[int, list[list[int]]]:
        """(E, rows): E * a^T op for each halfspace normal a, as int rows,
        with E > 0 the least common denominator of the operator."""
        if op.in_dim != xbar.dim or op.out_dim != cone.dim:
            raise DimensionMismatchError(
                f"operator of shape {op.out_dim}x{op.in_dim} vs domain dim {xbar.dim} "
                f"and cone dim {cone.dim}")
        scale = lcm(*(v.denominator for row in op.matrix for v in row))
        ints = [[v.numerator * (scale // v.denominator) for v in row] for row in op.matrix]
        return scale, [[sum(c * ints[i][j] for i, c in a) for j in range(op.in_dim)]
                       for a in normals]

    base = [functionals(Tstar) for Tstar in field.operators_at(xbar)]

    def pairings(x: RationalVector) -> list[tuple[int, tuple[int, ...]]] | None:
        """One (D, pairs) per (T, T*) pair: pairs holds D * <a, (T - T*)(x -
        xbar)> / d(x, xbar) for each normal a, as ints, with D > 0.  None
        at xbar, where every pair satisfies every eps."""
        step = (x - xbar).coords
        # the step times the lcm of its denominators: the pairings and the
        # distance scale alike, so their ratio is unchanged
        q = lcm(*(s.denominator for s in step))
        ints = [s.numerator * (q // s.denominator) for s in step]

        def applied(scaled: tuple[int, list[list[int]]]) -> tuple[int, list[int]]:
            scale, rows = scaled
            return scale, [sum(c * s for c, s in zip(row, ints)) for row in rows]

        at_x = [applied(functionals(T)) for T in field.operators_at(x)]
        d = max(map(abs, ints))
        if d == 0:
            return None
        at_base = [applied(rows) for rows in base]
        return [(sx * sb * d, tuple(sb * t - sx * u for t, u in zip(tx, ub)))
                for sx, tx in at_x for sb, ub in at_base]

    extra = field.exception_points() + [xbar]
    tables: dict[Fraction, tuple[list[RationalVector], list]] = {}

    def violator(bounds: list[int], den: int, radius: Fraction) -> RationalVector | None:
        """The first point in lexicographic order with no pair satisfying
        eps, given as <a, eps> = bounds[a] / den."""
        if radius not in tables:
            grid = GridSpec(BoxSet.ball(xbar, radius), points_per_axis)
            tables[radius] = (grid.points(extra=extra), [])
        points, rows = tables[radius]
        for k, x in enumerate(points):
            if k == len(rows):
                rows.append(pairings(x))
            pairs = rows[k]
            if pairs is not None and not any(
                    all(p * den <= e * scale for p, e in zip(pair, bounds))
                    for scale, pair in pairs):
                return x
        return None

    evidence: list[EpsEvidence] = []
    for eps in eps_samples:
        pairing = [sum(c * eps[i] for i, c in a) for a in normals]
        den = lcm(*(e.denominator for e in pairing))
        bounds = [e.numerator * (den // e.denominator) for e in pairing]
        trials: list[RadiusTrial] = []
        certified: Fraction | None = None
        for radius in radii:
            w = violator(bounds, den, radius)
            trials.append(RadiusTrial(radius, w))
            if w is None:
                certified = radius
                break
        evidence.append(EpsEvidence(eps, certified, tuple(trials)))
        if certified is None:
            return DissipativityVerdict(
                "Falsified", tuple(evidence), eps=eps, witness=trials[-1].witness,
            )
    return DissipativityVerdict("NotFalsified", tuple(evidence))
