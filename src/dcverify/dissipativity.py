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
radius's ball grid is taken from the template grid (`GridSpec.ball`), which
builds it once, so two fields checked on one template share it.  Each point
gets one row the first time a scan reaches it: for every (T, T*) pair, the
pairings <a, (T - T*)(x - xbar)> / d(x, xbar) with each halfspace normal a
of the cone, as integers over one positive scale per pair.  The row is
computed in integers from the ball grid's lattice index: x - xbar is an
int vector up to a positive factor, and for each (formula, base operator)
pair the polynomials a^T (T(x) - T*) become integer polynomials in the
numerators of x once per ball grid.  Exceptional points keep their
override operators.  Since a pair satisfies the inequality at x exactly
when each of its pairings is at most <a, eps>, an eps sample is tested by
integer comparisons alone.  A scan walks the index's packed keys in
lexicographic point order and decodes only the first violator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul
from typing import Callable, Sequence

from .cones import (
    DimensionMismatchError,
    PolyhedralCone,
    RationalVector,
    as_fraction,
    cone_contains,
)
from .problem import (
    BoxSet,
    GridSpec,
    IntPoly,
    Monomial,
    VectorMap,
    _eval_poly,
    _int_eval,
    _int_polys,
)
from .report import Status
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
    status: Status  # NOT_FALSIFIED or FALSIFIED
    evidence: tuple[EpsEvidence, ...]
    eps: RationalVector | None = None       # failing eps sample
    witness: RationalVector | None = None   # violator at the smallest radius

    @property
    def falsified(self) -> bool:
        return self.status == Status.FALSIFIED


def default_eps_samples(cone: PolyhedralCone) -> list[RationalVector]:
    """Interior samples w / 2^k for k = 0..4, w the generator sum."""
    w = cone.interior_point()
    return [w.scale(Fraction(1, 2 ** k)) for k in range(5)]


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
    template = grid_template if grid_template is not None else GridSpec(BoxSet(xbar, xbar), 33)

    # the cone's integer normals, as (coordinate, coefficient) for each
    # nonzero coefficient
    normals = [[(i, c) for i, c in enumerate(a) if c] for a in cone.normals]

    def check_shape(out_dim: int, in_dim: int) -> None:
        if in_dim != xbar.dim or out_dim != cone.dim:
            raise DimensionMismatchError(
                f"operator of shape {out_dim}x{in_dim} vs domain dim {xbar.dim} "
                f"and cone dim {cone.dim}")

    def functionals(op: LinearOperator) -> tuple[int, list[list[int]]]:
        """(E, rows): E * a^T op for each halfspace normal a, as int rows,
        with E > 0 the least common denominator of the operator."""
        check_shape(op.out_dim, op.in_dim)
        scale = lcm(*(v.denominator for row in op.matrix for v in row))
        ints = [[v.numerator * (scale // v.denominator) for v in row] for row in op.matrix]
        return scale, [[sum(c * ints[i][j] for i, c in a) for j in range(op.in_dim)]
                       for a in normals]

    def applied(scaled: tuple[int, list[list[int]]], step: list[int]) -> tuple[int, list[int]]:
        scale, rows = scaled
        return scale, [sum(c * s for c, s in zip(row, step)) for row in rows]

    base = [functionals(Tstar) for Tstar in field.operators_at(xbar)]
    extra = field.exception_points() + [xbar]

    @cache
    def relative() -> list[list[tuple[Monomial, ...]]]:
        """a^T (T(x) - T*) column by column for each normal a, with T(x) one
        formula and T* one base operator, as polynomials in x over Q: one
        list per (formula, base operator) pair.  Built at the first formula
        point a scan reaches."""
        check_shape(field.out_dim, field.in_dim)
        zero = (0,) * field.in_dim
        pairs = []
        for formula in field.formulas:
            for sb, rows in base:
                polys = []
                for a, row in zip(normals, rows):
                    for j in range(field.in_dim):
                        terms: dict[tuple[int, ...], Fraction] = {zero: Fraction(-row[j], sb)}
                        for i, c in a:
                            for exponents, coeff in formula[i][j]:
                                terms[exponents] = terms.get(exponents, 0) + c * coeff
                        polys.append(tuple((e, v) for e, v in terms.items() if v))
                pairs.append(polys)
        return pairs

    def pairings(index) -> Callable[[int], list[tuple[int, tuple[int, ...]]] | None]:
        """The row of the point at each packed key of one ball grid's
        index: one (D, pairs) per (T, T*) pair, where pairs holds D * <a,
        (T - T*)(x - xbar)> / d(x, xbar) for each normal a, as ints, with
        D > 0.  None at xbar, where every pair satisfies every eps."""
        axes, dens = index.axes, index.dens
        # x - xbar along axis d is (K_d - Kbar_d) * unit_d / den_d; over the
        # lcm of the dens it is an int vector, a positive multiple of the
        # step, and the pairings and the distance scale alike, so their
        # ratio is unchanged
        common = lcm(*dens)
        weights = [unit * (common // den) for (_, unit, *_), den in zip(axes, dens)]
        center = index.extra_keys[xbar.coords]
        kbar = index.digits(center)
        overrides: dict[int, tuple[LinearOperator, ...]] = {}
        for p, ops in field.exceptions:
            key = index.extra_keys.get(p.coords)
            if key is not None:
                overrides.setdefault(key, ops)
        # E * the relative polynomials as integer polynomials in the
        # numerators base_d + K_d*unit_d of x, one E > 0 per pair
        int_polys: list[tuple[int, list[IntPoly]]] = []
        width = field.in_dim

        def row(key: int) -> list[tuple[int, tuple[int, ...]]] | None:
            ks = index.digits(key)
            step = [(kx - kb) * w for kx, kb, w in zip(ks, kbar, weights)]
            d = max(map(abs, step))
            if d == 0:
                return None
            ops = overrides.get(key)
            if ops is not None:
                at_x = [applied(functionals(T), step) for T in ops]
                at_base = [applied(rows, step) for rows in base]
                return [(sx * sb * d, tuple(sb * t - sx * u for t, u in zip(tx, ub)))
                        for sx, tx in at_x for sb, ub in at_base]
            if not field.formulas:
                raise ValueError(f"operator field has no operator at {index.decode([key])[0]}")
            if not int_polys:
                int_polys.extend(_int_polys(polys, dens) for polys in relative())
            xs = [b + kx * unit for (b, unit, *_), kx in zip(axes, ks)]
            out = []
            for scale, polys in int_polys:
                values = _int_eval(polys, xs)
                out.append((scale * d, tuple(sum(map(mul, values[at:at + width], step))
                                             for at in range(0, len(values), width))))
            return out

        return row

    tables: dict[Fraction, tuple] = {}  # radius: (index, row, rows so far)

    def violator(bounds: list[int], den: int, radius: Fraction) -> RationalVector | None:
        """The first point in lexicographic order with no pair satisfying
        eps, given as <a, eps> = bounds[a] / den; only it is decoded."""
        if radius not in tables:
            index = template.ball(xbar, radius).lattice(extra, 1)
            tables[radius] = (index, pairings(index), [])
        index, row, rows = tables[radius]
        for k, key in enumerate(index.keys):
            if k == len(rows):
                rows.append(row(key))
            pairs = rows[k]
            if pairs is None:
                continue
            for scale, pair in pairs:
                for p, e in zip(pair, bounds):
                    if p * den > e * scale:
                        break
                else:
                    break  # this pair satisfies eps at x
            else:
                return index.decode([key])[0]
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
                Status.FALSIFIED, tuple(evidence), eps=eps, witness=trials[-1].witness,
            )
    return DissipativityVerdict(Status.NOT_FALSIFIED, tuple(evidence))
