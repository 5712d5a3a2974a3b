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
builds it once, so two fields checked on one template share it.  For each
(formula, base operator) pair (T, T*), the functionals a^T (T(x) - T*) of
the cone's halfspace normals a, column by column, are the outputs of one
polynomial map, which the ball grid's `PointTable` holds as integers at
every point, as it holds any map (a 1-D ball grid by differences).
Exceptional points keep their override operators, laid out alike.  Each
point gets one row the first time a scan reaches it: its layout paired with
its offset c * (x - xbar) (`PointTable.offsets`) gives every pair's
pairings <a, (T - T*)(x - xbar)> / d(x, xbar) as integers over one
positive scale.  Since a pair satisfies the inequality at x exactly when
each of its pairings is at most <a, eps>, an eps sample is tested by
integer comparisons alone.  A scan walks the table's positions in
lexicographic point order and decodes only the first violator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from operator import mul
from typing import Callable, Sequence

from .cones import (
    DimensionMismatchError,
    PolyhedralCone,
    RationalVector,
    _cleared,
    as_fraction,
    cone_contains,
)
from .problem import (
    BoxSet,
    GridSpec,
    Monomial,
    PointTable,
    VectorMap,
    _eval_poly,
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
                if any(len(exponents) != self.in_dim for entry in row for exponents, _ in entry):
                    raise ValueError("exponent tuple length must equal in_dim")
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
    if not eps_samples:
        raise ValueError("eps_samples must be nonempty")
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
    width = xbar.dim

    def check_shape(out_dim: int, in_dim: int) -> None:
        if in_dim != xbar.dim or out_dim != cone.dim:
            raise DimensionMismatchError(
                f"operator of shape {out_dim}x{in_dim} vs domain dim {xbar.dim} "
                f"and cone dim {cone.dim}")

    def functionals(op: LinearOperator) -> list[Fraction]:
        """a^T op column by column for each halfspace normal a."""
        check_shape(op.out_dim, op.in_dim)
        return [sum(c * op.matrix[i][j] for i, c in a) for a in normals for j in range(width)]

    base = [functionals(Tstar) for Tstar in field.operators_at(xbar)]
    extra = field.exception_points() + [xbar]

    @cache
    def relative() -> VectorMap | None:
        """a^T (T(x) - T*) column by column for each normal a, for each
        (formula T, base operator T*) pair in turn, as one map of x; None
        when the cone has no normals.  Built at the first formula point a
        scan reaches."""
        check_shape(field.out_dim, field.in_dim)
        zero = (0,) * width
        polys = []
        for formula in field.formulas:
            for at_base in base:
                for (a, j), value in zip(product(normals, range(width)), at_base):
                    terms = {zero: -value}
                    for i, c in a:
                        for exponents, coeff in formula[i][j]:
                            terms[exponents] = terms.get(exponents, 0) + c * coeff
                    polys.append(tuple((e, v) for e, v in terms.items() if v))
        return VectorMap(width, len(polys), tuple(polys)) if polys else None

    def overridden(ops: Sequence[LinearOperator]) -> tuple[int, list[int]]:
        """(E, row): E * the layout of `relative` at a point whose
        operators are ops, as ints, with E > 0."""
        at_x = [functionals(T) for T in ops]
        return _cleared([t - u for tx in at_x for at_base in base for t, u in zip(tx, at_base)])

    def pairings(table: PointTable) -> Callable[[int], list[tuple[int, tuple[int, ...]]] | None]:
        """The row of the point at each position of one ball grid's table,
        from its layout of `relative` (or of its override operators): one
        (D, pairs) per (T, T*) pair, where pairs holds D * <a, (T -
        T*)(x - xbar)> / d(x, xbar) for each normal a, as ints, with D > 0.
        None at xbar, where every pair satisfies every eps."""
        # x - xbar times a positive factor, as ints: the pairings and the
        # distance scale alike, so their ratio is unchanged
        steps = table.offsets(xbar)[1]
        # the first override listed at a point wins, as in `operators_at`
        overrides = {at: ops for p, ops in reversed(field.exceptions)
                     if (at := table.position(p)) is not None}
        n = len(normals)

        def row(k: int) -> list[tuple[int, tuple[int, ...]]] | None:
            step = steps[k]
            d = max(map(abs, step))
            if d == 0:
                return None
            ops = overrides.get(k)
            if ops is not None:
                count = len(ops)
                scale, ys = overridden(ops)
            elif not field.formulas:
                raise ValueError(f"operator field has no operator at {table.point(k)}")
            else:
                count, scale, ys = len(field.formulas), 1, []
                rel = relative()
                if rel is not None:
                    values = table.values(rel)
                    scale, ys = values.scale, values.rows[k]
            sums = [sum(map(mul, ys[at:at + width], step)) for at in range(0, len(ys), width)]
            return [(scale * d, tuple(sums[p * n:p * n + n])) for p in range(count * len(base))]

        return row

    tables: dict[Fraction, tuple] = {}  # radius: (table, row, rows so far)

    def violator(bounds: list[int], den: int, radius: Fraction) -> RationalVector | None:
        """The first point in lexicographic order with no pair satisfying
        eps, given as <a, eps> = bounds[a] / den; only it is decoded."""
        if radius not in tables:
            table = template.ball(xbar, radius).table(extra)
            tables[radius] = (table, pairings(table), [])
        table, row, rows = tables[radius]
        for k in range(len(table)):
            if k == len(rows):
                rows.append(row(k))
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
                return table.point(k)
        return None

    evidence: list[EpsEvidence] = []
    for eps in eps_samples:
        pairing = [sum(c * eps[i] for i, c in a) for a in normals]
        den, bounds = _cleared(pairing)
        trials: list[RadiusTrial] = []
        for radius in radii:
            trials.append(RadiusTrial(radius, violator(bounds, den, radius)))
            if trials[-1].witness is None:
                break
        certified = radius if trials[-1].witness is None else None
        evidence.append(EpsEvidence(eps, certified, tuple(trials)))
        if certified is None:
            return DissipativityVerdict(
                Status.FALSIFIED, tuple(evidence), eps=eps, witness=trials[-1].witness,
            )
    return DissipativityVerdict(Status.NOT_FALSIFIED, tuple(evidence))
