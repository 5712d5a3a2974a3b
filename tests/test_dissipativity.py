"""Approximate pseudo-dissipativity sampling verdicts.

The engine keeps one ball grid per radius and one row of halfspace
pairings per point.  The oracle at the end of this file is the engine it
replaced, which rebuilt the grid and re-evaluated every operator for each
(eps, radius) scan; it is kept unchanged apart from the ``oracle_`` name,
and both must return equal verdicts, evidence trails included.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Sequence

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dcverify import (
    BoxSet,
    ConeError,
    GridSpec,
    LinearOperator,
    OperatorField,
    PolyhedralCone,
    RationalVector,
    VectorMap,
    check_approx_pseudo_dissipative,
    cone_contains,
    gradient_field,
    nonnegative_orthant,
    scenarios,
)
from dcverify.cones import as_fraction
from dcverify.dissipativity import (
    DEFAULT_RADII,
    DissipativityVerdict,
    EpsEvidence,
    RadiusTrial,
    default_eps_samples,
)
from dcverify.problem import PointTable, _MapTable
from dcverify.scenarios import run_scenario

V = RationalVector.of
RAY = PolyhedralCone.from_generators([V(1)])
# the whole line: a cone with no halfspace normals
LINE = PolyhedralCone.from_generators([V(1), V(-1)])


def template(n=33):
    return GridSpec(BoxSet(V(-1), V(1)), n)


def switch_field() -> OperatorField:
    """{1} at the origin, {0} elsewhere (scalar operators)."""
    return OperatorField(
        1, 1,
        formulas=((((),),),),  # the zero polynomial entry
        exceptions=((V(0), (LinearOperator.from_rows([[1]]),)),),
    )


def identity_field() -> OperatorField:
    """x -> {[x]}, the gradient field of x^2 / 2."""
    return gradient_field(VectorMap.from_coeffs(1, 1, [[((2,), "1/2")]]))


class TestGradientFields:
    def test_even_pair_gradient_certifies_with_shrinking_radii(self, quartic_quadratic):
        # gradient (2x, 4x): the pair moves by (2x^2, 4x^2), dominated by
        # eps*|x| once |x| <= min(eps1/2, eps2/4)
        p = quartic_quadratic.problem
        field = gradient_field(p.G)
        assert field.operators_at(V("1/2"))[0].as_vector() == V(1, 2)
        verdict = check_approx_pseudo_dissipative(field, V(0), p.K,
                                                  grid_template=template())
        assert verdict.status == "NotFalsified"
        certified = [ev.certified_radius for ev in verdict.evidence]
        assert certified == [Fraction(1, 8), Fraction(1, 8), Fraction(1, 32),
                             Fraction(1, 32), Fraction(1, 128)]

    def test_constant_field_certifies_at_first_radius(self, quartic_quadratic):
        p = quartic_quadratic.problem
        field = gradient_field(p.S)
        verdict = check_approx_pseudo_dissipative(field, V(0), p.D,
                                                  grid_template=template())
        assert verdict.status == "NotFalsified"
        assert all(ev.certified_radius == Fraction(1, 2) for ev in verdict.evidence)


class TestSwitchField:
    def test_falsified_below_unit_eps(self):
        # pair action (0 - 1)*x = -x equals |x| for x < 0, never below
        # eps*|x| once eps < 1
        verdict = check_approx_pseudo_dissipative(
            switch_field(), V(0), RAY,
            eps_samples=[V("1/2")], grid_template=template())
        assert verdict.status == "Falsified"
        assert verdict.eps == V("1/2")
        x = verdict.witness[0]
        assert x < 0
        assert -x > Fraction(1, 2) * abs(x)

    def test_unit_eps_alone_not_falsified(self):
        verdict = check_approx_pseudo_dissipative(
            switch_field(), V(0), RAY,
            eps_samples=[V(1)], grid_template=template())
        assert verdict.status == "NotFalsified"

    def test_trace_records_every_radius(self):
        radii = [Fraction(1, 2), Fraction(1, 8)]
        verdict = check_approx_pseudo_dissipative(
            switch_field(), V(0), RAY,
            eps_samples=[V("1/2")], radii=radii, grid_template=template())
        trials = verdict.evidence[-1].trials
        assert [t.radius for t in trials] == radii
        assert all(t.witness is not None for t in trials)


class TestValidationAndInvariants:
    def test_boundary_eps_sample_rejected(self):
        field = gradient_field
        with pytest.raises(ValueError, match="strictly interior"):
            check_approx_pseudo_dissipative(
                switch_field(), V(0), RAY, eps_samples=[V(0)])

    def test_radii_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            check_approx_pseudo_dissipative(
                switch_field(), V(0), RAY,
                eps_samples=[V(1)], radii=[Fraction(1, 8), Fraction(1, 2)])

    def test_certified_radius_survives_shrinking(self, quartic_quadratic):
        # once a radius certifies for an eps sample, every smaller radius in
        # the list also certifies on its own
        p = quartic_quadratic.problem
        field = gradient_field(p.G)
        eps = [V("1/4", "1/4")]
        for radius in (Fraction(1, 16), Fraction(1, 64), Fraction(1, 256)):
            verdict = check_approx_pseudo_dissipative(
                field, V(0), p.K, eps_samples=eps, radii=[radius],
                grid_template=template())
            assert verdict.status == "NotFalsified"

    def test_joint_rescaling_preserves_verdict(self):
        # scaling all operators and eps by the same positive rational is
        # neutral because the max-norm metric is homogeneous
        for scale in (Fraction(1, 3), Fraction(5, 2)):
            scaled = OperatorField(
                1, 1,
                formulas=((((),),),),
                exceptions=((V(0), (LinearOperator.from_rows([[scale]]),)),),
            )
            base = check_approx_pseudo_dissipative(
                switch_field(), V(0), RAY, eps_samples=[V("1/2")],
                grid_template=template())
            rescaled = check_approx_pseudo_dissipative(
                scaled, V(0), RAY, eps_samples=[V(Fraction(1, 2) * scale)],
                grid_template=template())
            assert base.status == rescaled.status == "Falsified"

    def test_empty_eps_samples_rejected_before_any_grid(self, index_builds):
        # no sample would make every field vacuously NotFalsified
        with pytest.raises(ValueError, match="eps_samples must be nonempty"):
            check_approx_pseudo_dissipative(identity_field(), V(0), RAY, eps_samples=[],
                                            grid_template=template())
        assert index_builds == []

    def test_whole_space_cone_certifies_at_first_radius(self):
        # with no halfspace normals every pair satisfies every eps, and the
        # relative map would have no outputs
        verdict = check_approx_pseudo_dissipative(identity_field(), V(0), LINE,
                                                  grid_template=template())
        assert verdict.status == "NotFalsified"
        first = (RadiusTrial(DEFAULT_RADII[0], None),)
        assert [ev.trials for ev in verdict.evidence] == [first] * 5

    def test_field_requires_nonempty_operator_lists(self):
        with pytest.raises(ValueError):
            OperatorField(1, 1, formulas=(), exceptions=((V(0), ()),))

    def test_field_rejects_exponent_tuples_of_another_length(self):
        """x^(1,1) on a 1-D field is refused when the field is built, with
        the message ``VectorMap`` gives; it is not truncated to x."""
        with pytest.raises(ValueError, match="exponent tuple length must equal in_dim"):
            OperatorField(1, 1, formulas=((((((1, 1), Fraction(1)),),),),))


# --- work counts -------------------------------------------------------------


@pytest.fixture()
def index_builds(monkeypatch):
    """Every point table a GridSpec builds, as (grid, in-box extras, q);
    the list keeps each grid alive, so identities stay distinct."""
    builds = []
    build = GridSpec._build_table

    def spy(grid, inside, q):
        builds.append((grid, inside, q))
        return build(grid, inside, q)

    monkeypatch.setattr(GridSpec, "_build_table", spy)
    return builds


@pytest.fixture()
def decoded(monkeypatch):
    """Every call of the key decoder, as (table, keys, points)."""
    calls = []
    decode = PointTable._decode

    def spy(table, keys):
        keys = list(keys)
        points = decode(table, keys)
        calls.append((table, keys, points))
        return points

    monkeypatch.setattr(PointTable, "_decode", spy)
    return calls


class TestWorkCounts:
    def test_one_ball_grid_per_distinct_radius(self, quartic_quadratic, index_builds, decoded,
                                               monkeypatch):
        p = quartic_quadratic.problem
        tables, direct = [], Counter()
        build, poly_at = _MapTable.__init__, _MapTable._poly_at

        def spy_build(self, vmap, table):
            tables.append((vmap, table))
            build(self, vmap, table)

        def spy_poly_at(self, key):
            direct[id(self)] += 1
            return poly_at(self, key)

        monkeypatch.setattr(_MapTable, "__init__", spy_build)
        monkeypatch.setattr(_MapTable, "_poly_at", spy_poly_at)
        grid_template = GridSpec(p.C, 101)
        verdict = check_approx_pseudo_dissipative(gradient_field(p.G), p.xbar, p.K,
                                                  grid_template=grid_template)
        trials = [t.radius for ev in verdict.evidence for t in ev.trials]
        assert len(trials) == 14
        assert sorted(grid.box.upper[0] for grid, *_ in index_builds) == sorted(set(trials))
        assert len(index_builds) == 4
        # only the violators are decoded, one point per failed trial
        violators = [t.witness for ev in verdict.evidence for t in ev.trials if t.witness]
        assert [points for _, _, points in decoded] == [[x] for x in violators]
        # each ball grid's table is built once, for one relative map, and
        # its line is tabulated by differences: the map is evaluated
        # directly at most at degree + 1 keys of each
        rel = tables[0][0]
        assert all(vmap is rel for vmap, _ in tables)
        assert len({id(table) for _, table in tables}) == len(tables) == 4
        degree = max(e for monos in rel.coords for (e,), _ in monos)
        assert len(direct) == 4 and max(direct.values()) <= degree + 1

    def test_scenario_builds_each_point_list_once(self, index_builds, decoded, monkeypatch):
        witnesses = []
        engine = scenarios.check_approx_pseudo_dissipative

        def spy(*args, **kwargs):
            verdict = engine(*args, **kwargs)
            witnesses.extend(t.witness for ev in verdict.evidence for t in ev.trials if t.witness)
            return verdict

        monkeypatch.setattr(scenarios, "check_approx_pseudo_dissipative", spy)
        report = run_scenario("example-3-1")
        per_index = Counter((id(grid), inside, q) for grid, inside, q in index_builds)
        assert max(per_index.values()) == 1
        # the problem grid's two tables (xbar at q = 1, no extras at q = 4
        # for the convexity scans), then the ball grids of grad-G (4 radii);
        # grad-S certifies at the first radius, whose ball grid it shares
        # with grad-G through the grid template
        box = scenarios.load_scenario_problem("example-3-1").problem.C
        assert sorted(q for grid, _, q in index_builds if grid.box == box) == [1, 4]
        assert sum(grid.box != box for grid, *_ in index_builds) == 4
        assert len(index_builds) == 6
        # one whole list is decoded, the certification list of the feasible
        # set; every other decoded point is a dissipativity violator, and no
        # ball grid's list is decoded
        whole = [points for table, keys, points in decoded if keys == table.keys]
        assert len(whole) == 1
        assert len(whole[0]) == int(report.results[0].data["total"])
        others = [x for table, keys, points in decoded if keys != table.keys for x in points]
        assert others and others == witnesses


# --- the replaced engine, as the oracle ------------------------------------


def oracle_check_approx_pseudo_dissipative(field: OperatorField, xbar: RationalVector,
                                           cone: PolyhedralCone,
                                           eps_samples: Sequence[RationalVector] | None = None,
                                           radii: Sequence[Fraction] | None = None,
                                           grid_template: GridSpec | None = None) -> DissipativityVerdict:
    """Search, per eps sample, for a neighborhood radius whose whole grid
    admits a satisfying operator pair; falsified when the smallest radius
    still contains a violating point for some eps.
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

    base_ops = field.operators_at(xbar)

    def violator(eps: RationalVector, radius: Fraction) -> RationalVector | None:
        ball = BoxSet(
            RationalVector(tuple(c - radius for c in xbar.coords)),
            RationalVector(tuple(c + radius for c in xbar.coords)),
        )
        grid = GridSpec(ball, points_per_axis)
        for x in grid.points(extra=field.exception_points() + [xbar]):
            step = x - xbar
            bound = eps.scale(step.max_norm())
            ok = False
            for T in field.operators_at(x):
                for Tstar in base_ops:
                    moved = T.apply(step) - Tstar.apply(step)
                    if cone_contains(cone, bound - moved):
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                return x
        return None

    evidence: list[EpsEvidence] = []
    for eps in eps_samples:
        trials: list[RadiusTrial] = []
        certified: Fraction | None = None
        for radius in radii:
            w = violator(eps, radius)
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


# --- generated instances -----------------------------------------------------

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 4]))
RADII_CHOICES = (None, (Fraction(1, 2), Fraction(1, 8)), (Fraction(1),),
                 (Fraction(1, 3), Fraction(1, 9), Fraction(1, 27)))


@st.composite
def cones(draw, dim):
    if draw(st.booleans()):
        return nonnegative_orthant(dim)
    vectors = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    gens = draw(st.lists(vectors, min_size=dim, max_size=dim + 2))
    try:
        cone = PolyhedralCone.from_generators([RationalVector.of(*g) for g in gens])
    except ConeError:
        cone = nonnegative_orthant(dim)
    return cone if cone.full_dimensional else nonnegative_orthant(dim)


def operators(out_dim, in_dim):
    return st.builds(lambda rows: LinearOperator(tuple(map(tuple, rows))),
                     st.lists(st.lists(small, min_size=in_dim, max_size=in_dim),
                              min_size=out_dim, max_size=out_dim))


@st.composite
def instances(draw):
    """(field, xbar, cone, eps samples, radii, template): 1-D or 2-D domains,
    1-2 operator formulas of degree at most 2, exceptions at ball-grid
    points, at xbar and off the grid, cones of dimension 1-3."""
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    points_per_axis = draw(st.sampled_from([3, 5]) if n == 2 else st.sampled_from([3, 5, 9]))
    radii = draw(st.sampled_from(RADII_CHOICES))
    xbar = RationalVector(tuple(draw(st.lists(small, min_size=n, max_size=n))))
    monomial = st.tuples(st.tuples(*[st.integers(0, 2)] * n), small)
    entry = st.lists(monomial, max_size=2).map(tuple)
    formula = st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple),
                       min_size=m, max_size=m).map(tuple)
    formulas = tuple(draw(st.lists(formula, min_size=1, max_size=2)))
    # exception sites: ball-grid points of a listed radius, xbar, off-grid points
    scan_radii = radii or DEFAULT_RADII
    sites = {}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["grid", "xbar", "off"]))
        if kind == "xbar":
            point = xbar
        elif kind == "grid":
            r = draw(st.sampled_from(scan_radii))
            ks = draw(st.lists(st.integers(0, points_per_axis - 1), min_size=n, max_size=n))
            point = RationalVector(tuple(c - r + 2 * r * k / (points_per_axis - 1)
                                         for c, k in zip(xbar.coords, ks)))
        else:
            offsets = draw(st.lists(st.sampled_from([Fraction(1, 7), Fraction(-2, 9)]),
                                    min_size=n, max_size=n))
            point = RationalVector(tuple(c + o for c, o in zip(xbar.coords, offsets)))
        sites[point.coords] = tuple(draw(st.lists(operators(m, n), min_size=1, max_size=2)))
    field = OperatorField(n, m, formulas,
                          tuple((RationalVector(p), ops) for p, ops in sites.items()))
    cone = draw(cones(m))
    eps_samples = None
    if draw(st.booleans()):
        w = cone.interior_point()
        eps_samples = [w.scale(draw(st.sampled_from([Fraction(4), Fraction(1, 2),
                                                     Fraction(1, 16), Fraction(1, 64)])))
                       for _ in range(draw(st.integers(1, 3)))]
    return field, xbar, cone, eps_samples, radii, GridSpec(BoxSet(xbar, xbar), points_per_axis)


def _outcome(engine, instance):
    try:
        return engine(*instance)
    except ValueError as exc:
        return type(exc), str(exc)


# pinned: the relative map of a cone with no normals has no outputs
WHOLE_LINE = (identity_field(), V(0), LINE, None, None, GridSpec(BoxSet(V(0), V(0)), 5))


@cache
def oracle_run() -> frozenset:
    """Run the differential against the oracle once per session, and return
    what its draws reached: (status, with exceptions, with custom eps) per
    drawn instance, with an error in place of the status where one was
    raised."""
    seen = set()

    @example(WHOLE_LINE)
    @given(instances())
    def differential(instance):
        outcome = _outcome(check_approx_pseudo_dissipative, instance)
        assert outcome == _outcome(oracle_check_approx_pseudo_dissipative, instance)
        if instance is WHOLE_LINE:
            return
        field, _, _, eps_samples, _, _ = instance
        status = outcome.status if isinstance(outcome, DissipativityVerdict) else outcome
        seen.add((status, bool(field.exceptions), eps_samples is not None))

    differential()
    return frozenset(seen)


def test_tables_match_rescanning_oracle():
    oracle_run()


def test_generated_instances_reach_both_verdicts():
    """The strategy is not degenerate: it yields falsified and not-falsified
    fields, with and without exceptions and custom eps lists.  Read from the
    differential's draws."""
    seen = oracle_run()
    assert {status for status, _, _ in seen} == {"Falsified", "NotFalsified"}
    assert {(exc, custom) for _, exc, custom in seen} == {(False, False), (False, True),
                                                          (True, False), (True, True)}
