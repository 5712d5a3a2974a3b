"""Feasibility core and the four theorem engines."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dcverify.multipliers as multipliers
from dcverify import (
    BoxSet,
    Constraint,
    CorrectionPair,
    DCProblem,
    DimensionMismatchError,
    GridSpec,
    InteriorEmptyError,
    LinearFeasibilityProblem,
    LinearOperator,
    NeighborhoodSpec,
    PolyhedralCone,
    RationalVector,
    VectorMap,
    alternative_system,
    check_eps_weak_local_min,
    cone_contains,
    default_corrections,
    necessary_condition,
    nonnegative_orthant,
    solve_feasibility,
    sufficient_condition,
)
from dcverify.cli import main
from dcverify.cones import _cleared, _int_primitive, format_rational
from dcverify.multipliers import (
    FeasibilityResult,
    SolverLimitError,
    _certificate,
    _grid_rows,
)
from dcverify.problem import _MapTable
from conftest import rationals, scalar_map, scalar_problem

V = RationalVector.of
F = Fraction
HALF = F(1, 2)
RAY = PolyhedralCone.from_generators([V(1)])


def grid_over(box_lo, box_hi, n=21):
    return GridSpec(BoxSet(V(box_lo), V(box_hi)), n)


def ray_problem_file(path, y_dim, z_dim, K, D, F, H, S="", candidates=""):
    """A problem file on x in [-1, 1] with xbar = 0, eps = 0 and G = 0;
    each map is its poly lines and each cone its generator lines."""
    path.write_text(f"""[spaces]
x_dim = 1
y_dim = {y_dim}
z_dim = {z_dim}
[cone K]
{K}
[cone D]
{D}
[map F]
{F}
[map G]
[map H]
{H}
[map S]
{S}
[set C]
lower = -1
upper = 1
[point]
xbar = 0
eps = {" ".join(["0"] * y_dim)}
{candidates}""", encoding="utf-8")
    return str(path)


@pytest.fixture()
def solves(monkeypatch):
    """Every system `solve_feasibility` is asked to decide."""
    calls = []
    solve = multipliers.solve_feasibility

    def spy(lfp):
        calls.append(lfp)
        return solve(lfp)

    monkeypatch.setattr(multipliers, "solve_feasibility", spy)
    return calls


class TestSolveFeasibility:
    def test_simple_equality(self):
        lfp = LinearFeasibilityProblem(
            ("y",), (Constraint((F(1),), "ge", F(0)), Constraint((F(1),), "eq", F(1))))
        result = solve_feasibility(lfp)
        assert result.feasible and result.assignment == (F(1),)

    def test_contradictory_system(self):
        lfp = LinearFeasibilityProblem(
            ("y",), (Constraint((F(1),), "ge", F(0)), Constraint((F(-1),), "ge", F(1))))
        assert not solve_feasibility(lfp).feasible

    def test_strict_interior_point(self):
        lfp = LinearFeasibilityProblem(("y1", "y2"), (
            Constraint((F(1), F(0)), "gt", F(0)),
            Constraint((F(0), F(1)), "gt", F(0)),
            Constraint((F(1), F(1)), "eq", F(1)),
        ))
        result = solve_feasibility(lfp)
        assert result.feasible
        assert result.assignment == (HALF, HALF)
        assert result.strict_slack == HALF

    def test_strict_only_boundary_is_infeasible(self):
        lfp = LinearFeasibilityProblem(("y",), (
            Constraint((F(1),), "gt", F(0)),
            Constraint((F(-1),), "ge", F(0)),
        ))
        result = solve_feasibility(lfp)
        assert not result.feasible
        assert result.strict_slack == 0

    def test_free_variables_can_go_negative(self):
        lfp = LinearFeasibilityProblem(("y",), (Constraint((F(1),), "eq", F(-3)),))
        assert solve_feasibility(lfp).assignment == (F(-3),)

    def test_variable_count_limit(self):
        with pytest.raises(SolverLimitError):
            LinearFeasibilityProblem(tuple(f"v{i}" for i in range(9)),
                                     (Constraint(tuple(F(1) for _ in range(9)), "ge", F(0)),))

    def test_unknown_relation_is_refused_when_built(self):
        """An unknown relation was once solved as an equality: "le" with
        a >= 0 came back Feasible with a = 1."""
        with pytest.raises(ValueError, match="unknown relation 'le'"):
            LinearFeasibilityProblem(("a",), (Constraint((1,), "le", 1),
                                              Constraint((1,), "ge", 0)))

    @pytest.mark.parametrize("coeffs, rhs", [((0.5, F(1)), F(0)), ((F(1), 2), 1.0)])
    def test_float_numbers_are_refused_when_built(self, coeffs, rhs):
        with pytest.raises(ValueError, match="int or Fraction"):
            LinearFeasibilityProblem(("a", "b"), (Constraint(coeffs, "ge", rhs),))

    def test_int_numbers_are_exact_rationals(self):
        lfp = LinearFeasibilityProblem(("a",), (Constraint((2,), "eq", 1),))
        assert solve_feasibility(lfp).assignment == (HALF,)


class TestAlternativeSystem:
    def test_opposite_linear_maps_yield_multipliers(self):
        Fmap = scalar_map(((1,), F(1)))
        Gmap = scalar_map(((1,), F(-1)))
        out = alternative_system(Fmap, Gmap, RAY, RAY, grid_over(-1, 1))
        assert out.kind == "Multipliers"
        cert = out.certificate
        assert (cert.ystar, cert.zstar) == (V(HALF), V(HALF))
        for p in grid_over(-1, 1).points():
            pairing = cert.ystar[0] * Fmap.evaluate(p)[0] + cert.zstar[0] * Gmap.evaluate(p)[0]
            assert pairing >= 0

    def test_jointly_negative_point_found(self):
        shifted = scalar_map(((1,), F(1)), ((0,), F(-2)))
        out = alternative_system(shifted, shifted, RAY, RAY, grid_over(-1, 1))
        assert out.kind == "SolutionExists"
        assert out.x == V(-1)
        assert shifted.evaluate(out.x)[0] < 0

    def test_map_and_cone_of_different_dimensions_refused(self):
        plane_map = VectorMap.from_coeffs(1, 2, [[((1,), 1)], [((2,), -1)]])
        with pytest.raises(DimensionMismatchError):
            alternative_system(scalar_map(((1,), F(1))), plane_map, RAY, RAY, grid_over(-1, 1, 5))

    def test_subgradient_shifted_pair(self, exceptional_point):
        # F - F(0) - 0*(x - 0) + 0 is F itself; H - H(0) - 1*(x - 0) vanishes
        p = exceptional_point.problem
        Psi = VectorMap.zero(1, 1)
        out = alternative_system(p.F, Psi, p.K, p.D, grid_over(-1, 1))
        assert out.kind == "Multipliers"
        assert (out.certificate.ystar, out.certificate.zstar) == (V(0), V(1))

    def test_exactly_one_branch(self):
        for fmono, gmono in (((F(1),), (F(-1),)), ((F(2),), (F(1),)), ((F(-1),), (F(-1),))):
            Fmap = scalar_map(((1,), fmono[0]), ((0,), F(1, 4)))
            Gmap = scalar_map(((1,), gmono[0]), ((0,), F(-1, 4)))
            out = alternative_system(Fmap, Gmap, RAY, RAY, grid_over(-1, 1))
            assert out.kind in ("SolutionExists", "Multipliers")
            assert (out.x is None) != (out.certificate is None)

    def test_each_map_tabulated_once_per_call(self, monkeypatch):
        """The solution scan and the LP rows read one value table per map;
        the convexlike scans read the grid's table for their lambdas, but
        tabulate no map on it."""
        Fmap = scalar_map(((1,), F(1)))
        Gmap = scalar_map(((1,), F(-1)))
        builds = Counter()
        build = _MapTable.__init__

        def spy(self, vmap, table):
            builds[id(vmap)] += 1
            build(self, vmap, table)

        monkeypatch.setattr(_MapTable, "__init__", spy)
        for _ in range(2):
            builds.clear()
            assert alternative_system(Fmap, Gmap, RAY, RAY, grid_over(-1, 1)).kind == "Multipliers"
            assert builds == Counter({id(Fmap): 1, id(Gmap): 1})

    @pytest.mark.parametrize("f", [1, -1])
    def test_refuses_d_with_empty_interior(self, f, solves, tmp_path, capsys):
        """D is the ray through (1, 1) in Q^2, K = Q+, F = f*x^2 and G = 0,
        with H = S = (x, x) in the file.  With f = 1 no point passes the K
        test, with f = -1 some point does; either way the check raises
        InteriorEmptyError before any LP, and the CLI exits 1."""
        ray = PolyhedralCone.from_generators([V(1, 1)])
        with pytest.raises(InteriorEmptyError):
            alternative_system(scalar_map(((2,), F(f))), VectorMap.zero(1, 2), RAY, ray,
                               grid_over(-1, 1, 5))
        path = ray_problem_file(tmp_path / "ray-d.problem", 1, 2, "generator = 1",
                                "generator = 1 1", f"poly 0 = {f} 2", "poly 0 = 1 1\npoly 1 = 1 1",
                                "poly 0 = 1 1\npoly 1 = 1 1", "[candidates]\nT = 0\nL = 0 0\n")
        assert main(["check", "alternative", "--problem", path, "--grid", "5"]) == 1
        assert "interior empty" in capsys.readouterr().err
        assert solves == []

    def test_non_convexlike_inputs_warn_but_run(self):
        two_valued = VectorMap(1, 2, ((), ()),
                               ((V(0), V(0, 1)), (V(1), V(1, 0))))
        out = alternative_system(two_valued, VectorMap.zero(1, 2),
                                 nonnegative_orthant(2), nonnegative_orthant(2),
                                 GridSpec(BoxSet(V(0), V(1)), 2))
        assert out.warnings and "not convexlike" in out.warnings[0]
        assert out.kind in ("SolutionExists", "Multipliers", "GridGap")


SMALL = rationals(-3, 3, max_denominator=4)


@st.composite
def coefficient_rows(draw):
    """Rows (y; z1, z2) drawn as rational multiples of a few base rows, so
    that positive multiples, negative multiples and zero rows all occur."""
    bases = draw(st.lists(st.tuples(SMALL, SMALL, SMALL), min_size=1, max_size=4))
    scales = rationals(-4, 4, max_denominator=4)
    return [tuple(draw(scales) * c for c in draw(st.sampled_from(bases)))
            for _ in range(draw(st.integers(1, 10)))]


@given(coefficient_rows())
def test_grid_rows_key_groups_rows_as_primitive_does(rows):
    orthant = nonnegative_orthant(2)
    vectors = [(RationalVector(r[:1]), RationalVector(r[1:])) for r in rows]
    kept, seen = [], set()
    for k, (y, z) in enumerate(vectors):
        v = RationalVector(y.coords + z.coords)
        if v.is_zero():
            continue
        assert _int_primitive(_cleared(v.coords)[1]) == tuple(int(c) for c in v.primitive().coords)
        if cone_contains(RAY, y) and cone_contains(orthant, z):
            continue
        if v.primitive() not in seen:
            seen.add(v.primitive())
            kept.append((f"row x={k}", v.coords))
    # the rows go in as ints over one scale per side, as the engines pass them
    entries = [(k, *_cleared(y.coords), *_cleared(z.coords)) for k, (y, z) in enumerate(vectors)]
    assert [(c.label, c.coeffs) for c in _grid_rows(entries, RAY, orthant, "row")] == kept


class TestSufficientCondition:
    def test_legacy_certifies_quartic_instance(self, quartic_quadratic):
        p = quartic_quadratic.problem
        out = sufficient_condition(p, quartic_quadratic.candidates_T,
                                   quartic_quadratic.candidates_L, None,
                                   "weak", "legacy-gl", NeighborhoodSpec(HALF),
                                   GridSpec(p.C, 101))
        assert out.certified
        (cert,) = out.certificates
        assert cert.zstar == V(0, 0)
        assert cone_contains(p.K, cert.ystar) and not cert.ystar.is_zero()
        assert cert.verify()

    def test_corrected_fails_quartic_instance(self, quartic_quadratic):
        p = quartic_quadratic.problem
        out = sufficient_condition(p, quartic_quadratic.candidates_T,
                                   quartic_quadratic.candidates_L, None,
                                   "weak", "corrected", NeighborhoodSpec(HALF),
                                   GridSpec(p.C, 101))
        assert out.kind == "FailedFor"
        assert out.failed_correction.alpha == V(1, 1)
        assert out.failed_correction.beta == V(1, 1)

    def test_corrected_failure_reverifies_by_sign_analysis(self, quartic_quadratic):
        # with zstar forced to zero by complementarity, the surviving rows
        # read y1*(x^4 + a*x) + y2*(x^2 + a*x) >= 0, which at x = -1/2 and
        # a = 1 forces y = 0 against nontriviality
        x = F(-1, 2)
        row = (x ** 4 + x, x ** 2 + x)
        assert row[0] < 0 and row[1] < 0

    def test_legacy_certifies_proper_target_too(self, quartic_quadratic):
        p = quartic_quadratic.problem
        out = sufficient_condition(p, quartic_quadratic.candidates_T,
                                   quartic_quadratic.candidates_L, None,
                                   "proper", "legacy-gl", NeighborhoodSpec(HALF),
                                   GridSpec(p.C, 41))
        assert out.certified
        for cert in out.certificates:
            assert all(cert.ystar.dot(g) > 0 for g in p.K.generators)

    def test_degenerate_zero_problem_certifies(self):
        zero = VectorMap.zero(1, 1)
        problem = scalar_problem(zero, zero, zero, zero)
        out = sufficient_condition(problem, [LinearOperator.column([0])],
                                   [LinearOperator.column([0])], None,
                                   "weak", "legacy-gl", NeighborhoodSpec(HALF),
                                   grid_over(-1, 1))
        assert out.certified
        (cert,) = out.certificates
        assert not cert.ystar.is_zero()

    def test_weak_target_refuses_k_with_empty_interior(self, solves):
        """K is the ray through (1, 1) in Q^2.  The weak target's nonzero
        row needs an interior point of K, so the check raises
        InteriorEmptyError before any LP, as the other weak-target engines
        do; the proper target still certifies."""
        ray = PolyhedralCone.from_generators([V(1, 1)])
        square = VectorMap.from_coeffs(1, 2, [[((2,), 1)], [((2,), 1)]])
        shifted = VectorMap.from_coeffs(1, 1, [[((1,), 1), ((0,), -1)]])
        problem = DCProblem(1, 2, 1, square, VectorMap.zero(1, 2), shifted,
                            VectorMap.zero(1, 1), BoxSet(V(-1), V(1)), ray, RAY,
                            V(0, 0), V(0))
        T, L = [LinearOperator.column([0, 0])], [LinearOperator.column([0])]
        args = (NeighborhoodSpec(HALF), GridSpec(problem.C, 9))
        with pytest.raises(InteriorEmptyError):
            sufficient_condition(problem, T, L, None, "weak", "legacy-gl", *args)
        assert solves == []
        out = sufficient_condition(problem, T, L, None, "proper", "legacy-gl", *args)
        assert out.certified
        assert [(c.ystar, c.zstar) for c in out.certificates] == [(V(1, 0), V(0))]

    def test_corrected_mode_requires_scalar_domain(self):
        zero2 = VectorMap.zero(2, 2)
        zero_z = VectorMap.zero(2, 1)
        problem = DCProblem(
            2, 2, 1, zero2, zero2, zero_z, zero_z,
            BoxSet(V(-1, -1), V(1, 1)), nonnegative_orthant(2), RAY,
            V(0, 0), V(0, 0))
        with pytest.raises(ValueError, match="one-dimensional"):
            sufficient_condition(problem, [LinearOperator.from_rows([[0, 0], [0, 0]])],
                                 [LinearOperator.from_rows([[0, 0]])], None,
                                 "weak", "corrected", NeighborhoodSpec(HALF),
                                 GridSpec(problem.C, 5))

    def test_default_corrections_are_interior(self, quartic_quadratic):
        p = quartic_quadratic.problem
        pairs = default_corrections(p.K, p.D)
        assert [c.alpha for c in pairs] == [V(1, 1), V(HALF, HALF),
                                            V("1/4", "1/4"), V("1/8", "1/8")]
        for c in pairs:
            assert cone_contains(p.K, c.alpha, strict=True)
            assert cone_contains(p.D, c.beta, strict=True)

    def test_boundary_correction_rejected(self, quartic_quadratic):
        p = quartic_quadratic.problem
        with pytest.raises(ValueError, match="interior"):
            CorrectionPair.checked(V(1, 0), V(1, 1), p.K, p.D)


class TestNecessaryCondition:
    def test_corrected_certificate_for_exceptional_instance(self, exceptional_point):
        p = exceptional_point.problem
        out = necessary_condition(p, exceptional_point.candidates_T,
                                  exceptional_point.candidates_L,
                                  "weak", "corrected", NeighborhoodSpec(HALF),
                                  GridSpec(p.C, 101))
        assert out.kind == "Multipliers"
        assert (out.certificate.ystar, out.certificate.zstar) == (V(0), V(1))
        assert out.certificate.verify()
        assert not out.warnings

    def test_legacy_infeasible_with_mechanized_trace(self, exceptional_point):
        p = exceptional_point.problem
        out = necessary_condition(p, exceptional_point.candidates_T,
                                  exceptional_point.candidates_L,
                                  "weak", "legacy-gl", NeighborhoodSpec(HALF),
                                  GridSpec(p.C, 101))
        assert out.kind == "InfeasibleOnGrid"
        assert "forces zstar = 0" in out.trace[0]
        assert "ystar in K*\\{0} is impossible" in out.trace[1]

    def test_strict_minimum_gets_objective_multiplier(self):
        # F - G = x^2 with slack constraint H - S = -1: multipliers (1, 0)
        problem = scalar_problem(scalar_map(((2,), F(1))), VectorMap.zero(1, 1),
                                 VectorMap.zero(1, 1), scalar_map(((0,), F(1))))
        zero_op = LinearOperator.column([0])
        out = necessary_condition(problem, [zero_op], [zero_op], "weak", "corrected",
                                  NeighborhoodSpec(HALF), grid_over(-1, 1))
        assert out.kind == "Multipliers"
        assert (out.certificate.ystar, out.certificate.zstar) == (V(1), V(0))

    def test_warns_when_base_point_not_minimal(self, quartic_quadratic):
        p = quartic_quadratic.problem
        out = necessary_condition(p, quartic_quadratic.candidates_T,
                                  quartic_quadratic.candidates_L,
                                  "weak", "corrected", NeighborhoodSpec(HALF),
                                  GridSpec(p.C, 41))
        assert out.warnings and "not certified weak-minimal" in out.warnings[0]

    @pytest.mark.parametrize("h", [1, -1])
    def test_weak_min_refuses_k_with_empty_interior(self, h, solves, tmp_path, capsys):
        """K is the ray through (1, 1) in Q^2, F = (x^2, x^2), G = S = 0,
        D = Q+ and H = h.  With h = 1 no point is feasible, with h = -1
        every point is; either way weak-min raises InteriorEmptyError
        before it scans, the necessary condition with it through its
        weak-min warning, before any LP, and the CLI exits 1."""
        ray = PolyhedralCone.from_generators([V(1, 1)])
        square = VectorMap.from_coeffs(1, 2, [[((2,), 1)], [((2,), 1)]])
        problem = DCProblem(1, 2, 1, square, VectorMap.zero(1, 2), scalar_map(((0,), F(h))),
                            VectorMap.zero(1, 1), BoxSet(V(-1), V(1)), ray, RAY, V(0, 0), V(0))
        U, grid = NeighborhoodSpec(HALF), GridSpec(problem.C, 5)
        with pytest.raises(InteriorEmptyError):
            check_eps_weak_local_min(problem, U, grid)
        T, L = LinearOperator.column([0, 0]), LinearOperator.column([0])
        for mode in ("corrected", "legacy-gl"):
            with pytest.raises(InteriorEmptyError):
                necessary_condition(problem, [T], [L], "weak", mode, U, grid)
        path = ray_problem_file(tmp_path / "ray-k.problem", 2, 1, "generator = 1 1",
                                "generator = 1", "poly 0 = 1 2\npoly 1 = 1 2", f"poly 0 = {h} 0")
        for argv in (["weak-min"], ["necessary", "--mode", "corrected"],
                     ["necessary", "--mode", "legacy-gl"]):
            assert main(["check", *argv, "--problem", path, "--grid", "5"]) == 1
            assert "interior empty" in capsys.readouterr().err
        assert solves == []

    def test_proper_target_tries_zero_branch_first(self, exceptional_point):
        p = exceptional_point.problem
        out = necessary_condition(p, exceptional_point.candidates_T,
                                  exceptional_point.candidates_L,
                                  "proper", "corrected", NeighborhoodSpec(HALF),
                                  GridSpec(p.C, 41))
        assert out.kind == "Multipliers"
        assert out.certificate.ystar == V(0)


class TestCertificates:
    def test_residuals_are_exact(self, exceptional_point):
        p = exceptional_point.problem
        out = necessary_condition(p, exceptional_point.candidates_T,
                                  exceptional_point.candidates_L,
                                  "weak", "corrected", NeighborhoodSpec(HALF),
                                  GridSpec(p.C, 41))
        cert = out.certificate
        assignment = cert.assignment()
        for constraint, residual in zip(cert.lfp.constraints, cert.residuals):
            assert constraint.value(assignment) - constraint.rhs == residual
            assert constraint.holds(assignment)

    def test_positive_rescaling_preserves_homogeneous_rows(self, exceptional_point):
        p = exceptional_point.problem
        out = necessary_condition(p, exceptional_point.candidates_T,
                                  exceptional_point.candidates_L,
                                  "weak", "corrected", NeighborhoodSpec(HALF),
                                  GridSpec(p.C, 41))
        for scale in (F(3, 2), F(1, 7), F(5)):
            assert out.certificate.verify(skip_scale_fixing=True, scale=scale)

    def test_nonpositive_rescaling_rejected(self, exceptional_point):
        p = exceptional_point.problem
        out = necessary_condition(p, exceptional_point.candidates_T,
                                  exceptional_point.candidates_L,
                                  "weak", "corrected", NeighborhoodSpec(HALF),
                                  GridSpec(p.C, 41))
        with pytest.raises(ValueError):
            out.certificate.verify(scale=0)

    @pytest.mark.parametrize("assignment", [(F(-1), F(1)), (F(1, 2), F(1, 4)), (F(0), F(0))],
                             ids=["breaks-ge", "breaks-eq", "all-zero"])
    def test_certificate_refuses_unverified_assignment(self, assignment):
        lfp = LinearFeasibilityProblem(("y0", "z0"), (
            Constraint((F(1), F(0)), "ge", F(0), "ystar-dual-cone"),
            Constraint((F(1), F(1)), "eq", F(1), "scale-fixing"),
            Constraint((F(0), F(0)), "ge", F(0), "trivial"),
        ))
        with pytest.raises(RuntimeError):
            _certificate(lfp, FeasibilityResult("Feasible", assignment), 1)

    @given(st.data())
    def test_integer_check_matches_fraction_residuals(self, data):
        """The check clears denominators and reads the sign of an integer;
        it keeps the Fraction residuals, accepts exactly the assignments
        every row holds at, and names the first row that breaks."""
        q = rationals(-3, 3, 4)
        n = data.draw(st.integers(2, 3))
        assignment = data.draw(st.tuples(*[q] * n))
        rows = []
        for _ in range(data.draw(st.integers(1, 4))):
            coeffs = data.draw(st.tuples(*[q] * n))
            residual = data.draw(st.sampled_from([F(0), F(0), F(1, 2), F(-1, 3), F(2)]))
            value = sum(c * v for c, v in zip(coeffs, assignment))
            rows.append(Constraint(coeffs, data.draw(st.sampled_from(("ge", "eq", "gt"))),
                                   value - residual))
        lfp = LinearFeasibilityProblem(tuple(f"v{k}" for k in range(n)), tuple(rows))
        residuals = tuple(c.value(assignment) - c.rhs for c in rows)
        broken = [(c, r) for c, r in zip(rows, residuals) if not c.residual_holds(r)]
        try:
            cert = _certificate(lfp, FeasibilityResult("Feasible", assignment), 1)
        except RuntimeError as exc:
            if broken:
                c, r = broken[0]
                assert str(exc) == (f"multiplier assignment breaks the unlabelled row "
                                    f"({c.relation}, residual {format_rational(r)})")
            else:
                assert not any(assignment) and str(exc) == "multiplier assignment is all zero"
        else:
            assert not broken and any(assignment) and cert.residuals == residuals

    def test_certificate_of_solver_result_is_checked(self):
        lfp = LinearFeasibilityProblem(("y0", "z0"), (
            Constraint((F(1), F(0)), "gt", F(0), "ystar-nonzero"),
            Constraint((F(1), F(1)), "eq", F(1), "scale-fixing"),
        ))
        cert = _certificate(lfp, solve_feasibility(lfp), 1)
        assert cert.verify() and cert.residuals[1] == 0 and cert.residuals[0] > 0
