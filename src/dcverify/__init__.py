"""dcverify: exact-rational verification toolkit for DC vector optimization."""

from .cones import (
    ConeError,
    DimensionMismatchError,
    InteriorEmptyError,
    PolyhedralCone,
    RationalVector,
    cone_contains,
    dual_cone,
    format_rational,
    nonnegative_orthant,
    parse_rational,
)
from .dissipativity import (
    DissipativityVerdict,
    OperatorField,
    check_approx_pseudo_dissipative,
    gradient_field,
)
from .multipliers import (
    AlternativeOutcome,
    Constraint,
    CorrectionPair,
    LinearFeasibilityProblem,
    MultiplierCertificate,
    NecessaryOutcome,
    SufficientOutcome,
    alternative_system,
    default_corrections,
    necessary_condition,
    solve_feasibility,
    sufficient_condition,
)
from .pareto import (
    DilationFamily,
    NeighborhoodSpec,
    ProperMinVerdict,
    WeakMinVerdict,
    check_eps_proper_local_min,
    check_eps_weak_local_min,
)
from .problem import (
    BoxSet,
    ConvexityVerdict,
    DCProblem,
    GridSpec,
    VectorMap,
    check_cone_convex,
    check_convexlike,
    feasible_contains,
)
from .problemfile import ParsedProblem, ProblemFileError, parse_problem
from .report import CheckResult, Report, emit_report, parse_machine_report
from .scenarios import run_scenario, scenario_names
from .subdiff import (
    LinearOperator,
    RationalInterval,
    SubdiffVerdict,
    eps_subdiff_contains,
    scalar_eps_subdiff_interval,
    strong_subdiff_contains,
)

__version__ = "0.1.0"
