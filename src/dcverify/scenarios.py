"""Result builders for every check kind, and the built-in scenarios.

Each check kind has one builder that runs its engine and turns the verdict
into ``CheckResult`` records.  ``dcverify check`` and the scenario pipelines
call the same builders, so the report schema of a check (its result names,
``params`` keys and ``data`` keys) is written only here.

Each scenario loads a shipped problem file, reports the feasible set and the
convexity of its maps, and then runs a fixed list of check steps whose
outcomes are the interesting content: the quartic/quadratic instance shows
the uncorrected sufficient hypotheses certifying at a point that
weak-minimality falsifies, and the exceptional-point instance shows a
certified weak minimum where the complementarity-carrying necessary system
is infeasible while the complementarity-free one yields multipliers.
"""

from __future__ import annotations

from importlib.resources import files

from .cones import format_rational
from .dissipativity import check_approx_pseudo_dissipative, gradient_field
from .multipliers import (
    MODE_CORRECTED,
    MODE_LEGACY,
    TARGET_WEAK,
    MultiplierCertificate,
    alternative_system,
    necessary_condition,
    sufficient_condition,
)
from .pareto import (
    DilationFamily,
    NeighborhoodSpec,
    check_eps_proper_local_min,
    check_eps_weak_local_min,
    feasibility,
)
from .problem import (
    BoxSet,
    GridSpec,
    VectorMap,
    check_cone_convex,
    check_convexlike,
)
from .problemfile import ParsedProblem, parse_problem
from .report import CheckResult, Report, Status, vec_strs
from .subdiff import eps_subdiff_contains, strong_subdiff_contains

SCENARIO_FILES = {
    "example-3-1": "example_3_1.problem",
    "example-4-1": "example_4_1.problem",
}

CHECK_KINDS = ("weak-min", "proper-min", "subdiff", "dissipative", "alternative",
               "sufficient", "necessary")

# the (check kind, mode) steps each scenario runs after the feasible-set and
# convexity results; every step targets weak minimality
SCENARIO_STEPS = {
    "example-3-1": (("dissipative", None), ("sufficient", MODE_LEGACY),
                    ("weak-min", None), ("sufficient", MODE_CORRECTED)),
    "example-4-1": (("weak-min", None), ("necessary", MODE_LEGACY),
                    ("necessary", MODE_CORRECTED)),
}


def scenario_names() -> list[str]:
    return sorted(SCENARIO_FILES)


def load_scenario_problem(name: str) -> ParsedProblem:
    if name not in SCENARIO_FILES:
        raise ValueError(f"unknown scenario {name!r}; expected one of {scenario_names()}")
    text = files("dcverify").joinpath("problems", SCENARIO_FILES[name]).read_text("utf-8")
    return parse_problem(text)


def _params(grid: GridSpec, U: NeighborhoodSpec | None = None) -> dict:
    params = {"grid": str(grid.points_per_axis)}
    if U is not None:
        params["radius"] = format_rational(U.radius)
    return params


def _certificate_data(cert: MultiplierCertificate) -> dict:
    return {"ystar": vec_strs(cert.ystar), "zstar": vec_strs(cert.zstar)}


def _triple_data(witness: tuple) -> dict:
    x1, x2, lam = witness
    return {"witness_x1": vec_strs(x1), "witness_x2": vec_strs(x2),
            "witness_lambda": format_rational(lam)}


def omega_result(parsed: ParsedProblem, grid: GridSpec) -> CheckResult:
    problem = parsed.problem
    pts = problem.certification_points(grid)
    flags, xbar_ok = feasibility(problem, grid)
    # the list is in lexicographic order, so its first and last feasible
    # points are the least and the greatest
    feasible = [x for x, ok in zip(pts, flags) if ok]
    data = {
        "feasible": str(len(feasible)),
        "total": str(len(pts)),
        "xbar_feasible": "true" if xbar_ok else "false",
    }
    if feasible:
        data["min"] = [format_rational(c) for c in feasible[0]]
        data["max"] = [format_rational(c) for c in feasible[-1]]
    status = Status.CERTIFIED_ON_GRID if xbar_ok else Status.FALSIFIED
    return CheckResult("feasible-set", status, params=_params(grid), data=data)


def convexity_results(parsed: ParsedProblem, grid: GridSpec) -> tuple[list[CheckResult], list[str]]:
    problem = parsed.problem
    results: list[CheckResult] = []
    falsified: dict[str, tuple] = {}
    for name, vmap, cone in (("F", problem.F, problem.K), ("G", problem.G, problem.K),
                             ("H", problem.H, problem.D), ("S", problem.S, problem.D)):
        verdict = check_cone_convex(vmap, cone, grid)
        if verdict.falsified:
            falsified[name] = verdict.witness
        results.append(CheckResult(f"cone-convexity {name}", verdict.status, params=_params(grid),
                                   data=_triple_data(verdict.witness) if verdict.falsified else {}))
    convexlike: dict[str, bool] = {}
    for name, vmap, cone in (("F", problem.F, problem.K), ("H", problem.H, problem.D)):
        verdict = check_convexlike(vmap, cone, grid)
        convexlike[name] = not verdict.falsified
        results.append(CheckResult(f"convexlike {name}", verdict.status, params=_params(grid),
                                   data=_triple_data(verdict.witness) if verdict.falsified else {}))
    flags = []
    for name in ("F", "H", "G", "S"):
        if name not in falsified or convexlike.get(name) is False:
            continue
        x1, x2, lam = falsified[name]
        flag = (f"map {name}: declared cone-convexity falsified at witness "
                f"({x1}, {x2}, lambda={format_rational(lam)})")
        if name in convexlike:
            flag += (", but the convexlike check passes, so the convexlike-based "
                     "necessary conditions still apply")
        flags.append(flag)
    return results, flags


def dissipativity_results(parsed: ParsedProblem, grid: GridSpec) -> list[CheckResult]:
    problem = parsed.problem
    results = []
    for label, vmap, cone in (("grad-G", problem.G, problem.K),
                              ("grad-S", problem.S, problem.D)):
        field = gradient_field(vmap)
        verdict = check_approx_pseudo_dissipative(field, problem.xbar, cone,
                                                  grid_template=grid)
        data = {
            "metric": "max-norm",
            "eps_samples": [
                {"eps": vec_strs(ev.eps),
                 "certified_radius": format_rational(ev.certified_radius)
                 if ev.certified_radius is not None else "none"}
                for ev in verdict.evidence
            ],
        }
        if verdict.falsified:
            data["witness"] = vec_strs(verdict.witness)
            data["failing_eps"] = vec_strs(verdict.eps)
        results.append(CheckResult(f"dissipativity {label}", verdict.status,
                                   params=_params(grid), data=data))
    return results


def weak_min_result(parsed: ParsedProblem, U: NeighborhoodSpec, grid: GridSpec) -> CheckResult:
    verdict = check_eps_weak_local_min(parsed.problem, U, grid)
    data = {"feasible_points_checked": str(verdict.checked)}
    if not verdict.certified:
        data["witness_x"] = vec_strs(verdict.witness)
        data["witness_value"] = vec_strs(verdict.witness_value)
    return CheckResult("weak-min", verdict.status, params=_params(grid, U), data=data)


def proper_min_result(parsed: ParsedProblem, U: NeighborhoodSpec, grid: GridSpec) -> CheckResult:
    family = DilationFamily(parsed.options.shears)
    verdict = check_eps_proper_local_min(parsed.problem, U, family, grid)
    data = {"feasible_points_checked": str(verdict.checked),
            "shears": [format_rational(m) for m in family.shears]}
    if verdict.certified:
        data["shear"] = format_rational(verdict.shear)
    return CheckResult("proper-min", verdict.status, params=_params(grid, U), data=data)


def subdiff_results(parsed: ParsedProblem, grid: GridSpec) -> list[CheckResult]:
    """Membership verdicts for the supplied candidates: T against the
    eps-subdifferential of G, L against the strong subdifferential of S."""
    problem = parsed.problem
    results = []
    for label, vmap, cone, eps, candidates in (
            ("eps-subdiff G", problem.G, problem.K, problem.eps, parsed.candidates_T),
            ("strong-subdiff S", problem.S, problem.D, None, parsed.candidates_L)):
        for idx, T in enumerate(candidates):
            verdict = (strong_subdiff_contains(vmap, cone, problem.xbar, T, grid) if eps is None
                       else eps_subdiff_contains(vmap, cone, problem.xbar, T, eps, grid))
            data = {"candidate": str(T)}
            if not verdict.certified:
                data["witness"] = vec_strs(verdict.witness)
            results.append(CheckResult(f"{label} candidate {idx}", verdict.status,
                                       params=_params(grid), data=data))
    return results


def alternative_result(parsed: ParsedProblem, U: NeighborhoodSpec,
                       grid: GridSpec) -> CheckResult:
    """Alternative system for the scalarized subgradient pair built from the
    first candidates, over the neighborhood grid."""
    problem = parsed.problem
    T, L = parsed.candidates_T[0], parsed.candidates_L[0]
    xbar = problem.xbar
    F_base = problem.F.evaluate(xbar)
    H_base = problem.H.evaluate(xbar)

    def shifted(vmap: VectorMap, base, op, plus_eps) -> VectorMap:
        # represent x -> vmap(x) - base - op(x - xbar) (+ eps) through the
        # polynomial parts; exceptions are translated pointwise
        coords = []
        for i in range(vmap.out_dim):
            monos = list(vmap.coords[i])
            const = -base[i] + (problem.eps[i] if plus_eps else 0)
            row = op.matrix[i]
            for j in range(vmap.in_dim):
                if row[j]:
                    exps = tuple(1 if k == j else 0 for k in range(vmap.in_dim))
                    monos.append((exps, -row[j]))
                    const += row[j] * xbar[j]
            monos.append((tuple(0 for _ in range(vmap.in_dim)), const))
            coords.append(tuple(monos))
        exceptions = []
        for p, v in vmap.exceptions:
            val = v - base - op.apply(p - xbar)
            if plus_eps:
                val = val + problem.eps
            exceptions.append((p, val))
        return VectorMap(vmap.in_dim, vmap.out_dim, tuple(coords), tuple(exceptions))

    Fsys = shifted(problem.F, F_base, T, plus_eps=True)
    Gsys = shifted(problem.H, H_base, L, plus_eps=False)
    ball = BoxSet.ball(xbar, U.radius).intersect(problem.C)
    outcome = alternative_system(Fsys, Gsys, problem.K, problem.D,
                                 GridSpec(ball, grid.points_per_axis))
    data: dict = {"T": str(T), "L": str(L)}
    if outcome.kind == Status.SOLUTION_EXISTS:
        data["x"] = vec_strs(outcome.x)
    elif outcome.kind == Status.MULTIPLIERS:
        data.update(_certificate_data(outcome.certificate))
    if outcome.warnings:
        data["warnings"] = list(outcome.warnings)
    return CheckResult("alternative", outcome.kind, params=_params(grid, U), data=data)


def _condition_params(parsed: ParsedProblem, mode: str, target: str,
                      U: NeighborhoodSpec, grid: GridSpec) -> dict:
    return {"mode": mode, "target": target, **_params(grid, U),
            "candidates_T": [str(T) for T in parsed.candidates_T],
            "candidates_L": [str(L) for L in parsed.candidates_L]}


def sufficient_result(parsed: ParsedProblem, mode: str, target: str,
                      U: NeighborhoodSpec, grid: GridSpec) -> CheckResult:
    outcome = sufficient_condition(parsed.problem, parsed.candidates_T,
                                   parsed.candidates_L, parsed.correction_pairs(),
                                   target, mode, U, grid)
    if outcome.certified:
        data = {"certificates": [_certificate_data(c) for c in outcome.certificates]}
    else:
        data = {
            "failed_T": str(outcome.failed_T),
            "failed_L": str(outcome.failed_L),
        }
        if outcome.failed_correction is not None:
            data["failed_alpha"] = vec_strs(outcome.failed_correction.alpha)
            data["failed_beta"] = vec_strs(outcome.failed_correction.beta)
    return CheckResult(f"sufficient-{mode}", outcome.kind,
                       params=_condition_params(parsed, mode, target, U, grid), data=data)


def necessary_result(parsed: ParsedProblem, mode: str, target: str,
                     U: NeighborhoodSpec, grid: GridSpec) -> CheckResult:
    outcome = necessary_condition(parsed.problem, parsed.candidates_T,
                                  parsed.candidates_L, target, mode, U, grid)
    if outcome.kind == Status.MULTIPLIERS:
        data = _certificate_data(outcome.certificate)
        data["chosen_T"] = str(outcome.chosen_T)
        data["chosen_L"] = str(outcome.chosen_L)
    else:
        data = {"trace": list(outcome.trace)}
    if outcome.warnings:
        data["warnings"] = list(outcome.warnings)
    return CheckResult(f"necessary-{mode}", outcome.kind,
                       params=_condition_params(parsed, mode, target, U, grid), data=data)


def check_results(kind: str, parsed: ParsedProblem, U: NeighborhoodSpec, grid: GridSpec,
                  mode: str | None = None, target: str = TARGET_WEAK) -> list[CheckResult]:
    """The results of one check kind; ``mode`` and ``target`` apply to the
    sufficient and necessary conditions only."""
    if kind == "weak-min":
        return [weak_min_result(parsed, U, grid)]
    if kind == "proper-min":
        return [proper_min_result(parsed, U, grid)]
    if kind == "subdiff":
        return subdiff_results(parsed, grid)
    if kind == "dissipative":
        return dissipativity_results(parsed, grid)
    if kind == "alternative":
        return [alternative_result(parsed, U, grid)]
    if kind == "sufficient":
        return [sufficient_result(parsed, mode, target, U, grid)]
    if kind == "necessary":
        return [necessary_result(parsed, mode, target, U, grid)]
    raise ValueError(f"unknown check kind {kind!r}")


def run_scenario(name: str) -> Report:
    """Execute the fixed pipeline for a shipped scenario."""
    parsed = load_scenario_problem(name)
    grid = GridSpec(parsed.problem.C, parsed.options.grid_points)
    U = NeighborhoodSpec(parsed.options.radius)
    report = Report(
        command=f"scenario {name}",
        problem=SCENARIO_FILES[name],
        options={**_params(grid, U), "format_note": "rationals rendered as p/q"},
    )
    report.results.append(omega_result(parsed, grid))
    conv_results, report.flags = convexity_results(parsed, grid)
    report.results.extend(conv_results)
    for kind, mode in SCENARIO_STEPS[name]:
        report.results.extend(check_results(kind, parsed, U, grid, mode))
    return report
