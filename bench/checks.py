"""Checks of each timed machine report against the independent kernel.

Every check either recomputes the verdict from the problem data (brute-force
scans, Fourier-Motzkin feasibility, row re-evaluation of multiplier
certificates) or, where a recomputation would cost as much as the timed run,
asserts a property the method must have (a witness that re-checks, a map
that is provably convex, a least element that makes a map convexlike, a
known answer worked out by hand).  No check compares against stored output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from kernel import (
    Cone,
    Problem,
    add,
    apply,
    convexity_violated,
    convexlike_violated,
    dot,
    feasible,
    first_convexlike_violation,
    fmt,
    fmt_vec,
    grid,
    has_least_element,
    max_norm,
    op_text,
    orientations,
    require,
    scale,
    sub,
    vec_text,
    DISSIPATIVITY_RADII,
)

# pair scans (convexity, convexlike) are recomputed only up to this many points
EXHAUSTIVE_POINTS = 40


def neg(v):
    return tuple(-c for c in v)


def vec(strings) -> tuple:
    return tuple(Fraction(s) for s in strings)


# ---------------------------------------------------------------------------
# scans shared by several checks
# ---------------------------------------------------------------------------


def weak_min_scan(p: Problem, n: int, radius: Fraction):
    """(checked count, witness x, witness difference) of the first local
    feasible point that improves by more than eps."""
    base = p.objective(p.xbar)
    checked = 0
    for x in p.local_points(n, radius):
        if not p.feasible(x):
            continue
        checked += 1
        diff = add(sub(p.objective(x), base), p.eps)
        if p.K.interior(neg(diff)):
            return checked, x, diff
    return checked, None, None


def weak_min_data(p: Problem, n: int, radius: Fraction):
    checked, x, diff = weak_min_scan(p, n, radius)
    data = {"feasible_points_checked": str(checked)}
    if x is not None:
        data["witness_x"] = fmt_vec(x)
        data["witness_value"] = fmt_vec(diff)
    return ("CertifiedOnGrid" if x is None else "Falsified"), data


def defaults(p: Problem, what: str):
    """Candidate lists as the command line fills them in."""
    T = p.T or [p.G.jacobian(p.xbar)]
    L = p.L or [(p.H if what == "necessary" else p.S).jacobian(p.xbar)]
    return T, L


class Rows:
    """Multiplier system over (ystar, zstar) built from the problem data."""

    def __init__(self, p: Problem) -> None:
        self.p = p
        self.ny, self.nz = p.y_dim, p.z_dim
        zy, zz = (Fraction(0),) * self.ny, (Fraction(0),) * self.nz
        self.ge = [(g + zz, 0) for g in p.K.generators] + [(zy + g, 0) for g in p.D.generators]
        self.eq = [(p.K.w + p.D.w, 1)]
        self.gt = []
        self.zy, self.zz = zy, zz

    def complementarity(self) -> None:
        p = self.p
        self.eq.append((self.zy + sub(p.H(p.xbar), p.S(p.xbar)), 0))

    def feasible(self, grid_rows, extra_eq=()) -> bool:
        return feasible(self.ny + self.nz, ge=self.ge + grid_rows,
                        eq=self.eq + list(extra_eq), gt=self.gt)

    def holds(self, grid_rows, ystar, zstar) -> bool:
        v = ystar + zstar
        return (all(dot(a, v) >= b for a, b in self.ge + grid_rows)
                and all(dot(a, v) == b for a, b in self.eq)
                and all(dot(a, v) > b for a, b in self.gt))


# ---------------------------------------------------------------------------
# one check per command kind
# ---------------------------------------------------------------------------


def check_weak_min(p: Problem, n: int, radius: Fraction, r: dict) -> None:
    status, data = weak_min_data(p, n, radius)
    require(r["name"] == "weak-min" and r["status"] == status and r["data"] == data,
            f"weak-min: got {r['status']} {r['data']}, kernel {status} {data}")
    require(r["params"] == {"grid": str(n), "radius": fmt(radius)}, "weak-min params")


def check_proper_min(p: Problem, n: int, radius: Fraction, r: dict) -> None:
    base = p.objective(p.xbar)
    diffs = [add(sub(p.objective(x), base), p.eps)
             for x in p.local_points(n, radius) if p.feasible(x)]
    data = {"feasible_points_checked": str(len(diffs)), "shears": [fmt(m) for m in p.shears]}
    status = "NotCertified"
    one = Fraction(1)
    for m in p.shears:
        normals = ((one, m), (m, one))
        if not any(all(dot(a, neg(d)) > 0 for a in normals) for d in diffs):
            status, data["shear"] = "CertifiedOnGrid", fmt(m)
            break
    require(r["status"] == status and r["data"] == data,
            f"proper-min: got {r['status']} {r['data']}, kernel {status} {data}")


def _subdiff_scan(vmap, cone: Cone, xbar, T, eps, pts):
    base = vmap(xbar)
    for x in pts:
        diff = add(sub(sub(vmap(x), base), apply(T, sub(x, xbar))), eps)
        if not cone.member(diff):
            return x
    return None


def check_subdiff(p: Problem, n: int, results: list) -> None:
    T_list, L_list = defaults(p, "subdiff")
    expected = []
    for idx, T in enumerate(T_list):
        pts = grid(p.lo, p.hi, n, list(p.G.exceptions) + [p.xbar])
        w = _subdiff_scan(p.G, p.K, p.xbar, T, p.eps, pts)
        expected.append((f"eps-subdiff G candidate {idx}", T, w))
    zero = (Fraction(0),) * p.z_dim
    for idx, L in enumerate(L_list):
        pts = grid(p.lo, p.hi, n, list(p.S.exceptions) + [p.xbar])
        w = _subdiff_scan(p.S, p.D, p.xbar, L, zero, pts)
        expected.append((f"strong-subdiff S candidate {idx}", L, w))
    require(len(results) == len(expected), "subdiff: result count")
    for r, (name, op, w) in zip(results, expected):
        data = {"candidate": op_text(op)}
        if w is not None:
            data["witness"] = fmt_vec(w)
        status = "CertifiedOnGrid" if w is None else "Falsified"
        require(r["name"] == name and r["status"] == status and r["data"] == data,
                f"{name}: got {r['status']} {r['data']}, kernel {status} {data}")


def dissipativity_data(vmap, cone: Cone, xbar, n: int):
    J0 = vmap.jacobian(xbar)
    evidence = []
    for k in range(5):
        eps = scale(Fraction(1, 2 ** k), cone.w)
        certified, witness = None, None
        for radius in DISSIPATIVITY_RADII:
            lo = tuple(c - radius for c in xbar)
            hi = tuple(c + radius for c in xbar)
            witness = None
            for x in grid(lo, hi, n, [xbar]):
                step = sub(x, xbar)
                moved = sub(apply(vmap.jacobian(x), step), apply(J0, step))
                if not cone.member(sub(scale(max_norm(step), eps), moved)):
                    witness = x
                    break
            if witness is None:
                certified = radius
                break
        evidence.append({"eps": fmt_vec(eps),
                         "certified_radius": fmt(certified) if certified is not None else "none"})
        if certified is None:
            return "Falsified", {"metric": "max-norm", "eps_samples": evidence,
                                 "witness": fmt_vec(witness), "failing_eps": fmt_vec(eps)}
    return "NotFalsified", {"metric": "max-norm", "eps_samples": evidence}


def check_dissipative(p: Problem, n: int, results: list) -> None:
    require(len(results) == 2, "dissipative: result count")
    for r, (label, vmap, cone) in zip(results, (("grad-G", p.G, p.K), ("grad-S", p.S, p.D))):
        status, data = dissipativity_data(vmap, cone, p.xbar, n)
        require(r["name"] == f"dissipativity {label}" and r["status"] == status
                and r["data"] == data,
                f"dissipativity {label}: got {r['status']} {r['data']}, kernel {status} {data}")


def check_alternative(p: Problem, n: int, radius: Fraction, r: dict) -> None:
    T_list, L_list = defaults(p, "alternative")
    T, L = T_list[0], L_list[0]
    xbar, Fb, Hb = p.xbar, p.F(p.xbar), p.H(p.xbar)

    def fsys(x):
        return add(sub(sub(p.F(x), Fb), apply(T, sub(x, xbar))), p.eps)

    def gsys(x):
        return sub(sub(p.H(x), Hb), apply(L, sub(x, xbar)))

    lo = tuple(max(c - radius, a) for c, a in zip(xbar, p.lo))
    hi = tuple(min(c + radius, b) for c, b in zip(xbar, p.hi))
    pts = grid(lo, hi, n, list(p.F.exceptions) + list(p.H.exceptions))
    data = r["data"]
    require(data["T"] == op_text(T) and data["L"] == op_text(L), "alternative: operators")
    solution = next((x for x in pts if p.K.interior(neg(fsys(x))) and p.D.interior(neg(gsys(x)))),
                    None)
    rows = Rows(p)
    grid_rows = [(fsys(x) + gsys(x), 0) for x in pts]
    if r["status"] == "SolutionExists":
        require(solution is not None and data["x"] == fmt_vec(solution),
                f"alternative: x {data['x']} is not the first strict solution {solution}")
    elif r["status"] == "Multipliers":
        ystar, zstar = vec(data["ystar"]), vec(data["zstar"])
        require(solution is None, "alternative: multipliers and a strict solution both exist")
        require(rows.holds(grid_rows, ystar, zstar),
                "alternative: certificate pairs negatively with some grid value")
    else:
        require(r["status"] == "GridGap" and solution is None
                and not rows.feasible(grid_rows), f"alternative: status {r['status']}")
    require(len(pts) <= EXHAUSTIVE_POINTS,
            "alternative: grid too large for the convexlike recomputation")
    warnings = []
    for name, m, cone, exc in (("F", fsys, p.K, p.F.exceptions),
                               ("G", gsys, p.D, p.H.exceptions)):
        w = first_convexlike_violation(m, cone, grid(lo, hi, n, list(exc)))
        if w is not None:
            warnings.append(f"map {name} is not convexlike on the grid (witness "
                            f"{vec_text(w[0])}, {vec_text(w[1])}, lambda={fmt(w[2])})")
    require(data.get("warnings", []) == warnings,
            f"alternative: warnings {data.get('warnings')} vs kernel {warnings}")


def sufficient_systems(p: Problem, n: int, radius: Fraction, mode: str):
    """(T, L, correction, grid rows) per multiplier system, in solve order."""
    T_list, L_list = defaults(p, "sufficient")
    if mode == "corrected":
        pairs = [(scale(Fraction(1, 2 ** k), p.K.w), scale(Fraction(1, 2 ** k), p.D.w))
                 for k in range(4)]
    else:
        pairs = [None]
    pts = p.local_points(n, radius)
    Fb, Hb = p.F(p.xbar), p.H(p.xbar)
    for T in T_list:
        for L in L_list:
            for corr in pairs:
                grid_rows = []
                for x in pts:
                    step = sub(x, p.xbar)
                    if corr is None:
                        my, mz = apply(T, step), apply(L, step)
                    else:
                        my = scale(step[0], sub(tuple(row[0] for row in T), corr[0]))
                        mz = scale(step[0], sub(tuple(row[0] for row in L), corr[1]))
                    grid_rows.append((sub(sub(p.F(x), Fb), my) + sub(sub(p.H(x), Hb), mz), 0))
                yield T, L, corr, grid_rows


def check_sufficient(p: Problem, n: int, radius: Fraction, mode: str, r: dict) -> bool:
    """Returns whether the report certified."""
    rows = Rows(p)
    rows.complementarity()
    rows.gt.append((p.K.w + rows.zz, 0))  # ystar nonzero (weak target)
    data = r["data"]
    require(r["name"] == f"sufficient-{mode}", "sufficient: result name")
    certified = r["status"] == "AllCandidatesCertified"
    certs = data.get("certificates", [])
    k = 0
    for T, L, corr, grid_rows in sufficient_systems(p, n, radius, mode):
        if not rows.feasible(grid_rows):
            require(r["status"] == "FailedFor", "sufficient: certified an infeasible system")
            require(data["failed_T"] == op_text(T) and data["failed_L"] == op_text(L),
                    "sufficient: wrong failing candidate pair")
            if corr is not None:
                require(data["failed_alpha"] == fmt_vec(corr[0])
                        and data["failed_beta"] == fmt_vec(corr[1]),
                        "sufficient: wrong failing correction pair")
            return False
        if certified:
            c = certs[k]
            require(rows.holds(grid_rows, vec(c["ystar"]), vec(c["zstar"])),
                    f"sufficient: certificate {k} violates a recomputed row")
        k += 1
    require(certified and k == len(certs),
            "sufficient: FailedFor where the kernel finds every system feasible")
    return True


def check_necessary(p: Problem, n: int, radius: Fraction, mode: str, r: dict) -> str:
    T_list, L_list = defaults(p, "necessary")
    pts = p.local_points(n, radius)
    Fb, Hb = p.F(p.xbar), p.H(p.xbar)
    rows = Rows(p)
    if mode == "legacy-gl":
        rows.complementarity()

    def grid_rows(T, L):
        out = []
        for x in pts:
            step = sub(x, p.xbar)
            cy = sub(add(sub(p.F(x), Fb), p.eps), apply(T, step))
            cz = sub(sub(p.H(x), Hb), apply(L, step))
            out.append((cy + cz, 0))
        return out

    data = r["data"]
    _, witness, _ = weak_min_scan(p, n, radius)
    warnings = [] if witness is None else [
        f"base point is not certified weak-minimal on the grid (witness {vec_text(witness)})"]
    require(data.get("warnings", []) == warnings, "necessary: warnings")
    for T in T_list:
        for L in L_list:
            if rows.feasible(grid_rows(T, L)):
                require(r["status"] == "Multipliers"
                        and data["chosen_T"] == op_text(T) and data["chosen_L"] == op_text(L),
                        "necessary: kernel finds an earlier feasible candidate pair")
                require(rows.holds(grid_rows(T, L), vec(data["ystar"]), vec(data["zstar"])),
                        "necessary: certificate violates a recomputed row")
                return r["status"]
    require(r["status"] == "InfeasibleOnGrid", "necessary: multipliers for an infeasible system")
    trace = []
    comp = sub(p.H(p.xbar), p.S(p.xbar))
    if mode == "legacy-gl" and p.D.interior(neg(comp)):
        trace.append("complementarity <zstar, (H-S)(xbar)> = 0 forces zstar = 0 "
                     "(the constraint slack is strictly interior to -D)")
        plain = Rows(p)
        z_zero = [((0,) * p.y_dim + tuple(int(i == j) for j in range(p.z_dim)), 0)
                  for i in range(p.z_dim)]
        if not plain.feasible(grid_rows(T_list[0], L_list[0]), z_zero):
            trace.append("with zstar = 0 the subgradient rows admit no nonzero ystar: "
                         "ystar in K*\\{0} is impossible")
    if not trace:
        trace.append("multiplier system infeasible on the grid for every candidate pair")
    require(data["trace"] == trace, f"necessary: trace {data['trace']} vs kernel {trace}")
    return r["status"]


# ---------------------------------------------------------------------------
# scenario pipelines
# ---------------------------------------------------------------------------


def provably_convex(vmap, cone: Cone) -> bool:
    """Affine maps are convex for any cone; over the nonnegative orthant a
    1-D map whose nonlinear monomials have even degree and nonnegative
    coefficients is convex coordinatewise."""
    if vmap.exceptions:
        return False
    monos = [m for coords in vmap.coords for m in coords]
    if all(sum(e) <= 1 for _, e in monos):
        return True
    orthant = sorted(cone.normals) == sorted(
        tuple(Fraction(int(i == j)) for j in range(cone.dim)) for i in range(cone.dim))
    return (orthant and vmap.in_dim == 1
            and all(e[0] <= 1 or (e[0] % 2 == 0 and c >= 0) for c, e in monos))


def check_feasible_set(p: Problem, n: int, r: dict) -> None:
    pts = p.certification_points(n)
    feas = [x for x in pts if p.feasible(x)]
    ok = p.feasible(p.xbar)
    data = {"feasible": str(len(feas)), "total": str(len(pts)),
            "xbar_feasible": "true" if ok else "false"}
    if feas:
        data["min"], data["max"] = fmt_vec(min(feas)), fmt_vec(max(feas))
    require(r["status"] == ("CertifiedOnGrid" if ok else "Falsified") and r["data"] == data,
            "feasible-set")


def _witness(data: dict):
    return vec(data["witness_x1"]), vec(data["witness_x2"]), Fraction(data["witness_lambda"])


def check_convexity(vmap, cone: Cone, pts: list, r: dict) -> None:
    if r["status"] == "Falsified":
        require(convexity_violated(vmap, cone, *_witness(r["data"])),
                f"{r['name']}: witness does not re-check")
    else:
        require(r["status"] == "NotFalsified" and r["data"] == {}, r["name"])
    if len(pts) <= EXHAUSTIVE_POINTS:
        first = next(((pts[a], pts[b], lam) for a, b, lam in orientations(len(pts))
                      if convexity_violated(vmap, cone, pts[a], pts[b], lam)), None)
        require((first is None) == (r["status"] == "NotFalsified")
                and (first is None or first == _witness(r["data"])),
                f"{r['name']}: first violation {first}")
    elif r["status"] == "NotFalsified":
        require(provably_convex(vmap, cone), f"{r['name']}: NotFalsified cannot be checked")


def check_convexlike(vmap, cone: Cone, pts: list, r: dict) -> None:
    if len(pts) <= EXHAUSTIVE_POINTS:
        first = first_convexlike_violation(vmap, cone, pts)
        require((first is None) == (r["status"] == "NotFalsified")
                and (first is None or first == _witness(r["data"])),
                f"{r['name']}: first violation {first}")
    elif r["status"] == "Falsified":
        x1, x2, lam = _witness(r["data"])
        require(convexlike_violated([vmap(x) for x in pts], cone, vmap(x1), vmap(x2), lam),
                f"{r['name']}: witness does not re-check")
    else:
        require(r["status"] == "NotFalsified" and has_least_element(vmap, cone, pts),
                f"{r['name']}: NotFalsified cannot be checked")


def check_scenario(name: str, p: Problem, report: dict) -> None:
    n, radius = p.grid, p.radius
    res = {r["name"]: r for r in report["results"]}
    check_feasible_set(p, n, res["feasible-set"])
    statuses = {}
    for mname, cone in (("F", p.K), ("G", p.K), ("H", p.D), ("S", p.D)):
        vmap = p.maps[mname]
        pts = grid(p.lo, p.hi, n, list(vmap.exceptions))
        check_convexity(vmap, cone, pts, res[f"cone-convexity {mname}"])
        statuses[mname] = res[f"cone-convexity {mname}"]["status"]
        if mname in "FH":
            check_convexlike(vmap, cone, pts, res[f"convexlike {mname}"])
    flags = []
    for mname in "FH":
        r = res[f"cone-convexity {mname}"]
        if statuses[mname] == "Falsified" and res[f"convexlike {mname}"]["status"] == "NotFalsified":
            x1, x2, lam = _witness(r["data"])
            flags.append(f"map {mname}: declared cone-convexity falsified at witness "
                         f"({vec_text(x1)}, {vec_text(x2)}, lambda={fmt(lam)}), but the "
                         f"convexlike check passes, so the convexlike-based necessary "
                         f"conditions still apply")
    for mname in "FGHS":
        if statuses[mname] == "Falsified" and mname not in "FH":
            x1, x2, lam = _witness(res[f"cone-convexity {mname}"]["data"])
            flags.append(f"map {mname}: declared cone-convexity falsified at witness "
                         f"({vec_text(x1)}, {vec_text(x2)}, lambda={fmt(lam)})")
    require(report["flags"] == flags, f"{name}: flags")
    check_weak_min(p, n, radius, res["weak-min"])
    weak = res["weak-min"]["status"]
    if name == "example-3-1":
        check_dissipative(p, n, [res["dissipativity grad-G"], res["dissipativity grad-S"]])
        legacy = res["sufficient-legacy-gl"]
        require(check_sufficient(p, n, radius, "legacy-gl", legacy), "3-1: legacy certifies")
        require(all(vec(c["zstar"]) == (0, 0) for c in legacy["data"]["certificates"]),
                "3-1: the legacy certificate has zstar = 0")
        require(res["weak-min"]["data"].get("witness_value") == ["-3/16", "-1/4"],
                "3-1: weak-min witness value (-3/16, -1/4)")
        corrected = check_sufficient(p, n, radius, "corrected", res["sufficient-corrected"])
        require(not (corrected and weak == "Falsified"),
                "corrected-sufficient certified at a point weak-min falsifies")
    else:
        require(_witness(res["cone-convexity F"]["data"]) == ((-1,), (1,), Fraction(1, 2)),
                "4-1: convexity witness (-1, 1, 1/2)")
        check_necessary(p, n, radius, "legacy-gl", res["necessary-legacy-gl"])
        status = check_necessary(p, n, radius, "corrected", res["necessary-corrected"])
        nec = res["necessary-corrected"]["data"]
        require((nec["ystar"], nec["zstar"]) == (["0"], ["1"]), "4-1: necessary-corrected (0, 1)")
        convexlike = all(res[f"convexlike {m}"]["status"] == "NotFalsified" for m in "FH")
        require(not (weak == "CertifiedOnGrid" and convexlike) or status == "Multipliers",
                "certified weak-min plus convexlike without corrected multipliers")


def check_ex41_corrected_infeasible(p: Problem, n: int, radius: Fraction, r: dict) -> None:
    """The hand proof: complementarity forces zstar = 0, scale-fixing then
    forces ystar = 1, and every off-base row reads -1 + alpha*x >= 0 with
    alpha*x <= 1/2, so the first correction pair already fails."""
    require(r["status"] == "FailedFor" and r["data"]["failed_alpha"] == ["1"],
            "4-1 corrected-sufficient fails at alpha = 1")
    alpha = Fraction(1)
    off = [x for x in p.local_points(n, radius) if x != p.xbar]
    require(bool(off), "4-1: no off-base rows")
    for x in off:
        coeff = sub(sub(p.F(x), p.F(p.xbar)), scale(x[0], (-alpha,)))[0]
        require(coeff == -1 + alpha * x[0] and alpha * x[0] <= Fraction(1, 2) and coeff < 0,
                "4-1: an off-base row is satisfiable")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def check_report(cmd, text: str, raw: bytes) -> dict:
    """Check one machine report; returns the parsed payload."""
    report = json.loads(raw)
    require(report["tool"] == "dcverify", "not a dcverify report")
    if cmd.kind == "scenario":
        check_scenario(cmd.target, Problem(text), report)
        return report
    p = Problem(text)
    n, radius = cmd.grid, p.radius
    results = report["results"]
    require(report["options"] == {"grid": str(n), "radius": fmt(radius)}, "options echo")
    if cmd.kind == "weak-min":
        check_weak_min(p, n, radius, results[0])
    elif cmd.kind == "proper-min":
        check_proper_min(p, n, radius, results[0])
    elif cmd.kind == "subdiff":
        check_subdiff(p, n, results)
    elif cmd.kind == "dissipative":
        check_dissipative(p, n, results)
    elif cmd.kind == "alternative":
        check_alternative(p, n, radius, results[0])
    elif cmd.kind == "sufficient":
        certified = check_sufficient(p, n, radius, cmd.mode, results[0])
        if cmd.target == "example-4-1":
            check_ex41_corrected_infeasible(p, n, radius, results[0])
        # the corrected theorem needs candidates that are eps-subgradients,
        # which the notched problems guarantee and random candidates do not
        if cmd.target == "notched":
            require(certified and weak_min_scan(p, n, radius)[1] is None,
                    "notched: corrected-sufficient and weak-min both certify")
    elif cmd.kind == "necessary":
        check_necessary(p, n, radius, cmd.mode, results[0])
    else:
        raise ValueError(f"unknown command kind {cmd.kind!r}")
    return report
