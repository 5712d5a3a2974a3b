"""Independent checking kernel for the benchmark.

Everything here is written from the problem-file format and the documented
semantics of each check, with its own ``Fraction`` polynomial evaluator,
halfspace dot products, brute-force grid scans and a Fourier-Motzkin
feasibility test.  It imports nothing from dcverify, so a fault in an engine
cannot hide behind the same fault in its checker.

Cones are limited to what the benchmark generates: pointed, full-dimensional
cones of dimension 1 to 3.  Their facet normals are found by brute force
(perpendiculars of generator subsets that every generator satisfies).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

Vec = tuple  # tuple of Fractions

ZERO = Fraction(0)
LAMBDAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
DEFAULT_SHEARS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
DISSIPATIVITY_RADII = tuple(Fraction(1, 2 ** k) for k in (1, 3, 5, 7, 9))


class CheckFailure(AssertionError):
    """A timed output disagrees with the kernel."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt_vec(v: Vec) -> list[str]:
    return [fmt(c) for c in v]


def vec_text(v: Vec) -> str:
    return "(" + ", ".join(fmt_vec(v)) + ")"


def op_text(matrix) -> str:
    return "[" + "; ".join(" ".join(fmt(v) for v in row) for row in matrix) + "]"


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((p * q for p, q in zip(a, b)), ZERO)


def add(a: Vec, b: Vec) -> Vec:
    return tuple(p + q for p, q in zip(a, b))


def sub(a: Vec, b: Vec) -> Vec:
    return tuple(p - q for p, q in zip(a, b))


def scale(s: Fraction, a: Vec) -> Vec:
    return tuple(s * p for p in a)


def apply(matrix, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in matrix)


def max_norm(v: Vec) -> Fraction:
    return max(abs(c) for c in v)


def primitive(v: Vec) -> Vec:
    """Positive multiple with coprime integer entries."""
    if all(c == 0 for c in v):
        return v
    lcm = 1
    for c in v:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in v]
    g = 0
    for i in ints:
        g = gcd(g, abs(i))
    return tuple(Fraction(i // g) for i in ints)


def rank(rows, dim: int) -> int:
    mat = [list(r) for r in rows]
    r = 0
    for col in range(dim):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col] / mat[r][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def _perpendiculars(gens: list[Vec], dim: int) -> list[Vec]:
    if dim == 1:
        return [(Fraction(1),), (Fraction(-1),)]
    out = []
    for pair in itertools.combinations(gens, dim - 1):
        if dim == 2:
            (a, b), = pair
            n = (-b, a)
        else:
            (a1, a2, a3), (b1, b2, b3) = pair
            n = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        if any(n):
            out += [n, tuple(-c for c in n)]
    return out


class Cone:
    """Pointed full-dimensional cone given by generators; membership through
    every valid facet normal, found by brute force."""

    def __init__(self, generators: list[Vec]) -> None:
        self.dim = len(generators[0])
        self.generators = generators
        normals = {primitive(n) for n in _perpendiculars(generators, self.dim)
                   if all(dot(n, g) >= 0 for g in generators)}
        self.normals = sorted(normals)
        require(rank(self.normals, self.dim) == self.dim,
                "benchmark cones must be pointed and full-dimensional")
        # extreme rays: generators tight on a rank dim-1 set of normals
        rays = set()
        for g in generators:
            tight = [n for n in self.normals if dot(n, g) == 0]
            if self.dim == 1 or rank(tight, self.dim) == self.dim - 1:
                rays.add(primitive(g))
        self.rays = sorted(rays)
        self.w = tuple(sum(c) for c in zip(*self.rays))  # interior point

    def member(self, v: Vec) -> bool:
        return all(dot(n, v) >= 0 for n in self.normals)

    def interior(self, v: Vec) -> bool:
        return all(dot(n, v) > 0 for n in self.normals)


# ---------------------------------------------------------------------------
# maps and grids
# ---------------------------------------------------------------------------


def poly_value(monomials, x: Vec) -> Fraction:
    total = ZERO
    for coeff, exps in monomials:
        term = coeff
        for xi, e in zip(x, exps):
            term *= xi ** e
        total += term
    return total


class Map:
    """Per-coordinate monomial lists (coefficient, exponents) plus overrides."""

    def __init__(self, in_dim: int, coords, exceptions: dict) -> None:
        self.in_dim = in_dim
        self.coords = coords
        self.exceptions = exceptions

    def __call__(self, x: Vec) -> Vec:
        hit = self.exceptions.get(x)
        if hit is not None:
            return hit
        return tuple(poly_value(m, x) for m in self.coords)

    def jacobian(self, x: Vec):
        """Jacobian of the polynomial part (overrides carry no derivative)."""
        rows = []
        for monos in self.coords:
            row = []
            for j in range(self.in_dim):
                d = []
                for coeff, exps in monos:
                    if exps[j]:
                        e = list(exps)
                        e[j] -= 1
                        d.append((coeff * exps[j], e))
                row.append(poly_value(d, x))
            rows.append(tuple(row))
        return tuple(rows)


def grid(lo: Vec, hi: Vec, n: int, extra=()) -> list[Vec]:
    """Lexicographically sorted grid points of a box, merged with the extra
    points that lie inside it."""
    axes = []
    for a, b in zip(lo, hi):
        axes.append([a] if a == b else [a + k * (b - a) / (n - 1) for k in range(n)])
    pts = set(itertools.product(*axes))
    for p in extra:
        if all(a <= c <= b for a, c, b in zip(lo, p, hi)):
            pts.add(p)
    return sorted(pts)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def _rats(text: str) -> Vec:
    return tuple(Fraction(t) for t in text.split())


class Problem:
    """The subset of the problem-file format the benchmark writes and ships."""

    def __init__(self, text: str) -> None:
        sections: dict[str, list[tuple[str, str]]] = {}
        current = None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                current = line[1:-1].strip()
                sections[current] = []
                continue
            key, value = line.split("=", 1)
            sections[current].append((key.strip(), value.strip()))
        spaces = {k: int(v) for k, v in sections["spaces"]}
        self.x_dim, self.y_dim, self.z_dim = spaces["x_dim"], spaces["y_dim"], spaces["z_dim"]
        self.K = Cone([_rats(v) for _, v in sections["cone K"]])
        self.D = Cone([_rats(v) for _, v in sections["cone D"]])
        self.maps = {}
        for name, out_dim in (("F", self.y_dim), ("G", self.y_dim),
                              ("H", self.z_dim), ("S", self.z_dim)):
            coords = [[] for _ in range(out_dim)]
            exceptions = {}
            for key, value in sections[f"map {name}"]:
                if key.startswith("poly"):
                    for chunk in value.split(","):
                        toks = chunk.split()
                        coords[int(key.split()[1])].append(
                            (Fraction(toks[0]), tuple(int(t) for t in toks[1:])))
                else:
                    left, right = value.split("->")
                    exceptions[_rats(left)] = _rats(right)
            self.maps[name] = Map(self.x_dim, coords, exceptions)
        self.F, self.G, self.H, self.S = (self.maps[k] for k in "FGHS")
        box = dict(sections["set C"])
        self.lo, self.hi = _rats(box["lower"]), _rats(box["upper"])
        point = dict(sections["point"])
        self.xbar, self.eps = _rats(point["xbar"]), _rats(point["eps"])
        self.T = [self._operator(v, self.y_dim) for k, v in sections.get("candidates", [])
                  if k == "T"]
        self.L = [self._operator(v, self.z_dim) for k, v in sections.get("candidates", [])
                  if k == "L"]
        options = dict(sections.get("options", []))
        self.grid = int(options.get("grid", 101))
        self.radius = Fraction(options.get("radius", "1/2"))
        self.shears = _rats(options["dilation"]) if "dilation" in options else DEFAULT_SHEARS

    def _operator(self, text: str, out_dim: int):
        if ";" in text:
            return tuple(_rats(r) for r in text.split(";"))
        if self.x_dim == 1:
            return tuple((v,) for v in _rats(text))
        return (_rats(text),)

    def exception_points(self) -> list[Vec]:
        return [p for m in (self.F, self.G, self.H, self.S) for p in m.exceptions]

    def certification_points(self, n: int) -> list[Vec]:
        return grid(self.lo, self.hi, n, self.exception_points() + [self.xbar])

    def local_points(self, n: int, radius: Fraction) -> list[Vec]:
        return [x for x in self.certification_points(n)
                if max_norm(sub(x, self.xbar)) <= radius]

    def objective(self, x: Vec) -> Vec:
        return sub(self.F(x), self.G(x))

    def feasible(self, x: Vec) -> bool:
        inside = all(a <= c <= b for a, c, b in zip(self.lo, x, self.hi))
        return inside and self.D.member(sub(self.S(x), self.H(x)))


# ---------------------------------------------------------------------------
# exact linear feasibility by Fourier-Motzkin elimination
# ---------------------------------------------------------------------------


def _normalize(coeffs: Vec, rhs: Fraction, strict: bool):
    lead = next((abs(c) for c in coeffs if c != 0), None)
    if lead is None:
        return coeffs, rhs, strict
    return tuple(c / lead for c in coeffs), rhs / lead, strict


def _prune(rows):
    """Keep, per normalized coefficient vector, only the tightest row."""
    best: dict = {}
    for coeffs, rhs, strict in rows:
        if all(c == 0 for c in coeffs):
            if rhs > 0 or (strict and rhs == 0):
                return None  # 0 >= positive: infeasible
            continue
        coeffs, rhs, strict = _normalize(coeffs, rhs, strict)
        old = best.get(coeffs)
        if old is None or rhs > old[0] or (rhs == old[0] and strict):
            best[coeffs] = (rhs, strict)
    return [(c, r, s) for c, (r, s) in best.items()]


def feasible(nvars: int, ge=(), eq=(), gt=()) -> bool:
    """Decide whether {v : a.v >= b (ge), a.v == b (eq), a.v > b (gt)} is
    nonempty, each row given as (coefficients, rhs)."""
    rows = [(tuple(a), Fraction(b), False) for a, b in ge]
    rows += [(tuple(a), Fraction(b), True) for a, b in gt]
    eqs = [(list(a), Fraction(b)) for a, b in eq]
    # substitute the equalities away
    while eqs:
        a, b = eqs.pop()
        j = next((k for k, c in enumerate(a) if c != 0), None)
        if j is None:
            if b != 0:
                return False
            continue

        def subst(coeffs, rhs, a=a, b=b, j=j):
            f = coeffs[j] / a[j]
            return [c - f * p for c, p in zip(coeffs, a)], rhs - f * b
        eqs = [subst(c, r) for c, r in eqs]
        rows = [(tuple(c), r, s) for (c, r), s in
                ((subst(list(c), r), s) for c, r, s in rows)]
    rows = _prune(rows)
    while rows is not None and rows:
        live = [j for j in range(nvars) if any(c[j] != 0 for c, _, _ in rows)]
        if not live:
            break

        def cost(j):
            pos = sum(1 for c, _, _ in rows if c[j] > 0)
            neg = sum(1 for c, _, _ in rows if c[j] < 0)
            return pos * neg - pos - neg
        j = min(live, key=cost)
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        new = [r for r in rows if r[0][j] == 0]
        for cp, rp, sp in pos:
            for cn, rn, sn in neg:
                fp, fn = -cn[j], cp[j]
                new.append((tuple(fp * x + fn * y for x, y in zip(cp, cn)),
                            fp * rp + fn * rn, sp or sn))
        rows = _prune(new)
    return rows is not None


# ---------------------------------------------------------------------------
# brute-force scans
# ---------------------------------------------------------------------------


def orientations(n: int):
    """(a, b, lambda) in the order the pair scans visit them."""
    lam_set = set(LAMBDAS)
    for i in range(n):
        for j in range(i, n):
            for lam in LAMBDAS:
                yield i, j, lam
                if i != j and (1 - lam) not in lam_set:
                    yield j, i, lam


def convexity_violated(vmap: Map, cone: Cone, x1: Vec, x2: Vec, lam: Fraction) -> bool:
    mid = vmap(add(scale(lam, x1), scale(1 - lam, x2)))
    combo = add(scale(lam, vmap(x1)), scale(1 - lam, vmap(x2)))
    return not cone.member(sub(combo, mid))


def convexlike_violated(values: list[Vec], cone: Cone, va: Vec, vb: Vec,
                        lam: Fraction) -> bool:
    target = add(scale(lam, va), scale(1 - lam, vb))
    return not any(cone.member(sub(target, v)) for v in values)


def first_convexlike_violation(vmap: Map, cone: Cone, pts: list[Vec]):
    values = [vmap(p) for p in pts]
    for a, b, lam in orientations(len(pts)):
        if convexlike_violated(values, cone, values[a], values[b], lam):
            return pts[a], pts[b], lam
    return None


def has_least_element(vmap: Map, cone: Cone, pts: list[Vec]) -> bool:
    """Some grid value lies below every other in the cone order, which makes
    the map convexlike on that grid."""
    values = [vmap(p) for p in pts]
    return any(all(cone.member(sub(v, u)) for v in values) for u in values)
