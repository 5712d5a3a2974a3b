"""Seeded problem files for the benchmark workloads.

Generated problems are written in the problem-file format and read back by
the program through its command line, exactly as a user's files would be.
Each generator documents the property it guarantees; the checks rely on none
of them except where a docstring says so.
"""

from __future__ import annotations

import random
from fractions import Fraction

from kernel import fmt

Q = Fraction


def _coeff(rng: random.Random, lo: int = -4, hi: int = 4) -> Fraction:
    return Q(rng.randint(lo, hi), rng.choice([1, 2, 4]))


def _monos(monos) -> str:
    """'c e1 e2, c e1 e2' for a list of (coefficient, exponents)."""
    return ", ".join(" ".join([fmt(Q(c))] + [str(e) for e in exps]) for c, exps in monos)


def _row(values) -> str:
    return " ".join(fmt(Q(v)) for v in values)


def _operator(matrix, x_dim: int) -> str:
    if x_dim == 1:
        return _row(row[0] for row in matrix)
    return "; ".join(_row(row) for row in matrix)


def render(*, title: str, x_dim: int, K: list, D: list, maps: dict, lower, upper, xbar, eps,
           T=(), L=(), grid: int = 101, radius: Fraction = Q(1, 2)) -> str:
    """Problem-file text; ``maps`` holds per map a list of coordinate
    monomial lists and a list of (point, value) overrides."""
    lines = [f"# {title}", "", "[spaces]", f"x_dim = {x_dim}",
             f"y_dim = {len(K[0])}", f"z_dim = {len(D[0])}", ""]
    for name, gens in (("K", K), ("D", D)):
        lines += [f"[cone {name}]"] + [f"generator = {_row(g)}" for g in gens] + [""]
    for name in "FGHS":
        coords, exceptions = maps[name]
        lines.append(f"[map {name}]")
        lines += [f"poly {i} = {_monos(m)}" for i, m in enumerate(coords) if m]
        lines += [f"except = {_row(p)} -> {_row(v)}" for p, v in exceptions]
        lines.append("")
    lines += ["[set C]", f"lower = {_row(lower)}", f"upper = {_row(upper)}", "",
              "[point]", f"xbar = {_row(xbar)}", f"eps = {_row(eps)}", ""]
    if T or L:
        lines += ["[candidates]"] + [f"T = {_operator(m, x_dim)}" for m in T]
        lines += [f"L = {_operator(m, x_dim)}" for m in L] + [""]
    lines += ["[options]", f"grid = {grid}", f"radius = {fmt(Q(radius))}"]
    return "\n".join(lines) + "\n"


def notched(rng: random.Random, y_dim: int, index: int) -> str:
    """A 1-D problem on [-1, 1] whose objective value at the base point 0 is
    lowered far enough that, at every grid, both the corrected sufficient
    rows and the weak-minimality margin hold with slack at least one: so
    corrected-sufficient certifies, with one feasible LP per correction pair.

    For |x| <= 1/2 the quadratic f = a x^2 + b x moves by at most
    |a|/4 + |b|/2, and (t - alpha) x by at most (|t| + 1)/2; the dip adds one
    to the sum of these bounds.

    The constraint is S = s x, H = s x - M with M >= 1, so every point is
    feasible and complementarity forces zstar = 0.  Its row part beta x does
    not depend on the seed: the rows left of the base point survive pruning
    and the others are implied by the dual-cone rows, so the LP sizes are
    the same for every seed."""
    F_coords, G_coords, eps, T, dips = [], [], [], [], []
    for _ in range(y_dim):
        a_f, b_f = Q(rng.randint(0, 4)), _coeff(rng)
        a_g, b_g = Q(rng.randint(0, 4)), _coeff(rng)
        F_coords.append([(a_f, (2,)), (b_f, (1,))])
        G_coords.append([(a_g, (2,)), (b_g, (1,))])
        eps.append(Q(rng.choice([0, 1, 2]), 4))
        T.append((b_g,))
        row_bound = a_f / 4 + abs(b_f) / 2 + (abs(b_g) + 1) / 2
        margin_bound = abs(a_f - a_g) / 4 + abs(b_f - b_g) / 2
        dips.append(max(row_bound, margin_bound) + 1)
    s, M = _coeff(rng), Q(rng.randint(1, 3))
    H = [[(s, (1,)), (-M, (0,))]]
    S = [[(s, (1,))]]
    K = [(1,)] if y_dim == 1 else [(1, 0), (0, 1)]
    maps = {"F": (F_coords, [((0,), tuple(-d for d in dips))]), "G": (G_coords, []),
            "H": (H, []), "S": (S, [])}
    return render(title=f"notched {index}: y_dim={y_dim}", x_dim=1, K=K, D=[(1,)], maps=maps,
                  lower=(-1,), upper=(1,), xbar=(0,), eps=eps, T=[T])


# ---------------------------------------------------------------------------
# the check-mix corpus
# ---------------------------------------------------------------------------

SPACE_DIMS = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3))


def _det(m) -> Fraction:
    if len(m) == 1:
        return Q(m[0][0])
    if len(m) == 2:
        return Q(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    return sum(((-1) ** j) * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(3))


def _cone(rng: random.Random, dim: int, orthant: bool, extra: bool) -> tuple[list, bool]:
    """Generators of a pointed full-dimensional cone: the orthant, or the
    columns of a random invertible integer matrix, with a redundant
    generator inside when ``extra``; returns (generators, is_orthant)."""
    if orthant:
        return [tuple(int(i == j) for j in range(dim)) for i in range(dim)], True
    while True:
        m = [[rng.randint(-2, 3) for _ in range(dim)] for _ in range(dim)]
        if _det(m) != 0:
            break
    gens = [tuple(m[i][j] for i in range(dim)) for j in range(dim)]
    if dim > 1 and extra:
        gens.append(tuple(a + b for a, b in zip(gens[0], gens[1])))
    return gens, False


def _poly(rng: random.Random, x_dim: int) -> list:
    if x_dim == 1:
        exps = [(d,) for d in range(4)]
    else:
        exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return [(_coeff(rng), e) for e in exps]


def mixed(rng: random.Random, index: int) -> tuple[str, dict]:
    """One small problem; returns its text and the facts the command list
    needs (x_dim, y_dim, whether K is the nonnegative orthant, grid).

    The shape of problem ``index`` (dimensions, cone kinds, where an
    exceptional point sits, whether candidates are given, box, grid and radius) is
    fixed by the index, and the seed draws only the numbers, so every seed
    yields the same command list with work of similar size."""
    x_dim = 1 if index % 3 else 2
    y_dim, z_dim = SPACE_DIMS[index % len(SPACE_DIMS)]
    K, k_orthant = _cone(rng, y_dim, orthant=(index // 2) % 2 == 0, extra=index % 5 == 0)
    D, _ = _cone(rng, z_dim, orthant=(index // 3) % 2 == 0, extra=index % 5 == 1)
    lower = (Q(-1), Q(-1, 2), Q(-2))[index % 3]
    upper = (Q(1), Q(2), Q(1, 2))[(index // 3) % 3]
    lower, upper = (lower,) * x_dim, (upper,) * x_dim
    xbar = ((Q(0),) * x_dim, lower, (Q(1, 3),) * x_dim)[(index // 2) % 3]
    maps = {}
    for k, (name, out_dim) in enumerate((("F", y_dim), ("G", y_dim), ("H", z_dim), ("S", z_dim))):
        coords = [_poly(rng, x_dim) for _ in range(out_dim)]
        exceptions = []
        if index % 5 == k:
            where = xbar if index % 8 < 4 else tuple((a + b) / 2 + Q(1, 7) for a, b in zip(lower, upper))
            exceptions.append((where, tuple(_coeff(rng) for _ in range(out_dim))))
        maps[name] = (coords, exceptions)
    weights = [Q(rng.choice([0, 1, 2]), 4) for _ in K]
    eps = tuple(sum((w * g[i] for w, g in zip(weights, K)), Q(0)) for i in range(y_dim))
    T, L = (), ()
    if index % 2 == 0:
        T = [[[_coeff(rng, -2, 2) for _ in range(x_dim)] for _ in range(y_dim)]]
        L = [[[_coeff(rng, -2, 2) for _ in range(x_dim)] for _ in range(z_dim)]]
    grid = (5, 7, 9, 11)[index % 4] if x_dim == 1 else 3
    radius = (Q(1, 2), Q(3, 4), Q(1))[index % 3]
    text = render(title=f"check-mix {index}", x_dim=x_dim, K=K, D=D, maps=maps,
                  lower=lower, upper=upper, xbar=xbar, eps=eps, T=T, L=L,
                  grid=grid, radius=radius)
    return text, {"x_dim": x_dim, "y_dim": y_dim, "k_orthant": k_orthant, "grid": grid}
