"""Shared generators and oracles for the test suite.

Everything here is deliberately independent of the solver's internals:
membership by brute inequality checks, determinants by cofactor expansion,
semigroup membership by Cramer's rule over those determinants, rank by
``Fraction`` Gaussian elimination, LLL by the classical rational
Gram-Schmidt algorithm, and Laurent expansions by per-term ``Fraction``
series. These are the second route that the package's formulas are checked
against. The exception is ``decompose_along_random_direction(s)``: input
generators, not oracles, that run the package's own Barvinok recursion
under other reference directions.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, factorial, floor, gcd
import random

from symcones import ConeCombination, LDSystem, Relation, SymbolicCone, canonicalize, cone
from symcones.barvinok import _decompose_with_direction
from symcones.exactmath import IntMat, det, mat_vec


def cols_from_rows(rows) -> IntMat:
    """Spec-style row-list matrix to the package's column-tuple form."""
    m, n = len(rows), len(rows[0])
    return tuple(tuple(rows[i][j] for i in range(m)) for j in range(n))


def cofactor_det(rows) -> int:
    """Independent determinant oracle by Laplace expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


@lru_cache(maxsize=256)
def _cramer_minor(generators):
    """The first k x k row minor with a non-zero ``cofactor_det``, as
    ``(rows, d, cof)``: Cramer's rule gives ``lam_j = sum_t cof[j][t] *
    x[rows[t]] / d``, ``cof[j][t]`` being the determinant of the minor with
    column j replaced by the t-th unit vector."""
    k = len(generators)
    for picked in combinations(range(len(generators[0])), k):
        minor = [[g[i] for g in generators] for i in picked]
        d = cofactor_det(minor)
        if d != 0:
            break
    else:
        raise ValueError("generators not linearly independent")
    cof = tuple(
        tuple(
            cofactor_det([r[:j] + [int(s == t)] + r[j + 1:] for s, r in enumerate(minor)])
            for t in range(k)
        )
        for j in range(k)
    )
    return picked, d, cof


def gauss_rank(columns) -> int:
    """Independent rank oracle: ``Fraction`` Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in zip(*columns)]
    rank = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][j] / rows[rank][j]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cramer_solve(generators, x):
    """Solve ``sum_j lam_j * generators[j] == x`` by Cramer's rule.

    Solves on the first k x k row minor of the n x k generator matrix with
    a non-zero ``cofactor_det`` and checks the remaining rows. Returns the
    ``Fraction`` coefficients, or ``None`` when ``x`` is outside the column
    span; raises ``ValueError`` for dependent generators.
    """
    picked, d, cof = _cramer_minor(tuple(map(tuple, generators)))
    num = [sum(c * x[i] for c, i in zip(row, picked)) for row in cof]
    for i in range(len(x)):
        if sum(g[i] * c for g, c in zip(generators, num)) != d * x[i]:
            return None
    return tuple(Fraction(c, d) for c in num)


def reference_lll(basis) -> IntMat:
    """The classical rational LLL (delta = 3/4) that ``lll_reduce`` must equal.

    Fully size-reduces ``b_i`` against ``b_{i-1}, ..., b_0`` before the
    Lovasz test, steps back to ``max(i - 1, 1)`` after a swap, and
    recomputes the whole ``Fraction`` Gram-Schmidt after every change.
    Raises ``ValueError`` for dependent columns.
    """
    delta = Fraction(3, 4)
    k = len(basis)
    b = [list(col) for col in basis]

    def gram_schmidt() -> tuple[list[list[Fraction]], list[Fraction]]:
        star: list[list[Fraction]] = []
        mu = [[Fraction(0)] * k for _ in range(k)]
        norms: list[Fraction] = []
        for i in range(k):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = sum(Fraction(x) * y for x, y in zip(b[i], star[j])) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            nv = sum(x * x for x in v)
            if nv == 0:
                raise ValueError("generators not linearly independent")
            star.append(v)
            norms.append(nv)
        return mu, norms

    mu, norms = gram_schmidt()
    i = 1
    while i < k:
        for j in range(i - 1, -1, -1):
            c = (mu[i][j] + Fraction(1, 2)).__floor__()
            if c:
                b[i] = [x - c * y for x, y in zip(b[i], b[j])]
                mu, norms = gram_schmidt()
        if norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1]:
            i += 1
        else:
            b[i], b[i - 1] = b[i - 1], b[i]
            mu, norms = gram_schmidt()
            i = max(i - 1, 1)
    return tuple(tuple(col) for col in b)


def _series_mul(f, g, order):
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(f):
        for j in range(order - i + 1):
            out[i + j] += a * g[j]
    return out


def reference_term_laurent(term, direction) -> list[Fraction]:
    """Laurent coefficients of orders t^-k .. t^0 of one rational-function
    term under z_i -> e^{lam_i t}, k its number of denominator factors.

    Expands mult * sum_u e^{a_u t} * prod_b 1/(1 - e^{bt}) term by term in
    ``Fraction`` series: 1/(1 - e^{bt}) = -1/(bt) * 1/f_b(t) with
    f_b = (e^{bt} - 1)/(bt) = sum_j (bt)^j/(j+1)!, inverted by the
    recurrence of a series reciprocal.
    """
    k = len(term.denominator)
    dots = [sum(a * b for a, b in zip(direction, v)) for v in term.denominator]
    if any(b == 0 for b in dots):
        raise ValueError("direction is orthogonal to a denominator exponent")
    series = [Fraction(1)] + [Fraction(0)] * k
    for b in dots:
        f = [Fraction(b**j, factorial(j + 1)) for j in range(k + 1)]
        inv = [Fraction(1)]
        for m in range(1, k + 1):
            inv.append(-sum(f[j] * inv[m - j] for j in range(1, m + 1)))
        series = _series_mul(series, inv, k)
    exps = [Fraction(0)] * (k + 1)
    for u in term.numerator:
        a = sum(x * y for x, y in zip(direction, u))
        for j in range(k + 1):
            exps[j] += Fraction(a**j, factorial(j))
    lead = Fraction(term.mult * (-1) ** k)
    for b in dots:
        lead /= b
    return [lead * coeff for coeff in _series_mul(series, exps, k)]


def reference_summed_laurent(expr, direction) -> list[Fraction]:
    """``reference_term_laurent`` summed over the terms, aligned at t^0."""
    order = max((len(t.denominator) for t in expr.terms), default=0)
    total = [Fraction(0)] * (order + 1)
    for t in expr.terms:
        coeffs = reference_term_laurent(t, direction)
        for i, coeff in enumerate(coeffs):
            total[order + 1 - len(coeffs) + i] += coeff
    return total


def random_full_dim_cone(
    rng: random.Random,
    dim: int,
    entry_bound: int,
    max_det: int | None = None,
    rational_apex: bool = False,
    apex_denominator_bound: int = 5,
    random_openness: bool = False,
) -> SymbolicCone:
    """Random full-dimensional simplicial cone, optionally det-capped."""
    while True:
        gens = tuple(
            tuple(rng.randint(-entry_bound, entry_bound) for _ in range(dim))
            for _ in range(dim)
        )
        if any(all(x == 0 for x in g) for g in gens):
            continue
        d = det(gens)
        if d == 0:
            continue
        if max_det is not None and abs(d) > max_det:
            continue
        break
    if rational_apex:
        apex = tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, apex_denominator_bound))
            for _ in range(dim)
        )
    else:
        apex = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
    bits = tuple(rng.randint(0, 1) if random_openness else 0 for _ in range(dim))
    return cone(gens, apex, bits)


def decompose_along_random_direction(c: SymbolicCone, rng: random.Random) -> ConeCombination:
    """The Barvinok recursion under a random reference direction xi = V @ w,
    w positive on closed and negative on open generators. Every such xi has
    c's openness as its sign pattern on c's facets, the one property
    ``barvinok_decompose``'s own xi = V @ (+-1) is chosen for, so the signed
    sum must be [c] whichever w is drawn."""
    c = canonicalize(c)
    weights = tuple(rng.randint(1, 2**20) * (1 if bit == 0 else -1) for bit in c.openness)
    xi = mat_vec(c.generators, weights)
    return _decompose_with_direction(c, det(c.generators), xi, 1)


def decompose_along_random_directions(
    combination: ConeCombination, rng: random.Random
) -> ConeCombination:
    """``decompose_combination`` with a random direction drawn per cone."""
    out = ConeCombination()
    for c, mult in combination.items():
        for leaf, sign in decompose_along_random_direction(c, rng).items():
            out.add(leaf, mult * sign)
    return out


def random_system(rng: random.Random, dim: int, num_rows: int, entry_bound: int = 5) -> LDSystem:
    rows = tuple(
        tuple(rng.randint(-entry_bound, entry_bound) for _ in range(dim))
        for _ in range(num_rows)
    )
    rhs = tuple(rng.randint(-entry_bound, entry_bound) for _ in range(num_rows))
    return LDSystem(rows, (Relation.GEQ,) * num_rows, rhs)


def table_system(row_sums, col_sums) -> LDSystem:
    """Contingency table over row-major cells: every row sum and all but
    the last (implied) column sum as equations."""
    r, c = len(row_sums), len(col_sums)
    rows = [tuple(1 if k // c == i else 0 for k in range(r * c)) for i in range(r)]
    rows += [tuple(1 if k % c == j else 0 for k in range(r * c)) for j in range(c - 1)]
    rhs = tuple(row_sums) + tuple(col_sums[:-1])
    return LDSystem(tuple(rows), (Relation.EQ,) * len(rows), rhs)


def assert_canonical_by_construction(c: SymbolicCone) -> None:
    """A cone the solver built without validation equals its validated form."""
    assert all(type(x) is int for g in c.generators for x in g)
    assert all(type(a) is int for a in c.num) and type(c.den) is int
    assert c.den > 0 and gcd(c.den, *c.num) == 1
    rebuilt = canonicalize(SymbolicCone(c.generators, c.apex, c.openness))
    assert rebuilt == c
    assert hash(rebuilt) == hash(c)
    assert gauss_rank(c.generators) == len(c.generators)


def reference_elimination_apexes(c: SymbolicCone) -> list[tuple[Fraction, ...]]:
    """The apexes one elimination step can give ``c``, by ``Fraction``
    arithmetic: for each generator v_j crossing {x_n = 0}, the point
    q - (q_n / v_jn) v_j where its ray meets that hyperplane, and q itself
    when q_n >= 0; all without their last coordinate."""
    q = c.apex
    if q[-1] >= 0:
        crossing = [v for v in c.generators if v[-1] < 0]
        out = [q[:-1]]
    else:
        crossing = [v for v in c.generators if v[-1] > 0]
        out = []
    for v in crossing:
        ratio = q[-1] / v[-1]
        out.append(tuple(a - ratio * b for a, b in zip(q[:-1], v)))
    return out


def box_points(dim: int, lo: int, hi: int):
    return product(range(lo, hi + 1), repeat=dim)


def brute_force_solutions(system: LDSystem, bound: int) -> set[tuple[int, ...]]:
    """All solutions with coordinates in [0, bound], by direct checking."""
    return {
        x for x in box_points(system.num_variables, 0, bound) if system.satisfies(x)
    }


def in_discrete_cone(generators: IntMat, base, x) -> bool:
    """Is x in base + non-negative *integer* combinations of the generators?"""
    coeffs = cramer_solve(generators, tuple(a - b for a, b in zip(x, base)))
    if coeffs is None:
        return False
    return all(c.denominator == 1 and c >= 0 for c in coeffs)


def in_half_open_parallelepiped(c: SymbolicCone, x) -> bool:
    """Direct membership in the half-open fundamental parallelepiped."""
    coeffs = cramer_solve(
        c.generators, tuple(Fraction(a) - b for a, b in zip(x, c.apex))
    )
    if coeffs is None:
        return False
    for value, bit in zip(coeffs, c.openness):
        if bit == 0 and not 0 <= value < 1:
            return False
        if bit == 1 and not 0 < value <= 1:
            return False
    return True


def half_open_parallelepiped_points(c: SymbolicCone) -> list[tuple[int, ...]]:
    """Sorted lattice points of the half-open fundamental parallelepiped of
    a cone (k <= n generators), by scanning its bounding box."""
    ranges = []
    for i, a in enumerate(c.apex):
        lo = a + sum(min(0, g[i]) for g in c.generators)
        hi = a + sum(max(0, g[i]) for g in c.generators)
        ranges.append(range(floor(lo), ceil(hi) + 1))
    return [x for x in product(*ranges) if in_half_open_parallelepiped(c, x)]
