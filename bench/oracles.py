"""Answer checks that share no code with symcones.

Each check recomputes what an op must return by a second route: a counting
DP for partitions, a scan of the free block for contingency tables, a direct
``A x >= b`` scan for random systems, and exact rational evaluation to
compare the fp and Barvinok rational functions of one system. Cone
membership is decided with this module's own fraction-free linear algebra.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction


# --- counting ----------------------------------------------------------------

def partition_count(parts, n: int) -> int:
    """Number of x >= 0 with sum(parts[i] * x[i]) == n (coin-change DP)."""
    ways = [1] + [0] * n
    for p in parts:
        for total in range(p, n + 1):
            ways[total] += ways[total - p]
    return ways[n]


def table_solutions(row_sums, col_sums) -> list[tuple[int, ...]]:
    """All non-negative tables with the margins, row-major, by scanning the
    free (r-1) x (c-1) block and completing the last row and column."""
    r, c = len(row_sums), len(col_sums)
    out = []
    free = [(i, j) for i in range(r - 1) for j in range(c - 1)]
    bounds = [min(row_sums[i], col_sums[j]) for i, j in free]
    for values in itertools.product(*(range(b + 1) for b in bounds)):
        cell = [[0] * c for _ in range(r)]
        for (i, j), v in zip(free, values):
            cell[i][j] = v
        for i in range(r - 1):
            cell[i][c - 1] = row_sums[i] - sum(cell[i][: c - 1])
        for j in range(c):
            cell[r - 1][j] = col_sums[j] - sum(cell[i][j] for i in range(r - 1))
        if sum(cell[r - 1]) != row_sums[r - 1]:
            continue
        if all(v >= 0 for row in cell for v in row):
            out.append(tuple(v for row in cell for v in row))
    return out


def table_non_solutions(row_sums, col_sums, solutions, rng: random.Random, k: int):
    """Seeded points that must evaluate to 0: a solution with one cell moved
    by one (breaks a margin), or moved around a 2x2 cycle until a cell is -1
    (keeps every margin, breaks x >= 0)."""
    r, c = len(row_sums), len(col_sums)
    points = []
    for _ in range(k):
        x = list(rng.choice(solutions))
        if rng.random() < 0.5:
            x[rng.randrange(r * c)] += rng.choice((-1, 1))
        else:
            i1, i2 = rng.sample(range(r), 2)
            j1, j2 = rng.sample(range(c), 2)
            step = x[i1 * c + j1] + 1
            x[i1 * c + j1] -= step
            x[i2 * c + j2] -= step
            x[i1 * c + j2] += step
            x[i2 * c + j1] += step
        points.append(tuple(x))
    return points


def satisfies(rows, relations, rhs, x) -> bool:
    if any(v < 0 for v in x):
        return False
    for row, rel, b in zip(rows, relations, rhs):
        value = sum(a * v for a, v in zip(row, x))
        if value < b or (rel == "=" and value != b):
            return False
    return True


# --- cone combinations ------------------------------------------------------

def adjugate(cols):
    """(adj, d) with adj @ M == d * I for the square matrix M whose columns are
    ``cols``, by fraction-free Gauss-Jordan on [M | I] (Bareiss divisions are
    exact). d is det(M) up to the sign of the row exchanges, which is all a
    membership test needs since only adj / d is used."""
    n = len(cols)
    if any(len(col) != n for col in cols):
        raise ValueError("matrix is not square")
    a = [[cols[j][i] for j in range(n)] + [int(i == k) for k in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            raise ValueError("singular matrix")
        a[k], a[p] = a[p], a[k]
        pivot_row = a[k]
        pk = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = a[i]
            f = row[k]
            a[i] = [(pk * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pk
    return tuple(tuple(row[n:]) for row in a), prev


class ConeOracle:
    """Membership in one half-open simplicial cone {q + V lam}: lam_i >= 0,
    and lam_i > 0 where the cone is open on generator i."""

    __slots__ = ("rows", "scale", "qn", "den", "openness")

    def __init__(self, generators, apex, openness, adj_cache: dict):
        key = tuple(tuple(g) for g in generators)
        if key not in adj_cache:
            adj_cache[key] = adjugate(key)
        adj, d = adj_cache[key]
        self.den = math.lcm(*(a.denominator for a in apex))
        self.qn = tuple(int(a * self.den) for a in apex)
        # lam_j * |d| * den = sign(d) * row_j . (den * x - qn)
        sgn = 1 if d > 0 else -1
        self.rows = tuple(tuple(sgn * v for v in row) for row in adj)
        self.openness = tuple(openness)

    def contains(self, x) -> bool:
        y = [self.den * v - q for v, q in zip(x, self.qn)]
        for row, bit in zip(self.rows, self.openness):
            t = sum(a * b for a, b in zip(row, y))
            if t < 0 or (t == 0 and bit):
                return False
        return True


def parse_combination(text: str, adj_cache: dict):
    """[(mult, ConeOracle)] from the ``solve`` JSON output."""
    payload = json.loads(text)
    out = []
    for obj in payload["cones"]:
        apex = [Fraction(int(a["num"]), int(a["den"])) for a in obj["apex"]]
        gens = [tuple(int(v) for v in g) for g in obj["generators"]]
        out.append((int(obj["mult"]), ConeOracle(gens, apex, obj["open"], adj_cache)))
    return out


def combination_value(combination, x) -> int:
    return sum(mult for mult, cone in combination if cone.contains(x))


def first_mismatch(combination, points, expected: int):
    """First point where the combination does not evaluate to ``expected``."""
    for x in points:
        if combination_value(combination, x) != expected:
            return x
    return None


# --- rational functions -----------------------------------------------------

def parse_ratfun(text: str):
    """[(mult, numerator exponents, denominator exponents)] from ratfun JSON."""
    return [
        (
            int(t["mult"]),
            [tuple(int(v) for v in u) for u in t["num"]],
            [tuple(int(v) for v in w) for w in t["den"]],
        )
        for t in json.loads(text)
    ]


class _Powers:
    """z^u for integer vectors u, caching z_i^e per coordinate."""

    def __init__(self, z):
        self.z = z
        self.cache = [dict() for _ in z]

    def __call__(self, u) -> Fraction:
        value = Fraction(1)
        for zi, e, cache in zip(self.z, u, self.cache):
            if e not in cache:
                cache[e] = zi ** e
            value *= cache[e]
        return value


def pole_free_point(dimension: int, exponents, rng: random.Random):
    """Seeded rational z with z^v != 1 for every denominator exponent v."""
    while True:
        z = tuple(Fraction(rng.randint(2, 9), rng.randint(2, 9)) for _ in range(dimension))
        power = _Powers(z)
        if all(power(v) != 1 for v in exponents):
            return z


def ratfun_value(terms, z) -> Fraction:
    power = _Powers(z)
    total = Fraction(0)
    for mult, num, den in terms:
        numerator = sum((power(u) for u in num), Fraction(0))
        denominator = Fraction(1)
        for v in den:
            denominator *= 1 - power(v)
        total += mult * numerator / denominator
    return total
