"""Shared generators and oracles for the test suite.

Everything here is deliberately independent of the solver's internals:
membership by brute inequality checks, determinants by cofactor expansion,
semigroup membership by Cramer's rule and Smith diagonals by determinantal
divisors, both over those determinants, rank by ``Fraction`` Gaussian
elimination, LLL by the classical rational Gram-Schmidt algorithm, Laurent
expansions by per-term ``Fraction`` series, and the cone JSON by a dict
tree through ``json.dumps``. These are
the second route that the package's formulas are checked against. The
exceptions are ``decompose_along_random_direction(s)``: input
generators, not oracles, that set the openness bits of the package's own
Barvinok tree (``_tree``, built from the generators alone) under other
reference directions (``_leaves``); ``lattice_points_in_box``, a box
scan through the package's own ``contains``; and ``reference_term_count``,
the count by the package's rendered Barvinok terms (sorted, flipped
forward, each a ``RatFunTerm``), against which the term-free count is
checked; ``reference_run_check``, ``check`` as a point-by-point scan
through ``eval_combination``, against which the line scan is checked; and
``reference_plan``, the vertex-cone plan built column by column through the
package's ``prim``, against which the shared pair table is checked; and
``reference_rounds``, the elimination rounds one cone object at a time through
the package's ``_plan``, against which the grouped rounds are checked.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
import json
from math import ceil, factorial, floor, gcd, lcm
import operator
import random

from symcones import (
    ConeCombination, LDSystem, Relation, SymbolicCone, canonicalize, cone, contains,
    eval_combination,
)
from symcones.barvinok import _leaves, _tree, decompose_combination
from symcones.cones import _canonical_cone
from symcones.elimination import _plan
from symcones.exactmath import IntMat, det, is_forward, mat_vec, prim
from symcones.ratfun import _pick_direction, combination_to_ratfun, evaluate_count


def cols_from_rows(rows) -> IntMat:
    """Spec-style row-list matrix to the package's column-tuple form."""
    m, n = len(rows), len(rows[0])
    return tuple(tuple(rows[i][j] for i in range(m)) for j in range(n))


def mat_mul(a: IntMat, b: IntMat) -> tuple:
    """Matrix product of two column-tuple matrices, one ``mat_vec`` per column of b."""
    return tuple(mat_vec(a, col) for col in b)


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


def reference_smith_diagonal(columns) -> tuple[int, ...]:
    """Smith diagonal by determinantal divisors: with D_i the gcd of all
    i x i minors (``cofactor_det``) and D_0 = 1, s_i = D_i / D_(i-1), and
    s_i = 0 once D_i = 0."""
    n, k = len(columns[0]), len(columns)
    divisors = [1]
    for size in range(1, min(n, k) + 1):
        divisors.append(gcd(*(
            cofactor_det([[columns[c][r] for c in cs] for r in rs])
            for rs in combinations(range(n), size) for cs in combinations(range(k), size)
        )))
    return tuple(b // a if a else 0 for a, b in zip(divisors, divisors[1:]))


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


def reference_term_laurent(mult, numerator, denominator, direction) -> list[Fraction]:
    """Laurent coefficients of orders t^-k .. t^0 of one rational-function
    term mult * sum_u z^u / prod_v (1 - z^v) under z_i -> e^{lam_i t}, k its
    number of denominator factors.

    Expands mult * sum_u e^{a_u t} * prod_b 1/(1 - e^{bt}) term by term in
    ``Fraction`` series: 1/(1 - e^{bt}) = -1/(bt) * 1/f_b(t) with
    f_b = (e^{bt} - 1)/(bt) = sum_j (bt)^j/(j+1)!, inverted by the
    recurrence of a series reciprocal. Any sign of b = lam . v is fine.
    """
    k = len(denominator)
    dots = [sum(a * b for a, b in zip(direction, v)) for v in denominator]
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
    for u in numerator:
        a = sum(x * y for x, y in zip(direction, u))
        for j in range(k + 1):
            exps[j] += Fraction(a**j, factorial(j))
    lead = Fraction(mult * (-1) ** k)
    for b in dots:
        lead /= b
    return [lead * coeff for coeff in _series_mul(series, exps, k)]


def reference_summed_laurent(terms, direction) -> list[Fraction]:
    """``reference_term_laurent`` summed over ``(mult, numerator,
    denominator)`` terms, aligned at t^0."""
    terms = list(terms)
    order = max((len(dens) for _, _, dens in terms), default=0)
    total = [Fraction(0)] * (order + 1)
    for mult, nums, dens in terms:
        coeffs = reference_term_laurent(mult, nums, dens, direction)
        for i, coeff in enumerate(coeffs):
            total[order + 1 - len(coeffs) + i] += coeff
    return total


def reference_term_count(combination: ConeCombination) -> int:
    """``count_lattice_points`` by the term route: ``evaluate_count`` of the
    ``combination_to_ratfun(decompose_combination(...))`` expression, under
    lam picked from its forward-flipped denominators."""
    expr = combination_to_ratfun(decompose_combination(combination))
    if not expr.terms:
        return 0
    lam = _pick_direction([v for t in expr for v in t.denominator], expr.dimension)
    return evaluate_count(expr, lam)


def reference_run_check(box: int, sys_: LDSystem, combination: ConeCombination) -> tuple[int, str]:
    """``cli._run_check`` without its cap, point by point: the oracle
    ``satisfies`` and ``eval_combination`` at every point of [0, box]^d in
    product order, reporting the first mismatch."""
    d = sys_.num_variables
    for x in product(range(box + 1), repeat=d):
        expected = 1 if sys_.satisfies(x) else 0
        actual = eval_combination(combination, x)
        if actual != expected:
            return 1, f"FAIL at {x}: oracle {expected}, combination {actual}"
    return 0, "PASS"


def reference_combination_json(combination: ConeCombination, dimension: int | None = None) -> str:
    """The cone JSON that ``cli.combination_to_json`` must equal byte for
    byte: a dict tree in ``sort_key`` order through ``json.dumps``."""
    dim = combination.ambient_dim if dimension is None else dimension
    den = lcm(*(c.den for c in combination))
    cones = []
    for c, mult in sorted(combination.items(), key=lambda item: item[0].sort_key(den)):
        cones.append(
            {
                "mult": str(mult),
                "generators": [list(g) for g in c.generators],
                "apex": [
                    {"num": str(a // g), "den": str(c.den // g)}
                    for a, g in ((a, gcd(a, c.den)) for a in c.num)
                ],
                "open": list(c.openness),
            }
        )
    return json.dumps({"dimension": dim if dim is not None else 0, "cones": cones})


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
    return collect(_leaves(c, 1, _tree(c.generators, 1), xi))


def collect(pairs) -> ConeCombination:
    """The combination of the ``(multiplicity, cone)`` pairs a recursion yields."""
    out = ConeCombination()
    for mult, c in pairs:
        out.add(c, mult)
    return out


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


def _primitive(column) -> tuple[int, ...]:
    """The primitive integer vector along a non-zero rational column."""
    scale = lcm(*(Fraction(x).denominator for x in column))
    ints = [int(x * scale) for x in column]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def reference_elimination_step(c: SymbolicCone) -> Counter:
    """One elimination step of ``c`` rebuilt from its definition in
    ``Fraction``s, as a multiset of ``(sign, cone)``.

    Each generator v_j crossing {x_n = 0} against the apex q gives a vertex
    cone: apex q - (q_n / v_jn) v_j, column -v_j (q_n >= 0) or v_j (q_n < 0)
    with bit 0, and column v_i - (v_in / v_jn) v_j with v_i's bit for every
    other i. When q_n >= 0 the cone itself gives one more, (V, q) with its
    bits. Then: x_n dropped, columns primitive, every backward column
    reversed with its bit toggled and the sign negated, columns sorted
    with their bits.
    """
    q, v, bits = c.apex, c.generators, c.openness
    nonneg = q[-1] >= 0
    raw = []
    for j, vj in enumerate(v):
        if (vj[-1] < 0) if nonneg else (vj[-1] > 0):
            ratio = Fraction(q[-1], vj[-1])
            cols = [
                tuple(-x if nonneg else x for x in vj) if i == j
                else tuple(a - Fraction(vi[-1], vj[-1]) * b for a, b in zip(vi, vj))
                for i, vi in enumerate(v)
            ]
            apex = tuple(a - ratio * b for a, b in zip(q, vj))
            raw.append((cols, apex, tuple(0 if i == j else bit for i, bit in enumerate(bits))))
    if nonneg:
        raw.append((list(v), q, bits))
    out = Counter()
    for cols, apex, cone_bits in raw:
        sign, pairs = 1, []
        for col, bit in zip(cols, cone_bits):
            col = _primitive(col[:-1])
            if next(x for x in col if x) < 0:
                sign, col, bit = -sign, tuple(-x for x in col), 1 - bit
            pairs.append((col, bit))
        pairs.sort()
        gens = tuple(g for g, _ in pairs)
        out[sign, SymbolicCone(gens, apex[:-1], tuple(b for _, b in pairs))] += 1
    return out


def reference_plan(v: IntMat, row, nonneg: bool) -> tuple:
    """The vertex cones of row.x >= beta on a cone with generators V and
    q_n = row.q - beta >= 0 (``nonneg``) or q_n < 0, but their apexes and bits.

    With l_j = row.v_j and sg the sign of q_n, vertex cone j (l_j sg < 0) has
    the columns -sg v_j and sg (l_i v_j - l_j v_i) for i != j: an invertible
    transform of V in span(V), so independent when V is. One ``(sign, gens,
    flips, l_j, v_j)`` each: its sorted primitive forward columns, sign
    (-1)^(number reversed), and per position p a pair (i, t): it takes the bit
    of parent generator i (k = len(V): the crossing generator's 0) XOR t. The
    apex is (num l_j - q_n v_j) / (den l_j).
    """
    sg = 1 if nonneg else -1
    lengths = [sg * sum(map(operator.mul, row, g)) for g in v]  # sg l_i
    plan = []
    for j, (vj, lj) in enumerate(zip(v, lengths)):
        if lj >= 0:
            continue
        cols = [tuple([li * a - lj * b for a, b in zip(vj, g)]) for g, li in zip(v, lengths)]
        cols[j] = tuple([-sg * x for x in vj])
        # (forward column, toggle, parent index); the columns are distinct,
        # so this is canonicalize's order
        cols = sorted((g, 0, i) if is_forward(g) else (tuple(-x for x in g), 1, i)
                      for i, g in enumerate(map(prim, cols)))
        plan.append(((-1) ** sum(t for _, t, _ in cols), tuple(g for g, _, _ in cols),
                     tuple((len(v) if i == j else i, t) for _, t, i in cols), sg * lj, vj))
    return tuple(plan)


def reference_eliminate(c: SymbolicCone, mult: int, row, beta: int, tables: dict) -> list:
    """The ``(multiplicity, cone)`` pairs of mult * [c and row.x >= beta],
    one cone object each: ``c`` itself when its apex satisfies the row, then
    the vertex cones of the package's ``_plan`` of (V, q_n >= 0). ``tables``
    holds one entry per V and row: the lengths row.v_i, the pair columns both
    signs share, and the plan of each sign, built on first use. Each apex is
    put in lowest terms by one gcd."""
    num, den = c.num, c.den
    q_n = sum(map(operator.mul, row, num)) - beta * den
    nonneg = q_n >= 0
    out = [(mult, c)] if nonneg else []
    v = c.generators
    table = tables.get(v)
    if table is None:
        table = tables[v] = ([sum(map(operator.mul, row, g)) for g in v], {}, [None, None])
    lengths, pairs, plans = table
    plan = plans[nonneg]
    if plan is None:
        plan = plans[nonneg] = _plan(v, lengths, pairs, nonneg)
    bits = c.openness + (0,)
    for sign, gens, flips, lj, vj in plan:
        apex = [a * lj - q_n * b for a, b in zip(num, vj)]
        # divide by the gcd, taking the sign of den * l along
        f = gcd(den * lj, *apex)
        if lj < 0:
            f = -f
        if f != 1:
            apex = [a // f for a in apex]
        out.append((mult * sign, _canonical_cone(
            gens, tuple(apex), den * lj // f, tuple([bits[i] ^ t for i, t in flips]))))
    return out


def reference_rounds(c: SymbolicCone, rows, rhs):
    """Yield [c and the first i half-spaces row.x >= beta] for each i as a
    combination, one cone at a time: each round sums what
    ``reference_eliminate`` emits for every parent in one ``_collect``, with
    plan tables per round. Yields ``(combination, emitted)``, emitted being
    the number of pairs summed."""
    current = ConeCombination({c: 1})
    for row, beta in zip(rows, rhs):
        tables: dict = {}
        signed = [pair for parent, mult in current.items()
                  for pair in reference_eliminate(parent, mult, row, beta, tables)]
        current = ConeCombination._collect(signed)
        yield current, len(signed)


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


def lattice_points_in_box(c: SymbolicCone, lo, hi) -> set[tuple[int, ...]]:
    """Lattice points of the cone inside the box lo <= x <= hi (oracle scan)."""
    if len(lo) != c.ambient_dim or len(hi) != c.ambient_dim:
        raise ValueError("box has wrong dimension")
    if any(a > b for a, b in zip(lo, hi)):
        return set()
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return {x for x in product(*ranges) if contains(c, x)}


def half_open_parallelepiped_points(c: SymbolicCone) -> list[tuple[int, ...]]:
    """Sorted lattice points of the half-open fundamental parallelepiped of
    a cone (k <= n generators), by scanning its bounding box."""
    ranges = []
    for i, a in enumerate(c.apex):
        lo = a + sum(min(0, g[i]) for g in c.generators)
        hi = a + sum(max(0, g[i]) for g in c.generators)
        ranges.append(range(floor(lo), ceil(hi) + 1))
    return [x for x in product(*ranges) if in_half_open_parallelepiped(c, x)]
