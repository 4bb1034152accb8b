"""Rational-function expressions for cone combinations, and exact counting.

A cone C with generators v_1..v_k and fundamental-parallelepiped lattice
points u_1..u_N has the generating function

    Phi_C(z) = (z^{u_1} + ... + z^{u_N}) / ((1 - z^{v_1}) ... (1 - z^{v_k}))

and a signed combination of cones turns into the matching signed sum of
such terms. Nothing here attempts cross-term normalization; expressions
are structured sums, rendered as-is. Every term's numerator comes from
``enum_fundpar``, which gives a cone of index 1 its one point in closed
form, whatever the method or index threshold.

Counting substitutes z_i -> exp(lam_i t) for a positive integer direction
lam non-orthogonal to every denominator exponent and expands the sum at
t = 0 with exact series arithmetic, once per set of denominator dots
lam . v: the constant coefficient is the count, and a non-zero principal
part refuses an infinite set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .barvinok import decompose_combination
from .cones import ConeCombination, SymbolicCone, enum_fundpar
from .exactmath import IntVec, is_forward, vec_dot, vec_sub

FP = "fp"
BARVINOK = "barvinok"


class InfiniteSetError(ValueError):
    """Raised when asked to count a set that is infinite."""


@dataclass(frozen=True)
class RatFunTerm:
    """One summand: mult * (sum of z^u for u in numerator) / prod (1 - z^v).

    Denominator vectors coming out of the solver pipeline are non-zero,
    forward and primitive. A term with an empty numerator is the zero term
    (a cone whose affine hull misses the lattice).
    """

    mult: int
    numerator: tuple[IntVec, ...]
    denominator: tuple[IntVec, ...]

    def __post_init__(self):
        if not self.denominator:
            raise ValueError("term needs at least one denominator factor")
        d = len(self.denominator[0])
        vectors = list(self.numerator) + list(self.denominator)
        if any(len(v) != d for v in vectors):
            raise ValueError("exponent vectors must have equal length")
        if any(all(x == 0 for x in v) for v in self.denominator):
            raise ValueError("denominator exponent must be non-zero")

    @property
    def is_zero(self) -> bool:
        return not self.numerator or self.mult == 0

    @property
    def dimension(self) -> int:
        return len(self.denominator[0])


@dataclass(frozen=True)
class RatFunExpr:
    """A structured sum of RatFunTerm, with no normalization across terms."""

    terms: tuple[RatFunTerm, ...]

    def __iter__(self) -> Iterator[RatFunTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def dimension(self) -> int | None:
        return self.terms[0].dimension if self.terms else None


def cone_to_term_fp(c: SymbolicCone) -> RatFunTerm:
    """Generating-function term of one cone via parallelepiped enumeration.

    Numerator exponents are the lattice points of the half-open fundamental
    parallelepiped (lex-sorted), denominator exponents the generator
    columns verbatim. The zero term results when the affine hull of the
    cone contains no lattice point.
    """
    points = tuple(sorted(enum_fundpar(c)))
    return RatFunTerm(1, points, c.generators)


def _forward_normalized(mult: int, nums: tuple[IntVec, ...], dens: tuple[IntVec, ...]):
    """Flip backward denominator factors: z^u/(1-z^v) = -z^(u-v)/(1-z^-v)."""
    for i, v in enumerate(dens):
        if not is_forward(v):
            flipped = tuple(-x for x in v)
            mult = -mult
            nums = tuple(vec_sub(u, v) for u in nums)
            dens = dens[:i] + (flipped,) + dens[i + 1:]
    return mult, nums, dens


def combination_to_ratfun(
    combination: ConeCombination,
    method: str = FP,
    *,
    index_threshold: int = 1,
) -> RatFunExpr:
    """Turn a signed cone combination into a rational-function expression.

    ``fp`` enumerates each fundamental parallelepiped directly; the number
    of numerator monomials per term is then the index of the cone.
    ``barvinok`` first rewrites each cone as a signed sum of cones with
    index at most ``index_threshold`` (unimodular by default), half-opened
    along that cone's xi = V·(±1), giving one short term per output cone,
    with backward denominator factors flipped forward. Either way the
    numerator is that of ``cone_to_term_fp``. Zero terms are dropped.
    """
    if method not in (FP, BARVINOK):
        raise ValueError(f"unknown conversion method: {method!r}")
    if method == BARVINOK:
        combination = decompose_combination(combination, index_threshold)
    terms = []
    for c, mult in combination.sorted_items():
        nums = cone_to_term_fp(c).numerator
        if not nums:
            continue
        dens = c.generators
        if method == BARVINOK:
            mult, nums, dens = _forward_normalized(mult, nums, dens)
        terms.append(RatFunTerm(mult, nums, dens))
    return RatFunExpr(tuple(terms))


# --- counting ---------------------------------------------------------------

def _series_mul(f: list[int], g: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j in range(order - i + 1):
            out[i + j] += a * g[j]
    return out


def _todd_scale(order: int) -> tuple[int, list[int]]:
    """(L, c) with x/(e^x - 1) = sum_j c_j x^j / L up to x^order, all ints:
    c_j / L = B_j / j!, by the recurrence that makes the product with
    (e^x - 1)/x = sum_i x^i / (i+1)! equal to 1."""
    beta = [Fraction(1)]
    for m in range(1, order + 1):
        beta.append(-sum(beta[j] / math.factorial(m - j + 1) for j in range(m)))
    scale = math.lcm(*(x.denominator for x in beta))
    return scale, [x.numerator * (scale // x.denominator) for x in beta]


def _summed_laurent(expr: RatFunExpr, direction: IntVec) -> list[Fraction]:
    """Laurent coefficients of orders t^-k .. t^0 of the summed expression
    under z_i -> e^{lam_i t}, k being the most denominator factors of a term.

    With dots b = lam . v of the denominators and a = lam . u of the
    numerator points, a term is mult * (-1)^k / (prod b * t^k) *
    prod_b bt/(e^{bt} - 1) * sum_u e^{at}. Terms with the same sorted dots
    b share the product, so each such group sums its numerators into one
    weight map a -> sum of mult and takes one series product, in ints over
    L^k * k! (L from ``_todd_scale``).
    """
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for t in expr.terms:
        dots = tuple(sorted(vec_dot(direction, v) for v in t.denominator))
        if 0 in dots:
            raise ValueError("direction is orthogonal to a denominator exponent")
        weights = groups.setdefault(dots, {})
        for u in t.numerator:
            a = vec_dot(direction, u)
            weights[a] = weights.get(a, 0) + t.mult
    order = max(map(len, groups), default=0)
    scale, coeffs = _todd_scale(order)
    factors: dict[int, list[int]] = {}
    total = [Fraction(0)] * (order + 1)
    for dots, weights in groups.items():
        k = len(dots)
        series = [1]
        for b in dots:
            if b not in factors:
                factors[b] = [c * b**j for j, c in enumerate(coeffs)]
            series = _series_mul(series, factors[b], k)
        # k! * sum_a w e^{at}: coefficient j is k!/j! * sum_a w a^j
        exps = [math.perm(k, k - j) * sum(w * a**j for a, w in weights.items())
                for j in range(k + 1)]
        denom = (-1) ** k * math.prod(dots) * scale**k * math.factorial(k)
        for i, coeff in enumerate(_series_mul(series, exps, k)):
            total[order - k + i] += Fraction(coeff, denom)
    return total


def evaluate_count(expr: RatFunExpr, direction: IntVec) -> int:
    """Constant Laurent coefficient of the summed expression at t = 0.

    The expansion takes one series product per denominator set (see
    ``_summed_laurent``). A finite set sums to a Laurent polynomial,
    analytic at t = 0, so a non-zero summed principal part raises
    ``InfiniteSetError`` (for a positive direction the converse holds too).
    Raises ``RuntimeError`` if the constant coefficient is not an integer.
    """
    total = _summed_laurent(expr, direction)
    if any(total[:-1]):
        raise InfiniteSetError("the solution set is infinite, so it has no count")
    if total[-1].denominator != 1:
        raise RuntimeError(f"evaluation inconsistency: non-integer total {total[-1]}")
    return int(total[-1])


def _pick_direction(dens: Iterable[IntVec], dimension: int) -> IntVec:
    """lam = (1, s, ..., s^(d-1)) with s = 1 + the largest |entry| of any
    denominator: positive, and v . lam = sum_i v_i s^i != 0 for v != 0, as
    the lowest non-zero v_i would be a multiple of s but 0 < |v_i| < s."""
    s = 1 + max((abs(x) for v in dens for x in v), default=0)
    return tuple(s**i for i in range(dimension))


def count_lattice_points(combination: ConeCombination) -> int:
    """Number of lattice points of the set represented by the combination.

    An infinite set raises ``InfiniteSetError``. Each cone is first
    decomposed into unimodular terms so every Laurent expansion has pole
    order exactly the ambient dimension.
    """
    if len(combination) == 0:
        return 0
    expr = combination_to_ratfun(combination, BARVINOK)
    if not expr.terms:
        return 0
    dens = [v for t in expr.terms for v in t.denominator]
    direction = _pick_direction(dens, expr.dimension)
    return evaluate_count(expr, direction)


# --- rendering ---------------------------------------------------------------

PLAIN = "plain"
LATEX = "latex"
JSON = "json"


def _monomial_plain(u: IntVec) -> str:
    parts = []
    for i, e in enumerate(u):
        if e == 0:
            continue
        name = f"z{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _monomial_latex(u: IntVec, vector_exponents: bool) -> str:
    if vector_exponents:
        return "z^{(" + ",".join(str(e) for e in u) + ")}"
    parts = []
    for i, e in enumerate(u):
        if e == 0:
            continue
        name = f"z_{{{i + 1}}}"
        parts.append(name if e == 1 else f"{name}^{{{e}}}")
    return " ".join(parts) if parts else "1"


def _render_term_plain(t: RatFunTerm) -> tuple[int, str]:
    num = " + ".join(_monomial_plain(u) for u in t.numerator)
    if len(t.numerator) > 1:
        num = f"({num})"
    den = "*".join(f"(1-{_monomial_plain(v)})" for v in t.denominator)
    mag = abs(t.mult)
    prefix = "" if mag == 1 else f"{mag} * "
    return (1 if t.mult >= 0 else -1), f"{prefix}{num} / ({den})"


def _render_term_latex(t: RatFunTerm, vector_exponents: bool) -> tuple[int, str]:
    num = " + ".join(_monomial_latex(u, vector_exponents) for u in t.numerator)
    den = " ".join(
        f"\\left(1 - {_monomial_latex(v, vector_exponents)}\\right)"
        for v in t.denominator
    )
    mag = abs(t.mult)
    prefix = "" if mag == 1 else f"{mag} \\, "
    return (1 if t.mult >= 0 else -1), f"{prefix}\\frac{{{num}}}{{{den}}}"


def _join_signed(parts: list[tuple[int, str]]) -> str:
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("- " if sign < 0 else "") + body
    for sign, body in parts[1:]:
        out += (" - " if sign < 0 else " + ") + body
    return out


def render(expr: RatFunExpr, fmt: str = PLAIN, *, vector_exponents: bool = False) -> str:
    """Deterministic text form of an expression in plain, LaTeX or JSON.

    JSON is lossless (an array of term objects, big integers as decimal
    strings); plain and LaTeX are write-only display formats.
    """
    if fmt == PLAIN:
        return _join_signed([_render_term_plain(t) for t in expr.terms])
    if fmt == LATEX:
        return _join_signed(
            [_render_term_latex(t, vector_exponents) for t in expr.terms]
        )
    if fmt == JSON:
        payload = [
            {
                "mult": str(t.mult),
                "num": [list(u) for u in t.numerator],
                "den": [list(v) for v in t.denominator],
            }
            for t in expr.terms
        ]
        return json.dumps(payload)
    raise ValueError(f"unknown format: {fmt!r}")


def ratfun_from_json(text: str) -> RatFunExpr:
    """Parse the JSON produced by ``render(..., JSON)`` back into terms."""
    payload = json.loads(text)
    terms = []
    for obj in payload:
        terms.append(
            RatFunTerm(
                int(obj["mult"]),
                tuple(tuple(int(x) for x in u) for u in obj["num"]),
                tuple(tuple(int(x) for x in v) for v in obj["den"]),
            )
        )
    return RatFunExpr(tuple(terms))
