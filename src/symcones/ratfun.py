"""Rational-function expressions for cone combinations, and exact counting.

A cone C with generators v_1..v_k and fundamental-parallelepiped lattice
points u_1..u_N has the generating function

    Phi_C(z) = (z^{u_1} + ... + z^{u_N}) / ((1 - z^{v_1}) ... (1 - z^{v_k}))

and a signed combination of cones turns into the matching signed sum of
such terms. Nothing here attempts cross-term normalization; expressions
are structured sums, rendered as-is. Every term's numerator comes from
``enum_fundpar``, which gives a cone of index 1 its one point in closed
form, so a Barvinok leaf's term costs no enumeration.

A term is checked once, when it is built: ``RatFunTerm`` converts what
callers give it, and ``combination_to_ratfun`` builds its own terms unchecked.

Counting substitutes z_i -> exp(lam_i t) for a positive integer direction
lam non-orthogonal to every denominator exponent and expands at t = 0 with
exact series, once per set of dots lam . v: the constant coefficient is the
count, a non-zero principal part refuses an infinite set. Count builds no
terms: it folds the Barvinok leaves in with raw, unflipped dots.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .barvinok import decompose_combination
from .cones import (ConeCombination, _inverse_pair, _refuse_over_cap, _share_inverse_pairs,
                    enum_fundpar)
from .exactmath import IntVec, exact_int, is_forward, vec_dot, vec_sub


class InfiniteSetError(ValueError):
    """Raised when asked to count a set that is infinite."""


@dataclass(frozen=True)
class RatFunTerm:
    """One summand: mult * (sum of z^u for u in numerator) / prod (1 - z^v).

    The one validating constructor: ``mult`` and every exponent go through
    ``exact_int`` and both containers are stored as tuples, so a term of lists
    equals and hashes as its tuple twin. Denominator vectors coming out of the
    solver pipeline are non-zero, forward and primitive. A term with an empty
    numerator is the zero term (a cone whose affine hull misses the lattice).
    """

    mult: int
    numerator: tuple[IntVec, ...]
    denominator: tuple[IntVec, ...]

    def __post_init__(self):
        self.__dict__.update(mult=exact_int(self.mult),
                             numerator=tuple(tuple(map(exact_int, u)) for u in self.numerator),
                             denominator=tuple(tuple(map(exact_int, v)) for v in self.denominator))
        if not self.denominator:
            raise ValueError("term needs at least one denominator factor")
        if len(set(map(len, itertools.chain(self.numerator, self.denominator)))) > 1:
            raise ValueError("exponent vectors must have equal length")
        if not all(map(any, self.denominator)):
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


def _term(mult: int, numerator: tuple[IntVec, ...], denominator: tuple[IntVec, ...]) -> RatFunTerm:
    """A term, unchecked: the caller (``combination_to_ratfun``) guarantees an
    int ``mult`` and tuples of int vectors of one length, and a non-empty
    denominator of non-zero vectors."""
    out = object.__new__(RatFunTerm)
    out.__dict__.update(mult=mult, numerator=numerator, denominator=denominator)
    return out


def _forward_normalized(mult: int, nums: tuple[IntVec, ...], dens: tuple[IntVec, ...]):
    """Flip backward denominator factors: z^u/(1-z^v) = -z^(u-v)/(1-z^-v)."""
    for i, v in enumerate(dens):
        if not is_forward(v):
            flipped = tuple(-x for x in v)
            mult = -mult
            nums = tuple(vec_sub(u, v) for u in nums)
            dens = dens[:i] + (flipped,) + dens[i + 1:]
    return mult, nums, dens


def combination_to_ratfun(combination: ConeCombination) -> RatFunExpr:
    """Turn a signed cone combination into a rational-function expression,
    one term per cone, whose numerator monomials are the cone's lex-sorted
    ``enum_fundpar`` points: as many as its index.

    Barvinok's short terms are ``combination_to_ratfun(decompose_combination(
    combination, index_threshold))``. Backward denominator factors are
    flipped forward (Barvinok leaves may have them; cones from ``solve`` have
    none), cones share V^-1 per V, and zero terms are dropped. A k = n cone over
    the cap (its index is |det V|) is refused before any cone is listed.
    """
    _share_inverse_pairs(combination)
    items = combination.sorted_items()
    for c, _ in items:
        if c.dim == c.ambient_dim:
            _refuse_over_cap(abs(_inverse_pair(c)[1]))
    terms = []
    for c, mult in items:
        nums = tuple(sorted(enum_fundpar(c)))
        if nums:
            terms.append(_term(*_forward_normalized(mult, nums, c.generators)))
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


def _summed_laurent(terms: Iterable[tuple], direction: IntVec) -> list[Fraction]:
    """Laurent coefficients of orders t^-k .. t^0 of the summed ``(mult,
    numerator, denominator)`` terms under z_i -> e^{lam_i t}, k being the
    most denominator factors of a term.

    With dots b = lam . v of the denominators and a = lam . u of the
    numerator points, a term is mult * (-1)^k / (prod b * t^k) *
    prod_b bt/(e^{bt} - 1) * sum_u e^{at}, for b of either sign (a flipped
    term is the same function). Terms with the same sorted dots b sum their
    numerators into one weight map a -> sum of mult and take one series
    product, in ints over L^k * k! (L from ``_todd_scale``).
    """
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for mult, numerator, denominator in terms:
        dots = tuple(sorted(vec_dot(direction, v) for v in denominator))
        if 0 in dots:
            raise ValueError("direction is orthogonal to a denominator exponent")
        weights = groups.setdefault(dots, {})
        for u in numerator:
            a = vec_dot(direction, u)
            weights[a] = weights.get(a, 0) + mult
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


def _count(terms, direction: IntVec) -> int:
    """The constant coefficient of ``_summed_laurent``. A finite set sums to
    a Laurent polynomial, so a principal part raises ``InfiniteSetError``;
    a non-integer total, ``RuntimeError``."""
    total = _summed_laurent(terms, direction)
    if any(total[:-1]):
        raise InfiniteSetError("the solution set is infinite, so it has no count")
    if total[-1].denominator != 1:
        raise RuntimeError(f"evaluation inconsistency: non-integer total {total[-1]}")
    return int(total[-1])


def evaluate_count(expr: RatFunExpr, direction: IntVec) -> int:
    """Constant Laurent coefficient of the summed expression at t = 0 (``_count``)."""
    return _count(((t.mult, t.numerator, t.denominator) for t in expr), direction)


def _pick_direction(dens: Iterable[IntVec], dimension: int) -> IntVec:
    """lam = (1, s, ..., s^(d-1)) with s = 1 + the largest |entry| of any
    denominator: positive, and v . lam = sum_i v_i s^i != 0 for v != 0, as
    the lowest non-zero v_i would be a multiple of s but 0 < |v_i| < s."""
    s = 1 + max((abs(x) for v in dens for x in v), default=0)
    return tuple(s**i for i in range(dimension))


def count_lattice_points(combination: ConeCombination) -> int:
    """Number of lattice points of the set represented by the combination.

    An infinite set raises ``InfiniteSetError``. Each cone is first
    decomposed into unimodular leaves, so every Laurent expansion has pole
    order exactly the ambient dimension; no term is built, each leaf's one
    point and raw, unflipped generators go straight to ``_count``.
    """
    leaves = decompose_combination(combination)
    if not leaves:
        return 0
    lam = _pick_direction((v for c in leaves for v in c.generators), leaves.ambient_dim)
    return _count(((m, enum_fundpar(c), c.generators) for c, m in leaves.items()), lam)


# --- rendering ---------------------------------------------------------------

PLAIN = "plain"
LATEX = "latex"
JSON = "json"


def _monomial(u: IntVec, var: str, power: str, sep: str) -> str:
    """z^u as ``sep``-joined factors: ``var`` formats the 1-based index of a
    variable, ``power`` that variable and an exponent other than 1."""
    parts = [var.format(i) if e == 1 else power.format(var.format(i), e)
             for i, e in enumerate(u, 1) if e]
    return sep.join(parts) or "1"


def _render_term_plain(t: RatFunTerm) -> tuple[int, str]:
    num = " + ".join(_monomial(u, "z{}", "{}^{}", "*") for u in t.numerator)
    if len(t.numerator) > 1:
        num = f"({num})"
    den = "*".join("(1-" + _monomial(v, "z{}", "{}^{}", "*") + ")" for v in t.denominator)
    mag = abs(t.mult)
    prefix = "" if mag == 1 else f"{mag} * "
    return (1 if t.mult >= 0 else -1), f"{prefix}{num} / ({den})"


def _render_term_latex(t: RatFunTerm, vector_exponents: bool) -> tuple[int, str]:
    def monomial(u):
        if vector_exponents:
            return "z^{(" + ",".join(map(str, u)) + ")}"
        return _monomial(u, "z_{{{}}}", "{}^{{{}}}", " ")

    num = " + ".join(map(monomial, t.numerator))
    den = " ".join(f"\\left(1 - {monomial(v)}\\right)" for v in t.denominator)
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
    strings), zero terms included; plain and LaTeX are write-only display
    formats that skip zero terms, so an expression of none prints ``0``.
    """
    if fmt == PLAIN:
        return _join_signed([_render_term_plain(t) for t in expr.terms if not t.is_zero])
    if fmt == LATEX:
        return _join_signed([_render_term_latex(t, vector_exponents)
                             for t in expr.terms if not t.is_zero])
    if fmt == JSON:
        # json.dumps writes the exponent tuples as arrays, so they go in uncopied
        return json.dumps([{"mult": str(t.mult), "num": t.numerator, "den": t.denominator}
                           for t in expr.terms])
    raise ValueError(f"unknown format: {fmt!r}")


def ratfun_from_json(text: str) -> RatFunExpr:
    """Parse the JSON produced by ``render(..., JSON)`` back into terms of one length."""
    # render writes "mult" as a string; RatFunTerm converts and checks anything else
    terms = tuple(RatFunTerm(int(m) if isinstance(m := obj["mult"], str) else m,
                             obj["num"], obj["den"]) for obj in json.loads(text))
    if len(lengths := sorted({t.dimension for t in terms})) > 1:
        raise ValueError(f"terms have exponent vectors of lengths {lengths}")
    return RatFunExpr(terms)
