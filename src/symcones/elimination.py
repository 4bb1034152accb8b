"""Pipeline from a linear Diophantine system to a signed cone combination.

Given integer constraints ``A x >= b`` (rows may also be equations) over
non-negative integer vectors x, the solver lifts the positive orthant into
dimension d+m with one slack coordinate per constraint, then repeatedly
intersects with the half-space where the last coordinate is non-negative
and projects that coordinate away. Both steps have closed-form effects on
symbolic cones, so the set of solutions comes out as an exact signed sum
of half-open simplicial cones in R^d - no triangulation, no rational
function arithmetic along the way.

``elimination_rounds`` is the only loop over the rounds: it checks its
input once, then collects the signed cones ``_eliminate`` emits once per
round. ``eliminate`` and ``solve`` return its last combination, and the
CLI walks the same rounds to print one ``--verbose`` line per round.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .cones import (
    ConeCombination,
    SymbolicCone,
    _assert_independent,
    _canonical_cone,
    canonicalize,
)
from .exactmath import IntVec, has_full_column_rank, is_forward, prim


class Relation(enum.Enum):
    GEQ = ">="
    EQ = "="


@dataclass(frozen=True)
class LDSystem:
    """Integer constraint system A x (>= or =) b over x in Z^d, x >= 0."""

    rows: tuple[IntVec, ...]
    relations: tuple[Relation, ...]
    rhs: IntVec

    def __post_init__(self):
        m = len(self.rows)
        if m == 0:
            raise ValueError("system needs at least one constraint")
        d = len(self.rows[0])
        if d == 0:
            raise ValueError("system needs at least one variable")
        if any(len(r) != d for r in self.rows):
            raise ValueError("constraint rows must have equal length")
        if len(self.relations) != m or len(self.rhs) != m:
            raise ValueError("relations and right-hand side must match row count")

    @property
    def num_constraints(self) -> int:
        return len(self.rows)

    @property
    def num_variables(self) -> int:
        return len(self.rows[0])

    def satisfies(self, x: Sequence[int]) -> bool:
        """Direct check of A x >= b (resp. =) and x >= 0; the test oracle."""
        if any(v < 0 for v in x):
            return False
        for row, rel, beta in zip(self.rows, self.relations, self.rhs):
            value = sum(a * v for a, v in zip(row, x))
            if rel is Relation.EQ:
                if value != beta:
                    return False
            elif value < beta:
                return False
        return True


def system(rows, relations, rhs) -> LDSystem:
    """Coercing constructor for LDSystem."""
    rel = tuple(
        r if isinstance(r, Relation) else Relation(r) for r in relations
    )
    return LDSystem(
        tuple(tuple(int(a) for a in row) for row in rows),
        rel,
        tuple(int(b) for b in rhs),
    )


def macmahon_lift(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> SymbolicCone:
    """Lift ``A x >= b`` to a closed unimodular cone in dimension d+m.

    Generator j is the j-th unit vector extended by column j of A, and the
    apex is (0, -b). Intersecting with the half-spaces where the m slack
    coordinates are non-negative and projecting them away recovers exactly
    the solution set of the system, one coordinate at a time.
    """
    m = len(rows)
    d = len(rows[0])
    if any(len(r) != d for r in rows) or len(rhs) != m:
        raise ValueError("inconsistent system dimensions")
    gens = tuple(
        tuple(1 if i == j else 0 for i in range(d)) + tuple(int(rows[i][j]) for i in range(m))
        for j in range(d)
    )
    apex = (0,) * d + tuple(-int(b) for b in rhs)
    return SymbolicCone(gens, apex, (0,) * d)


def eliminate_last_coordinate(c: SymbolicCone) -> ConeCombination:
    """Intersect with {x_n >= 0}, drop x_n, return the exact signed sum.

    Refuses with ``ValueError`` a cone that is not forward or on which
    forgetting the last coordinate is not injective on the affine hull
    (both hold all along the lifted pipeline). The result is a
    Lawrence-Varchenko style decomposition: one vertex cone per generator
    crossing the hyperplane, each flipped forward with its sign recorded as
    multiplicity, plus the cone itself when its apex already lies on or
    above the hyperplane. Empty when the cone lies strictly below. The
    identity holds exactly, not merely modulo lines.

    Output cones are built in canonical form directly, skipping the
    independence check of ``canonicalize``: one integer rank test of the
    projected columns V' (V without its last row), run whenever the output
    is not empty, covers all of them. V' independent means that V is
    independent and that dropping x_n is injective on span(V). The
    projected cone has the columns of V'. The vertex cone of generator j
    has, before dropping x_n and up to sign and positive scaling, the
    columns v_j and last[i] v_j - last[j] v_i for i != j. Since last[j] != 0
    they are an invertible transform of V, so they are independent and lie
    in span(V), where dropping x_n keeps them independent.
    """
    if not all(map(is_forward, c.generators)):
        raise ValueError("elimination needs forward generators")
    if c.num[-1] >= 0 or any(g[-1] > 0 for g in c.generators):
        _assert_independent(tuple(prim(g[:-1]) for g in c.generators))
    out = ConeCombination()
    for sign, c2 in _eliminate(c):
        out.add(c2, sign)
    return out


def _eliminate(c: SymbolicCone) -> Iterator[tuple[int, SymbolicCone]]:
    """The ``(sign, cone)`` pairs of ``eliminate_last_coordinate``, unchecked.
    The vertex apex q - (q_n / last[j]) v_j is (num_i last[j] - num_n v_j[i])
    / (den last[j]) without x_n, brought to lowest terms by one gcd."""
    k = c.dim
    v = c.generators
    num, den = c.num, c.den
    q_n = num[-1]
    m = len(num) - 1
    last = tuple(g[-1] for g in v)
    sg = 1 if q_n >= 0 else -1

    for j in range(k):
        if last[j] * sg >= 0:
            continue
        vj, lj = v[j], last[j]
        apex = [num[i] * lj - q_n * vj[i] for i in range(m)]
        # divide by the gcd, taking the sign of den * last[j] along
        f = math.gcd(den * lj, *apex) if lj > 0 else -math.gcd(den * lj, *apex)
        cols = []
        for i in range(k):
            if i == j:
                col = tuple(-sg * x for x in vj[:-1])
            else:
                col = tuple(sg * (last[i] * vj[r] - lj * v[i][r]) for r in range(m))
            cols.append(prim(col))
        bits = tuple(0 if i == j else c.openness[i] for i in range(k))
        yield _canonical_cone(
            tuple(cols), tuple(a // f for a in apex), den * lj // f, bits, forward=True
        )
    if q_n >= 0:
        f = math.gcd(den, *num[:-1])
        proj = tuple(prim(g[:-1]) for g in v)
        yield _canonical_cone(
            proj, tuple(a // f for a in num[:-1]), den // f, c.openness, forward=True
        )


def elimination_rounds(c: SymbolicCone, rounds: int) -> Iterator[ConeCombination]:
    """Yield the collected combination after each elimination round.

    This is the one elimination loop: ``eliminate`` and ``solve`` keep its
    last combination, and the CLI's ``--verbose`` lines describe each one.
    The signed cones ``_eliminate`` emits are collected by canonical cone
    once per round; cancellation between rounds is what keeps intermediate
    combinations small, so this is not an optional optimization.

    The input is checked once, before the first round, and refused with
    ``ValueError`` unless its generators are forward and pass one rank
    test. Every cone of round r has k forward generators in the projection
    of span(V0), V0 being the input generators, that drops the last r
    coordinates (see ``eliminate_last_coordinate``). If the first
    n - rounds rows of V0 have full column rank, the last projection is
    injective on span(V0), hence so is every earlier one, and by induction
    every round's V' is independent: the rounds need no check of their
    own. For ``macmahon_lift`` those rows are the identity.
    """
    if not all(map(is_forward, c.generators)):
        raise ValueError("elimination needs forward generators")
    keep = c.ambient_dim - rounds
    if keep < c.dim or not has_full_column_rank(tuple(g[:keep] for g in c.generators)):
        raise ValueError(f"generators not linearly independent on the first {keep} rows")
    # V0 is independent, which covers canonicalize's own check
    c = _canonical_cone(tuple(map(prim, c.generators)), c.num, c.den, c.openness)[1]
    current = ConeCombination({c: 1})
    for _ in range(rounds):
        collected = ConeCombination()
        for parent, mult in current.items():
            for sign, c2 in _eliminate(parent):
                collected.add(c2, mult * sign)
        current = collected
        yield current


def eliminate(c: SymbolicCone, rounds: int) -> ConeCombination:
    """Apply ``eliminate_last_coordinate`` the given number of times.

    Returns the last combination of ``elimination_rounds``, or the
    canonical input cone with multiplicity 1 when ``rounds`` is 0.
    """
    combination = None
    for combination in elimination_rounds(c, rounds):
        pass
    return ConeCombination({canonicalize(c): 1}) if combination is None else combination


def expand_equalities(sys: LDSystem) -> tuple[tuple[IntVec, ...], IntVec]:
    """Replace every equation a.x = beta by the pair a.x >= beta, -a.x >= -beta."""
    rows: list[IntVec] = []
    rhs: list[int] = []
    for row, rel, beta in zip(sys.rows, sys.relations, sys.rhs):
        rows.append(row)
        rhs.append(beta)
        if rel is Relation.EQ:
            rows.append(tuple(-a for a in row))
            rhs.append(-beta)
    return tuple(rows), tuple(rhs)


def solve(sys: LDSystem) -> ConeCombination:
    """Signed cone combination equal to the solution-set indicator on R^d.

    Equations are expanded into inequality pairs first. Infeasible systems
    come out as the empty combination or one evaluating to 0 everywhere on
    the non-negative orthant.
    """
    rows, rhs = expand_equalities(sys)
    return eliminate(macmahon_lift(rows, rhs), len(rows))
