"""Pipeline from a linear Diophantine system to a signed cone combination.

Given integer constraints ``A x >= b`` (rows may also be equations) over
non-negative integer vectors x, the solver lifts the positive orthant into
dimension d+m with one slack coordinate per constraint, then repeatedly
intersects with the half-space where the last coordinate is non-negative
and projects that coordinate away. Both steps have closed-form effects on
symbolic cones, so the set of solutions comes out as an exact signed sum
of half-open simplicial cones in R^d - no triangulation, no rational
function arithmetic along the way.

``elimination_rounds`` is the only loop over the rounds: once per round,
``ConeCombination._collect`` sums what ``_eliminate`` emits. ``eliminate``
checks its input once and keeps the last combination; ``solve_rounds``, whose
lift needs no check, feeds ``solve`` and the CLI's ``--verbose`` lines.

A step branches only on the generators V and the sign of q_n, which many
cones of a round share: ``_plan`` builds the output generators, order,
toggles and signs once per (V, sign q_n) and call, and per cone
``_eliminate`` computes only each output apex (one gcd) and its bits.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .cones import (
    ConeCombination,
    SymbolicCone,
    _canonical_cone,
    canonicalize,
)
from .exactmath import IntMat, IntVec, exact_int, has_full_column_rank, is_forward, prim


class Relation(enum.Enum):
    GEQ = ">="
    EQ = "="


@dataclass(frozen=True)
class LDSystem:
    """Integer constraint system A x (>= or =) b over x in Z^d, x >= 0.

    The one validating constructor, also named ``system``: entries go through
    ``exact_int``, relations through ``Relation`` (members or ``">="``/``"="``)."""

    rows: tuple[IntVec, ...]
    relations: tuple[Relation, ...]
    rhs: IntVec

    def __post_init__(self):
        self.__dict__.update(rows=tuple(tuple(map(exact_int, r)) for r in self.rows),
                             relations=tuple(map(Relation, self.relations)),
                             rhs=tuple(map(exact_int, self.rhs)))
        m = len(self.rows)
        if m == 0:
            raise ValueError("system needs at least one constraint")
        d = len(self.rows[0])
        if d == 0:
            raise ValueError("system needs at least one variable")
        if set(map(len, self.rows)) != {d}:
            raise ValueError("constraint rows must have equal length")
        if len(self.relations) != m or len(self.rhs) != m:
            raise ValueError("relations and right-hand side must match row count")

    @property
    def num_variables(self) -> int:
        return len(self.rows[0])

    def satisfies(self, x: Sequence[int]) -> bool:
        """Direct check of A x >= b (resp. =) and x >= 0; the test oracle."""
        if len(x) != self.num_variables:
            raise ValueError("point has wrong dimension")
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


system = LDSystem


def macmahon_lift(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> SymbolicCone:
    """Lift ``A x >= b`` to a closed unimodular cone in dimension d+m.

    Generator j is e_j extended by column j of A, listed for j = d..1: the
    identity block makes them primitive, independent and lex sorted, so the
    cone is canonical as built. The apex is (0, -b). Intersecting with the
    half-spaces where the m slack coordinates are non-negative and projecting
    them away recovers the solution set of the system, one coordinate at a time.
    The rows are checked by building the ``LDSystem`` of ``A x >= b``.
    """
    checked = LDSystem(rows, (Relation.GEQ,) * len(rows), rhs)
    return _lift(checked.rows, checked.rhs)


def _lift(rows: IntMat, rhs: IntVec) -> SymbolicCone:
    """``macmahon_lift`` of rows an ``LDSystem`` has already checked, unchecked."""
    d = len(rows[0])
    gens = tuple(tuple(1 if i == j else 0 for i in range(d)) + tuple(r[j] for r in rows)
                 for j in reversed(range(d)))
    return _canonical_cone(gens, (0,) * d + tuple(-b for b in rhs), 1, (0,) * d)


def eliminate_last_coordinate(c: SymbolicCone) -> ConeCombination:
    """Intersect with {x_n >= 0}, drop x_n, return the exact signed sum.

    This is ``eliminate(c, 1)``, so it refuses with ``ValueError`` a cone
    that is not forward or on which forgetting the last coordinate is not
    injective on the affine hull (both hold all along the lifted
    pipeline), even when the result would be empty. The result is a
    Lawrence-Varchenko style decomposition: one vertex cone per generator
    crossing the hyperplane, each flipped forward with its sign recorded as
    multiplicity, plus the cone itself when its apex already lies on or
    above the hyperplane. Empty when the cone lies strictly below. The
    identity holds exactly, not merely modulo lines.
    """
    return eliminate(c, 1)


def _plan(v: IntMat, nonneg: bool) -> tuple:
    """All that one elimination step does to a cone with generators V and
    q_n >= 0 (``nonneg``) or q_n < 0, but its apex and bits.

    Without x_n, vertex cone j (v_j crossing x_n = 0 against q) has the
    columns -sg v_j and sg (last[i] v_j - last[j] v_i) for i != j, sg the
    sign of q_n; the projected cone (q_n >= 0) has V' (V without x_n). As
    last[j] != 0 the vertex columns are an invertible transform of V in
    span(V), so a rank test of V' shows every output independent.

    One ``(sign, gens, perm, toggles, l, head)`` per output cone: its
    sorted primitive forward columns, sign (-1)^(number reversed), and
    position p takes the bit of parent generator perm[p] (k: the crossing
    generator's 0) XOR toggles[p]. The apex is (num_i l - q_n head_i) /
    (den l), with l = last[j] and head = v_j without x_n for vertex cone
    j, l = 1 and head = 0 for the projected cone.
    """
    k, m = len(v), len(v[0]) - 1
    sg = 1 if nonneg else -1
    specs = []
    for j, vj in enumerate(v):
        lj, head = vj[-1], vj[:m]
        if lj * sg < 0:
            cols = [tuple(sg * (g[-1] * a - lj * b) for a, b in zip(head, g)) for g in v]
            cols[j] = tuple(-sg * x for x in head)
            specs.append((cols, j, lj, head))
    if nonneg:
        specs.append(([g[:m] for g in v], k, 1, (0,) * m))
    plan = []
    for cols, j, lj, head in specs:
        # (forward column, toggle, parent index); the columns are distinct,
        # so this is canonicalize's order
        cols = sorted((g, 0, i) if is_forward(g) else (tuple(-x for x in g), 1, i)
                      for i, g in enumerate(map(prim, cols)))
        toggles = tuple(t for _, t, _ in cols)
        plan.append(((-1) ** sum(toggles), tuple(g for g, _, _ in cols),
                     tuple(k if i == j else i for _, _, i in cols), toggles, lj, head))
    return tuple(plan)


def _eliminate(c: SymbolicCone, mult: int, plans: dict) -> Iterator[tuple[int, SymbolicCone]]:
    """The ``(multiplicity, cone)`` pairs of mult * ``eliminate(c, 1)``,
    unchecked: the ``_plan`` of (V, q_n >= 0), built once per key in ``plans``,
    and per cone only each output apex, in lowest terms by one gcd, and its bits."""
    num, den, q_n = c.num, c.den, c.num[-1]
    key = (c.generators, q_n >= 0)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _plan(*key)
    bits = c.openness + (0,)
    for sign, gens, perm, toggles, lj, head in plan:
        apex = [a * lj - q_n * b for a, b in zip(num, head)]
        # divide by the gcd, taking the sign of den * l along
        f = math.gcd(den * lj, *apex) if lj > 0 else -math.gcd(den * lj, *apex)
        out_bits = tuple([bits[i] ^ t for i, t in zip(perm, toggles)])
        yield mult * sign, _canonical_cone(gens, tuple([a // f for a in apex]), den * lj // f,
                                           out_bits)


def elimination_rounds(c: SymbolicCone, rounds: int) -> Iterator[ConeCombination]:
    """Yield the collected combination after each elimination round, unchecked.

    This is the one elimination loop: ``eliminate`` and ``solve`` keep its
    last combination, and the CLI's ``--verbose`` lines describe each one.
    ``ConeCombination._collect`` sums the canonical cones ``_eliminate`` emits
    once per round; cancellation between rounds is what keeps intermediate
    combinations small, so this is not an optional optimization. Callers
    pass what ``eliminate`` accepts; ``solve_rounds`` does so by construction.
    """
    # the input needs no canonical form: the plans make every output canonical
    current = {c: 1}
    plans: dict = {}
    for _ in range(rounds):
        current = ConeCombination._collect(chain.from_iterable(
            _eliminate(parent, mult, plans) for parent, mult in current.items()))
        yield current


def eliminate(c: SymbolicCone, rounds: int) -> ConeCombination:
    """``eliminate_last_coordinate`` applied ``rounds`` times: the last
    combination of ``elimination_rounds``, or the canonical input cone with
    multiplicity 1 when ``rounds`` is 0.

    Refuses with ``ValueError`` unless ``rounds`` (an exact integer) lies in
    0..n - k, the generators V0 are forward, and the first n - rounds rows of
    V0 have full column rank. Every cone of round r has k forward generators
    in the projection of span(V0) that drops the last r coordinates (see
    ``_plan``). The last projection is then injective on span(V0), hence so
    is every earlier one, and every round's V' is independent: the rounds
    need no check of their own.
    """
    rounds = exact_int(rounds)
    if not 0 <= rounds <= c.ambient_dim - c.dim:
        why = "" if rounds < 0 else (f": {c.dim} generators are not linearly independent"
                                     f" on fewer than {c.dim} rows")
        raise ValueError(f"rounds must lie in 0..{c.ambient_dim - c.dim}, got {rounds}{why}")
    if not all(map(is_forward, c.generators)):
        raise ValueError("elimination needs forward generators")
    keep = c.ambient_dim - rounds
    if not has_full_column_rank(tuple(g[:keep] for g in c.generators)):
        raise ValueError(f"generators not linearly independent on the first {keep} rows")
    last = deque(elimination_rounds(c, rounds), maxlen=1)
    return last.pop() if last else ConeCombination({canonicalize(c): 1})


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


def solve_rounds(sys: LDSystem) -> Iterator[ConeCombination]:
    """``elimination_rounds`` of the lifted system, one per expanded row,
    unchecked: ``sys`` was checked when built, and the lift meets every check
    of ``eliminate``, with d forward generators for m rounds and, as its first
    d rows, the identity with its columns reversed."""
    rows, rhs = expand_equalities(sys)
    return elimination_rounds(_lift(rows, rhs), len(rows))


def solve(sys: LDSystem) -> ConeCombination:
    """Signed cone combination equal to the solution-set indicator on R^d:
    the last of ``solve_rounds``. Infeasible systems come out as the empty
    combination or one evaluating to 0 everywhere on the non-negative orthant.
    """
    return deque(solve_rounds(sys), maxlen=1).pop()
