"""Pipeline from a linear Diophantine system to a signed cone combination.

Given integer constraints ``A x >= b`` (rows may also be equations) over
non-negative integer vectors x, the paper lifts the orthant to dimension d+m
with one slack coordinate per row (``macmahon_lift``) and eliminates the
slacks one at a time. Every vector in the lift's span is (x, A x), so
``solve`` never writes them: from the orthant cone in R^d, each round
intersects every cone with one half-space row.x >= beta, the expanded rows
taken last first (``solve_rounds``). The step has a closed form on symbolic
cones, so the solutions come out as an exact signed sum of half-open
simplicial cones in R^d, with no triangulation along the way.

``_rounds`` is the only loop over the rounds: once per round,
``ConeCombination._collect`` sums what ``_eliminate`` emits. ``eliminate``
checks a user cone once, runs the rounds with unit rows in its own space and
drops the eliminated coordinates once (``_project``). A step branches only
on the generators V and the sign of q_n = row.q - beta: ``_plan`` builds the
vertex cones' generators, order, toggles and signs once per (V, sign q_n)
and round, and per cone ``_eliminate`` computes only each apex and its bits.
The plans of one V share a table of pair columns w_ab = l_a v_b - l_b v_a
(l_i = row.v_i): column i of vertex cone j is sg w_ij = -sg w_ji, with sg
the sign of q_n, so each pair is made primitive once per V and round.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Mapping, Sequence

from .cones import ConeCombination, SymbolicCone, _canonical_cone, canonicalize
from .exactmath import IntMat, IntVec, exact_int, has_full_column_rank, identity, is_forward, prim


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
    cone is canonical as built. The apex is (0, -b). ``eliminate`` of its m
    slack coordinates is ``solve``, which skips the lift. The rows are checked
    by building the ``LDSystem`` of ``A x >= b``.
    """
    checked = LDSystem(rows, (Relation.GEQ,) * len(rows), rhs)
    d = len(checked.rows[0])
    gens = tuple(tuple(1 if i == j else 0 for i in range(d)) + tuple(r[j] for r in checked.rows)
                 for j in reversed(range(d)))
    return _canonical_cone(gens, (0,) * d + tuple(-b for b in checked.rhs), 1, (0,) * d)


def eliminate_last_coordinate(c: SymbolicCone) -> ConeCombination:
    """Intersect with {x_n >= 0}, drop x_n, return the exact signed sum: one
    vertex cone per generator crossing the hyperplane, each flipped forward
    with its sign as multiplicity, plus the cone itself when its apex lies on
    or above it; empty when the cone lies strictly below. Exact pointwise, not
    modulo lines. This is ``eliminate(c, 1)``: a backward generator or a
    projection not injective on the cone is refused, even if the result is empty."""
    return eliminate(c, 1)


def _plan(v: IntMat, lengths: list[int], pairs: dict, nonneg: bool) -> tuple:
    """The vertex cones of row.x >= beta on a cone with generators V and
    q_n = row.q - beta >= 0 (``nonneg``) or q_n < 0, but their apexes and bits.

    With l_i = row.v_i (``lengths``) and sg the sign of q_n, vertex cone j
    (sg l_j < 0) has the crossing column -sg v_j and the columns sg w_ij for
    i != j, where w_ab = l_a v_b - l_b v_a: an invertible transform of V in
    span(V), so independent when V is. As w_ab = -w_ba and sg enters only as a
    sign, ``pairs`` (shared by both signs of one V and row) keeps one forward
    ``prim`` of w_ab and its flip bit per pair a < b, made on first use. The
    round's generators are primitive and forward, so a column with l_i = 0 is
    v_i and the crossing column is v_j, flipped when q_n >= 0: neither needs
    ``prim``. One ``(sign, gens, perm, toggles, l_j, v_j)`` per vertex cone:
    its sorted primitive forward columns, sign (-1)^(number reversed), and
    position p takes the bit of parent generator perm[p] (k = len(V): the
    crossing generator's 0) XOR toggles[p]. The apex is
    (num l_j - q_n v_j) / (den l_j).
    """
    sg = 1 if nonneg else -1
    plan = []
    for j, (vj, lj) in enumerate(zip(v, lengths)):
        if sg * lj >= 0:
            continue
        # (forward column, toggle, parent index); the columns are distinct,
        # so this is canonicalize's order
        cols = [(vj, int(nonneg), len(v))]
        for i, (vi, li) in enumerate(zip(v, lengths)):
            if i == j:
                continue
            if li == 0:
                cols.append((vi, 0, i))
                continue
            a, b = (i, j) if i < j else (j, i)
            entry = pairs.get((a, b))
            if entry is None:
                w = prim([lengths[a] * y - lengths[b] * x for x, y in zip(v[a], v[b])])
                entry = pairs[a, b] = (w, 0) if is_forward(w) else (tuple([-x for x in w]), 1)
            # sg w_ij is sg w_ab for i < j and -sg w_ab for i > j
            cols.append((entry[0], entry[1] ^ ((i < j) != nonneg), i))
        cols.sort()
        toggles = tuple([t for _, t, _ in cols])
        plan.append(((-1) ** sum(toggles), tuple([g for g, _, _ in cols]),
                     tuple([i for _, _, i in cols]), toggles, lj, vj))
    return tuple(plan)


def _eliminate(c: SymbolicCone, mult: int, row: IntVec, beta: int,
               tables: dict) -> list[tuple[int, SymbolicCone]]:
    """The ``(multiplicity, cone)`` pairs of mult * [c and row.x >= beta],
    unchecked: ``c`` itself when its apex satisfies the row, then the vertex
    cones of the ``_plan`` of (V, q_n >= 0). ``tables`` holds one entry per V
    and row: the lengths row.v_i, the pair columns both signs share, and the
    plan of each sign, built on first use. Each apex is put in lowest terms by
    one gcd."""
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
    for sign, gens, perm, toggles, lj, vj in plan:
        apex = [a * lj - q_n * b for a, b in zip(num, vj)]
        # divide by the gcd, taking the sign of den * l along
        f = math.gcd(den * lj, *apex)
        if lj < 0:
            f = -f
        if f != 1:
            apex = [a // f for a in apex]
        out.append((mult * sign, _canonical_cone(
            gens, tuple(apex), den * lj // f, tuple([bits[i] ^ t for i, t in zip(perm, toggles)]))))
    return out


def _rounds(c: SymbolicCone, rows: Sequence[IntVec], rhs: IntVec) -> Iterator[ConeCombination]:
    """Yield [c and the first i half-spaces row.x >= beta] for each i, in c's
    space, unchecked; c is canonical and forward. Cancellation in each round's
    one ``_collect`` keeps the rounds small. Plan tables are per round, as the row is."""
    current = {c: 1}
    for row, beta in zip(rows, rhs):
        tables: dict = {}
        current = ConeCombination._collect(chain.from_iterable(
            _eliminate(parent, mult, row, beta, tables) for parent, mult in current.items()))
        yield current


def _project(combination: Mapping[SymbolicCone, int], keep: int) -> ConeCombination:
    """Every cone without all but its first ``keep`` coordinates, unchecked.
    The projection is injective on each span, so cones stay distinct and
    forward; only ``prim``, the order with the bits and the apex's gcd change."""
    out = []
    for c, mult in combination.items():
        pairs = sorted(zip([prim(g[:keep]) for g in c.generators], c.openness))
        num, f = c.num[:keep], math.gcd(c.den, *c.num[:keep])
        out.append((mult, _canonical_cone(tuple(g for g, _ in pairs), tuple([a // f for a in num]),
                                          c.den // f, tuple(b for _, b in pairs))))
    return ConeCombination._collect(out)


def _unit_rows(n: int, rounds: int) -> list[IntVec]:
    """The rows of x_n >= 0, x_{n-1} >= 0, ...: one per round, in R^n."""
    return [tuple([0] * p + [1] + [0] * (n - 1 - p)) for p in range(n - 1, n - 1 - rounds, -1)]


def elimination_rounds(c: SymbolicCone, rounds: int) -> Iterator[ConeCombination]:
    """Yield ``eliminate(c, r)`` for r = 1..rounds, unchecked: callers pass
    what ``eliminate`` accepts. The rounds run with the rows x_n >= 0,
    x_{n-1} >= 0, ... in R^n, and each is projected once."""
    n = c.ambient_dim
    for r, combination in enumerate(_rounds(canonicalize(c), _unit_rows(n, rounds), (0,) * rounds)):
        yield _project(combination, n - r - 1)


def eliminate(c: SymbolicCone, rounds: int) -> ConeCombination:
    """``eliminate_last_coordinate`` applied ``rounds`` times; the canonical
    input cone with multiplicity 1 when ``rounds`` is 0.

    Refuses with ``ValueError`` unless ``rounds`` (an exact integer) lies in
    0..n - k, the generators V0 are forward, and the first n - rounds rows of
    V0 have full column rank. Every cone of every round has k forward
    generators in span(V0) (see ``_plan``), on which the final projection is
    then injective: the rounds need no check, and one projection at the end
    gives each round's projections.
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
    start = canonicalize(c)
    last = deque(_rounds(start, _unit_rows(c.ambient_dim, rounds), (0,) * rounds), maxlen=1)
    return _project(last.pop() if last else {start: 1}, keep)


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
    """``_rounds`` from the orthant cone (e_d..e_1) in R^d, one per expanded
    row, rows last first: round i is the signed cone sum of the solutions of
    the last i rows. Unchecked, as ``sys`` was checked when built.

    These are ``eliminate``'s rounds on ``macmahon_lift`` without the slack
    coordinates: every vector in the lift's span is (x, A x) and the rows are
    integers, so gcd(x, A x) = gcd(x). ``prim``, the forward test, lex order
    and the apex's lowest terms (gcd(num_x, den) divides A num_x - b den) read
    the prefix x alone, and each round's cones match the lifted ones one to one.
    """
    rows, rhs = expand_equalities(sys)
    d = sys.num_variables
    orthant = _canonical_cone(identity(d)[::-1], (0,) * d, 1, (0,) * d)
    return _rounds(orthant, rows[::-1], rhs[::-1])


def solve(sys: LDSystem) -> ConeCombination:
    """Signed cone combination equal to the solution-set indicator on R^d:
    the last of ``solve_rounds``. Infeasible systems come out as the empty
    combination or one evaluating to 0 everywhere on the non-negative orthant.
    """
    return deque(solve_rounds(sys), maxlen=1).pop()
