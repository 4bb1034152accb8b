"""Pipeline from a linear Diophantine system to a signed cone combination.

Given integer constraints ``A x >= b`` (rows may also be equations) over
non-negative integer vectors x, the paper lifts the orthant to dimension d+m
with one slack coordinate per row (``macmahon_lift``) and eliminates the
slacks one at a time. Every vector in the lift's span is (x, A x), so
``solve`` never writes them: from the orthant cone in R^d, each round
intersects every cone with one half-space row.x >= beta, the expanded rows
taken last first, by the step's closed form on symbolic cones.

``_rounds`` is the only loop over the rounds, on groups {V: {(num, den):
{bits: mult}}}: in the step's closed form a vertex cone's generators depend
on V alone and its apex on (V, q) alone, while the openness is only permuted
and toggled. A step branches only on V and the sign of q_n = row.q - beta:
``_plan`` builds the vertex cones' generators, order, toggles and signs once
per (V, sign q_n) and round, from one table of pair columns per V, each entry
resolved to its output group once. Per (V, apex) the loop computes q_n and
each vertex cone's apex once; per openness pattern it only adds the permuted
bits to that group, dropping a sum of 0. Cone objects are built only from
the last round, or as ``eliminate`` projects (``_project``).
"""

from __future__ import annotations

import enum
import math
import operator
from collections import deque
from dataclasses import dataclass
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
    (sg l_j < 0) has the crossing column -sg v_j and the columns sg w_ij,
    i != j: independent when V is. As w_ab = -w_ba, ``pairs`` (shared by both
    signs) keeps one forward ``prim`` of w_ab per pair a < b, found by one
    signed gcd, as the column of either orientation under either sign. V is
    primitive and forward, so a column with l_i = 0 is v_i and the crossing
    column is v_j, flipped when q_n >= 0. One ``(sign, gens, flips, l_j,
    v_j)`` per vertex cone: sorted columns, sign (-1)^(number flipped), and
    per position a pair (i, t): the bit of parent generator i (k = len(V):
    the crossing generator's 0) XOR t. The apex is (num l_j - q_n v_j) / (den l_j).
    """
    sg = 1 if nonneg else -1
    plan = []
    for j, lj in enumerate(lengths):
        if sg * lj >= 0:
            continue
        vj = v[j]
        # (forward column, toggle, parent index); the columns are distinct,
        # so this is canonicalize's order
        cols = [(vj, int(nonneg), len(v))]
        for i, li in enumerate(lengths):
            if i == j:
                continue
            if li == 0:
                cols.append((v[i], 0, i))
                continue
            pair = (i, j) if i < j else (j, i)
            entry = pairs.get(pair)
            if entry is None:
                a, b = pair
                w = [lengths[a] * y - lengths[b] * x for x, y in zip(v[a], v[b])]
                # prim and the forward flip in one: divide by the gcd, signed
                # by the first non-zero entry
                g = math.gcd(*w) if next(filter(None, w)) > 0 else -math.gcd(*w)
                w = tuple(w) if g == 1 else tuple([x // g for x in w])
                # column i of vertex cone j, at 2 (i < j) + nonneg: sg w_ij is
                # sg w_ab for i < j and -sg w_ab for i > j
                t = int(g < 0)
                entry = pairs[pair] = (w, t, b), (w, 1 - t, b), (w, 1 - t, a), (w, t, a)
            cols.append(entry[2 * (i < j) + nonneg])
        cols.sort()
        gens, toggles, parents = zip(*cols)
        plan.append(((-1) ** sum(toggles), gens, tuple(zip(parents, toggles)), lj, vj))
    return tuple(plan)


def _rounds(c: SymbolicCone, rows: Sequence[IntVec], rhs: IntVec) -> Iterator[dict]:
    """Yield [c and the first i half-spaces row.x >= beta] for each i as groups
    {V: {(num, den): {bits: mult}}}, in c's space, unchecked; c is canonical
    and forward. The plan comes once per (V, sign q_n); q_n and each vertex
    cone's apex (the parent's when q_n = 0, else put in lowest terms by one
    gcd) once per (V, apex); per pattern only the permuted bits are added.
    Two patterns that differ only in the crossing generator's bit give the
    same bits, so they add."""
    current = {c.generators: {(c.num, c.den): {c.openness: 1}}}
    for row, beta in zip(rows, rhs):
        out: dict = {}
        emptied = []  # (apexes, key) whose bits map a sum of 0 emptied
        for v, apexes in current.items():
            lengths = [sum(map(operator.mul, row, g)) for g in v]
            pairs: dict = {}
            plans: list = [None, None]
            same = out.setdefault(v, {})
            for key, patterns in apexes.items():
                num, den = key
                q_n = sum(map(operator.mul, row, num)) - beta * den
                nonneg = q_n >= 0
                plan = plans[nonneg]
                if plan is None:
                    plan = plans[nonneg] = [
                        (out.setdefault(gens, {}), sign, flips, lj, vj)
                        for sign, gens, flips, lj, vj in _plan(v, lengths, pairs, nonneg)]
                if nonneg:
                    if (kept := same.get(key)) is None:
                        same[key] = dict(patterns)
                    else:
                        for bits, mult in patterns.items():
                            if m := kept.get(bits, 0) + mult:
                                kept[bits] = m
                            else:
                                del kept[bits]
                                if not kept:
                                    emptied.append((same, key))
                if not plan:
                    continue
                # each pattern with the crossing generator's bit 0 appended
                entries = [(bits + (0,), mult) for bits, mult in patterns.items()]
                for target, sign, flips, lj, vj in plan:
                    if q_n:
                        apex = [a * lj - q_n * b for a, b in zip(num, vj)]
                        # divide by the gcd, taking the sign of den * l along
                        f = math.gcd(den * lj, *apex)
                        if lj < 0:
                            f = -f
                        if f != 1:
                            apex = [a // f for a in apex]
                        child = (tuple(apex), den * lj // f)
                    else:
                        child = key
                    dest = target.setdefault(child, {})
                    for bits, mult in entries:
                        bits = tuple([bits[i] ^ t for i, t in flips])
                        if m := dest.get(bits, 0) + mult * sign:
                            dest[bits] = m
                        else:
                            del dest[bits]
                            if not dest:
                                emptied.append((target, child))
        for apexes, key in emptied:
            if not apexes.get(key, True):
                del apexes[key]
        current = {v: apexes for v, apexes in out.items() if apexes}
        yield current


def _project(groups: Mapping[IntMat, Mapping[tuple, Mapping[tuple, int]]],
             keep: int) -> ConeCombination:
    """``_rounds``' groups without all but the first ``keep`` coordinates, unchecked.
    The projection is injective on each span, so apexes and cones stay distinct
    and forward; ``prim`` and the order change once per V, the apex's gcd once
    per apex, and the bits per pattern."""
    out = {}
    for v, apexes in groups.items():
        cols = [prim(g[:keep]) for g in v]
        order = sorted(range(len(v)), key=cols.__getitem__)
        out[tuple([cols[i] for i in order])] = projected = {}
        for (num, den), patterns in apexes.items():
            f = math.gcd(den, *(num := num[:keep]))
            projected[tuple([a // f for a in num]), den // f] = {
                tuple([bits[i] for i in order]): mult for bits, mult in patterns.items()}
    return ConeCombination._from_groups(out)


def _unit_rows(n: int, rounds: int) -> list[IntVec]:
    """The rows of x_n >= 0, x_{n-1} >= 0, ...: one per round, in R^n."""
    return [tuple([0] * p + [1] + [0] * (n - 1 - p)) for p in range(n - 1, n - 1 - rounds, -1)]


def elimination_rounds(c: SymbolicCone, rounds: int) -> Iterator[ConeCombination]:
    """Yield ``eliminate(c, r)`` for r = 1..rounds, unchecked: callers pass
    what ``eliminate`` accepts. The rounds run with the rows x_n >= 0,
    x_{n-1} >= 0, ... in R^n, and each is projected once."""
    n = c.ambient_dim
    for r, groups in enumerate(_rounds(canonicalize(c), _unit_rows(n, rounds), (0,) * rounds)):
        yield _project(groups, n - r - 1)


def eliminate(c: SymbolicCone, rounds: int) -> ConeCombination:
    """``eliminate_last_coordinate`` applied ``rounds`` times; the canonical
    input cone with multiplicity 1 when ``rounds`` is 0. Refuses with
    ``ValueError`` unless ``rounds`` (an exact integer) lies in 0..n - k, the
    generators V0 are forward, and the first n - rounds rows of V0 have full
    column rank. Every cone of every round has k forward generators in span(V0)
    (see ``_plan``), on which the final projection is then injective: the
    rounds need no check, and one projection at the end gives each round's.
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
    if not rounds:
        return ConeCombination({start: 1})
    return _project(deque(_rounds(start, _unit_rows(c.ambient_dim, rounds), (0,) * rounds),
                          maxlen=1).pop(), keep)


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


def _solve_groups(sys: LDSystem) -> Iterator[dict]:
    """``_rounds`` from the orthant cone (e_d..e_1) in R^d, one per expanded
    row, rows last first: round i is the signed cone sum of the solutions of
    the last i rows. Unchecked, as ``sys`` was checked when built. These are
    ``eliminate``'s rounds on ``macmahon_lift`` without the slack coordinates:
    the rows are integers, so gcd(x, A x) = gcd(x), and ``prim``, the forward
    test, lex order and the apex's lowest terms (gcd(num_x, den) divides
    A num_x - b den) read the prefix x alone."""
    rows, rhs = expand_equalities(sys)
    d = sys.num_variables
    orthant = _canonical_cone(identity(d)[::-1], (0,) * d, 1, (0,) * d)
    return _rounds(orthant, rows[::-1], rhs[::-1])


def solve_rounds(sys: LDSystem) -> Iterator[ConeCombination]:
    """Each round of ``_solve_groups`` as a combination of a copy of its groups."""
    for groups in _solve_groups(sys):
        yield ConeCombination._from_groups(
            {v: {key: dict(patterns) for key, patterns in apexes.items()}
             for v, apexes in groups.items()})


def solve(sys: LDSystem) -> ConeCombination:
    """Signed cone combination equal to the solution-set indicator on R^d:
    the last of ``solve_rounds``, the only one built. Infeasible systems give
    an empty combination or one evaluating to 0 on the non-negative orthant."""
    return ConeCombination._from_groups(deque(_solve_groups(sys), maxlen=1).pop())
