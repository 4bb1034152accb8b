"""Workload definitions: seeded constraint systems and the ops issued on them.

A workload is a fixed list of ops drawn from the workload seed; each position
in the list is an *op slot*. The timed loop issues the whole list again and
again (one *pass* each time), so every slot is timed several times over the
run on exactly the same input.

Each workload keeps the *shape* of its systems fixed and lets the seed pick a
positive scale for the right-hand side. Elimination, Barvinok and the
parallelepiped enumeration branch only on the signs of apex coordinates and
on the generators, and both are unchanged when the right-hand side is
multiplied by a positive integer; so the seed changes every answer but not
the amount of work, which keeps the figures of different seeds comparable.

This module does not import symcones: it only produces constraint text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Op kinds and the CLI arguments they stand for.
SOLVE = "solve"
CHECK = "check"
RATFUN_FP = "ratfun-fp"
RATFUN_BARVINOK = "ratfun-barvinok"
COUNT = "count"

CHECK_BOX = 4

# x1 + 2 x2 + 3 x3 + 4 x4 + 5 x5 = N, one op slot of random-systems:
# Barvinok and LLL do over 90% of a count, over a wide tree (10 cones in,
# 150 leaves), and it is the one op that evaluates a count.
PARTITION_PARTS = (1, 2, 3, 4, 5)
PARTITION_N = (20, 60)

# Table margins (rows, columns) before scaling. The 3x3 shape is the
# expensive one (672 cones, every row an equation that gets doubled); the
# 2x3 shape is cheap and carries the median.
TABLE_3X3 = ((1, 2, 3), (2, 2, 2))
TABLE_2X3 = ((1, 2), (1, 1, 1))
TABLES_2X3 = 8
TABLE_SCALE = (1, 3)

# random-systems: a fixed panel drawn from the random_system distribution of
# the test suite (d = 4, m in {3, 4}, entries in [-5, 5]). The panel is fixed
# so that the set of ops that run past the time limit is the same for every
# seed. Draws 0..9 of Random(24) hold one cone of index 5.4e6 whose fp
# enumeration runs for minutes (the known fp hang, kept visible as a
# failure); every other op of the panel took at most 4.2 s on a 2-core VM.
PANEL_SEED = 24
PANEL_SIZE = 10
PANEL_DIM = 4
PANEL_ENTRY_BOUND = 5
PANEL_SCALE = (1, 3)
RANDOM_OP_KINDS = (SOLVE, CHECK, RATFUN_FP, RATFUN_BARVINOK)


@dataclass(frozen=True)
class System:
    """An integer system rows . x (rel) rhs, x >= 0, with an id for reports."""

    sid: str
    rows: tuple[tuple[int, ...], ...]
    relations: tuple[str, ...]
    rhs: tuple[int, ...]
    # what the oracles need to know about where the system came from
    family: str
    params: tuple

    def text(self) -> str:
        """The constraint text a CLI user would pipe into symcones."""
        return "\n".join(
            " ".join(str(a) for a in row) + f" {rel} {b}"
            for row, rel, b in zip(self.rows, self.relations, self.rhs)
        ) + "\n"


@dataclass(frozen=True)
class Op:
    op_id: str
    kind: str
    system: System
    text: str


def partition_system(n: int, sid: str) -> System:
    return System(sid, (PARTITION_PARTS,), ("=",), (n,), "partition", (PARTITION_PARTS, n))


def table_system(row_sums, col_sums, sid: str) -> System:
    """Row-major cells; every row sum and all but the last (implied) column sum."""
    r, c = len(row_sums), len(col_sums)
    if sum(row_sums) != sum(col_sums):
        raise ValueError("margins must have equal totals")
    rows, rhs = [], []
    for i in range(r):
        rows.append(tuple(1 if k // c == i else 0 for k in range(r * c)))
        rhs.append(row_sums[i])
    for j in range(c - 1):
        rows.append(tuple(1 if k % c == j else 0 for k in range(r * c)))
        rhs.append(col_sums[j])
    return System(
        sid, tuple(rows), ("=",) * len(rows), tuple(rhs), "table",
        (tuple(row_sums), tuple(col_sums)),
    )


def random_panel() -> list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """(rows, rhs) of the panel, drawn exactly as tests/_support.random_system."""
    rng = random.Random(PANEL_SEED)
    panel = []
    for _ in range(PANEL_SIZE):
        m = rng.choice((3, 4))
        rows = tuple(
            tuple(rng.randint(-PANEL_ENTRY_BOUND, PANEL_ENTRY_BOUND) for _ in range(PANEL_DIM))
            for _ in range(m)
        )
        rhs = tuple(rng.randint(-PANEL_ENTRY_BOUND, PANEL_ENTRY_BOUND) for _ in range(m))
        panel.append((rows, rhs))
    return panel


def random_system(rows, rhs, scale: int, sid: str) -> System:
    return System(
        sid, rows, (">=",) * len(rows), tuple(scale * b for b in rhs), "random", (scale,)
    )


class Workload:
    """Seeded list of op slots; the same seed gives the same ``ops``."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list[Op] = self._make_ops(random.Random(f"{self.name}:{seed}"))

    def _make_ops(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError


def _op(kind: str, system: System) -> Op:
    return Op(f"{system.sid}.{kind}", kind, system, system.text())


class TablesSolve(Workload):
    name = "tables-solve"

    def _make_ops(self, rng):
        t = rng.randint(*TABLE_SCALE)
        rs, cs = TABLE_3X3
        ops = [_op(SOLVE, table_system([t * x for x in rs], [t * x for x in cs], f"t3x3s{t}"))]
        for k in range(TABLES_2X3):
            t = rng.randint(*TABLE_SCALE)
            rs, cs = TABLE_2X3
            ops.append(_op(SOLVE, table_system(
                [t * x for x in rs], [t * x for x in cs], f"t2x3s{t}k{k}")))
        return ops


class RandomSystems(Workload):
    name = "random-systems"

    def _make_ops(self, rng):
        ops = []
        for i, (rows, rhs) in enumerate(random_panel()):
            system = random_system(rows, rhs, rng.randint(*PANEL_SCALE), f"rs{i:02d}")
            ops.extend(_op(kind, system) for kind in RANDOM_OP_KINDS)
        n = rng.randint(*PARTITION_N)
        ops.append(_op(COUNT, partition_system(n, f"part-N{n}")))
        return ops


WORKLOADS = {w.name: w for w in (TablesSolve, RandomSystems)}
