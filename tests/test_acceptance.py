"""Acceptance suite: one test per criterion, exact tolerances, zero slack.

Each test prints one PASS line; any assertion failure is the FAIL line.
Run with ``pytest -v -s tests/test_acceptance.py``.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from symcones import (
    ConeCombination,
    barvinok_decompose,
    canonicalize,
    cone,
    contains,
    count_lattice_points,
    eliminate_last_coordinate,
    enum_fundpar,
    eval_combination,
    index,
    macmahon_lift,
    snf,
    solve,
    system,
)
from symcones.cli import RunConfig, parse_system, run
from symcones.elimination import elimination_rounds, expand_equalities
from symcones.exactmath import det, identity, is_forward, prim, scaled_inverse
from _support import (
    box_points,
    decompose_along_random_direction,
    decompose_along_random_directions,
    mat_mul,
    random_full_dim_cone,
    random_system,
)

SEED = 20250810


def criterion_systems():
    """The 200 seeded random systems shared by criteria 1 and 8."""
    rng = random.Random(SEED)
    out = []
    for _ in range(200):
        d = rng.randint(1, 3)
        m = rng.randint(1, 4)
        out.append(random_system(rng, d, m, entry_bound=5))
    return out


def test_criterion_01_lawrence_varchenko_exactness():
    start = time.monotonic()
    for sys_ in criterion_systems():
        status, output, _ = run(RunConfig("check", box=8), sys_)
        assert (status, output) == (0, "PASS"), f"check failed for {sys_}"
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s, budget is 60s"
    print(f"\nPASS criterion 1: 200 random systems exact on [0,8]^d ({elapsed:.1f}s)")


def test_criterion_02_intro_fixtures():
    comb = solve(system([(1, 1)], ["="], [100]))
    assert count_lattice_points(comb) == 101
    status, output, _ = run(RunConfig("check", box=6), parse_system("2 3 -5 >= 4"))
    assert (status, output) == (0, "PASS")
    print("PASS criterion 2: intro fixtures (count 101; box oracle on [0,6]^3)")


def test_criterion_03_first_omega_rule():
    start = time.monotonic()
    result = eliminate_last_coordinate(canonicalize(cone([(1, 0, 1), (0, 1, -3)])))
    expected = ConeCombination()
    expected.add(cone([(1, 0), (0, 1)]), 1)
    expected.add(cone([(0, 1), (3, 1)], openness=(1, 0)), -1)
    assert result == expected
    target = cone([(1, 0), (3, 1)])
    for x in box_points(2, 0, 10):
        assert eval_combination(result, x) == (1 if contains(target, x) else 0)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 3: two-cone elimination identity on [0,10]^2 ({elapsed:.2f}s)")


def test_criterion_04_parallelepiped_fixtures():
    cone_a = canonicalize(cone([(-5, 13, 0), (1, 0, 13)]))
    points_a = enum_fundpar(cone_a)
    assert len(points_a) == 13
    assert set(points_a) == {
        (0, 0, 0), (0, 1, 5), (0, 2, 10), (-1, 3, 2), (-1, 4, 7), (-1, 5, 12),
        (-2, 6, 4), (-2, 7, 9), (-3, 8, 1), (-3, 9, 6), (-3, 10, 11),
        (-4, 11, 3), (-4, 12, 8),
    }
    cone_b = canonicalize(cone([(-5, 13, 0), (0, 1, 5)], openness=(1, 0)))
    points_b = enum_fundpar(cone_b)
    assert len(points_b) == 5
    assert set(points_b) == {(-5, 13, 0), (-4, 11, 3), (-3, 8, 1), (-2, 6, 4), (-1, 3, 2)}
    print("PASS criterion 4: 13- and 5-point parallelepiped fixtures exact")


def test_criterion_05_smith_form_fixture():
    v = ((2, -2), (6, 2))  # rows (2,6) and (-2,2)
    dec = snf(v)
    assert dec.diagonal() == (2, 8)
    assert mat_mul(mat_mul(dec.U, dec.S), dec.W) == v
    assert abs(det(dec.U)) == 1 and abs(det(dec.W)) == 1
    assert mat_mul(dec.U, dec.U_inv) == identity(2)
    assert mat_mul(dec.W, dec.W_inv) == identity(2)
    print("PASS criterion 5: smith form diag(2,8) with unimodular transforms")


def test_criterion_06_parallelepiped_counting_law():
    rng = random.Random(SEED + 6)
    checked_tilings = 0
    for trial in range(100):
        d = rng.randint(1, 4)
        # entries range over the full +-20; the index is capped to keep the
        # enumeration suite inside the time budget
        c = random_full_dim_cone(
            rng, d, 20, max_det=60 if d == 4 else 150,
            rational_apex=True, apex_denominator_bound=5, random_openness=True,
        )
        c = canonicalize(c)
        points = enum_fundpar(c)
        assert len(set(points)) == len(points) == abs(det(c.generators))
        # tiling identity on a box: x is in the cone iff exactly one
        # parallelepiped point reaches it by a non-negative integer step
        adj, dd = scaled_inverse(c.generators)
        radius = 2 if d == 4 else 3
        lo = tuple(math.floor(q) - radius for q in c.apex)
        hi = tuple(math.floor(q) + radius + 1 for q in c.apex)
        shifted = [tuple(sum(adj[i][j] * p[i] for i in range(d)) for j in range(d)) for p in points]
        for x in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
            ax = tuple(sum(adj[i][j] * x[i] for i in range(d)) for j in range(d))
            hits = 0
            for sp in shifted:
                for t in map(lambda a, b: a - b, ax, sp):
                    if t % dd or (t // dd) < 0:
                        break
                else:
                    hits += 1
            assert hits == (1 if contains(c, x) else 0), (c, x)
        checked_tilings += 1
    assert checked_tilings == 100
    print("PASS criterion 6: counting law and tiling on 100 random cones (d <= 4)")


def test_criterion_07_unimodular_decomposition():
    start = time.monotonic()
    # verbatim two-term identity for the index-2 cone
    result = barvinok_decompose(cone([(1, 0), (1, 2)]))
    expected = ConeCombination()
    expected.add(cone([(1, 0), (0, 1)]), 1)
    expected.add(cone([(0, 1), (1, 2)], openness=(1, 0)), -1)
    assert result == expected
    rng = random.Random(SEED + 7)
    for trial in range(50):
        d = rng.randint(2, 3)
        c = canonicalize(
            random_full_dim_cone(rng, d, 30, max_det=20000,
                                 rational_apex=True, random_openness=True)
        )
        # the cone's own direction, then a random one of its sign pattern
        for dec in (barvinok_decompose(c),
                    decompose_along_random_direction(c, random.Random(trial))):
            for leaf, mult in dec.items():
                assert abs(det(leaf.generators)) == 1
                assert leaf.apex == c.apex
                assert mult != 0
            lo = tuple(math.floor(q) - 2 for q in c.apex)
            hi = tuple(math.floor(q) + 3 for q in c.apex)
            for x in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
                want = 1 if contains(c, x) else 0
                assert eval_combination(dec, x) == want, (c, x)
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"criterion 7 took {elapsed:.1f}s, budget is 30s"
    print(f"PASS criterion 7: 50 unimodular decompositions exact ({elapsed:.1f}s)")


def test_criterion_08_structure_bounds():
    for sys_ in criterion_systems():
        d = sys_.num_variables
        rows, rhs = expand_equalities(sys_)
        a_max = max(
            1, max(abs(x) for row in rows for x in row), max(abs(b) for b in rhs)
        )
        det_bound = (d * a_max) ** (d * d)
        lift = macmahon_lift(rows, rhs)
        step = None
        for i, step in enumerate(elimination_rounds(lift, len(rows)), start=1):
            assert len(step) <= math.comb(d + i, d)
            for c in step:
                assert c.dim == d
                for g in c.generators:
                    assert is_forward(g)
                    assert prim(g) == g
        if step is not None:
            for c in step:
                assert abs(det(c.generators)) <= det_bound
    print("PASS criterion 8: cone-count, forwardness and determinant bounds hold")


def test_criterion_09_counting_cross_validation():
    rng = random.Random(SEED + 9)
    for trial in range(50):
        d = rng.randint(1, 3)
        cap = rng.randint(1, 6)
        rows = [tuple(-1 if j == i else 0 for j in range(d)) for i in range(d)]
        rhs = [-cap] * d
        relations = [">="] * d
        for _ in range(rng.randint(0, 2)):
            rows.append(tuple(rng.randint(-4, 4) for _ in range(d)))
            rhs.append(rng.randint(-4, 4))
            relations.append(">=")
        if rng.random() < 0.4:
            rows.append(tuple(rng.randint(1, 3) for _ in range(d)))
            rhs.append(rng.randint(0, 2 * cap))
            relations.append("=")
        sys_ = system(rows, relations, rhs)
        oracle = sum(1 for x in box_points(d, 0, cap) if sys_.satisfies(x))
        comb = solve(sys_)
        first = count_lattice_points(comb)
        # the leaves of random directions are unimodular, so the count
        # decomposes them no further
        second = count_lattice_points(
            decompose_along_random_directions(comb, random.Random(trial))
        )
        assert first == second == oracle, (sys_, first, second, oracle)
    print("PASS criterion 9: counts match brute force, direction-independent")


def test_criterion_10_single_cone_vignette():
    a1, a2, b1, b2 = 5, 3, 3, 2
    assert a1 * b2 - a2 * b1 == 1
    comb = solve(system([(b2, -b1), (-a2, a1)], [">=", ">="], [0, 1]))
    assert len(comb) == 1
    only, mult = next(iter(comb.items()))
    assert mult == 1
    assert only == canonicalize(cone([(a1, a2), (b1, b2)], (b1, b2)))
    assert only.openness == (0, 0)
    print("PASS criterion 10: solver collapses to the single tight-vertex cone")
