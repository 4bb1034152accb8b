import itertools
import math
import random
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcones import (
    ConeCombination,
    SymbolicCone,
    canonicalize,
    cone,
    contains,
    count_lattice_points,
    enum_fundpar,
    eval_combination,
    solve,
    system,
)
from symcones import cones
from symcones.barvinok import decompose_combination
from symcones.exactmath import det
from _support import (
    box_points,
    cramer_solve,
    gauss_rank,
    half_open_parallelepiped_points,
    in_discrete_cone,
    in_half_open_parallelepiped,
    lattice_points_in_box,
    random_full_dim_cone,
    random_system,
)

FIG8_A_POINTS = {
    (0, 0, 0), (0, 1, 5), (0, 2, 10), (-1, 3, 2), (-1, 4, 7), (-1, 5, 12),
    (-2, 6, 4), (-2, 7, 9), (-3, 8, 1), (-3, 9, 6), (-3, 10, 11),
    (-4, 11, 3), (-4, 12, 8),
}
FIG8_B_POINTS = {(-5, 13, 0), (-4, 11, 3), (-3, 8, 1), (-2, 6, 4), (-1, 3, 2)}


# --- canonical form -----------------------------------------------------------

def test_canonicalize_primitivizes():
    c = canonicalize(cone([(2, 0), (1, 3)], openness=(1, 0)))
    assert c.generators == ((1, 0), (1, 3))
    assert c.openness == (1, 0)


def test_canonicalize_sorts_with_openness():
    c = canonicalize(cone([(1, 3), (1, 0)], openness=(1, 0)))
    assert c.generators == ((1, 0), (1, 3))
    assert c.openness == (0, 1)


def test_cone_refuses_no_generators():
    # before the default apex reads a first generator
    with pytest.raises(ValueError, match="at least one generator"):
        cone([])


@pytest.mark.parametrize("gens", [
    ((1, 2), (2, 4)),  # dependent
    ((1, 0), (0, 0)),  # a zero column
    ((1, 0), (0, 1), (1, 1)),  # k > n
])
def test_construction_refuses_dependent_generators(gens):
    for build in (SymbolicCone, cone):
        with pytest.raises(ValueError, match="^generators not linearly independent$"):
            build(gens)
        with pytest.raises(ValueError, match="^generators not linearly independent$"):
            build(gens, (Fraction(1, 2), 0), (1,) * len(gens))


def test_cone_is_the_one_validating_constructor():
    assert cone is SymbolicCone
    # integral Fractions and bools are taken as the ints they equal
    want = SymbolicCone(((2, 0), (0, 1)), (Fraction(1, 2), 0), (1, 0))
    for gens, bits in ((((Fraction(4, 2), 0), (False, True)), (True, 0)),
                       ([[2, Fraction(0)], [0, 1]], [1, False])):
        c = SymbolicCone(gens, (Fraction(1, 2), 0), bits)
        assert c == want and hash(c) == hash(want)
        assert all(type(x) is int for x in (*itertools.chain(*c.generators), *c.openness))
    # the defaults: apex at the origin, every generator closed
    assert SymbolicCone([(1, 0)]) == SymbolicCone(((1, 0),), (0, 0), (0,))


def test_consumers_of_a_cone_run_no_rank_test(monkeypatch):
    # the constructor's rank test is the one a user-built cone gets
    full = cone([(1, 2, 0), (0, 3, 1), (1, 0, 5)], (Fraction(1, 2), 0, 0), (0, 1, 0))
    user = cone([(0, 3, 1), (2, 4, 0), (1, 0, 5)], openness=(1, 0, 0))
    calls = []
    real = cones.has_full_column_rank
    monkeypatch.setattr(cones, "has_full_column_rank", lambda m: calls.append(m) or real(m))
    assert canonicalize(user).generators == ((0, 3, 1), (1, 0, 5), (1, 2, 0))
    assert len(enum_fundpar(full)) == abs(det(full.generators)) == 17
    # apex + v_1 + v_2 is in; the apex is not, v_2 being open
    assert contains(full, (Fraction(3, 2), 5, 1)) and not contains(full, full.apex)
    assert calls == []
    cone([(1, 0)])  # the spy sees the constructor's test
    assert len(calls) == 1


def test_points_must_be_exact_rationals(monkeypatch):
    c = cone([(1,)], [Fraction(1, 3)])
    # the float 1/3 lies below 1/3, so a float point was once found inside
    assert Fraction(1 / 3) < Fraction(1, 3)
    assert not contains(c, (Fraction(1 / 3),))
    assert contains(c, (Fraction(1, 3),)) and contains(c, (1,))
    comb = ConeCombination({c: 1})
    for bad in (1 / 3, 0.5, Decimal(1), "1"):
        with pytest.raises(TypeError, match="point entries must be exact rationals"):
            contains(c, (bad,))
        with pytest.raises(TypeError, match="point entries must be exact rationals"):
            eval_combination(comb, (bad,))
    # checked once per call, not once per cone
    comb = solve(system([(2, 3), (1, -1)], [">=", ">="], [5, -3]))
    assert len(comb) > 1
    calls = []
    real = cones._require_exact
    monkeypatch.setattr(cones, "_require_exact", lambda *args: calls.append(args) or real(*args))
    assert eval_combination(comb, (1, 1)) == 1
    assert len(calls) == 1


def test_canonicalize_rejects_bad_columns():
    with pytest.raises(ValueError):
        canonicalize(cone([(0, 0), (1, 0)]))
    with pytest.raises(ValueError, match="not linearly independent"):
        canonicalize(cone([(1, 2), (2, 4)]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonicalize_idempotent(data):
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n))
    gens = []
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    while True:
        gens = [
            tuple(rng.randint(-7, 7) for _ in range(n)) for _ in range(k)
        ]
        if all(any(g) for g in gens):
            try:
                canonicalize(cone(gens))
                break
            except ValueError:
                continue
    bits = tuple(rng.randint(0, 1) for _ in range(k))
    c = canonicalize(cone(gens, openness=bits))
    assert canonicalize(c) == c


def test_canonicalize_is_a_normal_form():
    # scaled and permuted presentations of one cone agree field by field
    rng = random.Random(9)
    for _ in range(50):
        base = random_full_dim_cone(rng, rng.randint(1, 3), 6, max_det=400,
                                    rational_apex=True, random_openness=True)
        canonical = canonicalize(base)
        order = list(range(base.dim))
        rng.shuffle(order)
        factors = [rng.randint(1, 4) for _ in order]
        scaled = tuple(
            tuple(f * x for x in base.generators[j]) for f, j in zip(factors, order)
        )
        bits = tuple(base.openness[j] for j in order)
        assert canonicalize(cone(scaled, base.apex, bits)) == canonical


def test_canonical_flag_is_not_a_constructor_argument():
    gens, apex = ((1, 2), (2, 4)), (Fraction(0), Fraction(0))
    with pytest.raises(TypeError):
        SymbolicCone(gens, apex, (0, 0), True)
    with pytest.raises(TypeError):
        SymbolicCone(gens, apex, (0, 0), _canonical=True)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apex_forms_give_equal_cones(data):
    n = data.draw(st.integers(1, 4))
    nums = data.draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    dens = data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    scale = data.draw(st.integers(2, 6))
    gens = (tuple(1 if i == 0 else 0 for i in range(n)),)
    value = tuple(Fraction(p, q) for p, q in zip(nums, dens))
    forms = (
        value,
        # the same numbers, integers as int, as Fraction(2k, 2), or entered
        # with a common factor in numerator and denominator
        tuple(int(a) if a.denominator == 1 else a for a in value),
        tuple(Fraction(2 * int(a), 2) if a.denominator == 1 else a for a in value),
        tuple(Fraction(p * scale, q * scale) for p, q in zip(nums, dens)),
    )
    cones = [SymbolicCone(gens, apex, (0,)) for apex in forms]
    for c in cones:
        assert c == cones[0] and hash(c) == hash(cones[0])
        assert all(type(a) is int for a in c.num) and type(c.den) is int
        assert c.den > 0 and math.gcd(c.den, *c.num) == 1
        assert c.apex == value
    moved = SymbolicCone(gens, value[:-1] + (value[-1] + Fraction(1, 13),), (0,))
    assert moved != cones[0]


def test_combination_add_validates_user_built_cones():
    # a dependent cone never reaches add: its constructor refuses it, so add
    # only canonicalizes the user-built cones it is given
    with pytest.raises(ValueError, match="not linearly independent"):
        SymbolicCone(((1, 2), (2, 4)), (Fraction(0), Fraction(0)), (0, 0))
    with pytest.raises(ValueError, match="not linearly independent"):
        cone([(1, 2), (2, 4)])
    comb = ConeCombination()
    comb.add(cone([(2, 0), (0, 3)], openness=(1, 0)))
    assert list(comb) == [cone([(0, 1), (1, 0)], openness=(0, 1))]
    # so is its multiplicity, which combination_to_ratfun's unchecked terms
    # take as it is
    with pytest.raises(TypeError, match="exact integer"):
        comb.add(cone([(1, 0), (0, 1)]), 1.5)
    with pytest.raises(TypeError, match="exact integer"):
        ConeCombination({cone([(1, 0), (0, 1)]): 2.0})
    comb.add(cone([(1, 0), (0, 1)]), Fraction(4, 2))
    assert sorted(comb.values()) == [1, 2] and all(type(m) is int for m in comb.values())


# --- membership -----------------------------------------------------------------

def test_closed_ray_and_reversed_open_ray_tile_the_line():
    # [closed ray along v](x) + [open ray along -v](x) = 1 on the whole line;
    # stepping by the primitive direction visits every lattice point on it
    from symcones.exactmath import prim

    rng = random.Random(3)
    for _ in range(20):
        v = tuple(rng.randint(-5, 5) for _ in range(2))
        if not any(v):
            continue
        q = tuple(rng.randint(-3, 3) for _ in range(2))
        closed = cone([v], q, (0,))
        open_rev = cone([tuple(-x for x in v)], q, (1,))
        step = prim(v)
        for t in range(-8, 9):
            x = tuple(qi + t * si for qi, si in zip(q, step))
            assert contains(closed, x) + contains(open_rev, x) == 1


def test_contains_examples():
    c = cone([(1, 0), (1, 3)])
    assert contains(c, (2, 3)) is True
    assert contains(c, (0, 1)) is False
    ray = cone([(1, 0)], openness=(1,))
    assert contains(ray, (0, 0)) is False


def test_contains_rational_points_and_affine_hull():
    c = cone([(1, 1)], (Fraction(1, 2), Fraction(1, 2)))
    assert contains(c, (Fraction(3, 2), Fraction(3, 2)))
    assert not contains(c, (1, 0))  # off the affine hull
    # x = a (1, 0) + b (1, 3), with b > 0 required
    full = cone([(1, 0), (1, 3)], openness=(0, 1))
    assert contains(full, (Fraction(1, 2), Fraction(1, 2)))  # a = 1/3, b = 1/6
    assert contains(full, (Fraction(1, 3), 1))  # a = 0 on the closed facet
    assert not contains(full, (Fraction(1, 2), 0))  # b = 0 on the open facet
    assert not contains(full, (Fraction(-1, 2), 0))


def test_contains_matches_cramer_on_lower_dimensional_cones():
    # k < n cones, whose _facets add a pair of opposite rows per missing
    # dimension, against Cramer's rule: points q + V lam with lam on a grid
    # through 0, so closed and open facets are hit from both sides, some
    # pushed along a unit vector, which takes most of them off the hull
    rng = random.Random(2121)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        gens = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k))
        if gauss_rank(gens) < k:
            continue
        apex = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
        bits = tuple(rng.randint(0, 1) for _ in range(k))
        c = SymbolicCone(gens, apex, bits)
        for _ in range(12):
            lam = [Fraction(rng.randint(-2, 4), 2) for _ in range(k)]
            x = [a + sum(l * g[i] for l, g in zip(lam, gens)) for i, a in enumerate(apex)]
            if rng.random() < 0.3:
                x[rng.randrange(n)] += Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
            coeffs = cramer_solve(gens, tuple(a - b for a, b in zip(x, apex)))
            inside = coeffs is not None and all(
                v > 0 if bit else v >= 0 for v, bit in zip(coeffs, bits))
            assert contains(c, x) is inside, (c, x)
            seen["off hull" if coeffs is None else "inside" if inside else "outside"] += 1
            if coeffs is not None and any(v == 0 and bit for v, bit in zip(coeffs, bits)):
                seen["on an open facet"] += 1
            elif inside and 0 in coeffs:
                seen["inside on a closed facet"] += 1
    assert min(seen.values()) > 100 and len(seen) == 5, seen


def test_contains_refuses_dependent_lower_dimensional_generators():
    # refused when the cone is built, under both names, so no membership
    # test ever sees such a cone
    for gens in (((1, 2, 0), (-2, -4, 0)), ((0, 0, 0),)):
        for build in (SymbolicCone, cone):
            with pytest.raises(ValueError, match="generators not linearly independent"):
                build(gens, (0, 0, 0), (0,) * len(gens))


def test_eval_combination_basics():
    empty = ConeCombination()
    assert eval_combination(empty, (0, 0)) == 0
    comb = ConeCombination({cone([(1, 0), (0, 1)]): 1})
    assert eval_combination(comb, (2, 5)) == 1


def test_eval_combination_does_not_canonicalize_its_keys(monkeypatch):
    comb = solve(system([(2, 3), (1, -1)], [">=", ">="], [5, -3]))
    assert list(comb.values()) == [comb[c] for c in comb]
    calls = []
    monkeypatch.setattr("symcones.cones.canonicalize", lambda c: calls.append(c) or c)
    for x in box_points(2, 0, 4):
        eval_combination(comb, x)
    assert calls == []


def test_eval_combination_matches_box_oracle():
    sys_ = system([(2, 3)], [">="], [5])
    comb = solve(sys_)
    for x in box_points(2, 0, 6):
        assert eval_combination(comb, x) == (1 if 2 * x[0] + 3 * x[1] >= 5 else 0)


def test_combination_collects_and_drops_zeros():
    c = cone([(2, 0), (0, 1)])  # canonicalizes to ((1,0),(0,1))
    comb = ConeCombination()
    comb.add(c, 2)
    comb.add(cone([(1, 0), (0, 1)]), -2)
    assert len(comb) == 0
    comb.add(c, 3)
    assert comb[cone([(1, 0), (0, 1)])] == 3


def test_combination_rejects_mixed_dimensions():
    comb = ConeCombination({cone([(1, 0), (0, 1)]): 1})
    with pytest.raises(ValueError, match="mixed ambient dimensions"):
        comb.add(cone([(1,)]), 1)


def test_sorted_items_order_apexes_by_value():
    # same generators: the apex decides, by rational value, not by numerator
    gens = [(1, 0), (0, 1)]
    apexes = [(Fraction(1, 2), 0), (Fraction(2, 5), 0), (Fraction(-3, 4), 7), (1, 0)]
    comb = ConeCombination({cone(gens, a): 1 for a in apexes})
    got = [c.apex for c, _ in comb.sorted_items()]
    assert got == sorted(tuple(Fraction(x) for x in a) for a in apexes)


@pytest.mark.parametrize("combination", [
    # 138 leaves over 69 generator matrices, apex denominators 1, 2 and 4
    decompose_combination(solve(system([(1, 2, 3, 4, 5)], ["="], [15]))),
    # apex denominators 1, 13, 18 and 25
    solve(random_system(random.Random(12), 3, 3)),
    decompose_combination(solve(random_system(random.Random(12), 3, 3))),
    # denominators mixed within one V, where numerators alone misorder
    ConeCombination({
        cone(gens, apex, bits): mult
        for gens in ([(1, 0), (0, 1)], [(1, 2), (0, 1)])
        for apex, bits, mult in [
            ((Fraction(1, 2), 0), (0, 0), 1), ((Fraction(1, 2), 0), (1, 0), -2),
            ((Fraction(2, 5), 0), (0, 1), 3), ((Fraction(-3, 4), 7), (0, 0), 1),
            ((1, 0), (1, 1), -1),
        ]
    }),
], ids=["partition-15-leaves", "random12", "random12-leaves", "hand-built"])
def test_sorted_items_is_one_sort_by_sort_key(combination):
    den = math.lcm(*(c.den for c in combination))
    expected = sorted(combination.items(), key=lambda it: it[0].sort_key(den))
    assert combination.sorted_items() == expected


# --- fundamental parallelepipeds --------------------------------------------------

def test_enum_fundpar_fig1_cone():
    assert set(enum_fundpar(cone([(1, 0), (1, 3)]))) == {(0, 0), (1, 1), (1, 2)}


def test_enum_fundpar_fig8_cone_a():
    pts = enum_fundpar(canonicalize(cone([(-5, 13, 0), (1, 0, 13)])))
    assert len(pts) == 13
    assert set(pts) == FIG8_A_POINTS


def test_enum_fundpar_fig8_cone_b():
    c = canonicalize(cone([(-5, 13, 0), (0, 1, 5)], openness=(1, 0)))
    pts = enum_fundpar(c)
    assert len(pts) == 5
    assert set(pts) == FIG8_B_POINTS


def test_enum_fundpar_rational_apex():
    c = cone([(2, 0), (0, 1)], (Fraction(1, 2), 0))
    assert set(enum_fundpar(c)) == {(1, 0), (2, 0)}


def test_enum_fundpar_no_lattice_point_in_affine_hull():
    c = cone([(1, 1)], (Fraction(1, 2), 0))
    assert enum_fundpar(c) == []


def test_enum_fundpar_lower_dimensional_with_lattice_points():
    c = cone([(1, 1)], (1, 1), (0,))
    pts = enum_fundpar(c)
    assert pts == [(1, 1)]


def test_enum_fundpar_points_lie_in_parallelepiped():
    rng = random.Random(101)
    for _ in range(40):
        c = random_full_dim_cone(rng, rng.randint(1, 3), 8, max_det=60,
                                 rational_apex=True, random_openness=True)
        pts = enum_fundpar(c)
        assert len(set(pts)) == len(pts) == abs(det(c.generators))
        for p in pts:
            assert in_half_open_parallelepiped(c, p)


def test_enum_fundpar_counting_law_and_tiling():
    rng = random.Random(2024)
    for _ in range(15):
        dim = rng.randint(1, 3)
        c = random_full_dim_cone(rng, dim, 6, max_det=20,
                                 rational_apex=True, random_openness=True)
        pts = enum_fundpar(c)
        assert len(set(pts)) == abs(det(c.generators))
        # tiling: within a box, cone lattice points = parallelepiped points
        # translated by non-negative integer combinations of the generators
        lo = tuple(int(q) - 4 for q in c.apex)
        hi = tuple(int(q) + 4 for q in c.apex)
        direct = lattice_points_in_box(c, lo, hi)
        grid = itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)])
        tiled = {
            x for x in grid
            if any(in_discrete_cone(c.generators, p, x) for p in pts)
        }
        assert direct == tiled
        # disjointness: each covered point has exactly one base point
        for x in direct:
            assert sum(1 for p in pts if in_discrete_cone(c.generators, p, x)) == 1


@st.composite
def small_cones(draw):
    """The first k of the n columns of V = U S W, with S diagonal (entries
    1, 2 or 3, all 1 in about 40% of draws), U, W products of a few
    elementary integer matrices and k < n in about a third of the draws
    with n > 1. Apex q = V @ r + z with r_j of denominator at most 6,
    integral on about half the coordinates, so often on a facet of the
    parallelepiped. z is 0 for k = n; for k < n it is integral (the affine
    hull meets the lattice) or, in about half the draws, has denominators
    up to 3 (the hull often misses it)."""
    n = draw(st.integers(1, 3))
    cols = [[draw(st.sampled_from((1, 1, 1, 2, 3))) if i == j else 0 for i in range(n)]
            for j in range(n)]
    for _ in range(draw(st.integers(0, n + 1))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        f = draw(st.integers(-2, 2))
        if draw(st.booleans()):
            # column operation (W)
            if i == j:
                cols[i] = [-x for x in cols[i]]
            else:
                cols[i] = [a + f * b for a, b in zip(cols[i], cols[j])]
        elif i != j:
            # row operation (U)
            for col in cols:
                col[i] += f * col[j]
    k = n if n == 1 or draw(st.integers(0, 2)) else draw(st.integers(1, n - 1))
    gens = tuple(map(tuple, cols[:k]))
    bits = tuple(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
    r = []
    for _ in range(k):
        den = 1 if draw(st.booleans()) else draw(st.integers(1, 6))
        r.append(Fraction(draw(st.integers(-12, 12)), den))
    z = [0] * n
    if k < n:
        z = [draw(st.integers(-3, 3)) for _ in range(n)]
        if draw(st.booleans()):
            z = [Fraction(x, draw(st.integers(1, 3))) for x in z]
    apex = tuple(z[i] + sum(g[i] * x for g, x in zip(gens, r)) for i in range(n))
    return cone(gens, apex, bits)


@settings(max_examples=300, deadline=None)
@given(small_cones())
def test_enum_fundpar_matches_brute_force_scan(c):
    assert sorted(enum_fundpar(c)) == half_open_parallelepiped_points(c)


def test_enum_fundpar_index_one_examples():
    assert enum_fundpar(cone([(1,)], (0,), (0,))) == [(0,)]
    assert enum_fundpar(cone([(1,)], (0,), (1,))) == [(1,)]
    assert enum_fundpar(cone([(-1,)], (Fraction(5, 2),), (0,))) == [(2,)]
    # lower-dimensional cones of index 1 take the Smith-form route
    assert enum_fundpar(cone([(1, 1)], (0, 0))) == [(0, 0)]
    assert enum_fundpar(cone([(1, 0, 0), (0, 1, 0)], (0, 0, Fraction(1, 2)))) == []


def test_enum_fundpar_refuses_a_huge_parallelepiped_before_enumerating():
    # listing even part of the 2*10^6 points allocates megabytes; the
    # refusal reads only a 1 x 1 Smith form
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2000000 lattice points.*--method barvinok"):
            enum_fundpar(cone([(2 * 10**6,)]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


# panel draw 4 of the random-systems benchmark at scale 1: eight cones with
# Smith diagonals up to (1, 8, 8, 16) and (1, 13, 13, 13), 3726 points
DRAW4 = system([(5, -3, -1, 0), (5, 3, 5, -2), (1, -2, -1, 1)], [">="] * 3, [-4, 2, 0])


def _enum_fundpar_in_blocks(c, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "FUNDPAR_BLOCK", block)
        return enum_fundpar(c)


@settings(max_examples=100, deadline=None)
@given(small_cones())
def test_enum_fundpar_blocks_keep_the_list(c):
    expected = enum_fundpar(c)
    for block in (1, 2, 7):
        assert _enum_fundpar_in_blocks(c, block) == expected


def test_enum_fundpar_blocks_keep_the_list_on_draw4():
    combination = solve(DRAW4)
    assert sum(len(enum_fundpar(c)) for c in combination) == 3726
    for c in combination:
        expected = enum_fundpar(c)
        for block in (1, 2, 7):
            assert _enum_fundpar_in_blocks(c, block) == expected


def test_enum_fundpar_memory_stays_at_one_block():
    c = cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 200003)],
             (0, 0, 0, Fraction(1, 3)), (0, 1, 0, 0))
    tracemalloc.start()
    try:
        points = enum_fundpar(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == 200003
    # the per-point loop's peak; one bulk pass over all points would triple it
    assert peak <= 29.0 * 2**20


@pytest.mark.parametrize("sign", [1, -1])
def test_enum_fundpar_index_one_is_closed_form(monkeypatch, sign):
    def refused(m):
        raise AssertionError("an index-1 cone computed a Smith form")

    rng = random.Random(24)
    unimodular = [random_full_dim_cone(rng, rng.randint(1, 4), 2, max_det=1, rational_apex=True,
                                       random_openness=True) for _ in range(60)]
    monkeypatch.setattr(cones, "_smith", refused)
    signed = [c for c in unimodular if det(c.generators) == sign]
    assert len(signed) >= 20
    for c in signed:
        assert cones._inverse_pair(c)[1] == sign
        assert enum_fundpar(c) == half_open_parallelepiped_points(c)


def test_enum_fundpar_index_one_barvinok_leaves(monkeypatch):
    def refused(m):
        raise AssertionError("a Barvinok leaf computed a Smith form or V^-1")

    leaves = decompose_combination(solve(random_system(random.Random(1), 3, 3)))
    assert all(c._inverse is not None for c in leaves)
    assert {c._inverse[1] for c in leaves} == {1, -1}
    monkeypatch.setattr(cones, "_smith", refused)
    monkeypatch.setattr(cones, "scaled_inverse", refused)
    for c in leaves:
        assert enum_fundpar(c) == half_open_parallelepiped_points(c)
    assert count_lattice_points(solve(system([(2, 3, 5, 7, 11, 13)], ["="], [60]))) == 893


@pytest.mark.parametrize("gens", [((2, 1), (1, 4)), ((2, 4, 0),)])
def test_enum_fundpar_cap_is_on_the_point_count(monkeypatch, gens):
    # index 7 (k = n) and Smith diagonal (2,) (k < n)
    c = cone(gens)
    count = len(enum_fundpar(c))
    monkeypatch.setattr(cones, "MAX_FUNDPAR_POINTS", count)
    assert len(enum_fundpar(c)) == count
    monkeypatch.setattr(cones, "MAX_FUNDPAR_POINTS", count - 1)
    with pytest.raises(ValueError, match=f"has {count} lattice points"):
        enum_fundpar(c)


# --- box scans ---------------------------------------------------------------------

def test_lattice_points_in_box_quadrant():
    pts = lattice_points_in_box(cone([(1, 0), (0, 1)]), (0, 0), (2, 2))
    assert len(pts) == 9


def test_lattice_points_in_box_skewed_cone():
    pts = lattice_points_in_box(cone([(1, 0), (1, 3)]), (0, 0), (3, 3))
    assert pts == {
        (0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1),
        (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3),
    }


def test_lattice_points_in_empty_box():
    assert lattice_points_in_box(cone([(1, 0), (0, 1)]), (2, 2), (1, 1)) == set()
