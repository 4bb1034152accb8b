import itertools
import math
import random
from fractions import Fraction

import pytest

from symcones import (
    ConeCombination,
    barvinok_decompose,
    canonicalize,
    cone,
    contains,
    eval_combination,
    index,
    solve,
    system,
)
from symcones import barvinok
from symcones.barvinok import _shortest_exchange_vector, decompose_combination
from symcones.exactmath import det, scaled_inverse
from _support import (
    assert_canonical_by_construction,
    collect,
    cramer_solve,
    decompose_along_random_direction,
    random_full_dim_cone,
    random_system,
)


def signed_box_check(original, decomposition, lo, hi):
    grid = itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)])
    for x in grid:
        want = 1 if contains(original, x) else 0
        got = eval_combination(decomposition, x)
        assert got == want, (x, want, got)


def test_index_examples():
    assert index(cone([(1, 0), (1, 3)])) == 3
    assert index(cone([(1, 0), (1, 2)])) == 2
    assert index(cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 1


def test_index_requires_full_dimension():
    with pytest.raises(ValueError, match="full-dimensional"):
        index(cone([(1, 0, 0), (0, 1, 0)]))


def test_unimodular_cone_passes_through():
    c = canonicalize(cone([(1, 0), (1, 1)], openness=(1, 0)))
    result = barvinok_decompose(c)
    assert result == ConeCombination({c: 1})


def test_two_term_identity_for_index_two_cone():
    c = cone([(1, 0), (1, 2)])
    result = barvinok_decompose(c)
    expected = ConeCombination()
    expected.add(cone([(1, 0), (0, 1)]), 1)
    expected.add(cone([(0, 1), (1, 2)], openness=(1, 0)), -1)
    assert result == expected
    signed_box_check(c, result, (-1, -1), (6, 6))


def test_decomposition_of_index_three_cone():
    c = cone([(1, 0), (1, 3)])
    result = barvinok_decompose(c)
    assert all(index(leaf) == 1 for leaf in result)
    signed_box_check(c, result, (0, 0), (10, 10))


def test_random_exactness_and_unimodularity():
    # under the cone's own direction and under a random one of its sign pattern
    rng = random.Random(4242)
    for _ in range(20):
        d = rng.randint(2, 3)
        c = random_full_dim_cone(rng, d, 30, max_det=600,
                                 rational_apex=True, random_openness=True)
        c = canonicalize(c)
        for result in (barvinok_decompose(c), decompose_along_random_direction(c, rng)):
            for leaf, mult in result.items():
                assert index(leaf) == 1
                assert leaf.apex == c.apex
                assert_canonical_by_construction(leaf)
            lo = tuple(int(q) - 3 for q in c.apex)
            hi = tuple(int(q) + 4 for q in c.apex)
            signed_box_check(c, result, lo, hi)


def test_index_threshold_stops_early():
    c = cone([(1, 0), (11, 13)])
    result = barvinok_decompose(c, index_threshold=3)
    assert all(index(leaf) <= 3 for leaf in result)
    for leaf in result:
        assert_canonical_by_construction(leaf)
    signed_box_check(c, result, (-2, -2), (8, 8))


def test_exchange_vector_strictly_reduces_index():
    rng = random.Random(99)
    for _ in range(40):
        d = rng.randint(2, 4)
        c = random_full_dim_cone(rng, d, 25, max_det=5000)
        parent = abs(det(c.generators))
        if parent == 1:
            continue
        w, alpha_scaled = _shortest_exchange_vector(c.generators, *scaled_inverse(c.generators))
        assert max(abs(a) for a in alpha_scaled) < parent
        # the decomposition carries det(child_i) as alpha_scaled_i
        for i, a in enumerate(alpha_scaled):
            if a != 0:
                child = tuple(w if j == i else g for j, g in enumerate(c.generators))
                assert det(child) == a


def assert_inverse_pair(gens, adj, d):
    """adj = d * V^-1 with |d| = |det V|, against Bareiss on the columns."""
    want_adj, want_d = scaled_inverse(gens)
    assert d in (want_d, -want_d)
    assert adj == tuple(tuple(d // want_d * x for x in col) for col in want_adj)


def test_prim_rescales_a_leaf_pair():
    # column (2, 0) halves: d goes 2 -> 1 = -det of the sorted leaf
    [(sign, gens, rows, (adj, d))] = barvinok._tree(((2, 0), (0, 1)), 3)
    swap = ((0, 1), (1, 0))
    assert (sign, gens, rows, adj, d) == (1, swap, swap, swap, 1)
    assert_inverse_pair(gens, adj, d)


@pytest.mark.parametrize("threshold", [1, 3])
def test_carried_inverse_pairs_match_scaled_inverse(monkeypatch, threshold):
    # every exchange and every leaf reads the pair its parent handed down:
    # each must equal Bareiss's on its columns, and each leaf cone keeps it
    real_exchange = barvinok._shortest_exchange_vector
    exchanges = []
    rescaled = []  # leaves with a column that prim divides

    def checked_exchange(generators, adj, d):
        assert_inverse_pair(generators, adj, d)
        exchanges.append(d)
        w, alpha_scaled = real_exchange(generators, adj, d)
        for i, a in enumerate(alpha_scaled):
            child = generators[:i] + (w,) + generators[i + 1:]
            if 0 < abs(a) <= threshold and any(math.gcd(*g) > 1 for g in child):
                rescaled.append(child)
        return w, alpha_scaled

    monkeypatch.setattr(barvinok, "_shortest_exchange_vector", checked_exchange)
    rng = random.Random(16)
    for n in range(2, 7):
        for _ in range(4):
            c = canonicalize(random_full_dim_cone(rng, n, 4 if n < 5 else 2, max_det=300,
                                                  rational_apex=True, random_openness=True))
            # non-primitive roots: a leaf keeping a stretched column rescales
            ks = rng.choices((1, 2, 3), k=n)
            scaled = tuple(tuple(k * x for x in g) for k, g in zip(ks, c.generators))
            for gens in (c.generators, scaled):
                for _, leaf_gens, rows, (adj, d) in barvinok._tree(gens, threshold):
                    assert_inverse_pair(leaf_gens, adj, d)
                    assert rows == tuple(zip(*adj))
            for leaf in decompose_combination(ConeCombination({c: 1}), threshold):
                assert leaf._inverse is not None
                assert_inverse_pair(leaf.generators, *leaf._inverse)
    assert len(exchanges) > 100
    assert bool(rescaled) == (threshold > 1)


def test_residue_fallback_when_lll_misses_the_bound(monkeypatch):
    # shifting an entry by a multiple of det(adj) = d^(n-1), a multiple of
    # d, keeps every column in the lattice but makes none of them short
    real_lll = barvinok.lll_reduce
    real_exchange = barvinok._shortest_exchange_vector
    calls = []

    def long_lll(basis):
        big = 10**6 * det(basis)
        return tuple((g[0] + big,) + g[1:] for g in real_lll(basis))

    def checked_exchange(generators, adj, d):
        w, alpha_scaled = real_exchange(generators, adj, d)
        assert 2 * max(abs(a) for a in alpha_scaled) <= abs(d)
        calls.append(d)
        return w, alpha_scaled

    monkeypatch.setattr(barvinok, "lll_reduce", long_lll)
    monkeypatch.setattr(barvinok, "_shortest_exchange_vector", checked_exchange)
    rng = random.Random(31)
    for _ in range(12):
        c = canonicalize(random_full_dim_cone(rng, rng.randint(2, 3), 9, max_det=200,
                                              rational_apex=True, random_openness=True))
        for result in (barvinok_decompose(c), decompose_along_random_direction(c, rng)):
            assert all(index(leaf) == 1 for leaf in result)
            lo = tuple(int(q) - 3 for q in c.apex)
            hi = tuple(int(q) + 4 for q in c.apex)
            signed_box_check(c, result, lo, hi)
    assert len(calls) > 12


def decompose_along_exchange_vector(gens, apex):
    """Decompose with xi = w, the root's exchange vector. w is a generator of
    every child, so it lies on the hyperplane of each child facet that
    contains w. The root's bits are the signs of V^-1 @ w, as
    barvinok_decompose would draw them."""
    adj, d = scaled_inverse(gens)
    w, alpha_scaled = _shortest_exchange_vector(gens, adj, d)
    assert all(alpha_scaled)
    bits = tuple(0 if a * d > 0 else 1 for a in alpha_scaled)
    c = canonicalize(cone(gens, apex, bits))
    result = collect(barvinok._leaves(c, 1, barvinok._tree(c.generators, 1), w))
    assert all(index(leaf) == 1 for leaf in result)
    assert any(0 in cramer_solve(leaf.generators, w) for leaf in result)
    return c, result


@pytest.mark.parametrize("gens, apex", [
    (((1, 0), (1, 7)), (Fraction(1, 2), Fraction(-1, 3))),
    (((0, 3, 1), (1, 0, 5), (2, 1, 0)), (0, Fraction(1, 2), 0)),
])
def test_direction_on_a_child_facet_is_perturbed(gens, apex):
    c, result = decompose_along_exchange_vector(gens, apex)
    signed_box_check(c, result, (-6,) * len(apex), (8,) * len(apex))


def test_direction_on_child_facets_of_random_cones():
    rng = random.Random(3)
    checked = 0
    while checked < 12:
        c = canonicalize(random_full_dim_cone(rng, rng.randint(2, 3), 9, max_det=200,
                                              rational_apex=True))
        if abs(det(c.generators)) == 1:
            continue
        if 0 in _shortest_exchange_vector(c.generators, *scaled_inverse(c.generators))[1]:
            continue
        c, result = decompose_along_exchange_vector(c.generators, c.apex)
        lo = tuple(int(q) - 4 for q in c.apex)
        hi = tuple(int(q) + 5 for q in c.apex)
        signed_box_check(c, result, lo, hi)
        checked += 1


def test_output_size_within_envelope():
    rng = random.Random(7)
    for _ in range(10):
        d = rng.randint(2, 3)
        c = random_full_dim_cone(rng, d, 30, max_det=800)
        c = canonicalize(c)
        result = barvinok_decompose(c)
        bound = d * (math.log2(index(c)) + 1) ** (d * math.log2(d) + 1)
        assert len(result) <= bound


def test_decompose_combination_collects():
    c1 = canonicalize(cone([(1, 0), (1, 2)]))
    comb = ConeCombination({c1: 2})
    result = decompose_combination(comb)
    for x in itertools.product(range(-1, 6), repeat=2):
        assert eval_combination(result, x) == 2 * (1 if contains(c1, x) else 0)


def test_rejects_lower_dimensional_input():
    with pytest.raises(ValueError, match="full-dimensional"):
        barvinok_decompose(cone([(1, 0, 0), (0, 1, 0)]))


def test_decompose_combination_checks_the_threshold_before_any_cone():
    # an empty combination has no cone to reach a per-cone check
    for comb in (ConeCombination(), ConeCombination({cone([(1, 0), (1, 2)]): 1})):
        with pytest.raises(ValueError, match="index_threshold"):
            decompose_combination(comb, 0)


def test_decompose_combination_takes_the_threshold_as_an_exact_integer():
    # 1.5 was once compared as it was, so it acted as 1
    comb = ConeCombination({cone([(1, 0), (1, 2)]): 1})
    for threshold in (1.5, 1.0, 2.0, "1", "2"):
        with pytest.raises(TypeError, match="exact integer"):
            decompose_combination(comb, threshold)
        with pytest.raises(TypeError, match="exact integer"):
            barvinok_decompose(cone([(1, 0), (1, 2)]), threshold)
    assert decompose_combination(comb, Fraction(2)) == decompose_combination(comb, 2) == comb
    # True is the integer 1: unimodular leaves, as by default
    assert decompose_combination(comb, True) == decompose_combination(comb) != comb




def test_leaves_of_a_small_cone_are_pinned():
    # xi = (2, 1) + (5, 13) = (7, 14) lies on the inner ray (1, 2), so the
    # perturbation settles that ray. By hand: the four unimodular fans
    # between consecutive rays (2,1), (1,1), (1,2), (2,5), (5,13) tile the
    # cone, and each inner ray stays in exactly one of its two fans.
    result = barvinok_decompose(cone([(2, 1), (5, 13)]))
    expected = ConeCombination()
    expected.add(cone([(1, 1), (2, 1)], openness=(0, 1)), 1)
    expected.add(cone([(1, 1), (1, 2)]), 1)
    expected.add(cone([(1, 2), (2, 5)], openness=(0, 1)), 1)
    expected.add(cone([(2, 5), (5, 13)], openness=(0, 1)), 1)
    assert result == expected
    signed_box_check(canonicalize(cone([(2, 1), (5, 13)])), result, (-1, -1), (12, 12))


PARTITION_15 = system([(1, 2, 3, 4, 5)], ["="], [15])


@pytest.mark.parametrize("system_", [
    *(pytest.param(random_system(random.Random(seed), 3, 3), id=str(seed))
      for seed in (1, 5, 12, 13, 15)),
    # ten cones over five generator matrices, so trees are shared
    pytest.param(PARTITION_15, id="shared-V"),
])
def test_decomposition_is_local_to_each_cone(system_):
    # a cone's leaves depend on the cone alone: not on the other cones of
    # the combination, on the order in which they are visited, nor on which
    # of them share a tree
    comb = solve(system_)
    assert sum(index(c) > 1 for c in comb) >= 2
    result = decompose_combination(comb)
    assert result == decompose_combination(ConeCombination(dict(reversed(comb.items()))))
    per_cone = ConeCombination()
    for c, mult in comb.items():
        for leaf, sign in barvinok_decompose(c).items():
            per_cone.add(leaf, mult * sign)
    assert result == per_cone


@pytest.mark.parametrize("system_, cones, trees, lll_calls", [
    (system([(2, 3, 5, 7, 11, 13)], ["="], [60]), 12, 6, 807),
    (PARTITION_15, 10, 5, 66),
], ids=["knapsack-60", "partition-15"])
def test_cones_sharing_generators_share_one_tree(monkeypatch, system_, cones, trees, lll_calls):
    # each knapsack cone shares its V with one other; one tree per V halves
    # the LLL calls of one tree per cone (1614 and 132)
    calls = {"_tree": 0, "lll_reduce": 0}

    def counted(name):
        real = getattr(barvinok, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(barvinok, name, counted(name))
    comb = solve(system_)
    assert len(comb) == cones
    assert len({c.generators for c in comb}) == trees
    decompose_combination(comb)
    assert calls == {"_tree": trees, "lll_reduce": lll_calls}
