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
    solve_rational,
)
from symcones import barvinok
from symcones.barvinok import _shortest_exchange_vector, decompose_combination
from symcones.exactmath import det
from _support import (
    assert_canonical_by_construction,
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
        w, alpha_scaled, dd = _shortest_exchange_vector(c.generators)
        assert max(abs(a) for a in alpha_scaled) < parent
        # the decomposition carries det(child_i) as alpha_scaled_i
        for i, a in enumerate(alpha_scaled):
            if a != 0:
                child = tuple(w if j == i else g for j, g in enumerate(c.generators))
                assert det(child) == a


def test_residue_fallback_when_lll_misses_the_bound(monkeypatch):
    # shifting an entry by a multiple of det(adj) = d^(n-1), a multiple of
    # d, keeps every column in the lattice but makes none of them short
    real_lll = barvinok.lll_reduce
    real_exchange = barvinok._shortest_exchange_vector
    calls = []

    def long_lll(basis):
        big = 10**6 * det(basis)
        return tuple((g[0] + big,) + g[1:] for g in real_lll(basis))

    def checked_exchange(generators):
        w, alpha_scaled, d = real_exchange(generators)
        assert 2 * max(abs(a) for a in alpha_scaled) <= abs(d)
        calls.append(d)
        return w, alpha_scaled, d

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
    w, alpha_scaled, d = _shortest_exchange_vector(gens)
    assert all(alpha_scaled)
    bits = tuple(0 if a * d > 0 else 1 for a in alpha_scaled)
    c = canonicalize(cone(gens, apex, bits))
    result = barvinok._decompose_with_direction(c, det(c.generators), w, 1)
    assert all(index(leaf) == 1 for leaf in result)
    assert any(0 in solve_rational(leaf.generators, w) for leaf in result)
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
        if abs(det(c.generators)) == 1 or 0 in _shortest_exchange_vector(c.generators)[1]:
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


@pytest.mark.parametrize("seed", [1, 5, 12, 13, 15])
def test_decomposition_is_local_to_each_cone(seed):
    # a cone's leaves depend on the cone alone: not on the other cones of
    # the combination, nor on the order in which they are visited
    comb = solve(random_system(random.Random(seed), 3, 3))
    assert sum(index(c) > 1 for c in comb) >= 2
    result = decompose_combination(comb)
    assert result == decompose_combination(ConeCombination(dict(reversed(comb.items()))))
    per_cone = ConeCombination()
    for c, mult in comb.items():
        for leaf, sign in barvinok_decompose(c).items():
            per_cone.add(leaf, mult * sign)
    assert result == per_cone
