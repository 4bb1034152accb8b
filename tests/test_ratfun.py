import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcones import (
    ConeCombination,
    canonicalize,
    cone,
    combination_to_ratfun,
    cone_to_term_fp,
    count_lattice_points,
    eval_combination,
    lattice_points_in_box,
    ratfun_from_json,
    render,
    solve,
    system,
)
from symcones.exactmath import det
from symcones.ratfun import InfiniteSetError, RatFunExpr, RatFunTerm, evaluate_count
from _support import (
    decompose_along_random_directions,
    in_discrete_cone,
    random_full_dim_cone,
    random_system,
    reference_summed_laurent,
)


# --- per-cone terms ----------------------------------------------------------

def test_term_fp_fig1_cone():
    term = cone_to_term_fp(canonicalize(cone([(1, 0), (1, 3)])))
    assert term.mult == 1
    assert set(term.numerator) == {(0, 0), (1, 1), (1, 2)}
    assert term.denominator == ((1, 0), (1, 3))


def test_term_fp_unimodular_translated():
    term = cone_to_term_fp(cone([(1, 0), (0, 1)], (2, 5)))
    assert term.numerator == ((2, 5),)


def test_term_fp_rational_apex():
    term = cone_to_term_fp(cone([(2, 0), (0, 1)], (Fraction(1, 2), 0)))
    assert set(term.numerator) == {(1, 0), (2, 0)}


def test_term_fp_zero_term():
    term = cone_to_term_fp(cone([(1, 1)], (Fraction(1, 2), 0)))
    assert term.is_zero


def test_term_numerator_size_is_the_index():
    rng = random.Random(15)
    for _ in range(20):
        c = random_full_dim_cone(rng, rng.randint(1, 3), 7, max_det=40,
                                 rational_apex=True, random_openness=True)
        c = canonicalize(c)
        term = cone_to_term_fp(c)
        assert len(term.numerator) == abs(det(c.generators))


def test_term_semigroup_fidelity():
    # numerator points translated by the generator semigroup tile the cone
    rng = random.Random(52)
    for _ in range(10):
        c = canonicalize(random_full_dim_cone(rng, 2, 5, max_det=12,
                                              rational_apex=True,
                                              random_openness=True))
        term = cone_to_term_fp(c)
        lo = tuple(int(q) - 4 for q in c.apex)
        hi = tuple(int(q) + 4 for q in c.apex)
        expected = lattice_points_in_box(c, lo, hi)
        grid = itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)])
        tiled = {
            x for x in grid
            if any(in_discrete_cone(term.denominator, u, x) for u in term.numerator)
        }
        assert tiled == expected


# --- combinations to expressions ------------------------------------------------

def test_empty_combination_gives_empty_expression():
    assert combination_to_ratfun(ConeCombination()).terms == ()


def test_multiplicity_passes_through():
    comb = ConeCombination({canonicalize(cone([(1, 0), (1, 3)])): 2})
    expr = combination_to_ratfun(comb)
    assert len(expr) == 1 and expr.terms[0].mult == 2


def test_fp_expression_of_equality_system():
    comb = solve(system([(1, 1)], ["="], [100]))
    expr = combination_to_ratfun(comb)
    max_index = max(abs(det(c.generators)) for c in comb)
    assert sum(len(t.numerator) for t in expr.terms) <= len(comb) * max_index
    # per-term semigroup sums reproduce the indicator from the combination;
    # step 5 puts solutions of x1 + x2 = 100 on the grid
    wants = []
    for x in itertools.product(range(0, 110, 5), repeat=2):
        want = eval_combination(comb, x)
        got = sum(
            t.mult
            for t in expr.terms
            for u in t.numerator
            if in_discrete_cone(t.denominator, u, x)
        )
        assert got == want
        wants.append(want)
    assert 1 in wants


def test_barvinok_expression_denominators_forward_and_single_monomial():
    from symcones.exactmath import is_forward

    comb = solve(system([(2, 3)], [">="], [5]))
    expr = combination_to_ratfun(comb, "barvinok")
    for t in expr.terms:
        assert len(t.numerator) == 1
        assert all(is_forward(v) for v in t.denominator)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown conversion method"):
        combination_to_ratfun(ConeCombination(), "magic")


# --- counting ---------------------------------------------------------------------

def test_count_equality_line():
    comb = solve(system([(1, 1)], ["="], [100]))
    assert count_lattice_points(comb) == 101


def test_count_single_point():
    comb = solve(system([(-1,)], [">="], [0]))
    assert count_lattice_points(comb) == 1


def test_count_partitions_of_ten():
    comb = solve(system([(1, 2, 3)], ["="], [10]))
    oracle = sum(
        1
        for x in itertools.product(range(11), repeat=3)
        if x[0] + 2 * x[1] + 3 * x[2] == 10
    )
    assert oracle == 14
    assert count_lattice_points(comb) == 14


def test_count_empty_set():
    comb = solve(system([(1,), (-1,)], [">=", ">="], [1, 0]))
    assert count_lattice_points(comb) == 0


def test_count_direction_independent():
    rng = random.Random(0)
    for _ in range(8):
        target = rng.randint(3, 25)
        weights = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        comb = solve(system([weights], ["="], [target]))
        first = count_lattice_points(comb)
        for seed in (101, 999):
            leaves = decompose_along_random_directions(comb, random.Random(seed))
            assert count_lattice_points(leaves) == first
        oracle = sum(
            1
            for x in itertools.product(range(target + 1), repeat=len(weights))
            if sum(w * v for w, v in zip(weights, x)) == target
        )
        assert first == oracle


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_count_agrees_between_fp_and_unimodular_routes(data):
    # the constant Laurent coefficient is route-independent: the unimodular
    # count under the cones' own and two random directions, the raw
    # parallelepiped expression and a Barvinok expression at index
    # threshold 3 all match a box scan
    from symcones.ratfun import _pick_direction

    d = data.draw(st.integers(1, 3))
    cap = data.draw(st.integers(0, 6))
    entry = st.integers(-4, 4)
    extra = data.draw(st.lists(st.tuples(*[entry] * d), min_size=1, max_size=3))
    sys_ = system(
        [(-1,) * d, *extra],
        [">=", *(data.draw(st.sampled_from([">=", "="])) for _ in extra)],
        [-cap, *(data.draw(entry) for _ in extra)],
    )
    want = sum(1 for x in itertools.product(range(cap + 1), repeat=d) if sys_.satisfies(x))
    comb = solve(sys_)
    assert count_lattice_points(comb) == want
    for seed in (0, 1):
        leaves = decompose_along_random_directions(comb, random.Random(seed))
        assert count_lattice_points(leaves) == want
    for expr in (combination_to_ratfun(comb),
                 combination_to_ratfun(comb, "barvinok", index_threshold=3)):
        assert ratfun_from_json(render(expr, "json")) == expr
        dens = [v for t in expr.terms for v in t.denominator]
        assert evaluate_count(expr, _pick_direction(dens, d)) == want


def test_count_eliminates_each_generator_matrix_once(monkeypatch):
    # every V^-1 question about a cone reads exactmath.inverse, so a count
    # runs at most one Bareiss elimination per distinct matrix
    from symcones import exactmath

    seen = []
    bareiss = exactmath._bareiss

    def counting(m, rhs=()):
        seen.append(m)
        return bareiss(m, rhs)

    monkeypatch.setattr(exactmath, "_bareiss", counting)
    exactmath.inverse.cache_clear()
    comb = solve(system([(1, 2, 3, 4, 5)], ["="], [15]))
    assert count_lattice_points(comb) == 84
    assert seen and len(seen) == len(set(seen))


def test_evaluate_count_rejects_orthogonal_direction():
    term = RatFunTerm(1, ((0, 0),), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="orthogonal"):
        evaluate_count(RatFunExpr((term,)), (0, 1))


def test_evaluate_count_flags_non_integer_totals():
    # 2/(1-z^2) - 1/(1-z) = 1/(1+z): the poles cancel, so the principal part
    # vanishes, but the value at z = 1 is 1/2
    expr = RatFunExpr((RatFunTerm(2, ((0,),), ((2,),)), RatFunTerm(-1, ((0,),), ((1,),))))
    with pytest.raises(RuntimeError, match="evaluation inconsistency"):
        evaluate_count(expr, (1,))


def test_evaluate_count_refuses_infinite_sets():
    # a lone half-line: 1/(1-e^t) = -1/t + 1/2 + ..., a non-zero principal part
    expr = RatFunExpr((RatFunTerm(1, ((0,),), ((1,),)),))
    with pytest.raises(InfiniteSetError, match="infinite"):
        evaluate_count(expr, (1,))
    # the quadrant: 1/((1-z1)(1-z2)) has a double pole
    expr = RatFunExpr((RatFunTerm(1, ((0, 0),), ((1, 0), (0, 1))),))
    with pytest.raises(InfiniteSetError, match="infinite"):
        evaluate_count(expr, (1, 2))


def test_grouped_laurent_matches_per_term_reference():
    # the grouped evaluation must give the summed per-term Laurent vector,
    # principal part included, on bounded and unbounded Barvinok expressions
    from symcones.ratfun import _pick_direction, _summed_laurent

    seen = {True: 0, False: 0}
    shared = 0
    for s in range(30):
        rng = random.Random(s)
        sys_ = random_system(rng, rng.randint(2, 3), rng.randint(2, 3), entry_bound=3)
        leaves = decompose_along_random_directions(solve(sys_), random.Random(s))
        expr = combination_to_ratfun(leaves, "barvinok")
        if not expr.terms:
            continue
        lam = _pick_direction([v for t in expr.terms for v in t.denominator], expr.dimension)
        want = reference_summed_laurent(expr, lam)
        assert _summed_laurent(expr, lam) == want
        seen[any(want[:-1])] += 1
        shared += len(expr) - len({tuple(sorted(t.denominator)) for t in expr.terms})
    assert seen[True] >= 5 and seen[False] >= 5
    assert shared > 0


def test_grouped_laurent_matches_reference_on_fp_expressions():
    # multi-point numerators, repeated denominator sets and terms with
    # fewer denominator factors than the ambient dimension
    from symcones.ratfun import _pick_direction, _summed_laurent

    rng = random.Random(3)
    multi_point = 0
    for _ in range(40):
        d = rng.randint(2, 3)
        comb = ConeCombination()
        for _ in range(rng.randint(1, 4)):
            c = canonicalize(random_full_dim_cone(rng, d, 3, max_det=8, rational_apex=True,
                                                  random_openness=True))
            comb.add(c, rng.choice((-2, -1, 1, 3)))
            # the same generators at another apex: a repeated denominator set
            comb.add(cone(c.generators, tuple(a + 1 for a in c.apex), c.openness), 1)
        ray = tuple(rng.randint(-3, 3) for _ in range(d - 1)) + (1,)
        comb.add(cone([ray], (0,) * d), rng.choice((-1, 1)))
        expr = combination_to_ratfun(comb)
        multi_point += any(len(t.numerator) > 1 for t in expr.terms)
        lam = _pick_direction([v for t in expr.terms for v in t.denominator], d)
        assert _summed_laurent(expr, lam) == reference_summed_laurent(expr, lam)
    assert multi_point >= 20


def test_pick_direction_is_positive_and_avoids_denominators():
    from symcones.ratfun import _pick_direction

    rng = random.Random(5)
    for _ in range(200):
        d = rng.randint(1, 5)
        dens = [
            tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(rng.randint(1, 12))
        ]
        dens = [v for v in dens if any(v)]
        lam = _pick_direction(dens, d)
        assert len(lam) == d and all(x > 0 for x in lam)
        assert all(sum(a * b for a, b in zip(lam, v)) != 0 for v in dens)


def test_count_refuses_unbounded_systems():
    # x1 is unbounded here; this system used to count as 14
    found = system([(0, -1, -1), (0, -4, 1), (4, -4, -2)], [">="] * 3, [-4, -1, -2])
    with pytest.raises(ValueError, match="infinite"):
        count_lattice_points(solve(found))
    # random d = 2 systems against a box scan: with entries in [-3, 3] and
    # right-hand sides in [-4, 4] every vertex lies in [0, 24]^2, so a
    # solution outside [0, 30]^2 means a recession direction, and a bounded
    # set lies inside that box
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(60):
        m = rng.randint(1, 3)
        rows = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(m)]
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        sys_ = system(rows, [">="] * m, rhs)
        inside = sum(1 for x in itertools.product(range(31), repeat=2) if sys_.satisfies(x))
        unbounded = any(
            sys_.satisfies(x) for x in itertools.product(range(61), repeat=2) if max(x) > 30
        )
        seen[unbounded] += 1
        comb = solve(sys_)
        if unbounded:
            with pytest.raises(ValueError, match="infinite"):
                count_lattice_points(comb)
        else:
            assert count_lattice_points(comb) == inside
    assert seen[True] >= 10 and seen[False] >= 10


# --- rendering --------------------------------------------------------------------

def test_render_plain_single_term():
    expr = RatFunExpr((RatFunTerm(1, ((0, 0),), ((1, 0), (1, 3))),))
    assert render(expr) == "1 / ((1-z1)*(1-z1*z2^3))"


def test_render_plain_negative_and_multiple():
    term1 = RatFunTerm(-1, ((1, 2),), ((1, 0),))
    term2 = RatFunTerm(3, ((0, 0), (1, 1)), ((0, 1),))
    expr = RatFunExpr((term1, term2))
    assert render(expr) == "- z1*z2^2 / ((1-z1)) + 3 * (1 + z1*z2) / ((1-z2))"


def test_render_plain_empty():
    assert render(RatFunExpr(())) == "0"


def test_render_latex_forms():
    expr = RatFunExpr((RatFunTerm(1, ((2, 0),), ((1, 3),)),))
    assert render(expr, "latex") == "\\frac{z_{1}^{2}}{\\left(1 - z_{1} z_{2}^{3}\\right)}"
    assert (
        render(expr, "latex", vector_exponents=True)
        == "\\frac{z^{(2,0)}}{\\left(1 - z^{(1,3)}\\right)}"
    )


def test_render_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        render(RatFunExpr(()), "yaml")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_json_round_trip(data):
    dim = data.draw(st.integers(1, 3))
    n_terms = data.draw(st.integers(0, 3))
    vec = st.tuples(*[st.integers(-20, 20)] * dim)
    terms = []
    for _ in range(n_terms):
        mult = data.draw(st.integers(-10**12, 10**12).filter(lambda m: m != 0))
        nums = tuple(data.draw(vec) for _ in range(data.draw(st.integers(0, 3))))
        dens = tuple(
            data.draw(vec.filter(lambda v: any(v)))
            for _ in range(data.draw(st.integers(1, 3)))
        )
        terms.append(RatFunTerm(mult, nums, dens))
    expr = RatFunExpr(tuple(terms))
    assert ratfun_from_json(render(expr, "json")) == expr
