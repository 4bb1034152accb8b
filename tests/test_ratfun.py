import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcones import (
    ConeCombination,
    canonicalize,
    cone,
    combination_to_ratfun,
    count_lattice_points,
    decompose_combination,
    enum_fundpar,
    eval_combination,
    ratfun_from_json,
    render,
    solve,
    system,
)
from symcones.cli import RunConfig, run
from symcones.exactmath import det
from symcones.ratfun import InfiniteSetError, RatFunExpr, RatFunTerm, evaluate_count
from _support import (
    decompose_along_random_directions,
    in_discrete_cone,
    lattice_points_in_box,
    random_full_dim_cone,
    random_system,
    reference_summed_laurent,
    reference_term_count,
    table_system,
)


# --- per-cone terms ----------------------------------------------------------

def _fp_term(c):
    """The fp term of one cone as given, not canonicalized: its lex-sorted
    parallelepiped points over its generators."""
    return RatFunTerm(1, tuple(sorted(enum_fundpar(c))), c.generators)


@pytest.mark.parametrize("numerator, denominator", [
    (((0, 0), (1,)), ((1, 0), (0, 1))),
    (((0, 0),), ((1, 0), (0, 1, 2))),
    ((), ((1, 0), (1,))),
])
def test_term_refuses_exponents_of_unequal_length(numerator, denominator):
    with pytest.raises(ValueError, match="exponent vectors must have equal length"):
        RatFunTerm(1, numerator, denominator)


@pytest.mark.parametrize("denominator", [((0, 0),), ((1, 0), (0, 0)), ((0,), (1,))])
def test_term_refuses_a_zero_denominator_exponent(denominator):
    numerator = ((0,) * len(denominator[0]),)
    with pytest.raises(ValueError, match="denominator exponent must be non-zero"):
        RatFunTerm(1, numerator, denominator)
    with pytest.raises(ValueError, match="needs at least one denominator factor"):
        RatFunTerm(1, numerator, ())


@pytest.mark.parametrize("mult, numerator, denominator", [
    (1.5, ((0,),), ((1,),)),  # once rendered "1.5 * 1 / ((1-z1))"
    (1, ((0.5,),), ((1,),)),  # once rendered "z1^0.5"
    (1, ((0,),), ((2.0,),)),
    (1, ((Fraction(1, 2),),), ((1,),)),
    (1, (("1",),), ((1,),)),
])
def test_term_refuses_inexact_integers(mult, numerator, denominator):
    # evaluate_count on such a term died with "both arguments should be
    # Rational instances"; construction refuses it, as cone() does
    with pytest.raises(TypeError, match="^expected an exact integer"):
        RatFunTerm(mult, numerator, denominator)


def test_term_converts_integral_fractions_and_json_refuses_a_float_exponent():
    term = RatFunTerm(Fraction(-2), ((Fraction(1), 0),), ((1, Fraction(3)),))
    assert term == RatFunTerm(-2, ((1, 0),), ((1, 3),))
    assert all(type(x) is int for x in (term.mult, *term.numerator[0], *term.denominator[0]))
    text = render(RatFunExpr((term,)), "json")
    assert ratfun_from_json(text) == RatFunExpr((term,))
    # the reader once truncated 0.5 to 0
    with pytest.raises(TypeError, match="exact integer"):
        ratfun_from_json(text.replace("[1, 0]", "[0.5, 0]"))
    # and a JSON-number mult 1.5 to 1; an integral number is taken as it is
    one = '[{"mult": %s, "num": [[0]], "den": [[1]]}]'
    with pytest.raises(TypeError, match="exact integer"):
        ratfun_from_json(one % "1.5")
    assert ratfun_from_json(one % "-2") == ratfun_from_json(one % '"-2"')


def test_json_refuses_terms_of_different_lengths():
    # the expression once read as dimension 1, and evaluate_count died in zip()
    text = ('[{"mult": "1", "num": [[0]], "den": [[1]]}, '
            '{"mult": "1", "num": [[0, 0]], "den": [[1, 0], [0, 1]]}]')
    with pytest.raises(ValueError, match=r"lengths \[1, 2\]"):
        ratfun_from_json(text)


def test_term_converts_list_containers_to_an_equal_hashable_term():
    # the containers were once kept as given: a term of lists was unequal to
    # its tuple twin, and hash() of it raised TypeError
    term = RatFunTerm(1, [[0]], [[1]])
    twin = RatFunTerm(1, ((0,),), ((1,),))
    assert term == twin and hash(term) == hash(twin)
    assert all(type(x) is tuple for x in (term.numerator, term.denominator,
                                          *term.numerator, *term.denominator))


def test_term_stores_and_renders_a_true_exponent_as_one():
    # a bool exponent was once kept as given, and JSON wrote it as true
    term = RatFunTerm(True, ((True, 0),), ((1, True),))
    assert term == RatFunTerm(1, ((1, 0),), ((1, 1),))
    assert all(type(x) is int for x in (term.mult, *term.numerator[0], *term.denominator[0]))
    expr = RatFunExpr((term,))
    assert render(expr, "json") == '[{"mult": "1", "num": [[1, 0]], "den": [[1, 1]]}]'
    assert render(expr) == "z1 / ((1-z1*z2))"
    assert render(expr, "latex") == "\\frac{z_{1}}{\\left(1 - z_{1} z_{2}\\right)}"


def test_term_fp_fig1_cone():
    term = _fp_term(canonicalize(cone([(1, 0), (1, 3)])))
    assert term.mult == 1
    assert set(term.numerator) == {(0, 0), (1, 1), (1, 2)}
    assert term.denominator == ((1, 0), (1, 3))


def test_term_fp_unimodular_translated():
    term = _fp_term(cone([(1, 0), (0, 1)], (2, 5)))
    assert term.numerator == ((2, 5),)


def test_term_fp_rational_apex():
    term = _fp_term(cone([(2, 0), (0, 1)], (Fraction(1, 2), 0)))
    assert set(term.numerator) == {(1, 0), (2, 0)}


def test_term_fp_zero_term():
    term = _fp_term(cone([(1, 1)], (Fraction(1, 2), 0)))
    assert term.is_zero


def test_term_numerator_size_is_the_index():
    rng = random.Random(15)
    for _ in range(20):
        c = random_full_dim_cone(rng, rng.randint(1, 3), 7, max_det=40,
                                 rational_apex=True, random_openness=True)
        c = canonicalize(c)
        term = _fp_term(c)
        assert len(term.numerator) == abs(det(c.generators))


def test_term_semigroup_fidelity():
    # numerator points translated by the generator semigroup tile the cone
    rng = random.Random(52)
    for _ in range(10):
        c = canonicalize(random_full_dim_cone(rng, 2, 5, max_det=12,
                                              rational_apex=True,
                                              random_openness=True))
        term = _fp_term(c)
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
    expr = combination_to_ratfun(decompose_combination(comb))
    for t in expr.terms:
        assert len(t.numerator) == 1
        assert all(is_forward(v) for v in t.denominator)


def test_unknown_method_rejected():
    # run refuses it after elimination, as it refuses an unknown subcommand
    sys_ = system([(2, 3)], [">="], [5])
    with pytest.raises(ValueError, match="^unknown conversion method: 'magic'$"):
        run(RunConfig("ratfun", method="magic"), sys_)


def test_combination_to_ratfun_takes_no_options():
    # Barvinok is a step before it, not a mode of it
    import inspect

    assert list(inspect.signature(combination_to_ratfun).parameters) == ["combination"]


@pytest.mark.parametrize("method, sys_", [
    # indices up to 324, so numerators of many points
    ("fp", random_system(random.Random(12), 3, 3)),
    ("barvinok", system([(2, 3, 5, 7, 11, 13)], ["="], [60])),
])
def test_combination_to_ratfun_builds_one_term_per_cone(monkeypatch, method, sys_):
    # every term comes from the unchecked _term, once per cone, and none
    # goes through the validating RatFunTerm constructor
    from symcones import ratfun

    built = []
    real = ratfun._term

    def counted(*args):
        built.append(real(*args))
        return built[-1]

    def refused(self):
        raise AssertionError("a package-built term went through RatFunTerm's check")

    comb = solve(sys_)
    if method == "barvinok":
        comb = decompose_combination(comb)
    monkeypatch.setattr(ratfun, "_term", counted)
    monkeypatch.setattr(RatFunTerm, "__post_init__", refused)
    expr = combination_to_ratfun(comb)
    assert len(expr.terms) > 1
    assert built == list(expr.terms)


def test_fp_flips_backward_generators_into_the_same_function():
    # fp flips a user-built cone's backward denominator factors forward, as
    # Barvinok does; each flipped term is the same rational function, so its
    # Laurent coefficients equal those of the unflipped term, under any
    # direction that avoids the denominators
    from symcones.exactmath import is_forward
    from symcones.ratfun import _pick_direction, _summed_laurent

    rng = random.Random(27)
    flipped_terms = 0
    for _ in range(20):
        d = rng.randint(1, 3)
        comb = ConeCombination()
        for _ in range(rng.randint(1, 3)):
            comb.add(random_full_dim_cone(rng, d, 3, max_det=12, rational_apex=True,
                                          random_openness=True), rng.choice((-2, -1, 1, 3)))
        raw = [(m, tuple(sorted(enum_fundpar(c))), c.generators) for c, m in comb.sorted_items()]
        expr = combination_to_ratfun(comb)
        assert len(expr) == len(raw)
        assert all(is_forward(v) for t in expr for v in t.denominator)
        lam = _pick_direction([v for _, _, dens in raw for v in dens], d)
        for t, term in zip(expr, raw):
            assert (_summed_laurent([(t.mult, t.numerator, t.denominator)], lam)
                    == _summed_laurent([term], lam))
            flipped_terms += t.denominator != term[2]
        assert (_summed_laurent([(t.mult, t.numerator, t.denominator) for t in expr], lam)
                == _summed_laurent(raw, lam))
    assert flipped_terms >= 10


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
                 combination_to_ratfun(decompose_combination(comb, 3))):
        assert ratfun_from_json(render(expr, "json")) == expr
        dens = [v for t in expr.terms for v in t.denominator]
        assert evaluate_count(expr, _pick_direction(dens, d)) == want


def test_count_eliminates_each_generator_matrix_once(monkeypatch):
    # Bareiss runs once per Barvinok tree root, and solve runs no rank test;
    # every node below a root, and every leaf's point, reads the inverse
    # pair its parent handed down
    from symcones import exactmath

    seen = []
    bareiss = exactmath._bareiss

    def counting(m, rhs=()):
        seen.append(m)
        return bareiss(m, rhs)

    monkeypatch.setattr(exactmath, "_bareiss", counting)
    for coeffs, total, want, calls in (((1, 2, 3, 4, 5), 15, 84, 5),
                                       ((2, 3, 5, 7, 11, 13), 60, 893, 6)):
        seen.clear()
        comb = solve(system([coeffs], ["="], [total]))
        assert count_lattice_points(comb) == want
        assert len(seen) == len({c.generators for c in comb}) == calls


@pytest.mark.parametrize("config, sys_, calls", [
    # 912 cones over 102 generator matrices, every one of index 1
    (RunConfig("ratfun", method="fp", fmt="json"), table_system((6, 6, 6), (6, 6, 6)), 102),
    # 96 cones over 12 generator matrices, each cone probed at 3^6 points
    (RunConfig("check", box=2), table_system((2, 4), (2, 2, 2)), 12),
])
def test_fp_and_check_invert_each_generator_matrix_once(monkeypatch, config, sys_, calls):
    # Bareiss runs once per distinct V, and solve runs no rank test: the
    # first cone of a V hands its inverse pair to the rest
    from symcones import exactmath

    seen = []
    bareiss = exactmath._bareiss

    def counting(m, rhs=()):
        seen.append(m)
        return bareiss(m, rhs)

    monkeypatch.setattr(exactmath, "_bareiss", counting)
    comb = solve(sys_)
    generators = {c.generators for c in comb}
    seen.clear()
    status, _, _ = run(config, sys_)
    assert status == 0
    assert len(seen) == len(generators) == calls
    assert len(comb) > len(generators)


def test_fp_refuses_a_cone_over_the_cap_before_listing_any(monkeypatch):
    # 28 cones of indices up to 2825761, four at 823543: the first cone over
    # the cap in sorted order is not the first cone, and listing the ones
    # before it took 13.6 s; their indices, |det V| from the inverse pairs,
    # are enough to refuse it, with the message enum_fundpar would give
    import symcones.ratfun

    sys_ = system([(3, 2, 0, -1, -2), (-3, 1, -3, 1, 0), (-1, 2, -1, 0, 2), (2, -2, 3, 2, 3)],
                  [">=", "=", "=", ">="], [0, -1, 2, 3])
    indices = [abs(det(c.generators)) for c, _ in solve(sys_).sorted_items()]
    over = [i for i, index in enumerate(indices) if index > 10**6]
    assert len(indices) == 28 and over[0] > 0 and indices[over[0]] == 2825761
    listed = []
    monkeypatch.setattr(symcones.ratfun, "enum_fundpar", listed.append)
    start = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        run(RunConfig("ratfun", method="fp"), sys_)
    assert time.perf_counter() - start < 2
    assert not listed
    assert str(refused.value) == (
        "fundamental parallelepiped has 2825761 lattice points, over the enumeration cap of "
        "1000000; use --method barvinok with --index-threshold at most 1000000")


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
        expr = combination_to_ratfun(decompose_combination(leaves))
        if not expr.terms:
            continue
        lam = _pick_direction([v for t in expr.terms for v in t.denominator], expr.dimension)
        terms = [(t.mult, t.numerator, t.denominator) for t in expr]
        want = reference_summed_laurent(terms, lam)
        assert _summed_laurent(terms, lam) == want
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
        terms = [(t.mult, t.numerator, t.denominator) for t in expr]
        assert _summed_laurent(terms, lam) == reference_summed_laurent(terms, lam)
    assert multi_point >= 20


def test_grouped_laurent_matches_reference_on_unflipped_leaves():
    # count feeds Barvinok leaves with their raw generators, backward ones
    # included: the sum must equal the per-term reference over those raw
    # terms and over the forward-flipped terms the renderer builds, at every
    # order, so counts and refusals agree between the two routes
    from symcones.exactmath import is_forward
    from symcones.ratfun import _pick_direction, _summed_laurent

    seen = {True: 0, False: 0}
    backward = 0
    for s in range(30):
        rng = random.Random(s)
        sys_ = random_system(rng, rng.randint(2, 3), rng.randint(2, 3), entry_bound=3)
        comb = solve(sys_)
        leaves = decompose_combination(comb)
        if not leaves:
            continue
        raw = [(m, enum_fundpar(c), c.generators) for c, m in leaves.items()]
        lam = _pick_direction([v for _, _, dens in raw for v in dens], leaves.ambient_dim)
        want = reference_summed_laurent(raw, lam)
        assert _summed_laurent(raw, lam) == want
        flipped = [(t.mult, t.numerator, t.denominator)
                   for t in combination_to_ratfun(leaves)]
        assert reference_summed_laurent(flipped, lam) == want
        seen[any(want[:-1])] += 1
        backward += sum(not all(map(is_forward, dens)) for _, _, dens in raw)
    assert seen[True] >= 5 and seen[False] >= 5
    assert backward > 0


def test_count_builds_no_terms(monkeypatch):
    # count folds each Barvinok leaf straight into the grouped Laurent sum:
    # no term or expression is built, no leaf sorted and no factor flipped
    from symcones import ratfun

    def refuse(*args, **kwargs):
        raise AssertionError("count took the rational-function term route")

    monkeypatch.setattr(RatFunTerm, "__post_init__", refuse)
    monkeypatch.setattr(ratfun, "_term", refuse)
    monkeypatch.setattr(RatFunExpr, "__init__", refuse)
    monkeypatch.setattr(ratfun, "combination_to_ratfun", refuse)
    monkeypatch.setattr(ratfun, "_forward_normalized", refuse)
    monkeypatch.setattr(ConeCombination, "sorted_items", refuse)
    assert count_lattice_points(solve(system([(2, 3, 5, 7, 11, 13)], ["="], [60]))) == 893
    assert count_lattice_points(solve(table_system((6, 6, 6), (6, 6, 6)))) == 406
    # the unbounded system of the CI step
    found = system([(0, -1, -1), (0, -4, 1), (4, -4, -2)], [">="] * 3, [-4, -1, -2])
    with pytest.raises(InfiniteSetError, match="infinite"):
        count_lattice_points(solve(found))


def test_count_matches_term_route_on_random_systems():
    # the term-free count against the rendered-term route of
    # ``reference_term_count``: equal counts, or both refuse an infinite set
    rng = random.Random(18)
    seen = Counter()
    for _ in range(150):
        d = rng.randint(2, 4)
        m = rng.randint(1, 3)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(m)]
        relations = [rng.choice((">=", "=")) for _ in range(m)]
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        if rng.random() < 0.5:  # a box row, so that many sets are finite
            rows.append((-1,) * d)
            relations.append(">=")
            rhs.append(-rng.randint(0, 5))
        comb = solve(system(rows, relations, rhs))
        try:
            want = reference_term_count(comb)
        except InfiniteSetError:
            with pytest.raises(InfiniteSetError):
                count_lattice_points(comb)
            seen["infinite"] += 1
        else:
            assert count_lattice_points(comb) == want
            seen["empty" if want == 0 else "finite"] += 1
    assert seen["infinite"] >= 30 and seen["finite"] >= 30


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


def test_display_formats_skip_zero_terms_and_json_keeps_them():
    # an empty numerator and mult 0 are both zero terms
    empty, zero_mult = RatFunTerm(1, (), ((1,),)), RatFunTerm(0, ((0,),), ((1,),))
    live = RatFunTerm(-1, ((2,),), ((1,),))
    assert empty.is_zero and zero_mult.is_zero
    for terms in ((empty,), (zero_mult,), (empty, zero_mult)):
        expr = RatFunExpr(terms)
        assert render(expr) == render(expr, "latex") == "0"
        assert render(expr, "latex", vector_exponents=True) == "0"
        assert ratfun_from_json(render(expr, "json")) == expr
    expr = RatFunExpr((empty, live, zero_mult))
    assert render(expr) == render(RatFunExpr((live,))) == "- z1^2 / ((1-z1))"
    assert render(expr, "latex") == "- \\frac{z_{1}^{2}}{\\left(1 - z_{1}\\right)}"
    assert ratfun_from_json(render(expr, "json")) == expr


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
