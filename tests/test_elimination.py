import itertools
import math
import operator
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from symcones import (
    ConeCombination,
    LDSystem,
    Relation,
    SymbolicCone,
    canonicalize,
    cone,
    contains,
    count_lattice_points,
    eliminate,
    eliminate_last_coordinate,
    eval_combination,
    macmahon_lift,
    solve,
    system,
)
from symcones.cli import RunConfig, run
from symcones.elimination import elimination_rounds, expand_equalities, solve_rounds
from symcones.exactmath import identity, is_forward, mat_vec, prim
from _support import (
    assert_canonical_by_construction,
    box_points,
    cramer_solve,
    gauss_rank,
    random_system,
    reference_elimination_apexes,
    reference_eliminate,
    reference_elimination_step,
    reference_plan,
    reference_rounds,
    table_system,
)


# --- lifting ---------------------------------------------------------------------

def test_macmahon_lift_single_inequality():
    c = macmahon_lift([(2, 3)], (5,))
    # unit vectors listed last first, which is lex order
    assert c.generators == ((0, 1, 3), (1, 0, 2))
    assert c.apex == (0, 0, -5)
    assert c.openness == (0, 0)
    assert canonicalize(c) is c


def test_macmahon_lift_identity_system():
    c = macmahon_lift([(1, 0), (0, 1)], (0, 0))
    assert c.generators == ((0, 1, 0, 1), (1, 0, 1, 0))
    assert c.apex == (0, 0, 0, 0)
    assert canonicalize(c) is c


def test_macmahon_lift_is_forward_and_unimodular():
    c = macmahon_lift([(1, 1)], (100,))
    assert c.generators == ((0, 1, 1), (1, 0, 1))
    assert c.apex == (0, 0, -100)
    assert canonicalize(c) is c
    assert all(is_forward(g) for g in c.generators)
    # unimodular: the projection onto the first d coordinates is the identity, columns reversed
    from symcones.exactmath import snf

    assert snf(c.generators).diagonal() == (1, 1)


def test_macmahon_lift_is_the_canonical_unit_vector_cone():
    # the lift as built equals the canonical form of the cone on the
    # columns e_j + A_j in unit-vector order
    rng = random.Random(25)
    seen = Counter()
    for _ in range(50):
        base = random_system(rng, rng.randint(1, 4), rng.randint(1, 3))
        relations = tuple(rng.choice(list(Relation)) for _ in base.rows)
        rows, rhs = expand_equalities(LDSystem(base.rows, relations, base.rhs))
        d = base.num_variables
        old = cone([tuple(int(i == j) for i in range(d)) + tuple(r[j] for r in rows)
                    for j in range(d)], (0,) * d + tuple(-b for b in rhs))
        lifted = macmahon_lift(rows, rhs)
        assert lifted == canonicalize(old) and hash(lifted) == hash(canonicalize(old))
        assert canonicalize(lifted) is lifted
        seen.update(relations)
    assert min(seen[Relation.EQ], seen[Relation.GEQ]) > 20, seen


def test_macmahon_lift_refuses_no_rows():
    # before the dimension is read off a first row
    with pytest.raises(ValueError, match="at least one constraint"):
        macmahon_lift([], [])
    # the lift checks its rows by building an LDSystem, which refuses d = 0
    with pytest.raises(ValueError, match="system needs at least one variable"):
        macmahon_lift([()], [0])


@pytest.mark.parametrize("rows, rhs", [
    ([], []),  # no rows
    ([()], [0]),  # no variables
    ([(1, 2), (3,)], [0, 0]),  # ragged rows
    ([(1, 2)], [0, 0]),  # too many right-hand sides
    ([(1, 2), (3, 4)], [0]),  # too few
])
def test_macmahon_lift_and_ldsystem_refuse_malformed_shapes_alike(rows, rhs):
    # the lift validates through LDSystem, so both raise the same error
    errors = []
    for build in (macmahon_lift, lambda r, b: LDSystem(r, [">="] * len(r), b)):
        with pytest.raises(ValueError) as info:
            build(rows, rhs)
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]


def test_entry_points_refuse_inexact_integers():
    # 1.5 and 2.7 were once truncated, so x1 + x2 = 2 was solved instead
    # and 3 solutions were counted where there are none
    for rows, rhs in (([(1.5, 1)], [2.7]), ([(1.5, 1)], [2]), ([(1, 1)], [2.0]),
                      ([(Fraction(3, 2), 1)], [2]), ([("1", 1)], [2])):
        with pytest.raises(TypeError, match="^expected an exact integer"):
            system(rows, ["="], rhs)
        with pytest.raises(TypeError, match="^expected an exact integer"):
            macmahon_lift(rows, rhs)
    with pytest.raises(TypeError, match="exact integer"):
        cone([(1.9, 0), (0, 1)], openness=[0, 1])
    with pytest.raises(TypeError, match="exact integer"):
        cone([(1, 0), (0, 1)], openness=[0.6, 1])
    # a float bit of 1.0 once reached the solve JSON as "open": [0, 1.0]
    with pytest.raises(TypeError, match="exact integer"):
        SymbolicCone(((1, 0), (0, 1)), (0, 0), (1.0, 0))
    with pytest.raises(TypeError, match="exact integer"):
        LDSystem(((1.5, 1),), (Relation.EQ,), (2,))
    # system is LDSystem, the one constructor: integer inputs, integral
    # Fractions and bools among them, are converted, and a bare "=" becomes
    # Relation.EQ, so satisfies reads it as an equation
    assert system is LDSystem
    sys_ = system([(Fraction(2, 2), True)], ["="], [Fraction(4, 2)])
    assert sys_ == LDSystem([(1, True)], ["="], [Fraction(4, 2)])
    assert sys_ == LDSystem(((1, 1),), (Relation.EQ,), (2,))
    assert all(type(x) is int for x in (*sys_.rows[0], *sys_.rhs))
    assert count_lattice_points(solve(sys_)) == 3
    assert macmahon_lift([(Fraction(3), 1)], [True]) == macmahon_lift([(3, 1)], [1])
    assert (cone([(Fraction(2), 0), (0, 1)], openness=[True, 0])
            == cone([(2, 0), (0, 1)], openness=[1, 0]))


def test_solve_checks_a_built_system_once(monkeypatch):
    # solve_rounds runs the rows the system's constructor already checked,
    # so solving a built system constructs no second LDSystem; the public
    # macmahon_lift keeps its check
    sys_ = table_system((2, 4), (3, 2, 1))
    want = solve(sys_)

    def refused(self):
        raise AssertionError("an LDSystem was built")

    monkeypatch.setattr(LDSystem, "__post_init__", refused)
    assert solve(sys_) == want and len(want) > 1
    with pytest.raises(AssertionError, match="LDSystem was built"):
        macmahon_lift(*expand_equalities(sys_))


# --- one elimination round ----------------------------------------------------------

def test_eliminate_last_coordinate_first_omega_rule():
    c = canonicalize(cone([(1, 0, 1), (0, 1, -3)]))
    result = eliminate_last_coordinate(c)
    expected = ConeCombination()
    expected.add(cone([(1, 0), (0, 1)]), 1)
    expected.add(cone([(0, 1), (3, 1)], openness=(1, 0)), -1)
    assert result == expected
    # the signed combination is indicator-equal to the closed cone on (1,0),(3,1)
    target = cone([(1, 0), (3, 1)])
    for x in box_points(2, 0, 10):
        assert eval_combination(result, x) == (1 if contains(target, x) else 0)


def test_eliminate_last_coordinate_apex_below():
    c = canonicalize(cone([(1, 0, 1), (0, 1, 1)], (0, 0, -2)))
    result = eliminate_last_coordinate(c)
    assert len(result) == 2
    for x in box_points(2, 0, 5):
        want = 1 if x[0] + x[1] >= 2 else 0
        assert eval_combination(result, x) == want


def test_eliminate_last_coordinate_empty_branch():
    c = cone([(1, 0, -1)], (0, 0, -1))
    assert len(eliminate_last_coordinate(c)) == 0


def test_projected_apex_is_in_lowest_terms():
    # the common denominator 6 of (1/2, 1/3) comes partly from the dropped
    # coordinate, so the projected apex 1/2 must be reduced again
    c = canonicalize(cone([(1, 1)], (Fraction(1, 2), Fraction(1, 3))))
    out = eliminate_last_coordinate(c)
    assert [c2.apex for c2 in out] == [(Fraction(1, 2),)]
    for c2 in out:
        assert_canonical_by_construction(c2)


def test_eliminate_zero_rounds():
    c = canonicalize(macmahon_lift([(2, 3)], (5,)))
    result = eliminate(c, 0)
    assert result == ConeCombination({c: 1})


def test_elimination_refuses_a_round_count_out_of_range():
    c = macmahon_lift([(1, 2)], [3])  # k = 2 generators in R^3: 0 or 1 rounds
    # -1 rounds once returned the input, and 5 reported "the first -2 rows"
    dependent = ": 2 generators are not linearly independent on fewer than 2 rows"
    for rounds, why in ((-1, ""), (2, dependent), (5, dependent)):
        message = re.escape(f"rounds must lie in 0..1, got {rounds}{why}") + "$"
        with pytest.raises(ValueError, match=message):
            eliminate(c, rounds)
    with pytest.raises(TypeError, match="exact integer"):
        eliminate(c, 1.5)
    assert eliminate(c, True) == eliminate(c, Fraction(1)) == eliminate(c, 1)


def test_eliminate_single_inequality_box_oracle():
    comb = eliminate(macmahon_lift([(2, 3)], (5,)), 1)
    for x in box_points(2, 0, 8):
        assert eval_combination(comb, x) == (1 if 2 * x[0] + 3 * x[1] >= 5 else 0)


def test_eliminate_intro_inequality_box_oracle():
    comb = eliminate(macmahon_lift([(2, 3, -5)], (4,)), 1)
    for x in box_points(3, 0, 6):
        want = 1 if 2 * x[0] + 3 * x[1] - 5 * x[2] >= 4 else 0
        assert eval_combination(comb, x) == want


# --- full solve -----------------------------------------------------------------------

def test_solve_equality_line_segment():
    comb = solve(system([(1, 1)], ["="], [100]))
    count = 0
    for x in box_points(2, 0, 101):
        value = eval_combination(comb, x)
        want = 1 if x[0] + x[1] == 100 else 0
        assert value == want
        count += value
    assert count == 101


def test_solve_infeasible_system():
    comb = solve(system([(1,), (-1,)], [">=", ">="], [1, 0]))
    for x in range(11):
        assert eval_combination(comb, (x,)) == 0


def test_solve_mixed_relations():
    comb = solve(system([(1, 2), (1, 0)], ["=", ">="], [6, 1]))
    for x in box_points(2, 0, 8):
        want = 1 if x[0] + 2 * x[1] == 6 and x[0] >= 1 else 0
        assert eval_combination(comb, x) == want


def test_solve_collapses_to_single_vertex_cone():
    # two tight constraints whose solution set is one translated simplicial cone
    a1, a2, b1, b2 = 5, 3, 3, 2
    sys_ = system([(b2, -b1), (-a2, a1)], [">=", ">="], [0, 1])
    comb = solve(sys_)
    assert len(comb) == 1
    only, mult = next(iter(comb.items()))
    assert mult == 1
    assert only == canonicalize(cone([(a1, a2), (b1, b2)], (b1, b2)))


def test_expand_equalities_preserves_order():
    sys_ = system([(1, 1), (1, -1)], ["=", ">="], [4, 0])
    rows, rhs = expand_equalities(sys_)
    assert rows == ((1, 1), (-1, -1), (1, -1))
    assert rhs == (4, -4, 0)


def test_satisfies_oracle():
    sys_ = system([(1, 1), (2, -1)], [">=", "="], [3, 0])
    assert sys_.satisfies((1, 2))
    assert not sys_.satisfies((2, 2))
    assert not sys_.satisfies((-1, 5))
    # a point of the wrong length was once zipped short against each row
    sys_ = system([(1, 1)], ["="], [2])
    for point in ((2,), (1, 1, 5), (-1,)):
        with pytest.raises(ValueError, match="^point has wrong dimension$"):
            sys_.satisfies(point)


# --- structural invariants ---------------------------------------------------------

def test_intermediate_cones_are_forward_primitive_with_d_generators():
    rng = random.Random(88)
    for _ in range(25):
        d = rng.randint(1, 3)
        m = rng.randint(1, 4)
        sys_ = random_system(rng, d, m)
        rows, rhs = expand_equalities(sys_)
        lift = macmahon_lift(rows, rhs)
        for i, step in enumerate(elimination_rounds(lift, len(rows)), start=1):
            assert len(step) <= math.comb(d + i, d)
            for c in step:
                assert c.dim == d
                for g in c.generators:
                    assert is_forward(g)
                    assert prim(g) == g


def test_projection_is_injective_on_intermediate_cones():
    # sample points of each intermediate cone; dropping the last coordinate
    # must be reversible inside the affine hull
    rng = random.Random(11)
    sys_ = random_system(rng, 2, 3)
    rows, rhs = expand_equalities(sys_)
    lift = macmahon_lift(rows, rhs)
    rounds = [ConeCombination({canonicalize(lift): 1})]
    rounds += list(elimination_rounds(lift, len(rows)))
    for step in rounds[:-1]:  # last round is full-dimensional, nothing to project
        for c in step:
            n = c.ambient_dim
            projected = tuple(g[:-1] for g in c.generators)
            for _ in range(50):
                lam = tuple(
                    Fraction(rng.randint(0, 12), rng.randint(1, 4))
                    for _ in range(c.dim)
                )
                x = tuple(a + b for a, b in zip(c.apex, mat_vec(c.generators, lam)))
                back = cramer_solve(projected, tuple(a - b for a, b in zip(x[:-1], c.apex[:-1])))
                assert back is not None
                lifted = tuple(a + b for a, b in zip(c.apex, mat_vec(c.generators, back)))
                assert lifted == x


def test_trace_counts_and_bits():
    sys_ = system([(2, 3), (1, -1)], [">=", ">="], [5, 0])
    status, output, lines = run(RunConfig("solve", verbose=True), sys_)
    assert (status, output, []) == run(RunConfig("solve"), sys_)
    line_re = re.compile(
        r"iteration (\d+): (\d+) cones \(bound (\d+)\), max generator entry (\d+) bits"
    )
    rows = [tuple(map(int, line_re.fullmatch(line).groups())) for line in lines]
    assert [r[0] for r in rows] == [1, 2]
    assert rows[-1][1] == len(solve(sys_))
    assert all(bound == math.comb(2 + i, 2) for i, _, bound, _ in rows)
    assert all(bits >= 1 for *_, bits in rows)


def test_solve_and_verbose_walk_the_same_rounds():
    # one round per row after expanding the equation, the last one solve's;
    # the CLI prints one --verbose line per round
    sys_ = system([(1, 2, 3), (1, -1, 0)], ["=", ">="], [6, 0])
    rounds = list(solve_rounds(sys_))
    assert len(rounds) == len(expand_equalities(sys_)[0]) == 3
    assert rounds[-1] == solve(sys_)
    _, _, lines = run(RunConfig("count", verbose=True), sys_)
    assert [line.split(":")[0] for line in lines] == ["iteration 1", "iteration 2", "iteration 3"]
    assert [int(line.split()[2]) for line in lines] == [len(r) for r in rounds]


def test_lawrence_varchenko_exactness_small_sample():
    rng = random.Random(1234)
    for _ in range(30):
        d = rng.randint(1, 3)
        m = rng.randint(1, 4)
        sys_ = random_system(rng, d, m)
        comb = solve(sys_)
        for c in comb:
            assert_canonical_by_construction(c)
        for x in box_points(d, 0, 5):
            assert eval_combination(comb, x) == (1 if sys_.satisfies(x) else 0)


@pytest.mark.parametrize(
    "row_sums, col_sums",
    [((2, 4), (2, 2, 2)), ((3, 3), (1, 2, 3)), ((1, 2, 3), (2, 2, 2))],
)
def test_table_solutions_are_canonical_by_construction(row_sums, col_sums):
    comb = solve(table_system(row_sums, col_sums))
    assert len(comb) > 0
    for c in comb:
        assert_canonical_by_construction(c)


def test_eliminate_last_coordinate_rejects_dependent_projection():
    # e_3 lies in the span, so dropping x_3 is not injective on the cone
    c = SymbolicCone(((1, 0, 0), (1, 0, 1)), (Fraction(0),) * 3, (0, 0))
    with pytest.raises(ValueError, match="not linearly independent"):
        eliminate_last_coordinate(c)


def test_vertex_apexes_match_fraction_recomputation():
    # every round of random lifted systems, apexes rechecked with Fractions
    rng = random.Random(8)
    rational = 0
    for _ in range(25):
        sys_ = random_system(rng, rng.randint(2, 3), rng.randint(2, 3))
        rows, rhs = expand_equalities(sys_)
        current = [canonicalize(macmahon_lift(rows, rhs))]
        for _ in range(len(rows)):
            collected = ConeCombination()
            for c in current:
                out = eliminate_last_coordinate(c)
                want = reference_elimination_apexes(c)
                got = [c2.apex for c2 in out]
                assert set(got) <= set(want)
                if len(got) == len(want):
                    assert sorted(got) == sorted(want)
                for c2, mult in out.items():
                    assert_canonical_by_construction(c2)
                    rational += c2.den > 1
                    collected.add(c2, mult)
            current = list(collected)
    assert rational > 0


def test_solve_runs_one_rank_test(monkeypatch):
    # the bench 3x3 table: eliminate runs one test on the lift, and solve
    # none, as its rows pass it by construction; none per round and none
    # in canonicalize
    import symcones.cones
    import symcones.elimination

    calls = []
    for module in (symcones.elimination, symcones.cones):
        real = module.has_full_column_rank

        def counted(m, real=real, name=module.__name__):
            calls.append(name)
            return real(m)

        monkeypatch.setattr(module, "has_full_column_rank", counted)
    sys_ = table_system((2, 4, 6), (4, 4, 4))
    comb = solve(sys_)
    assert len(comb) > 0
    assert calls == []
    rows, rhs = expand_equalities(sys_)
    assert eliminate(macmahon_lift(rows, rhs), len(rows)) == comb
    assert calls == ["symcones.elimination"]


def test_elimination_refuses_a_dependent_projection_before_any_round(monkeypatch):
    # e_3 lies in the span, so dropping x_3 is not injective on the cone
    dependent = SymbolicCone(((1, 0, 0), (1, 0, 1)), (0, 0, 0), (0, 0))
    # two generators cannot stay independent on one coordinate; the first
    # round of this cone is empty, so a check per round would never see it
    empty_first = cone([(1, 0, -1), (0, 1, 0)], (0, 0, -5))
    import symcones.elimination

    def no_round(c, rows, rhs):
        raise AssertionError("a round ran before the check")

    monkeypatch.setattr(symcones.elimination, "_rounds", no_round)
    for c, rounds in ((dependent, 1), (empty_first, 2)):
        with pytest.raises(ValueError, match="not linearly independent"):
            eliminate(c, rounds)


def test_elimination_refuses_backward_generators():
    # flipping (-1) forward made -[x > 0] of the ray x <= 0
    ray = cone([(-1, 0)])
    with pytest.raises(ValueError, match="forward"):
        eliminate_last_coordinate(ray)
    with pytest.raises(ValueError, match="forward"):
        eliminate(ray, 1)
    # two generators in R^3 with an injective projection: a backward one is
    # refused, and forward ones give [C and x_3 >= 0] projected, pointwise
    rng = random.Random(12)
    refused = checked = 0
    for _ in range(300):
        gens = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2)]
        projected = [g[:2] for g in gens]
        if gauss_rank(projected) < 2:
            continue
        apex = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3)]
        c = cone(gens, apex, [rng.randint(0, 1) for _ in gens])
        if not all(map(is_forward, gens)):
            with pytest.raises(ValueError, match="forward"):
                eliminate_last_coordinate(c)
            with pytest.raises(ValueError, match="forward"):
                eliminate(c, 1)
            refused += 1
            continue
        result = eliminate_last_coordinate(c)
        assert result == eliminate(c, 1)
        for x in box_points(2, -3, 3):
            lam = cramer_solve(projected, [a - q for a, q in zip(x, apex)])
            inside = all(t > 0 if bit else t >= 0 for t, bit in zip(lam, c.openness))
            above = apex[2] + sum(t * g[2] for t, g in zip(lam, gens)) >= 0
            assert eval_combination(result, x) == (1 if inside and above else 0)
        checked += 1
    assert refused > 50 and checked > 50


def test_solve_collects_each_emitted_cone_once(monkeypatch):
    # the bench 3x3 table: each round sums the signed pairs that eliminating
    # each parent of the round before emits into the groups of exactly one
    # combination, the one it yields, with no per-cone combination in between;
    # solve and the CLI wrap the last round's groups once and build no cone
    # object but the orthant
    import symcones.cones
    import symcones.elimination

    sys_ = table_system((2, 4, 6), (4, 4, 4))
    rows, rhs = expand_equalities(sys_)
    rows, rhs = rows[::-1], rhs[::-1]
    orthant = canonicalize(cone(identity(9)[::-1]))
    reference = list(reference_rounds(orthant, rows, rhs))

    made, built, plans = [], [], {}
    real_init, real_build = ConeCombination.__init__, ConeCombination._from_groups.__func__
    real_cone, real_plan = symcones.cones._canonical_cone, symcones.elimination._plan

    def counted_init(self, entries=None):
        made.append(self)
        real_init(self, entries)

    def counted_build(cls, groups, pairs=None):
        out = real_build(cls, groups, pairs)
        made.append(out)
        return out

    def counted_cone(*args):
        built.append(args)
        return real_cone(*args)

    def counted_plan(v, lengths, pairs, nonneg):
        plan = real_plan(v, lengths, pairs, nonneg)
        assert (v, nonneg) not in plans
        plans[v, nonneg] = len(plan)
        return plan

    monkeypatch.setattr(ConeCombination, "__init__", counted_init)
    monkeypatch.setattr(ConeCombination, "_from_groups", classmethod(counted_build))
    monkeypatch.setattr(symcones.cones, "_canonical_cone", counted_cone)
    monkeypatch.setattr(symcones.elimination, "_canonical_cone", counted_cone)
    monkeypatch.setattr(symcones.elimination, "_plan", counted_plan)
    parents, emitted = {orthant: 1}, 0
    for row, beta, combination, (want, want_emitted) in zip(
            rows, rhs, solve_rounds(sys_), reference, strict=True):
        assert made == [combination]
        # every parent is eliminated once, with its own multiplicity: it keeps
        # itself when q_n >= 0 and adds one vertex cone per entry of the plan
        # of its (V, sign q_n); the first round's one parent is the orthant cone
        signs = {c: sum(map(operator.mul, row, c.num)) >= beta * c.den for c in parents}
        assert set(plans) == {(c.generators, nonneg) for c, nonneg in signs.items()}
        round_emitted = sum(nonneg + plans[c.generators, nonneg] for c, nonneg in signs.items())
        assert round_emitted == want_emitted
        emitted += round_emitted
        assert dict(combination.items()) == dict(want.items())
        made.clear()
        plans.clear()
        parents = combination
    # a path around the plans would pass the sums above with nothing
    # emitted; the lifted route emitted these 2502 cones too
    assert emitted == 2502 and len(combination) == 672
    monkeypatch.setattr(symcones.elimination, "_plan", real_plan)
    orthant_args = (orthant.generators, orthant.num, orthant.den, orthant.openness)
    for build in (lambda: solve(sys_) == combination,
                  lambda: run(RunConfig("solve", verbose=True), sys_)[0] == 0):
        made.clear()
        built.clear()
        assert build()
        assert len(made) == 1 and built == [orthant_args]


def test_solve_computes_one_vertex_apex_per_generator_matrix_apex_and_vertex_cone(monkeypatch):
    # a vertex cone's apex depends on its parent's V and apex alone, not on the
    # openness: one solve of the 2x3 table with rows 1, 2 and columns 1, 1, 1
    # computes it (and its gcd) once per (V, apex, vertex cone) of a round
    # where row.q != beta, not once per cone. The vertex apex's gcd is the one
    # that takes d + 1 values (den * l_j and the apex); a pair column's takes d
    import types

    import symcones.elimination

    sys_ = table_system((1, 2), (1, 1, 1))
    rows, rhs = expand_equalities(sys_)
    d = sys_.num_variables
    parents = [ConeCombination({canonicalize(cone(identity(d)[::-1])): 1}), *solve_rounds(sys_)]
    per_apex = per_cone = 0
    for row, beta, parent in zip(rows[::-1], rhs[::-1], parents):
        for c in parent:
            q_n = sum(map(operator.mul, row, c.num)) - beta * c.den
            per_cone += bool(q_n) * len(reference_plan(c.generators, row, q_n >= 0))
        for v, num, den in {(c.generators, c.num, c.den) for c in parent}:
            q_n = sum(map(operator.mul, row, num)) - beta * den
            per_apex += bool(q_n) * len(reference_plan(v, row, q_n >= 0))
    assert (per_apex, per_cone) == (54, 188)
    calls = []

    def gcd(*args):
        if len(args) == d + 1:
            calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(symcones.elimination, "math", types.SimpleNamespace(gcd=gcd))
    assert len(solve(sys_)) == 96
    assert len(calls) == per_apex


@pytest.mark.parametrize("row_sums, col_sums, plans, parents", [
    ((2, 4, 6), (4, 4, 4), 158, 1191),
    ((3, 6), (3, 3, 3), 45, 188),
])
def test_elimination_builds_one_plan_per_generator_key(
    monkeypatch, row_sums, col_sums, plans, parents
):
    # one plan per distinct (V, q_n >= 0) among the parents of each round;
    # the expanded rows of a table are distinct, so the row names the round
    import symcones.elimination

    built, current_row = [], []
    real_plan = symcones.elimination._plan

    def counted_plan(v, lengths, pairs, nonneg):
        (row,) = current_row
        assert lengths == [sum(a * b for a, b in zip(row, g)) for g in v]
        built.append((v, row, nonneg))
        return real_plan(v, lengths, pairs, nonneg)

    monkeypatch.setattr(symcones.elimination, "_plan", counted_plan)
    sys_ = table_system(row_sums, col_sums)
    rows = expand_equalities(sys_)[0]
    # the rounds are lazy: each row's plans are built while its round is pulled
    rounds, sizes = solve_rounds(sys_), [1]
    for row in rows[::-1]:
        current_row[:] = [row]
        sizes.append(len(next(rounds)))
    assert next(rounds, None) is None
    assert sum(sizes[:-1]) == parents
    assert len(built) == len(set(built)) == plans
    assert len(set(rows)) == len(sizes) - 1


def test_plan_step_matches_per_cone_reference():
    # every round of seeded random lifted systems and two bench tables, on
    # the user-cone path: the (sign, cone) multiset of each parent, from
    # plans shared across the parents of a round, intersected with x_n >= 0
    # in R^n and then projected, equals a Fraction rebuild of that parent alone
    from symcones.elimination import _project

    def check_rounds(sys_) -> Counter:
        rows, rhs = expand_equalities(sys_)
        lift = macmahon_lift(rows, rhs)
        parents, seen = [canonicalize(lift)], Counter()
        for r, comb in enumerate(elimination_rounds(lift, len(rows))):
            n = lift.ambient_dim - r
            row, tables = tuple(int(i == n - 1) for i in range(n)), {}
            for c in parents:
                got = Counter()
                for sign, c2 in reference_eliminate(c, 1, row, 0, tables):
                    groups = {c2.generators: {(c2.num, c2.den): {c2.openness: sign}}}
                    (projected, mult), = _project(groups, n - 1).items()
                    got[mult, projected] += 1
                assert got == reference_elimination_step(c)
                seen["below" if c.num[-1] < 0 else "above"] += 1
                seen["open"] += any(c.openness)
            parents = list(comb)
        return seen

    rng = random.Random(31)
    seen = Counter()
    for _ in range(30):
        seen += check_rounds(random_system(rng, rng.randint(2, 4), rng.randint(2, 3)))
    assert seen["below"] > 40 and seen["above"] > 40 and seen["open"] > 40
    for row_sums, col_sums in (((3, 6), (3, 3, 3)), ((2, 4, 6), (4, 4, 4))):
        assert sum(check_rounds(table_system(row_sums, col_sums)).values()) > 0


def test_grouped_rounds_match_the_per_cone_reference():
    # every round of the one driver, on the solve path (rows in R^d from the
    # orthant) and on the eliminate path (unit rows on the lift), equals the
    # per-cone reference cone for cone and multiplicity for multiplicity, with
    # no empty group: the two bench table shapes at scales 1 and 3, and 60
    # seeded random systems with d in 2..5 and both = and >= rows
    from symcones.elimination import _rounds, _solve_groups, _unit_rows

    def check(start, rows, rhs, rounds) -> int:
        pairs = list(zip(rounds, reference_rounds(start, rows, rhs), strict=True))
        assert len(pairs) == len(rows)
        for groups, (want, _) in pairs:
            # {V: {(num, den): {bits: mult}}}, flattened by hand, with no empty map
            flat = {(v, num, den, bits): mult for v, apexes in groups.items()
                    for (num, den), patterns in apexes.items() for bits, mult in patterns.items()}
            assert all(apexes and all(apexes.values()) for apexes in groups.values())
            assert flat == {(c.generators, c.num, c.den, c.openness): m for c, m in want.items()}
        return sum(len(want) for _, (want, _) in pairs)

    def check_system(sys_) -> int:
        rows, rhs = expand_equalities(sys_)
        d = sys_.num_variables
        orthant = canonicalize(cone(identity(d)[::-1]))
        cones = check(orthant, rows[::-1], rhs[::-1], _solve_groups(sys_))
        lift = canonicalize(macmahon_lift(rows, rhs))
        unit = _unit_rows(lift.ambient_dim, len(rows))
        zeros = (0,) * len(rows)
        return cones + check(lift, unit, zeros, _rounds(lift, unit, zeros))

    for scale in (1, 3):
        for row_sums, col_sums in (((1, 2, 3), (2, 2, 2)), ((1, 2), (1, 1, 1))):
            sys_ = table_system([scale * a for a in row_sums], [scale * a for a in col_sums])
            assert check_system(sys_) > 0
    rng = random.Random(32)
    relations, cones = Counter(), 0
    for _ in range(60):
        d = rng.randint(2, 5)
        sys_ = _random_mixed_system(rng, d, rng.randint(0, 2), rng.randint(1, 2))
        cones += check_system(sys_)
        relations.update(sys_.relations)
        relations[f"d={d}"] += 1
    assert min(relations.values()) >= 8 and cones > 1000, (relations, cones)


def test_plan_matches_the_column_by_column_reference(monkeypatch):
    # random forward primitive V (k <= n <= 6, entries in [-4, 4]) and rows,
    # a third or more with some l_i = 0: both signs' plans, built from one
    # pair table in either order, equal the reference plan, which prims every
    # column of every vertex cone; each pair's column is prim'd (and made
    # forward) once, by the one gcd a plan takes
    import types

    import symcones.elimination
    from symcones.elimination import _plan

    calls = []

    def gcd(*w):
        calls.append(w)
        return math.gcd(*w)

    monkeypatch.setattr(symcones.elimination, "math", types.SimpleNamespace(gcd=gcd))
    rng = random.Random(31)
    seen = Counter()
    while seen["tables"] < 300:
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        v = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        if gauss_rank(v) < k:
            continue
        v = tuple(sorted(g if is_forward(g) else tuple(-x for x in g) for g in map(prim, v)))
        row = [rng.randint(-4, 4) for _ in range(n)]
        if rng.random() < 0.4:
            # project the row onto the orthogonal complement of one generator
            vi = rng.choice(v)
            dot, norm = sum(a * b for a, b in zip(row, vi)), sum(a * a for a in vi)
            row = [norm * a - dot * b for a, b in zip(row, vi)]
        row = tuple(row)
        lengths = [sum(a * b for a, b in zip(row, g)) for g in v]
        pairs, signs = {}, [True, False]
        rng.shuffle(signs)
        calls.clear()
        for nonneg in signs:
            plan = _plan(v, lengths, pairs, nonneg)
            assert plan == reference_plan(v, row, nonneg), (v, row, nonneg)
            seen["vertex cones"] += len(plan)
        assert len(calls) == len(pairs) == len({tuple(w) for w in calls})
        assert all(a < b and lengths[a] and lengths[b] for a, b in pairs)
        seen["tables"] += 1
        seen["zero length"] += 0 in lengths
    assert seen["zero length"] * 3 >= seen["tables"], seen
    assert seen["vertex cones"] > 500, seen


@pytest.mark.parametrize("row_sums, col_sums, prims", [
    ((3, 6), (3, 3, 3), 110),
    ((2, 4, 6), (4, 4, 4), 475),
])
def test_solve_prims_each_pair_column_once(monkeypatch, row_sums, col_sums, prims):
    # the two bench table shapes: one prim per pair {a, b} of a generator
    # matrix and a round, whatever the signs and vertex cones that read it
    # (402 and 1944 when every column of every plan was prim'd). The prim and
    # the forward flip are one gcd of the d entries; a vertex apex's takes d + 1
    import types

    import symcones.elimination

    d = len(row_sums) * len(col_sums)
    calls = []

    def gcd(*args):
        if len(args) == d:
            calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(symcones.elimination, "math", types.SimpleNamespace(gcd=gcd))
    solve(table_system(row_sums, col_sums))
    assert len(calls) == prims


def _random_mixed_system(rng, d, equalities, inequalities) -> LDSystem:
    rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(equalities + inequalities)]
    relations = ["="] * equalities + [">="] * inequalities
    order = list(range(len(rows)))
    rng.shuffle(order)
    return system([rows[i] for i in order], [relations[i] for i in order],
                  [rng.randint(-3, 6) for _ in order])


def test_solve_rounds_match_brute_force_of_the_last_rows():
    # round i of solve_rounds is the solution set of the last i expanded
    # rows over x >= 0, pointwise on a box around it
    rng = random.Random(30)
    seen = Counter()
    for _ in range(40):
        d = rng.randint(1, 4)
        sys_ = _random_mixed_system(rng, d, rng.randint(1, 2), rng.randint(0, 1))
        rows, rhs = expand_equalities(sys_)
        hi = 4 if d < 4 else 3
        for i, comb in enumerate(solve_rounds(sys_), start=1):
            last = system(rows[-i:], [">="] * i, rhs[-i:])
            for x in box_points(d, -1, hi):
                want = int(min(x) >= 0 and last.satisfies(x))
                assert eval_combination(comb, x) == want, (sys_, i, x)
                seen[want] += 1
        assert i == len(rows)
    assert seen[1] > 500 and seen[0] > 500, seen


@pytest.mark.parametrize("sys_", [
    table_system((2, 4), (2, 2, 2)), table_system((2, 4, 6), (4, 4, 4)),
], ids=["table-23", "table-33"])
def test_solve_equals_eliminate_of_the_lift_on_tables(sys_):
    rows, rhs = expand_equalities(sys_)
    assert solve(sys_) == eliminate(macmahon_lift(rows, rhs), len(rows))


def _project_slack(comb: ConeCombination, d: int) -> ConeCombination:
    """A lifted round with its remaining slack coordinates dropped, by ``cone``."""
    out = ConeCombination()
    for c, mult in comb.items():
        out.add(cone([g[:d] for g in c.generators], c.apex[:d], c.openness), mult)
    return out


def test_solve_equals_eliminate_of_the_lift_on_random_systems():
    # the rows are integers, so gcd(x, A x) = gcd(x): eliminating rows in R^d
    # gives the lifted route's cones field by field, round by round
    rng = random.Random(29)
    relations = Counter()
    for _ in range(50):
        d = rng.randint(1, 4)
        sys_ = _random_mixed_system(rng, d, rng.randint(0, 2), rng.randint(1, 2))
        rows, rhs = expand_equalities(sys_)
        lift = macmahon_lift(rows, rhs)
        assert list(solve_rounds(sys_)) == [
            _project_slack(comb, d) for comb in elimination_rounds(lift, len(rows))]
        assert solve(sys_) == eliminate(lift, len(rows))
        relations.update(sys_.relations)
    assert min(relations.values()) > 40, relations


def test_iterating_an_elimination_inverts_no_generator_matrix(monkeypatch):
    # cone objects are only the mapping view: iterating the lifted 2x3
    # table's elimination (96 cones over 12 V) runs no Bareiss elimination
    from symcones import exactmath

    rows, rhs = expand_equalities(table_system((2, 4), (2, 2, 2)))
    comb = eliminate(macmahon_lift(rows, rhs), len(rows))
    assert (len(comb), len(comb._groups), comb.ambient_dim) == (96, 12, 6)
    calls = []
    real = exactmath._bareiss

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exactmath, "_bareiss", spy)
    assert sum(mult for _, mult in comb.items()) == sum(map(comb.__getitem__, comb))
    assert not calls
