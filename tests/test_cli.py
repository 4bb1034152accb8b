import dataclasses
import hashlib
import io
import itertools
import json
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from symcones import ConeCombination, LDSystem, Relation, cone, solve, system
from symcones.cli import (
    ParseError,
    RunConfig,
    _build_parser,
    _line_values,
    _oracle_forms,
    _run_check,
    combination_to_json,
    main,
    parse_system,
    run,
)
from _support import (
    random_full_dim_cone,
    random_system,
    reference_combination_json,
    reference_run_check,
    table_system,
)
from cli_cases import CASES, failures


# --- parsing ----------------------------------------------------------------

def test_parse_single_inequality():
    sys_ = parse_system("2 3 >= 5\n")
    assert sys_.rows == ((2, 3),)
    assert sys_.relations == (Relation.GEQ,)
    assert sys_.rhs == (5,)


def test_parse_equality_row():
    sys_ = parse_system("1 1 = 100")
    assert sys_.relations == (Relation.EQ,)
    assert sys_.rhs == (100,)


def test_parse_intro_inequality():
    sys_ = parse_system("2 3 -5 >= 4")
    assert sys_.rows == ((2, 3, -5),)


def test_parse_comments_and_blank_lines():
    text = "# objective does not matter\n\n1 0 >= 1  # x1 at least 1\n0 1 >= 2\n"
    sys_ = parse_system(text)
    assert sys_.rows == ((1, 0), (0, 1))
    assert sys_.rhs == (1, 2)


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_system("1 1 >= 2\n1 nope >= 3\n")


def test_parse_error_on_column_mismatch():
    with pytest.raises(ParseError, match="expected 2 coefficients"):
        parse_system("1 1 >= 2\n1 1 1 >= 3\n")


def test_parse_error_on_missing_relation():
    with pytest.raises(ParseError, match="expected exactly one"):
        parse_system("1 2 3\n")


def test_parse_error_on_empty_input():
    with pytest.raises(ParseError, match="no constraints"):
        parse_system("# nothing\n\n")


# --- run() ------------------------------------------------------------------

def test_run_solve_emits_schema_json():
    sys_ = parse_system("2 3 >= 5")
    status, output, _ = run(RunConfig("solve"), sys_)
    assert status == 0
    payload = json.loads(output)
    assert payload["dimension"] == 2
    assert payload["cones"]
    for entry in payload["cones"]:
        assert set(entry) == {"mult", "generators", "apex", "open"}
        assert isinstance(entry["mult"], str)
        int(entry["mult"])
        for coord in entry["apex"]:
            assert set(coord) == {"num", "den"}
            assert int(coord["den"]) > 0
        assert all(bit in (0, 1) for bit in entry["open"])
        assert all(isinstance(x, int) for g in entry["generators"] for x in g)


def test_run_solve_matches_library_combination():
    sys_ = parse_system("1 1 = 100")
    _, output, _ = run(RunConfig("solve"), sys_)
    payload = json.loads(output)
    assert payload == json.loads(combination_to_json(solve(sys_)))


def _assert_renders_like_json_dumps(combination, dimension=None):
    out = combination_to_json(combination, dimension)
    assert out == reference_combination_json(combination, dimension)
    assert json.dumps(json.loads(out)) == out


@pytest.mark.parametrize("sys_", [
    # 30 seeded systems in d = 2..4; seed 12 is random_system(Random(12), 3, 3),
    # the recorded case solve-random-12, apex denominators up to 25
    *(random_system(random.Random(seed), (seed + 1) % 3 + 2, 3) for seed in range(30)),
    table_system((2, 4, 6), (4, 4, 4)),
    table_system((3, 6), (3, 3, 3)),
])
def test_solve_json_matches_the_json_dumps_reference(sys_):
    _assert_renders_like_json_dumps(solve(sys_), sys_.num_variables)


def test_hand_built_and_empty_json_match_the_json_dumps_reference():
    big = 2**64
    # multiplicities +-3, apex entries past 2^64 over den 1 and den > 1, and
    # two cones sharing V
    _assert_renders_like_json_dumps(ConeCombination({
        cone([(1, 0), (0, 1)], (big + 5, -3 * big)): 3,
        cone([(1, 0), (0, 1)], (Fraction(big + 1, 3), Fraction(-7, 6)), (1, 0)): -3,
        cone([(1, 2), (0, 1)], (0, Fraction(-big, 9)), (0, 1)): 3,
    }))
    _assert_renders_like_json_dumps(ConeCombination())
    _assert_renders_like_json_dumps(ConeCombination(), 3)


def test_run_is_deterministic():
    sys_ = parse_system("1 2 -3 >= 2\n2 -1 1 >= 0")
    outputs = set()
    for _ in range(3):
        for sub in ("solve", "check"):
            _, out, _ = run(RunConfig(sub, box=4), sys_)
            outputs.add((sub, out))
    assert len(outputs) == 2
    _, rf1, _ = run(RunConfig("ratfun", method="barvinok", fmt="json"), sys_)
    _, rf2, _ = run(RunConfig("ratfun", method="barvinok", fmt="json"), sys_)
    assert rf1 == rf2


def test_run_count():
    sys_ = parse_system("1 1 = 100")
    status, output, _ = run(RunConfig("count"), sys_)
    assert (status, output) == (0, "101")


def test_run_check_pass():
    status, output, _ = run(RunConfig("check", box=6), parse_system("2 3 -5 >= 4"))
    assert (status, output) == (0, "PASS")


def test_run_check_fail_branch():
    sys_ = parse_system("1 1 >= 0")
    status, message = _run_check(RunConfig("check", box=2), sys_, ConeCombination())
    assert status == 1
    assert message.startswith("FAIL at (0, 0)")


def test_run_check_seeded_random_systems():
    rng = random.Random(424242)
    for _ in range(25):
        sys_ = random_system(rng, rng.randint(1, 2), rng.randint(1, 3))
        status, output, _ = run(RunConfig("check", box=5), sys_)
        assert (status, output) == (0, "PASS")


def test_check_refuses_a_scan_over_the_cap_before_it_starts(monkeypatch, capsys):
    # the 3x3 table at the default --box 8: 9^8 lines, each cut by the 10
    # half-spaces of the 5 = rows and the 9 facets of every cone
    import symcones.cli

    def no_scan(*args):
        raise AssertionError("check scanned before refusing")

    monkeypatch.setattr(symcones.cli, "_line_values", no_scan)
    rows = [" ".join(str(int(k // 3 == i)) for k in range(9)) + " = 2" for i in range(3)]
    rows += [" ".join(str(int(k % 3 == j)) for k in range(9)) + " = 2" for j in range(2)]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(rows) + "\n"))
    assert main(["check", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--box" in captured.err
    assert captured.err.count("\n") == 1
    cones = len(solve(parse_system("\n".join(rows))))
    assert str(9**8 * (10 + 9 * cones)) in captured.err


def test_check_counts_one_test_per_point_with_no_cones(monkeypatch, capsys):
    # infeasible, so the combination is empty: 9^8 lines still cost the
    # oracle's 2 half-spaces each, and the scan is refused before it starts
    import symcones.cli

    def no_scan(*args):
        raise AssertionError("check scanned before refusing")

    monkeypatch.setattr(symcones.cli, "_line_values", no_scan)
    monkeypatch.setattr(LDSystem, "satisfies", no_scan)
    text = "1 1 1 1 1 1 1 1 1 >= 100\n-1 -1 -1 -1 -1 -1 -1 -1 -1 >= -5\n"
    assert len(solve(parse_system(text))) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["check", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: check would cut {9**8 * 2} x_d bounds (lines x half-spaces), "
                            f"more than {symcones.cli.MAX_CHECK_VALUES}; use a smaller --box\n")


def test_check_line_scan_matches_the_pointwise_scan():
    # the true combination, copies with one multiplicity moved by +-1, one
    # cone dropped or one openness bit flipped, and the empty combination,
    # on systems with = and >= rows in d = 1..4: same (status, message)
    rng = random.Random(1919)
    outcomes = Counter()
    for _ in range(150):
        d = rng.randint(1, 4)
        sys_ = random_system(rng, d, rng.randint(1, 3), entry_bound=4)
        sys_ = dataclasses.replace(sys_, relations=tuple(
            rng.choice((Relation.GEQ, Relation.GEQ, Relation.EQ)) for _ in sys_.rows))
        box = rng.randint(0, 5)
        comb = solve(sys_)
        variants = [comb, ConeCombination()]
        items = list(comb.items())
        if items:
            i = rng.randrange(len(items))
            c, mult = items[i]
            bits = list(c.openness)
            bits[rng.randrange(len(bits))] ^= 1
            for changed in ([(c, mult + 1)], [(c, mult - 1)], [],
                            [(cone(c.generators, c.apex, bits), mult)]):
                variant = ConeCombination()
                for c2, m2 in items[:i] + changed + items[i + 1:]:
                    variant.add(c2, m2)
                variants.append(variant)
        for variant in variants:
            expected = reference_run_check(box, sys_, variant)
            assert _run_check(RunConfig("check", box=box), sys_, variant) == expected
            outcomes[expected[0]] += 1
    assert outcomes[0] > 300 and outcomes[1] > 250


def test_check_line_scan_places_lower_dimensional_cones_in_closed_form():
    # cones with fewer generators than coordinates are scanned like the
    # others, their affine hull cut as pairs of opposite facets: the ray
    # (1, 1) is the solution set of x1 = x2, and the orthant is its cone
    # open on e1 plus the closed face x1 = 0
    diagonal = ConeCombination()
    diagonal.add(cone([(1, 1)]), 1)
    orthant = ConeCombination()
    orthant.add(cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], openness=(1, 0, 0)), 1)
    orthant.add(cone([(0, 1, 0), (0, 0, 1)]), 1)
    for text, comb in (("1 -1 = 0", diagonal), ("1 0 0 >= 0", orthant)):
        assert _run_check(RunConfig("check", box=4), parse_system(text), comb) == (0, "PASS")
    # random mixes against no point, every point and a random system, so the
    # first point where the value is not 0, not 1 or wrong is compared
    rng = random.Random(4242)
    for _ in range(40):
        d = rng.randint(2, 4)
        comb = ConeCombination()
        while len(comb) < 3:
            k = rng.randint(1, d - 1)
            gens = [tuple(rng.randint(-1, 2) for _ in range(d)) for _ in range(k)]
            apex = [Fraction(rng.randint(0, 2), rng.choice((1, 1, 2))) for _ in range(d)]
            bits = [rng.randint(0, 1) for _ in range(k)]
            try:
                comb.add(cone(gens, apex, bits), rng.choice((1, -1, 2)))
            except ValueError:
                continue
            comb.add(random_full_dim_cone(rng, d, 3, rational_apex=True, random_openness=True),
                     rng.choice((1, -1)))
        box = rng.randint(0, 4)
        zero = " ".join("0" * d)
        for sys_ in (parse_system(f"{zero} >= 1"), parse_system(f"{zero} >= 0"),
                     random_system(rng, d, rng.randint(1, 2), entry_bound=3)):
            expected = reference_run_check(box, sys_, comb)
            assert _run_check(RunConfig("check", box=box), sys_, comb) == expected


def test_check_cap_boundary(monkeypatch):
    # (box+1)^(d-1) lines times the row's 1 half-space and each full cone's
    # 3 facets: the cap itself runs, one less refuses
    import symcones.cli

    sys_ = parse_system("2 3 -5 >= 4")
    values = 7**2 * (1 + 3 * len(solve(sys_)))
    monkeypatch.setattr(symcones.cli, "MAX_CHECK_VALUES", values)
    assert run(RunConfig("check", box=6), sys_)[:2] == (0, "PASS")
    monkeypatch.setattr(symcones.cli, "MAX_CHECK_VALUES", values - 1)
    with pytest.raises(ParseError, match=f"{values} x_d bounds"):
        run(RunConfig("check", box=6), sys_)


def test_check_cap_admits_the_bench_and_ci_scans():
    # the random-systems panel (Random(24), d = 4, rhs scaled by 1..3) is
    # checked at --box 4; CI runs check --box 6 on 2 3 -5 >= 4
    rng = random.Random(24)
    panel = [random_system(rng, 4, rng.choice((3, 4))) for _ in range(10)]
    cases = [(parse_system("2 3 -5 >= 4"), 6)]
    cases += [(dataclasses.replace(s, rhs=tuple(t * b for b in s.rhs)), 4)
              for s in panel for t in (1, 2, 3)]
    for sys_, box in cases:
        assert run(RunConfig("check", box=box), sys_)[:2] == (0, "PASS")


# rs00 of the random-systems panel, the largest of its solves (11 cones)
RS00 = "4 -3 -2 -3 >= -15\n-2 -3 5 5 >= 9\n-4 -3 -1 -5 >= -9\n2 2 5 -4 >= 6\n"


def test_check_charges_the_bounds_its_scan_cuts(monkeypatch):
    # every _line_values call cuts one x_d bound per line and half-space;
    # their sum must be the figure the cap charges, read from the refusal
    # under a cap of 0: on rs00, on cones with k < n, and on a blocked scan
    import symcones.cli

    line_values, cut = symcones.cli._line_values, []

    def counting(forms, lines, box):
        lo, hi = line_values(forms, lines, box)
        cut.append(len(lo) * len(forms))
        return lo, hi

    def charged(sys_, comb, box):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(symcones.cli, "MAX_CHECK_VALUES", 0)
            with pytest.raises(ParseError) as refusal:
                _run_check(RunConfig("check", box=box), sys_, comb)
        return int(re.search(r"cut (\d+) x_d bounds", str(refusal.value))[1])

    monkeypatch.setattr(symcones.cli, "_line_values", counting)
    rs00 = parse_system(RS00)
    diagonal = ConeCombination()
    diagonal.add(cone([(1, 1)]), 1)
    orthant = ConeCombination()
    orthant.add(cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], openness=(1, 0, 0)), 1)
    orthant.add(cone([(0, 1, 0), (0, 0, 1)]), 1)
    cases = [(rs00, solve(rs00), 4), (parse_system("1 -1 = 0"), diagonal, 5),
             (parse_system("1 0 0 >= 0"), orthant, 4)]
    for sys_, comb, box in cases:
        cut.clear()
        assert _run_check(RunConfig("check", box=box), sys_, comb) == (0, "PASS")
        assert sum(cut) == charged(sys_, comb, box)
    assert charged(*cases[0]) == 5**3 * 48
    # blocks of the lines that share x_1..x_2: 25 blocks of 12 scans each
    monkeypatch.setattr(symcones.cli, "CHECK_BLOCK_VALUES", 5 * 48)
    cut.clear()
    assert _run_check(RunConfig("check", box=4), rs00, solve(rs00)) == (0, "PASS")
    assert len(cut) == 25 * 12
    assert sum(cut) == charged(rs00, solve(rs00), 4)


def test_check_admits_large_boxes_in_low_dimension():
    # rs00 at --box 30 is 31^3 lines x 48 half-spaces, cut in blocks; a
    # d = 1 system is one line however large the box
    assert run(RunConfig("check", box=30), parse_system(RS00))[:2] == (0, "PASS")
    assert run(RunConfig("check", box=10**9), parse_system("3 >= 7"))[:2] == (0, "PASS")


def test_fp_cap_refusal_on_the_barvinok_route_names_the_threshold(monkeypatch, capsys):
    # a leaf's parallelepiped holds index-many points, so barvinok above the
    # cap's index threshold meets the cap too, and the advice must hold
    # there: rs00 has a cone of index 4496182; with the cap patched to 100,
    # --index-threshold 100 runs
    import symcones.cones

    argv = ["ratfun", "--method", "barvinok", "--index-threshold"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(RS00))
    assert main([*argv, "100000000", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith(" 4496182 lattice points, over the enumeration cap of 1000000; "
                                 "use --method barvinok with --index-threshold at most 1000000\n")
    monkeypatch.setattr(symcones.cones, "MAX_FUNDPAR_POINTS", 100)
    for threshold, status in (("1000", 2), ("100", 0)):
        monkeypatch.setattr(sys, "stdin", io.StringIO(RS00))
        assert main([*argv, threshold, "-"]) == status
        assert ("at most 100\n" in capsys.readouterr().err) == bool(status)


def test_oracle_line_intervals_match_satisfies():
    # the oracle's half-spaces cut one x_d interval per line; that interval
    # must hold exactly the points that satisfy A x >= b, so a floor or ceil
    # slip cannot hide behind the same slip in the cones' intervals
    texts = [
        "3 = 6", "3 = 5", "-3 >= -7", "0 >= 1", "0 = 0",        # d = 1
        "1 0 >= 2", "1 0 = 1", "2 1 = 5", "-1 -1 >= -4",        # last coefficient 0 and +-1
        "1 3 = 5", "-2 -3 = -4", "2 3 >= 4", "1 -3 >= -2",      # +-3, empty where 3 does not divide
        "2 4 = 5", "3 6 >= 4\n-3 -6 >= -13", "2 0 1 = 3\n0 3 -3 = 2",
    ]
    systems = [parse_system(text) for text in texts]
    rng = random.Random(2207)
    for _ in range(60):
        d = rng.randint(1, 4)
        sys_ = random_system(rng, d, rng.randint(1, 3), entry_bound=4)
        systems.append(dataclasses.replace(sys_, relations=tuple(
            rng.choice((Relation.GEQ, Relation.EQ)) for _ in sys_.rows)))
    last = Counter()
    for sys_ in systems:
        d = sys_.num_variables
        for box in range(6):
            lo, hi = _line_values(_oracle_forms(sys_), {}, box)
            lines = list(itertools.product(range(box + 1), repeat=d - 1))
            assert len(lo) == len(hi) == len(lines)
            for i, prefix in enumerate(lines):
                for t in range(box + 1):
                    assert (lo[i] <= t <= hi[i]) == sys_.satisfies(prefix + (t,))
        last.update(abs(row[-1]) for row in sys_.rows)
    assert last[0] and last[1] and last[3]


def _one_change_variants(rng, comb):
    """comb, with one multiplicity moved by +-1, one cone dropped and one openness bit flipped."""
    items = list(comb.items())
    if not items:
        return [comb]
    i = rng.randrange(len(items))
    c, mult = items[i]
    bits = list(c.openness)
    bits[rng.randrange(len(bits))] ^= 1
    variants = [comb]
    for changed in ([(c, mult + 1)], [(c, mult - 1)], [], [(cone(c.generators, c.apex, bits), mult)]):
        variant = ConeCombination()
        for c2, m2 in items[:i] + changed + items[i + 1:]:
            variant.add(c2, m2)
        variants.append(variant)
    return variants


def test_check_matches_the_pointwise_scan_on_the_bench_panel(monkeypatch):
    # the random-systems panel: Random(24), d = 4, 3 or 4 rows, right-hand
    # sides times 1..3, checked at --box 4; the first system again with the
    # box cut into blocks
    import symcones.cli

    rng = random.Random(24)
    panel = [random_system(rng, 4, rng.choice((3, 4))) for _ in range(10)]
    systems = [dataclasses.replace(s, rhs=tuple(t * b for b in s.rhs))
               for s in panel for t in (1, 2, 3)]
    pick = random.Random(2424)
    outcomes = Counter()
    for sys_ in systems:
        for variant in _one_change_variants(pick, solve(sys_)):
            expected = reference_run_check(4, sys_, variant)
            assert _run_check(RunConfig("check", box=4), sys_, variant) == expected
            outcomes[expected[0]] += 1
    assert outcomes[0] >= 30 and outcomes[1] >= 30
    # one block per x_1..x_2 prefix, then one per line
    comb = solve(systems[0])
    forms = len(_oracle_forms(systems[0])) + sum(len(c._facets) for c in comb)
    for budget in (5 * forms, 1):
        monkeypatch.setattr(symcones.cli, "CHECK_BLOCK_VALUES", budget)
        for variant in _one_change_variants(pick, comb):
            expected = reference_run_check(4, systems[0], variant)
            assert _run_check(RunConfig("check", box=4), systems[0], variant) == expected


@pytest.mark.parametrize("budget", [None, 100, 1])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_check_fail_message_places_the_first_mismatch(monkeypatch, budget, d):
    # a closed orthant at apex p covers, of the box, p and what follows it in
    # product order; so with the oracle 0 everywhere, 2 x that cone first
    # fails at p, and with the oracle 1 everywhere, the orthant at 0 minus it
    # first fails at p too; budget 100 cuts the d = 4 box into blocks of
    # lines that share x_1 or x_1..x_2, budget 1 into one block per line
    import symcones.cli

    if budget is not None:
        monkeypatch.setattr(symcones.cli, "CHECK_BLOCK_VALUES", budget)
    box = 3
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    zero = " ".join("0" * d)
    nowhere, everywhere = parse_system(f"{zero} >= 1"), parse_system(f"{zero} >= 0")
    corners = ((0,) * (d - 1) + (box,), (box,) * (d - 1) + (0,), (box,) * d)
    for p in corners + (tuple(i % (box + 1) for i in range(1, d + 1)),):
        doubled = ConeCombination()
        doubled.add(cone(units, p), 2)
        assert _run_check(RunConfig("check", box=box), nowhere, doubled) == (
            1, f"FAIL at {p}: oracle 0, combination 2")
        cut = ConeCombination()
        cut.add(cone(units), 1)
        cut.add(cone(units, p), -1)
        assert _run_check(RunConfig("check", box=box), everywhere, cut) == (
            1, f"FAIL at {p}: oracle 1, combination 0")


def test_run_ratfun_formats():
    sys_ = parse_system("2 3 >= 5")
    for fmt in ("plain", "latex", "json"):
        status, out, _ = run(RunConfig("ratfun", fmt=fmt), sys_)
        assert status == 0 and out
    _, js, _ = run(RunConfig("ratfun", fmt="json"), sys_)
    json.loads(js)


def test_run_ratfun_index_threshold_hybrid():
    # with a large threshold the barvinok route degenerates to plain
    # parallelepiped enumeration of the original cones
    sys_ = parse_system("5 3 >= 7")
    _, hybrid, _ = run(
        RunConfig("ratfun", method="barvinok", fmt="json", index_threshold=10**6), sys_
    )
    _, fp, _ = run(RunConfig("ratfun", method="fp", fmt="json"), sys_)
    assert json.loads(hybrid) == json.loads(fp)
    _, unimod, _ = run(RunConfig("ratfun", method="barvinok", fmt="json"), sys_)
    for term in json.loads(unimod):
        assert len(term["num"]) == 1


def test_run_solve_infeasible_keeps_dimension():
    sys_ = parse_system("1 0 >= 1\n-1 0 >= 0")
    status, output, _ = run(RunConfig("solve"), sys_)
    assert status == 0
    assert json.loads(output)["dimension"] == 2


# --- main() entry point -------------------------------------------------------

def test_main_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 1 = 100\n"))
    status = main(["count", "-"])
    assert status == 0
    assert capsys.readouterr().out.strip() == "101"


def test_main_reads_file(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("2 3 >= 5\n")
    assert main(["check", "--box", "6", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "PASS"


def test_main_parse_error_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("garbage\n"))
    assert main(["solve", "-"]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_missing_file_exits_2(capsys):
    assert main(["solve", "/nonexistent/file.txt"]) == 2


def test_main_rejects_a_flag_the_subcommand_ignores(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 1 = 4\n"))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "barvinok", "-"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


FLAGS = {
    "--method": ["barvinok"], "--format": ["json"], "--seed": ["5"], "--box": ["3"],
    "--assert-bounded": [], "--index-threshold": ["2"], "--verbose": [],
    "--vector-exponents": [],
}
ACCEPTED = {
    "solve": {"--verbose"},
    "check": {"--box", "--verbose"},
    "ratfun": {"--method", "--format", "--index-threshold", "--vector-exponents", "--verbose"},
    "count": {"--verbose"},
}


@pytest.mark.parametrize("subcommand", sorted(ACCEPTED))
def test_each_subcommand_takes_only_the_flags_it_reads(subcommand, capsys):
    parser = _build_parser()
    for flag, values in FLAGS.items():
        argv = [subcommand, flag, *values, "-"]
        if flag in ACCEPTED[subcommand]:
            parser.parse_args(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2


def test_main_count_without_flag_prints_the_count(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 1 = 4\n"))
    assert main(["count", "-"]) == 0
    assert capsys.readouterr().out == "5\n"


def test_main_refuses_infinite_count(monkeypatch, capsys):
    # x1 is unbounded; this used to print 14
    text = "0 -1 -1 >= -4\n0 -4 1 >= -1\n4 -4 -2 >= -2\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["count", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "infinite" in captured.err
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["ratfun", "--method", "barvinok", "--index-threshold", "0"], "index_threshold"),
    (["check", "--box", "-1"], "--box"),
    (["ratfun", "--method", "fp", "--index-threshold", "3"], "--index-threshold"),
    (["ratfun", "--index-threshold", "2"], "--index-threshold"),
    (["ratfun", "--vector-exponents"], "--vector-exponents"),
    (["ratfun", "--format", "json", "--vector-exponents"], "--vector-exponents"),
])
def test_main_refused_input_prints_one_error_line(monkeypatch, capsys, argv, message):
    # refused whatever the input: a feasible system, and an infeasible one
    # whose combination is empty
    for text in ("1 1 = 4\n", "1 1 >= 5\n-1 -1 >= -2\n"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main([*argv, "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1


def test_run_owns_the_flag_rules(monkeypatch):
    # a config whose index_threshold did nothing was once run with --method fp;
    # run refuses it before solving, with main's message, and main checks
    # nothing of its own
    sys_ = parse_system("2 3 >= 5\n")

    def no_solve(sys_):
        raise AssertionError("solved before the flags were checked")

    assert RunConfig("ratfun").index_threshold is None
    import symcones.cli

    monkeypatch.setattr(symcones.cli, "_solve_groups", no_solve)
    for config, message in (
        (RunConfig("ratfun", index_threshold=3), "--index-threshold applies only to --method barvinok"),
        (RunConfig("ratfun", method="fp", index_threshold=1.5),
         "--index-threshold applies only to --method barvinok"),
        (RunConfig("ratfun", vector_exponents=True), "--vector-exponents applies only to --format latex"),
    ):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            run(config, sys_)
    monkeypatch.undo()
    # Barvinok reads None as 1
    barvinok = RunConfig("ratfun", method="barvinok", fmt="json")
    assert run(barvinok, sys_) == run(dataclasses.replace(barvinok, index_threshold=1), sys_)
    assert run(barvinok, sys_) != run(dataclasses.replace(barvinok, index_threshold=3), sys_)


def test_main_ratfun_barvinok_takes_index_threshold(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 1 = 4\n"))
    argv = ["ratfun", "--method", "barvinok", "--index-threshold", "2", "-"]
    assert main(argv) == 0


def test_main_verbose_trace_goes_to_stderr(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 3 >= 5\n1 -1 >= 0\n"))
    assert main(["solve", "--verbose", "-"]) == 0
    captured = capsys.readouterr()
    assert "iteration 1:" in captured.err
    assert "iteration" not in captured.out


def test_console_invocation_round_trip(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("1 1 = 100\n")
    proc = subprocess.run(
        [sys.executable, "-m", "symcones", "count", str(path)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "101"


CASE = {case[0]: case for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_recorded_cli_output(case):
    assert failures(case) == []


def test_cli_case_runner_reports_each_broken_copy():
    name, argv, stdin, status, digest = CASE["solve-random-12"]
    broken = [
        ((name, argv, stdin, status, "0" * 64), f"stdout sha256 {digest}"),
        ((name, argv, stdin, 2, digest), "exit status 0, expected 2"),
        ((name, [*argv, "--verbose"], stdin, status, digest), "stderr is not empty"),
    ]
    # bits read off x-space generators alone, not the lifted ones
    name, argv, stdin, status, digest, lines = CASE["solve-verbose-draw-37-3"]
    x_only = lines.replace("5 bits", "3 bits").replace("8 bits\ni", "5 bits\ni", 1)
    assert x_only.count(" 3 bits") == x_only.count(" 5 bits") == x_only.count(" 8 bits") == 1
    broken.append(((name, argv, stdin, status, digest, x_only), "stderr 'iteration 1"))
    for case, why in broken:
        assert any(why in found for found in failures(case))


def _case_digest_in_process(name, monkeypatch, capsys) -> str:
    """The sha256 of a case's stdout, without its final newline, from ``main``
    run in this process; asserts the case's status and an empty stderr."""
    _, argv, stdin, status, _ = CASE[name]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main([*argv, "-"]) == status
    captured = capsys.readouterr()
    assert captured.err == ""
    return hashlib.sha256(captured.out.removesuffix("\n").encode()).hexdigest()


def test_package_built_cones_skip_the_validating_door(monkeypatch, capsys):
    # elimination rounds and Barvinok leaves are canonical by construction,
    # so neither is collected through ConeCombination.add
    from symcones import decompose_combination

    knapsack = system([(2, 3, 5, 7, 11, 13)], ["="], [60])
    comb = solve(knapsack)

    def refused(self, c, multiplicity=1):
        raise AssertionError("a package-built cone went through add")

    monkeypatch.setattr(ConeCombination, "add", refused)
    assert len(decompose_combination(comb)) > len(comb)
    name = "ratfun-barvinok-json-knapsack"
    assert parse_system(CASE[name][2]) == knapsack
    assert _case_digest_in_process(name, monkeypatch, capsys) == CASE[name][4]
    assert run(RunConfig("count"), knapsack)[1] == "893"


def test_fp_route_builds_no_smith_transforms(monkeypatch, capsys):
    # enum_fundpar reads U^-1, W^-1 and the diagonal from the Smith loop
    # alone; four of this system's five cones have index > 1, with Smith
    # groups (1, 18, 18), (1, 5, 25) twice and (1, 13, 13), and the bytes
    # stay the recorded ones
    from symcones import exactmath

    def refused(m):
        raise AssertionError("the fp route built U and W")

    snf = exactmath.snf
    for module in [m for name, m in sys.modules.items() if name.startswith("symcones")]:
        if getattr(module, "snf", None) is snf:
            monkeypatch.setattr(module, "snf", refused)
    name = "ratfun-fp-json-random-12"
    assert parse_system(CASE[name][2]) == random_system(random.Random(12), 3, 3)
    assert CASE[name][4].startswith("fd17b613")
    assert _case_digest_in_process(name, monkeypatch, capsys) == CASE[name][4]
