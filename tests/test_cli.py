import hashlib
import io
import json
import random
import subprocess
import sys

import pytest

from symcones import ConeCombination, Relation, solve
from symcones.cli import (
    ParseError,
    RunConfig,
    _build_parser,
    combination_to_json,
    main,
    parse_system,
    run,
)
from _support import random_system, table_system


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
    from symcones.cli import _run_check

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
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 1 = 4\n"))
    assert main([*argv, "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


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


# sha256 of outputs recorded before the apex became integer numerators over
# one denominator; the JSON must not change by a byte
GOLDEN_SHA256 = [
    (RunConfig("solve"), table_system((2, 4, 6), (4, 4, 4)),
     "23f56e85b3986304ae60c4f0c662b0e58f7d1e9a9d60eb6da02fc5399edb9222"),
    (RunConfig("solve"), table_system((3, 6), (3, 3, 3)),
     "f576b2e7bd4f477bf22e6ac710ec611b5b30c534ec93b66bd9185b79b84ebc57"),
    # apex denominators up to 25
    (RunConfig("solve"), random_system(random.Random(12), 3, 3),
     "55543a6a178df88183b8fd20e53bbbb435779d6fe368f5d02d0ed5c81a3c044b"),
    # recorded when xi became V @ (+-1)
    (RunConfig("ratfun", method="barvinok", fmt="json"), random_system(random.Random(1), 3, 3),
     "695b4c2840543ef3ea3feb6c8921bd024b278a326d6f95d809d6f9758e500fac"),
    # recorded while index-1 cones took their point from a separate closed
    # form on the Barvinok route and from a Smith form on the fp route
    (RunConfig("ratfun", method="fp", fmt="json"), table_system((6, 6, 6), (6, 6, 6)),
     "a0a1becc09138c54207f2f8bf079b1703e77a7c7321df13cf99c6c9f6781118f"),
    # recorded when xi became V @ (+-1)
    (RunConfig("ratfun", method="barvinok", fmt="json", index_threshold=3),
     random_system(random.Random(1), 3, 3),
     "5446a484cd2ae2ec55cd24558a04ee6f586fc81f68c51089e314c3ef5da2c394"),
    # recorded while parallelepipeds of index > 1 were enumerated through an
    # integer/fractional split of the apex: indices up to 324, apex
    # denominators up to 25, open generators
    (RunConfig("ratfun", method="fp", fmt="json"), random_system(random.Random(12), 3, 3),
     "fd17b613ada37f2d78d690eaaa6df381cd6f3c94fdbd7cb2f6c0a3874090b23d"),
]


@pytest.mark.parametrize("config, sys_, digest", GOLDEN_SHA256)
def test_output_matches_recorded_sha256(config, sys_, digest):
    _, output, _ = run(config, sys_)
    assert hashlib.sha256(output.encode()).hexdigest() == digest
