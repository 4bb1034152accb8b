"""Command-line front end.

Input format: one constraint per line, ``#`` starts a comment, blank lines
are skipped. A line holds d integer coefficients, a relation token (``>=``
or ``=``) and one integer right-hand side; the variable count is inferred
from the first constraint. Subcommands::

    solve   emit the signed cone combination as JSON
    ratfun  emit a rational-function expression (plain, latex or json)
    count   emit the number of solutions of a finite set
    check   compare the solver against the direct inequality oracle on a box

No choice is random: ``ratfun --method barvinok`` half-opens each cone along
its own xi = V·(±1), so the same input always gives the same bytes.

Exit status: 0 on success or PASS, 1 on FAIL, 2 on usage errors and
refused input, each with one ``error:`` line on stderr: ``count`` on an
infinite solution set, an fp parallelepiped over the enumeration cap, a
negative ``--box``, ``--index-threshold`` with ``ratfun --method fp``, or
``--vector-exponents`` without ``--format latex``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass

from .cones import ConeCombination, eval_combination
from .elimination import LDSystem, Relation, elimination_rounds, expand_equalities, macmahon_lift
from .ratfun import combination_to_ratfun, count_lattice_points, render


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    method: str = "fp"
    fmt: str = "plain"
    seed: int = 0  # unused; kept because bench/tracing.py reads config.seed
    box: int = 8
    assert_bounded: bool = False  # unused; kept because bench/run.py sets it
    index_threshold: int = 1
    verbose: bool = False
    vector_exponents: bool = False


def parse_system(text: str) -> LDSystem:
    """Parse the constraint grammar above into an LDSystem."""
    rows: list[tuple[int, ...]] = []
    relations: list[Relation] = []
    rhs: list[int] = []
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        rel_positions = [i for i, t in enumerate(tokens) if t in (">=", "=")]
        if len(rel_positions) != 1:
            raise ParseError(f"line {lineno}: expected exactly one '>=' or '=' token")
        pos = rel_positions[0]
        coeff_tokens, rhs_tokens = tokens[:pos], tokens[pos + 1:]
        if not coeff_tokens or len(rhs_tokens) != 1:
            raise ParseError(f"line {lineno}: expected '<coefficients> {tokens[pos]} <rhs>'")
        try:
            coeffs = tuple(int(t) for t in coeff_tokens)
            beta = int(rhs_tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: coefficients must be integers") from None
        if width is None:
            width = len(coeffs)
        elif len(coeffs) != width:
            raise ParseError(
                f"line {lineno}: expected {width} coefficients, got {len(coeffs)}"
            )
        rows.append(coeffs)
        relations.append(Relation.GEQ if tokens[pos] == ">=" else Relation.EQ)
        rhs.append(beta)
    if not rows:
        raise ParseError("no constraints found in input")
    return LDSystem(tuple(rows), tuple(relations), tuple(rhs))


def combination_to_json(combination: ConeCombination, dimension: int | None = None) -> str:
    """Bit-exact cone JSON: canonical column order, big integers as strings."""
    dim = combination.ambient_dim if dimension is None else dimension
    cones = []
    for c, mult in combination.sorted_items():
        cones.append(
            {
                "mult": str(mult),
                "generators": [list(g) for g in c.generators],
                "apex": [
                    {"num": str(a // g), "den": str(c.den // g)}
                    for a, g in ((a, math.gcd(a, c.den)) for a in c.num)
                ],
                "open": list(c.openness),
            }
        )
    return json.dumps({"dimension": dim if dim is not None else 0, "cones": cones})


def _run_check(config: RunConfig, sys_: LDSystem, combination: ConeCombination) -> tuple[int, str]:
    d = sys_.num_variables
    for x in itertools.product(range(config.box + 1), repeat=d):
        expected = 1 if sys_.satisfies(x) else 0
        actual = eval_combination(combination, x)
        if actual != expected:
            return 1, f"FAIL at {x}: oracle {expected}, combination {actual}"
    return 0, "PASS"


def run(config: RunConfig, sys_: LDSystem) -> tuple[int, str, list[str]]:
    """Execute one subcommand; returns (status, output, diagnostic lines)."""
    if config.box < 0:
        raise ParseError(f"--box must be at least 0, got {config.box}")
    d = sys_.num_variables
    rows, rhs = expand_equalities(sys_)
    diagnostics = []
    # the rounds of solve(sys_); a system has at least one row, so there is
    # at least one round and ``combination`` is always bound
    rounds = elimination_rounds(macmahon_lift(rows, rhs), len(rows))
    for i, combination in enumerate(rounds, start=1):
        if config.verbose:
            bits = max(
                (abs(x).bit_length() for c in combination for g in c.generators for x in g),
                default=0,
            )
            diagnostics.append(
                f"iteration {i}: {len(combination)} cones "
                f"(bound {math.comb(d + i, d)}), max generator entry {bits} bits"
            )
    if config.subcommand == "solve":
        return 0, combination_to_json(combination, sys_.num_variables), diagnostics
    if config.subcommand == "ratfun":
        expr = combination_to_ratfun(
            combination, config.method, index_threshold=config.index_threshold
        )
        text = render(expr, config.fmt, vector_exponents=config.vector_exponents)
        return 0, text, diagnostics
    if config.subcommand == "count":
        return 0, str(count_lattice_points(combination)), diagnostics
    if config.subcommand == "check":
        status, message = _run_check(config, sys_, combination)
        return status, message, diagnostics
    raise ParseError(f"unknown subcommand: {config.subcommand!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcones",
        description="Exact solver for linear Diophantine systems over non-negative integers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # each subcommand accepts only the flags that ``run`` reads for it
    solve_p = sub.add_parser("solve", help="emit the signed symbolic-cone combination as JSON")
    ratfun_p = sub.add_parser("ratfun", help="emit a rational-function expression")
    ratfun_p.add_argument("--method", choices=["fp", "barvinok"], default="fp")
    ratfun_p.add_argument("--format", dest="fmt", choices=["json", "plain", "latex"],
                          default="plain")
    # absent unless given, so that main can refuse it with --method fp
    ratfun_p.add_argument("--index-threshold", type=int, default=argparse.SUPPRESS)
    ratfun_p.add_argument(
        "--vector-exponents",
        action="store_true",
        help="LaTeX output uses z^{(a,b,...)} instead of expanded variables",
    )
    count_p = sub.add_parser("count", help="count solutions (finite sets only)")
    check_p = sub.add_parser("check", help="verify the solver against the direct oracle on a box")
    check_p.add_argument("--box", type=int, default=8)
    for p in (solve_p, ratfun_p, count_p, check_p):
        p.add_argument("input", nargs="?", default="-", help="input file, '-' for stdin")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # RunConfig's defaults stand in for the flags a subcommand does not take
    # and for ratfun's --index-threshold when it is not given
    config = RunConfig(**{k: v for k, v in vars(args).items() if k != "input"})
    try:
        if config.method == "fp" and "index_threshold" in vars(args):
            raise ParseError("--index-threshold applies only to --method barvinok")
        if config.vector_exponents and config.fmt != "latex":
            raise ParseError("--vector-exponents applies only to --format latex")
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        sys_ = parse_system(text)
        status, output, diagnostics = run(config, sys_)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in diagnostics:
        print(line, file=sys.stderr)
    print(output)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
