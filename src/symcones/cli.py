"""Command-line front end.

Input format: one constraint per line, ``#`` starts a comment, blank lines
are skipped. A line holds d integer coefficients, a relation token (``>=``
or ``=``) and one integer right-hand side; the variable count is inferred
from the first constraint. Subcommands::

    solve   emit the signed cone combination as JSON
    ratfun  emit a rational-function expression (plain, latex or json)
    count   emit the number of solutions of a finite set
    check   compare with the direct oracle on a box: cone facets and system rows
            cut every x_d line in bulk, the oracle's interval counted with -1

No choice is random: ``ratfun --method barvinok`` half-opens each cone along
its own xi = V·(±1), so the same input always gives the same bytes.

``solve`` writes its JSON directly, byte for byte what ``json.dumps`` prints
with its default separators (README), formatting each distinct V once.

Exit status: 0 on success or PASS, 1 on FAIL, 2 on usage errors and
refused input, each with one ``error:`` line on stderr: ``count`` on an
infinite solution set, a parallelepiped over the enumeration cap (fp, or
barvinok with ``--index-threshold`` above it), a ``--box`` below 0 or past
the scan cap in x_d bounds (lines x half-spaces), ``--index-threshold`` with
``ratfun --method fp``, or ``--vector-exponents`` without ``--format latex``.
"""

from __future__ import annotations

import argparse
import itertools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass

from .barvinok import decompose_combination
from .cones import ConeCombination, _product_sums
from .elimination import LDSystem, _solve_groups, expand_equalities
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
    index_threshold: int | None = None  # Barvinok only; None means 1
    verbose: bool = False
    vector_exponents: bool = False


def parse_system(text: str) -> LDSystem:
    """Parse the constraint grammar above into an LDSystem."""
    rows: list[tuple[int, ...]] = []
    relations: list[str] = []
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
        relations.append(tokens[pos])
        rhs.append(beta)
    if not rows:
        raise ParseError("no constraints found in input")
    return LDSystem(tuple(rows), tuple(relations), tuple(rhs))


def combination_to_json(combination: ConeCombination, dimension: int | None = None) -> str:
    """Bit-exact cone JSON: canonical column order, big integers as strings."""
    dim = combination.ambient_dim if dimension is None else dimension
    cones, opens = [], {}  # each openness pattern's text, made once
    for v, apexes in combination._sorted_groups():
        # a list's repr is its JSON with ", " separators
        gens = repr([list(g) for g in v])
        for (num, den), patterns in apexes:
            if den == 1:
                apex = ", ".join(['{"num": "%d", "den": "1"}' % a for a in num])
            else:
                apex = ", ".join(['{"num": "%d", "den": "%d"}' % (a // g, den // g)
                                  for a, g in ((a, math.gcd(a, den)) for a in num)])
            head = '", "generators": %s, "apex": [%s], "open": ' % (gens, apex)
            for bits, mult in patterns:
                if (text := opens.get(bits)) is None:
                    text = opens[bits] = repr(list(bits)) + "}"
                cones.append('{"mult": "%d%s%s' % (mult, head, text))
    return '{"dimension": %d, "cones": [%s]}' % (dim or 0, ", ".join(cones))


# check charges (box+1)^(d-1) lines x half-spaces x_d bounds, what the scan
# pays at 60-110 ns each (Python 3.11): the cap bounds a scan at about 0.55 s
MAX_CHECK_VALUES = 5 * 10**6
# the scan holds a value or two per line and half-space; it takes the box in
# blocks of lines that share x_1..x_k, so that a block holds at most this many
CHECK_BLOCK_VALUES = 2**18


def _primitive(row: tuple[int, ...], offset: int) -> tuple[tuple[int, ...], int]:
    """row.x >= offset over the integers, with row divided by its gcd."""
    g = math.gcd(*row) or 1
    return tuple(a // g for a in row), -(-offset // g)


def _oracle_forms(sys_: LDSystem) -> list[tuple[tuple[int, ...], int]]:
    """The ``expand_equalities`` rows of the system as ``_primitive`` (row, offset) half-spaces."""
    return list(map(_primitive, *expand_equalities(sys_)))


def _line_values(forms, lines: dict, box: int) -> tuple[list[int], list[int]]:
    """Per-line lo and hi of the x_d in [0, box] where row.x - offset >= 0 for every (row, offset).

    Line i fixes the other coordinates to the i-th prefix in product order;
    ``lines`` caches ``_product_sums`` by row[:-1]. With p = row.(prefix, 0) -
    offset and a = row[-1]: a > 0 gives lo = -(p // a), a < 0 gives hi =
    p // -a, and a = 0 empties the line where p < 0. A line is empty where lo > hi.
    """
    n = (box + 1) ** (len(forms[0][0]) - 1)
    lo, hi = [0] * n, [box] * n
    for row, offset in forms:
        head, a = row[:-1], row[-1]
        sums = lines.get(head)
        if sums is None:
            sums = lines[head] = _product_sums(head, [range(box + 1)] * len(head))
        if a > 0:
            lo = [x if x > (y := -((s - offset) // a)) else y for x, s in zip(lo, sums)]
        elif a < 0:
            hi = [x if x < (y := (s - offset) // -a) else y for x, s in zip(hi, sums)]
        else:
            hi = [x if s >= offset else -1 for x, s in zip(hi, sums)]
    return lo, hi


def _first_gap(intervals, width: int) -> tuple[int, int] | None:
    """First (point, gap) where the ((lo, hi), mult) intervals do not sum to 0, or None.

    The lines lie end to end, line i covering points i*width .. i*width + width-1,
    so the sum is 0 iff its difference array is: every point gains as much
    multiplicity from the intervals that start there as from those that end
    just before it. The first non-zero difference is the first gap in product
    order, and equals the sum there.
    """
    starts, ends = Counter(), Counter()
    for (lo, hi), mult in intervals:
        touched = list(map(operator.le, lo, hi))
        end = len(lo) * width
        first = itertools.compress(map(operator.add, range(0, end, width), lo), touched)
        past = itertools.compress(map(operator.add, range(1, end, width), hi), touched)
        up, down = (first, past) if mult > 0 else (past, first)
        k = abs(mult)
        starts.update(up if k == 1 else dict.fromkeys(up, k))
        ends.update(down if k == 1 else dict.fromkeys(down, k))
    # every count is positive, so plain dict equality is exact (and runs in C)
    if dict.__eq__(starts, ends):
        return None
    point = min(key for key in starts.keys() | ends.keys() if starts[key] != ends[key])
    return point, starts[point] - ends[point]


def _run_check(config: RunConfig, sys_: LDSystem, combination: ConeCombination) -> tuple[int, str]:
    box, d = config.box, sys_.num_variables
    width = box + 1
    oracle = _oracle_forms(sys_)
    # the oracle enters with multiplicity -1, so a pass sums to 0 everywhere
    scans = [(oracle, -1)]
    scans += [([_primitive(row, offset + bit) for row, offset, bit in facets], m)
              for facets, m in combination._facet_entries()]
    half_spaces = sum(len(forms) for forms, _ in scans)
    if (values := width ** (d - 1) * half_spaces) > MAX_CHECK_VALUES:
        raise ParseError(f"check would cut {values} x_d bounds (lines x half-spaces), "
                         f"more than {MAX_CHECK_VALUES}; use a smaller --box")
    # a block fixes x_1..x_k to head; its lines run over x_{k+1}..x_{d-1}
    inner = d - 1
    while inner and width ** inner * half_spaces > CHECK_BLOCK_VALUES:
        inner -= 1
    lines: dict = {}
    for head in itertools.product(range(width), repeat=d - 1 - inner):
        k = len(head)
        intervals = []
        for forms, mult in scans:
            rest = [(row[k:], offset - sum(map(operator.mul, row, head))) for row, offset in forms]
            intervals.append((_line_values(rest, lines, box), mult))
        found = _first_gap(intervals, width)
        if found:
            point, gap = found
            line, t = divmod(point, width)
            (lo, hi), _ = intervals[0]
            expected = int(lo[line] <= t <= hi[line])
            prefix = next(itertools.islice(itertools.product(range(width), repeat=inner), line, None))
            return 1, (f"FAIL at {head + prefix + (t,)}: "
                       f"oracle {expected}, combination {expected + gap}")
    return 0, "PASS"


def run(config: RunConfig, sys_: LDSystem) -> tuple[int, str, list[str]]:
    """Execute one subcommand; returns (status, output, diagnostic lines)."""
    if config.box < 0:
        raise ParseError(f"--box must be at least 0, got {config.box}")
    if config.index_threshold is not None and config.method == "fp":
        raise ParseError("--index-threshold applies only to --method barvinok")
    if config.vector_exponents and config.fmt != "latex":
        raise ParseError("--vector-exponents applies only to --format latex")
    d = sys_.num_variables
    diagnostics = []
    rows = expand_equalities(sys_)[0] if config.verbose else ()
    # there is at least one round, so ``groups`` is always bound
    for i, groups in enumerate(_solve_groups(sys_), start=1):
        if config.verbose:
            # the lifted generator's entries: g, and row.g for the rows still pending
            pending = rows[:-i]
            bits = max((abs(x).bit_length() for v in groups for g in v
                        for x in (*g, *(sum(map(operator.mul, r, g)) for r in pending))),
                       default=0)
            cones = sum(len(patterns) for apexes in groups.values() for patterns in apexes.values())
            diagnostics.append(
                f"iteration {i}: {cones} cones "
                f"(bound {math.comb(d + i, d)}), max generator entry {bits} bits"
            )
    combination = ConeCombination._from_groups(groups)
    if config.subcommand == "solve":
        return 0, combination_to_json(combination, sys_.num_variables), diagnostics
    if config.subcommand == "ratfun":
        if config.method == "barvinok":
            threshold = 1 if config.index_threshold is None else config.index_threshold
            combination = decompose_combination(combination, threshold)
        elif config.method != "fp":
            raise ParseError(f"unknown conversion method: {config.method!r}")
        text = render(combination_to_ratfun(combination), config.fmt,
                      vector_exponents=config.vector_exponents)
        return 0, text, diagnostics
    if config.subcommand == "count":
        return 0, str(count_lattice_points(combination)), diagnostics
    if config.subcommand == "check":
        return (*_run_check(config, sys_, combination), diagnostics)
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
    ratfun_p.add_argument("--index-threshold", type=int)
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
    config = RunConfig(**{k: v for k, v in vars(args).items() if k != "input"})
    try:
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
