"""Span recording and the traced composition of each op from public calls.

The traced run does not touch ``src/``: it rebuilds what ``symcones.cli.run``
does for one op out of the package's public functions and records a span
around each call. The composed output is compared with ``cli.run``'s output
for the same op, so the spans are known to cover the same work.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import defaultdict
from contextlib import contextmanager

from symcones import barvinok, cli, cones, elimination, ratfun
from workloads import CHECK, CHECK_BOX, COUNT, RATFUN_BARVINOK, RATFUN_FP, SOLVE


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, op id, completed)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op_id, False]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
            record[5] = True
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread and nest properly, so children of a span do
    not overlap each other and their durations can simply be subtracted.
    """
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per layer (span name up to the first dot): calls, total and self time.

    Totals of nested spans of one layer are not double counted: a span whose
    parent is in the same layer adds to calls and self time only.
    """
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, parent, _, _), own in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        row = table[layer]
        row["calls"] += 1
        row["self_s"] += own
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            row["total_s"] += end - start
    return dict(table)


def name_totals(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _, _, _ in spans:
        out[name] += end - start
    return out


def max_entry_bits(combination) -> int:
    return max(
        (abs(x).bit_length() for c in combination for g in c.generators for x in g),
        default=0,
    )


def is_forward(v) -> bool:
    return next(x for x in v if x != 0) > 0


def forward_normalized(mult, nums, dens):
    """z^u / (1 - z^v) == -z^(u-v) / (1 - z^-v), applied to backward v."""
    for i, v in enumerate(dens):
        if not is_forward(v):
            mult = -mult
            nums = tuple(tuple(a - b for a, b in zip(u, v)) for u in nums)
            dens = dens[:i] + (tuple(-x for x in v),) + dens[i + 1:]
    return mult, nums, dens


def count_direction(dens, dimension: int):
    """First point (1, k, k^2, ...) of the moment curve off every hyperplane
    orthogonal to a denominator exponent."""
    k = 1
    while True:
        lam = tuple(k ** i for i in range(dimension))
        if all(sum(a * b for a, b in zip(lam, v)) != 0 for v in dens):
            return lam
        k += 1


class Counts:
    """Work counts of one traced pass, added up over its finished ops."""

    FIELDS = (
        "elimination.rounds", "elimination.cones_generated", "elimination.cones_peak",
        "elimination.cones_out", "elimination.max_gen_bits", "cones.fundpar_points",
        "cones.contains_calls", "barvinok.cones_in", "barvinok.leaves",
        "ratfun.terms", "ratfun.monomials", "cli.output_bytes",
    )

    def __init__(self):
        self.values = dict.fromkeys(self.FIELDS, 0)

    def add(self, key, value):
        self.values[key] += value

    def peak(self, key, value):
        self.values[key] = max(self.values[key], value)


def traced_op(op, config, tracer: Tracer, counts: Counts, solve_cones: list):
    """Run one op as composed public calls; returns (status, output).

    ``counts`` and ``solve_cones`` (the op's solve output) are only written
    once the op has finished, so a timed-out op leaves no partial counts.
    """
    local = Counts()
    with tracer.span("cli.parse_system"):
        sys_ = cli.parse_system(op.text)
    d = sys_.num_variables
    with tracer.span("elimination.expand_equalities"):
        rows, rhs = elimination.expand_equalities(sys_)
    with tracer.span("elimination.macmahon_lift"):
        lifted = elimination.macmahon_lift(rows, rhs)
    with tracer.span("cones.ConeCombination.add"):
        current = cones.ConeCombination()
        current.add(lifted, 1)
    for _ in range(len(rows)):
        nxt = cones.ConeCombination()
        for c, mult in current.items():
            with tracer.span("elimination.eliminate_last_coordinate"):
                part = elimination.eliminate_last_coordinate(c)
            local.add("elimination.cones_generated", len(part))
            with tracer.span("cones.ConeCombination.add"):
                for c2, m2 in part.items():
                    nxt.add(c2, mult * m2)
        current = nxt
        local.add("elimination.rounds", 1)
        local.peak("elimination.cones_peak", len(current))
        local.peak("elimination.max_gen_bits", max_entry_bits(current))
    combination = current
    local.add("elimination.cones_out", len(combination))

    status = 0
    if op.kind == SOLVE:
        with tracer.span("cli.combination_to_json"):
            output = cli.combination_to_json(combination, d)
    elif op.kind == CHECK:
        output = "PASS"
        for x in itertools.product(range(CHECK_BOX + 1), repeat=d):
            with tracer.span("cones.eval_combination"):
                actual = cones.eval_combination(combination, x)
            local.add("cones.contains_calls", len(combination))
            expected = 1 if sys_.satisfies(x) else 0
            if actual != expected:
                status, output = 1, f"FAIL at {x}: oracle {expected}, combination {actual}"
                break
    elif op.kind == RATFUN_FP:
        expr = _terms(combination, tracer, local, barvinok_leaves=False)
        with tracer.span("ratfun.render"):
            output = ratfun.render(expr, config.fmt)
    elif op.kind == RATFUN_BARVINOK:
        leaves = _decompose(combination, random.Random(config.seed), tracer, local)
        expr = _terms(leaves, tracer, local, barvinok_leaves=True)
        with tracer.span("ratfun.render"):
            output = ratfun.render(expr, config.fmt)
    elif op.kind == COUNT:
        if len(combination) == 0:
            output = "0"
        else:
            leaves = _decompose(combination, random.Random(config.seed), tracer, local)
            expr = _terms(leaves, tracer, local, barvinok_leaves=True)
            if not expr.terms:
                output = "0"
            else:
                direction = count_direction(
                    [v for t in expr.terms for v in t.denominator], expr.dimension
                )
                with tracer.span("ratfun.evaluate_count"):
                    output = str(ratfun.evaluate_count(expr, direction))
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")
    local.add("cli.output_bytes", len(output.encode()))
    for key, value in local.values.items():
        if key in ("elimination.cones_peak", "elimination.max_gen_bits"):
            counts.peak(key, value)
        else:
            counts.add(key, value)
    solve_cones.extend(combination)
    return status, output


def _decompose(combination, rng, tracer, local):
    out = cones.ConeCombination()
    for c, mult in combination.items():
        with tracer.span("barvinok.barvinok_decompose"):
            part = barvinok.barvinok_decompose(c, 1, rng)
        local.add("barvinok.cones_in", 1)
        local.add("barvinok.leaves", len(part))
        with tracer.span("cones.ConeCombination.add"):
            for leaf, sign in part.items():
                out.add(leaf, mult * sign)
    return out


def _terms(combination, tracer, local, barvinok_leaves: bool):
    """What cone_to_term_fp does per cone, with the enumeration as its own span."""
    terms = []
    for c, mult in combination.sorted_items():
        with tracer.span("cones.enum_fundpar"):
            points = cones.enum_fundpar(c)
        local.add("cones.fundpar_points", len(points))
        with tracer.span("ratfun.RatFunTerm"):
            term = ratfun.RatFunTerm(1, tuple(sorted(points)), c.generators)
            if term.is_zero:
                continue
            m, nums, dens = mult * term.mult, term.numerator, term.denominator
            if barvinok_leaves:
                m, nums, dens = forward_normalized(m, nums, dens)
            terms.append(ratfun.RatFunTerm(m, nums, dens))
        local.add("ratfun.terms", 1)
        local.add("ratfun.monomials", len(nums))
    return ratfun.RatFunExpr(tuple(terms))
