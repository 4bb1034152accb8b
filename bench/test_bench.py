"""Tests of the benchmark's own machinery: oracles, statistics, spans.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import stats
import tracing
import workloads


# --- oracles against brute force on tiny cases ------------------------------

@pytest.mark.parametrize("n", range(0, 16))
def test_partition_count_matches_enumeration(n):
    parts = workloads.PARTITION_PARTS
    brute = sum(
        1
        for x in itertools.product(*(range(n // p + 1) for p in parts))
        if sum(p * v for p, v in zip(parts, x)) == n
    )
    assert oracles.partition_count(parts, n) == brute


@pytest.mark.parametrize("rows, cols", [((1, 2), (1, 1, 1)), ((2, 1, 3), (2, 2, 2)), ((0, 3), (1, 0, 2))])
def test_table_solutions_match_enumeration(rows, cols):
    r, c = len(rows), len(cols)
    brute = [
        x for x in itertools.product(range(max(rows) + 1), repeat=r * c)
        if all(sum(x[i * c: (i + 1) * c]) == rows[i] for i in range(r))
        and all(sum(x[i * c + j] for i in range(r)) == cols[j] for j in range(c))
    ]
    assert sorted(oracles.table_solutions(rows, cols)) == sorted(brute)


def test_table_non_solutions_are_not_solutions():
    rows, cols = (2, 4, 6), (4, 4, 4)
    solutions = oracles.table_solutions(rows, cols)
    system = workloads.table_system(rows, cols, "t")
    probes = oracles.table_non_solutions(rows, cols, solutions, random.Random(3), 50)
    assert all(not oracles.satisfies(system.rows, system.relations, system.rhs, x) for x in probes)


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m)) if m[0][j]
    )


def test_adjugate_inverts_random_matrices():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(40):
            cols = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
            rows = [[cols[j][i] for j in range(n)] for i in range(n)]
            det = _cofactor_det(rows)
            if det == 0:
                with pytest.raises(ValueError):
                    oracles.adjugate(cols)
                continue
            adj, d = oracles.adjugate(cols)
            assert abs(d) == abs(det)
            for i in range(n):
                for k in range(n):
                    assert sum(adj[i][j] * rows[j][k] for j in range(n)) == (d if i == k else 0)


def _brute_contains(gens, apex, openness, x):
    """Membership by trying every lam in a grid of halves (tiny cases only)."""
    n = len(x)
    grid = [Fraction(k, 2) for k in range(0, 13)]
    for lam in itertools.product(grid, repeat=n):
        if any(l == 0 and bit for l, bit in zip(lam, openness)):
            continue
        if all(apex[i] + sum(lam[j] * gens[j][i] for j in range(n)) == x[i] for i in range(n)):
            return True
    return False


def test_cone_oracle_matches_grid_search():
    gens = ((1, 0), (1, 2))
    apex = (Fraction(1, 2), Fraction(0))
    cache = {}
    for openness in itertools.product((0, 1), repeat=2):
        cone = oracles.ConeOracle(gens, apex, openness, cache)
        for x in itertools.product(range(-1, 4), repeat=2):
            assert cone.contains(x) == _brute_contains(gens, apex, openness, x), (openness, x)


def test_combination_value_counts_signed_cones():
    text = json.dumps({"dimension": 1, "cones": [
        {"mult": "1", "generators": [[1]], "apex": [{"num": "0", "den": "1"}], "open": [0]},
        {"mult": "-1", "generators": [[1]], "apex": [{"num": "3", "den": "1"}], "open": [1]},
    ]})
    combination = oracles.parse_combination(text, {})
    assert [oracles.combination_value(combination, (x,)) for x in range(-1, 6)] == [0, 1, 1, 1, 1, 0, 0]


def test_ratfun_value_matches_power_series_of_a_finite_set():
    # 1/(1-z) - z^3/(1-z) = 1 + z + z^2
    terms = [(1, [(0,)], [(1,)]), (-1, [(3,)], [(1,)])]
    z = (Fraction(2, 3),)
    assert oracles.ratfun_value(terms, z) == 1 + z[0] + z[0] ** 2
    # the Barvinok form of the same cone, with its denominator flipped
    flipped = [(-1, [(-1,)], [(-1,)]), (1, [(2,)], [(-1,)])]
    assert oracles.ratfun_value(flipped, z) == oracles.ratfun_value(terms, z)


def test_pole_free_point_avoids_every_pole():
    exponents = [(1, -1), (2, -2), (0, 1)]
    z = oracles.pole_free_point(2, exponents, random.Random(0))
    for v in exponents:
        assert z[0] ** v[0] * z[1] ** v[1] != 1


# --- statistics ---------------------------------------------------------------

def test_tail_takes_highest_percentile_with_ten_beyond():
    assert stats.tail(list(range(1, 21))) == (10, 50.0, 10)
    assert stats.tail(list(range(1, 41))) == (30, 75.0, 10)
    assert stats.tail(list(range(1, 101))) == (90, 90.0, 10)
    assert stats.tail(list(range(1, 1001))) == (990, 99.0, 10)


def test_tail_falls_back_to_median_below_twenty_samples():
    value, p, beyond = stats.tail([5.0, 1.0, 3.0])
    assert (value, p) == (3.0, 50.0)
    assert beyond < stats.TAIL_MIN_BEYOND


def test_slot_latency_is_median_sample_and_failure_is_charged_the_limit():
    samples = {
        0: [(0.3, True), (0.25, True), (0.4, True)],
        1: [(0.001, False)],  # fast error
        2: [(15.02, False)],  # timeout
        3: [(0.2, True), (0.1, False)],  # failed in a later pass
    }
    assert stats.slot_latencies(samples, 15.0) == {0: 0.3, 1: 15.0, 2: 15.0, 3: 15.0}


# --- spans --------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["bench.op", 0.0, 10.0, -1, "a", True],
        ["cli.x", 1.0, 4.0, 0, "a", True],
        ["cones.y", 2.0, 3.0, 1, "a", True],
        ["cones.z", 5.0, 9.0, 0, "a", True],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == 10.0
    table = tracing.layer_table(spans)
    assert table["cones"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert table["cli"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}


def test_tracer_nests_and_closes_spans_on_exceptions():
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("bench.op"):
            with tracer.span("cli.inner"):
                raise RuntimeError
    (outer, inner) = tracer.spans
    assert inner[3] == 0 and outer[3] == -1
    assert not outer[5] and not inner[5]
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


# --- workloads ----------------------------------------------------------------

def test_same_seed_same_inputs_and_scaling_keeps_shape():
    a = [op.text for op in workloads.TablesSolve(5).ops]
    assert a == [op.text for op in workloads.TablesSolve(5).ops]
    assert {op.system.rows for op in workloads.TablesSolve(6).ops} == {
        op.system.rows for op in workloads.TablesSolve(5).ops
    }
    panels = [[op.system.rows for op in workloads.RandomSystems(seed).ops] for seed in (1, 2)]
    assert panels[0] == panels[1][:-1] + [panels[0][-1]]  # only the partition N may differ
    assert len(set(panels[0])) == workloads.PANEL_SIZE + 1  # the panel and the partition equation


def test_composed_ops_equal_cli_run():
    from symcones import cli

    from run import op_config

    for workload in (workloads.TablesSolve(0), workloads.RandomSystems(0)):
        for op in workload.ops:
            if op.system.sid.startswith(("t3x3", "rs00", "part")):
                continue  # slow or hanging; the benchmark's traced run covers them
            config = op_config(cli, op.kind)
            expected = cli.run(config, cli.parse_system(op.text))[:2]
            got = tracing.traced_op(op, config, tracing.Tracer(), tracing.Counts(), [])
            assert got == expected, op.op_id


def test_benchmark_json_lists_what_the_run_reports():
    import run

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: run.UNITS[name] for name in run.END_TO_END
    }
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS


def test_verify_checks_first_run_and_repeats_against_it():
    import run

    system = workloads.partition_system(10, "p0-N10")
    op = workloads.Op("p0-N10.count", workloads.COUNT, system, system.text())
    right = str(oracles.partition_count(workloads.PARTITION_PARTS, 10))
    results = [
        run.Result(op, 0, 0, 0.1, 0, right, None),
        run.Result(op, 0, 0, 0.1, 0, right, None),
        run.Result(op, 0, 0, 0.1, 0, "0", None),
        run.Result(op, 1, 0, 0.1, 0, "0", None),
    ]
    run.verify(results, seed=0)
    assert [r.ok for r in results] == [True, True, False, False]


def test_clock_scales_by_the_kernel_runs_around_an_op():
    import reference

    clock = reference.Clock()
    clock.kernel_times = [0.002, 0.004, 0.1, 0.004]
    nominal = reference.NOMINAL_S
    assert clock.scale(1.0, 1) == pytest.approx(nominal / 0.003)
    assert clock.scale(1.0, 3) == pytest.approx(nominal / 0.052)
    assert clock.tick() == 4 and len(clock.kernel_times) == 5


def test_attempted_and_failed_count_op_slots_not_runs():
    import run

    system = workloads.partition_system(10, "N10")
    op = workloads.Op("N10.count", workloads.COUNT, system, system.text())
    results = [
        run.Result(op, 0, 0, 0.1, 0, "1", None),
        run.Result(op, 1, 0, 0.1, 0, "1", None),
        run.Result(op, 0, 1, 15.0, None, None, "timeout>15s"),
        run.Result(op, 0, 2, 0.1, 0, "1", None),
        run.Result(op, 1, 2, 0.1, 0, "0", "wrong answer"),
    ]
    assert run.slot_counts(results) == (3, 2)
    assert run.slot_counts(results[:2]) == (1, 0)


def test_time_limit_counts_cpu_time():
    import run

    seconds, result, error = run.execute(lambda: sum(i for i in itertools.count()), 0.05)
    assert result is None and error == "timeout>0.05s"
    assert 0.05 <= seconds < 1.0
    seconds, result, error = run.execute(lambda: 7, 0.05)
    assert (result, error) == (7, None) and 0 <= seconds < 0.05
