"""symcones benchmark: one workload, one seed, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload tables-solve --seed 1 --seconds 50 --trace 0

Each op is one in-process ``symcones.cli.run(RunConfig(...), parse_system(text))``
call, sent only after the previous one returned, with the solver's own
``--seed`` left at 0. Op times are CPU times read at a reference speed
(``reference.py``). ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` composes the same ops from public calls with spans around each
and reports the per-layer metrics. Every output is checked by the oracles in
``oracles.py`` after the timed loop. Human-readable lines go to stdout, the
last stdout line is the JSON result, and the full record (spans included) is
written to ``bench/out/``. See ``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import random
import resource
import signal
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import oracles  # noqa: E402  (the script directory is on sys.path)
import reference  # noqa: E402
import stats  # noqa: E402
from workloads import (  # noqa: E402
    CHECK, CHECK_BOX, COUNT, RATFUN_BARVINOK, RATFUN_FP, SOLVE, WORKLOADS,
)

# One per-op limit for every workload, on the op's CPU time. The slowest
# passing op (a 3x3 table solve, at most 5.6 s wall on a 2-core VM) and the
# one failing op (fp on the random panel's index-5.4e6 system, which needs
# minutes) are both well clear of it.
OP_LIMIT_S = 15.0
# tracemalloc slows ops several times; this only guards against a hang.
MEMORY_LIMIT_S = 5 * OP_LIMIT_S
SETUP_REPEATS = 21
REPLAY_MAX_MATRICES = 64
# Passes at least run: three give every slot a median of three; two let a
# traced run check that its exact counts repeat.
MIN_PASSES = 3
# Within a pass an op slot is issued again, back to back, until it has used
# REPEAT_MIN_S: a short op is jittery, and the median of several runs
# repeats where a single sample does not. Ops of RUN_ONCE_S or more run once,
# so that long ops still get a run in many passes.
REPEAT_MIN_S = 0.3
REPEAT_MAX = 10
RUN_ONCE_S = 0.1
MIN_TRACED_PASSES = 2

PER_KIND_METRIC = {
    SOLVE: "solve_s",
    RATFUN_FP: "ratfun_fp_s",
    RATFUN_BARVINOK: "ratfun_barvinok_s",
    COUNT: "count_s",
    CHECK: "check_s",
}
RSS_WORKLOADS = ("tables-solve",)
END_TO_END = ("setup_s", "ops_per_s", "op_ms.p50", "op_ms.tail")
UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.tail": "ms",
    "error_rate": "ratio", "peak_rss_mb": "MB",
    **{name: "s" for name in PER_KIND_METRIC.values()},
}
TIME_LAYER_METRICS = {
    "elimination.lift_s": ("elimination.expand_equalities", "elimination.macmahon_lift"),
    "elimination.eliminate_s": ("elimination.eliminate_last_coordinate",),
    "cones.collect_s": ("cones.ConeCombination.add",),
    "cones.fundpar_s": ("cones.enum_fundpar",),
    "cones.eval_s": ("cones.eval_combination",),
    "barvinok.decompose_s": ("barvinok.barvinok_decompose",),
    "ratfun.count_eval_s": ("ratfun.evaluate_count",),
    "cli.parse_s": ("cli.parse_system",),
    "cli.render_s": ("cli.combination_to_json", "ratfun.render"),
}
REPLAY_METRICS = {
    "canonicalize": "cones.canonicalize_s",
    "det": "exactmath.det_s",
    "scaled_inverse": "exactmath.scaled_inverse_s",
    "snf": "exactmath.snf_s",
    "lll_reduce": "exactmath.lll_s",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_LAYER_METRICS},
    **{name: "s" for name in REPLAY_METRICS.values()},
    "elimination.rounds": "count",
    "elimination.cones_generated": "count",
    "elimination.cones_peak": "count",
    "elimination.cones_out": "count",
    "elimination.kept_ratio": "ratio",
    "elimination.max_gen_bits": "bits",
    "cones.fundpar_points": "count",
    "cones.fundpar_us_per_point": "us",
    "cones.contains_calls": "count",
    "barvinok.cones_in": "count",
    "barvinok.max_index": "count",
    "barvinok.leaves": "count",
    "ratfun.terms": "count",
    "ratfun.monomials": "count",
    "cli.output_bytes": "bytes",
    "ratfun.fp_failed": "count",
    "barvinok.failed": "count",
    "mem.alloc_peak_mb": "MB",
    "trace.overhead_ratio": "ratio",
}

# Per-layer counts that must repeat bit for bit across traced passes.
EXACT_COUNTS = (
    "elimination.rounds", "elimination.cones_generated", "elimination.cones_peak",
    "elimination.cones_out", "elimination.max_gen_bits", "cones.fundpar_points",
    "cones.contains_calls", "barvinok.cones_in", "barvinok.max_index", "barvinok.leaves",
    "ratfun.terms", "ratfun.monomials", "ratfun.fp_failed", "barvinok.failed",
)


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the solver eats it."""


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout once the process has used ``seconds`` of CPU time."""
    def on_alarm(signum, frame):
        raise OpTimeout

    previous = signal.signal(signal.SIGPROF, on_alarm)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def import_symcones():
    """Import the package from this checkout's ``src/``, nothing else."""
    for name in [m for m in sys.modules if m == "symcones" or m.startswith("symcones.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("symcones")
    cli = importlib.import_module("symcones.cli")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"symcones imported from {package.__file__}, not from {SRC}")
    return package, cli


def measure_setup(name: str, seed: int):
    """Median CPU time of SETUP_REPEATS fresh set-ups (import symcones, draw
    the workload's systems from the seed and render them to constraint
    text), read at the reference speed."""
    times, ticks = [], []
    clock = reference.Clock()
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the modules of the last set-up are cyclic garbage
        t0 = time.thread_time()
        package, cli = import_symcones()
        workload = WORKLOADS[name](seed)
        times.append(time.thread_time() - t0)
        ticks.append(clock.tick())
    scaled = [clock.scale(t, tick) for t, tick in zip(times, ticks)]
    return stats.median(scaled), times, package, cli, workload


def op_config(cli, kind: str):
    if kind == SOLVE:
        return cli.RunConfig("solve")
    if kind == CHECK:
        return cli.RunConfig("check", box=CHECK_BOX)
    if kind == RATFUN_FP:
        return cli.RunConfig("ratfun", method="fp", fmt="json")
    if kind == RATFUN_BARVINOK:
        return cli.RunConfig("ratfun", method="barvinok", fmt="json")
    if kind == COUNT:
        return cli.RunConfig("count", assert_bounded=True)
    raise ValueError(f"unknown op kind {kind!r}")


def fresh_state(package):
    """What a new CLI process would start from: empty function caches, the
    membership LRU among them. Untimed. The heap is not collected here: a
    full collection right before an op leaves the CPU caches cold and made
    short ops both slower and noisier than in a fresh process."""
    for module in list(sys.modules.values()):
        if module is not None and getattr(module, "__name__", "").startswith(package.__name__):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def execute(fn, limit: float):
    """(seconds, result, error) of fn() under the per-op time limit.

    The seconds are the thread's CPU time. An op is single-threaded,
    CPU-bound and does no I/O, so on an idle core this is its wall time; on a
    shared host it leaves out the time the hypervisor gave the core to other
    guests (steal), which the guest kernel accounts apart."""
    t0 = time.thread_time()
    try:
        with time_limit(limit):
            result = fn()
        error = None
    except OpTimeout:
        result, error = None, f"timeout>{limit:g}s"
    except Exception as exc:  # a crashing op is a failed op, not a crashed run
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.thread_time() - t0, result, error


class Result:
    """One run of an op. ``seconds`` is its CPU time; ``scaled`` is that time
    read at the reference speed, where the run was timed with a Clock."""

    __slots__ = ("op", "pass_index", "slot", "seconds", "scaled", "tick", "status", "output", "error")

    def __init__(self, op, pass_index, slot, seconds, status, output, error):
        self.op, self.pass_index, self.slot, self.seconds = op, pass_index, slot, seconds
        self.scaled, self.tick = seconds, None
        self.status, self.output, self.error = status, output, error

    @property
    def ok(self):
        return self.error is None


def run_untraced(op, pass_index, slot, package, cli) -> Result:
    config = op_config(cli, op.kind)
    fresh_state(package)
    seconds, result, error = execute(lambda: cli.run(config, cli.parse_system(op.text)), OP_LIMIT_S)
    status, output = (result[0], result[1]) if result else (None, None)
    return Result(op, pass_index, slot, seconds, status, output, error)


def loop_passes(seconds: float, run_pass, min_passes: int = 1):
    """Run whole passes while the next one is expected to end in time.

    ``run_pass(i)`` may return how long the next pass should take; by
    default it is taken to be as long as the last one."""
    start = time.perf_counter()
    index = 0
    while True:
        p0 = time.perf_counter()
        expected = run_pass(index)
        index += 1
        now = time.perf_counter()
        if expected is None:
            expected = now - p0
        if index >= min_passes and now - start + expected > seconds:
            return index, now - start


# --- answer checks ------------------------------------------------------------

def verify(results, seed: int) -> list[str]:
    """Mark wrong answers as failed ops; return a line per unverified op.

    The first finished run of an op is checked by the oracles; every other
    run of the same op must give exactly the same output."""
    adj_cache: dict = {}
    by_system: dict = {}
    for r in results:
        by_system.setdefault(r.op.system.sid, {}).setdefault(r.op.kind, []).append(r)
    notes = []
    for sid, runs in by_system.items():
        ops = {kind: next((r for r in rs if r.ok), rs[0]) for kind, rs in runs.items()}
        rng = random.Random(f"oracle:{seed}:{sid}")
        truth = {}
        for kind in (COUNT, SOLVE, CHECK, RATFUN_FP, RATFUN_BARVINOK):
            r = ops.get(kind)
            if r is None or not r.ok:
                continue
            problem = check_answer(r, ops, truth, rng, adj_cache)
            if problem is not None:
                if problem.startswith("unverified"):
                    notes.append(f"{r.op.op_id}: {problem}")
                else:
                    r.error = f"wrong answer: {problem}"
            for repeat in runs[kind]:
                if repeat.ok and (repeat.status, repeat.output) != (r.status, r.output):
                    repeat.error = "wrong answer: differs from an identical run of the same op"
    return notes


def check_answer(r, ops, truth, rng, adj_cache):
    system = r.op.system
    if r.op.kind == COUNT:
        parts, n = system.params
        expected = oracles.partition_count(parts, n)
        return None if r.output.strip() == str(expected) else f"count {r.output!r}, expected {expected}"
    if r.op.kind == SOLVE:
        combination = oracles.parse_combination(r.output, adj_cache)
        if system.family == "table":
            solutions = oracles.table_solutions(*system.params)
            bad = oracles.first_mismatch(combination, solutions, 1)
            if bad is None:
                probes = oracles.table_non_solutions(*system.params, solutions, rng, 12)
                bad = oracles.first_mismatch(combination, probes, 0)
        else:
            bad = None
            for x in itertools.product(range(CHECK_BOX + 1), repeat=len(system.rows[0])):
                want = 1 if oracles.satisfies(system.rows, system.relations, system.rhs, x) else 0
                if oracles.combination_value(combination, x) != want:
                    bad = x
                    break
        truth["solve_correct"] = bad is None
        return None if bad is None else f"combination wrong at {bad}"
    if r.op.kind == CHECK:
        if "solve_correct" not in truth:
            return "unverified: the solve op of this system did not finish"
        passed = r.status == 0 and r.output == "PASS"
        return None if passed == truth["solve_correct"] else f"check said {r.output!r}"
    # ratfun: fp and Barvinok of one system must be the same rational function
    fp, bv = ops.get(RATFUN_FP), ops.get(RATFUN_BARVINOK)
    if not (fp and bv and fp.ok and bv.ok):
        return "unverified: its fp/Barvinok partner did not finish"
    if "ratfun_equal" not in truth:
        a, b = oracles.parse_ratfun(fp.output), oracles.parse_ratfun(bv.output)
        dens = [v for terms in (a, b) for _, _, den in terms for v in den]
        z = oracles.pole_free_point(len(system.rows[0]), dens, rng)
        truth["ratfun_equal"] = oracles.ratfun_value(a, z) == oracles.ratfun_value(b, z)
    return None if truth["ratfun_equal"] else "fp and Barvinok rational functions differ"


# --- end-to-end run -----------------------------------------------------------

def end_to_end(workload, package, cli, seconds: float):
    """Timed loop. Pass 0 issues every op slot; later passes issue again the
    slots that have not failed, so a failure is paid once per run and every
    other slot gets several samples spread over the run. Short ops are
    repeated within a pass (REPEAT_MIN_S, RUN_ONCE_S). The reference kernel runs
    between every two runs (reference.Clock)."""
    results: list[Result] = []
    failed_slots: set[int] = set()
    clock = reference.Clock()

    def run_pass(index):
        next_pass_s = 0.0
        for slot, op in enumerate(workload.ops):
            t0, spent = time.perf_counter(), 0.0
            for _ in range(REPEAT_MAX):
                if slot in failed_slots or spent >= REPEAT_MIN_S:
                    break
                r = run_untraced(op, index, slot, package, cli)
                r.tick = clock.tick()
                results.append(r)
                spent += r.seconds
                if not r.ok:
                    failed_slots.add(slot)
                if r.seconds >= RUN_ONCE_S:
                    break
            if slot not in failed_slots:
                next_pass_s += time.perf_counter() - t0
        return next_pass_s

    passes, _ = loop_passes(seconds, run_pass, MIN_PASSES)
    for r in results:
        r.scaled = clock.scale(r.seconds, r.tick)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = time.perf_counter()
    notes = verify(results, workload.seed)
    notes.append(f"oracles checked {len(results)} outputs in {time.perf_counter() - t0:.2f} s, outside the timed loop")
    return results, passes, rss_mb, notes, clock.kernel_times


def end_to_end_metrics(results, passes, rss_mb, workload_name):
    """Latencies are CPU times read at the reference speed; a slot's latency
    is the median of its runs, or the limit if one of them failed."""
    samples: dict[int, list[tuple[float, bool]]] = {}
    raw: dict[int, list[tuple[float, bool]]] = {}
    kinds: dict[int, str] = {}
    for r in results:
        samples.setdefault(r.slot, []).append((r.scaled, r.ok))
        raw.setdefault(r.slot, []).append((r.seconds, r.ok))
        kinds[r.slot] = r.op.kind
    latency = stats.slot_latencies(samples, OP_LIMIT_S)
    ok_slots = [slot for slot, values in samples.items() if all(ok for _, ok in values)]
    latency_ms = [1000 * v for v in latency.values()]
    tail_value, tail_p, tail_beyond = stats.tail(latency_ms)
    metrics = {
        "ops_per_s": len(ok_slots) / sum(latency.values()),
        "op_ms.p50": stats.percentile(latency_ms, 50),
        "op_ms.tail": tail_value,
        "error_rate": slot_counts(results)[1] / len(samples),
    }
    notes = {
        "ops_per_s": f"{len(ok_slots)} ok op slots / their summed latency",
        "op_ms.p50": f"over {len(latency)} op slots, each the median of its runs in {passes} passes; "
                     f"unscaled CPU time {1000 * stats.median(stats.slot_latencies(raw, OP_LIMIT_S).values()):.4g} ms",
        "op_ms.tail": f"p{tail_p:g} of {len(latency)} op slots, {tail_beyond} beyond",
        "error_rate": f"failed / attempted over {len(samples)} op slots",
    }
    for kind, name in PER_KIND_METRIC.items():
        if kind in kinds.values():
            metrics[name] = sum(v for slot, v in latency.items() if kinds[slot] == kind)
            notes[name] = "summed latency of the op slots of this kind"
    if workload_name in RSS_WORKLOADS:
        metrics["peak_rss_mb"] = rss_mb
    return metrics, notes


# --- traced run ---------------------------------------------------------------

def traced(workload, package, cli, seconds: float):
    # tracing binds symcones names when imported, so it is imported only
    # after measure_setup has made its last fresh import of the package
    import tracing

    passes = []  # per pass: dict with tracer, counts, results, ...
    overhead = {"traced": 0.0, "untraced": 0.0}
    mem_peaks: list[float] = []
    mismatches: list[str] = []
    untraced_results: list[Result] = []
    clock = reference.Clock()

    def run_pass(index):
        tracer, counts = tracing.Tracer(), tracing.Counts()
        solve_cones, barvinok_inputs, results = [], [], []
        for slot, op in enumerate(workload.ops):
            config = op_config(cli, op.kind)
            plain = run_untraced(op, index, slot, package, cli) if index == 0 else None
            if plain is not None:
                plain.scaled = clock.scale(plain.seconds, clock.tick())
            fresh_state(package)
            tracer.op_id = op.op_id
            cones_of_op: list = []

            def composed():
                with tracer.span("bench.op"):
                    return tracing.traced_op(op, config, tracer, counts, cones_of_op)

            seconds_, result, error = execute(composed, OP_LIMIT_S)
            status, output = result if result else (None, None)
            r = Result(op, index, slot, seconds_, status, output, error)
            r.scaled = clock.scale(r.seconds, clock.tick())
            results.append(r)
            solve_cones.extend(cones_of_op)
            if op.kind in (COUNT, RATFUN_BARVINOK):
                barvinok_inputs.extend(cones_of_op)
            if plain is None:
                continue
            untraced_results.append(plain)
            if plain.ok != r.ok or (r.ok and (plain.status, plain.output) != (status, output)):
                mismatches.append(f"{op.op_id}: composed {r.error or 'output'} differs from cli.run {plain.error or 'output'}")
            if plain.ok and r.ok:
                overhead["traced"] += r.scaled
                overhead["untraced"] += plain.scaled
                fresh_state(package)
                tracemalloc.start()
                _, _, mem_error = execute(lambda: cli.run(config, cli.parse_system(op.text)), MEMORY_LIMIT_S)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                if mem_error is None:
                    mem_peaks.append(peak / 2**20)
        passes.append({
            "tracer": tracer, "counts": counts, "results": results,
            "solve_cones": solve_cones, "barvinok_inputs": barvinok_inputs,
        })

    loop_passes(seconds, run_pass, MIN_TRACED_PASSES)
    all_results = [r for p in passes for r in p["results"]]
    notes = verify(all_results, workload.seed) + verify(untraced_results, workload.seed)
    return passes, overhead, mem_peaks, mismatches, notes, all_results + untraced_results


def kernel_replay(package, cones_list):
    """Time canonicalize and the exactmath kernels once per distinct generator
    matrix (first REPLAY_MAX_MATRICES in op order). Extra work, in no op."""
    from symcones import exactmath

    seen = {}
    for c in cones_list:
        if c.generators not in seen and len(seen) < REPLAY_MAX_MATRICES:
            seen[c.generators] = c
    totals = dict.fromkeys(REPLAY_METRICS, 0.0)
    calls = dict.fromkeys(REPLAY_METRICS, 0)

    def timed(name, fn):
        t0 = time.perf_counter()
        value = fn()
        totals[name] += time.perf_counter() - t0
        calls[name] += 1
        return value

    for gens, c in seen.items():
        copy = package.SymbolicCone(gens, c.apex, c.openness)  # not marked canonical
        timed("canonicalize", lambda: package.canonicalize(copy))
        d = timed("det", lambda: exactmath.det(gens))
        adj, _ = timed("scaled_inverse", lambda: exactmath.scaled_inverse(gens))
        timed("snf", lambda: exactmath.snf(gens))
        if abs(d) > 1:  # Barvinok reduces only non-unimodular cones
            timed("lll_reduce", lambda: exactmath.lll_reduce(adj))
    return totals, calls, len(seen)


def per_layer_metrics(passes, overhead, mem_peaks, replay):
    import tracing
    from symcones import exactmath

    per_pass = []
    for p in passes:
        spans, counts = p["tracer"].spans, p["counts"].values
        done_ops = {r.op.op_id for r in p["results"] if r.ok}
        totals = tracing.name_totals(spans)
        done_totals = tracing.name_totals([s for s in spans if s[4] in done_ops])
        m = {name: sum(totals.get(n, 0.0) for n in names) for name, names in TIME_LAYER_METRICS.items()}
        m.update(counts)
        m["elimination.kept_ratio"] = (
            counts["elimination.cones_out"] / counts["elimination.cones_generated"]
            if counts["elimination.cones_generated"] else 0.0
        )
        points = counts["cones.fundpar_points"]
        m["cones.fundpar_us_per_point"] = (
            1e6 * done_totals.get("cones.enum_fundpar", 0.0) / points if points else 0.0
        )
        m["ratfun.fp_failed"] = sum(1 for r in p["results"] if not r.ok and r.op.kind == RATFUN_FP)
        m["barvinok.failed"] = sum(
            1 for r in p["results"] if not r.ok and r.op.kind in (RATFUN_BARVINOK, COUNT)
        )
        m["barvinok.max_index"] = max(
            (abs(exactmath.det(c.generators)) for c in set(p["barvinok_inputs"])), default=0
        )
        per_pass.append(m)

    exact = [{k: m[k] for k in EXACT_COUNTS} for m in per_pass]
    repeat_ok = all(e == exact[0] for e in exact)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if name in EXACT_COUNTS else stats.median(values)
    totals, _, _ = replay
    for kernel, name in REPLAY_METRICS.items():
        metrics[name] = totals[kernel]
    metrics["mem.alloc_peak_mb"] = max(mem_peaks, default=0.0)
    metrics["trace.overhead_ratio"] = (
        overhead["traced"] / overhead["untraced"] if overhead["untraced"] else 0.0
    )
    return metrics, per_pass, repeat_ok


def self_time_check(passes) -> tuple[bool, float]:
    """Sum of all spans' self times against the summed op spans' durations."""
    import tracing

    worst = 0.0
    for p in passes:
        spans = p["tracer"].spans
        own = sum(tracing.self_times(spans))
        roots = sum(end - start for name, start, end, parent, _, _ in spans if parent < 0)
        worst = max(worst, abs(own - roots))
    return worst < 1e-6, worst


# --- report -------------------------------------------------------------------

def slot_counts(results) -> tuple[int, int]:
    """(attempted, failed) op slots. A slot is one op on one input, timed
    once or more; it failed if any of its runs failed. Counting slots, not
    runs, makes both numbers depend on the seed alone, not on how many
    passes the machine's speed allowed."""
    failed: dict[int, bool] = {}
    for r in results:
        failed[r.slot] = failed.get(r.slot, False) or not r.ok
    return len(failed), sum(failed.values())


def failed_lines(results):
    grouped: dict = {}
    for r in results:
        if not r.ok:
            grouped.setdefault((r.op.op_id, r.error), []).append(r.pass_index)
    return [
        f"failed op {op_id}: {error} (pass {', '.join(map(str, idx))})"
        for (op_id, error), idx in sorted(grouped.items())
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "symcones" / "__init__.py").is_file():
        print(f"error: no symcones sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        setup_s, setup_times, package, cli, workload = measure_setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "op_limit_s": OP_LIMIT_S, "setup_times_s": setup_times,
    }
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace} "
             f"op limit {OP_LIMIT_S:g} s, one client, closed loop"]
    if args.trace == 0:
        results, passes, rss_mb, notes, kernel_times = end_to_end(workload, package, cli, args.seconds)
        record["kernel_times"] = kernel_times
        metrics, metric_notes = end_to_end_metrics(results, passes, rss_mb, args.workload)
        metrics["setup_s"] = setup_s
        metric_notes["setup_s"] = (
            f"median of {SETUP_REPEATS} set-ups; unscaled CPU time {stats.median(setup_times):.4g} s"
        )
        units = UNITS
        correct = not any(r.error and r.error.startswith("wrong") for r in results)
        attempted, failed = slot_counts(results)
        lines.append(f"{passes} passes, {len(results)} runs of {attempted} op slots, {failed} slots failed")
        reported = {k: metrics[k] for k in END_TO_END}
        record["ops"] = [
            [r.op.op_id, r.pass_index, r.slot, r.seconds, r.scaled, r.tick, r.error] for r in results
        ]
    else:
        passes, overhead, mem_peaks, mismatches, notes, all_results = traced(
            workload, package, cli, args.seconds
        )
        replay = kernel_replay(package, passes[0]["solve_cones"])
        metrics, per_pass, repeat_ok = per_layer_metrics(passes, overhead, mem_peaks, replay)
        spans_ok, worst = self_time_check(passes)
        units = PER_LAYER_UNITS
        metric_notes = {name: "per pass" for name in metrics}
        for name in REPLAY_METRICS.values():
            metric_notes[name] = f"kernel replay on {replay[2]} generator matrices, extra work in no op"
        traced_results = [r for p in passes for r in p["results"]]
        wrong = any(r.error and r.error.startswith("wrong") for r in all_results)
        correct = not wrong and not mismatches and repeat_ok and spans_ok
        attempted, failed = slot_counts(traced_results)
        lines.append(f"{len(passes)} traced passes, {len(traced_results)} runs of {attempted} op slots, {failed} slots failed")
        lines += [f"mismatch {m}" for m in mismatches]
        lines.append(f"exact counts repeat across passes: {repeat_ok}")
        lines.append(f"self times sum to op wall time: {spans_ok} (worst gap {worst:.3g} s)")
        for layer, row in sorted(tracing_layers(passes[0]).items()):
            lines.append(
                f"layer {layer}: {row['calls']} calls, total {row['total_s']:.6f} s, "
                f"self {row['self_s']:.6f} s (first traced pass)"
            )
        totals, calls, _ = replay
        for kernel in REPLAY_METRICS:
            lines.append(f"replay {kernel}: {calls[kernel]} calls, {totals[kernel]:.6f} s")
        reported = {k: metrics[k] for k in PER_LAYER_UNITS}
        record["per_pass"] = per_pass
        record["layers"] = [tracing_layers(p) for p in passes]
        record["spans"] = [p["tracer"].spans for p in passes]
        results = traced_results
    for name in sorted(metrics):
        extra = f" ({metric_notes[name]})" if name in metric_notes else ""
        lines.append(f"metric {name} = {metrics[name]:.6g} {units[name]}{extra}")
    lines += failed_lines(results)
    lines += [f"note {n}" for n in sorted(set(notes))]
    record["metrics"] = metrics
    record["lines"] = lines

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    for line in lines:
        print(line)
    print(f"record written to {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


def tracing_layers(pass_record):
    import tracing

    return tracing.layer_table(pass_record["tracer"].spans)


if __name__ == "__main__":
    sys.exit(main())
