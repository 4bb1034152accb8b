"""Alternating benchmark pairs of two commits, summarised as one BENCH_<n>.json.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \
        --seconds 50 --seed 101 --second-seed 7 --out BENCH_2.json

Each pair runs every workload of BENCHMARK.json once per commit, the parent
first in even pairs and the change first in odd ones. Every run is
``python3 bench/run.py --workload <w> --seed <s> --seconds <t> --trace 0`` in
a fresh ``git archive`` copy of its commit, with PYTHONDONTWRITEBYTECODE=1, so
no run reads another's bytecode or output. The last stdout line of a run is
its JSON result. The file written holds, per workload and end-to-end metric,
the change's median, quartiles and runs (``workloads``), the same for the
parent (``parent_workloads``), and the pairs the change won, ties counting
for neither. ``--second-seed`` adds one more pair on that seed. Standard
library only; the exit status is 1 when a run fails or reads incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 bench/run.py --workload {workload} --seed {seed} --seconds {seconds:g} --trace 0"


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(commit: str, workload: str, seed: int, seconds: float) -> dict:
    """One bench run of ``workload`` in a fresh copy of ``commit``: its JSON result line."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as copy:
        subprocess.run(["tar", "-x", "-C", copy], input=archive, check=True)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        argv = COMMAND.format(workload=workload, seed=seed, seconds=seconds).split()
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} on {commit[:12]} exited {done.returncode}: "
                           f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"  {commit[:12]} {workload}: correct {result['correct']}, failed {result['failed']}, "
          + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return result


def summary(results: list[dict], metrics: dict) -> dict:
    """Median, quartiles and runs of each end-to-end metric, and the run flags."""
    out = {}
    for name, unit in metrics.items():
        runs = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1
                          else runs * 3)
        out[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}
    for flag in ("failed", "attempted", "correct"):
        out[flag] = [r[flag] for r in results]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit measured as the parent")
    parser.add_argument("--change", required=True, help="commit measured as the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--second-seed", type=int, help="one more pair on this seed")
    parser.add_argument("--machine", default=f"{os.cpu_count()}-core {platform.machine()}, "
                                             f"{platform.system()}")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    parent, change = git("rev-parse", args.parent), git("rev-parse", args.change)

    def pair(index: int, seed: int, runs: dict) -> None:
        order = [("parent", parent), ("change", change)][::1 if index % 2 == 0 else -1]
        print(f"pair {index}, seed {seed}, {order[0][0]} first", flush=True)
        for workload in workloads:
            for side, commit in order:
                runs[workload][side].append(run_once(commit, workload, seed, args.seconds))

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for index in range(args.pairs):
        pair(index, args.seed, runs)
    wins = {}
    for workload, sides in runs.items():
        wins[workload] = {}
        for name in metrics:
            won = 0
            for p, c in zip(sides["parent"], sides["change"]):
                a, b = p["metrics"][name]["value"], c["metrics"][name]["value"]
                won += (b > a) if name in higher else (b < a)
            wins[workload][name] = {"change_wins": won, "pairs": args.pairs}
    command = COMMAND.format(workload="<workload>", seed=args.seed, seconds=args.seconds)
    record = {
        "commit": change,
        "python": platform.python_version(),
        "machine": args.machine,
        "command": command,
        "protocol": f"{args.pairs} pairs of parent and change, alternating which side runs "
                    "first (parent first in even pairs); each workload run once per side per "
                    "pair; every run from a fresh `git archive` copy with PYTHONDONTWRITEBYTECODE=1",
        "statistics": f"median and quartiles over the {args.pairs} runs, "
                      "statistics.quantiles(n=4, method='inclusive')",
        "workloads": {w: summary(s["change"], metrics) for w, s in runs.items()},
        "parent": parent,
        "parent_workloads": {w: summary(s["parent"], metrics) for w, s in runs.items()},
        "pairs_won_against_parent": wins,
    }
    everything = [r for s in runs.values() for side in s.values() for r in side]
    if args.second_seed is not None:
        second = {w: {"parent": [], "change": []} for w in workloads}
        pair(0, args.second_seed, second)
        keep = ("failed", "correct")
        record["second_seed"] = {
            "command": command.replace(f"--seed {args.seed}", f"--seed {args.second_seed}"),
            "pairs": 1,
            "runs": {w: {side: {**{k: r[0]["metrics"][k]["value"] for k in metrics},
                                **{k: r[0][k] for k in keep}}
                         for side, r in s.items()} for w, s in second.items()},
        }
        everything += [r for s in second.values() for side in s.values() for r in side]
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if all(r["correct"] is True for r in everything) else 1


if __name__ == "__main__":
    sys.exit(main())
