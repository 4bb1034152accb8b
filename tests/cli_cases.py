"""Every recorded CLI output, and the one runner that checks them.

A case is ``(name, argv, stdin, status, expected)``, or with a sixth field,
the exact stderr of a ``--verbose`` run. ``failures`` runs it as
``python -S -m symcones <argv> -`` with only ``src/`` on ``PYTHONPATH``, so a
third-party import in the package fails it, and gives each run 30 s.

- Status 0: stderr equals the sixth field, empty when there is none, and
  stdout ends in one newline. Without it, stdout equals ``expected``, or its
  SHA-256 does when ``expected`` is a 64-digit hex digest.
- Status 2: stdout is empty, and stderr is one line starting ``error: ``.

Run every case with ``PYTHONPATH=src python -S tests/cli_cases.py``: it exits
non-zero with one line per failing case. ``tests/test_cli.py`` runs the same
table under pytest. A new recorded output belongs here, and only here.

This module imports only the standard library, and nothing from symcones.
"""

import hashlib
import os
import re
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TIME_LIMIT_S = 30

TABLE_33 = ("1 1 1 0 0 0 0 0 0 = 6\n0 0 0 1 1 1 0 0 0 = 6\n0 0 0 0 0 0 1 1 1 = 6\n"
            "1 0 0 1 0 0 1 0 0 = 6\n0 1 0 0 1 0 0 1 0 = 6\n")
RANDOM_12 = "2 -1 5 >= 0\n3 5 0 >= 2\n-3 1 -5 >= -1\n"
RANDOM_1 = "-3 4 -4 >= 1\n-1 -4 2 >= -2\n2 2 5 >= -4\n"
KNAPSACK = "2 3 5 7 11 13 = 60\n"
RS00 = "4 -3 -2 -3 >= -15\n-2 -3 5 5 >= 9\n-4 -3 -1 -5 >= -9\n2 2 5 -4 >= 6\n"
TABLE_246_444 = ("1 1 1 0 0 0 0 0 0 = 2\n0 0 0 1 1 1 0 0 0 = 4\n0 0 0 0 0 0 1 1 1 = 6\n"
                 "1 0 0 1 0 0 1 0 0 = 4\n0 1 0 0 1 0 0 1 0 = 4\n")
DRAW_37_3 = "-1 5 -2 4 -3 >= 5\n-4 -3 1 4 -5 >= -3\n-4 3 5 -1 -4 >= 3\n"

CASES = [
    # -S drops site-packages, so a third-party import in src/ fails here
    ("count-smoke", ["count"], "1 1 = 100\n", 0, "101"),
    # the LLL -> Barvinok -> count path
    ("count-partition-15", ["count"], "1 2 3 4 5 = 15\n", 0, "84"),
    # 1168 unimodular leaves in 581 denominator sets: the grouped evaluation
    ("count-knapsack-60", ["count"], KNAPSACK, 0, "893"),
    # 7 primes up to 100: 5826 leaves, a regression oracle for count
    ("count-knapsack-100", ["count"], "2 3 5 7 11 13 17 = 100\n", 0, "11917"),
    # 912 Barvinok leaves in 102 denominator sets; 406 is (t+1)(t+2)(t^2+3t+4)/8 at t = 6
    ("count-table-33", ["count"], TABLE_33, 0, "406"),
    # rows 4 and columns 3, as bench/workloads.table_system writes it: 6144 unimodular cones
    ("count-table-34", ["count"],
     "1 1 1 1 0 0 0 0 0 0 0 0 = 4\n0 0 0 0 1 1 1 1 0 0 0 0 = 4\n"
     "0 0 0 0 0 0 0 0 1 1 1 1 = 4\n1 0 0 0 1 0 0 0 1 0 0 0 = 3\n"
     "0 1 0 0 0 1 0 0 0 1 0 0 = 3\n0 0 1 0 0 0 1 0 0 0 1 0 = 3\n", 0, "415"),
    # each cone's facets cut an interval of x_d per line of the box
    ("check-intro", ["check", "--box", "6"], "2 3 -5 >= 4\n", 0, "PASS"),
    # equality rows only, so the oracle's == branch decides every point
    ("check-table-23", ["check", "--box", "3"],
     "1 1 1 0 0 0 = 2\n0 0 0 1 1 1 = 4\n1 0 0 1 0 0 = 2\n0 1 0 0 1 0 = 2\n", 0, "PASS"),
    # rs00 of the random-systems panel: 11 cones' facets and 4 rows cut every line of [0,4]^4
    ("check-rs00-box-4", ["check", "--box", "4"], RS00, 0, "PASS"),
    # 31^3 lines x 48 half-spaces, 1.43M x_d bounds, under the scan cap, cut into blocks
    ("check-rs00-box-30", ["check", "--box", "30"], RS00, 0, "PASS"),
    # no cones, but 9^8 lines still cost the oracle's 2 half-spaces each: refused, not scanned
    ("check-empty-over-cap", ["check"],
     "1 1 1 1 1 1 1 1 1 >= 100\n-1 -1 -1 -1 -1 -1 -1 -1 -1 >= -5\n", 2, None),
    # elimination plans shared per (V, sign q_n)
    ("solve-table-246-444", ["solve"], TABLE_246_444, 0,
     "23f56e85b3986304ae60c4f0c662b0e58f7d1e9a9d60eb6da02fc5399edb9222"),
    # cones per round and the largest entry of a lifted generator (x, row.x
    # over the rows not yet eliminated), recorded while solve still lifted
    ("solve-verbose-table-246-444", ["solve", "--verbose"], TABLE_246_444, 0,
     "23f56e85b3986304ae60c4f0c662b0e58f7d1e9a9d60eb6da02fc5399edb9222",
     "".join(f"iteration {i}: {n} cones (bound {b}), max generator entry 1 bits\n"
             for i, (n, b) in enumerate([(4, 10), (6, 55), (24, 220), (36, 715), (80, 2002),
                                         (96, 5005), (208, 11440), (272, 24310),
                                         (464, 48620), (672, 92378)], start=1))),
    # the first three rows of draw 37: x-space generators alone give bits 3/5/8
    ("solve-verbose-draw-37-3", ["solve", "--verbose"], DRAW_37_3, 0,
     "373fad5ae8ac7e57dc9de4806168e04281521f381a5f4e0e2b88c5ac7b179401",
     "iteration 1: 2 cones (bound 6), max generator entry 5 bits\n"
     "iteration 2: 7 cones (bound 21), max generator entry 8 bits\n"
     "iteration 3: 10 cones (bound 56), max generator entry 8 bits\n"),
    # the tables-solve workload's two shapes at scale 1 and 3, as bench/workloads.table_system
    # writes them: 96 cones over 12 (V, apex) pairs and 672 over 36
    ("solve-table-12-111", ["solve"],
     "1 1 1 0 0 0 = 1\n0 0 0 1 1 1 = 2\n1 0 0 1 0 0 = 1\n0 1 0 0 1 0 = 1\n", 0,
     "7eba14bdc72f9f11f63f3d96b38d564256b50e11df054cd594be85f2f68d1d77"),
    ("solve-table-369-666", ["solve"],
     "1 1 1 0 0 0 0 0 0 = 3\n0 0 0 1 1 1 0 0 0 = 6\n0 0 0 0 0 0 1 1 1 = 9\n"
     "1 0 0 1 0 0 1 0 0 = 6\n0 1 0 0 1 0 0 1 0 = 6\n", 0,
     "790fd47f87b293f73f87ddc2c0eb51e8232e526e3e01944fe9d1c161d41b981c"),
    # recorded before the apex became integer numerators over one denominator
    ("solve-table-36-333", ["solve"],
     "1 1 1 0 0 0 = 3\n0 0 0 1 1 1 = 6\n1 0 0 1 0 0 = 3\n0 1 0 0 1 0 = 3\n", 0,
     "f576b2e7bd4f477bf22e6ac710ec611b5b30c534ec93b66bd9185b79b84ebc57"),
    # apex denominators up to 25, the renderer's den > 1 branch, in json.dumps' own form
    ("solve-random-12", ["solve"], RANDOM_12, 0,
     "55543a6a178df88183b8fd20e53bbbb435779d6fe368f5d02d0ed5c81a3c044b"),
    # every cone has index 1, so fp and Barvinok print the same bytes; 912 cones share 102 V^-1
    ("ratfun-fp-json-table-33", ["ratfun", "--method", "fp", "--format", "json"], TABLE_33, 0,
     "a0a1becc09138c54207f2f8bf079b1703e77a7c7321df13cf99c6c9f6781118f"),
    ("ratfun-barvinok-json-table-33", ["ratfun", "--method", "barvinok", "--format", "json"],
     TABLE_33, 0, "a0a1becc09138c54207f2f8bf079b1703e77a7c7321df13cf99c6c9f6781118f"),
    # Smith groups (1, 18, 18), (1, 5, 25) twice and (1, 13, 13), with rational apexes
    ("ratfun-fp-json-random-12", ["ratfun", "--method", "fp", "--format", "json"], RANDOM_12, 0,
     "fd17b613ada37f2d78d690eaaa6df381cd6f3c94fdbd7cb2f6c0a3874090b23d"),
    # random-systems panel draw 4: 8 cones, 3726 points listed in blocks, Smith up to (1,8,8,16)
    ("ratfun-fp-json-draw-4", ["ratfun", "--method", "fp", "--format", "json"],
     "5 -3 -1 0 >= -4\n5 3 5 -2 >= 2\n1 -2 -1 1 >= 0\n", 0,
     "fd615f62c00b3dded37d7cfbd932bd6de13227491fd0526d9889622373dd1831"),
    # recorded when xi became V @ (+-1)
    ("ratfun-barvinok-json-random-1", ["ratfun", "--method", "barvinok", "--format", "json"],
     RANDOM_1, 0, "695b4c2840543ef3ea3feb6c8921bd024b278a326d6f95d809d6f9758e500fac"),
    ("ratfun-barvinok-json-3-random-1",
     ["ratfun", "--method", "barvinok", "--format", "json", "--index-threshold", "3"],
     RANDOM_1, 0, "5446a484cd2ae2ec55cd24558a04ee6f586fc81f68c51089e314c3ef5da2c394"),
    # twelve cones over six generator matrices: Barvinok trees are shared
    ("ratfun-barvinok-json-knapsack", ["ratfun", "--method", "barvinok", "--format", "json"],
     KNAPSACK, 0, "a35a2b3993d13e9bc1ff3df55e89bf814182ae139c67941e24ea935a5054261d"),
    # display formats, recorded before the plain and LaTeX monomials shared one writer
    ("ratfun-barvinok-plain-knapsack", ["ratfun", "--method", "barvinok"], KNAPSACK, 0,
     "71c9083a07161dbe48dc1ee3bf4f64ef009926ee3201df99249dbe4bc265dba3"),
    ("ratfun-barvinok-latex-knapsack", ["ratfun", "--method", "barvinok", "--format", "latex"],
     KNAPSACK, 0, "4119c3a5ee8dfcd0b1b33d0412d58324cd81118a10db1337761b5282985d3153"),
    ("ratfun-barvinok-latex-vector-knapsack",
     ["ratfun", "--method", "barvinok", "--format", "latex", "--vector-exponents"],
     KNAPSACK, 0, "42d121683b6d82385a33b89364ed7f4caaafba5fc55c6260838697ce8010543f"),
    # 18241 leaves of a 5x5 >= system, each with the inverse pair its exchange tree handed down
    ("ratfun-barvinok-json-draw-37", ["ratfun", "--method", "barvinok", "--format", "json"],
     "-1 5 -2 4 -3 >= 5\n-4 -3 1 4 -5 >= -3\n-4 3 5 -1 -4 >= 3\n"
     "-2 -1 -4 5 4 >= 1\n3 5 -4 -4 -2 >= -5\n", 0,
     "64c6317db0b2a15db3b7c1ee73c80c9557ede07b2b44ae7ad64f18fb1a2d35af"),
    # x1 is unbounded here, so the set has no count
    ("count-unbounded", ["count"], "0 -1 -1 >= -4\n0 -4 1 >= -1\n4 -4 -2 >= -2\n", 2, None),
    # one cone's parallelepiped has millions of points: refused at once, not a hang
    ("ratfun-fp-over-cap", ["ratfun", "--method", "fp"], RS00, 2, None),
    # checked before any cone is decomposed, so an empty combination is refused too
    ("ratfun-index-threshold-0", ["ratfun", "--method", "barvinok", "--index-threshold", "0"],
     "1 1 >= 5\n-1 -1 >= -2\n", 2, None),
]


def failures(case) -> list[str]:
    """What went wrong when running ``case``; empty when it passes."""
    _, argv, stdin, status, expected, *verbose = case
    try:
        proc = subprocess.run([sys.executable, "-S", "-m", "symcones", *argv, "-"],
                              input=stdin.encode(), capture_output=True,
                              env={**os.environ, "PYTHONPATH": SRC}, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        return [f"no exit within {TIME_LIMIT_S} s"]
    out, err = proc.stdout, proc.stderr.decode()
    found = []
    if proc.returncode != status:
        found.append(f"exit status {proc.returncode}, expected {status}")
    if status == 0:
        want = "".join(verbose)
        if err != want:
            found.append(f"stderr {err[:200]!r}, expected {want[:200]!r}"
                         if want else f"stderr is not empty: {err.splitlines()[0]!r}")
        body = out[:-1]
        if not out.endswith(b"\n"):
            found.append("stdout does not end in a newline")
        elif re.fullmatch("[0-9a-f]{64}", expected):
            if (digest := hashlib.sha256(body).hexdigest()) != expected:
                found.append(f"stdout sha256 {digest}, expected {expected}")
        elif body != expected.encode():
            found.append(f"stdout {body[:80]!r}, expected {expected!r}")
    else:
        if out:
            found.append(f"stdout is not empty: {out[:80]!r}")
        if not (err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1):
            found.append(f"stderr is not one 'error: ' line: {err[:200]!r}")
    return found


if __name__ == "__main__":
    sys.exit("\n".join(f"{case[0]}: {'; '.join(found)}"
                       for case in CASES if (found := failures(case))) or None)
