#!/usr/bin/env python3
"""Fail CI on a committed BENCH_*.json that bench::JsonReporter cannot write.

JsonReporter (bench/bench_util.h) deduplicates its rows on the
(op, n, d, threads) key, last write wins, and writes them sorted by that key.
A committed row array with a repeated key or out of that order was edited by
hand or predates the writer, and a diff against a fresh run would be noise.

Checks every BENCH_*.json in the repo root (or the paths given on the command
line) whose top level is a row array. Exempt:
  - BENCH_scaling.baseline.json, the frozen baseline measured before the
    writer existed;
  - object-shaped files such as BENCH_accuracy.json, the eval_harness
    dashboard, which JsonReporter does not write.

Exit status: 0 when every checked file could have come from the writer,
1 otherwise (each offending row is reported with file and row index).
"""

import glob
import json
import os
import sys

EXEMPT = {"BENCH_scaling.baseline.json"}


def row_key(row):
    return (row["op"], row["n"], row["d"], row["threads"])


def check(path):
    """Returns the list of problems found in one file."""
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    if not isinstance(rows, list):
        return []
    problems = []
    seen = {}
    previous = None
    for i, row in enumerate(rows):
        missing = [k for k in ("op", "n", "d", "threads") if k not in row]
        if missing:
            problems.append(f"{path}: row {i} lacks {', '.join(missing)}")
            continue
        key = row_key(row)
        if key in seen:
            problems.append(
                f"{path}: row {i} repeats the key of row {seen[key]}: {key}")
        seen.setdefault(key, i)
        # Python orders str by code point, as std::string's operator< orders
        # the ASCII op names; ints compare numerically in both.
        if previous is not None and key < previous:
            problems.append(
                f"{path}: row {i} {key} sorts before row {i - 1} {previous}")
        previous = key
    return problems


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = argv[1:] or sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    paths = [p for p in paths if os.path.basename(p) not in EXEMPT]
    problems = []
    for path in paths:
        problems.extend(check(path))
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} problem(s): regenerate the file with its "
              "bench binary, or keep the last row per key and sort.")
        return 1
    print(f"checked {len(paths)} file(s): every row array is deduplicated "
          "and sorted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
