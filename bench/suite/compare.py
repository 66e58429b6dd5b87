#!/usr/bin/env python3
"""Compare benchmark runs of two commits, one row per (workload, metric).

    python3 bench/suite/compare.py PARENT_RUNS... -- CHANGE_RUNS...

Each RUNS file holds the standard output of one or more `--trace 0`
suite runs (a `{"run": ...}` header line followed by the result line).
List the runs of each side in the order they were made, alternating
which side ran first, so that the i-th parent run and the i-th change
run form a pair.  Bounds and directions come from BENCHMARK.json.

Verdicts, checked in this order:
  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range
  unresolved  the spread (IQR / median, either side) is wider than the
              bound and not every change run beats every parent run
  regressed   the change's median is worse than the parent's by more
              than the bound
  no-worse    otherwise
A row is also flagged when the share of failed ops rose or a run
reported incorrect output.  Exits 1 when any row regressed.
"""

import json
import os
import statistics
import sys


def load(paths):
    """{workload: [result, ...]} from --trace 0 runs, in file order."""
    runs = {}
    for path in paths:
        header = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "run" in obj:
                    header = obj["run"]
                elif "metrics" in obj and header is not None:
                    if header["trace"] == 0:
                        runs.setdefault(header["workload"], []).append(obj)
                    header = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def fail_ratio(result):
    return result["failed"] / result["attempted"]


def values(results, metric):
    return [r["metrics"][metric["name"]]["value"] for r in results]


def cell(stats):
    return f"{stats[0]:.4g} [{stats[1]:.4g}, {stats[2]:.4g}]"


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    mp, mc = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)

    def better(c, p):
        return c < p if lower else c > p

    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if better(c, p))
    spread = max((p3 - p1) / mp if mp else 0.0, (c3 - c1) / mc if mc else 0.0)
    worse_by = ((mc - mp) if lower else (mp - mc)) / mp if mp else 0.0
    if pairs and won >= 0.9 * len(pairs) and better(mc, mp) and abs(mc - mp) > p3 - p1:
        v = "improved"
    elif spread > bound and not all(better(c, p) for p in parent for c in change):
        v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    else:
        v = "no-worse"
    return (mp, p1, p3), (mc, c1, c3), f"{won}/{len(pairs)}", v


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    parent, change = load(argv[:cut]), load(argv[cut + 1 :])
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    print(f"{'workload':13} {'metric':12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'won':>6}  verdict")
    regressed = False
    for w in (w["name"] for w in spec["workloads"]):
        if w not in parent or w not in change:
            print(f"{w:13} (runs missing on {'parent' if w not in parent else 'change'} side)")
            continue
        flags = []
        if statistics.median(map(fail_ratio, change[w])) > statistics.median(
                map(fail_ratio, parent[w])):
            flags.append("fail_ratio rose")
        if not all(r["correct"] for r in parent[w] + change[w]):
            flags.append("incorrect output")
        for m in spec["end_to_end"]:
            p, c, won, v = verdict(m, values(parent[w], m), values(change[w], m))
            regressed |= v == "regressed"
            print(f"{w:13} {m['name']:12} {cell(p):>32} {cell(c):>32} {won:>6}  "
                  + " ".join([v] + flags))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
