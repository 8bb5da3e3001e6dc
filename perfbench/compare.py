"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are files or directories of files holding the standard output
of `perfbench/run.py` (one run or several appended).  Runs pair up by
workload and seed.  For every workload and end-to-end metric it prints each
side's median and quartiles, the share of pairs the change wins (ties count
for neither) and a verdict:

    improved     the change wins at least 9 of 10 pairs and its median is
                 better by more than the distance between the base quartiles
    worse        the change's median is worse than the base's by more than
                 the metric's bound in BENCHMARK.json
    unresolved   either side's quartile spread, as a share of its median, is
                 wider than the bound, unless every change run is better
                 than every base run
    no worse     none of the above

Traced runs (--trace 1) are listed as medians per layer, without a verdict.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> list[dict]:
    """Runs found in a file or directory: details merged with the result line."""
    files = (
        [os.path.join(path, f) for f in sorted(os.listdir(path))] if os.path.isdir(path) else [path]
    )
    runs = []
    for name in files:
        details = None
        with open(name, encoding="utf-8") as fh:
            for line in fh:
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "details" in obj:
                    details = obj["details"]
                elif "metrics" in obj and details is not None:
                    runs.append({**details, **obj})
                    details = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base: list[float], change: list[float], wins: int, pairs: int, bound: float,
            lower: bool) -> str:
    sign = 1.0 if lower else -1.0
    mb, mc = statistics.median(base), statistics.median(change)
    (b1, b3), (c1, c3) = quartiles(base), quartiles(change)
    if pairs and wins >= 0.9 * pairs and sign * (mb - mc) > b3 - b1:
        return "improved"
    if sign * (mc - mb) > bound * abs(mb):
        return "worse"
    every_better = all(sign * (c - b) < 0 for c in change for b in base)
    if max((b3 - b1) / abs(mb), (c3 - c1) / abs(mc)) > bound and not every_better:
        return "unresolved"
    return "no worse"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    base, change = load(argv[0]), load(argv[1])
    for side, runs in (("base", base), ("change", change)):
        bad = [f"{r['workload']}/s{r['seed']}" for r in runs if not r["correct"]]
        if bad:
            print(f"warning: {side} has runs with failed output checks: {bad}")
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for wl in sorted({r["workload"] for r in base + change if r["trace"] == trace}):
            b_runs = {r["seed"]: r for r in base if r["workload"] == wl and r["trace"] == trace}
            c_runs = {r["seed"]: r for r in change if r["workload"] == wl and r["trace"] == trace}
            if not b_runs or not c_runs:
                print(f"{wl} trace={trace}: runs on one side only, skipped")
                continue
            seeds = sorted(b_runs.keys() & c_runs.keys())
            print(f"{wl} (trace={trace}): {len(b_runs)} base runs, {len(c_runs)} change runs, "
                  f"{len(seeds)} pairs")
            for m in metrics:
                name = m["name"]
                bv = [r["metrics"][name]["value"] for r in b_runs.values()]
                cv = [r["metrics"][name]["value"] for r in c_runs.values()]
                mb, mc = statistics.median(bv), statistics.median(cv)
                cols = f"  {name:38s} base {mb:<12.6g} change {mc:<12.6g}"
                if trace:
                    print(cols)
                    continue
                pairs = [(b_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                         for s in seeds]
                lower = m["better"] == "lower"
                wins = sum((c < b) if lower else (c > b) for b, c in pairs)
                (b1, b3), (c1, c3) = quartiles(bv), quartiles(cv)
                print(f"{cols} base q [{b1:.6g}, {b3:.6g}] change q [{c1:.6g}, {c3:.6g}] "
                      f"wins {wins}/{len(pairs)} bound {m['bound']:g}: "
                      f"{verdict(bv, cv, wins, len(pairs), m['bound'], lower)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
