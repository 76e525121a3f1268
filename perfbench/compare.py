#!/usr/bin/env python3
"""Summarise or compare sets of benchmark runs recorded by run.py.

    python3 perfbench/compare.py A.jsonl           # one set: spreads
    python3 perfbench/compare.py A.jsonl B.jsonl   # two sets: A -> B

Each file is a copy of .bench_out/results.jsonl (one record per run).
For every workload and end-to-end metric in BENCHMARK.json it prints the
median of the runs' medians and their spread (quartile distance over
median), flagging a spread above the metric's bound. With two sets it
also prints the change of the median from A to B, flags a change worse
than the bound, and flags every workload and seed whose model outputs
(model.* and their hash) differ between the sets: a change meant only to
speed the simulator up must leave them identical. A run whose passes
already disagreed among themselves (model_stable false) is left out of
that check and counted as not comparable. Exits 1 when anything was
flagged.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def summary(records, metric):
    values = [r["metrics"][metric]["median"] for r in records
              if metric in r["metrics"]]
    if not values:
        return None, None
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def hashes(records):
    """Model hash per seed; None where the run's passes disagreed."""
    return {r["seed"]: r["model_hash"] if r["model_stable"] else None
            for r in records}


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv[1:]]
    flagged = False
    workloads = sorted(set().union(*sets))
    for workload in workloads:
        print(f"== {workload}: runs " +
              " / ".join(str(len(s.get(workload, []))) for s in sets))
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells = []
            stats = [summary(s.get(workload, []), name) for s in sets]
            for median, spread in stats:
                if median is None:
                    cells.append(f"{'-':>12} {'':>8}")
                    continue
                mark = "!" if spread > bound else " "
                flagged |= mark == "!"
                cells.append(f"{median:12.6g} {spread:7.2%}{mark}")
            line = f"  {name:20} " + "  ".join(cells)
            if len(sets) == 2 and None not in (stats[0][0], stats[1][0]):
                change = stats[1][0] / stats[0][0] - 1.0
                worse = -change if m["better"] == "higher" else change
                mark = "!" if worse > bound else " "
                flagged |= mark == "!"
                line += f"  change {change:+7.2%}{mark} (bound {bound:.0%})"
            print(line)
        per_set = [hashes(s.get(workload, [])) for s in sets]
        unstable = sum(h is None for p in per_set for h in p.values())
        if unstable:
            print(f"  model outputs varied between passes in {unstable} runs")
        if len(sets) == 2:
            shared = set(per_set[0]) & set(per_set[1])
            # A run whose own passes disagreed has no hash to compare.
            seeds = sorted(s for s in shared
                           if None not in (per_set[0][s], per_set[1][s]))
            diff = [s for s in seeds if per_set[0][s] != per_set[1][s]]
            if not seeds and shared:
                print(f"  model not comparable (unstable engine) on "
                      f"{len(shared)} shared seeds")
            elif diff:
                flagged = True
                print(f"  MODEL CHANGED for seeds {diff} "
                      f"({len(diff)} of {len(seeds)} comparable seeds)")
            else:
                print(f"  model identical on {len(seeds)} of {len(shared)} "
                      f"shared seeds")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
