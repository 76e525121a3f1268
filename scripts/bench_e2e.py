#!/usr/bin/env python3
"""Builds the committed end-to-end record (BENCH_e2e.json) from an A/B.

Usage (from the repository root):

    python3 scripts/bench_e2e.py PARENT.jsonl CHANGE.jsonl \\
        --parent-sha SHA --change-sha SHA [--seconds S] [--out PATH]

Each input is a copy of one checkout's .bench_out/results.jsonl after
alternating pairs of untraced runs (perfbench/run.py --trace 0), parent
and change on the same seeds with the same --seconds. Runs pair up by
(workload, seed). For every workload and end-to-end metric of
BENCHMARK.json the record holds each side's median and quartiles over its
runs' medians and the number of pairs the change won (better in the
metric's direction; ties count for neither side). Host class (CPU model,
nproc) comes from the runs' provenance. scripts/bench_history.py folds
the record into a history as one point of the change side.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load(path):
    """Untraced runs per workload, keyed by seed."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def workload_record(parent, change):
    seeds = sorted(set(parent) & set(change))
    if len(seeds) < 2:
        raise ValueError("needs at least two shared seeds")
    metrics = {}
    for spec in SPEC["end_to_end"]:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        pairs = [(parent[s]["metrics"][name]["median"],
                  change[s]["metrics"][name]["median"]) for s in seeds]
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": spread([p for p, _ in pairs]),
            "change": spread([c for _, c in pairs]),
            "pairs_won": sum(sign * (c - p) > 0 for p, c in pairs),
        }
    return {
        "pairs": len(seeds), "seeds": seeds,
        "failed_runs": {"parent": sum(parent[s]["failed"] > 0 for s in seeds),
                        "change": sum(change[s]["failed"] > 0 for s in seeds)},
        "model_hash_identical": sum(
            parent[s]["model_stable"] and change[s]["model_stable"] and
            parent[s]["model_hash"] == change[s]["model_hash"]
            for s in seeds),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--parent-sha", required=True)
    parser.add_argument("--change-sha", required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="the runs' --seconds (default: BENCHMARK.json's)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_e2e.json"))
    args = parser.parse_args()

    parent, change = load(args.parent), load(args.change)
    workloads = {}
    for spec in SPEC["workloads"]:
        name = spec["name"]
        if name not in parent or name not in change:
            print(f"bench_e2e: no runs of {name} on both sides",
                  file=sys.stderr)
            return 1
        workloads[name] = workload_record(parent[name], change[name])
    provenance = next(iter(next(iter(change.values())).values()))["provenance"]
    record = {
        "bench": "perfbench_e2e",
        "git_sha": args.change_sha,
        "parent_git_sha": args.parent_sha,
        "cpu_model": provenance["cpu_model"],
        "host_hardware_threads": provenance["nproc"],
        "compiler": provenance["compiler"],
        "build_type": provenance["build_type"],
        "protocol": "python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {args.seconds:g} --trace 0, parent and "
                    "change alternating which runs first; statistics are "
                    "over each run's median pass",
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"bench_e2e: wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
