#!/usr/bin/env python3
"""Accumulates benchmark trajectory points and diffs the newest pair.

The perf-smoke job writes one BENCH_<name>.json point per run (see
scripts/perf_smoke.sh). This script folds those points into an append-only
JSONL history keyed by (bench, cpu_model, host_hardware_threads) — numbers
only compare within one host class — and reports how the newest point
moved against its predecessor: every *_per_sec / *_per_s throughput
metric, plus peak_rss_bytes.

BENCH_e2e.json, the committed end-to-end record (perfbench medians of a
parent/change A/B, see its "protocol" field), folds in as one point of
the change side: every workload's end-to-end metric, named
"<workload>.<metric>", in "rates" when higher is better and in "costs"
(times, peak RSS) when lower is better.

The report is informational: regressions are printed but never fail the
run (the hard gate lives in perf_smoke.sh where baselines are committed
and host-class-matched). Exit codes: 0 success (including "nothing to
diff"), 1 unreadable input, 2 usage.

Usage:
  bench_history.py --history bench_history.jsonl --append BENCH_hotpath.json ...
  bench_history.py --history bench_history.jsonl --diff
  bench_history.py --history bench_history.jsonl --append ... --diff
"""

import argparse
import json
import sys
import time


RATE_SUFFIXES = ("_per_sec", "_per_s")


def flatten_rates(doc, prefix=""):
    """Yields (dotted_path, value) for every numeric throughput metric."""
    for key, value in sorted(doc.items()):
        path = prefix + key
        if isinstance(value, dict):
            yield from flatten_rates(value, path + ".")
        elif (isinstance(value, (int, float)) and
              key.endswith(RATE_SUFFIXES)):
            yield path, float(value)


def e2e_metrics(doc):
    """Splits an end-to-end record's change medians into (rates, costs)."""
    rates, costs = {}, {}
    for workload, entry in sorted(doc["workloads"].items()):
        for metric, stats in sorted(entry["metrics"].items()):
            side = rates if stats["better"] == "higher" else costs
            side[f"{workload}.{metric}"] = float(stats["change"]["median"])
    return rates, costs


def point_from_bench(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if "workloads" in doc:
        rates, costs = e2e_metrics(doc)
    else:
        rates, costs = dict(flatten_rates(doc)), {}
    point = {
        "bench": doc.get("bench", path),
        "git_sha": doc.get("git_sha", "unknown"),
        "cpu_model": doc.get("cpu_model", "unknown"),
        "host_hardware_threads": doc.get("host_hardware_threads", 0),
        "quick": doc.get("quick", False),
        "peak_rss_bytes": doc.get("peak_rss_bytes", 0),
        "recorded_unix": int(time.time()),
        "rates": rates,
        "costs": costs,
    }
    return point


def host_key(point):
    return (point["bench"], point["cpu_model"],
            point["host_hardware_threads"])


def load_history(path):
    points = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    points.append(json.loads(line))
                except json.JSONDecodeError as err:
                    print(f"bench_history: {path}:{line_no}: skipping "
                          f"malformed line ({err})", file=sys.stderr)
    except FileNotFoundError:
        pass
    return points


def pct(new, old):
    if old == 0:
        return float("inf") if new else 0.0
    return 100.0 * (new - old) / old


def diff_newest_pair(points):
    by_key = {}
    for point in points:
        by_key.setdefault(host_key(point), []).append(point)
    compared = 0
    for key in sorted(by_key):
        series = by_key[key]
        if len(series) < 2:
            continue
        old, new = series[-2], series[-1]
        compared += 1
        bench, cpu, threads = key
        print(f"{bench} [{cpu}, {threads} threads]: "
              f"{old['git_sha']} -> {new['git_sha']}")
        # Rates regress when they fall, costs when they grow.
        for kind, sign in (("rates", 1.0), ("costs", -1.0)):
            olds, news = old.get(kind, {}), new.get(kind, {})
            for name in sorted(set(olds) | set(news)):
                old_value, new_value = olds.get(name), news.get(name)
                if old_value is None or new_value is None:
                    print(f"  {name}: only one side recorded it")
                    continue
                delta = pct(new_value, old_value)
                marker = "  <-- regression?" if sign * delta <= -10.0 else ""
                print(f"  {name}: {old_value:.3e} -> {new_value:.3e} "
                      f"({delta:+.1f}%){marker}")
        old_rss = old.get("peak_rss_bytes", 0)
        new_rss = new.get("peak_rss_bytes", 0)
        delta = pct(new_rss, old_rss)
        marker = "  <-- growth?" if delta >= 10.0 else ""
        print(f"  peak_rss_bytes: {old_rss} -> {new_rss} "
              f"({delta:+.1f}%){marker}")
    if compared == 0:
        print("bench_history: nothing to diff "
              "(need two points of one host class)")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--history", required=True,
                        help="append-only JSONL history file")
    parser.add_argument("--append", nargs="*", default=[],
                        help="BENCH_*.json points to fold into the history")
    parser.add_argument("--diff", action="store_true",
                        help="report the newest pair per host class")
    args = parser.parse_args()
    if not args.append and not args.diff:
        parser.error("nothing to do: pass --append and/or --diff")

    appended = []
    for path in args.append:
        try:
            appended.append(point_from_bench(path))
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_history: cannot read '{path}': {err}",
                  file=sys.stderr)
            return 1
    if appended:
        with open(args.history, "a", encoding="utf-8") as handle:
            for point in appended:
                handle.write(json.dumps(point, sort_keys=True) + "\n")
        print(f"bench_history: appended {len(appended)} point(s) "
              f"to {args.history}")

    if args.diff:
        diff_newest_pair(load_history(args.history))
    return 0


if __name__ == "__main__":
    sys.exit(main())
