#!/usr/bin/env python3
"""End-to-end ATMem benchmark: build the driver, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload twitter-pr --seed 1 --seconds 20 --trace 0

Builds perfbench/ (a standalone CMake project that compiles src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
atmem_perfbench driver for --seconds of timed
passes, checks its results, prints a report, and prints one JSON object
as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md for what each measures). Every invocation appends its
aggregated record to .bench_out/results.jsonl; --trace 1 also writes the
pass spans to .bench_out/trace-<workload>-seed<seed>.json. Exits 1 when a
result check fails, 2 when the driver cannot be built or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("twitter-pr", "fig05-quick", "rmat24-adaptive")
# Limit on the driver, counted after the build: a run must end inside three
# minutes, except the first in a checkout, whose full build may take longer.
DRIVER_TIMEOUT_S = 160.0
MIN_COVERAGE = 0.95

# Per-layer self times: span name -> metric name.
LAYERS = {
    "graph.build": "graph.build_s",
    "core.runtime_ctor": "core.runtime_ctor_s",
    "apps.setup": "apps.setup_s",
    "exec.profiled": "exec.profiled_s",
    "exec.measured": "exec.measured_s",
    "exec.end_iteration": "exec.end_iteration_s",
    "control.optimize": "control.optimize_s",
    "core.teardown": "core.teardown_s",
}
COUNT_UNITS = {
    "graph.edges": "count",
    "mem.registered_bytes": "B",
    "exec.accesses": "count",
    "exec.llc_misses": "count",
    "exec.slow_misses": "count",
    "profiler.samples": "count",
    "profiler.misses_seen": "count",
    "control.optimize_calls": "count",
    "mem.bytes_moved": "B",
    "mem.ranges": "count",
    "mem.ptes_touched": "count",
    "analyzer.plan_bytes": "B",
}
MODEL_UNITS = {
    "model.measured_iter_sim_s": "sim_s",
    "model.fast_data_ratio": "ratio",
    "model.migration_sim_s": "sim_s",
    "model.tlb_misses": "count",
    "model.gain_vs_all_slow": "x",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def configured_source(build_dir):
    """The source directory an existing build tree was configured from."""
    try:
        for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return Path(line.split("=", 1)[1]).resolve()
    except OSError:
        pass
    return None


def build(build_dir):
    """Configures and builds the driver; returns its path or None."""
    def run(cmd):
        # Build chatter goes to stderr: stdout ends with the result line.
        return subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode == 0

    # `cmake --build` builds whatever sources a tree was configured from,
    # so a tree made for another checkout is started over.
    if configured_source(build_dir) not in (None, BENCH_DIR):
        shutil.rmtree(build_dir)
    # Configuring every time is cheap (an incremental no-op) and records
    # the current git sha.
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", str(build_dir), "-j",
            str(min(4, os.cpu_count() or 1))]
    exe = build_dir / "atmem_perfbench"
    return exe if run(configure) and run(make) else None


def spread(values):
    """Median, quartiles, maximum and count of a sample."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "max": max(values), "n": len(values)}


def self_times(spans):
    """Per-layer self time and top-level coverage of one traced pass."""
    own = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    for parent, name, start, end in spans:
        duration = end - start
        own[name] += duration
        if parent < 0:
            covered += duration
        else:
            own[spans[parent][1]] -= duration
    return own, covered


def end_to_end(passes):
    rows = {"setup_s": [], "run_s": [], "wall_s": [], "sim_accesses_per_s": [],
            "peak_rss_mb": []}
    for p in passes:
        run_s = p["wall_s"] - p["setup_s"]
        rows["setup_s"].append(p["setup_s"])
        rows["run_s"].append(run_s)
        rows["wall_s"].append(p["wall_s"])
        rows["sim_accesses_per_s"].append(p["counts"]["exec.accesses"] / run_s)
        rows["peak_rss_mb"].append(p["peak_rss_bytes"] / 2**20)
    return {name: (spread(v), unit) for (name, v), unit in
            zip(rows.items(), ("s", "s", "s", "1/s", "MB"))}


def per_layer(doc, traced, untraced):
    rows = {}
    coverage = []
    for p in traced:
        own, covered = self_times(p["spans"])
        for span, metric in LAYERS.items():
            rows.setdefault(metric, []).append(own[span])
        c = p["counts"]
        for name in COUNT_UNITS:
            rows.setdefault(name, []).append(c[name])
        rows.setdefault("graph.edges_per_s", []).append(
            c["graph.edges"] / own["graph.build"])
        exec_s = (own["exec.profiled"] + own["exec.measured"] +
                  own["exec.end_iteration"])
        rows.setdefault("exec.accesses_per_s", []).append(
            c["exec.accesses"] / exec_s)
        rows.setdefault("bench.unattributed_s", []).append(
            p["wall_s"] - covered)
        coverage.append(covered / p["wall_s"])
    units = {m: "s" for m in LAYERS.values()}
    units.update(COUNT_UNITS)
    units.update({"graph.edges_per_s": "1/s", "exec.accesses_per_s": "1/s",
                  "bench.unattributed_s": "s"})
    out = {name: (spread(v), units[name]) for name, v in rows.items()}
    for name, value in doc["model"].items():
        out[name] = (spread([value]), MODEL_UNITS[name])
    overhead = (statistics.median(p["wall_s"] for p in traced) -
                statistics.median(p["wall_s"] for p in untraced))
    out["bench.trace_overhead_s"] = (spread([overhead]), "s")
    return out, min(coverage)


def cpu_ticks():
    """(steal, total) CPU ticks of the host so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def fail(message):
    log("error: " + message)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "core" / "Runtime.h").is_file():
        fail(f"ATMem sources not found under {ROOT / 'src'}")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    exe = build(build_root / "perfbench")
    if exe is None:
        fail("building the benchmark driver failed")

    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    ticks_before = cpu_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S, text=True)
        doc = json.loads(proc.stdout) if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError):
        doc = None
    if doc is None:
        # A dead pass is a failed run.
        log("error: the benchmark driver died or printed no result")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        sys.exit(1)

    # Time the hypervisor ran other guests on this host's CPUs: it inflates
    # host times, most of all in the thread hand-offs of parallel layers.
    steal, total = (after - before for after, before in
                    zip(cpu_ticks(), ticks_before))
    steal_share = steal / total if total > 0 else 0.0
    passes = doc["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    attempted = doc["warmup_runs"] + sum(p["runs"] for p in passes)
    failed = doc["warmup_failed"] + sum(p["failed"] for p in passes)
    model_stable = all(p["model_matches"] for p in passes)

    e2e = end_to_end(untraced)
    layers, coverage = (per_layer(doc, traced, untraced) if args.trace
                        else ({}, 1.0))
    correct = failed == 0 and coverage >= MIN_COVERAGE

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    results = out_dir / "results.jsonl"

    prov = doc["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  inputs: {doc['inputs']}")
    print(f"provenance: sha {prov['git_sha']}  {prov['compiler']}  "
          f"{prov['build_type']}  cpu '{prov['cpu_model']}'  nproc {prov['nproc']}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced "
          f"(+1 discarded warm-up)")
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'max':>14} {'n':>3}  unit")
    for name, (s, unit) in list(e2e.items()) + list(layers.items()):
        print(f"{name:28} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
              f"{s['max']:14.6g} {s['n']:3}  {unit}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:g}")
    print(f"host CPU steal during the run: {steal_share:.1%}")
    print(f"model hash {doc['model_hash']}  stable across passes: "
          f"{'yes' if model_stable else 'NO'}")
    if args.trace:
        print(f"attribution: layer spans cover >= {coverage:.4f} of every "
              f"traced pass ({'ok' if coverage >= MIN_COVERAGE else 'FAILED'}"
              f", limit {MIN_COVERAGE})")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "provenance": prov,
              "inputs": doc["inputs"], "model": doc["model"],
              "model_hash": doc["model_hash"], "model_stable": model_stable,
              "attempted": attempted, "failed": failed,
              "steal_share": steal_share,
              "metrics": {k: dict(s, unit=u) for k, (s, u) in
                          list(e2e.items()) + list(layers.items())}}
    with results.open("a") as f:
        f.write(json.dumps(record) + "\n")
    if args.trace:
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "span_fields": ["parent", "name", "start_s", "end_s"],
             "passes": [{"pass": i, "wall_s": p["wall_s"], "spans": p["spans"]}
                        for i, p in enumerate(passes) if p["traced"]]}))

    reported = layers if args.trace else e2e
    metrics = {name: {"value": s["median"], "unit": unit}
               for name, (s, unit) in reported.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
