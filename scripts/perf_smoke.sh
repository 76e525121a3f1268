#!/usr/bin/env sh
# Runs the hot-path and decision-log sink microbenchmarks in quick mode and
# leaves their JSON trajectory points at the repository root as
# BENCH_hotpath.json and BENCH_obs.json, so successive PRs (and the CI
# artifacts) accumulate comparable numbers.
#
# Regression gate: if a committed BENCH_hotpath.json baseline exists and
# was recorded on the same host class (same cpu_model and
# host_hardware_threads — CI runners differ wildly, numbers only compare
# within a class), the run fails when the tracked-access rate (a tracked
# gather on the 2-thread LLC replay, through endIteration) or the
# miss-consumer rate (profiler, miss trace and TLB replay over an ordered
# miss stream) drops more than 20% below it. micro_hotpath repeats each section and reports
# min/median/max; the legacy scalar keys the gate reads carry the median,
# so old and new baselines stay comparable.
#
# Exit codes: 0 gate passed; 1 regression or harness failure; 42 skipped —
# no committed baseline, or the baseline is from a different host class,
# so there was nothing comparable to gate against (the new trajectory
# points are still written). CI treats 42 as success-without-gating.
#
# Usage: scripts/perf_smoke.sh [build-dir]   (default: build)
set -eu

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BENCH="$REPO_ROOT/$BUILD_DIR/bench/micro_hotpath"

if [ ! -x "$BENCH" ]; then
  echo "perf_smoke: $BENCH not built (cmake --build $BUILD_DIR --target micro_hotpath)" >&2
  exit 1
fi

OUT="$REPO_ROOT/BENCH_hotpath.json"
BASELINE="$REPO_ROOT/$BUILD_DIR/perf_smoke_baseline.json"
rm -f "$BASELINE"
if [ -f "$OUT" ]; then
  cp "$OUT" "$BASELINE"
fi

# --sim-threads 2 is micro_hotpath's default, but the gate compares the
# replay-engine configuration specifically, so pin it explicitly.
"$BENCH" --quick --sim-threads 2 --json "$OUT" --trace-tmp "$REPO_ROOT/$BUILD_DIR/micro_hotpath.mtrace"
python3 -m json.tool "$OUT" > /dev/null
echo "perf_smoke: wrote $OUT"

OBS="$REPO_ROOT/$BUILD_DIR/bench/micro_obs"
if [ -x "$OBS" ]; then
  OBS_OUT="$REPO_ROOT/BENCH_obs.json"
  "$OBS" --quick --json "$OBS_OUT"
  python3 -m json.tool "$OBS_OUT" > /dev/null
  echo "perf_smoke: wrote $OBS_OUT"
else
  echo "perf_smoke: $OBS not built, skipping decision-log sink point" >&2
fi

if [ ! -f "$BASELINE" ]; then
  echo "perf_smoke: no committed BENCH_hotpath.json baseline; skipping the" \
       "regression gate (exit 42)" >&2
  exit 42
fi

python3 - "$BASELINE" "$OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    base = json.load(f)
with open(sys.argv[2]) as f:
    new = json.load(f)

def host_class(doc):
    return (doc.get("cpu_model", "unknown"),
            doc.get("host_hardware_threads", 0))

if "unknown" in host_class(base) or host_class(base) != host_class(new):
    print("perf_smoke: baseline host class %r does not match this host; "
          "skipping the regression gate (exit 42)" % (host_class(base),),
          file=sys.stderr)
    sys.exit(42)

failed = False
for label, keys in (("tracked access", ("tracked_access", "accesses_per_sec")),
                    ("miss consumers",
                     ("miss_drain", "batched", "misses_per_sec"))):
    old, cur = base, new
    for key in keys:
        old, cur = old[key], cur[key]
    floor = 0.8 * old
    print("perf_smoke: %s %.0f/s vs baseline %.0f/s (floor %.0f/s)"
          % (label, cur, old, floor))
    if cur < floor:
        print("perf_smoke: %s regressed more than 20%% below the committed "
              "baseline (git_sha %s)" % (label, base.get("git_sha", "unknown")),
              file=sys.stderr)
        failed = True
sys.exit(1 if failed else 0)
EOF
