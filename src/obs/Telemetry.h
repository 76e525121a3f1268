//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide runtime telemetry: named counters, gauges, and log-scale
/// histograms over per-thread sharded slots. A thread increments only its
/// own slab (single writer, relaxed atomics, no shared cache line), and
/// slabs are merged when a snapshot is taken. Collection
/// is disabled by default; every record operation then costs exactly one
/// relaxed atomic load and a branch, so instrumented code paths stay
/// byte-identical in behaviour and essentially free.
///
/// Metric names form a stable catalogue documented in
/// docs/observability.md; per-object analyzer metrics use dynamic names
/// ("analyzer.obj.<object>.<field>"). Handles cache the dense metric id,
/// so steady-state recording never touches the name map.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_OBS_TELEMETRY_H
#define ATMEM_OBS_TELEMETRY_H

#include "obs/Health.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace atmem {
namespace obs {

namespace detail {
extern std::atomic<bool> GEnabled;
} // namespace detail

/// True when telemetry collection is armed. Inline so disabled
/// instrumentation compiles to one relaxed load plus a branch.
inline bool enabled() {
  return detail::GEnabled.load(std::memory_order_relaxed);
}

/// Arms or disarms process-wide collection. Tools flip this on when an
/// export path (--metrics-out / --trace-out) is configured.
void setEnabled(bool On);

/// Number of log-scale histogram buckets: values below 32 are exact, and
/// each power of two above is split into 8 linear sub-buckets (worst-case
/// relative quantization error 1/16 at the bucket midpoint).
constexpr uint32_t HistogramBuckets = 32 + (64 - 5) * 8;

/// Maps a recorded value to its bucket.
uint32_t histogramBucketIndex(uint64_t Value);
/// Inclusive lower bound of bucket \p Index.
uint64_t histogramBucketLowerBound(uint32_t Index);
/// Exclusive upper bound of bucket \p Index.
uint64_t histogramBucketUpperBound(uint32_t Index);

/// Merged view of one histogram.
struct HistogramSnapshot {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0;
  uint64_t Max = 0;
  /// Non-empty buckets as (inclusive lower bound, count), ascending.
  std::vector<std::pair<uint64_t, uint64_t>> Buckets;

  /// The \p Pct-th percentile (0..100) estimated by linear interpolation
  /// inside the containing bucket. Exact for values below 32; within
  /// ~6.25% relative error above. 0 when empty.
  double percentile(double Pct) const;
  double mean() const {
    return Count == 0 ? 0.0
                      : static_cast<double>(Sum) / static_cast<double>(Count);
  }
};

/// Deterministic merged view of the whole registry: every registered
/// metric, sorted by name. Two snapshots taken after the same set of
/// recorded values are identical regardless of which threads recorded
/// them or in which order.
struct TelemetrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, double>> Gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> Histograms;

  const uint64_t *counter(const std::string &Name) const;
  const double *gauge(const std::string &Name) const;
  const HistogramSnapshot *histogram(const std::string &Name) const;
};

/// The process-wide metric registry. Instrumentation sites use the typed
/// handles below; the registry itself is only touched directly to take
/// snapshots and by tests.
class Registry {
public:
  static Registry &instance();

  /// \name Registration (mutex-protected; idempotent per name)
  /// @{
  uint32_t counterId(const std::string &Name);
  uint32_t gaugeId(const std::string &Name);
  uint32_t histogramId(const std::string &Name);
  /// @}

  /// \name Recording (lock-free on the calling thread's slab)
  /// @{
  void counterAdd(uint32_t Id, uint64_t Delta);
  void gaugeSet(uint32_t Id, double Value);
  /// Monotonic gauge: keeps the maximum of all values ever set (used for
  /// high-water marks such as the migration staging buffer).
  void gaugeMax(uint32_t Id, double Value);
  void histogramRecord(uint32_t Id, uint64_t Value);
  /// @}

  /// Merges every thread's slabs into a deterministic snapshot. Safe to
  /// call while other threads record; concurrent increments land in this
  /// or the next snapshot.
  TelemetrySnapshot snapshot() const;

  /// Zeroes every value (names and ids stay registered). Tests only.
  void resetValues();

private:
  Registry();
  struct Impl;
  Impl *I;
};

/// A named monotonically increasing counter. Construction registers the
/// name once; add() is hot-path safe.
class Counter {
public:
  explicit Counter(const char *Name)
      : Id(Registry::instance().counterId(Name)) {}
  void add(uint64_t Delta = 1) const {
    if (!enabled())
      return;
    Registry::instance().counterAdd(Id, Delta);
  }

private:
  uint32_t Id;
};

/// A named last-writer-wins gauge (set) with a monotonic variant (max).
class Gauge {
public:
  explicit Gauge(const char *Name) : Id(Registry::instance().gaugeId(Name)) {}
  explicit Gauge(const std::string &Name)
      : Id(Registry::instance().gaugeId(Name)) {}
  void set(double Value) const {
    if (!enabled())
      return;
    Registry::instance().gaugeSet(Id, Value);
  }
  void max(double Value) const {
    if (!enabled())
      return;
    Registry::instance().gaugeMax(Id, Value);
  }

private:
  uint32_t Id;
};

/// A named log-scale histogram of uint64 values.
class Histogram {
public:
  explicit Histogram(const char *Name)
      : Id(Registry::instance().histogramId(Name)) {}
  void record(uint64_t Value) const {
    if (!enabled())
      return;
    Registry::instance().histogramRecord(Id, Value);
  }
  /// Seconds expressed as whole microseconds (the catalogue's convention
  /// for duration histograms, suffix "_us").
  void recordSeconds(double Seconds) const {
    if (!enabled())
      return;
    if (Seconds < 0.0)
      Seconds = 0.0;
    Registry::instance().histogramRecord(
        Id, static_cast<uint64_t>(Seconds * 1e6));
  }

private:
  uint32_t Id;
};

/// Dense per-thread id shared by the telemetry slabs and the tracer
/// (assigned on first use, stable for the thread's lifetime).
uint32_t currentThreadId();

/// Export configuration carried by RuntimeConfig and the tool layer.
struct TelemetryConfig {
  /// Master collection switch; Runtime arms the process-wide flag when a
  /// runtime is constructed with this set.
  bool Enabled = false;
  /// Metrics snapshot JSON path ("" = no file).
  std::string MetricsPath;
  /// Chrome trace-event JSON path ("" = no file).
  std::string TracePath;
  /// Placement decision flight-recorder path ("" = no log). Runtime opens
  /// the process-wide obs::DecisionLog here on construction (idempotent —
  /// concurrent runtimes share one log); exportIfConfigured() writes the
  /// trailer and closes it.
  std::string DecisionLogPath;
  /// Ring-sink base path for the decision log ("" = no ring). Mutually
  /// exclusive with DecisionLogPath in practice (whichever the Runtime
  /// opens first wins — the process-wide log is shared). Segments are
  /// written as DecisionLogRingPath.NNNNNN; see obs/RingLog.h.
  std::string DecisionLogRingPath;
  /// Ring geometry (0 = the RingLogOptions defaults).
  uint64_t RingSegmentBytes = 0;
  uint64_t RingMaxBytes = 0;
  /// Per-epoch time-series JSONL path ("" = no file).
  std::string TimeSeriesPath;
  /// Per-epoch time-series OpenMetrics text path ("" = no file).
  std::string OpenMetricsPath;
  /// UNIX-domain stats socket path ("" = no live endpoint).
  std::string StatsSocketPath;
  /// Health event JSONL path ("" = no file). Opening it (first-opener-wins
  /// process-wide, like the decision log) also arms the live monitor;
  /// exportIfConfigured() closes the log.
  std::string HealthLogPath;
  /// Arms the live health monitor without an event log (detector states
  /// still reach the metrics export and the stats-socket health panel).
  bool HealthEnabled = false;
  /// Detector tuning knobs for the monitor above.
  HealthConfig Health;

  /// Enabled if any output is requested.
  bool anyOutput() const {
    return !MetricsPath.empty() || !TracePath.empty() ||
           !DecisionLogPath.empty() || !DecisionLogRingPath.empty() ||
           !TimeSeriesPath.empty() || !OpenMetricsPath.empty() ||
           !StatsSocketPath.empty() || !HealthLogPath.empty();
  }
};

} // namespace obs
} // namespace atmem

#endif // ATMEM_OBS_TELEMETRY_H
