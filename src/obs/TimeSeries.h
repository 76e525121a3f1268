//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-epoch time series of the load-bearing runtime gauges. Where the
/// metrics snapshot (Export.h) answers "what were the totals at exit",
/// the time series answers "how did the run evolve": one EpochSample is
/// captured at every optimize() boundary, so regressions that cancel out
/// in the totals (a migration storm in epoch 3 absorbed by a quiet
/// epoch 7) stay visible.
///
/// Collection follows the telemetry discipline: disabled by default, and
/// a disabled record() costs one relaxed atomic load plus a branch.
/// Samples are exported as JSONL (one object per epoch, plotting-ready
/// via scripts/extract_results.py --timeseries) and as OpenMetrics text
/// (one labelled sample per epoch per metric) for scrape-style tooling.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_OBS_TIMESERIES_H
#define ATMEM_OBS_TIMESERIES_H

#include <cstdint>
#include <string>
#include <vector>

namespace atmem {
namespace obs {

/// One epoch boundary's worth of gauges, captured by Runtime::optimize()
/// right after the migration phase commits.
struct EpochSample {
  uint64_t Epoch = 0; ///< 1-based optimize() ordinal.

  /// \name Access mix of the iteration that triggered the epoch
  /// @{
  uint64_t Accesses = 0;
  uint64_t MissesFast = 0;
  uint64_t MissesSlow = 0;
  /// Slow-tier fraction of all tier misses (0 when the iteration had
  /// none) — the signal ATMem exists to drive down.
  double SlowMissFraction = 0.0;
  /// Misses drained per simulated second (drain throughput proxy).
  double DrainMissesPerSec = 0.0;
  /// @}

  /// \name Migration activity committed this epoch
  /// @{
  uint64_t MigrationBytes = 0;
  uint64_t MigrationRanges = 0;
  uint64_t Retries = 0;
  uint64_t Rollbacks = 0;
  double MigrateSimSec = 0.0;
  /// @}

  /// Fraction of tracked bytes resident in the fast tier after the
  /// epoch's migrations.
  double FastDataRatio = 0.0;
  /// Wall-clock microseconds optimize() itself spent — the observability
  /// and decision overhead this subsystem is meant to keep honest.
  double OptimizeWallUs = 0.0;
  /// Wall-clock microseconds between the previous epoch boundary and this
  /// optimize() call — the application compute the overhead above is
  /// budgeted against. 0 for the first epoch (no previous boundary).
  double IterationWallUs = 0.0;
};

/// Process-wide sample store, shared by every Runtime like the metric
/// registry. Thread-safe; record() is called at epoch cadence (never the
/// access hot path), so a mutex is fine.
class TimeSeries {
public:
  static TimeSeries &instance();

  /// One relaxed load + branch when disabled.
  bool enabled() const;
  void setEnabled(bool On);

  void record(const EpochSample &Sample);
  std::vector<EpochSample> snapshot() const;
  /// Drops every sample (names in the metric registry are untouched).
  void clear();

private:
  TimeSeries();
  struct Impl;
  Impl *I;
};

/// Serializes \p Samples as JSONL: one "atmem-timeseries-v1" header line,
/// then one compact JSON object per epoch in capture order. Non-finite
/// ratio fields serialize as 0 so the output is always valid JSON.
std::string timeSeriesJsonl(const std::vector<EpochSample> &Samples);

/// Serializes \p Samples as OpenMetrics text (gauge families named
/// atmem_epoch_*, one sample per epoch labelled {epoch="N"}, terminated
/// by "# EOF"). A non-empty \p RunLabel adds a run="..." label to every
/// sample (escaped per the OpenMetrics exposition rules).
std::string timeSeriesOpenMetrics(const std::vector<EpochSample> &Samples,
                                  const std::string &RunLabel = "");

/// Escapes \p Value for use inside an OpenMetrics label string
/// (backslash, double quote, and newline get backslash escapes).
std::string openMetricsEscapeLabel(const std::string &Value);

/// Parses an "atmem-timeseries-v1" JSONL document back into samples
/// (tools/atmem_doctor and atmem_obs_check --timeseries). Fields absent
/// from a line default to 0, so logs from before a field was added still
/// load. False (with \p Error) on a malformed header or line; \p Out then
/// holds the samples parsed before the failure.
bool parseTimeSeriesJsonl(const std::string &Text,
                          std::vector<EpochSample> &Out,
                          std::string *Error = nullptr);

/// \name File writers (false on I/O failure)
/// @{
bool writeTimeSeriesJsonl(const std::string &Path,
                          std::string *Error = nullptr);
bool writeTimeSeriesOpenMetrics(const std::string &Path,
                                std::string *Error = nullptr);
/// @}

} // namespace obs
} // namespace atmem

#endif // ATMEM_OBS_TIMESERIES_H
