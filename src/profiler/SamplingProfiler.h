//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ATMem profiler (paper Sections 3, 5.1). On the real system it
/// programs the PMU for PEBS precise-address sampling of LLC-miss loads;
/// here it subscribes to the simulated LLC's miss stream and samples every
/// Nth miss, which has the same information-loss characteristics the
/// analyzer's tree promotion exists to patch.
///
/// The sampling period adapts at runtime: an initial period is derived
/// from the registered chunk population and thread count, and the period
/// doubles whenever the collected sample count reaches the budget — so a
/// long profiling window does not oversample ("avoids unnecessarily high
/// sampling frequency while ensuring efficient information collection").
///
/// The inline engine feeds misses one at a time (notifyMiss). The
/// set-partitioned replay hands over each block's misses in serial order
/// (notifyMissBatch): selectSamples() picks the samples, the registry
/// attributes each one, and commitSample() folds it into the profiles.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_PROFILER_SAMPLINGPROFILER_H
#define ATMEM_PROFILER_SAMPLINGPROFILER_H

#include "mem/DataObjectRegistry.h"
#include "profiler/ProfileSource.h"

#include <cstdint>
#include <vector>

namespace atmem {
namespace prof {

/// Tuning knobs of the profiler.
struct ProfilerConfig {
  /// Target average samples per data chunk used to size the budget.
  double SamplesPerChunk = 48.0;
  /// Hard bounds on the total sample budget.
  uint64_t MinSampleBudget = 1u << 12;
  uint64_t MaxSampleBudget = 1u << 21;
  /// Initial sampling period (misses between samples) before adaptation;
  /// 0 derives it from the chunk population (see deriveInitialPeriod).
  uint64_t InitialPeriod = 0;
  /// Modelled cost of delivering one PEBS record (microcode assist plus
  /// buffer drain, amortized), seconds. Records are produced by all
  /// application threads concurrently, so the wall-clock overhead is this
  /// cost times samples divided by the thread count.
  double SampleCostSec = 250e-9;
};

/// A miss selected for sampling by the batched pre-scan, not yet
/// attributed to an (object, chunk). PeriodInForce is the period at the
/// moment of selection — each sample is weighted by it, which keeps the
/// miss estimates unbiased across budget-driven period doubling.
struct PendingSample {
  uint64_t Va = 0;
  uint64_t PeriodInForce = 0;
};

/// Sampling profiler over the simulated miss stream.
class SamplingProfiler : public ProfileSource {
public:
  SamplingProfiler(mem::DataObjectRegistry &Registry, ProfilerConfig Config);

  /// Arms the profiler: derives the initial period from the current chunk
  /// population and \p Threads, clears previous results, and starts
  /// consuming miss events.
  void start(uint32_t Threads);

  /// Disarms the profiler; results remain readable.
  void stop();

  bool isActive() const { return Active; }

  /// Feed of LLC-miss events from the access engine; called for every
  /// simulated miss while active. Samples every Nth event.
  void notifyMiss(uint64_t Va) {
    if (!Active)
      return;
    ++MissesSeen;
    if (--Countdown != 0)
      return;
    recordSample(Va);
    Countdown = Period;
  }

  /// Batched equivalent of calling notifyMiss() on each of \p N misses in
  /// order, with identical observable state afterwards. The countdown
  /// advances arithmetically in Period-sized strides instead of
  /// decrementing per miss, and attribution goes through the registry's
  /// interval index.
  void notifyMissBatch(const uint64_t *Vas, size_t N);

  /// Stage 1 of the batched drain: advances the sampling state over \p N
  /// ordered misses exactly as N notifyMiss() calls would, and appends the
  /// selected samples to \p Out without attributing them. Selection
  /// depends only on miss order, never on attribution results.
  void selectSamples(const uint64_t *Vas, size_t N,
                     std::vector<PendingSample> &Out);

  /// Stage 3 of the batched drain: folds one selected sample into the
  /// per-chunk profiles. Must be called in selection order (floating-point
  /// accumulation order is part of the bit-identical contract).
  /// \p Attributed mirrors the registry lookup result for \p S.Va.
  void commitSample(const PendingSample &S, bool Attributed,
                    const mem::Attribution &Attr);

  /// Sampling period currently in force.
  uint64_t period() const override { return Period; }

  /// The period the window started with, before budget-driven doubling.
  uint64_t initialPeriod() const { return StartPeriod; }

  /// Samples between period doublings in the current window.
  uint64_t sampleBudget() const { return SampleBudget; }

  uint64_t sampleCount() const { return SamplesTaken; }
  uint64_t missesSeen() const { return MissesSeen; }

  /// Modelled profiling overhead (seconds) for the samples taken so far.
  double overheadSeconds() const;

  /// Result for one object; valid after stop() (or during profiling).
  /// Returns an empty profile for objects that received no samples.
  ObjectProfile profileFor(mem::ObjectId Id) const override;

  /// Derives the initial sampling period from the registered chunk
  /// population and the thread count (paper Section 5.1): more chunks or
  /// more threads generate miss events faster, so the period grows to keep
  /// the sample budget intact across the profiling window.
  static uint64_t deriveInitialPeriod(uint64_t TotalChunks,
                                      uint64_t TotalBytes, uint32_t Threads);

private:
  void recordSample(uint64_t Va);

  mem::DataObjectRegistry &Registry;
  ProfilerConfig Config;
  bool Active = false;
  /// True while a "profiler.window" trace span is open (start() ran with
  /// telemetry enabled and stop() has not yet closed it).
  bool WindowSpanOpen = false;
  uint64_t Period = 64;
  uint64_t StartPeriod = 64;
  uint64_t Countdown = 64;
  uint64_t MissesSeen = 0;
  uint64_t SamplesTaken = 0;
  uint64_t SampleBudget = 0;
  uint32_t Threads = 1;
  /// Indexed by ObjectId; entries sized lazily on first sample.
  std::vector<ObjectProfile> Profiles;
  /// Last-hit memo for indexed attribution on the serial paths.
  mem::AttributionHint Hint;
  /// Reused selection buffer for notifyMissBatch.
  std::vector<PendingSample> PendingScratch;
};

} // namespace prof
} // namespace atmem

#endif // ATMEM_PROFILER_SAMPLINGPROFILER_H
