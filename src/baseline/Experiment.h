//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment runner shared by every figure/table reproduction. One
/// run executes a (kernel, graph, machine, policy) combination using the
/// paper's methodology (Section 6): the first iteration profiles, data
/// migrates before the second iteration, and the second iteration's
/// simulated time is the reported result.
///
/// Policies cover the paper's comparison points plus two ablations:
///
///   AllSlow        baseline: everything on the large-capacity memory
///   AllFast        ideal: everything on the fast memory (NVM testbed)
///   PreferredFast  numactl -p model (the MCDRAM testbed's reference)
///   Interleaved    numactl -i model (pages alternate between tiers)
///   Atmem          the full system (profile -> analyze -> migrate)
///   AtmemMbind     ATMem analysis, mbind migration (Table 4 comparison)
///   AtmemSampledOnly  local selection only, no tree promotion (ablation)
///   CoarseGrained  whole-object chunks (Tahoe-style ablation)
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_BASELINE_EXPERIMENT_H
#define ATMEM_BASELINE_EXPERIMENT_H

#include "core/Runtime.h"
#include "graph/CsrGraph.h"
#include "mem/Migrator.h"
#include "support/Statistics.h"

#include <string>

namespace atmem {
namespace baseline {

/// Placement policy of one experimental run.
enum class Policy {
  AllSlow,
  AllFast,
  PreferredFast,
  Interleaved,
  Atmem,
  AtmemMbind,
  AtmemSampledOnly,
  CoarseGrained,
};

/// Human-readable policy name for reports.
const char *policyName(Policy P);

/// True for policies that run the profile/optimize pipeline.
bool policyUsesAtmem(Policy P);

/// One experiment description.
struct RunConfig {
  std::string KernelName = "bfs";
  const graph::CsrGraph *Graph = nullptr;
  sim::MachineConfig Machine;
  Policy PolicyKind = Policy::AllSlow;
  /// The Section 7.2 sensitivity sweep knob: biases all selection
  /// thresholds at once (positive = less data placed, negative = more;
  /// the paper sweeps Eq. 5's epsilon, which this generalizes).
  double EpsilonOffset = 0.0;
  /// Extra measured iterations after the second (their times averaged
  /// into MeasuredIterSec).
  uint32_t MeasuredIterations = 1;
  /// Measures post-migration TLB misses by replaying the measured
  /// iteration's accesses through a simulated TLB (Table 4 mode).
  bool MeasureTlb = false;
  /// Host threads replaying the LLC model (see
  /// core::RuntimeConfig::SimThreads); 1 probes the LLC inline. Results
  /// do not depend on it.
  uint32_t SimThreads = 1;
  /// Re-profile and re-optimize around every measured iteration instead
  /// of the paper's single second-iteration optimize. Each iteration then
  /// opens its own decision-log epoch — the multi-epoch mode the ring-log
  /// crash-recovery test (and any long-running adaptive study) needs.
  /// Off by default: the paper's methodology is unchanged.
  bool OptimizeEachIteration = false;
  /// Telemetry collection/export forwarded into the runtime (see
  /// core::RuntimeConfig::Telemetry). Disabled by default.
  obs::TelemetryConfig Telemetry;
  /// atmem-ranker-v1 model file re-scoring every placement verdict (see
  /// analyzer::AnalyzerConfig::RankerModelPath). Empty keeps the Eq. 1-5
  /// heuristic bit-identical.
  std::string RankerModelPath;
};

/// Results of one experiment.
struct RunResult {
  /// Simulated time of the profiled first iteration (profiling overhead
  /// included for ATMem policies).
  double FirstIterSec = 0.0;
  /// Simulated time of the measured iteration(s), the paper's metric.
  double MeasuredIterSec = 0.0;
  /// Per-iteration simulated times of the measured iterations;
  /// mean() == MeasuredIterSec, and variance()/stddev() quantify
  /// iteration-to-iteration spread when MeasuredIterations > 1.
  RunningStat IterStats;
  /// Fraction of registered bytes on the fast tier when measuring.
  double FastDataRatio = 0.0;
  /// Migration counters (zero for non-ATMem policies).
  mem::MigrationResult Migration;
  /// Modelled profiling overhead in seconds.
  double ProfilingOverheadSec = 0.0;
  /// Post-migration TLB misses of the measured iteration (MeasureTlb).
  uint64_t TlbMisses = 0;
  /// Result checksum of the final iteration (placement must not change
  /// results; tests compare across policies).
  uint64_t Checksum = 0;
};

/// Executes one experiment.
RunResult runExperiment(const RunConfig &Config);

} // namespace baseline
} // namespace atmem

#endif // ATMEM_BASELINE_EXPERIMENT_H
