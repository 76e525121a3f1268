//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ATMem runtime: the paper's three components glued behind one
/// object. Applications allocate their data through the runtime (receiving
/// TrackedArray views whose accesses feed the simulated LLC and the
/// profiler), run a profiled iteration between profilingStart()/stop(),
/// call optimize() to analyze and migrate, and read simulated iteration
/// times from the iteration scope API.
///
/// The C-style API of the paper's Listing 1 (atmem_malloc & friends) is
/// provided in AtmemApi.h on top of this class.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_CORE_RUNTIME_H
#define ATMEM_CORE_RUNTIME_H

#include "analyzer/Analyzer.h"
#include "core/Engine.h"
#include "mem/AtmemMigrator.h"
#include "mem/DataObjectRegistry.h"
#include "mem/MbindMigrator.h"
#include "obs/Telemetry.h"
#include "profiler/SamplingProfiler.h"
#include "profiler/TraceFile.h"
#include "sim/Machine.h"
#include "sim/TranslationCache.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace atmem {

namespace obs {
class StatsServer;
}

namespace core {

/// Which migration mechanism optimize() uses.
enum class MigrationMechanism {
  Atmem, ///< Multi-stage multi-threaded (the paper's contribution).
  Mbind, ///< System-service model (the paper's comparison point).
};

/// How optimize() turns classifications into a plan.
enum class PlacementStrategy {
  /// The paper's default: all critical (sampled + estimated) chunks go to
  /// the fast tier, up to the byte budget.
  CriticalChunks,
  /// Section 9 extension for independent-channel machines (KNL): target
  /// a traffic split proportional to the tiers' bandwidths so both
  /// memories stream concurrently.
  BandwidthBalanced,
};

/// Complete runtime configuration.
struct RuntimeConfig {
  sim::MachineConfig Machine;
  prof::ProfilerConfig Profiler;
  analyzer::AnalyzerConfig Analyzer;
  /// Initial placement of new registrations (the experiment baselines
  /// flip this between Slow / Fast / PreferredFast).
  mem::InitialPlacement Placement = mem::InitialPlacement::Slow;
  /// Chunk-size override for registrations; 0 = adaptive (Section 4.1).
  uint64_t ChunkBytesOverride = 0;
  /// Registers every object as a single chunk, reducing ATMem to the
  /// coarse-grained whole-structure placement of prior work (Tahoe-style
  /// baseline; see paper Sections 1-2 and 9).
  bool WholeObjectChunks = false;
  MigrationMechanism Mechanism = MigrationMechanism::Atmem;
  PlacementStrategy Strategy = PlacementStrategy::CriticalChunks;
  /// Fraction of the fast tier's free bytes a plan may consume; the rest
  /// is headroom for the migration staging buffer and other tenants.
  double FastBudgetFraction = 0.85;
  /// Absolute cap on the plan budget in bytes (0 = uncapped). Models a
  /// shared server where co-tenants leave ATMem only a fixed slice of
  /// the fast memory (the paper's Section 1 motivation).
  uint64_t FastBudgetBytesCap = 0;
  /// When optimize() runs again after the access pattern changed (a new
  /// query, a new phase), fast-tier chunks that the fresh profile no
  /// longer selects are migrated back to the large-capacity tier before
  /// the newly critical chunks move in. Placement thus *adapts* across
  /// queries (the data-driven behaviour of paper Section 2.2).
  bool DemoteUnselected = true;
  /// Transient (Retryable) migration failures are retried up to this many
  /// times before the affected chunks are left on their source tier and
  /// recorded for the next epoch. Retries model a real runtime backing
  /// off and re-issuing the move; each costs MigrationRetryBackoffSec of
  /// simulated time on top of the migration work itself.
  uint32_t MigrationMaxRetries = 2;
  /// Simulated back-off added before the Nth retry (linear: N * this).
  double MigrationRetryBackoffSec = 100e-6;
  /// Host threads that replay the LLC model (core/Engine.h). 1 (the
  /// default) probes the LLC inline on the kernel's thread; T >= 2 runs
  /// the kernel's serial code on the calling thread and replays the one
  /// full-size LLC on T workers, one contiguous range of sets each. Every
  /// value gives the same results bit for bit; T above the LLC's set count
  /// is a fatal error in the constructor. The runtime's only
  /// host-parallelism setting: the migrator runs on the calling thread,
  /// and the miss consumers on it or on the replay workers.
  uint32_t SimThreads = 1;
  /// Telemetry collection and export. Constructing a Runtime with
  /// Enabled (or any output path) set arms the process-wide obs switch;
  /// with the default (disabled) config every instrumentation site costs
  /// one relaxed atomic load and a branch.
  obs::TelemetryConfig Telemetry;
};

template <typename T> class TrackedArray;

/// One planned chunk range that optimize() could not place (capacity
/// pressure or an unrecovered fault). The runtime keeps the set from the
/// most recent epoch so the next optimize() re-nominates the chunks
/// instead of silently forgetting them.
struct SkippedChunk {
  mem::ObjectId Object = 0;
  mem::ChunkRange Range;
  /// Tier the chunks were headed for when they were skipped.
  sim::TierId Target = sim::TierId::Fast;
  /// Highest per-chunk priority (Eq. 1 PR) in the range at skip time.
  double Priority = 0.0;
};

/// The ATMem runtime for one simulated testbed.
class Runtime {
public:
  explicit Runtime(RuntimeConfig Config);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// Registers an array of \p Count elements of T and returns a tracked
  /// view. Equivalent to the paper's atmem_malloc().
  template <typename T>
  TrackedArray<T> allocate(const std::string &Name, size_t Count);

  /// Unregisters an object; equivalent to atmem_free().
  void release(mem::ObjectId Id) {
    drain();
    Registry.destroy(Id);
  }

  /// Arms hardware sampling (paper atmem_profiling_start()).
  void profilingStart();

  /// Disarms sampling (paper atmem_profiling_stop()).
  void profilingStop();

  /// Analyzes the collected profile and migrates the selected chunks to
  /// the fast tier with the configured mechanism (paper atmem_optimize()).
  /// Returns the migration counters; the applied plan is retrievable via
  /// lastPlan().
  mem::MigrationResult optimize();

  /// \name Iteration timing scope
  /// The application brackets each kernel iteration; the runtime counts
  /// accesses and converts them into simulated seconds at the end.
  /// @{
  void beginIteration();
  /// Ends the iteration and returns its simulated duration in seconds.
  double endIteration();
  const sim::AccessStats &iterationStats() {
    drain();
    return Stats;
  }
  /// @}

  /// Hot path: one tracked access at byte offset \p Offset of the object
  /// behind \p Handle. Inline engine: flag test and LLC probe, with the
  /// fill, per-tier accounting and miss consumers out of line. Replay
  /// engine: one record appended for the set-range workers.
  [[gnu::always_inline]] void onAccess(const TrackHandle &Handle,
                                       uint64_t Offset) {
    if (!TrackingEnabled)
      return;
    uint64_t Va = Handle.VaBase + Offset;
    if (Replay) {
      if (Replay->record(Va, Handle.ChunkTiers[Offset >> Handle.ChunkShift]))
        onBlockFull();
      return;
    }
    ++Stats.Accesses;
    if (M.llc().probe(Va)) {
      ++Stats.LlcHits;
      return;
    }
    onMiss(Handle, Offset, Va);
  }

  /// Workers replaying the LLC (fewer than SimThreads if spawns failed),
  /// or 1 for the inline engine.
  uint32_t simThreads() const { return Replay ? Replay->workers() : 1; }

  /// Enables/disables all tracking (e.g. during graph construction).
  void setTrackingEnabled(bool Enabled) {
    drain();
    TrackingEnabled = Enabled;
  }
  bool trackingEnabled() const { return TrackingEnabled; }

  /// Attaches a TLB that every LLC miss replays against the current page
  /// table (Table 4 measurement mode); nullptr detaches. Replay workers
  /// may use it until it is detached, so detach it before destroying it.
  void setReplayTlb(sim::Tlb *Tlb) {
    drain();
    Consumers.setTlb(Tlb);
  }

  /// Attaches a trace writer that records every LLC-miss address (for
  /// offline analysis through prof::OfflineProfiler); nullptr detaches.
  /// Detach it before finishing or destroying it.
  void setMissTrace(prof::TraceWriter *Writer) {
    drain();
    Consumers.setTrace(Writer);
  }

  /// Fraction of registered bytes currently on the fast tier.
  double fastDataRatio() {
    drain();
    return currentFastDataRatio();
  }

  /// Modelled profiler overhead accumulated since profilingStart().
  double profilingOverheadSeconds() {
    drain();
    return Profiler.overheadSeconds();
  }

  /// The most recent plan applied by optimize().
  const analyzer::PlacementPlan &lastPlan() const { return LastPlan; }

  /// Chunks the most recent optimize() planned but could not place. The
  /// next optimize() merges still-unplaced entries back into its
  /// promotion work (re-nomination), so capacity pressure defers chunks
  /// instead of dropping them.
  const std::vector<SkippedChunk> &skippedChunks() const { return Skipped; }

  /// \name Components
  /// Each drains the replay first, so the caller sees (and may change)
  /// state that every access so far has reached.
  /// @{
  sim::Machine &machine() {
    drain();
    return M;
  }
  mem::DataObjectRegistry &registry() {
    drain();
    return Registry;
  }
  prof::SamplingProfiler &profiler() {
    drain();
    return Profiler;
  }
  /// @}
  const RuntimeConfig &config() const { return Config; }
  analyzer::AnalyzerConfig &analyzerConfig() { return Config.Analyzer; }

private:
  /// \name Engine (Engine.cpp)
  /// @{
  /// Miss half of the inline onAccess(): fills the LLC and feeds the
  /// per-tier counts and the miss consumers.
  [[gnu::noinline]] void onMiss(const TrackHandle &Handle, uint64_t Offset,
                                uint64_t Va);
  /// Publishes the full open block to the replay workers.
  [[gnu::noinline]] void onBlockFull();
  /// Waits for the replay of every access so far; adds its counts to
  /// Stats.
  void drainReplay();
  /// Brings Stats and the miss consumers up to every access so far. Every
  /// public call but onAccess() that touches simulation state runs it
  /// first.
  void drain() {
    if (Replay && Replay->pending())
      drainReplay();
  }
  /// @}

  double currentFastDataRatio() const;

  /// Migrates fast-resident chunks that LastPlan no longer selects back
  /// to the slow tier (the adaptive re-optimization path).
  void demoteUnselected(mem::Migrator &Mig, mem::MigrationResult &Result);

  /// Promotes \p Pending to the fast tier with graceful degradation:
  /// transient failures get bounded retry-with-backoff, capacity
  /// exhaustion shrinks the work to the highest-priority chunks that fit
  /// (\p Priorities indexes per-chunk Eq. 1 PR; may be null), and
  /// whatever remains unplaced lands in the skipped set.
  void promoteWithRecovery(mem::Migrator &Mig, mem::DataObject &Obj,
                           std::vector<mem::ChunkRange> Pending,
                           const std::vector<double> *Priorities,
                           mem::MigrationResult &Result);

  /// Records \p Ranges of \p Obj as skipped on the way to \p Target.
  void recordSkipped(const mem::DataObject &Obj,
                     const std::vector<mem::ChunkRange> &Ranges,
                     sim::TierId Target,
                     const std::vector<double> *Priorities);

  RuntimeConfig Config;
  sim::Machine M;
  mem::DataObjectRegistry Registry;
  prof::SamplingProfiler Profiler;
  mem::AtmemMigrator AtmemMig;
  mem::MbindMigrator MbindMig;
  analyzer::PlacementPlan LastPlan;
  /// Planned-but-unplaced chunks from the most recent optimize().
  std::vector<SkippedChunk> Skipped;
  sim::AccessStats Stats;
  MissConsumers Consumers;
  /// The set-partitioned replay when SimThreads >= 2 and a worker came
  /// up (else null: the inline engine). Its workers are the only host
  /// threads a runtime owns; declared after M, whose LLC they replay.
  std::unique_ptr<SetReplay> Replay;
  bool TrackingEnabled = true;
  /// True while a "runtime.iteration" trace span is open (beginIteration
  /// ran with telemetry enabled; endIteration closes it).
  bool IterationSpanOpen = false;
  /// \name Live observability (inert unless Telemetry configures it)
  /// @{
  /// 1-based ordinal of optimize() calls — the time-series x axis.
  uint64_t OptimizeEpochs = 0;
  /// Migration retries and range rollbacks of the epoch being built
  /// (both reset every optimize()).
  uint64_t EpochRetries = 0;
  uint64_t EpochRollbacks = 0;
  /// Snapshot server for --stats-socket (null when not requested, so the
  /// only cost in that mode is a pointer null check at shutdown).
  std::unique_ptr<obs::StatsServer> StatsServer;
  /// Placement summary served by the socket: rebuilt under StatsMutex at
  /// each epoch boundary so the accept thread never walks live registry
  /// structures concurrently with a migration.
  std::mutex StatsMutex;
  std::string PlacementJson;
  /// Online health monitor (null unless --health / --health-log or the
  /// process-wide default armed it). Every epoch-cadence call site pays
  /// one pointer null check when disabled; the access hot path pays
  /// nothing.
  std::unique_ptr<obs::HealthMonitor> HealthMon;
  /// Wall clock of the previous epoch boundary, for the IterationWallUs
  /// budget denominator (valid once HaveLastEpochWall).
  std::chrono::steady_clock::time_point LastEpochWallEnd;
  bool HaveLastEpochWall = false;
  /// @}

  /// Captures this epoch's time-series sample, feeds the health monitor,
  /// and refreshes the stats snapshot (no-ops when no sink is configured).
  void captureEpochSample(const mem::MigrationResult &Result, double WallUs,
                          double IterWallUs);
  /// Reports the chunks \p Moved actually placed on \p ToFast's tier to
  /// the health monitor's ping-pong tracker (no-op when HealthMon is
  /// null).
  void noteHealthMigration(uint64_t Object, uint32_t FirstChunk,
                           uint32_t NumChunks, bool ToFast);
  /// Rebuilds PlacementJson from the live registry (epoch boundary only).
  void updatePlacementJson();
  /// Renders the document served to each stats-socket connection.
  std::string statsSnapshotJson();
};

/// A typed view over a registered data object. Every element access is
/// reported to the runtime, which models its cache/tier cost. Obtain raw()
/// for untracked bulk initialization.
template <typename T> class TrackedArray {
public:
  TrackedArray() = default;
  TrackedArray(Runtime *Rt, T *Data, size_t Count, TrackHandle Handle)
      : Rt(Rt), Data(Data), Count(Count), Handle(Handle) {}

  /// Tracked element access.
  T &operator[](size_t I) {
    Rt->onAccess(Handle, I * sizeof(T));
    return Data[I];
  }
  const T &operator[](size_t I) const {
    Rt->onAccess(Handle, I * sizeof(T));
    return Data[I];
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Untracked raw pointer (initialization/verification only).
  T *raw() { return Data; }
  const T *raw() const { return Data; }

  mem::ObjectId objectId() const { return Handle.Object; }
  uint64_t va() const { return Handle.VaBase; }

private:
  Runtime *Rt = nullptr;
  T *Data = nullptr;
  size_t Count = 0;
  TrackHandle Handle;
};

template <typename T>
TrackedArray<T> Runtime::allocate(const std::string &Name, size_t Count) {
  drain();
  uint64_t SizeBytes = Count * sizeof(T);
  uint64_t ChunkOverride = Config.ChunkBytesOverride;
  if (Config.WholeObjectChunks) {
    ChunkOverride = sim::SmallPageBytes;
    while (ChunkOverride < SizeBytes)
      ChunkOverride *= 2;
  }
  mem::DataObject &Obj =
      Registry.create(Name, SizeBytes, Config.Placement, ChunkOverride);
  TrackHandle Handle;
  Handle.VaBase = Obj.va();
  Handle.ChunkTiers = Obj.chunkTierData();
  Handle.ChunkShift = Obj.chunkShift();
  Handle.Object = Obj.id();
  return TrackedArray<T>(this, reinterpret_cast<T *>(Obj.data()), Count,
                         Handle);
}

} // namespace core
} // namespace atmem

#endif // ATMEM_CORE_RUNTIME_H
