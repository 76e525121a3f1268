#include "core/Runtime.h"

#include "obs/DecisionLog.h"
#include "obs/Export.h"
#include "obs/RingLog.h"
#include "obs/StatsSocket.h"
#include "obs/TimeSeries.h"
#include "fault/FaultInjection.h"
#include "obs/Trace.h"
#include "sim/Tlb.h"
#include "support/Error.h"
#include "support/Logging.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>

using namespace atmem;
using namespace atmem::core;

namespace {

void countRetry() {
  if (obs::enabled()) {
    static obs::Counter Retries("migration.retries");
    Retries.add(1);
  }
}

void countDegraded(uint64_t SkippedRanges) {
  if (obs::enabled()) {
    static obs::Counter Degraded("migration.degraded");
    Degraded.add(SkippedRanges);
  }
}

void countRenominated() {
  if (obs::enabled()) {
    static obs::Counter Renominated("migration.skipped_renominated");
    Renominated.add(1);
  }
}

double rangePriority(const std::vector<double> *Priorities,
                     const mem::ChunkRange &Range);

/// One decision-log migration lifecycle event per range (no-op while the
/// flight recorder is closed).
void recordDecisionEvents(const mem::DataObject &Obj,
                          const std::vector<mem::ChunkRange> &Ranges,
                          sim::TierId Target, obs::DecisionPhase Phase,
                          const std::vector<double> *Priorities) {
  if (!obs::DecisionLog::enabled())
    return;
  obs::DecisionLog &Log = obs::DecisionLog::instance();
  for (const mem::ChunkRange &Range : Ranges) {
    obs::MigrationEventRecord Event;
    Event.Object = Obj.id();
    Event.FirstChunk = Range.FirstChunk;
    Event.NumChunks = Range.NumChunks;
    Event.TargetFast = Target == sim::TierId::Fast ? 1 : 0;
    Event.Phase = Phase;
    Event.Priority = rangePriority(Priorities, Range);
    Log.recordMigration(Event);
  }
}

/// Sub-ranges of \p Pending whose chunks still sit on \p Source — i.e.
/// the work a partially completed migrate() left behind. Recomputed from
/// chunk tiers so it is correct for both whole-range (atmem) and
/// page-prefix (mbind) partial progress.
std::vector<mem::ChunkRange>
remainingOnSource(const mem::DataObject &Obj,
                  const std::vector<mem::ChunkRange> &Pending,
                  sim::TierId Source) {
  std::vector<mem::ChunkRange> Out;
  for (const mem::ChunkRange &Range : Pending)
    for (uint32_t C = Range.FirstChunk;
         C < Range.FirstChunk + Range.NumChunks;) {
      if (Obj.chunkTier(C) != Source) {
        ++C;
        continue;
      }
      uint32_t Begin = C;
      while (C < Range.FirstChunk + Range.NumChunks &&
             Obj.chunkTier(C) == Source)
        ++C;
      Out.push_back({Begin, C - Begin});
    }
  return Out;
}

double rangePriority(const std::vector<double> *Priorities,
                     const mem::ChunkRange &Range) {
  if (!Priorities)
    return 0.0;
  double Max = 0.0;
  for (uint32_t C = Range.FirstChunk;
       C < Range.FirstChunk + Range.NumChunks && C < Priorities->size(); ++C)
    Max = std::max(Max, (*Priorities)[C]);
  return Max;
}

/// Splits \p Remaining into (subset, dropped): the highest-priority
/// single chunks whose combined footprint fits \p FreeBytes under
/// \p Mig's capacity model, and everything else. The subset stays
/// single-chunk ranges so the mechanism's per-range staging peak is one
/// chunk — smaller granules under pressure.
std::pair<std::vector<mem::ChunkRange>, std::vector<mem::ChunkRange>>
highestPriorityFit(const mem::DataObject &Obj,
                   const std::vector<mem::ChunkRange> &Remaining,
                   const mem::Migrator &Mig, uint64_t FreeBytes,
                   const std::vector<double> *Priorities) {
  struct Candidate {
    uint32_t Chunk;
    double Priority;
    uint64_t Bytes;
  };
  std::vector<Candidate> Candidates;
  for (const mem::ChunkRange &Range : Remaining)
    for (uint32_t C = Range.FirstChunk;
         C < Range.FirstChunk + Range.NumChunks; ++C) {
      auto [Begin, End] = Obj.rangeBytes({C, 1});
      if (End > Begin)
        Candidates.push_back({C, rangePriority(Priorities, {C, 1}),
                              End - Begin});
    }
  std::sort(Candidates.begin(), Candidates.end(),
            [](const Candidate &A, const Candidate &B) {
              if (A.Priority != B.Priority)
                return A.Priority > B.Priority;
              return A.Chunk < B.Chunk;
            });
  uint64_t Payload = 0;
  uint64_t MaxChunk = 0;
  std::vector<uint8_t> Taken(Obj.numChunks(), 0);
  bool TookAny = false;
  for (const Candidate &C : Candidates) {
    uint64_t NewPayload = Payload + C.Bytes;
    uint64_t NewMax = std::max(MaxChunk, C.Bytes);
    if (Mig.capacityNeeded(NewPayload, NewMax) > FreeBytes)
      continue;
    Payload = NewPayload;
    MaxChunk = NewMax;
    Taken[C.Chunk] = 1;
    TookAny = true;
  }
  std::pair<std::vector<mem::ChunkRange>, std::vector<mem::ChunkRange>> Out;
  if (!TookAny) {
    Out.second = Remaining;
    return Out;
  }
  for (const Candidate &C : Candidates)
    (Taken[C.Chunk] ? Out.first : Out.second).push_back({C.Chunk, 1});
  std::sort(Out.first.begin(), Out.first.end(),
            [](const mem::ChunkRange &A, const mem::ChunkRange &B) {
              return A.FirstChunk < B.FirstChunk;
            });
  return Out;
}

/// Appends the runs of \p Range's chunks that are on the slow tier and
/// not yet claimed in \p InPending, claiming them.
void appendSlowRuns(const mem::DataObject &Obj, const mem::ChunkRange &Range,
                    std::vector<uint8_t> &InPending,
                    std::vector<mem::ChunkRange> &Pending) {
  uint32_t Limit =
      std::min(Range.FirstChunk + Range.NumChunks, Obj.numChunks());
  for (uint32_t C = Range.FirstChunk; C < Limit;) {
    if (InPending[C] || Obj.chunkTier(C) != sim::TierId::Slow) {
      ++C;
      continue;
    }
    uint32_t Begin = C;
    while (C < Limit && !InPending[C] &&
           Obj.chunkTier(C) == sim::TierId::Slow) {
      InPending[C] = 1;
      ++C;
    }
    Pending.push_back({Begin, C - Begin});
  }
}

} // namespace

Runtime::Runtime(RuntimeConfig ConfigIn)
    : Config(std::move(ConfigIn)), M(Config.Machine), Registry(M),
      Profiler(Registry, Config.Profiler), AtmemMig(Registry),
      MbindMig(Registry), Consumers(Profiler, M.pageTable()) {
  // Each replay worker owns at least one set of the LLC.
  if (Config.SimThreads > M.llc().sets())
    reportFatalError("SimThreads " + std::to_string(Config.SimThreads) +
                     " exceeds the LLC's " + std::to_string(M.llc().sets()) +
                     " sets");
  if (Config.SimThreads > 1) {
    Replay =
        std::make_unique<SetReplay>(M.llc(), Consumers, Config.SimThreads);
    // No worker came up: the inline engine gives the same results.
    if (Replay->workers() == 0)
      Replay.reset();
  }
  if (Config.Telemetry.Enabled || Config.Telemetry.anyOutput())
    obs::setEnabled(true);
  if (!Config.Telemetry.DecisionLogPath.empty()) {
    // Process-wide and idempotent: with several runtimes in one process
    // (bench comparisons) the first opener wins and the rest append to
    // the same stream; exportIfConfigured finalizes it at exit.
    std::string Error;
    if (!obs::DecisionLog::instance().open(Config.Telemetry.DecisionLogPath,
                                           &Error))
      logError("decision log: %s", Error.c_str());
  }
  if (!Config.Telemetry.DecisionLogRingPath.empty()) {
    // The crash-resilient always-on variant of the flight recorder: same
    // records, mmap'd ring segments instead of a flat file. Shares the
    // process-wide log with the same first-opener-wins semantics.
    obs::RingLogOptions Options;
    if (Config.Telemetry.RingSegmentBytes != 0)
      Options.SegmentBytes = Config.Telemetry.RingSegmentBytes;
    if (Config.Telemetry.RingMaxBytes != 0)
      Options.MaxBytes = Config.Telemetry.RingMaxBytes;
    std::string Error;
    if (!obs::openDecisionLogRing(Config.Telemetry.DecisionLogRingPath,
                                  Options, &Error))
      logError("decision ring: %s", Error.c_str());
  }
  if (!Config.Analyzer.RankerModelPath.empty() && !Config.Analyzer.Ranker) {
    // Learned ranker: load once here so every optimize() epoch scores
    // with the same weights. Any failure (missing file, malformed JSON,
    // injected fault) is non-fatal — the Eq. 1-5 heuristic stays active
    // and loadRankerModel has already bumped ranker.model_load_failed.
    analyzer::RankerModel Model;
    std::string Error;
    if (analyzer::loadRankerModel(Config.Analyzer.RankerModelPath, Model,
                                  &Error))
      Config.Analyzer.Ranker =
          std::make_shared<analyzer::RankerModel>(Model);
    else
      logError("ranker model: %s", Error.c_str());
  }
  if (!Config.Telemetry.TimeSeriesPath.empty() ||
      !Config.Telemetry.OpenMetricsPath.empty() ||
      !Config.Telemetry.StatsSocketPath.empty())
    obs::TimeSeries::instance().setEnabled(true);
  if (!Config.Telemetry.HealthLogPath.empty()) {
    // Same first-opener-wins process-wide stream as the decision log.
    std::string Error;
    if (!obs::HealthLog::instance().open(Config.Telemetry.HealthLogPath,
                                         &Error))
      logError("health log: %s", Error.c_str());
  }
  if (Config.Telemetry.HealthEnabled ||
      !Config.Telemetry.HealthLogPath.empty()) {
    HealthMon = std::make_unique<obs::HealthMonitor>(Config.Telemetry.Health);
  } else if (obs::healthDefaultEnabled()) {
    // Bench jobs construct runtimes without the batch TelemetryConfig;
    // the batch driver arms a process-wide default instead.
    HealthMon =
        std::make_unique<obs::HealthMonitor>(obs::healthDefaultConfig());
  }
  if (!Config.Telemetry.StatsSocketPath.empty()) {
    updatePlacementJson();
    StatsServer = std::make_unique<obs::StatsServer>();
    std::string Error;
    if (!StatsServer->start(Config.Telemetry.StatsSocketPath,
                            [this] { return statsSnapshotJson(); }, &Error)) {
      logError("stats socket: %s", Error.c_str());
      StatsServer.reset();
    }
  }
}

Runtime::~Runtime() {
  // The accept thread captures `this`; it must be gone before any member
  // it reads.
  if (StatsServer)
    StatsServer->stop();
}

void Runtime::profilingStart() {
  drain();
  Profiler.start(Config.Machine.Exec.Threads);
}

void Runtime::profilingStop() {
  drain();
  Profiler.stop();
}

mem::MigrationResult Runtime::optimize() {
  drain();
  if (Profiler.isActive())
    Profiler.stop();

  // Epoch bookkeeping for the time-series sample built at the bottom.
  // Wall-clock is only read when somebody consumes it, so a runtime with
  // no time-series/socket/health output takes exactly the old path.
  const bool TsEnabled = obs::TimeSeries::instance().enabled();
  const bool NeedWall = TsEnabled || HealthMon != nullptr;
  EpochRetries = 0;
  EpochRollbacks = 0;
  std::chrono::steady_clock::time_point WallStart;
  double IterWallUs = 0.0;
  if (NeedWall) {
    WallStart = std::chrono::steady_clock::now();
    if (HaveLastEpochWall)
      IterWallUs = std::chrono::duration<double, std::micro>(
                       WallStart - LastEpochWallEnd)
                       .count();
  }

  obs::SpanScope OptimizeSpan("runtime.optimize", "runtime");

  // One optimize() call is one decision-log epoch; every record emitted
  // below (classification, planning, migration lifecycle) is stamped
  // with it by the writer.
  if (obs::DecisionLog::enabled())
    obs::DecisionLog::instance().beginEpoch();

  mem::Migrator &Mig =
      Config.Mechanism == MigrationMechanism::Atmem
          ? static_cast<mem::Migrator &>(AtmemMig)
          : static_cast<mem::Migrator &>(MbindMig);
  mem::MigrationResult Result;

  // Budget accounting must anticipate demotions: chunks the fresh profile
  // dropped vacate the fast tier before promotions land.
  uint64_t FastFree = M.allocator(sim::TierId::Fast).freeBytes();
  if (Config.DemoteUnselected)
    FastFree += Registry.totalBytesOn(sim::TierId::Fast);
  auto Budget = static_cast<uint64_t>(static_cast<double>(FastFree) *
                                      Config.FastBudgetFraction);
  if (Config.FastBudgetBytesCap != 0)
    Budget = std::min(Budget, Config.FastBudgetBytesCap);
  // Classify once; the plan builders and the degraded-mode ranking both
  // work off the same classification, so partial plans use exactly the
  // Eq. 1 priorities the full plan was built from.
  analyzer::Analyzer Anal(Config.Analyzer);
  std::vector<analyzer::ObjectClassification> Classes =
      Anal.classify(Registry, Profiler);
  if (Config.Strategy == PlacementStrategy::BandwidthBalanced) {
    // Equalize per-tier streaming time: place the share of miss traffic
    // matching the fast tier's share of aggregate bandwidth.
    const sim::TierSpec &Fast = Config.Machine.Fast;
    const sim::TierSpec &Slow = Config.Machine.Slow;
    double Share = Fast.BandwidthBytesPerSec /
                   (Fast.BandwidthBytesPerSec + Slow.BandwidthBytesPerSec);
    LastPlan = analyzer::PlanBuilder::buildBandwidthBalanced(Classes, Budget,
                                                             Share);
  } else {
    LastPlan = analyzer::PlanBuilder::build(Classes, Budget);
  }
  auto priorityOf =
      [&Classes](mem::ObjectId Id) -> const std::vector<double> * {
    for (const analyzer::ObjectClassification &Cls : Classes)
      if (Cls.Object == Id)
        return &Cls.Local.Priority;
    return nullptr;
  };

  // Chunks a previous epoch had to leave behind are re-nominated this
  // epoch alongside the fresh plan.
  std::vector<SkippedChunk> PrevSkipped = std::move(Skipped);
  Skipped.clear();
  std::vector<uint8_t> Consumed(PrevSkipped.size(), 0);

  if (Config.DemoteUnselected)
    demoteUnselected(Mig, Result);
  for (const analyzer::ObjectPlan &ObjPlan : LastPlan.Objects) {
    mem::DataObject &Obj = Registry.object(ObjPlan.Object);
    // Only move ranges whose chunks are not already on the fast tier.
    std::vector<mem::ChunkRange> Pending;
    for (const mem::ChunkRange &Range : ObjPlan.Ranges)
      for (uint32_t C = Range.FirstChunk;
           C < Range.FirstChunk + Range.NumChunks;) {
        // Split the range at tier transitions.
        if (Obj.chunkTier(C) == sim::TierId::Fast) {
          ++C;
          continue;
        }
        uint32_t Begin = C;
        while (C < Range.FirstChunk + Range.NumChunks &&
               Obj.chunkTier(C) == sim::TierId::Slow)
          ++C;
        Pending.push_back({Begin, C - Begin});
      }
    if (!PrevSkipped.empty()) {
      std::vector<uint8_t> InPending(Obj.numChunks(), 0);
      for (const mem::ChunkRange &Range : Pending)
        for (uint32_t C = Range.FirstChunk;
             C < Range.FirstChunk + Range.NumChunks; ++C)
          InPending[C] = 1;
      for (size_t I = 0; I < PrevSkipped.size(); ++I) {
        if (Consumed[I] || PrevSkipped[I].Object != Obj.id() ||
            PrevSkipped[I].Target != sim::TierId::Fast)
          continue;
        Consumed[I] = 1;
        countRenominated();
        recordDecisionEvents(Obj, {PrevSkipped[I].Range}, sim::TierId::Fast,
                             obs::DecisionPhase::Renominated,
                             priorityOf(Obj.id()));
        appendSlowRuns(Obj, PrevSkipped[I].Range, InPending, Pending);
      }
    }
    if (Pending.empty())
      continue;
    promoteWithRecovery(Mig, Obj, std::move(Pending), priorityOf(Obj.id()),
                        Result);
  }
  // Skipped promotions whose object the fresh plan did not select at all
  // are still re-nominated (the chunks were worth fast-tier placement one
  // epoch ago and nothing has placed them since).
  for (size_t I = 0; I < PrevSkipped.size(); ++I) {
    if (Consumed[I] || PrevSkipped[I].Target != sim::TierId::Fast)
      continue;
    mem::ObjectId Id = PrevSkipped[I].Object;
    bool Live = false;
    for (const mem::DataObject *Obj : Registry.liveObjects())
      if (Obj->id() == Id) {
        Live = true;
        break;
      }
    if (!Live) {
      Consumed[I] = 1;
      continue;
    }
    mem::DataObject &Obj = Registry.object(Id);
    std::vector<mem::ChunkRange> Pending;
    std::vector<uint8_t> InPending(Obj.numChunks(), 0);
    for (size_t J = I; J < PrevSkipped.size(); ++J) {
      if (Consumed[J] || PrevSkipped[J].Object != Id ||
          PrevSkipped[J].Target != sim::TierId::Fast)
        continue;
      Consumed[J] = 1;
      countRenominated();
      recordDecisionEvents(Obj, {PrevSkipped[J].Range}, sim::TierId::Fast,
                           obs::DecisionPhase::Renominated,
                           priorityOf(Id));
      appendSlowRuns(Obj, PrevSkipped[J].Range, InPending, Pending);
    }
    if (!Pending.empty())
      promoteWithRecovery(Mig, Obj, std::move(Pending), priorityOf(Id),
                          Result);
  }
  logInfo("optimize: moved %llu bytes in %llu ranges, %.3f ms simulated",
          static_cast<unsigned long long>(Result.BytesMoved),
          static_cast<unsigned long long>(Result.Ranges),
          Result.SimSeconds * 1e3);
  OptimizeSpan.arg("bytes_moved", static_cast<double>(Result.BytesMoved))
      .arg("ranges", static_cast<double>(Result.Ranges))
      .arg("sim_sec", Result.SimSeconds);
  if (TsEnabled || StatsServer || HealthMon) {
    double WallUs = 0.0;
    if (NeedWall) {
      LastEpochWallEnd = std::chrono::steady_clock::now();
      HaveLastEpochWall = true;
      WallUs = std::chrono::duration<double, std::micro>(LastEpochWallEnd -
                                                         WallStart)
                   .count();
    }
    captureEpochSample(Result, WallUs, IterWallUs);
  }
  return Result;
}

void Runtime::captureEpochSample(const mem::MigrationResult &Result,
                                 double WallUs, double IterWallUs) {
  ++OptimizeEpochs;
  if (obs::TimeSeries::instance().enabled() || HealthMon) {
    obs::EpochSample S;
    S.Epoch = OptimizeEpochs;
    S.Accesses = Stats.Accesses;
    S.MissesFast = Stats.TierMisses[sim::tierIndex(sim::TierId::Fast)];
    S.MissesSlow = Stats.TierMisses[sim::tierIndex(sim::TierId::Slow)];
    uint64_t Misses = S.MissesFast + S.MissesSlow;
    S.SlowMissFraction =
        Misses == 0 ? 0.0
                    : static_cast<double>(S.MissesSlow) /
                          static_cast<double>(Misses);
    double IterSec = M.kernelModel().estimate(Stats).seconds();
    S.DrainMissesPerSec =
        IterSec > 0.0 ? static_cast<double>(Misses) / IterSec : 0.0;
    S.MigrationBytes = Result.BytesMoved;
    S.MigrationRanges = Result.Ranges;
    S.Retries = EpochRetries;
    S.Rollbacks = EpochRollbacks;
    S.MigrateSimSec = Result.SimSeconds;
    S.FastDataRatio = currentFastDataRatio();
    S.OptimizeWallUs = WallUs;
    S.IterationWallUs = IterWallUs;
    if (obs::TimeSeries::instance().enabled())
      obs::TimeSeries::instance().record(S);
    if (HealthMon) {
      std::vector<obs::HealthEvent> Events = HealthMon->observeEpoch(S);
      obs::HealthLog &Log = obs::HealthLog::instance();
      for (const obs::HealthEvent &E : Events) {
        if (Log.isOpen())
          Log.append(E);
        if (obs::enabled()) {
          // Registered lazily inside the health-gated path, so runs with
          // health disabled export byte-identical metrics JSON.
          static obs::Counter Info("health.events_info");
          static obs::Counter Warn("health.events_warn");
          static obs::Counter Critical("health.events_critical");
          switch (E.Severity) {
          case obs::HealthSeverity::Info:
            Info.add(1);
            break;
          case obs::HealthSeverity::Warn:
            Warn.add(1);
            break;
          case obs::HealthSeverity::Critical:
            Critical.add(1);
            break;
          }
        }
      }
      if (obs::enabled()) {
        // Per-run SLO verdicts: the worst status each detector ever
        // reached (0 green / 1 yellow / 2 red), monotone via gaugeMax.
        obs::HealthMonitor::Snapshot Snap = HealthMon->snapshot();
        for (uint32_t D = 0; D < obs::NumHealthDetectors; ++D) {
          static std::once_flag NamesOnce;
          static std::vector<obs::Gauge> *SloGauges;
          std::call_once(NamesOnce, [] {
            SloGauges = new std::vector<obs::Gauge>();
            for (uint32_t I = 0; I < obs::NumHealthDetectors; ++I)
              SloGauges->emplace_back(
                  std::string("health.slo.") +
                  obs::healthDetectorName(
                      static_cast<obs::HealthDetector>(I)));
          });
          (*SloGauges)[D].max(
              static_cast<double>(Snap.Detectors[D].Worst));
        }
      }
    }
  }
  if (StatsServer)
    updatePlacementJson();
}

void Runtime::noteHealthMigration(uint64_t Object, uint32_t FirstChunk,
                                  uint32_t NumChunks, bool ToFast) {
  if (HealthMon)
    HealthMon->noteMigration(Object, FirstChunk, NumChunks, ToFast);
}

void Runtime::updatePlacementJson() {
  std::string Out = "[";
  char Buf[256];
  bool First = true;
  for (const mem::DataObject *Obj : Registry.liveObjects()) {
    uint64_t FastBytes = Obj->bytesOn(sim::TierId::Fast);
    // bytesOn() counts whole mapped chunks, so the residency fraction is
    // relative to mappedBytes (sizeBytes rounded up to the chunk grid).
    uint64_t Mapped = Obj->mappedBytes();
    std::string Name;
    for (char C : Obj->name()) {
      if (C == '"' || C == '\\')
        Name += '\\';
      if (static_cast<unsigned char>(C) >= 0x20)
        Name += C;
    }
    // The name goes through std::string appends (it is caller-controlled
    // and unbounded); only the fixed-width numeric tail uses snprintf.
    Out += First ? "{\"name\": \"" : ", {\"name\": \"";
    Out += Name;
    std::snprintf(Buf, sizeof(Buf),
                  "\", \"bytes\": %" PRIu64 ", \"chunks\": %" PRIu32
                  ", \"fast_bytes\": %" PRIu64 ", \"fast_fraction\": %.6f}",
                  Obj->sizeBytes(), Obj->numChunks(), FastBytes,
                  Mapped == 0 ? 0.0
                              : static_cast<double>(FastBytes) /
                                    static_cast<double>(Mapped));
    Out += Buf;
    First = false;
  }
  Out += "]";
  std::lock_guard<std::mutex> Lock(StatsMutex);
  PlacementJson = std::move(Out);
}

std::string Runtime::statsSnapshotJson() {
  // Runs on the accept thread: everything read here is either immutable,
  // internally synchronized (metric registry, time series, ring head
  // atomics), or the mutex-guarded placement snapshot. Live runtime
  // structures are never touched.
  obs::RingHead Head = obs::ringHead();
  std::string Placement;
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Placement = PlacementJson;
  }
  if (Placement.empty())
    Placement = "[]";
  std::vector<obs::EpochSample> Samples =
      obs::TimeSeries::instance().snapshot();

  char Buf[512];
  std::string Out = "{\n  \"schema\": \"atmem-stats-v1\",\n";
  std::snprintf(Buf, sizeof(Buf),
                "  \"epoch\": %" PRIu64 ",\n  \"ring\": {\"segment\": %" PRIu64
                ", \"offset\": %" PRIu64 ", \"next_seq\": %" PRIu64 "},\n",
                Samples.empty() ? 0 : Samples.back().Epoch, Head.Segment,
                Head.Offset, Head.NextSeq);
  Out += Buf;
  if (!Samples.empty()) {
    const obs::EpochSample &S = Samples.back();
    std::snprintf(Buf, sizeof(Buf),
                  "  \"last_epoch\": {\"epoch\": %" PRIu64
                  ", \"slow_miss_fraction\": %.6f, \"migration_bytes\": "
                  "%" PRIu64 ", \"migration_ranges\": %" PRIu64
                  ", \"retries\": %" PRIu64 ", \"rollbacks\": %" PRIu64
                  ", \"fast_data_ratio\": %.6f, \"optimize_wall_us\": %.1f},\n",
                  S.Epoch, S.SlowMissFraction, S.MigrationBytes,
                  S.MigrationRanges, S.Retries, S.Rollbacks, S.FastDataRatio,
                  S.OptimizeWallUs);
    Out += Buf;
  }
  if (HealthMon) {
    // Live detector panel. The section is present only when the monitor
    // is armed, so the served schema is unchanged for existing clients.
    obs::HealthMonitor::Snapshot Snap = HealthMon->snapshot();
    std::snprintf(Buf, sizeof(Buf),
                  "  \"health\": {\"overall\": \"%s\", \"worst\": \"%s\", "
                  "\"events\": {\"info\": %" PRIu64 ", \"warn\": %" PRIu64
                  ", \"critical\": %" PRIu64 "}, \"detectors\": [",
                  obs::sloStatusName(Snap.Overall),
                  obs::sloStatusName(Snap.WorstOverall), Snap.EventsInfo,
                  Snap.EventsWarn, Snap.EventsCritical);
    Out += Buf;
    for (uint32_t D = 0; D < obs::NumHealthDetectors; ++D) {
      const auto &Det = Snap.Detectors[D];
      std::string Detail;
      for (char C : Det.Detail) {
        if (C == '"' || C == '\\')
          Detail += '\\';
        if (static_cast<unsigned char>(C) >= 0x20)
          Detail += C;
      }
      std::snprintf(
          Buf, sizeof(Buf),
          "%s{\"name\": \"%s\", \"status\": \"%s\", \"worst\": \"%s\", "
          "\"events\": %" PRIu64 ", \"last_epoch\": %" PRIu64
          ", \"value\": %.6f, \"detail\": \"",
          D == 0 ? "" : ", ",
          obs::healthDetectorName(static_cast<obs::HealthDetector>(D)),
          obs::sloStatusName(Det.Status), obs::sloStatusName(Det.Worst),
          Det.Events, Det.LastEventEpoch,
          std::isfinite(Det.Value) ? Det.Value : 0.0);
      Out += Buf;
      Out += Detail;
      Out += "\"}";
    }
    Out += "]},\n";
  }
  Out += "  \"metrics\":\n";
  Out += obs::metricsJson(obs::Registry::instance().snapshot(), "  ");
  Out += ",\n  \"placement\": ";
  Out += Placement;
  Out += "\n}\n";
  return Out;
}

void Runtime::demoteUnselected(mem::Migrator &Mig,
                               mem::MigrationResult &Result) {
  // Per-object selection flags from the current plan.
  for (mem::DataObject *Obj : Registry.liveObjects()) {
    std::vector<uint8_t> Selected(Obj->numChunks(), 0);
    for (const analyzer::ObjectPlan &ObjPlan : LastPlan.Objects) {
      if (ObjPlan.Object != Obj->id())
        continue;
      for (const mem::ChunkRange &Range : ObjPlan.Ranges)
        for (uint32_t C = Range.FirstChunk;
             C < Range.FirstChunk + Range.NumChunks; ++C)
          Selected[C] = 1;
    }
    std::vector<mem::ChunkRange> Demotions;
    for (uint32_t C = 0; C < Obj->numChunks();) {
      if (Selected[C] || Obj->chunkTier(C) != sim::TierId::Fast) {
        ++C;
        continue;
      }
      uint32_t Begin = C;
      while (C < Obj->numChunks() && !Selected[C] &&
             Obj->chunkTier(C) == sim::TierId::Fast)
        ++C;
      Demotions.push_back({Begin, C - Begin});
    }
    if (Demotions.empty())
      continue;
    // Demotions free capacity rather than consume it, so recovery is
    // retry-only: the next epoch recomputes unselected chunks from
    // scratch, which re-nominates anything left behind here.
    std::vector<mem::ChunkRange> Pending = std::move(Demotions);
    recordDecisionEvents(*Obj, Pending, sim::TierId::Slow,
                         obs::DecisionPhase::Planned, nullptr);
    // The ping-pong detector needs what actually moved, recomputed from
    // chunk tiers after the retry loop settles (all of Orig started on
    // the fast tier, so whatever now sits on slow was demoted here).
    std::vector<mem::ChunkRange> HealthOrig;
    if (HealthMon)
      HealthOrig = Pending;
    uint32_t Retries = 0;
    for (;;) {
      mem::MigrationStatus Status =
          Mig.migrate(*Obj, Pending, sim::TierId::Slow, Result);
      if (Status == mem::MigrationStatus::Retryable)
        ++EpochRollbacks; // A Retryable status means a range rolled back.
      if (Status == mem::MigrationStatus::Success)
        break;
      std::vector<mem::ChunkRange> Remaining =
          remainingOnSource(*Obj, Pending, sim::TierId::Fast);
      if (Remaining.empty())
        break;
      if (Status == mem::MigrationStatus::Retryable &&
          Retries < Config.MigrationMaxRetries) {
        ++Retries;
        ++EpochRetries;
        Result.SimSeconds += Config.MigrationRetryBackoffSec * Retries;
        countRetry();
        recordDecisionEvents(*Obj, Remaining, sim::TierId::Slow,
                             obs::DecisionPhase::Retried, nullptr);
        Pending = std::move(Remaining);
        continue;
      }
      recordSkipped(*Obj, Remaining, sim::TierId::Slow, nullptr);
      countDegraded(Remaining.size());
      logError("demotion of object '%s' hit slow-tier capacity",
               Obj->name().c_str());
      break;
    }
    if (HealthMon)
      for (const mem::ChunkRange &Moved :
           remainingOnSource(*Obj, HealthOrig, sim::TierId::Slow))
        noteHealthMigration(Obj->id(), Moved.FirstChunk, Moved.NumChunks,
                            /*ToFast=*/false);
  }
}

void Runtime::promoteWithRecovery(mem::Migrator &Mig, mem::DataObject &Obj,
                                  std::vector<mem::ChunkRange> Pending,
                                  const std::vector<double> *Priorities,
                                  mem::MigrationResult &Result) {
  uint32_t Retries = 0;
  bool Shrunk = false;
  recordDecisionEvents(Obj, Pending, sim::TierId::Fast,
                       obs::DecisionPhase::Planned, Priorities);
  // What the ping-pong detector sees is the promotion that actually
  // landed: recomputed from chunk tiers at every exit (all of Orig
  // started on the slow tier, so whatever now sits on fast moved here).
  std::vector<mem::ChunkRange> HealthOrig;
  if (HealthMon)
    HealthOrig = Pending;
  auto NoteMoved = [&] {
    if (!HealthMon)
      return;
    for (const mem::ChunkRange &Moved :
         remainingOnSource(Obj, HealthOrig, sim::TierId::Fast))
      noteHealthMigration(Obj.id(), Moved.FirstChunk, Moved.NumChunks,
                          /*ToFast=*/true);
  };
  // Ranges dropped by a capacity shrink, reported together with whatever
  // the final attempt leaves behind.
  std::vector<mem::ChunkRange> Abandoned;
  for (;;) {
    mem::MigrationStatus Status =
        Mig.migrate(Obj, Pending, sim::TierId::Fast, Result);
    if (Status == mem::MigrationStatus::Retryable)
      ++EpochRollbacks; // A Retryable status means a range rolled back.
    if (Status == mem::MigrationStatus::Success) {
      NoteMoved();
      if (Abandoned.empty())
        return;
      recordSkipped(Obj, Abandoned, sim::TierId::Fast, Priorities);
      countDegraded(Abandoned.size());
      logError("migration of object '%s' hit fast-tier capacity",
               Obj.name().c_str());
      return;
    }
    std::vector<mem::ChunkRange> Remaining =
        remainingOnSource(Obj, Pending, sim::TierId::Slow);
    if (Status == mem::MigrationStatus::Retryable &&
        Retries < Config.MigrationMaxRetries) {
      ++Retries;
      ++EpochRetries;
      Result.SimSeconds += Config.MigrationRetryBackoffSec * Retries;
      countRetry();
      recordDecisionEvents(Obj, Remaining, sim::TierId::Fast,
                           obs::DecisionPhase::Retried, Priorities);
      Pending = std::move(Remaining);
      continue;
    }
    if (Status == mem::MigrationStatus::Degraded && !Shrunk) {
      // Capacity-bound: keep the highest-priority chunks that fit the
      // free bytes under this mechanism's capacity model, as single-chunk
      // ranges (smaller staging granules under pressure).
      auto [Subset, Dropped] = highestPriorityFit(
          Obj, Remaining, Mig, M.allocator(sim::TierId::Fast).freeBytes(),
          Priorities);
      if (!Subset.empty()) {
        recordDecisionEvents(Obj, Dropped, sim::TierId::Fast,
                             obs::DecisionPhase::Degraded, Priorities);
        Abandoned.insert(Abandoned.end(), Dropped.begin(), Dropped.end());
        Pending = std::move(Subset);
        Shrunk = true;
        continue;
      }
    }
    Abandoned.insert(Abandoned.end(), Remaining.begin(), Remaining.end());
    if (!Abandoned.empty()) {
      recordSkipped(Obj, Abandoned, sim::TierId::Fast, Priorities);
      countDegraded(Abandoned.size());
    }
    if (Status == mem::MigrationStatus::Retryable)
      logError("migration of object '%s' abandoned after %u retries",
               Obj.name().c_str(), Retries);
    else
      logError("migration of object '%s' hit fast-tier capacity",
               Obj.name().c_str());
    NoteMoved();
    return;
  }
}

void Runtime::recordSkipped(const mem::DataObject &Obj,
                            const std::vector<mem::ChunkRange> &Ranges,
                            sim::TierId Target,
                            const std::vector<double> *Priorities) {
  recordDecisionEvents(Obj, Ranges, Target, obs::DecisionPhase::Skipped,
                       Priorities);
  for (const mem::ChunkRange &Range : Ranges)
    Skipped.push_back(
        {Obj.id(), Range, Target, rangePriority(Priorities, Range)});
}

void Runtime::beginIteration() {
  drain();
  Stats = sim::AccessStats();
  if (obs::enabled() && !IterationSpanOpen) {
    obs::Tracer::instance().begin("runtime.iteration", "runtime");
    IterationSpanOpen = true;
  }
}

double Runtime::endIteration() {
  drain();
  double SimSec = M.kernelModel().estimate(Stats).seconds();
  if (obs::enabled()) {
    static obs::Counter Iterations("runtime.iterations");
    static obs::Counter Accesses("runtime.accesses");
    static obs::Counter LlcHits("runtime.llc_hits");
    static obs::Counter MissesFast("runtime.misses_fast");
    static obs::Counter MissesSlow("runtime.misses_slow");
    static obs::Histogram IterUs("runtime.iteration_sim_us");
    Iterations.add(1);
    Accesses.add(Stats.Accesses);
    LlcHits.add(Stats.LlcHits);
    MissesFast.add(Stats.TierMisses[sim::tierIndex(sim::TierId::Fast)]);
    MissesSlow.add(Stats.TierMisses[sim::tierIndex(sim::TierId::Slow)]);
    IterUs.recordSeconds(SimSec);
    if (const sim::Tlb *Tlb = Consumers.tlb()) {
      // Hoisted like the counters above: constructing a Gauge by name is
      // a registry lookup that has no place in the per-iteration path.
      static obs::Gauge TlbHits("runtime.tlb_hits");
      static obs::Gauge TlbMisses("runtime.tlb_misses");
      TlbHits.set(static_cast<double>(Tlb->hits()));
      TlbMisses.set(static_cast<double>(Tlb->misses()));
    }
  }
  if (IterationSpanOpen) {
    IterationSpanOpen = false;
    obs::Tracer::instance().end(
        "runtime.iteration", "runtime",
        {{"sim_sec", SimSec},
         {"accesses", static_cast<double>(Stats.Accesses)},
         {"llc_hits", static_cast<double>(Stats.LlcHits)}});
  }
  return SimSec;
}

double Runtime::currentFastDataRatio() const {
  uint64_t Total = Registry.totalMappedBytes();
  if (Total == 0)
    return 0.0;
  return static_cast<double>(Registry.totalBytesOn(sim::TierId::Fast)) /
         static_cast<double>(Total);
}
