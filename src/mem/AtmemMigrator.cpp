#include "mem/AtmemMigrator.h"

#include "fault/FaultInjection.h"
#include "obs/DecisionLog.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "sim/Machine.h"

#include <cstring>
#include <memory>

using namespace atmem;
using namespace atmem::mem;

namespace {

/// Counts payload bytes by direction; promotion and demotion traffic have
/// very different costs on asymmetric tiers, so they get separate counters.
void countDirection(sim::TierId Target, uint64_t Bytes) {
  static obs::Counter ToFast("migrator.bytes_to_fast");
  static obs::Counter ToSlow("migrator.bytes_to_slow");
  (Target == sim::TierId::Fast ? ToFast : ToSlow).add(Bytes);
}

void countRollback() {
  if (obs::enabled()) {
    static obs::Counter RolledBack("migration.rolled_back");
    RolledBack.add(1);
  }
}

fault::Site StagingAllocFault("migrator.staging_alloc");
fault::Site RemapFault("migrator.remap");

/// Flight-recorder lifecycle event for one range inside migrate(). The
/// fault site is only set on RolledBack, attributing which stage failed.
void recordRangeEvent(const DataObject &Obj, const ChunkRange &Range,
                      sim::TierId Target, obs::DecisionPhase Phase,
                      const char *FaultSite = nullptr) {
  if (!obs::DecisionLog::enabled())
    return;
  obs::DecisionLog &Log = obs::DecisionLog::instance();
  obs::MigrationEventRecord Event;
  Event.Object = Obj.id();
  Event.FirstChunk = Range.FirstChunk;
  Event.NumChunks = Range.NumChunks;
  Event.TargetFast = Target == sim::TierId::Fast ? 1 : 0;
  Event.Phase = Phase;
  if (FaultSite)
    Event.FaultSiteNameId = Log.nameId(FaultSite);
  Log.recordMigration(Event);
}

} // namespace

Migrator::~Migrator() = default;

const char *mem::migrationStatusName(MigrationStatus Status) {
  switch (Status) {
  case MigrationStatus::Success:
    return "success";
  case MigrationStatus::Retryable:
    return "retryable";
  case MigrationStatus::Degraded:
    return "degraded";
  case MigrationStatus::Failed:
    return "failed";
  }
  return "unknown";
}

uint64_t Migrator::capacityNeeded(uint64_t PayloadBytes, uint64_t) const {
  return PayloadBytes;
}

uint64_t AtmemMigrator::capacityNeeded(uint64_t PayloadBytes,
                                       uint64_t MaxRangeBytes) const {
  // The staging buffer and the remapped frames coexist at the stage (b)
  // peak; ranges are processed one at a time, so the peak is per-range.
  return PayloadBytes + MaxRangeBytes;
}

MigrationStatus AtmemMigrator::migrate(DataObject &Obj,
                                       const std::vector<ChunkRange> &Ranges,
                                       sim::TierId Target,
                                       MigrationResult &Result) {
  sim::Machine &M = Registry.machine();
  sim::PageTable &PT = M.pageTable();
  const sim::MigrationCostModel &Cost = M.migrationModel();

  // Capacity pre-check: the staging buffer and the remapped frames coexist
  // at the peak, so each range needs twice its length free on the target.
  // Ranges are processed one at a time, so the peak is per-range.
  uint64_t MaxRangeBytes = 0;
  uint64_t IncomingBytes = 0;
  for (const ChunkRange &Range : Ranges) {
    auto [Begin, End] = Obj.rangeBytes(Range);
    uint64_t Len = End - Begin;
    MaxRangeBytes = std::max(MaxRangeBytes, Len);
    IncomingBytes += Len;
  }
  if (M.allocator(Target).freeBytes() < capacityNeeded(IncomingBytes,
                                                       MaxRangeBytes))
    return MigrationStatus::Degraded;

  for (const ChunkRange &Range : Ranges) {
    auto [Begin, End] = Obj.rangeBytes(Range);
    uint64_t Len = End - Begin;
    if (Len == 0)
      continue;
    uint64_t RangeVa = Obj.va() + Begin;
    sim::TierId Source = Obj.chunkTier(Range.FirstChunk);

    obs::SpanScope RangeSpan("migrator.range", "migrator");

    // Stage (a): map a staging buffer on the target tier and copy the live
    // bytes into it. A failure here needs no rollback: nothing was mapped,
    // the source range is untouched, and every range committed before this
    // one stays committed.
    uint64_t StagingVa = Registry.reserveScratchVa(Len);
    if (StagingAllocFault.shouldFail() ||
        !PT.mapRegion(StagingVa, Len, Target, /*PreferHuge=*/true)) {
      countRollback();
      recordRangeEvent(Obj, Range, Target, obs::DecisionPhase::RolledBack,
                       "migrator.staging_alloc");
      return MigrationStatus::Retryable;
    }
    auto Staging = std::make_unique<std::byte[]>(Len);
    std::byte *Live = Obj.data() + Begin;
    std::byte *Stage = Staging.get();
    {
      obs::SpanScope CopyIn("migrator.copy_in", "migrator");
      std::memcpy(Stage, Live, Len);
    }
    recordRangeEvent(Obj, Range, Target, obs::DecisionPhase::Staged);

    // Stage (b): rebind the virtual range to fresh target frames. Virtual
    // addresses are untouched; huge pages re-form where aligned. On failure
    // remapRange leaves the source mapping in place, so rolling back means
    // just unmapping the staging buffer.
    uint64_t Ptes = 0;
    {
      obs::SpanScope Remap("migrator.remap", "migrator");
      if (RemapFault.shouldFail() ||
          !PT.remapRange(RangeVa, Len, Target, /*PreferHuge=*/true, &Ptes)) {
        PT.unmapRegion(StagingVa, Len);
        countRollback();
        recordRangeEvent(Obj, Range, Target, obs::DecisionPhase::RolledBack,
                         "migrator.remap");
        return MigrationStatus::Retryable;
      }
    }
    recordRangeEvent(Obj, Range, Target, obs::DecisionPhase::Remapped);

    // Stage (c): drain the staging buffer back into the range.
    {
      obs::SpanScope Drain("migrator.copy_out", "migrator");
      std::memcpy(Live, Stage, Len);
      PT.unmapRegion(StagingVa, Len);
    }

    for (uint32_t C = Range.FirstChunk;
         C < Range.FirstChunk + Range.NumChunks; ++C)
      Obj.setChunkTier(C, Target);
    recordRangeEvent(Obj, Range, Target, obs::DecisionPhase::Committed);

    sim::MigrationWork Work;
    Work.Bytes = Len;
    Work.PtesTouched = Ptes;
    Work.Source = Source;
    Work.Target = Target;
    sim::AtmemStageBreakdown Stages = Cost.atmemStages(Work);
    Result.SimSeconds +=
        Stages.total() + M.config().Migration.AtmemPerRangeSec;
    Result.BytesMoved += Len;
    Result.PtesTouched += Ptes;
    Result.Ranges += 1;

    if (obs::enabled()) {
      static obs::Counter RangeCount("migrator.ranges");
      static obs::Counter PteCount("migrator.ptes_touched");
      static obs::Histogram RangeBytes("migrator.range_bytes");
      static obs::Histogram CopyInUs("migrator.copy_in_sim_us");
      static obs::Histogram RemapUs("migrator.remap_sim_us");
      static obs::Histogram DrainUs("migrator.copy_out_sim_us");
      RangeCount.add(1);
      PteCount.add(Ptes);
      RangeBytes.record(Len);
      CopyInUs.recordSeconds(Stages.CopyInSec);
      RemapUs.recordSeconds(Stages.RemapSec);
      DrainUs.recordSeconds(Stages.DrainSec);
      countDirection(Target, Len);
      // Staging buffer and remapped frames coexist at the stage (b) peak.
      obs::Gauge("migrator.staging_hwm_bytes").max(static_cast<double>(Len));
      RangeSpan.arg("bytes", static_cast<double>(Len))
          .arg("ptes", static_cast<double>(Ptes))
          .arg("copy_in_sim_us", Stages.CopyInSec * 1e6)
          .arg("remap_sim_us", Stages.RemapSec * 1e6)
          .arg("copy_out_sim_us", Stages.DrainSec * 1e6);
    }
  }
  return MigrationStatus::Success;
}
