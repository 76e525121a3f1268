//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracked-execution engine: what happens to each TrackedArray access
/// between the kernel and the runtime's epoch control (Runtime.cpp).
///
/// Every access probes the machine's one LLC in serial program order.
/// With RuntimeConfig::SimThreads = 1 the probe runs inline on the kernel's
/// thread (Runtime::onAccess). With SimThreads = T >= 2 the kernel still
/// runs its serial code on the calling thread, but onAccess only appends
/// an 8-byte record to the bucket of the set range that owns the line, and
/// T SetReplay workers replay their buckets against the same LLC, each on
/// its own contiguous range of sets. An LLC set's state depends only on
/// the accesses to that set, in order; each set sees exactly the serial
/// access order, so every hit, miss and eviction is the SimThreads = 1
/// verdict. Each block's misses are merged back into serial order and
/// handed to MissConsumers: the sampling profiler, the miss trace and the
/// TLB replay.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_CORE_ENGINE_H
#define ATMEM_CORE_ENGINE_H

#include "mem/DataObject.h"
#include "profiler/SamplingProfiler.h"
#include "profiler/TraceFile.h"
#include "sim/CacheSim.h"
#include "sim/CostModel.h"
#include "sim/Tlb.h"
#include "sim/TranslationCache.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace atmem {
namespace core {

/// Internal per-object handle embedded in TrackedArray (hot-path data
/// only).
struct TrackHandle {
  uint64_t VaBase = 0;
  const uint8_t *ChunkTiers = nullptr;
  uint32_t ChunkShift = 0;
  mem::ObjectId Object = 0;
};

/// The consumers of the LLC-miss stream, fed in serial miss order: the
/// sampling profiler, an optional miss trace and an optional replay TLB.
/// consume() takes one miss (the inline engine); consumeBatch() takes a
/// run of misses and leaves every consumer exactly as the same number of
/// consume() calls would.
class MissConsumers {
public:
  MissConsumers(prof::SamplingProfiler &Profiler, const sim::PageTable &PT)
      : Profiler(Profiler), PT(PT) {}

  void setTrace(prof::TraceWriter *Writer) { Trace = Writer; }
  void setTlb(sim::Tlb *Replay) { Tlb = Replay; }
  sim::Tlb *tlb() const { return Tlb; }

  /// True while some consumer reads misses.
  bool active() const { return Profiler.isActive() || Trace || Tlb; }

  void consume(uint64_t Va) {
    Profiler.notifyMiss(Va);
    if (Trace)
      Trace->record(Va);
    if (Tlb)
      replayTlb(Va);
  }

  void consumeBatch(const uint64_t *Vas, size_t N);

private:
  /// Translates \p Va through the epoch-validated cache and replays it.
  void replayTlb(uint64_t Va);
  /// consumeBatch()'s TLB replay: the page table cannot change inside a
  /// batch, so the cache is revalidated once, and a miss to the huge
  /// array's last 2 MiB page is counted as a hit without a probe.
  void replayTlbBatch(const uint64_t *Vas, size_t N);
  sim::TranslationCache &cache();

  prof::SamplingProfiler &Profiler;
  const sim::PageTable &PT;
  prof::TraceWriter *Trace = nullptr;
  sim::Tlb *Tlb = nullptr;
  /// Built on first TLB use.
  std::unique_ptr<sim::TranslationCache> Cache;
};

/// Replays one LLC on worker threads, one contiguous set range each.
///
/// The calling thread record()s each access into an open block: worker w
/// of W owns the sets with (Set * W) >> log2(Sets) == w, and its bucket
/// receives Va | Position << 48 | Tier << 63, Position being the access's
/// index in the block. A full block is publish()ed to the workers and the
/// next of RingBlocks slots opens. Each worker replays its bucket of
/// every block in order and counts hits and per-tier misses; when the
/// block was published with KeepMisses it also compacts its misses, still
/// tagged with their positions, to the front of its bucket.
///
/// Once every worker has replayed a block, it is consumed: its counts are
/// summed and its misses merged back into position order and fed to the
/// MissConsumers. A worker about to idle consumes what is replayed; the
/// last worker to finish a block consumes it when no later block waits
/// for that worker; the calling thread consumes when it waits for a free
/// slot or drains. Blocks are consumed strictly in publication order,
/// under a flag one thread at a time holds, so the consumers see the
/// serial miss stream. drain() publishes the open block, waits until
/// every block is consumed and adds their counts to an AccessStats.
///
/// A worker that finds no block polls briefly, then blocks on a futex. A
/// worker that failed to spawn (the `threadpool.spawn` fault site, or
/// resource exhaustion) leaves fewer, wider set ranges; the verdicts are
/// the same.
class SetReplay {
public:
  /// Accesses per block: Position is 15 bits (48..62) of a record.
  static constexpr uint32_t BlockAccesses = 1u << 15;
  /// Slots in the ring: the calling thread fills one while the workers
  /// replay or consume the others.
  static constexpr uint32_t RingBlocks = 4;
  static constexpr uint32_t PositionShift = 48;
  static constexpr uint64_t VaMask = (uint64_t{1} << PositionShift) - 1;

  /// Spawns up to \p MaxWorkers workers over \p Llc's sets, feeding kept
  /// misses to \p Consumers. Between drain() calls the caller must touch
  /// neither \p Llc nor the consumers' state.
  SetReplay(sim::CacheSim &Llc, MissConsumers &Consumers,
            uint32_t MaxWorkers);
  ~SetReplay();

  SetReplay(const SetReplay &) = delete;
  SetReplay &operator=(const SetReplay &) = delete;

  /// Workers that came up (0 when every spawn failed).
  uint32_t workers() const { return NumWorkers; }

  /// Appends one access of \p Va (below 2^48) to a chunk on tier \p Tier.
  /// Returns true when the open block is full and must be published.
  [[gnu::always_inline]] bool record(uint64_t Va, uint8_t Tier) {
    uint64_t Set = (Va >> LineShift) & SetMask;
    auto Owner = static_cast<uint32_t>((Set * NumWorkers) >> SetShift);
    // Position is advanced before the record store, which may alias it.
    uint64_t Here = Position;
    Position = Here + (uint64_t{1} << PositionShift);
    *Cursor[Owner]++ = Va | Here | (uint64_t{Tier} << 63);
    return Here + (uint64_t{1} << PositionShift) == BlockEnd;
  }

  /// True when accesses were recorded since the last drain().
  bool pending() const { return Position != 0 || Published != Drained; }

  /// Hands the open block to the workers, keeping its misses for the
  /// consumers when \p KeepMisses, and opens the next slot once it is
  /// consumed.
  void publish(bool KeepMisses);

  /// Publishes the open block if it holds accesses, waits until every
  /// published block is consumed, and adds their accesses, hits and
  /// per-tier misses to \p Stats.
  void drain(bool KeepMisses, sim::AccessStats &Stats);

private:
  /// One ring slot's per-worker results and completion count.
  struct alignas(64) Slot {
    struct Result {
      uint64_t Hits = 0;
      uint64_t SlowMisses = 0;
      uint64_t Misses = 0;
      uint32_t Kept = 0; ///< Misses compacted to the bucket's front.
    };
    /// Workers that have replayed the slot's block.
    std::atomic<uint32_t> Finished{0};
    /// Per worker: its bucket's record count (set by publish()) and
    /// results (set by the worker).
    std::vector<uint32_t> Counts;
    std::vector<Result> Results;
    bool KeepMisses = false;
  };

  uint64_t *bucket(uint32_t Slot, uint32_t W) const {
    return Records.get() +
           (static_cast<size_t>(Slot) * NumWorkers + W) * BlockAccesses;
  }
  void openSlot(uint32_t Index);
  void workerLoop(uint32_t W);
  void replayBucket(uint32_t W, uint32_t Index);
  /// Consumes every fully replayed block in order while this thread holds
  /// the consumer flag, then lets it go; returns at once when another
  /// thread holds it.
  void consumeReplayed();
  /// Merges slot \p Index's kept misses into position order in
  /// MissBuffer and returns their count.
  size_t mergeMisses(uint32_t Index);

  static constexpr uint64_t BlockEnd = uint64_t{BlockAccesses}
                                       << PositionShift;

  /// \name Calling thread only, written on every record()
  /// @{
  /// Position of the next record, pre-shifted; BlockEnd when full.
  alignas(64) uint64_t Position = 0;
  /// Next record of each worker's bucket in the open block.
  std::unique_ptr<uint64_t *[]> Cursor;
  uint32_t LineShift;
  uint32_t SetMask;
  uint32_t SetShift;
  /// Blocks published, and Published at the end of the last drain(). The
  /// open block is slot Published % RingBlocks.
  uint32_t Published = 0;
  uint32_t Drained = 0;
  /// @}

  /// \name Read by the workers, written only while they wait
  /// @{
  alignas(64) uint32_t NumWorkers = 0;
  sim::CacheSim &Llc;
  MissConsumers &Consumers;
  /// RingBlocks x workers buckets of BlockAccesses records, allocated
  /// without initialization: only the records written are touched.
  std::unique_ptr<uint64_t[]> Records;
  Slot Slots[RingBlocks];
  std::vector<std::thread> Threads;
  /// @}

  /// Published, as the workers read it; bumped once more on shutdown.
  alignas(64) std::atomic<uint32_t> PublishedShared{0};
  std::atomic<bool> Stopping{false};
  /// Blocks consumed so far.
  alignas(64) std::atomic<uint32_t> Consumed{0};
  /// \name Used by the one thread holding the consumer flag
  /// @{
  alignas(64) std::atomic<bool> Consuming{false};
  /// Counts of the blocks consumed since the last drain().
  sim::AccessStats Replayed;
  /// Merge scratch: the merged misses, one bit per kept position, and
  /// the number of kept misses before each 64-position word.
  std::unique_ptr<uint64_t[]> MissBuffer;
  std::vector<uint64_t> PositionBits;
  std::vector<uint32_t> WordRank;
  /// @}
};

} // namespace core
} // namespace atmem

#endif // ATMEM_CORE_ENGINE_H
