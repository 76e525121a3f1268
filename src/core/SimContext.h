//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread simulation context for the parallel tracked-execution
/// engine. When a kernel iteration runs with RuntimeConfig::SimThreads > 1,
/// every executing thread owns one SimContext: a private LLC shard sized
/// SizeBytes / SimThreads (approximating each thread's partition of a
/// shared last-level cache), private AccessStats, and a private buffer of
/// LLC-miss addresses. The hot path therefore takes no lock and touches no
/// shared cache line; Runtime::endIteration() merges shard stats and
/// drains the miss buffers into the profiler in thread-index order.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_CORE_SIMCONTEXT_H
#define ATMEM_CORE_SIMCONTEXT_H

#include "mem/DataObject.h"
#include "sim/CacheSim.h"
#include "sim/CostModel.h"

#include <cstdint>
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

/// One thread's private slice of the simulated machine during a parallel
/// tracked region. Not thread-safe by design: exactly one thread uses a
/// context at a time (ThreadPool::parallelForThreaded guarantees an index
/// is never active twice concurrently).
class SimContext {
public:
  explicit SimContext(const sim::CacheConfig &ShardGeometry)
      : Shard(ShardGeometry) {}

  /// Lock-free hot path: probe the private LLC shard and account the
  /// access; misses are optionally buffered for the deterministic
  /// end-of-iteration drain into the profiler / trace / TLB replay.
  [[gnu::always_inline]] void onAccess(const TrackHandle &Handle,
                                       uint64_t Offset) {
    ++Stats.Accesses;
    uint64_t Va = Handle.VaBase + Offset;
    if (Shard.probe(Va)) {
      ++Stats.LlcHits;
      return;
    }
    onMiss(Handle, Offset, Va);
  }

  sim::AccessStats &stats() { return Stats; }
  const sim::AccessStats &stats() const { return Stats; }

  std::vector<uint64_t> &missBuffer() { return MissBuffer; }

  /// Buffering is enabled only while a consumer (profiler, miss trace,
  /// TLB replay) is attached, so measured iterations pay no buffer
  /// traffic.
  void setBufferMisses(bool Enabled) { BufferMisses = Enabled; }

  sim::CacheSim &llcShard() { return Shard; }

  /// Resets per-iteration state (stats and buffered misses). The shard's
  /// cache contents persist across iterations, matching the serial LLC's
  /// warm behaviour. The miss buffer's capacity is re-reserved from the
  /// high-water mark recorded by recycleMissBuffer(), so a profiling
  /// window never regrows the buffer through doubling reallocations.
  void beginIteration() {
    Stats = sim::AccessStats();
    MissBuffer.clear();
    if (MissBuffer.capacity() < MissHighWater)
      MissBuffer.reserve(MissHighWater);
  }

  /// Called after the end-of-iteration drain: records the drained volume
  /// as the next iteration's reserve target and empties the buffer
  /// (capacity is retained).
  void recycleMissBuffer() {
    if (MissBuffer.size() > MissHighWater)
      MissHighWater = MissBuffer.size();
    MissBuffer.clear();
  }

  /// Donates the miss buffer to an asynchronous consumer (the trace
  /// writer's spill thread) and installs \p Replacement in its place —
  /// the zero-copy counterpart of recycleMissBuffer(). The high-water
  /// bookkeeping matches recycleMissBuffer(); the replacement is cleared
  /// and re-reserved like beginIteration() would.
  std::vector<uint64_t> donateMissBuffer(std::vector<uint64_t> Replacement) {
    if (MissBuffer.size() > MissHighWater)
      MissHighWater = MissBuffer.size();
    Replacement.clear();
    if (Replacement.capacity() < MissHighWater)
      Replacement.reserve(MissHighWater);
    std::swap(MissBuffer, Replacement);
    return Replacement;
  }

private:
  [[gnu::noinline]] void onMiss(const TrackHandle &Handle, uint64_t Offset,
                                uint64_t Va) {
    Shard.fill(Va);
    ++Stats.TierMisses[Handle.ChunkTiers[Offset >> Handle.ChunkShift]];
    if (BufferMisses)
      MissBuffer.push_back(Va);
  }

  sim::CacheSim Shard;
  sim::AccessStats Stats;
  std::vector<uint64_t> MissBuffer;
  size_t MissHighWater = 0;
  bool BufferMisses = false;
};

} // namespace core
} // namespace atmem

#endif // ATMEM_CORE_SIMCONTEXT_H
