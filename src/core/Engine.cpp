#include "core/Engine.h"

#include "core/Runtime.h"
#include "fault/FaultInjection.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <system_error>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

using namespace atmem;
using namespace atmem::core;

static_assert(sim::NumTiers == 2 && sim::tierIndex(sim::TierId::Slow) == 1,
              "a record's top bit is 1 for the slow tier");

namespace {

fault::Site SpawnFault("threadpool.spawn");

/// How long a thread polls before it blocks. A block takes the calling
/// thread a few hundred microseconds to fill, and waking a blocked thread
/// can take as long again on a virtual machine, so a busy engine never
/// sleeps; an idle one (between iterations, in optimize()) blocks.
constexpr std::chrono::microseconds SpinTime(500);

void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// Returns \p Word's value once it differs from \p Old: a bounded spin,
/// then a futex wait.
uint32_t waitForChange(const std::atomic<uint32_t> &Word, uint32_t Old) {
  auto Deadline = std::chrono::steady_clock::now() + SpinTime;
  for (;;) {
    for (int I = 0; I < 64; ++I) {
      uint32_t Now = Word.load(std::memory_order_acquire);
      if (Now != Old)
        return Now;
      cpuRelax();
    }
    if (std::chrono::steady_clock::now() >= Deadline)
      break;
  }
  Word.wait(Old, std::memory_order_acquire);
  return Word.load(std::memory_order_acquire);
}

} // namespace

//===----------------------------------------------------------------------===//
// MissConsumers
//===----------------------------------------------------------------------===//

sim::TranslationCache &MissConsumers::cache() {
  if (!Cache)
    Cache = std::make_unique<sim::TranslationCache>(PT);
  return *Cache;
}

void MissConsumers::replayTlb(uint64_t Va) {
  sim::Translation T;
  if (cache().translate(Va, T))
    Tlb->access(Va, T.PageBytes);
}

void MissConsumers::consumeBatch(const uint64_t *Vas, size_t N) {
  Profiler.notifyMissBatch(Vas, N);
  if (Trace)
    Trace->recordBatch(Vas, N);
  if (Tlb)
    replayTlbBatch(Vas, N);
}

void MissConsumers::replayTlbBatch(const uint64_t *Vas, size_t N) {
  sim::TranslationCache &Cached = cache();
  Cached.revalidate();
  sim::TlbArray &Huge = Tlb->hugeArray();
  sim::TlbArray &Small = Tlb->smallArray();
  // A 2 MiB region is mapped uniformly (one huge page or 512 small ones),
  // so a miss in the region the huge array accessed last is huge-mapped
  // and hits that array's newest entry: counted, not probed.
  uint64_t LastHugeVpn = ~0ull;
  uint64_t Repeats = 0;
  for (size_t I = 0; I < N; ++I) {
    uint64_t Va = Vas[I];
    uint64_t HugeVpn = Va >> 21;
    if (HugeVpn == LastHugeVpn) {
      ++Repeats;
      continue;
    }
    uint64_t PageBytes = sim::HugePageBytes;
    if (!Cached.isCachedHuge(HugeVpn) &&
        !Cached.translatePageBytes(Va, PageBytes))
      continue;
    if (PageBytes == sim::HugePageBytes) {
      LastHugeVpn = HugeVpn;
      Huge.accessVpn(HugeVpn);
    } else {
      Small.access(Va);
    }
  }
  Huge.countHits(Repeats);
}

//===----------------------------------------------------------------------===//
// SetReplay
//===----------------------------------------------------------------------===//

SetReplay::SetReplay(sim::CacheSim &Llc, MissConsumers &Consumers,
                     uint32_t MaxWorkers)
    : LineShift(Llc.lineShift()), SetMask(Llc.sets() - 1),
      SetShift(Llc.setShift()), Llc(Llc), Consumers(Consumers) {
  // Workers read nothing but their own index before the first publish(),
  // whose release store orders everything set up below.
  Threads.reserve(MaxWorkers);
  for (uint32_t I = 0; I < MaxWorkers; ++I) {
    if (SpawnFault.shouldFail())
      continue;
    try {
      uint32_t W = NumWorkers;
      Threads.emplace_back([this, W] { workerLoop(W); });
      ++NumWorkers;
    } catch (const std::system_error &) {
      break;
    }
  }
  if (NumWorkers == 0)
    return;
  Cursor.reset(new uint64_t *[NumWorkers]);
  Records.reset(new uint64_t[static_cast<size_t>(RingBlocks) * NumWorkers *
                             BlockAccesses]);
  for (Slot &S : Slots) {
    S.Counts.assign(NumWorkers, 0);
    S.Results.assign(NumWorkers, {});
  }
  MissBuffer.reset(new uint64_t[BlockAccesses]);
  PositionBits.assign(BlockAccesses / 64, 0);
  WordRank.assign(BlockAccesses / 64, 0);
  openSlot(0);
}

SetReplay::~SetReplay() {
  // Wake every worker with one more "block"; they see Stopping first.
  Stopping.store(true, std::memory_order_release);
  PublishedShared.fetch_add(1, std::memory_order_release);
  PublishedShared.notify_all();
  for (std::thread &Worker : Threads)
    Worker.join();
}

void SetReplay::openSlot(uint32_t Index) {
  for (uint32_t W = 0; W < NumWorkers; ++W)
    Cursor[W] = bucket(Index, W);
}

void SetReplay::publish(bool KeepMisses) {
  uint32_t Index = Published % RingBlocks;
  Slot &S = Slots[Index];
  for (uint32_t W = 0; W < NumWorkers; ++W)
    S.Counts[W] = static_cast<uint32_t>(Cursor[W] - bucket(Index, W));
  S.KeepMisses = KeepMisses;
  ++Published;
  Position = 0;
  PublishedShared.store(Published, std::memory_order_release);
  PublishedShared.notify_all();
  // The next slot is free once the block published RingBlocks ago is
  // consumed; rather than wait for a worker to consume it, consume it here
  // when it is replayed.
  uint32_t Done = Consumed.load(std::memory_order_acquire);
  while (Published - Done == RingBlocks) {
    consumeReplayed();
    Done = Consumed.load(std::memory_order_acquire);
    if (Published - Done == RingBlocks)
      Done = waitForChange(Consumed, Done);
  }
  openSlot(Published % RingBlocks);
}

void SetReplay::drain(bool KeepMisses, sim::AccessStats &Stats) {
  if (Position != 0)
    publish(KeepMisses);
  uint32_t Done = Consumed.load(std::memory_order_acquire);
  while (Done != Published) {
    consumeReplayed();
    Done = Consumed.load(std::memory_order_acquire);
    if (Done != Published)
      Done = waitForChange(Consumed, Done);
  }
  Stats += Replayed;
  Replayed = sim::AccessStats();
  Drained = Published;
}

void SetReplay::workerLoop(uint32_t W) {
  uint32_t Next = 0;
  for (;;) {
    uint32_t Seen = PublishedShared.load(std::memory_order_acquire);
    if (Seen == Next)
      Seen = waitForChange(PublishedShared, Next);
    if (Stopping.load(std::memory_order_acquire))
      return;
    for (; Next != Seen; ++Next) {
      Slot &S = Slots[Next % RingBlocks];
      replayBucket(W, Next % RingBlocks);
      // The last worker done with a block consumes it, unless more blocks
      // wait for it: then it is the busiest worker, and an idle one (or
      // the calling thread, once the ring is full) consumes instead. The
      // last finisher of the newest block always consumes, so every block
      // is consumed. seq_cst pairs with the consumer flag: either this
      // worker sees the flag free, or its holder sees this count after
      // letting it go.
      if (S.Finished.fetch_add(1) + 1 == NumWorkers &&
          PublishedShared.load() == Next + 1)
        consumeReplayed();
    }
    // About to idle: consume what the busier workers finished meanwhile.
    if (PublishedShared.load(std::memory_order_acquire) == Next)
      consumeReplayed();
  }
}

void SetReplay::replayBucket(uint32_t W, uint32_t Index) {
  Slot &S = Slots[Index];
  uint64_t *Rec = bucket(Index, W);
  bool Keep = S.KeepMisses;
  uint32_t N = S.Counts[W];
  Slot::Result Out;
  Llc.replay(Rec, N, VaMask, [&](size_t I) {
    uint64_t R = Rec[I];
    ++Out.Misses;
    Out.SlowMisses += R >> 63;
    // In place: the write index never passes the read index.
    if (Keep)
      Rec[Out.Kept++] = R & ~(uint64_t{1} << 63);
  });
  Out.Hits = N - Out.Misses;
  S.Results[W] = Out;
}

void SetReplay::consumeReplayed() {
  for (;;) {
    if (Consuming.exchange(true))
      return; // The holder consumes this block too (see below).
    uint32_t Next = Consumed.load(std::memory_order_relaxed);
    for (;;) {
      Slot &S = Slots[Next % RingBlocks];
      if (S.Finished.load() != NumWorkers)
        break;
      for (const Slot::Result &R : S.Results) {
        Replayed.Accesses += R.Hits + R.Misses;
        Replayed.LlcHits += R.Hits;
        Replayed.TierMisses[sim::tierIndex(sim::TierId::Fast)] +=
            R.Misses - R.SlowMisses;
        Replayed.TierMisses[sim::tierIndex(sim::TierId::Slow)] +=
            R.SlowMisses;
      }
      if (S.KeepMisses)
        if (size_t Kept = mergeMisses(Next % RingBlocks))
          Consumers.consumeBatch(MissBuffer.get(), Kept);
      S.Finished.store(0, std::memory_order_relaxed);
      Consumed.store(++Next, std::memory_order_release);
      Consumed.notify_all();
    }
    Consuming.store(false);
    // A block whose last worker found the flag held before it was let go
    // is ready now; take the flag back for it.
    if (Slots[Next % RingBlocks].Finished.load() != NumWorkers)
      return;
  }
}

size_t SetReplay::mergeMisses(uint32_t Index) {
  // Kept records hold Position << 48 | Va. Positions are distinct, so the
  // rank of a record's position among all kept positions is its index in
  // serial order: set one bit per position, prefix-count the words, then
  // scatter each record to its rank.
  const Slot &S = Slots[Index];
  std::fill(PositionBits.begin(), PositionBits.end(), 0);
  for (uint32_t W = 0; W < NumWorkers; ++W) {
    const uint64_t *Rec = bucket(Index, W);
    for (uint32_t I = 0; I < S.Results[W].Kept; ++I) {
      uint64_t P = Rec[I] >> PositionShift;
      PositionBits[P >> 6] |= uint64_t{1} << (P & 63);
    }
  }
  uint32_t Rank = 0;
  for (size_t Word = 0; Word < PositionBits.size(); ++Word) {
    WordRank[Word] = Rank;
    Rank += static_cast<uint32_t>(std::popcount(PositionBits[Word]));
  }
  for (uint32_t W = 0; W < NumWorkers; ++W) {
    const uint64_t *Rec = bucket(Index, W);
    for (uint32_t I = 0; I < S.Results[W].Kept; ++I) {
      uint64_t R = Rec[I];
      uint64_t P = R >> PositionShift;
      uint64_t Below = PositionBits[P >> 6] & ((uint64_t{1} << (P & 63)) - 1);
      MissBuffer[WordRank[P >> 6] + std::popcount(Below)] = R & VaMask;
    }
  }
  return Rank;
}

//===----------------------------------------------------------------------===//
// Runtime: the engine half
//===----------------------------------------------------------------------===//

void Runtime::onMiss(const TrackHandle &Handle, uint64_t Offset,
                     uint64_t Va) {
  M.llc().fill(Va);
  ++Stats.TierMisses[Handle.ChunkTiers[Offset >> Handle.ChunkShift]];
  Consumers.consume(Va);
}

void Runtime::onBlockFull() { Replay->publish(Consumers.active()); }

void Runtime::drainReplay() { Replay->drain(Consumers.active(), Stats); }
