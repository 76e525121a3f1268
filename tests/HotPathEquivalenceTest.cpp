//===----------------------------------------------------------------------===//
// Equivalence suite for the batched hot-path pipeline. Every optimized
// path — arithmetic sample selection, indexed attribution, bulk trace
// append, translation-cached and run-collapsed TLB replay, split-probe
// cache/TLB victim scans — is pinned bit-for-bit against the reference
// per-event implementation it replaced. The references live here, as
// test oracles. These tests are the contract that lets the perf work
// evolve without moving any observable result.
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/Runtime.h"
#include "mem/AddressSpace.h"
#include "mem/DataObjectRegistry.h"
#include "profiler/SamplingProfiler.h"
#include "profiler/TraceFile.h"
#include "sim/CacheSim.h"
#include "sim/Machine.h"
#include "sim/SimdProbe.h"
#include "sim/Tlb.h"
#include "sim/TranslationCache.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

using namespace atmem;

namespace {

/// Machine small enough that random walks over a few MiB mostly miss.
sim::MachineConfig smallCacheTestbed() {
  sim::MachineConfig Config = sim::nvmDramTestbed(1.0 / 64);
  Config.Cache.SizeBytes = 1 << 16;
  Config.Cache.Ways = 4;
  return Config;
}

/// Profiler tuned so a modest miss stream crosses the sample budget
/// several times (mid-batch period doubling is the hard case).
prof::ProfilerConfig fastAdaptConfig() {
  prof::ProfilerConfig Config;
  Config.InitialPeriod = 4;
  Config.MinSampleBudget = 256;
  Config.SamplesPerChunk = 1.0;
  return Config;
}

std::vector<char> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(In)),
                           std::istreambuf_iterator<char>());
}

std::string tmpTracePath(const char *Tag) {
  return ::testing::TempDir() + "hotpath_" + Tag + ".mtrace";
}

/// A synthetic miss stream over two objects plus deliberate strays into
/// the unmapped guard gaps between allocations.
std::vector<uint64_t> makeMissStream(mem::DataObjectRegistry &Reg,
                                     mem::ObjectId A, mem::ObjectId B,
                                     size_t N, uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  const mem::DataObject &ObjA = Reg.object(A);
  const mem::DataObject &ObjB = Reg.object(B);
  std::vector<uint64_t> Stream;
  Stream.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    uint64_t Roll = Rng.nextBounded(100);
    if (Roll < 55)
      Stream.push_back(ObjA.va() + Rng.nextBounded(ObjA.sizeBytes()));
    else if (Roll < 95)
      Stream.push_back(ObjB.va() + Rng.nextBounded(ObjB.sizeBytes()));
    else // Guard-gap stray: attributable to no object.
      Stream.push_back(ObjA.va() + ObjA.mappedBytes() + 64 +
                       Rng.nextBounded(1024));
  }
  return Stream;
}

//===----------------------------------------------------------------------===//
// Oracles: the per-event paths the batched pipeline replaced.
//===----------------------------------------------------------------------===//

/// The linear registry walk: the object whose mapped range holds \p Va.
bool linearAttribute(const mem::DataObjectRegistry &Reg, uint64_t Va,
                     mem::Attribution &Out) {
  for (const mem::DataObject *Obj : Reg.liveObjects())
    if (Va >= Obj->va() && Va < Obj->va() + Obj->mappedBytes()) {
      Out.Object = Obj->id();
      Out.Chunk = Obj->chunkOf(Va - Obj->va());
      return true;
    }
  return false;
}

/// The per-miss sampler: one countdown step per miss, a linear
/// attribution walk per sample, each sample weighted by the period in
/// force, the period doubling each time the sample count reaches a
/// multiple of the budget. Starts from a live profiler's window.
class ReferenceProfiler {
public:
  ReferenceProfiler(const mem::DataObjectRegistry &Reg,
                    const prof::SamplingProfiler &Started)
      : Reg(Reg), Period(Started.initialPeriod()), Countdown(Period),
        Budget(Started.sampleBudget()) {}

  void notifyMiss(uint64_t Va) {
    ++MissesSeen;
    if (--Countdown != 0)
      return;
    ++SamplesTaken;
    mem::Attribution Attr;
    if (linearAttribute(Reg, Va, Attr)) {
      prof::ObjectProfile &Profile = profile(Attr.Object);
      ++Profile.Samples[Attr.Chunk];
      Profile.EstimatedMisses[Attr.Chunk] += static_cast<double>(Period);
    }
    if (SamplesTaken % Budget == 0)
      Period *= 2;
    Countdown = Period;
  }

  prof::ObjectProfile profileFor(mem::ObjectId Id) { return profile(Id); }
  uint64_t missesSeen() const { return MissesSeen; }
  uint64_t sampleCount() const { return SamplesTaken; }
  uint64_t period() const { return Period; }
  uint64_t initialPeriod() const { return InitialPeriod; }

private:
  prof::ObjectProfile &profile(mem::ObjectId Id) {
    if (Profiles.size() <= Id)
      Profiles.resize(Id + 1);
    prof::ObjectProfile &Profile = Profiles[Id];
    if (Profile.Samples.empty()) {
      uint32_t Chunks = Reg.object(Id).numChunks();
      Profile.Samples.assign(Chunks, 0);
      Profile.EstimatedMisses.assign(Chunks, 0.0);
    }
    return Profile;
  }

  const mem::DataObjectRegistry &Reg;
  uint64_t Period;
  uint64_t InitialPeriod = Period;
  uint64_t Countdown;
  uint64_t Budget;
  uint64_t MissesSeen = 0;
  uint64_t SamplesTaken = 0;
  std::vector<prof::ObjectProfile> Profiles;
};

/// The uncached TLB replay: a page-table walk per miss.
void replayTlbUncached(const sim::PageTable &PT, sim::Tlb &Tlb, uint64_t Va) {
  sim::Translation T;
  if (PT.translate(Va, T))
    Tlb.access(Va, T.PageBytes);
}

/// Every address of a finished miss trace, in order.
std::vector<uint64_t> readTrace(const std::string &Path) {
  prof::TraceReader Reader;
  std::vector<uint64_t> Vas;
  EXPECT_TRUE(Reader.open(Path));
  EXPECT_TRUE(Reader.forEach([&](uint64_t Va) { Vas.push_back(Va); }));
  return Vas;
}

void expectProfilesEqual(const prof::ObjectProfile &Ref,
                         const prof::ObjectProfile &Got) {
  ASSERT_EQ(Ref.Samples.size(), Got.Samples.size());
  for (size_t C = 0; C < Ref.Samples.size(); ++C) {
    EXPECT_EQ(Ref.Samples[C], Got.Samples[C]) << "chunk " << C;
    // Bit-identical, not approximately equal: commit order preserves the
    // reference drain's floating-point accumulation order.
    EXPECT_EQ(Ref.EstimatedMisses[C], Got.EstimatedMisses[C]) << "chunk " << C;
  }
}

//===----------------------------------------------------------------------===//
// Profiler: batched selection vs the per-miss reference countdown.
//===----------------------------------------------------------------------===//

TEST(HotPathProfilerTest, BatchMatchesPerMissAcrossPeriodDoubling) {
  sim::Machine M(smallCacheTestbed());
  mem::DataObjectRegistry Reg(M);
  mem::ObjectId A =
      Reg.create("a", 2u << 20, mem::InitialPlacement::Slow).id();
  mem::ObjectId B =
      Reg.create("b", 1u << 20, mem::InitialPlacement::Slow).id();

  prof::SamplingProfiler Batched(Reg, fastAdaptConfig());
  Batched.start(1);
  ReferenceProfiler Ref(Reg, Batched);
  ASSERT_EQ(Ref.period(), 4u);

  // Enough misses for several budget crossings: 256 samples at period 4
  // is only 1024 misses, so a 200k stream doubles the period repeatedly,
  // including in the middle of batches.
  std::vector<uint64_t> Stream = makeMissStream(Reg, A, B, 200000, 42);
  for (uint64_t Va : Stream)
    Ref.notifyMiss(Va);

  // Feed the same stream in randomly sized batches (including size 0 and
  // sizes far larger than the period) so stride arithmetic is exercised
  // across every batch-boundary phase.
  Xoshiro256 Rng(7);
  size_t Pos = 0;
  while (Pos < Stream.size()) {
    size_t N = Rng.nextBounded(4096);
    N = std::min(N, Stream.size() - Pos);
    Batched.notifyMissBatch(Stream.data() + Pos, N);
    Pos += N;
  }

  EXPECT_EQ(Ref.missesSeen(), Batched.missesSeen());
  EXPECT_EQ(Ref.sampleCount(), Batched.sampleCount());
  EXPECT_EQ(Ref.period(), Batched.period());
  EXPECT_GT(Ref.period(), Ref.initialPeriod()) << "test never adapted";
  expectProfilesEqual(Ref.profileFor(A), Batched.profileFor(A));
  expectProfilesEqual(Ref.profileFor(B), Batched.profileFor(B));
}

TEST(HotPathProfilerTest, InlineNotifyMissMatchesReference) {
  sim::Machine M(smallCacheTestbed());
  mem::DataObjectRegistry Reg(M);
  mem::ObjectId A =
      Reg.create("a", 1u << 20, mem::InitialPlacement::Slow).id();
  mem::ObjectId B =
      Reg.create("b", 1u << 20, mem::InitialPlacement::Slow).id();

  prof::SamplingProfiler Inline(Reg, fastAdaptConfig());
  Inline.start(2);
  ReferenceProfiler Ref(Reg, Inline);

  std::vector<uint64_t> Stream = makeMissStream(Reg, A, B, 50000, 9);
  for (uint64_t Va : Stream) {
    Ref.notifyMiss(Va);
    Inline.notifyMiss(Va);
  }

  EXPECT_EQ(Ref.missesSeen(), Inline.missesSeen());
  EXPECT_EQ(Ref.sampleCount(), Inline.sampleCount());
  EXPECT_EQ(Ref.period(), Inline.period());
  expectProfilesEqual(Ref.profileFor(A), Inline.profileFor(A));
  expectProfilesEqual(Ref.profileFor(B), Inline.profileFor(B));
}

//===----------------------------------------------------------------------===//
// Registry: indexed attribution vs the linear reference walk.
//===----------------------------------------------------------------------===//

TEST(HotPathAttributionTest, IndexedMatchesLinearIncludingAfterDestroy) {
  sim::Machine M(smallCacheTestbed());
  mem::DataObjectRegistry Reg(M);
  std::vector<mem::ObjectId> Ids;
  for (int I = 0; I < 5; ++I)
    Ids.push_back(Reg.create("obj" + std::to_string(I), (I + 1) * 256 * 1024,
                             mem::InitialPlacement::Slow)
                      .id());

  uint64_t Lo = Reg.object(Ids.front()).va() - 8192;
  uint64_t Hi = Reg.object(Ids.back()).va() +
                Reg.object(Ids.back()).mappedBytes() + 8192;
  auto CheckSweep = [&](uint64_t Seed) {
    Xoshiro256 Rng(Seed);
    mem::AttributionHint Hint;
    for (int I = 0; I < 20000; ++I) {
      uint64_t Va = Lo + Rng.nextBounded(Hi - Lo);
      mem::Attribution Linear, Indexed;
      bool LinearOk = linearAttribute(Reg, Va, Linear);
      bool IndexedOk = Reg.attributeIndexed(Va, Indexed, Hint);
      ASSERT_EQ(LinearOk, IndexedOk) << "va " << std::hex << Va;
      if (LinearOk) {
        EXPECT_EQ(Linear.Object, Indexed.Object);
        EXPECT_EQ(Linear.Chunk, Indexed.Chunk);
      }
    }
  };

  CheckSweep(1);
  // Destroying a middle object punches a hole in the index; the hole must
  // attribute to nothing and its neighbours must keep resolving.
  Reg.destroy(Ids[2]);
  CheckSweep(2);
  // A stale hint pointing at the rebuilt index must still be safe.
  Reg.destroy(Ids[0]);
  CheckSweep(3);
}

//===----------------------------------------------------------------------===//
// Trace writer: batch append produces byte-identical files.
//===----------------------------------------------------------------------===//

TEST(HotPathTraceTest, RecordBatchBytesIdenticalToPerEvent) {
  Xoshiro256 Rng(13);
  // Cross the writer's 64k-event flush threshold so batching interacts
  // with mid-stream flushes, not just the final one.
  std::vector<uint64_t> Events(100000);
  for (uint64_t &E : Events)
    E = Rng.next();

  std::string RefPath = tmpTracePath("ref");
  std::string BatchPath = tmpTracePath("batch");
  {
    prof::TraceWriter Ref;
    ASSERT_TRUE(Ref.open(RefPath));
    for (uint64_t E : Events)
      Ref.record(E);
    ASSERT_TRUE(Ref.finish());
  }
  {
    prof::TraceWriter Batch;
    ASSERT_TRUE(Batch.open(BatchPath));
    size_t Pos = 0;
    while (Pos < Events.size()) {
      size_t N = std::min<size_t>(Rng.nextBounded(30000), Events.size() - Pos);
      Batch.recordBatch(Events.data() + Pos, N);
      Pos += N;
    }
    ASSERT_TRUE(Batch.finish());
  }

  std::vector<char> RefBytes = readFileBytes(RefPath);
  std::vector<char> BatchBytes = readFileBytes(BatchPath);
  ASSERT_FALSE(RefBytes.empty());
  EXPECT_EQ(RefBytes, BatchBytes);
  std::remove(RefPath.c_str());
  std::remove(BatchPath.c_str());
}

//===----------------------------------------------------------------------===//
// Translation cache: transparent across page-table mutations.
//===----------------------------------------------------------------------===//

TEST(HotPathTranslationCacheTest, TransparentAcrossMutations) {
  sim::Machine M(smallCacheTestbed());
  mem::DataObjectRegistry Reg(M);
  mem::DataObject &Obj =
      Reg.create("graph", 8u << 20, mem::InitialPlacement::Slow);
  sim::PageTable &PT = M.pageTable();
  sim::TranslationCache Cache(PT);

  auto CheckSweep = [&](uint64_t Seed) {
    Xoshiro256 Rng(Seed);
    for (int I = 0; I < 5000; ++I) {
      // Revisit a small set of pages so the cache actually serves hits,
      // plus strays past the mapping for negative lookups.
      uint64_t Va = Obj.va() + Rng.nextBounded(Obj.mappedBytes() + 16384);
      sim::Translation Cached, Direct;
      bool CachedOk = Cache.translate(Va, Cached);
      bool DirectOk = PT.translate(Va, Direct);
      ASSERT_EQ(CachedOk, DirectOk) << "va " << std::hex << Va;
      if (CachedOk) {
        EXPECT_EQ(Cached.PageVa, Direct.PageVa);
        EXPECT_EQ(Cached.PageBytes, Direct.PageBytes);
        EXPECT_EQ(Cached.FrameBase, Direct.FrameBase);
        EXPECT_EQ(Cached.Tier, Direct.Tier);
      }
    }
  };

  CheckSweep(1);
  EXPECT_GT(Cache.hits(), 0u);

  // mbind-style single-page moves (these split huge pages) interleaved
  // with full-range ATMem remaps; every mutation bumps the epoch and the
  // next cached lookup must reflect the new table.
  Xoshiro256 Rng(99);
  for (int Round = 0; Round < 4; ++Round) {
    for (int I = 0; I < 8; ++I) {
      uint64_t PageVa =
          Obj.va() + (Rng.nextBounded(Obj.mappedBytes()) & ~uint64_t{4095});
      PT.movePage(PageVa, Round % 2 ? sim::TierId::Slow : sim::TierId::Fast);
    }
    CheckSweep(100 + Round);
    ASSERT_TRUE(PT.remapRange(Obj.va(), Obj.mappedBytes(),
                              Round % 2 ? sim::TierId::Fast : sim::TierId::Slow,
                              /*PreferHuge=*/true));
    CheckSweep(200 + Round);
  }
}

//===----------------------------------------------------------------------===//
// CacheSim / TLB: split probe+victim scans vs the fused reference loops.
//===----------------------------------------------------------------------===//

/// The historical stamp-based LLC loop, kept as an executable
/// specification: walk the set once, noting a hit or accumulating the
/// victim (invalid way preferred — last invalid wins via VictimStamp 0 —
/// else strictly minimal stamp, first occurrence). Like CacheSim it rounds
/// the set count down to a power of two; flushAll() clears the valid bits
/// and leaves the stale stamps behind, as the stamp model did.
class ReferenceLru {
public:
  ReferenceLru(const sim::CacheConfig &Config)
      : LineBytes(Config.LineBytes), Ways(Config.Ways),
        Sets(std::bit_floor(std::max<uint64_t>(
            1, Config.SizeBytes / (uint64_t{Config.Ways} * Config.LineBytes)))),
        Tags(Sets * Ways, ~0ull), Stamps(Sets * Ways, 0),
        Valid(Sets * Ways, 0) {}

  bool access(uint64_t Va) {
    uint64_t Line = Va / LineBytes;
    uint64_t Base = (Line % Sets) * Ways;
    ++Clock;
    uint32_t VictimIdx = 0;
    uint64_t VictimStamp = ~0ull;
    for (uint32_t W = 0; W < Ways; ++W) {
      uint64_t I = Base + W;
      if (Valid[I] && Tags[I] == Line) {
        Stamps[I] = Clock;
        return true;
      }
      if (!Valid[I]) {
        VictimIdx = W;
        VictimStamp = 0;
      } else if (Stamps[I] < VictimStamp) {
        VictimIdx = W;
        VictimStamp = Stamps[I];
      }
    }
    uint64_t I = Base + VictimIdx;
    Tags[I] = Line;
    Stamps[I] = Clock;
    Valid[I] = 1;
    return false;
  }

  void flushAll() { std::fill(Valid.begin(), Valid.end(), 0); }

  uint64_t sets() const { return Sets; }

private:
  uint32_t LineBytes, Ways;
  uint64_t Sets;
  uint64_t Clock = 0;
  std::vector<uint64_t> Tags, Stamps;
  std::vector<uint8_t> Valid;
};

TEST(HotPathCacheSimTest, SplitProbeMatchesFusedReference) {
  sim::CacheConfig Config;
  Config.SizeBytes = 1 << 14; // 64 sets x 4 ways: heavy conflict traffic.
  Config.Ways = 4;
  Config.LineBytes = 64;
  sim::CacheSim Cache(Config);
  ReferenceLru Ref(Config);

  Xoshiro256 Rng(5);
  for (int I = 0; I < 200000; ++I) {
    // Mix of a hot window (hits + LRU churn) and cold strides (victim
    // selection among invalid and valid ways).
    uint64_t Va = Rng.nextBounded(2) ? Rng.nextBounded(1 << 15)
                                     : Rng.nextBounded(1ull << 26);
    ASSERT_EQ(Ref.access(Va), Cache.access(Va)) << "access " << I;
  }
  EXPECT_GT(Cache.hits(), 0u);
  EXPECT_GT(Cache.misses(), 0u);
}

// The ranked sets against the stamp oracle on every way count up to 16
// over the shipped LLC sizes: the divisor-256 NVM LLC (143 wanted sets,
// 128 modelled at 16 ways), its halves for two engine shards, and the
// divisor-256 MCDRAM LLC. Addresses sit above AddressSpace::BaseVa like
// registered objects, the caches are flushed mid-stream, and one stream
// keeps hitting a single set with tags that share their low byte, so most
// fingerprint matches are false and the probe must check the full tag.
TEST(HotPathCacheSimTest, RankedSetsMatchStampReferenceOnShippedGeometries) {
  const uint64_t Sizes[] = {
      sim::nvmDramTestbed(1.0 / 256).Cache.SizeBytes,
      sim::nvmDramTestbed(1.0 / 256).Cache.SizeBytes / 2,
      sim::mcdramDramTestbed(1.0 / 256).Cache.SizeBytes};
  for (uint64_t Size : Sizes)
    for (uint32_t Ways : {2u, 4u, 8u, 16u}) {
      SCOPED_TRACE("size " + std::to_string(Size) + ", " +
                   std::to_string(Ways) + " ways");
      sim::CacheConfig Config;
      Config.SizeBytes = Size;
      Config.Ways = Ways;
      Config.LineBytes = 64;
      sim::CacheSim Cache(Config);
      ReferenceLru Ref(Config);
      ASSERT_EQ(Cache.sets(), Ref.sets());
      uint32_t SetShift = static_cast<uint32_t>(std::countr_zero(Cache.sets()));
      auto lineVa = [&](uint64_t Tag, uint64_t Set) {
        return mem::AddressSpace::BaseVa +
               (((Tag << SetShift) | Set) << 6);
      };

      Xoshiro256 Rng(Size + Ways);
      uint64_t RefHits = 0;
      for (int I = 0; I < 120000; ++I) {
        if (I == 40000 || I == 80000) {
          Cache.flushAll();
          Ref.flushAll();
        }
        uint64_t Va;
        switch (Rng.nextBounded(3)) {
        case 0: // Hot window about the cache's size: hits and LRU churn.
          Va = mem::AddressSpace::BaseVa + Rng.nextBounded(Size);
          break;
        case 1: // Cold footprint: victim choice among valid ways.
          Va = mem::AddressSpace::BaseVa + Rng.nextBounded(Size * 64);
          break;
        default: // 2*Ways tags of set 3 sharing the fingerprint byte 0x2a.
          Va = lineVa(0x2a + 256 * Rng.nextBounded(2 * Ways), 3);
          break;
        }
        bool Hit = Ref.access(Va);
        RefHits += Hit;
        ASSERT_EQ(Hit, Cache.access(Va)) << "access " << I;
      }
      EXPECT_EQ(Cache.hits(), RefHits);
      EXPECT_EQ(Cache.hits() + Cache.misses(), 120000u);
      EXPECT_GT(Cache.hits(), 0u);
      EXPECT_GT(Cache.misses(), 0u);
    }
}

/// The pre-PR fused TLB set walk: hit updates the stamp; otherwise the
/// victim is the last invalid way, else the lowest-stamp valid way
/// (stamps compared only while the victim is still valid).
class ReferenceTlbArray {
public:
  ReferenceTlbArray(uint32_t Entries, uint32_t Ways, uint64_t PageBytes)
      : Ways(Ways), Sets(std::max<uint32_t>(1, Entries / Ways)),
        PageBytes(PageBytes), Slots(uint64_t{Sets} * Ways) {}

  bool access(uint64_t Va) {
    uint64_t Vpn = Va / PageBytes;
    uint64_t Base = uint64_t{static_cast<uint32_t>(Vpn % Sets)} * Ways;
    ++Clock;
    Way *Victim = &Slots[Base];
    for (uint32_t W = 0; W < Ways; ++W) {
      Way &Entry = Slots[Base + W];
      if (Entry.Valid && Entry.Vpn == Vpn) {
        Entry.Stamp = Clock;
        return true;
      }
      if (!Entry.Valid)
        Victim = &Entry;
      else if (Victim->Valid && Entry.Stamp < Victim->Stamp)
        Victim = &Entry;
    }
    Victim->Vpn = Vpn;
    Victim->Stamp = Clock;
    Victim->Valid = true;
    return false;
  }

private:
  struct Way {
    uint64_t Vpn = ~0ull;
    uint64_t Stamp = 0;
    bool Valid = false;
  };
  uint32_t Ways, Sets;
  uint64_t PageBytes;
  uint64_t Clock = 0;
  std::vector<Way> Slots;
};

TEST(HotPathTlbTest, SplitProbeMatchesFusedReference) {
  sim::TlbConfig Config; // 64x4 small, 32x4 huge: the default geometry.
  sim::Tlb Tlb(Config);
  ReferenceTlbArray RefSmall(Config.SmallEntries, Config.SmallWays, 4096);
  ReferenceTlbArray RefHuge(Config.HugeEntries, Config.HugeWays, 2u << 20);

  Xoshiro256 Rng(17);
  for (int I = 0; I < 200000; ++I) {
    bool Huge = Rng.nextBounded(4) == 0;
    uint64_t Va = Rng.nextBounded(2) ? Rng.nextBounded(1u << 20)
                                     : Rng.nextBounded(1ull << 32);
    bool RefHit = Huge ? RefHuge.access(Va) : RefSmall.access(Va);
    ASSERT_EQ(RefHit, Tlb.access(Va, Huge ? 2u << 20 : 4096)) << "access " << I;
  }
  EXPECT_GT(Tlb.hits(), 0u);
  EXPECT_GT(Tlb.misses(), 0u);
}

//===----------------------------------------------------------------------===//
// End to end: the set-partitioned replay and its batched consumers vs the
// inline engine and the per-miss oracles.
//===----------------------------------------------------------------------===//

/// Config for a runtime whose LLC misses heavily and whose profiler
/// doubles its period inside the profiled iterations.
core::RuntimeConfig drainTestConfig(uint32_t SimThreads) {
  core::RuntimeConfig Config;
  Config.Machine = smallCacheTestbed();
  Config.Profiler = fastAdaptConfig();
  Config.SimThreads = SimThreads;
  return Config;
}

/// Pseudo-random gather over \p Arr and scatter over \p Aux; enough
/// misses per iteration to push sample counts past the budget.
void gatherScatter(core::TrackedArray<uint64_t> &Arr,
                   core::TrackedArray<uint32_t> &Aux, int Iter) {
  uint64_t State = 0x9e3779b97f4a7c15ull + Iter;
  for (uint64_t I = 0; I < (1u << 18); ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t V = Arr[(State >> 11) & ((1u << 19) - 1)];
    Aux[(I * 6364136223846793005ull) & ((1u << 18) - 1)] =
        static_cast<uint32_t>(V ^ I);
  }
}

TEST(HotPathDrainTest, BatchedDrainMatchesReferenceDrain) {
  // Rt1 replays on two workers and feeds its consumers whole merged
  // blocks; Rt2 is the inline engine, one miss at a time. Rt1's miss
  // trace also drives the per-miss oracles: a reference profiler with a
  // linear attribution walk and an uncached TLB replay.
  core::Runtime Rt1(drainTestConfig(2));
  core::Runtime Rt2(drainTestConfig(1));
  ASSERT_EQ(Rt1.simThreads(), 2u);

  // Identical allocation sequences produce identical VAs (the address
  // space is a deterministic bump allocator).
  core::TrackedArray<uint64_t> Arr1 = Rt1.allocate<uint64_t>("x", 1u << 19);
  core::TrackedArray<uint64_t> Arr2 = Rt2.allocate<uint64_t>("x", 1u << 19);
  ASSERT_EQ(Arr1.va(), Arr2.va());
  core::TrackedArray<uint32_t> Aux1 = Rt1.allocate<uint32_t>("y", 1u << 18);
  core::TrackedArray<uint32_t> Aux2 = Rt2.allocate<uint32_t>("y", 1u << 18);
  ASSERT_EQ(Aux1.va(), Aux2.va());

  sim::Tlb Tlb1 = Rt1.machine().makeTlb();
  sim::Tlb Tlb2 = Rt2.machine().makeTlb();
  sim::Tlb TlbRef = Rt1.machine().makeTlb();
  Rt1.setReplayTlb(&Tlb1);
  Rt2.setReplayTlb(&Tlb2);

  Rt1.profilingStart();
  Rt2.profilingStart();
  ReferenceProfiler Ref(Rt1.registry(), Rt1.profiler());

  std::string Path1 = tmpTracePath("drain1");
  std::string Path2 = tmpTracePath("drain2");
  for (int Iter = 0; Iter < 3; ++Iter) {
    // One trace per iteration, so the oracles can replay each one.
    prof::TraceWriter Trace1, Trace2;
    ASSERT_TRUE(Trace1.open(Path1));
    ASSERT_TRUE(Trace2.open(Path2));
    Rt1.setMissTrace(&Trace1);
    Rt2.setMissTrace(&Trace2);
    Rt1.beginIteration();
    Rt2.beginIteration();
    gatherScatter(Arr1, Aux1, Iter);
    gatherScatter(Arr2, Aux2, Iter);
    double Sec1 = Rt1.endIteration();
    double Sec2 = Rt2.endIteration();
    EXPECT_EQ(Sec1, Sec2) << "iteration " << Iter;
    Rt1.setMissTrace(nullptr);
    Rt2.setMissTrace(nullptr);
    ASSERT_TRUE(Trace1.finish());
    ASSERT_TRUE(Trace2.finish());
    EXPECT_EQ(readFileBytes(Path1), readFileBytes(Path2))
        << "miss-trace bytes diverged in iteration " << Iter;

    const sim::AccessStats &S1 = Rt1.iterationStats();
    const sim::AccessStats &S2 = Rt2.iterationStats();
    EXPECT_EQ(S1.Accesses, S2.Accesses);
    EXPECT_EQ(S1.LlcHits, S2.LlcHits);
    EXPECT_EQ(S1.TierMisses[0], S2.TierMisses[0]);
    EXPECT_EQ(S1.TierMisses[1], S2.TierMisses[1]);

    std::vector<uint64_t> Misses = readTrace(Path1);
    ASSERT_EQ(Misses.size(), S1.totalMisses());
    for (uint64_t Va : Misses) {
      Ref.notifyMiss(Va);
      replayTlbUncached(Rt1.machine().pageTable(), TlbRef, Va);
    }
    EXPECT_EQ(Tlb1.hits(), Tlb2.hits()) << "iteration " << Iter;
    EXPECT_EQ(Tlb1.misses(), Tlb2.misses()) << "iteration " << Iter;
    EXPECT_EQ(Tlb1.hits(), TlbRef.hits()) << "iteration " << Iter;
    EXPECT_EQ(Tlb1.misses(), TlbRef.misses()) << "iteration " << Iter;
  }

  Rt1.profilingStop();
  Rt2.profilingStop();

  prof::SamplingProfiler &P1 = Rt1.profiler();
  prof::SamplingProfiler &P2 = Rt2.profiler();
  EXPECT_GT(P1.missesSeen(), 0u);
  for (const auto &[Name, MissesSeen, Samples, Period] :
       {std::tuple{"inline", P2.missesSeen(), P2.sampleCount(), P2.period()},
        std::tuple{"oracle", Ref.missesSeen(), Ref.sampleCount(),
                   Ref.period()}}) {
    SCOPED_TRACE(Name);
    EXPECT_EQ(P1.missesSeen(), MissesSeen);
    EXPECT_EQ(P1.sampleCount(), Samples);
    EXPECT_EQ(P1.period(), Period);
  }
  EXPECT_GT(P1.period(), P1.initialPeriod())
      << "workload never crossed the sample budget";
  expectProfilesEqual(P2.profileFor(Arr2.objectId()),
                      P1.profileFor(Arr1.objectId()));
  expectProfilesEqual(P2.profileFor(Aux2.objectId()),
                      P1.profileFor(Aux1.objectId()));
  expectProfilesEqual(Ref.profileFor(Arr1.objectId()),
                      P1.profileFor(Arr1.objectId()));
  expectProfilesEqual(Ref.profileFor(Aux1.objectId()),
                      P1.profileFor(Aux1.objectId()));
  Rt1.setReplayTlb(nullptr);
  Rt2.setReplayTlb(nullptr);
  std::remove(Path1.c_str());
  std::remove(Path2.c_str());
}

/// Migrations between iterations mutate the page table: the cached,
/// run-collapsed replay of the two-worker runtime must track them like the
/// uncached per-miss oracle over the same miss stream.
TEST(HotPathDrainTest, CachedTlbReplayTracksPageTableMutations) {
  core::Runtime Rt(drainTestConfig(2));
  core::TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("x", 1u << 19);
  sim::Tlb Tlb = Rt.machine().makeTlb();
  sim::Tlb TlbRef = Rt.machine().makeTlb();
  Rt.setReplayTlb(&Tlb);
  std::string Path = tmpTracePath("mutations");

  for (int Iter = 0; Iter < 3; ++Iter) {
    prof::TraceWriter Trace;
    ASSERT_TRUE(Trace.open(Path));
    Rt.setMissTrace(&Trace);
    Rt.beginIteration();
    uint64_t State = 0xdeadbeef + Iter;
    uint64_t Sink = 0;
    for (uint64_t I = 0; I < (1u << 17); ++I) {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      Sink ^= Arr[(State >> 13) & ((1u << 19) - 1)];
    }
    if (Sink == 0x5ca1ab1e)
      std::fprintf(stderr, "sink\n");
    Rt.endIteration();
    Rt.setMissTrace(nullptr);
    ASSERT_TRUE(Trace.finish());
    for (uint64_t Va : readTrace(Path))
      replayTlbUncached(Rt.machine().pageTable(), TlbRef, Va);
    ASSERT_EQ(Tlb.hits(), TlbRef.hits()) << "iteration " << Iter;
    ASSERT_EQ(Tlb.misses(), TlbRef.misses()) << "iteration " << Iter;

    // Mutate the page table between iterations: the cached replay must
    // observe the new mappings, not yesterday's.
    uint64_t Quarter =
        (Rt.registry().object(Arr.objectId()).mappedBytes() / 4) &
        ~uint64_t{2097151};
    if (Quarter != 0) {
      sim::TierId To = Iter % 2 ? sim::TierId::Slow : sim::TierId::Fast;
      ASSERT_TRUE(Rt.machine().pageTable().remapRange(Arr.va(), Quarter, To,
                                                      /*PreferHuge=*/true));
      for (int I = 0; I < 16; ++I)
        Rt.machine().pageTable().movePage(Arr.va() + Quarter + I * 8192,
                                          To);
    }
  }
  Rt.setReplayTlb(nullptr);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// TLB run collapse: a miss in the huge array's last 2 MiB page is counted
// as a hit without a probe; everything after must match per-miss access.
//===----------------------------------------------------------------------===//

TEST(HotPathTlbTest, RunCollapseMatchesPerMissAccess) {
  sim::Machine M(smallCacheTestbed());
  mem::DataObjectRegistry Reg(M);
  mem::DataObject &Obj =
      Reg.create("graph", 16u << 20, mem::InitialPlacement::Slow);
  sim::PageTable &PT = M.pageTable();
  // Fragment part of the object into 4 KiB pages (mbind-style moves) so
  // the stream mixes both page sizes, some 2 MiB regions small-mapped.
  for (uint64_t Off = 0; Off < (2u << 20); Off += 4096 * 3)
    PT.movePage(Obj.va() + Off, sim::TierId::Fast);
  prof::SamplingProfiler Idle(Reg, fastAdaptConfig());
  core::MissConsumers Consumers(Idle, PT);
  sim::Tlb Batched = M.makeTlb();
  sim::Tlb PerMiss = M.makeTlb();
  Consumers.setTlb(&Batched);

  Xoshiro256 Rng(61);
  for (int Round = 0; Round < 40; ++Round) {
    // Long runs inside one 2 MiB page, broken by strays to other pages
    // (both page sizes) and to unmapped addresses.
    std::vector<uint64_t> Stream;
    while (Stream.size() < 5000) {
      uint64_t Page = Obj.va() + (Rng.nextBounded(8) << 21);
      uint64_t Run = 1 + Rng.nextBounded(64);
      for (uint64_t I = 0; I < Run; ++I)
        Stream.push_back(Page + Rng.nextBounded(2u << 20));
      if (Rng.nextBounded(4) == 0)
        Stream.push_back(Obj.va() + Obj.mappedBytes() + Rng.nextBounded(4096));
    }
    Consumers.consumeBatch(Stream.data(), Stream.size());
    for (uint64_t Va : Stream)
      replayTlbUncached(PT, PerMiss, Va);
    ASSERT_EQ(Batched.hits(), PerMiss.hits()) << "round " << Round;
    ASSERT_EQ(Batched.misses(), PerMiss.misses()) << "round " << Round;

    // Between batches: page-table mutations and TLB flushes.
    switch (Round % 4) {
    case 0:
      PT.movePage(Obj.va() + (Rng.nextBounded(8) << 21), sim::TierId::Fast);
      break;
    case 1:
      ASSERT_TRUE(PT.remapRange(Obj.va() + (Rng.nextBounded(8) << 21),
                                2u << 20, sim::TierId::Slow,
                                /*PreferHuge=*/true));
      break;
    case 2: {
      uint64_t Va = Stream[Rng.nextBounded(Stream.size())];
      sim::Translation T;
      if (PT.translate(Va, T)) {
        Batched.flushPage(Va, T.PageBytes);
        PerMiss.flushPage(Va, T.PageBytes);
      }
      break;
    }
    default:
      Batched.flushAll();
      PerMiss.flushAll();
      break;
    }
  }
  EXPECT_GT(Batched.hits(), 0u);
  EXPECT_GT(Batched.misses(), 0u);
  // Later verdicts, one access at a time, agree too.
  for (int I = 0; I < 20000; ++I) {
    uint64_t Va = Obj.va() + Rng.nextBounded(Obj.mappedBytes());
    sim::Translation T;
    ASSERT_TRUE(PT.translate(Va, T));
    ASSERT_EQ(Batched.access(Va, T.PageBytes), PerMiss.access(Va, T.PageBytes))
        << "access " << I;
  }
}

//===----------------------------------------------------------------------===//
// SIMD probe and huge-page translation primitives: the vectorized 4-way
// tag compare and the replay loop's one-load huge-map probe, each pinned
// against the scalar semantics it shortcuts.
//===----------------------------------------------------------------------===//

TEST(HotPathSimdProbeTest, ProbeWay4MatchesScalarFirstMatchScan) {
  // Half-match adversaries for the SSE2 32-bit emulation: lanes agreeing
  // in exactly one 32-bit half must not report equality.
  const uint64_t Lo = 0x00000001'00000002ull;
  {
    uint64_t Row[4] = {Lo, 0x00000009'00000002ull, 0x00000001'00000003ull,
                       ~0ull};
    EXPECT_EQ(sim::probeWay4(Row, Lo), 0);
    EXPECT_EQ(sim::probeWay4(Row, 0x00000009'00000003ull), -1);
  }
  // Duplicate keys: the contract is the LOWEST matching way, same as a
  // first-match scalar scan.
  {
    uint64_t Row[4] = {7, 9, 9, 9};
    EXPECT_EQ(sim::probeWay4(Row, 9), 1);
  }

  Xoshiro256 Rng(23);
  for (int I = 0; I < 200000; ++I) {
    uint64_t Row[4];
    // A small key universe forces frequent matches in every way position
    // (and occasional duplicates); ~0 mimics invalid-slot sentinels.
    for (uint64_t &Slot : Row)
      Slot = Rng.nextBounded(8) == 0 ? ~0ull : Rng.nextBounded(12);
    uint64_t Key = Rng.nextBounded(16) == 0 ? ~0ull : Rng.nextBounded(12);
    int Ref = -1;
    for (int W = 0; W < 4 && Ref < 0; ++W)
      if (Row[W] == Key)
        Ref = W;
    ASSERT_EQ(sim::probeWay4(Row, Key), Ref)
        << Row[0] << "," << Row[1] << "," << Row[2] << "," << Row[3]
        << " key " << Key;
  }
}

TEST(HotPathTlbTest, DirectArrayAccessVpnMatchesDispatchedAccess) {
  // The batched drain resolves the page size once per translation run and
  // feeds the run's misses straight to the owning array via accessVpn();
  // verdicts and counters must be exactly those of the dispatched
  // per-access path.
  sim::TlbConfig Config;
  sim::Tlb Dispatched(Config);
  sim::Tlb Direct(Config);

  Xoshiro256 Rng(31);
  for (int I = 0; I < 200000; ++I) {
    bool Huge = Rng.nextBounded(4) == 0;
    uint64_t PageBytes = Huge ? 2u << 20 : 4096;
    uint64_t Va = Rng.nextBounded(2) ? Rng.nextBounded(1u << 20)
                                     : Rng.nextBounded(1ull << 32);
    bool RefHit = Dispatched.access(Va, PageBytes);
    bool GotHit = Huge ? Direct.hugeArray().accessVpn(Va >> 21)
                       : Direct.smallArray().accessVpn(Va >> 12);
    ASSERT_EQ(RefHit, GotHit) << "access " << I;
  }
  EXPECT_EQ(Dispatched.hits(), Direct.hits());
  EXPECT_EQ(Dispatched.misses(), Direct.misses());
  EXPECT_GT(Direct.hits(), 0u);
  EXPECT_GT(Direct.misses(), 0u);
}

TEST(HotPathTranslationCacheTest, IsCachedHugeAgreesWithPageTable) {
  sim::Machine M(smallCacheTestbed());
  mem::DataObjectRegistry Reg(M);
  mem::DataObject &Obj =
      Reg.create("graph", 8u << 20, mem::InitialPlacement::Slow);
  sim::PageTable &PT = M.pageTable();
  sim::TranslationCache Cache(PT);

  // Warm-then-probe sweep: after translate(Va) filled the slot for a
  // live mapping, isCachedHuge must say "huge" exactly when the page
  // table maps the address with a 2 MiB page.
  auto CheckSweep = [&](uint64_t Seed) {
    Xoshiro256 Rng(Seed);
    for (int I = 0; I < 3000; ++I) {
      uint64_t Va = Obj.va() + Rng.nextBounded(Obj.mappedBytes());
      sim::Translation Direct;
      ASSERT_TRUE(PT.translate(Va, Direct));
      sim::Translation Cached;
      ASSERT_TRUE(Cache.translate(Va, Cached));
      EXPECT_EQ(Cache.isCachedHuge(Va >> 21), Direct.PageBytes == (2u << 20))
          << "va " << std::hex << Va;
    }
  };

  CheckSweep(3);
  // Split pages out of the huge mapping (mbind-style single-page moves),
  // then rebuild huge pages with a full-range remap; every mutation bumps
  // the epoch, and translate()'s revalidation must keep the one-load
  // probe truthful — a stale huge tag after a split would misroute the
  // whole 512-page region in the replay loop.
  Xoshiro256 Rng(77);
  for (int Round = 0; Round < 3; ++Round) {
    for (int I = 0; I < 8; ++I) {
      uint64_t PageVa =
          Obj.va() + (Rng.nextBounded(Obj.mappedBytes()) & ~uint64_t{4095});
      PT.movePage(PageVa, Round % 2 ? sim::TierId::Fast : sim::TierId::Slow);
    }
    Cache.revalidate();
    CheckSweep(100 + Round);
    ASSERT_TRUE(PT.remapRange(Obj.va(), Obj.mappedBytes(),
                              Round % 2 ? sim::TierId::Slow : sim::TierId::Fast,
                              /*PreferHuge=*/true));
    Cache.revalidate();
    CheckSweep(200 + Round);
  }
}

} // namespace
