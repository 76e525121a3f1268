//===----------------------------------------------------------------------===//
// Unit tests for the ATMem runtime and the paper's C-style API.
//===----------------------------------------------------------------------===//

#include "core/AtmemApi.h"
#include "core/Runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

using namespace atmem;
using namespace atmem::core;

namespace {

RuntimeConfig testConfig() {
  RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
  return Config;
}

TEST(RuntimeTest, AllocateRegistersObject) {
  Runtime Rt(testConfig());
  TrackedArray<uint32_t> Arr = Rt.allocate<uint32_t>("v", 1024);
  EXPECT_EQ(Arr.size(), 1024u);
  EXPECT_EQ(Rt.registry().liveObjects().size(), 1u);
  EXPECT_EQ(Rt.registry().object(Arr.objectId()).sizeBytes(), 4096u);
}

TEST(RuntimeTest, TrackedAccessCountsStats) {
  Runtime Rt(testConfig());
  TrackedArray<uint32_t> Arr = Rt.allocate<uint32_t>("v", 1024);
  Rt.beginIteration();
  for (int I = 0; I < 100; ++I)
    Arr[static_cast<size_t>(I)] = I;
  EXPECT_EQ(Rt.iterationStats().Accesses, 100u);
}

TEST(RuntimeTest, TrackingDisableSuppressesCounting) {
  Runtime Rt(testConfig());
  TrackedArray<uint32_t> Arr = Rt.allocate<uint32_t>("v", 64);
  Rt.beginIteration();
  Rt.setTrackingEnabled(false);
  Arr[0] = 1;
  Rt.setTrackingEnabled(true);
  EXPECT_EQ(Rt.iterationStats().Accesses, 0u);
}

TEST(RuntimeTest, RepeatedAccessHitsLlc) {
  Runtime Rt(testConfig());
  TrackedArray<uint32_t> Arr = Rt.allocate<uint32_t>("v", 16);
  Rt.beginIteration();
  Arr[0] = 1;
  uint32_t X = Arr[0];
  (void)X;
  const sim::AccessStats &Stats = Rt.iterationStats();
  EXPECT_EQ(Stats.Accesses, 2u);
  EXPECT_EQ(Stats.LlcHits, 1u);
  EXPECT_EQ(Stats.totalMisses(), 1u);
}

TEST(RuntimeTest, MissesAttributedToSlowTierInitially) {
  Runtime Rt(testConfig());
  TrackedArray<uint32_t> Arr = Rt.allocate<uint32_t>("v", 1 << 16);
  Rt.beginIteration();
  for (size_t I = 0; I < Arr.size(); I += 16)
    Arr[I] = 1;
  const sim::AccessStats &Stats = Rt.iterationStats();
  EXPECT_GT(Stats.TierMisses[sim::tierIndex(sim::TierId::Slow)], 0u);
  EXPECT_EQ(Stats.TierMisses[sim::tierIndex(sim::TierId::Fast)], 0u);
}

TEST(RuntimeTest, EndIterationReturnsPositiveTime) {
  Runtime Rt(testConfig());
  TrackedArray<uint32_t> Arr = Rt.allocate<uint32_t>("v", 1 << 16);
  Rt.beginIteration();
  for (size_t I = 0; I < Arr.size(); ++I)
    Arr[I] = 1;
  EXPECT_GT(Rt.endIteration(), 0.0);
}

TEST(RuntimeTest, FastPlacementMakesFastMisses) {
  RuntimeConfig Config = testConfig();
  Config.Placement = mem::InitialPlacement::Fast;
  Runtime Rt(Config);
  TrackedArray<uint32_t> Arr = Rt.allocate<uint32_t>("v", 1 << 16);
  Rt.beginIteration();
  for (size_t I = 0; I < Arr.size(); I += 16)
    Arr[I] = 1;
  EXPECT_GT(Rt.iterationStats().TierMisses[0], 0u);
  EXPECT_EQ(Rt.iterationStats().TierMisses[1], 0u);
  EXPECT_DOUBLE_EQ(Rt.fastDataRatio(), 1.0);
}

/// End-to-end: a synthetic object with one hot region; ATMem must find
/// and migrate (at least) the hot region and speed up the next iteration.
TEST(RuntimeTest, OptimizeMigratesHotRegion) {
  Runtime Rt(testConfig());
  TrackedArray<uint64_t> Hot = Rt.allocate<uint64_t>("hot", 1 << 17);
  TrackedArray<uint64_t> Cold = Rt.allocate<uint64_t>("cold", 1 << 17);

  auto RunIteration = [&]() {
    // Hot array hammered randomly; cold array touched once.
    uint64_t State = 12345;
    for (int I = 0; I < 200000; ++I) {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      Hot[(State >> 33) & ((1 << 17) - 1)] += 1;
    }
    for (size_t I = 0; I < Cold.size(); I += 64)
      Cold[I] += 1;
  };

  Rt.profilingStart();
  Rt.beginIteration();
  RunIteration();
  double Before = Rt.endIteration();
  Rt.profilingStop();

  mem::MigrationResult Result = Rt.optimize();
  EXPECT_GT(Result.BytesMoved, 0u);

  // The hot object must now be mostly on the fast tier.
  const mem::DataObject &HotObj = Rt.registry().object(Hot.objectId());
  EXPECT_GT(HotObj.bytesOn(sim::TierId::Fast),
            HotObj.mappedBytes() / 2);

  Rt.beginIteration();
  RunIteration();
  double After = Rt.endIteration();
  EXPECT_LT(After, Before);
}

TEST(RuntimeTest, OptimizeRespectsBudgetFraction) {
  RuntimeConfig Config = testConfig();
  Config.FastBudgetFraction = 0.0; // No budget: nothing may migrate.
  Runtime Rt(Config);
  TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("a", 1 << 16);
  Rt.profilingStart();
  Rt.beginIteration();
  for (size_t I = 0; I < Arr.size(); ++I)
    Arr[I] = 1;
  Rt.endIteration();
  mem::MigrationResult Result = Rt.optimize();
  EXPECT_EQ(Result.BytesMoved, 0u);
  EXPECT_DOUBLE_EQ(Rt.fastDataRatio(), 0.0);
}

TEST(RuntimeTest, WholeObjectChunksSingleChunk) {
  RuntimeConfig Config = testConfig();
  Config.WholeObjectChunks = true;
  Runtime Rt(Config);
  TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("a", 1 << 18);
  EXPECT_EQ(Rt.registry().object(Arr.objectId()).numChunks(), 1u);
}

TEST(RuntimeTest, ReplayTlbObservesAccesses) {
  Runtime Rt(testConfig());
  TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("a", 1 << 16);
  sim::Tlb Tlb = Rt.machine().makeTlb();
  Rt.setReplayTlb(&Tlb);
  Rt.beginIteration();
  for (size_t I = 0; I < Arr.size(); I += 8)
    Arr[I] = 1;
  Rt.setReplayTlb(nullptr);
  EXPECT_GT(Tlb.misses(), 0u);
}

TEST(RuntimeTest, ReleaseRemovesObject) {
  Runtime Rt(testConfig());
  TrackedArray<uint32_t> Arr = Rt.allocate<uint32_t>("v", 64);
  Rt.release(Arr.objectId());
  EXPECT_TRUE(Rt.registry().liveObjects().empty());
}

//===----------------------------------------------------------------------===//
// Thread budget: the LLC replay workers are the only host threads a
// runtime owns. The kernel, the migrator copies and the miss consumers run
// on the calling thread or on those workers.
//===----------------------------------------------------------------------===//

/// Threads in this process, or 0 where /proc/self/task is missing.
long processThreadCount() {
  std::error_code Ec;
  std::filesystem::directory_iterator It("/proc/self/task", Ec);
  long Count = 0;
  for (; !Ec && It != std::filesystem::directory_iterator(); It.increment(Ec))
    ++Count;
  return Ec ? 0 : Count;
}

/// processThreadCount() once it has stopped changing: a thread that was
/// just joined can stay listed until the kernel finishes its exit.
long settledThreadCount() {
  long Count = processThreadCount();
  for (int Stable = 0, Round = 0; Stable < 5 && Round < 1000; ++Round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    long Now = processThreadCount();
    Stable = Now == Count ? Stable + 1 : 0;
    Count = Now;
  }
  return Count;
}

/// Threads a runtime on \p Machine has added once a replay TLB is
/// attached, one profiled iteration has run, and optimize() has migrated;
/// \p Left receives the threads still added after it is destroyed.
long threadsAddedByRuntime(const sim::MachineConfig &Machine,
                           uint32_t SimThreads, long &Left) {
  RuntimeConfig Config;
  Config.Machine = Machine;
  Config.SimThreads = SimThreads;
  long Before = settledThreadCount();
  long Added = 0;
  {
    Runtime Rt(Config);
    TrackedArray<uint64_t> Hot = Rt.allocate<uint64_t>("hot", 1 << 17);
    TrackedArray<uint64_t> Cold = Rt.allocate<uint64_t>("cold", 1 << 17);
    sim::Tlb Tlb = Rt.machine().makeTlb();
    Rt.setReplayTlb(&Tlb);

    Rt.profilingStart();
    Rt.beginIteration();
    for (uint64_t I = 0; I < 200000; ++I) {
      (void)Hot[(I * 2654435761u) & ((1 << 17) - 1)];
      if (I % 64 == 0)
        (void)Cold[I % Cold.size()];
    }
    Rt.endIteration();
    Rt.profilingStop();
    mem::MigrationResult Result = Rt.optimize();
    EXPECT_GT(Result.Ranges, 0u);
    EXPECT_GT(Tlb.misses(), 0u);
    Rt.setReplayTlb(nullptr);
    Added = settledThreadCount() - Before;
  }
  Left = settledThreadCount() - Before;
  return Added;
}

TEST(RuntimeThreadBudgetTest, OnlyTheKernelPoolAddsThreads) {
  if (processThreadCount() == 0)
    GTEST_SKIP() << "/proc/self/task is not available";
  // TSan starts a helper thread at the first thread creation; create one
  // up front so every baseline below already counts it.
  std::thread([] {}).join();
  const std::pair<const char *, sim::MachineConfig> Testbeds[] = {
      {"nvm", sim::nvmDramTestbed(1.0 / 1024)},
      {"mcdram", sim::mcdramDramTestbed(1.0 / 1024)}};
  for (const auto &[Name, Machine] : Testbeds) {
    SCOPED_TRACE(Name);
    for (uint32_t SimThreads : {1u, 2u, 4u}) {
      SCOPED_TRACE("SimThreads " + std::to_string(SimThreads));
      long Left = -1;
      long Added = threadsAddedByRuntime(Machine, SimThreads, Left);
      EXPECT_EQ(Added, SimThreads == 1 ? 0 : long{SimThreads});
      EXPECT_EQ(Left, 0) << "destruction left threads behind";
    }
  }
}

//===----------------------------------------------------------------------===//
// C-style API (paper Listing 1)
//===----------------------------------------------------------------------===//

class ApiTest : public ::testing::Test {
protected:
  ApiTest() : Rt(testConfig()) { atmem_set_runtime(&Rt); }
  ~ApiTest() override { atmem_set_runtime(nullptr); }
  Runtime Rt;
};

TEST_F(ApiTest, MallocRegistersAndFreeUnregisters) {
  void *Ptr = atmem_malloc(1 << 20);
  ASSERT_NE(Ptr, nullptr);
  EXPECT_EQ(Rt.registry().liveObjects().size(), 1u);
  atmem_free(Ptr);
  EXPECT_TRUE(Rt.registry().liveObjects().empty());
}

TEST_F(ApiTest, MallocZeroReturnsNull) {
  EXPECT_EQ(atmem_malloc(0), nullptr);
}

TEST_F(ApiTest, FreeUnknownPointerIgnored) {
  int Local = 0;
  atmem_free(&Local); // Must not crash or unregister anything.
  EXPECT_TRUE(Rt.registry().liveObjects().empty());
}

TEST_F(ApiTest, LookupObjectResolvesPointer) {
  void *Ptr = atmem_malloc(4096);
  mem::ObjectId Id = 0;
  ASSERT_TRUE(atmem_lookup_object(Ptr, Id));
  EXPECT_EQ(Rt.registry().object(Id).data(), Ptr);
  atmem_free(Ptr);
}

TEST_F(ApiTest, ProfilingControlRoundTrip) {
  atmem_profiling_start();
  EXPECT_TRUE(Rt.profiler().isActive());
  atmem_profiling_stop();
  EXPECT_FALSE(Rt.profiler().isActive());
}

TEST_F(ApiTest, TrackedViewFeedsProfiler) {
  void *Ptr = atmem_malloc(1 << 20);
  auto View = atmem_tracked_view<uint64_t>(Ptr, (1 << 20) / 8);
  ASSERT_EQ(View.size(), (1u << 20) / 8);
  atmem_profiling_start();
  Rt.beginIteration();
  for (size_t I = 0; I < View.size(); I += 8)
    View[I] = I;
  atmem_profiling_stop();
  EXPECT_GT(Rt.profiler().sampleCount(), 0u);
  atmem_free(Ptr);
}

TEST_F(ApiTest, OptimizeViaApiRuns) {
  void *Ptr = atmem_malloc(1 << 20);
  auto View = atmem_tracked_view<uint64_t>(Ptr, (1 << 20) / 8);
  atmem_profiling_start();
  Rt.beginIteration();
  for (size_t I = 0; I < View.size(); ++I)
    View[I] = I;
  atmem_profiling_stop();
  atmem_optimize();
  EXPECT_GT(Rt.fastDataRatio(), 0.0);
  atmem_free(Ptr);
}

TEST(ApiNoRuntimeTest, CallsAreSafeWithoutRuntime) {
  atmem_set_runtime(nullptr);
  EXPECT_EQ(atmem_malloc(100), nullptr);
  atmem_free(nullptr);
  atmem_profiling_start();
  atmem_profiling_stop();
  atmem_optimize();
  EXPECT_EQ(atmem_current_runtime(), nullptr);
}

} // namespace
