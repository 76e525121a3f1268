//===----------------------------------------------------------------------===//
// Property tests under randomized fault schedules: whatever mix of
// injected failures a migration sequence hits, the cross-layer accounting
// must stay exact — per-tier FrameAllocator bytes equal the bytes of live
// DataObjects on that tier, no frame is leaked, none is double-freed, and
// destroying everything returns both allocators to empty. Every trial's
// seed is logged so a failure replays deterministically.
//===----------------------------------------------------------------------===//

#include "fault/FaultInjection.h"
#include "mem/AtmemMigrator.h"
#include "mem/MbindMigrator.h"
#include "mem/MemoryInvariants.h"
#include "sim/Machine.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

using namespace atmem;
using namespace atmem::mem;
using namespace atmem::sim;

namespace {

class FaultPropertyTest : public ::testing::Test {
protected:
  void SetUp() override { fault::FaultRegistry::instance().disarmAll(); }
  void TearDown() override { fault::FaultRegistry::instance().disarmAll(); }

  static void armProbability(const char *SiteName, double P,
                             uint64_t Seed) {
    fault::FaultPlan Plan;
    Plan.Mode = fault::Trigger::Probability;
    Plan.P = P;
    Plan.Seed = Seed;
    fault::FaultRegistry::instance().arm(SiteName, Plan);
  }

  /// Asserts the full accounting identity for a quiescent system:
  /// invariant checker at \p Level, plus the explicit per-tier equation
  /// sum(live object bytesOn(T)) == allocator(T).usedBytes().
  static void expectAccountingExact(const DataObjectRegistry &Registry,
                                    InvariantLevel Level) {
    std::string Why;
    EXPECT_TRUE(checkMemoryInvariants(Registry, Level, &Why)) << Why;
    if (Level != InvariantLevel::Full)
      return;
    const Machine &M = Registry.machine();
    for (TierId Tier : {TierId::Fast, TierId::Slow}) {
      uint64_t ObjectBytes = 0;
      for (const DataObject *Obj : Registry.liveObjects())
        ObjectBytes += Obj->bytesOn(Tier);
      EXPECT_EQ(ObjectBytes, M.allocator(Tier).usedBytes())
          << "tier " << (Tier == TierId::Fast ? "fast" : "slow");
    }
  }

  /// A maximal run of chunks of \p Obj starting at a random chunk that
  /// all sit on one tier (migrators move ranges with a single source).
  static ChunkRange randomUniformRange(Xoshiro256 &Rng,
                                       const DataObject &Obj,
                                       TierId &SourceOut) {
    uint32_t First =
        static_cast<uint32_t>(Rng.nextBounded(Obj.numChunks()));
    SourceOut = Obj.chunkTier(First);
    uint32_t End = First + 1;
    uint32_t MaxLen = 1 + static_cast<uint32_t>(Rng.nextBounded(8));
    while (End < Obj.numChunks() && End - First < MaxLen &&
           Obj.chunkTier(End) == SourceOut)
      ++End;
    return {First, End - First};
  }
};

TEST_F(FaultPropertyTest, AtmemSchedulesPreserveAccounting) {
  for (uint64_t Trial = 0; Trial < 6; ++Trial) {
    uint64_t Seed = 0xA73 + Trial * 7919;
    SCOPED_TRACE("trial seed " + std::to_string(Seed));
    Xoshiro256 Rng(Seed);

    Machine M(nvmDramTestbed(1.0 / 1024));
    DataObjectRegistry Registry(M);
    AtmemMigrator Atmem(Registry);

    armProbability("migrator.staging_alloc", 0.25, Seed + 2);
    armProbability("migrator.remap", 0.25, Seed + 3);
    armProbability("addrspace.alloc", 0.2, Seed + 4);

    std::vector<DataObject *> Objects;
    auto CreateOne = [&](uint64_t Index) {
      uint64_t Chunks = 4 + Rng.nextBounded(5);
      DataObject *Obj = Registry.tryCreate(
          "obj" + std::to_string(Index), Chunks << 20,
          InitialPlacement::Slow, 1 << 20);
      if (Obj)
        Objects.push_back(Obj);
    };
    for (uint64_t I = 0; I < 3; ++I)
      CreateOne(I);

    for (uint64_t Op = 0; Op < 24; ++Op) {
      if (Objects.empty() || Rng.nextBounded(8) == 0) {
        CreateOne(100 + Op);
        continue;
      }
      uint64_t Pick = Rng.nextBounded(Objects.size());
      if (Rng.nextBounded(10) == 0) {
        Registry.destroy(Objects[Pick]->id());
        Objects.erase(Objects.begin() + static_cast<long>(Pick));
        continue;
      }
      DataObject &Obj = *Objects[Pick];
      TierId Source;
      ChunkRange Range = randomUniformRange(Rng, Obj, Source);
      TierId Target =
          Source == TierId::Fast ? TierId::Slow : TierId::Fast;
      MigrationResult Result;
      MigrationStatus Status =
          Atmem.migrate(Obj, {Range}, Target, Result);
      // Any typed status is acceptable; aborting or corrupting state is
      // not. ATMem ranges move whole or not at all, so the system is
      // quiescent and fully consistent after every call.
      (void)Status;
    }

    fault::FaultRegistry::instance().disarmAll();
    expectAccountingExact(Registry, InvariantLevel::Full);

    // Free everything: both allocators must return to exactly empty (no
    // leaked staging frames, no double-free across the whole schedule).
    for (DataObject *Obj : Objects)
      Registry.destroy(Obj->id());
    std::string Why;
    EXPECT_TRUE(
        checkMemoryInvariants(Registry, InvariantLevel::Full, &Why))
        << Why;
    EXPECT_EQ(M.allocator(TierId::Fast).usedBytes(), 0u);
    EXPECT_EQ(M.allocator(TierId::Slow).usedBytes(), 0u);
  }
}

TEST_F(FaultPropertyTest, MixedMechanismSchedulesHealCleanly) {
  for (uint64_t Trial = 0; Trial < 4; ++Trial) {
    uint64_t Seed = 0xB61 + Trial * 104729;
    SCOPED_TRACE("trial seed " + std::to_string(Seed));
    Xoshiro256 Rng(Seed);

    Machine M(nvmDramTestbed(1.0 / 1024));
    DataObjectRegistry Registry(M);
    AtmemMigrator Atmem(Registry);
    MbindMigrator Mbind(Registry);

    std::vector<DataObject *> Objects;
    for (uint64_t I = 0; I < 3; ++I) {
      DataObject *Obj = Registry.tryCreate(
          "obj" + std::to_string(I), (4 + Rng.nextBounded(5)) << 20,
          InitialPlacement::Slow, 1 << 20);
      ASSERT_NE(Obj, nullptr);
      Objects.push_back(Obj);
    }

    armProbability("migrator.staging_alloc", 0.2, Seed + 1);
    armProbability("migrator.remap", 0.2, Seed + 2);
    armProbability("mbind.move_page", 0.02, Seed + 3);

    for (uint64_t Op = 0; Op < 24; ++Op) {
      DataObject &Obj = *Objects[Rng.nextBounded(Objects.size())];
      TierId Source;
      ChunkRange Range = randomUniformRange(Rng, Obj, Source);
      TierId Target =
          Source == TierId::Fast ? TierId::Slow : TierId::Fast;
      MigrationResult Result;
      if (Rng.nextBounded(2) == 0)
        (void)Atmem.migrate(Obj, {Range}, Target, Result);
      else
        (void)Mbind.migrate(Obj, {Range}, Target, Result);
      // A faulted mbind can stop mid-chunk, so only frame exactness is
      // checkable between operations.
      std::string Why;
      ASSERT_TRUE(checkMemoryInvariants(Registry,
                                        InvariantLevel::Frames, &Why))
          << Why << " after op " << Op;
    }

    // Heal: with faults disarmed, move every object wholly to the slow
    // tier (capacity there always suffices), restoring whole-chunk
    // placement. Full accounting must then hold exactly.
    fault::FaultRegistry::instance().disarmAll();
    for (DataObject *Obj : Objects) {
      MigrationResult Result;
      ASSERT_EQ(Mbind.migrate(*Obj, {{0, Obj->numChunks()}}, TierId::Slow,
                              Result),
                MigrationStatus::Success);
    }
    expectAccountingExact(Registry, InvariantLevel::Full);
    EXPECT_EQ(M.allocator(TierId::Fast).usedBytes(), 0u);

    for (DataObject *Obj : Objects)
      Registry.destroy(Obj->id());
    EXPECT_EQ(M.allocator(TierId::Slow).usedBytes(), 0u);
  }
}

TEST_F(FaultPropertyTest, RandomSpecStringsNeverCorruptRegistry) {
  // armFromSpec on arbitrary fragment soup must either cleanly arm (and
  // then cleanly disarm) or reject without arming anything.
  const char *Fragments[] = {"test.x", "=",    "nth:",  "every:", "prob:",
                             "1",      "0.5",  ",",     ":",      "x",
                             "nth:3",  "9e99", "test.y"};
  Xoshiro256 Rng(20260805);
  for (int Iter = 0; Iter < 200; ++Iter) {
    std::string Spec;
    uint64_t Parts = 1 + Rng.nextBounded(6);
    for (uint64_t P = 0; P < Parts; ++P)
      Spec += Fragments[Rng.nextBounded(std::size(Fragments))];
    std::string Error;
    if (!fault::armFromSpec(Spec, &Error)) {
      EXPECT_FALSE(fault::anyArmed()) << Spec;
      EXPECT_FALSE(Error.empty()) << Spec;
    }
    fault::FaultRegistry::instance().disarmAll();
    EXPECT_FALSE(fault::anyArmed());
  }
}

} // namespace
