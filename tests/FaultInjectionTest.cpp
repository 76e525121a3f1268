//===----------------------------------------------------------------------===//
// Fault-matrix tests for the deterministic fault-injection framework and
// the graceful-degradation migration pipeline: every registered site is
// exercised under each trigger mode, failures must surface as typed error
// results (never aborts), the cross-layer memory invariants must hold
// after every injected failure, and the next unfaulted attempt must
// recover.
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "fault/FaultInjection.h"
#include "mem/AtmemMigrator.h"
#include "mem/MbindMigrator.h"
#include "mem/MemoryInvariants.h"
#include "obs/Json.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>

using namespace atmem;
using namespace atmem::mem;
using namespace atmem::sim;

namespace {

/// Every test starts and ends with nothing armed; a leaked armed site
/// would silently poison later tests in the binary.
class FaultTest : public ::testing::Test {
protected:
  void SetUp() override { fault::FaultRegistry::instance().disarmAll(); }
  void TearDown() override { fault::FaultRegistry::instance().disarmAll(); }
};

void expectInvariants(const DataObjectRegistry &Registry,
                      InvariantLevel Level = InvariantLevel::Full) {
  std::string Why;
  EXPECT_TRUE(checkMemoryInvariants(Registry, Level, &Why)) << Why;
}

//===----------------------------------------------------------------------===//
// Registry and trigger-mode semantics (a synthetic site, no subsystem).
//===----------------------------------------------------------------------===//

TEST_F(FaultTest, DisarmedSiteNeverFiresAndCostsNothing) {
  fault::Site S("test.disarmed");
  EXPECT_FALSE(fault::anyArmed());
  for (int I = 0; I < 100; ++I)
    EXPECT_FALSE(S.shouldFail());
  // Hits are only recorded while something is armed.
  EXPECT_EQ(fault::FaultRegistry::instance().hits("test.disarmed"), 0u);
}

TEST_F(FaultTest, NthTriggerFiresExactlyOnce) {
  fault::Site S("test.nth");
  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::Nth;
  Plan.N = 3;
  fault::FaultRegistry::instance().arm("test.nth", Plan);
  EXPECT_TRUE(fault::anyArmed());
  std::vector<bool> Fired;
  for (int I = 0; I < 6; ++I)
    Fired.push_back(S.shouldFail());
  EXPECT_EQ(Fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(fault::FaultRegistry::instance().hits("test.nth"), 6u);
  EXPECT_EQ(fault::FaultRegistry::instance().fires("test.nth"), 1u);
}

TEST_F(FaultTest, EveryKthTriggerFiresPeriodically) {
  fault::Site S("test.every");
  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::EveryKth;
  Plan.N = 2;
  fault::FaultRegistry::instance().arm("test.every", Plan);
  std::vector<bool> Fired;
  for (int I = 0; I < 6; ++I)
    Fired.push_back(S.shouldFail());
  EXPECT_EQ(Fired,
            (std::vector<bool>{false, true, false, true, false, true}));
  EXPECT_EQ(fault::FaultRegistry::instance().fires("test.every"), 3u);
}

TEST_F(FaultTest, ProbabilityTriggerIsDeterministicPerSeed) {
  fault::Site S("test.prob");
  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::Probability;
  Plan.P = 0.5;
  Plan.Seed = 42;
  auto Draw = [&] {
    fault::FaultRegistry::instance().arm("test.prob", Plan);
    std::vector<bool> Fired;
    for (int I = 0; I < 64; ++I)
      Fired.push_back(S.shouldFail());
    return Fired;
  };
  std::vector<bool> First = Draw();
  std::vector<bool> Second = Draw();
  // Re-arming reseeds the per-site stream: the schedule replays exactly.
  EXPECT_EQ(First, Second);
  uint64_t Fires = fault::FaultRegistry::instance().fires("test.prob");
  EXPECT_GT(Fires, 16u);
  EXPECT_LT(Fires, 48u);

  // A different seed produces a different schedule.
  Plan.Seed = 43;
  fault::FaultRegistry::instance().arm("test.prob", Plan);
  std::vector<bool> Other;
  for (int I = 0; I < 64; ++I)
    Other.push_back(S.shouldFail());
  EXPECT_NE(First, Other);
}

TEST_F(FaultTest, ProbabilityExtremesNeverAndAlways) {
  fault::Site S("test.extreme");
  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::Probability;
  Plan.P = 0.0;
  fault::FaultRegistry::instance().arm("test.extreme", Plan);
  for (int I = 0; I < 32; ++I)
    EXPECT_FALSE(S.shouldFail());
  Plan.P = 1.0;
  fault::FaultRegistry::instance().arm("test.extreme", Plan);
  for (int I = 0; I < 32; ++I)
    EXPECT_TRUE(S.shouldFail());
}

TEST_F(FaultTest, DisarmStopsFiringAndClearsGlobalFlag) {
  fault::Site S("test.disarm");
  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::EveryKth;
  Plan.N = 1;
  fault::FaultRegistry::instance().arm("test.disarm", Plan);
  EXPECT_TRUE(S.shouldFail());
  fault::FaultRegistry::instance().disarm("test.disarm");
  EXPECT_FALSE(fault::anyArmed());
  EXPECT_FALSE(S.shouldFail());
}

//===----------------------------------------------------------------------===//
// --fault-spec parsing.
//===----------------------------------------------------------------------===//

TEST_F(FaultTest, SpecParserArmsEveryEntry) {
  ASSERT_TRUE(fault::armFromSpec(
      "test.a=nth:2,test.b=every:3,test.c=prob:0.25:7"));
  EXPECT_TRUE(fault::anyArmed());
  fault::Site A("test.a");
  EXPECT_FALSE(A.shouldFail());
  EXPECT_TRUE(A.shouldFail()); // nth:2
  fault::Site B("test.b");
  EXPECT_FALSE(B.shouldFail());
  EXPECT_FALSE(B.shouldFail());
  EXPECT_TRUE(B.shouldFail()); // every:3
}

TEST_F(FaultTest, SpecParserRejectsMalformedWithoutArming) {
  const char *Bad[] = {
      "no-equals",          "site=",          "site=bogus:1",
      "site=nth:",          "site=nth:x",     "site=nth:0",
      "site=every:0",       "site=prob:",     "site=prob:1.5",
      "site=prob:-0.1",     "site=prob:0.5:x", ",",
      "site=nth:99999999999999999999", "=nth:1",
  };
  for (const char *Spec : Bad) {
    std::string Error;
    EXPECT_FALSE(fault::armFromSpec(Spec, &Error)) << Spec;
    EXPECT_FALSE(Error.empty()) << Spec;
    // Parse-all-before-arm: a malformed spec must not leave the process
    // half-armed.
    EXPECT_FALSE(fault::anyArmed()) << Spec;
  }
}

TEST_F(FaultTest, SpecParserMixedGoodBadArmsNothing) {
  std::string Error;
  EXPECT_FALSE(fault::armFromSpec("test.ok=nth:1,test.bad=nope", &Error));
  EXPECT_FALSE(fault::anyArmed());
  fault::Site Ok("test.ok");
  EXPECT_FALSE(Ok.shouldFail());
}

TEST_F(FaultTest, EnvironmentUnsetIsSuccess) {
  // The driver environment never exports ATMEM_FAULT_SPEC; unset must be
  // a silent no-op success.
  EXPECT_TRUE(fault::armFromEnvironment());
  EXPECT_FALSE(fault::anyArmed());
}

TEST_F(FaultTest, RegisteredSitesListsCatalogue) {
  fault::Site S("test.catalogue");
  std::vector<std::string> Sites =
      fault::FaultRegistry::instance().registeredSites();
  bool Found = false;
  for (const std::string &Name : Sites)
    Found |= Name == "test.catalogue";
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Fault matrix: the real sites, one subsystem each. Each case checks the
// typed status, the cross-layer invariants after the failure, and that an
// unfaulted retry recovers.
//===----------------------------------------------------------------------===//

class MigratorFaultTest : public FaultTest {
protected:
  MigratorFaultTest()
      : M(nvmDramTestbed(1.0 / 1024)), Registry(M), Atmem(Registry),
        Mbind(Registry) {}

  DataObject &makeObject(const char *Name, uint64_t Size,
                         uint64_t ChunkBytes) {
    DataObject &Obj =
        Registry.create(Name, Size, InitialPlacement::Slow, ChunkBytes);
    for (uint64_t I = 0; I < Obj.mappedBytes(); ++I)
      Obj.data()[I] = static_cast<std::byte>((I * 131 + 7) & 0xFF);
    return Obj;
  }

  static bool patternIntact(const DataObject &Obj) {
    for (uint64_t I = 0; I < Obj.mappedBytes(); ++I)
      if (Obj.data()[I] != static_cast<std::byte>((I * 131 + 7) & 0xFF))
        return false;
    return true;
  }

  static void armOnce(const char *SiteName, uint64_t N = 1) {
    fault::FaultPlan Plan;
    Plan.Mode = fault::Trigger::Nth;
    Plan.N = N;
    fault::FaultRegistry::instance().arm(SiteName, Plan);
  }

  Machine M;
  DataObjectRegistry Registry;
  AtmemMigrator Atmem;
  MbindMigrator Mbind;
};

TEST_F(MigratorFaultTest, StagingAllocFaultRollsBackAndRecovers) {
  DataObject &Obj = makeObject("obj", 8 << 20, 1 << 20);
  uint64_t FastUsedBefore = M.allocator(TierId::Fast).usedBytes();
  armOnce("migrator.staging_alloc");

  MigrationResult Result;
  EXPECT_EQ(Atmem.migrate(Obj, {{0, 4}}, TierId::Fast, Result),
            MigrationStatus::Retryable);
  // Rolled back: nothing moved, no staging frames leaked, data intact.
  EXPECT_EQ(Result.BytesMoved, 0u);
  EXPECT_EQ(M.allocator(TierId::Fast).usedBytes(), FastUsedBefore);
  EXPECT_EQ(Obj.bytesOn(TierId::Fast), 0u);
  EXPECT_TRUE(patternIntact(Obj));
  fault::FaultRegistry::instance().disarmAll();
  expectInvariants(Registry);

  // The unfaulted retry succeeds from the rolled-back state.
  EXPECT_EQ(Atmem.migrate(Obj, {{0, 4}}, TierId::Fast, Result),
            MigrationStatus::Success);
  EXPECT_EQ(Result.BytesMoved, 4u << 20);
  EXPECT_TRUE(patternIntact(Obj));
  expectInvariants(Registry);
}

TEST_F(MigratorFaultTest, RemapFaultUnmapsStagingAndRecovers) {
  DataObject &Obj = makeObject("obj", 8 << 20, 1 << 20);
  uint64_t FastUsedBefore = M.allocator(TierId::Fast).usedBytes();
  armOnce("migrator.remap");

  MigrationResult Result;
  EXPECT_EQ(Atmem.migrate(Obj, {{0, 4}}, TierId::Fast, Result),
            MigrationStatus::Retryable);
  // The staging buffer was mapped in stage (a); the failed remap must
  // unmap it, restoring the fast tier exactly.
  EXPECT_EQ(M.allocator(TierId::Fast).usedBytes(), FastUsedBefore);
  EXPECT_EQ(Obj.bytesOn(TierId::Fast), 0u);
  EXPECT_TRUE(patternIntact(Obj));
  fault::FaultRegistry::instance().disarmAll();
  expectInvariants(Registry);

  EXPECT_EQ(Atmem.migrate(Obj, {{0, 4}}, TierId::Fast, Result),
            MigrationStatus::Success);
  EXPECT_TRUE(patternIntact(Obj));
  expectInvariants(Registry);
}

TEST_F(MigratorFaultTest, RemapFaultMidMultiRangeKeepsEarlierRanges) {
  DataObject &Obj = makeObject("obj", 8 << 20, 1 << 20);
  // Second range's remap fails; the first range stays migrated.
  armOnce("migrator.remap", 2);

  MigrationResult Result;
  EXPECT_EQ(Atmem.migrate(Obj, {{0, 2}, {4, 2}}, TierId::Fast, Result),
            MigrationStatus::Retryable);
  EXPECT_EQ(Obj.chunkTier(0), TierId::Fast);
  EXPECT_EQ(Obj.chunkTier(1), TierId::Fast);
  EXPECT_EQ(Obj.chunkTier(4), TierId::Slow);
  EXPECT_TRUE(patternIntact(Obj));
  fault::FaultRegistry::instance().disarmAll();
  expectInvariants(Registry);

  // Retrying only the leftover completes the move.
  EXPECT_EQ(Atmem.migrate(Obj, {{4, 2}}, TierId::Fast, Result),
            MigrationStatus::Success);
  EXPECT_EQ(Obj.chunkTier(4), TierId::Fast);
  expectInvariants(Registry);
}

TEST_F(MigratorFaultTest, MovePageFaultDegradesMbindWithPartialProgress) {
  DataObject &Obj = makeObject("obj", 4 << 20, 1 << 20);
  // Fail one page in the middle: a prefix has moved, so the result is
  // Degraded (partial progress), not Failed.
  armOnce("mbind.move_page", 3);

  MigrationResult Result;
  EXPECT_EQ(Mbind.migrate(Obj, {{0, 4}}, TierId::Fast, Result),
            MigrationStatus::Degraded);
  EXPECT_GT(Result.BytesMoved, 0u);
  EXPECT_LT(Result.BytesMoved, 4u << 20);
  EXPECT_TRUE(patternIntact(Obj));
  fault::FaultRegistry::instance().disarmAll();
  // A partial mbind leaves mixed chunks, so only the frame-exactness
  // level is meaningful here.
  expectInvariants(Registry, InvariantLevel::Frames);

  // Unfaulted retry of the whole request completes it.
  EXPECT_EQ(Mbind.migrate(Obj, {{0, 4}}, TierId::Fast, Result),
            MigrationStatus::Success);
  EXPECT_TRUE(patternIntact(Obj));
  expectInvariants(Registry);
}

TEST_F(MigratorFaultTest, MovePageFaultOnFirstPageIsFailed) {
  DataObject &Obj = makeObject("obj", 4 << 20, 1 << 20);
  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::EveryKth;
  Plan.N = 1; // Every page move fails: zero progress possible.
  fault::FaultRegistry::instance().arm("mbind.move_page", Plan);

  MigrationResult Result;
  EXPECT_EQ(Mbind.migrate(Obj, {{0, 4}}, TierId::Fast, Result),
            MigrationStatus::Failed);
  EXPECT_EQ(Result.BytesMoved, 0u);
  EXPECT_TRUE(patternIntact(Obj));
  fault::FaultRegistry::instance().disarmAll();
  expectInvariants(Registry);
}

TEST_F(MigratorFaultTest, AddrspaceAllocFaultFailsTryCreateCleanly) {
  armOnce("addrspace.alloc");
  uint64_t SlowUsedBefore = M.allocator(TierId::Slow).usedBytes();

  EXPECT_EQ(Registry.tryCreate("victim", 4 << 20, InitialPlacement::Slow),
            nullptr);
  // Nothing registered, nothing mapped.
  EXPECT_TRUE(Registry.liveObjects().empty());
  EXPECT_EQ(M.allocator(TierId::Slow).usedBytes(), SlowUsedBefore);
  fault::FaultRegistry::instance().disarmAll();
  expectInvariants(Registry);

  // The next attempt succeeds.
  DataObject *Obj =
      Registry.tryCreate("victim", 4 << 20, InitialPlacement::Slow);
  ASSERT_NE(Obj, nullptr);
  EXPECT_EQ(Obj->mappedBytes(), 4u << 20);
  expectInvariants(Registry);
}

/// Runs a profiled gather on a SimThreads = 4 runtime built while
/// \p Plan is armed on `threadpool.spawn`; returns its worker count and
/// iteration stats.
std::pair<uint32_t, sim::AccessStats>
replayWithSpawnFault(const fault::FaultPlan *Plan) {
  if (Plan)
    fault::FaultRegistry::instance().arm("threadpool.spawn", *Plan);
  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 256);
  Config.SimThreads = 4;
  core::Runtime Rt(Config);
  fault::FaultRegistry::instance().disarmAll();
  core::TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("gather", 1 << 18);
  Rt.profilingStart();
  Rt.beginIteration();
  for (uint64_t I = 0; I < 300000; ++I)
    (void)Arr[(I * 2654435761u) & ((1 << 18) - 1)];
  Rt.endIteration();
  Rt.profilingStop();
  return {Rt.simThreads(), Rt.iterationStats()};
}

TEST_F(FaultTest, ThreadPoolSpawnFaultDegradesToInlineExecution) {
  // Every replay-worker spawn fails: the runtime keeps the inline engine
  // and gives the same answer.
  sim::AccessStats Ref = replayWithSpawnFault(nullptr).second;
  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::EveryKth;
  Plan.N = 1;
  auto [Workers, Stats] = replayWithSpawnFault(&Plan);
  EXPECT_EQ(Workers, 1u);
  EXPECT_EQ(Stats.Accesses, Ref.Accesses);
  EXPECT_EQ(Stats.LlcHits, Ref.LlcHits);
  EXPECT_EQ(Stats.TierMisses[1], Ref.TierMisses[1]);
}

TEST_F(FaultTest, ThreadPoolPartialSpawnStillWorks) {
  // The second spawn fails: three workers split the sets, same answer.
  sim::AccessStats Ref = replayWithSpawnFault(nullptr).second;
  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::Nth;
  Plan.N = 2;
  auto [Workers, Stats] = replayWithSpawnFault(&Plan);
  EXPECT_EQ(Workers, 3u);
  EXPECT_EQ(Stats.Accesses, Ref.Accesses);
  EXPECT_EQ(Stats.LlcHits, Ref.LlcHits);
  EXPECT_EQ(Stats.TierMisses[1], Ref.TierMisses[1]);
}

TEST_F(FaultTest, IoReadFaultSurfacesAsParseError) {
  std::string Path = ::testing::TempDir() + "fault_io_read.json";
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  ASSERT_NE(Out, nullptr);
  std::fputs("{\"answer\": 42}", Out);
  std::fclose(Out);

  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::Nth;
  Plan.N = 1;
  fault::FaultRegistry::instance().arm("io.read", Plan);
  obs::JsonValue Doc;
  std::string Error;
  EXPECT_FALSE(obs::parseJsonFile(Path, Doc, &Error));
  EXPECT_NE(Error.find("read error"), std::string::npos) << Error;
  fault::FaultRegistry::instance().disarmAll();

  // Unfaulted read succeeds.
  ASSERT_TRUE(obs::parseJsonFile(Path, Doc, &Error)) << Error;
  const obs::JsonValue *Answer = Doc.findNumber("answer");
  ASSERT_NE(Answer, nullptr);
  EXPECT_EQ(Answer->NumberVal, 42.0);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Runtime-level graceful degradation: retry, skip, re-nominate.
//===----------------------------------------------------------------------===//

class RuntimeFaultTest : public FaultTest {
protected:
  static core::RuntimeConfig testConfig() {
    core::RuntimeConfig Config;
    Config.Machine = nvmDramTestbed(1.0 / 1024);
    return Config;
  }

  /// One profiled iteration hammering Hot so optimize() plans a
  /// promotion.
  template <typename ArrayT>
  static void profiledHotIteration(core::Runtime &Rt, ArrayT &Hot) {
    Rt.profilingStart();
    Rt.beginIteration();
    uint64_t State = 12345;
    for (int I = 0; I < 200000; ++I) {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      Hot[(State >> 33) & (Hot.size() - 1)] += 1;
    }
    Rt.endIteration();
    Rt.profilingStop();
  }
};

TEST_F(RuntimeFaultTest, TransientFaultRecoveredByRetry) {
  core::Runtime Rt(testConfig());
  auto Hot = Rt.allocate<uint64_t>("hot", 1 << 17);
  profiledHotIteration(Rt, Hot);

  // One transient remap failure: the bounded retry must absorb it.
  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::Nth;
  Plan.N = 1;
  fault::FaultRegistry::instance().arm("migrator.remap", Plan);
  MigrationResult Result = Rt.optimize();
  fault::FaultRegistry::instance().disarmAll();

  EXPECT_GT(Result.BytesMoved, 0u);
  EXPECT_TRUE(Rt.skippedChunks().empty());
  expectInvariants(Rt.registry());
}

TEST_F(RuntimeFaultTest, PersistentFaultSkipsThenRenominates) {
  core::RuntimeConfig Config = testConfig();
  Config.MigrationMaxRetries = 1;
  core::Runtime Rt(Config);
  auto Hot = Rt.allocate<uint64_t>("hot", 1 << 17);
  profiledHotIteration(Rt, Hot);

  // Every staging allocation fails: retries exhaust and the planned
  // chunks land in the skipped set instead of aborting the process.
  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::EveryKth;
  Plan.N = 1;
  fault::FaultRegistry::instance().arm("migrator.staging_alloc", Plan);
  MigrationResult Faulted = Rt.optimize();
  fault::FaultRegistry::instance().disarmAll();

  EXPECT_EQ(Faulted.BytesMoved, 0u);
  ASSERT_FALSE(Rt.skippedChunks().empty());
  for (const core::SkippedChunk &Skip : Rt.skippedChunks())
    EXPECT_EQ(Skip.Target, TierId::Fast);
  expectInvariants(Rt.registry());

  // The next epoch re-nominates the skipped chunks and, unfaulted,
  // places them.
  MigrationResult Recovered = Rt.optimize();
  EXPECT_GT(Recovered.BytesMoved, 0u);
  EXPECT_TRUE(Rt.skippedChunks().empty());
  EXPECT_GT(Rt.registry().object(Hot.objectId()).bytesOn(TierId::Fast), 0u);
  expectInvariants(Rt.registry());
}

TEST_F(RuntimeFaultTest, UnfaultedOptimizeUnaffectedByFrameworkPresence) {
  // The whole pipeline with nothing armed: byte-identical behaviour is
  // asserted end-to-end by the fig05 gate; here we sanity-check the fast
  // path still migrates and leaves no skips.
  core::Runtime Rt(testConfig());
  auto Hot = Rt.allocate<uint64_t>("hot", 1 << 17);
  profiledHotIteration(Rt, Hot);
  MigrationResult Result = Rt.optimize();
  EXPECT_GT(Result.BytesMoved, 0u);
  EXPECT_TRUE(Rt.skippedChunks().empty());
  expectInvariants(Rt.registry());
}

} // namespace
