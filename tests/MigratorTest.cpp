//===----------------------------------------------------------------------===//
// Unit tests for the two migration mechanisms: ATMem's multi-stage
// migrator and the mbind system-service model.
//===----------------------------------------------------------------------===//

#include "mem/AtmemMigrator.h"
#include "mem/MbindMigrator.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace atmem;
using namespace atmem::mem;
using namespace atmem::sim;

namespace {

class MigratorTest : public ::testing::Test {
protected:
  MigratorTest()
      : M(nvmDramTestbed(1.0 / 1024)), Registry(M), Atmem(Registry),
        Mbind(Registry) {}

  /// Creates an object on the slow tier and fills it with a recognizable
  /// pattern.
  DataObject &makeObject(uint64_t Size, uint64_t ChunkBytes) {
    DataObject &Obj =
        Registry.create("obj", Size, InitialPlacement::Slow, ChunkBytes);
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

  Machine M;
  DataObjectRegistry Registry;
  AtmemMigrator Atmem;
  MbindMigrator Mbind;
};

TEST_F(MigratorTest, AtmemPreservesData) {
  DataObject &Obj = makeObject(8 << 20, 1 << 20);
  MigrationResult Result;
  ASSERT_EQ(Atmem.migrate(Obj, {{1, 3}}, TierId::Fast, Result), MigrationStatus::Success);
  EXPECT_TRUE(patternIntact(Obj));
}

TEST_F(MigratorTest, AtmemMovesMappingAndChunkTiers) {
  DataObject &Obj = makeObject(8 << 20, 1 << 20);
  MigrationResult Result;
  ASSERT_EQ(Atmem.migrate(Obj, {{2, 2}}, TierId::Fast, Result), MigrationStatus::Success);
  auto [Begin, End] = Obj.rangeBytes({2, 2});
  for (uint64_t Off = Begin; Off < End; Off += SmallPageBytes)
    ASSERT_EQ(M.pageTable().tierOf(Obj.va() + Off), TierId::Fast);
  // Outside the range stays slow.
  EXPECT_EQ(M.pageTable().tierOf(Obj.va()), TierId::Slow);
  EXPECT_EQ(Obj.chunkTier(2), TierId::Fast);
  EXPECT_EQ(Obj.chunkTier(3), TierId::Fast);
  EXPECT_EQ(Obj.chunkTier(0), TierId::Slow);
  EXPECT_EQ(Result.BytesMoved, 2u << 20);
}

TEST_F(MigratorTest, AtmemReleasesStagingAfterMigration) {
  DataObject &Obj = makeObject(4 << 20, 1 << 20);
  uint64_t FastUsedBefore = M.allocator(TierId::Fast).usedBytes();
  MigrationResult Result;
  ASSERT_EQ(Atmem.migrate(Obj, {{0, 4}}, TierId::Fast, Result), MigrationStatus::Success);
  // Only the migrated payload remains on the fast tier (no staging leak).
  EXPECT_EQ(M.allocator(TierId::Fast).usedBytes(),
            FastUsedBefore + Obj.mappedBytes());
}

TEST_F(MigratorTest, AtmemFormsHugePagesOnTarget) {
  DataObject &Obj = makeObject(4 << 20, 1 << 20);
  uint64_t HugeBefore = M.pageTable().hugePageCount();
  MigrationResult Result;
  ASSERT_EQ(Atmem.migrate(Obj, {{0, 4}}, TierId::Fast, Result), MigrationStatus::Success);
  // The object's region was huge-mapped on the slow tier and stays huge
  // on the fast tier; PTE count stays tiny.
  EXPECT_EQ(M.pageTable().hugePageCount(), HugeBefore);
  EXPECT_EQ(Result.PtesTouched, (4ull << 20) / HugePageBytes);
}

TEST_F(MigratorTest, AtmemRefusesWithoutCapacity) {
  // Fast tier at this scale: 96 GiB / 1024 = 96 MiB. Ask for more than
  // half (staging + payload need 2x).
  DataObject &Obj = makeObject(80 << 20, 8 << 20);
  MigrationResult Result;
  EXPECT_EQ(Atmem.migrate(Obj, {{0, Obj.numChunks()}}, TierId::Fast,
                             Result), MigrationStatus::Degraded);
  // Untouched on refusal.
  EXPECT_EQ(Obj.bytesOn(TierId::Fast), 0u);
  EXPECT_EQ(Result.BytesMoved, 0u);
  EXPECT_TRUE(patternIntact(Obj));
}

TEST_F(MigratorTest, AtmemMultipleRangesCounted) {
  DataObject &Obj = makeObject(8 << 20, 1 << 20);
  MigrationResult Result;
  ASSERT_EQ(
      Atmem.migrate(Obj, {{0, 1}, {3, 2}, {7, 1}}, TierId::Fast, Result), MigrationStatus::Success);
  EXPECT_EQ(Result.Ranges, 3u);
  EXPECT_EQ(Result.BytesMoved, 4u << 20);
  EXPECT_TRUE(patternIntact(Obj));
}

TEST_F(MigratorTest, AtmemSimTimePositiveAndScalesWithBytes) {
  DataObject &Obj = makeObject(16 << 20, 1 << 20);
  MigrationResult Small, Large;
  ASSERT_EQ(Atmem.migrate(Obj, {{0, 1}}, TierId::Fast, Small), MigrationStatus::Success);
  ASSERT_EQ(Atmem.migrate(Obj, {{1, 8}}, TierId::Fast, Large), MigrationStatus::Success);
  EXPECT_GT(Small.SimSeconds, 0.0);
  EXPECT_GT(Large.SimSeconds, Small.SimSeconds);
}

TEST_F(MigratorTest, MbindMovesPagesAndSplitsHugePages) {
  DataObject &Obj = makeObject(4 << 20, 1 << 20);
  MigrationResult Result;
  ASSERT_EQ(Mbind.migrate(Obj, {{0, 2}}, TierId::Fast, Result), MigrationStatus::Success);
  EXPECT_EQ(Result.BytesMoved, 2u << 20);
  EXPECT_EQ(Result.PtesTouched, (2u << 20) / SmallPageBytes);
  EXPECT_EQ(Result.HugePagesSplit, 1u); // One 2 MiB page covered chunks 0-1.
  EXPECT_EQ(Obj.chunkTier(0), TierId::Fast);
  EXPECT_EQ(M.pageTable().tierOf(Obj.va()), TierId::Fast);
}

TEST_F(MigratorTest, MbindLeavesFragmentedMapping) {
  DataObject &Obj = makeObject(4 << 20, 1 << 20);
  uint64_t HugeBefore = M.pageTable().hugePageCount();
  MigrationResult Result;
  ASSERT_EQ(Mbind.migrate(Obj, {{0, 4}}, TierId::Fast, Result), MigrationStatus::Success);
  // All the object's huge pages are gone; ATMem would have kept them.
  EXPECT_EQ(M.pageTable().hugePageCount(),
            HugeBefore - (4ull << 20) / HugePageBytes);
  EXPECT_EQ(Result.HugePagesSplit, 2u);
}

TEST_F(MigratorTest, MbindDataUntouched) {
  DataObject &Obj = makeObject(4 << 20, 1 << 20);
  MigrationResult Result;
  ASSERT_EQ(Mbind.migrate(Obj, {{0, 4}}, TierId::Fast, Result), MigrationStatus::Success);
  EXPECT_TRUE(patternIntact(Obj));
}

TEST_F(MigratorTest, MbindPartialOnCapacityExhaustion) {
  // Make the fast tier too small for the request.
  Machine Tiny(nvmDramTestbed(1.0 / 1024 / 64)); // 1.5 MiB fast tier.
  DataObjectRegistry Reg(Tiny);
  MbindMigrator Migrator(Reg);
  DataObject &Obj =
      Reg.create("obj", 4 << 20, InitialPlacement::Slow, 1 << 20);
  MigrationResult Result;
  EXPECT_EQ(Migrator.migrate(Obj, {{0, 4}}, TierId::Fast, Result), MigrationStatus::Degraded);
  // A prefix moved before the failure.
  EXPECT_GT(Result.BytesMoved, 0u);
  EXPECT_LT(Result.BytesMoved, 4u << 20);
}

TEST_F(MigratorTest, AtmemBeatsMbindOnTime) {
  DataObject &A = makeObject(32 << 20, 4 << 20);
  MigrationResult AtmemResult;
  ASSERT_EQ(Atmem.migrate(A, {{0, 8}}, TierId::Fast, AtmemResult), MigrationStatus::Success);

  DataObject &B =
      Registry.create("obj2", 32 << 20, InitialPlacement::Slow, 4 << 20);
  MigrationResult MbindResult;
  ASSERT_EQ(Mbind.migrate(B, {{0, 8}}, TierId::Fast, MbindResult), MigrationStatus::Success);

  EXPECT_LT(AtmemResult.SimSeconds, MbindResult.SimSeconds);
}

TEST_F(MigratorTest, MergedRangeCheaperThanFragments) {
  // The tree promotion's merging exists because launching many discrete
  // migrations costs more than one contiguous one (paper Section 4.3).
  DataObject &A = makeObject(16 << 20, 1 << 20);
  MigrationResult Merged;
  ASSERT_EQ(Atmem.migrate(A, {{0, 8}}, TierId::Fast, Merged), MigrationStatus::Success);

  DataObject &B =
      Registry.create("objB", 16 << 20, InitialPlacement::Slow, 1 << 20);
  MigrationResult Fragmented;
  ASSERT_EQ(Mbind.migrate(B, {{0, 1}}, TierId::Fast, Fragmented), MigrationStatus::Success);
  std::vector<ChunkRange> EveryOther;
  for (uint32_t C = 0; C < 8; ++C)
    EveryOther.push_back({C, 1});
  MigrationResult Fragments;
  AtmemMigrator Second(Registry);
  ASSERT_EQ(Second.migrate(B, EveryOther, TierId::Fast, Fragments), MigrationStatus::Success);
  EXPECT_GT(Fragments.SimSeconds, Merged.SimSeconds);
}

TEST_F(MigratorTest, ResultAccumulatesAcrossCalls) {
  DataObject &Obj = makeObject(8 << 20, 1 << 20);
  MigrationResult Result;
  ASSERT_EQ(Atmem.migrate(Obj, {{0, 1}}, TierId::Fast, Result), MigrationStatus::Success);
  uint64_t After1 = Result.BytesMoved;
  ASSERT_EQ(Atmem.migrate(Obj, {{1, 1}}, TierId::Fast, Result), MigrationStatus::Success);
  EXPECT_EQ(Result.BytesMoved, 2 * After1);
  EXPECT_EQ(Result.Ranges, 2u);
}

} // namespace
