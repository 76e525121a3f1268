//===----------------------------------------------------------------------===//
// Property-based tests: invariants checked over randomized inputs using
// parameterized gtest sweeps.
//===----------------------------------------------------------------------===//

#include "analyzer/GlobalPromoter.h"
#include "analyzer/MaryTree.h"
#include "analyzer/PlacementPlan.h"
#include "mem/AtmemMigrator.h"
#include "mem/MbindMigrator.h"
#include "sim/Machine.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

using namespace atmem;
using namespace atmem::analyzer;
using namespace atmem::mem;
using namespace atmem::sim;

namespace {

//===----------------------------------------------------------------------===//
// M-ary tree invariants over random leaf vectors.
//===----------------------------------------------------------------------===//

struct TreeCase {
  uint64_t Seed;
  uint32_t Arity;
  uint32_t Leaves;
};

class TreeInvariantTest : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeInvariantTest, StructureInvariantsHold) {
  const TreeCase &Case = GetParam();
  Xoshiro256 Rng(Case.Seed);
  std::vector<uint8_t> Leaves(Case.Leaves);
  for (auto &L : Leaves)
    L = Rng.nextBounded(2) ? 1 : 0;
  MaryTree Tree(Leaves, Case.Arity);

  ASSERT_EQ(Tree.numLeaves(), Case.Leaves);
  uint32_t TotalCritical = 0;
  for (uint8_t L : Leaves)
    TotalCritical += L;

  const MaryTree::Node &Root = Tree.node(Tree.root());
  EXPECT_EQ(Root.Value, TotalCritical);
  EXPECT_EQ(Root.LeafBegin, 0u);
  EXPECT_EQ(Root.LeafEnd, Case.Leaves);

  for (uint32_t Id = 0; Id < Tree.numNodes(); ++Id) {
    const MaryTree::Node &Node = Tree.node(Id);
    // Tree ratio in [0, 1].
    double TR = Tree.treeRatio(Id);
    ASSERT_GE(TR, 0.0);
    ASSERT_LE(TR, 1.0);
    if (Node.isLeaf())
      continue;
    // Children partition the node's leaf range.
    ASSERT_GE(Node.NumChildren, 1u);
    ASSERT_LE(Node.NumChildren, Case.Arity);
    uint32_t Cursor = Node.LeafBegin;
    uint32_t ValueSum = 0;
    for (uint32_t C = 0; C < Node.NumChildren; ++C) {
      const MaryTree::Node &Child = Tree.node(Node.FirstChild + C);
      ASSERT_EQ(Child.LeafBegin, Cursor);
      Cursor = Child.LeafEnd;
      ValueSum += Child.Value;
      ASSERT_EQ(Child.Parent, Id);
    }
    ASSERT_EQ(Cursor, Node.LeafEnd);
    ASSERT_EQ(ValueSum, Node.Value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrees, TreeInvariantTest,
    ::testing::Values(TreeCase{1, 2, 1}, TreeCase{2, 2, 17},
                      TreeCase{3, 3, 100}, TreeCase{4, 4, 64},
                      TreeCase{5, 4, 1000}, TreeCase{6, 8, 511},
                      TreeCase{7, 8, 4096}, TreeCase{8, 16, 77},
                      TreeCase{9, 5, 625}, TreeCase{10, 7, 342}),
    [](const auto &Info) {
      return "seed" + std::to_string(Info.param.Seed) + "_m" +
             std::to_string(Info.param.Arity) + "_n" +
             std::to_string(Info.param.Leaves);
    });

//===----------------------------------------------------------------------===//
// Promotion invariants: promotion only adds, never removes; promoted
// chunks lie inside subtrees containing at least one critical leaf.
//===----------------------------------------------------------------------===//

struct PromoteCase {
  uint64_t Seed;
  uint32_t Arity;
  uint32_t Chunks;
  double Threshold;
  double Density; // Probability a chunk is critical.
};

class PromotionInvariantTest
    : public ::testing::TestWithParam<PromoteCase> {};

TEST_P(PromotionInvariantTest, PromotionIsMonotoneAndAnchored) {
  const PromoteCase &Case = GetParam();
  Xoshiro256 Rng(Case.Seed);
  LocalSelection Sel;
  Sel.Critical.resize(Case.Chunks);
  Sel.Priority.resize(Case.Chunks, 0.0);
  for (uint32_t I = 0; I < Case.Chunks; ++I) {
    bool Crit = Rng.nextDouble() < Case.Density;
    Sel.Critical[I] = Crit ? 1 : 0;
    Sel.Priority[I] = Crit ? 1.0 + Rng.nextDouble() : 0.0;
    if (Crit)
      ++Sel.CriticalCount;
  }

  PromoterConfig Config;
  Config.Arity = Case.Arity;
  GlobalPromoter Promoter(Config);
  PromotionResult Result = Promoter.promote(Sel, Case.Threshold);

  ASSERT_EQ(Result.Promoted.size(), Case.Chunks);
  uint32_t PromotedCount = 0;
  for (uint32_t I = 0; I < Case.Chunks; ++I) {
    if (!Result.Promoted[I])
      continue;
    ++PromotedCount;
    // A critical chunk is never re-promoted.
    ASSERT_FALSE(Sel.Critical[I]) << "chunk " << I;
  }
  ASSERT_EQ(PromotedCount, Result.PromotedCount);
  if (Sel.CriticalCount == 0) {
    ASSERT_EQ(Result.PromotedCount, 0u);
  }

  // Lower thresholds promote at least as much.
  PromotionResult Looser = Promoter.promote(Sel, Case.Threshold / 2.0);
  ASSERT_GE(Looser.PromotedCount, Result.PromotedCount);
}

INSTANTIATE_TEST_SUITE_P(
    RandomPromotions, PromotionInvariantTest,
    ::testing::Values(PromoteCase{11, 2, 64, 0.5, 0.2},
                      PromoteCase{12, 4, 256, 0.25, 0.1},
                      PromoteCase{13, 8, 512, 0.125, 0.05},
                      PromoteCase{14, 8, 1000, 0.4, 0.5},
                      PromoteCase{15, 4, 128, 0.9, 0.8},
                      PromoteCase{16, 2, 31, 0.6, 0.0},
                      PromoteCase{17, 16, 2048, 0.2, 0.02}),
    [](const auto &Info) {
      return "case" + std::to_string(Info.param.Seed);
    });

//===----------------------------------------------------------------------===//
// Plan invariants over random classifications.
//===----------------------------------------------------------------------===//

class PlanInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanInvariantTest, RangesCoverSelectionExactlyWithinBudget) {
  Xoshiro256 Rng(GetParam());
  auto Chunks = static_cast<uint32_t>(8 + Rng.nextBounded(120));
  ObjectClassification Class;
  Class.Object = 0;
  Class.ChunkBytes = 4096;
  Class.MappedBytes = Chunks * 4096;
  Class.Local.Critical.resize(Chunks);
  Class.Local.Priority.resize(Chunks, 0.0);
  Class.Promotion.Promoted.resize(Chunks, 0);
  for (uint32_t I = 0; I < Chunks; ++I) {
    Class.Local.Critical[I] = Rng.nextDouble() < 0.3 ? 1 : 0;
    Class.Promotion.Promoted[I] =
        (!Class.Local.Critical[I] && Rng.nextDouble() < 0.15) ? 1 : 0;
    Class.Local.Priority[I] = Class.Local.Critical[I] ? Rng.nextDouble() : 0;
  }

  PlacementPlan Plan = PlanBuilder::build({Class});
  // Every selected chunk is covered exactly once; nothing else is.
  std::vector<int> Covered(Chunks, 0);
  for (const ObjectPlan &Obj : Plan.Objects)
    for (const ChunkRange &Range : Obj.Ranges)
      for (uint32_t C = Range.FirstChunk;
           C < Range.FirstChunk + Range.NumChunks; ++C)
        ++Covered[C];
  for (uint32_t C = 0; C < Chunks; ++C)
    ASSERT_EQ(Covered[C], Class.isSelected(C) ? 1 : 0) << "chunk " << C;

  // Ranges are maximal: no two adjacent ranges.
  for (const ObjectPlan &Obj : Plan.Objects)
    for (size_t R = 0; R + 1 < Obj.Ranges.size(); ++R)
      ASSERT_LT(Obj.Ranges[R].FirstChunk + Obj.Ranges[R].NumChunks,
                Obj.Ranges[R + 1].FirstChunk);

  // Budgeted plans never exceed the budget and shrink monotonically.
  uint64_t Budget = Plan.TotalBytes / 2;
  PlacementPlan Trimmed = PlanBuilder::build({Class}, Budget);
  ASSERT_LE(Trimmed.TotalBytes, Budget);
}

INSTANTIATE_TEST_SUITE_P(RandomPlans, PlanInvariantTest,
                         ::testing::Range<uint64_t>(100, 116));

//===----------------------------------------------------------------------===//
// Migration integrity over random plans: bytes survive, page table and
// chunk metadata agree, tier occupancy balances.
//===----------------------------------------------------------------------===//

struct MigrationCase {
  uint64_t Seed;
  bool UseMbind;
};

class MigrationInvariantTest
    : public ::testing::TestWithParam<MigrationCase> {};

TEST_P(MigrationInvariantTest, RandomRangesPreserveEverything) {
  const MigrationCase &Case = GetParam();
  Xoshiro256 Rng(Case.Seed);
  Machine M(nvmDramTestbed(1.0 / 1024));
  DataObjectRegistry Registry(M);
  AtmemMigrator Atmem(Registry);
  MbindMigrator Mbind(Registry);
  Migrator &Mig = Case.UseMbind ? static_cast<Migrator &>(Mbind)
                                : static_cast<Migrator &>(Atmem);

  uint64_t Size = (1 + Rng.nextBounded(24)) << 20;
  uint64_t ChunkBytes = 4096ull << Rng.nextBounded(8);
  DataObject &Obj =
      Registry.create("obj", Size, InitialPlacement::Slow, ChunkBytes);
  for (uint64_t I = 0; I < Obj.mappedBytes(); ++I)
    Obj.data()[I] = static_cast<std::byte>((I ^ Case.Seed) & 0xFF);

  // Random disjoint ascending ranges.
  std::vector<ChunkRange> Ranges;
  uint32_t Cursor = 0;
  while (Cursor < Obj.numChunks()) {
    uint32_t Skip = static_cast<uint32_t>(Rng.nextBounded(4));
    if (Cursor + Skip >= Obj.numChunks())
      break;
    Cursor += Skip;
    auto Len = static_cast<uint32_t>(1 + Rng.nextBounded(4));
    Len = std::min(Len, Obj.numChunks() - Cursor);
    Ranges.push_back({Cursor, Len});
    Cursor += Len;
  }
  if (Ranges.empty())
    Ranges.push_back({0, 1});

  MigrationResult Result;
  ASSERT_EQ(Mig.migrate(Obj, Ranges, TierId::Fast, Result), MigrationStatus::Success);

  // Data intact.
  for (uint64_t I = 0; I < Obj.mappedBytes(); ++I)
    ASSERT_EQ(Obj.data()[I],
              static_cast<std::byte>((I ^ Case.Seed) & 0xFF))
        << "byte " << I;

  // Chunk metadata agrees with the page table for every chunk.
  for (uint32_t C = 0; C < Obj.numChunks(); ++C) {
    auto [Begin, End] = Obj.rangeBytes({C, 1});
    for (uint64_t Off = Begin; Off < End; Off += SmallPageBytes)
      ASSERT_EQ(M.pageTable().tierOf(Obj.va() + Off), Obj.chunkTier(C))
          << "chunk " << C;
  }

  // Occupancy balances: fast bytes on the machine equal the object's
  // fast bytes (no leaked staging frames).
  EXPECT_EQ(M.allocator(TierId::Fast).usedBytes(),
            Obj.bytesOn(TierId::Fast));
  EXPECT_EQ(M.allocator(TierId::Slow).usedBytes(),
            Obj.bytesOn(TierId::Slow));
}

INSTANTIATE_TEST_SUITE_P(
    RandomMigrations, MigrationInvariantTest,
    ::testing::Values(MigrationCase{21, false}, MigrationCase{22, false},
                      MigrationCase{23, false}, MigrationCase{24, false},
                      MigrationCase{25, true}, MigrationCase{26, true},
                      MigrationCase{27, true}, MigrationCase{28, true},
                      MigrationCase{29, false}, MigrationCase{30, true}),
    [](const auto &Info) {
      return std::string(Info.param.UseMbind ? "mbind" : "atmem") + "_seed" +
             std::to_string(Info.param.Seed);
    });

//===----------------------------------------------------------------------===//
// Page-table random-operation invariant: mapped bytes always equal the
// allocators' used bytes.
//===----------------------------------------------------------------------===//

class PageTableFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageTableFuzzTest, OccupancyAlwaysBalances) {
  Xoshiro256 Rng(GetParam());
  FrameAllocator Fast(TierId::Fast, 64ull << 20);
  FrameAllocator Slow(TierId::Slow, 64ull << 20);
  PageTable PT(Fast, Slow);

  constexpr uint64_t Base = 0x100000000000ull;
  constexpr uint64_t RegionBytes = 8ull << 20;
  ASSERT_TRUE(PT.mapRegion(Base, RegionBytes, TierId::Slow, true));

  for (int Op = 0; Op < 200; ++Op) {
    uint64_t Choice = Rng.nextBounded(3);
    if (Choice == 0) {
      uint64_t Page = Rng.nextBounded(RegionBytes / SmallPageBytes);
      TierId Target = Rng.nextBounded(2) ? TierId::Fast : TierId::Slow;
      PT.movePage(Base + Page * SmallPageBytes, Target);
    } else if (Choice == 1) {
      uint64_t StartPage = Rng.nextBounded(RegionBytes / SmallPageBytes / 2);
      uint64_t Pages = 1 + Rng.nextBounded(256);
      uint64_t Va = Base + StartPage * SmallPageBytes;
      uint64_t Len = std::min(Pages * SmallPageBytes,
                              Base + RegionBytes - Va);
      PT.remapRange(Va, Len, TierId::Fast, Rng.nextBounded(2) != 0);
    } else {
      uint64_t StartPage = Rng.nextBounded(RegionBytes / SmallPageBytes / 2);
      uint64_t Va = Base + StartPage * SmallPageBytes;
      PT.remapRange(Va, SmallPageBytes, TierId::Slow, false);
    }
    ASSERT_EQ(PT.mappedBytesOn(TierId::Fast) + PT.mappedBytesOn(TierId::Slow),
              RegionBytes);
    ASSERT_EQ(PT.mappedBytesOn(TierId::Fast), Fast.usedBytes());
    ASSERT_EQ(PT.mappedBytesOn(TierId::Slow), Slow.usedBytes());
  }

  // Every page still translates.
  for (uint64_t Off = 0; Off < RegionBytes; Off += SmallPageBytes) {
    Translation T;
    ASSERT_TRUE(PT.translate(Base + Off, T));
  }
  PT.unmapRegion(Base, RegionBytes);
  EXPECT_EQ(Fast.usedBytes(), 0u);
  EXPECT_EQ(Slow.usedBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, PageTableFuzzTest,
                         ::testing::Range<uint64_t>(1000, 1012));

} // namespace
