//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Google-benchmark microbenchmarks for the framework's components: the
/// analyzer stages (selection, tree construction, promotion), the cache
/// and TLB models, the migrators, and the graph generators. These measure
/// the *host* cost of running the framework itself, complementing the
/// simulated-time figure benchmarks.
///
//===----------------------------------------------------------------------===//

#include "analyzer/GlobalPromoter.h"
#include "analyzer/LocalSelector.h"
#include "analyzer/MaryTree.h"
#include "mem/AtmemMigrator.h"
#include "mem/MbindMigrator.h"
#include "graph/Generators.h"
#include "sim/Machine.h"
#include "support/Prng.h"

#include <benchmark/benchmark.h>

using namespace atmem;

namespace {

std::vector<double> randomMisses(size_t N, uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  std::vector<double> Misses(N);
  for (double &M : Misses)
    M = Rng.nextDouble() < 0.2 ? 1000.0 * Rng.nextDouble() : 0.0;
  return Misses;
}

std::vector<uint8_t> randomFlags(size_t N, uint64_t Seed, double Density) {
  Xoshiro256 Rng(Seed);
  std::vector<uint8_t> Flags(N);
  for (auto &F : Flags)
    F = Rng.nextDouble() < Density ? 1 : 0;
  return Flags;
}

void BM_LocalSelector(benchmark::State &State) {
  auto Misses = randomMisses(State.range(0), 42);
  analyzer::LocalSelector Selector;
  for (auto _ : State) {
    auto Sel = Selector.select(Misses, 65536, 64);
    benchmark::DoNotOptimize(Sel.CriticalCount);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_LocalSelector)->Range(1 << 8, 1 << 16);

void BM_MaryTreeBuild(benchmark::State &State) {
  auto Flags = randomFlags(State.range(0), 7, 0.15);
  for (auto _ : State) {
    analyzer::MaryTree Tree(Flags, 8);
    benchmark::DoNotOptimize(Tree.numNodes());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_MaryTreeBuild)->Range(1 << 8, 1 << 18);

void BM_TreePromotion(benchmark::State &State) {
  analyzer::LocalSelection Sel;
  Sel.Critical = randomFlags(State.range(0), 9, 0.15);
  Sel.Priority.assign(Sel.Critical.size(), 0.0);
  for (size_t I = 0; I < Sel.Critical.size(); ++I)
    if (Sel.Critical[I]) {
      Sel.Priority[I] = 1.0;
      ++Sel.CriticalCount;
    }
  analyzer::GlobalPromoter Promoter;
  for (auto _ : State) {
    auto Result = Promoter.promote(Sel, 0.25);
    benchmark::DoNotOptimize(Result.PromotedCount);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_TreePromotion)->Range(1 << 8, 1 << 18);

void BM_CacheSimAccess(benchmark::State &State) {
  sim::CacheConfig Config;
  Config.SizeBytes = 1 << 20;
  sim::CacheSim Cache(Config);
  Xoshiro256 Rng(3);
  std::vector<uint64_t> Addrs(4096);
  for (auto &A : Addrs)
    A = Rng.nextBounded(64ull << 20);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Cache.access(Addrs[I++ & 4095]));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheSimAccess);

void BM_TlbAccess(benchmark::State &State) {
  sim::TlbConfig Config;
  sim::Tlb Tlb(Config);
  Xoshiro256 Rng(4);
  std::vector<uint64_t> Addrs(4096);
  for (auto &A : Addrs)
    A = Rng.nextBounded(1ull << 30);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        Tlb.access(Addrs[I++ & 4095], sim::SmallPageBytes));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TlbAccess);

void BM_AtmemMigration(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    sim::Machine M(sim::nvmDramTestbed(1.0 / 256));
    mem::DataObjectRegistry Registry(M);
    mem::AtmemMigrator Migrator(Registry);
    mem::DataObject &Obj =
        Registry.create("o", State.range(0), mem::InitialPlacement::Slow);
    State.ResumeTiming();
    mem::MigrationResult Result;
    Migrator.migrate(Obj, {{0, Obj.numChunks()}}, sim::TierId::Fast,
                     Result);
    benchmark::DoNotOptimize(Result.BytesMoved);
  }
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_AtmemMigration)->Range(1 << 20, 1 << 24);

void BM_MbindMigration(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    sim::Machine M(sim::nvmDramTestbed(1.0 / 256));
    mem::DataObjectRegistry Registry(M);
    mem::MbindMigrator Migrator(Registry);
    mem::DataObject &Obj =
        Registry.create("o", State.range(0), mem::InitialPlacement::Slow);
    State.ResumeTiming();
    mem::MigrationResult Result;
    Migrator.migrate(Obj, {{0, Obj.numChunks()}}, sim::TierId::Fast,
                     Result);
    benchmark::DoNotOptimize(Result.BytesMoved);
  }
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_MbindMigration)->Range(1 << 20, 1 << 24);

void BM_RmatGeneration(benchmark::State &State) {
  for (auto _ : State) {
    graph::RmatParams Params;
    Params.Scale = static_cast<uint32_t>(State.range(0));
    Params.EdgeFactor = 8;
    auto G = graph::generateRmat(Params);
    benchmark::DoNotOptimize(G.numEdges());
  }
}
BENCHMARK(BM_RmatGeneration)->DenseRange(10, 16, 2);

void BM_PowerLawGeneration(benchmark::State &State) {
  for (auto _ : State) {
    graph::PowerLawParams Params;
    Params.NumVertices = static_cast<uint32_t>(State.range(0));
    Params.AverageDegree = 8;
    auto G = graph::generatePowerLaw(Params);
    benchmark::DoNotOptimize(G.numEdges());
  }
}
BENCHMARK(BM_PowerLawGeneration)->Range(1 << 10, 1 << 16);

} // namespace

BENCHMARK_MAIN();
