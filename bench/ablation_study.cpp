//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablations over the design choices DESIGN.md calls out (Section 6 of the
/// design document):
///
///  1. tree promotion on/off — sampled selection alone fragments the plan
///     and misses hot chunks the sampler skipped;
///  2. coarse-grained (whole-object) chunks — the Tahoe-style prior
///     approach the paper improves on, which wastes fast memory under
///     capacity pressure;
///  3. tree arity m — the sensitivity the paper discusses in 4.3.1;
///  4. fixed vs adaptive chunk granularity.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "apps/Kernel.h"
#include "mem/AtmemMigrator.h"
#include "profiler/OfflineProfiler.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace atmem;
using namespace atmem::bench;
using baseline::Policy;

int main(int Argc, const char **Argv) {
  OptionParser Parser("ablation_study: promotion / granularity / arity "
                      "ablations of the ATMem design");
  addCommonOptions(Parser);
  Parser.addString("kernel", "bfs", "kernel to ablate with");
  if (!Parser.parse(Argc, Argv))
    return 1;
  BenchOptions Options;
  if (!readCommonOptions(Parser, Options))
    return 1;
  std::string Kernel = Parser.getString("kernel");

  DatasetCache Cache(Options.ScaleDivisor);

  printBanner("Ablation 1+2: tree promotion and chunk granularity (" +
                  Kernel + ", both testbeds)",
              Options);
  for (bool Mcdram : {false, true}) {
    sim::MachineConfig Machine =
        Mcdram ? sim::mcdramDramTestbed(1.0 / Options.ScaleDivisor)
               : sim::nvmDramTestbed(1.0 / Options.ScaleDivisor);
    std::printf("\n[%s]\n", Machine.Name.c_str());
    TablePrinter Table({"dataset", "variant", "time", "data ratio",
                        "migration ranges"});
    for (const std::string &Name : Options.Datasets) {
      const graph::Dataset &Data = Cache.get(Name);
      struct Variant {
        const char *Label;
        Policy PolicyKind;
      };
      const Variant Variants[] = {
          {"ATMem (full)", Policy::Atmem},
          {"no tree promotion", Policy::AtmemSampledOnly},
          {"whole-object chunks", Policy::CoarseGrained},
      };
      for (const Variant &V : Variants) {
        auto Result = runOne(Kernel, Data, Machine, V.PolicyKind, 0.0,
                             /*MeasureTlb=*/false, Options.SimThreads);
        Table.addRow({Name, V.Label,
                      formatSeconds(Result.MeasuredIterSec),
                      formatPercent(Result.FastDataRatio),
                      std::to_string(Result.Migration.Ranges)});
      }
    }
    Table.print();
  }

  printBanner("Ablation 3: promotion-tree arity m (" + Kernel +
                  ", NVM-DRAM)",
              Options);
  {
    sim::MachineConfig Machine =
        sim::nvmDramTestbed(1.0 / Options.ScaleDivisor);
    TablePrinter Table({"dataset", "arity", "time", "data ratio"});
    for (const std::string &Name : Options.Datasets) {
      const graph::Dataset &Data = Cache.get(Name);
      for (uint32_t Arity : {2u, 4u, 8u, 16u}) {
        baseline::RunConfig Config;
        Config.KernelName = Kernel;
        Config.Graph = &Data.Graph;
        Config.Machine = Machine;
        Config.PolicyKind = Policy::Atmem;
        // Arity is an analyzer knob; thread it via the experiment's
        // machine-independent epsilon path is not possible, so run the
        // pipeline directly.
        core::RuntimeConfig RtConfig;
        RtConfig.Machine = Machine;
        RtConfig.Analyzer.Promoter.Arity = Arity;
        core::Runtime Rt(RtConfig);
        auto KernelPtr = apps::makeKernel(Kernel);
        KernelPtr->setup(Rt, Data.Graph);
        Rt.profilingStart();
        Rt.beginIteration();
        KernelPtr->runIteration();
        Rt.endIteration();
        Rt.profilingStop();
        Rt.optimize();
        Rt.beginIteration();
        KernelPtr->runIteration();
        double Time = Rt.endIteration();
        Table.addRow({Name, std::to_string(Arity), formatSeconds(Time),
                      formatPercent(Rt.fastDataRatio())});
      }
    }
    Table.print();
  }

  printBanner("Ablation 4: chunk granularity (fixed sizes vs adaptive, " +
                  Kernel + ", NVM-DRAM)",
              Options);
  {
    sim::MachineConfig Machine =
        sim::nvmDramTestbed(1.0 / Options.ScaleDivisor);
    TablePrinter Table({"dataset", "chunk size", "time", "data ratio",
                        "total chunks"});
    for (const std::string &Name : Options.Datasets) {
      const graph::Dataset &Data = Cache.get(Name);
      for (uint64_t Chunk : {uint64_t(0), uint64_t(4096),
                             uint64_t(64) << 10, uint64_t(1) << 20}) {
        core::RuntimeConfig RtConfig;
        RtConfig.Machine = Machine;
        RtConfig.ChunkBytesOverride = Chunk;
        core::Runtime Rt(RtConfig);
        auto KernelPtr = apps::makeKernel(Kernel);
        KernelPtr->setup(Rt, Data.Graph);
        Rt.profilingStart();
        Rt.beginIteration();
        KernelPtr->runIteration();
        Rt.endIteration();
        Rt.profilingStop();
        Rt.optimize();
        Rt.beginIteration();
        KernelPtr->runIteration();
        double Time = Rt.endIteration();
        uint64_t TotalChunks = 0;
        for (const auto *Obj : Rt.registry().liveObjects())
          TotalChunks += Obj->numChunks();
        Table.addRow({Name, Chunk == 0 ? "adaptive" : formatBytes(Chunk),
                      formatSeconds(Time),
                      formatPercent(Rt.fastDataRatio()),
                      std::to_string(TotalChunks)});
      }
    }
    Table.print();
  }
  printBanner("Ablation 5: sampled vs full-trace (offline) profiling (" +
                  Kernel + ", NVM-DRAM)",
              Options);
  {
    // Records the complete miss trace of the profiled iteration, builds
    // an exact offline profile from it (the Pin-style comparators of the
    // paper's related work), and compares the resulting placements: the
    // Jaccard overlap of the selected chunk sets and the measured
    // iteration times. High overlap = the sampling loss the tree
    // promotion exists to patch is mostly recovered (Objective II).
    sim::MachineConfig Machine =
        sim::nvmDramTestbed(1.0 / Options.ScaleDivisor);
    TablePrinter Table({"dataset", "sampled time", "offline time",
                        "sampled ratio", "offline ratio",
                        "selection overlap"});
    for (const std::string &Name : Options.Datasets) {
      const graph::Dataset &Data = Cache.get(Name);
      core::RuntimeConfig RtConfig;
      RtConfig.Machine = Machine;
      core::Runtime Rt(RtConfig);
      auto KernelPtr = apps::makeKernel(Kernel);
      KernelPtr->setup(Rt, Data.Graph);

      std::string TracePath = "/tmp/atmem_ablation5_trace.bin";
      prof::TraceWriter Writer;
      if (!Writer.open(TracePath))
        continue;
      Rt.setMissTrace(&Writer);
      Rt.profilingStart();
      Rt.beginIteration();
      KernelPtr->runIteration();
      Rt.endIteration();
      Rt.profilingStop();
      Rt.setMissTrace(nullptr);
      Writer.finish();

      prof::OfflineProfiler Offline(Rt.registry());
      Offline.loadTrace(TracePath);
      std::remove(TracePath.c_str());

      analyzer::Analyzer Anal;
      auto Sampled = Anal.classify(Rt.registry(), Rt.profiler());
      auto Exact = Anal.classify(Rt.registry(), Offline);
      uint64_t Inter = 0, Uni = 0;
      for (size_t O = 0; O < Sampled.size(); ++O)
        for (uint32_t C = 0; C < Sampled[O].numChunks(); ++C) {
          bool S = Sampled[O].isSelected(C);
          bool E = Exact[O].isSelected(C);
          Inter += (S && E) ? 1 : 0;
          Uni += (S || E) ? 1 : 0;
        }
      double Jaccard = Uni == 0 ? 1.0
                                : static_cast<double>(Inter) /
                                      static_cast<double>(Uni);

      // Apply each placement on a fresh runtime and measure.
      auto MeasureWith = [&](bool UseOffline) {
        core::RuntimeConfig FreshConfig;
        FreshConfig.Machine = Machine;
        core::Runtime Fresh(FreshConfig);
        auto FreshKernel = apps::makeKernel(Kernel);
        FreshKernel->setup(Fresh, Data.Graph);
        std::string TmpTrace = "/tmp/atmem_ablation5_trace2.bin";
        prof::TraceWriter W2;
        W2.open(TmpTrace);
        if (UseOffline)
          Fresh.setMissTrace(&W2);
        Fresh.profilingStart();
        Fresh.beginIteration();
        FreshKernel->runIteration();
        Fresh.endIteration();
        Fresh.profilingStop();
        Fresh.setMissTrace(nullptr);
        W2.finish();
        double Ratio = 0.0;
        if (UseOffline) {
          // Plan from the exact profile, then migrate through the
          // runtime's migrator by temporarily installing the plan.
          prof::OfflineProfiler Exact2(Fresh.registry());
          Exact2.loadTrace(TmpTrace);
          // The runtime's optimize() consumes its own profiler, so for
          // the offline variant the plan is applied manually.
          analyzer::Analyzer Anal2;
          uint64_t Budget = static_cast<uint64_t>(
              0.85 *
              static_cast<double>(
                  Fresh.machine().allocator(sim::TierId::Fast).freeBytes()));
          auto Plan = Anal2.plan(Fresh.registry(), Exact2, Budget);
          mem::AtmemMigrator Migrator(Fresh.registry());
          mem::MigrationResult Result;
          for (const auto &ObjPlan : Plan.Objects)
            Migrator.migrate(Fresh.registry().object(ObjPlan.Object),
                             ObjPlan.Ranges, sim::TierId::Fast, Result);
        } else {
          Fresh.optimize();
        }
        std::remove(TmpTrace.c_str());
        Fresh.beginIteration();
        FreshKernel->runIteration();
        double T = Fresh.endIteration();
        Ratio = Fresh.fastDataRatio();
        return std::make_pair(T, Ratio);
      };
      auto [SampledTime, SampledRatio] = MeasureWith(false);
      auto [OfflineTime, OfflineRatio] = MeasureWith(true);
      Table.addRow({Name, formatSeconds(SampledTime),
                    formatSeconds(OfflineTime),
                    formatPercent(SampledRatio),
                    formatPercent(OfflineRatio),
                    formatPercent(Jaccard)});
    }
    Table.print();
  }

  std::printf("\nExpected shape: the full system matches or beats every "
              "ablation; whole-object chunks waste fast-memory bytes; "
              "tiny fixed chunks inflate metadata and migration ranges "
              "while huge fixed chunks blur the hot/cold boundary; the "
              "sampled placement tracks the full-trace placement closely "
              "(high overlap, near-equal times) at a fraction of the "
              "profiling cost.\n");
  return 0;
}
