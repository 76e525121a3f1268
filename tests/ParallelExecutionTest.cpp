//===----------------------------------------------------------------------===//
// Cross-engine suite: every SimThreads value must give the SimThreads = 1
// answer bit for bit. The inline engine probes the LLC on the kernel's
// thread; SimThreads >= 2 replays the same LLC on set-range workers
// (core/Engine.h). Each scenario runs profiled iterations, optimize() and
// measured iterations with the profiler, a replay TLB, a miss trace and
// the decision log attached, and every observable result is compared:
// access stats, profiles, TLB counts, trace and decision-log bytes,
// checksums, simulated times and the fast-data ratio. The comparison is
// repeated with worker spawns failing (fewer workers, or none).
//===----------------------------------------------------------------------===//

#include "apps/Kernel.h"
#include "baseline/Experiment.h"
#include "core/Runtime.h"
#include "fault/FaultInjection.h"
#include "graph/Datasets.h"
#include "obs/DecisionLog.h"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace atmem;
using namespace atmem::baseline;

namespace {

/// Shared scaled dataset; rmat24 is the smallest input with robust skew.
class ParallelExecutionTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Data = new graph::Dataset(graph::makeDataset("rmat24", 512));
    Small = new graph::Dataset(graph::makeDataset("rmat24", 2048));
  }
  static void TearDownTestSuite() {
    delete Data;
    delete Small;
    Data = Small = nullptr;
  }

  RunConfig config(const std::string &Kernel, Policy P,
                   uint32_t SimThreads) const {
    RunConfig Config;
    Config.KernelName = Kernel;
    Config.Graph = &Data->Graph;
    Config.Machine = sim::nvmDramTestbed(1.0 / 512);
    Config.PolicyKind = P;
    Config.SimThreads = SimThreads;
    return Config;
  }

  static graph::Dataset *Data;
  static graph::Dataset *Small;
};

graph::Dataset *ParallelExecutionTest::Data = nullptr;
graph::Dataset *ParallelExecutionTest::Small = nullptr;

std::string readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// Everything one scenario lets a caller observe, flattened to text so a
/// mismatch prints where the engines diverged.
struct Observed {
  std::vector<std::string> Lines;
  std::string Trace;
  std::string DecisionLog;

  void add(const std::string &Key, uint64_t Value) {
    Lines.push_back(Key + "=" + std::to_string(Value));
  }
  void add(const std::string &Key, double Value) {
    add(Key, std::bit_cast<uint64_t>(Value));
  }
};

void expectSame(const Observed &Ref, const Observed &Got) {
  ASSERT_EQ(Ref.Lines.size(), Got.Lines.size());
  for (size_t I = 0; I < Ref.Lines.size(); ++I)
    ASSERT_EQ(Ref.Lines[I], Got.Lines[I]) << "observation " << I;
  EXPECT_FALSE(Ref.Trace.empty());
  EXPECT_TRUE(Ref.Trace == Got.Trace) << "miss-trace bytes differ";
  EXPECT_FALSE(Ref.DecisionLog.empty());
  EXPECT_TRUE(Ref.DecisionLog == Got.DecisionLog)
      << "decision-log bytes differ";
}

/// Two rounds of profiled iteration, optimize() and measured iteration of
/// \p Kernel on \p Machine with \p SimThreads, with \p FaultSpec (if any)
/// armed while the runtime spawns its workers.
Observed runScenario(const graph::CsrGraph &G, const std::string &Kernel,
                     const sim::MachineConfig &Machine, uint32_t SimThreads,
                     const char *FaultSpec = nullptr) {
  // ctest runs each test in its own process, concurrently: the test name
  // keeps their files apart.
  std::string Tag =
      std::string(
          ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
      "_" + Kernel + "_" + std::to_string(SimThreads) + "_" +
      std::to_string(Machine.Cache.SizeBytes) + "_" +
      (FaultSpec ? FaultSpec : "");
  for (char &C : Tag)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  std::string TracePath = ::testing::TempDir() + "engine_" + Tag + ".mtrace";
  std::string LogPath = ::testing::TempDir() + "engine_" + Tag + ".atdl";
  Observed Out;
  EXPECT_TRUE(obs::DecisionLog::instance().open(LogPath));
  {
    core::RuntimeConfig Config;
    Config.Machine = Machine;
    Config.SimThreads = SimThreads;
    if (FaultSpec) {
      EXPECT_TRUE(fault::armFromSpec(FaultSpec));
    }
    core::Runtime Rt(Config);
    fault::FaultRegistry::instance().disarmAll();
    std::unique_ptr<apps::Kernel> K = apps::makeKernel(Kernel);
    K->setup(Rt, G);
    sim::Tlb Tlb = Rt.machine().makeTlb();
    prof::TraceWriter Trace;
    EXPECT_TRUE(Trace.open(TracePath));
    Rt.setReplayTlb(&Tlb);
    Rt.setMissTrace(&Trace);

    auto Iterate = [&](const std::string &Name, bool Profiled) {
      if (Profiled)
        Rt.profilingStart();
      Rt.beginIteration();
      K->runIteration();
      Out.add(Name + ".sim_sec", Rt.endIteration());
      if (Profiled)
        Rt.profilingStop();
      const sim::AccessStats &S = Rt.iterationStats();
      Out.add(Name + ".accesses", S.Accesses);
      Out.add(Name + ".llc_hits", S.LlcHits);
      Out.add(Name + ".misses_fast", S.TierMisses[0]);
      Out.add(Name + ".misses_slow", S.TierMisses[1]);
      Out.add(Name + ".tlb_hits", Tlb.hits());
      Out.add(Name + ".tlb_misses", Tlb.misses());
      Out.add(Name + ".checksum", K->checksum());
    };
    for (int Round = 0; Round < 2; ++Round) {
      std::string R = "round" + std::to_string(Round);
      Iterate(R + ".profiled", /*Profiled=*/true);
      prof::SamplingProfiler &P = Rt.profiler();
      Out.add(R + ".samples", P.sampleCount());
      Out.add(R + ".misses_seen", P.missesSeen());
      Out.add(R + ".period", P.period());
      for (const mem::DataObject *Obj : Rt.registry().liveObjects()) {
        prof::ObjectProfile Profile = P.profileFor(Obj->id());
        for (size_t C = 0; C < Profile.Samples.size(); ++C) {
          std::string Key = R + "." + Obj->name() + "[" + std::to_string(C);
          Out.add(Key + "].samples", Profile.Samples[C]);
          Out.add(Key + "].estimate", Profile.EstimatedMisses[C]);
        }
      }
      mem::MigrationResult Moved = Rt.optimize();
      Out.add(R + ".bytes_moved", Moved.BytesMoved);
      Out.add(R + ".fast_ratio", Rt.fastDataRatio());
      Iterate(R + ".measured", /*Profiled=*/false);
    }
    Rt.setMissTrace(nullptr);
    Rt.setReplayTlb(nullptr);
    EXPECT_TRUE(Trace.finish());
  }
  EXPECT_TRUE(obs::DecisionLog::instance().close());
  Out.Trace = readBytes(TracePath);
  Out.DecisionLog = readBytes(LogPath);
  std::remove(TracePath.c_str());
  std::remove(LogPath.c_str());
  return Out;
}

/// The kernels the cross-engine suite covers (the paper's five plus SpMV).
const char *EngineKernels[] = {"bfs", "sssp", "pr", "spmv", "bc", "cc"};

/// Both testbeds at a scale whose LLC has at least 8 sets, so SimThreads
/// up to 8 is valid.
std::vector<std::pair<std::string, sim::MachineConfig>> engineTestbeds() {
  return {{"nvm", sim::nvmDramTestbed(1.0 / 1024)},
          {"mcdram", sim::mcdramDramTestbed(1.0 / 1024)}};
}

TEST_F(ParallelExecutionTest, EveryThreadCountGivesTheSerialAnswer) {
  for (const auto &[Bed, Machine] : engineTestbeds())
    for (const char *Kernel : EngineKernels) {
      SCOPED_TRACE(Bed + "/" + Kernel);
      Observed Ref = runScenario(Small->Graph, Kernel, Machine, 1);
      for (uint32_t Threads : {2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("SimThreads " + std::to_string(Threads));
        expectSame(Ref, runScenario(Small->Graph, Kernel, Machine, Threads));
      }
    }
}

TEST_F(ParallelExecutionTest, SpawnFaultsKeepTheSerialAnswer) {
  // nth:1 fails the first spawn (fewer, wider set ranges); every:1 fails
  // them all (the inline engine).
  for (const auto &[Bed, Machine] : engineTestbeds())
    for (const char *Kernel : EngineKernels) {
      SCOPED_TRACE(Bed + "/" + Kernel);
      Observed Ref = runScenario(Small->Graph, Kernel, Machine, 1);
      for (const char *Spec :
           {"threadpool.spawn=nth:1", "threadpool.spawn=every:1"})
        for (uint32_t Threads : {2u, 3u}) {
          SCOPED_TRACE(std::string(Spec) + ", SimThreads " +
                       std::to_string(Threads));
          expectSame(Ref, runScenario(Small->Graph, Kernel, Machine, Threads,
                                      Spec));
        }
    }
}

TEST_F(ParallelExecutionTest, SpawnFaultsLeaveFewerWorkers) {
  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 512);
  Config.SimThreads = 3;
  ASSERT_TRUE(fault::armFromSpec("threadpool.spawn=nth:1"));
  core::Runtime Fewer(Config);
  fault::FaultRegistry::instance().disarmAll();
  EXPECT_EQ(Fewer.simThreads(), 2u);
  ASSERT_TRUE(fault::armFromSpec("threadpool.spawn=every:1"));
  core::Runtime Inline(Config);
  fault::FaultRegistry::instance().disarmAll();
  EXPECT_EQ(Inline.simThreads(), 1u);
}

TEST_F(ParallelExecutionTest, ChecksumMatchesSerialEveryThreadCount) {
  for (const char *Kernel : EngineKernels) {
    uint64_t Reference =
        runExperiment(config(Kernel, Policy::AllSlow, 1)).Checksum;
    for (uint32_t Threads : {2u, 8u})
      EXPECT_EQ(runExperiment(config(Kernel, Policy::AllSlow, Threads))
                    .Checksum,
                Reference)
          << Kernel << " with " << Threads << " sim threads";
  }
}

TEST_F(ParallelExecutionTest, ChecksumMatchesSerialUnderAtmemPolicy) {
  // The ATMem policy exercises the full profile -> replay -> migrate loop;
  // the whole result, not just the checksum, matches the inline engine.
  for (const char *Kernel : EngineKernels) {
    RunResult Reference = runExperiment(config(Kernel, Policy::Atmem, 1));
    for (uint32_t Threads : {2u, 8u}) {
      RunResult Got = runExperiment(config(Kernel, Policy::Atmem, Threads));
      EXPECT_EQ(Got.Checksum, Reference.Checksum) << Kernel;
      EXPECT_EQ(Got.MeasuredIterSec, Reference.MeasuredIterSec) << Kernel;
      EXPECT_EQ(Got.FastDataRatio, Reference.FastDataRatio) << Kernel;
    }
  }
}

TEST_F(ParallelExecutionTest, ParallelChecksumsAreRunToRunDeterministic) {
  for (const char *Kernel : EngineKernels) {
    RunResult First = runExperiment(config(Kernel, Policy::Atmem, 4));
    RunResult Second = runExperiment(config(Kernel, Policy::Atmem, 4));
    EXPECT_EQ(First.Checksum, Second.Checksum) << Kernel;
    EXPECT_EQ(First.MeasuredIterSec, Second.MeasuredIterSec) << Kernel;
  }
}

TEST_F(ParallelExecutionTest, AtmemStillBeatsBaselineInParallel) {
  RunResult Slow = runExperiment(config("pr", Policy::AllSlow, 4));
  RunResult Atmem = runExperiment(config("pr", Policy::Atmem, 4));
  EXPECT_LT(Atmem.MeasuredIterSec, Slow.MeasuredIterSec);
}

TEST_F(ParallelExecutionTest, SpmvAccessTotalsMatchSerial) {
  auto CountAccesses = [&](uint32_t SimThreads) {
    core::RuntimeConfig RtConfig;
    RtConfig.Machine = sim::nvmDramTestbed(1.0 / 512);
    RtConfig.SimThreads = SimThreads;
    core::Runtime Rt(RtConfig);
    std::unique_ptr<apps::Kernel> Kernel = apps::makeKernel("spmv");
    Kernel->setup(Rt, Data->Graph);
    Rt.beginIteration();
    Kernel->runIteration();
    Rt.endIteration();
    return Rt.iterationStats().Accesses;
  };
  uint64_t Serial = CountAccesses(1);
  EXPECT_GT(Serial, 0u);
  EXPECT_EQ(CountAccesses(2), Serial);
  EXPECT_EQ(CountAccesses(8), Serial);
}

TEST_F(ParallelExecutionTest, SimThreadsReported) {
  core::RuntimeConfig RtConfig;
  RtConfig.Machine = sim::nvmDramTestbed(1.0 / 512);
  core::Runtime Serial(RtConfig);
  EXPECT_EQ(Serial.simThreads(), 1u);
  RtConfig.SimThreads = 4;
  core::Runtime Parallel(RtConfig);
  EXPECT_EQ(Parallel.simThreads(), 4u);
}

} // namespace
