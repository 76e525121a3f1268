//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end benchmark driver. Runs one named workload through the public
/// ATMem API (graph::makeDataset, core::Runtime, apps::Kernel) for a host
/// time budget and times every call into a layer from outside the library.
///
/// A *pass* is one complete user-visible job: build the graphs, construct
/// the runtimes, set the kernels up, run the tracked iterations and the
/// optimize() epochs, tear everything down. Every run inside a pass is
/// checked against the apps::reference* oracles outside the timed region.
/// Traced passes additionally record one span per layer call; untraced
/// passes only time the set-up calls, so their wall time is the
/// end-to-end number.
///
/// Prints one JSON document on stdout: provenance, the model outputs and
/// their fingerprint, per-pass times and counts, and the spans. run.py
/// builds this driver, aggregates the document, and prints the result.
///
//===----------------------------------------------------------------------===//

#include "apps/Kernels.h"
#include "apps/Reference.h"
#include "baseline/Experiment.h"
#include "core/Runtime.h"
#include "graph/Datasets.h"
#include "sim/MachineConfig.h"
#include "support/BuildInfo.h"
#include "support/Options.h"
#include "support/Prng.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <malloc.h>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace atmem;
using baseline::Policy;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// The layer calls the benchmark times. Set-up layers make up setup_s.
enum class Layer {
  GraphBuild,   ///< graph::makeDataset
  RuntimeCtor,  ///< core::Runtime constructor
  AppsSetup,    ///< apps::makeKernel + Kernel::setup
  ExecProfiled, ///< profilingStart + begin/runIteration/end + profilingStop
  ExecMeasured, ///< beginIteration + runIteration + endIteration
  EndIteration, ///< Runtime::endIteration (child of the two above)
  Optimize,     ///< Runtime::optimize
  Teardown,     ///< destroying kernels, runtimes and the pass's graphs
};

const char *layerName(Layer L) {
  switch (L) {
  case Layer::GraphBuild:
    return "graph.build";
  case Layer::RuntimeCtor:
    return "core.runtime_ctor";
  case Layer::AppsSetup:
    return "apps.setup";
  case Layer::ExecProfiled:
    return "exec.profiled";
  case Layer::ExecMeasured:
    return "exec.measured";
  case Layer::EndIteration:
    return "exec.end_iteration";
  case Layer::Optimize:
    return "control.optimize";
  case Layer::Teardown:
    return "core.teardown";
  }
  return "unknown";
}

bool isSetupLayer(Layer L) {
  return L == Layer::GraphBuild || L == Layer::RuntimeCtor ||
         L == Layer::AppsSetup;
}

/// One layer call of a traced pass, in pass-clock seconds.
struct Span {
  int Parent = -1;
  Layer Kind = Layer::GraphBuild;
  double Start = 0.0;
  double End = 0.0;
};

/// Work counters of one pass.
struct Counts {
  uint64_t GraphEdges = 0;
  uint64_t RegisteredBytes = 0;
  uint64_t Accesses = 0;
  uint64_t LlcMisses = 0;
  uint64_t SlowMisses = 0;
  uint64_t ProfilerSamples = 0;
  uint64_t ProfilerMissesSeen = 0;
  uint64_t OptimizeCalls = 0;
  uint64_t BytesMoved = 0;
  uint64_t Ranges = 0;
  uint64_t PtesTouched = 0;
  uint64_t PlanBytes = 0;
};

/// Simulated outputs of one pass. They carry no host time: with a
/// deterministic engine they repeat exactly from pass to pass.
struct Model {
  double MeasuredIterSimSec = 0.0;
  double FastRatioSum = 0.0;
  uint32_t FastRatioSamples = 0;
  double MigrationSimSec = 0.0;
  uint64_t TlbMisses = 0;
  /// Measured simulated seconds of the all-slow and ATMem runs, for
  /// gain_vs_all_slow (ratio of sums over matching runs).
  double AllSlowSimSec = 0.0;
  double AtmemSimSec = 0.0;

  double fastDataRatio() const {
    return FastRatioSamples ? FastRatioSum / FastRatioSamples : 0.0;
  }
  bool operator==(const Model &) const = default;
};

/// Times layer calls of one pass. The pass clock excludes the result
/// checks, which are not part of the job a user waits for.
class Pass {
public:
  explicit Pass(bool Traced) : Traced(Traced), Start(Clock::now()) {}

  bool traced() const { return Traced; }

  /// Seconds of pass time so far.
  double now() const { return secondsSince(Start) - Excluded; }

  /// Runs \p Body as one call into layer \p L, returning its result.
  template <typename Fn> decltype(auto) time(Layer L, Fn &&Body) {
    bool Timed = Traced || isSetupLayer(L);
    double T0 = Timed ? now() : 0.0;
    int Id = -1;
    if (Traced) {
      Id = static_cast<int>(Spans.size());
      Spans.push_back({Stack.empty() ? -1 : Stack.back(), L, T0, 0.0});
      Stack.push_back(Id);
    }
    auto Close = [&] {
      if (!Timed)
        return;
      double T1 = now();
      if (isSetupLayer(L))
        SetupSec += T1 - T0;
      if (Traced) {
        Spans[Id].End = T1;
        Stack.pop_back();
      }
    };
    if constexpr (std::is_void_v<decltype(Body())>) {
      Body();
      Close();
    } else {
      auto Result = Body();
      Close();
      return Result;
    }
  }

  /// Runs \p Body with the pass clock stopped.
  template <typename Fn> void untimed(Fn &&Body) {
    Clock::time_point T0 = Clock::now();
    Body();
    Excluded += secondsSince(T0);
  }

  const std::vector<Span> &spans() const { return Spans; }
  double setupSeconds() const { return SetupSec; }

  Counts Work;
  Model Sim;
  uint32_t Runs = 0;
  uint32_t Failed = 0;

private:
  bool Traced;
  Clock::time_point Start;
  double Excluded = 0.0;
  double SetupSec = 0.0;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

//===----------------------------------------------------------------------===//
// Correctness gate
//===----------------------------------------------------------------------===//

uint64_t fnv1a(uint64_t Hash, const void *Data, size_t Bytes) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Bytes; ++I) {
    Hash ^= P[I];
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;

template <typename T> uint64_t hashVector(uint64_t Hash, const std::vector<T> &V) {
  return fnv1a(Hash, V.data(), V.size() * sizeof(T));
}

uint64_t graphHash(const graph::CsrGraph &G) {
  uint64_t Hash = hashVector(FnvBasis, G.rowOffsets());
  Hash = hashVector(Hash, G.cols());
  return hashVector(Hash, G.weights());
}

/// Reference results, computed outside the timed region the first time a
/// (graph, kernel, iteration count) is checked. Every later run on a graph
/// of the same name must see a bit-identical graph.
class Oracle {
public:
  /// Checks \p K's result after \p Iterations iterations on \p G.
  bool check(const std::string &Dataset, const graph::CsrGraph &G,
             const apps::Kernel &K, uint32_t Iterations) {
    if (!sameGraph(Dataset, G))
      return false;
    std::string Key =
        Dataset + "/" + K.name() + "/" + std::to_string(Iterations);
    if (const auto *Bfs = dynamic_cast<const apps::BfsKernel *>(&K)) {
      auto &Ref = IntRefs[Key];
      if (Ref.empty())
        Ref = apps::referenceBfs(G, Bfs->source());
      return equal(Bfs->levels().raw(), Ref);
    }
    if (const auto *Sssp = dynamic_cast<const apps::SsspKernel *>(&K)) {
      auto &Ref = UintRefs[Key];
      if (Ref.empty())
        Ref = apps::referenceSssp(G, Sssp->source());
      return equal(Sssp->distances().raw(), Ref);
    }
    if (const auto *Pr = dynamic_cast<const apps::PageRankKernel *>(&K)) {
      auto &Ref = FloatRefs[Key];
      if (Ref.empty())
        Ref = apps::referencePageRank(G, Iterations);
      return near(Pr->ranks().raw(), Ref);
    }
    if (const auto *Spmv = dynamic_cast<const apps::SpmvKernel *>(&K)) {
      auto &Ref = FloatRefs[Key];
      if (Ref.empty())
        Ref = apps::referenceSpmv(G);
      return near(Spmv->result().raw(), Ref);
    }
    return false;
  }

private:
  bool sameGraph(const std::string &Dataset, const graph::CsrGraph &G) {
    uint64_t Hash = graphHash(G);
    return GraphHashes.emplace(Dataset, Hash).first->second == Hash;
  }

  template <typename T>
  static bool equal(const T *Got, const std::vector<T> &Ref) {
    return std::equal(Ref.begin(), Ref.end(), Got);
  }

  /// Float kernels sum in a different operation order than the oracle
  /// (multiply by a stored inverse degree, pull instead of push), so
  /// they match within a relative tolerance rather than bit for bit.
  static bool near(const float *Got, const std::vector<float> &Ref) {
    for (size_t I = 0; I < Ref.size(); ++I)
      if (!(std::fabs(Got[I] - Ref[I]) <= 1e-4f * std::fabs(Ref[I]) + 1e-9f))
        return false;
    return true;
  }

  std::map<std::string, uint64_t> GraphHashes;
  std::map<std::string, std::vector<int32_t>> IntRefs;
  std::map<std::string, std::vector<uint32_t>> UintRefs;
  std::map<std::string, std::vector<float>> FloatRefs;
};

//===----------------------------------------------------------------------===//
// Layer calls
//===----------------------------------------------------------------------===//

/// Datasets are built at the benchmarks' default scale, and the machine's
/// capacities are scaled by the same divisor (as atmem_run and fig05 do).
constexpr double Scale = graph::DefaultScaleDivisor;

graph::Dataset buildDataset(Pass &P, const std::string &Name) {
  graph::Dataset D =
      P.time(Layer::GraphBuild, [&] { return graph::makeDataset(Name, Scale); });
  P.Work.GraphEdges += D.Graph.numEdges();
  return D;
}

/// The runtime configuration baseline::runExperiment derives for \p Pol.
core::RuntimeConfig runtimeConfig(Policy Pol, uint32_t SimThreads) {
  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / Scale);
  Config.SimThreads = SimThreads;
  if (Pol == Policy::AllFast)
    Config.Placement = mem::InitialPlacement::Fast;
  return Config;
}

std::unique_ptr<apps::Kernel> setupKernel(Pass &P, core::Runtime &Rt,
                                          const std::string &Name,
                                          const graph::CsrGraph &G) {
  return P.time(Layer::AppsSetup, [&] {
    std::unique_ptr<apps::Kernel> K = apps::makeKernel(Name);
    K->setup(Rt, G);
    return K;
  });
}

/// One tracked iteration; returns its simulated seconds.
double iterate(Pass &P, core::Runtime &Rt, apps::Kernel &K, bool Profiled) {
  double SimSec = 0.0;
  P.time(Profiled ? Layer::ExecProfiled : Layer::ExecMeasured, [&] {
    if (Profiled)
      Rt.profilingStart();
    Rt.beginIteration();
    K.runIteration();
    SimSec = P.time(Layer::EndIteration, [&] { return Rt.endIteration(); });
    if (Profiled)
      Rt.profilingStop();
  });
  const sim::AccessStats &Stats = Rt.iterationStats();
  P.Work.Accesses += Stats.Accesses;
  P.Work.LlcMisses += Stats.totalMisses();
  P.Work.SlowMisses += Stats.TierMisses[sim::tierIndex(sim::TierId::Slow)];
  if (Profiled) {
    P.Work.ProfilerSamples += Rt.profiler().sampleCount();
    P.Work.ProfilerMissesSeen += Rt.profiler().missesSeen();
  }
  return SimSec;
}

void optimize(Pass &P, core::Runtime &Rt) {
  mem::MigrationResult R = P.time(Layer::Optimize, [&] { return Rt.optimize(); });
  P.Work.OptimizeCalls += 1;
  P.Work.BytesMoved += R.BytesMoved;
  P.Work.Ranges += R.Ranges;
  P.Work.PtesTouched += R.PtesTouched;
  P.Work.PlanBytes += Rt.lastPlan().TotalBytes;
  P.Sim.MigrationSimSec += R.SimSeconds;
  P.Sim.FastRatioSum += Rt.fastDataRatio();
  P.Sim.FastRatioSamples += 1;
}

void checkRun(Pass &P, Oracle &O, const graph::Dataset &D,
              const apps::Kernel &K, uint32_t Iterations) {
  P.untimed([&] {
    P.Runs += 1;
    if (!O.check(D.Name, D.Graph, K, Iterations))
      P.Failed += 1;
  });
}

/// One experiment as baseline::runExperiment runs it with the serial
/// engine: profile iteration one (ATMem only), optimize, measure
/// iteration two.
void runExperiment(Pass &P, Oracle &O, const graph::Dataset &D,
                   const std::string &KernelName, Policy Pol) {
  auto Rt = P.time(Layer::RuntimeCtor, [&] {
    return std::make_unique<core::Runtime>(runtimeConfig(Pol, 1));
  });
  std::unique_ptr<apps::Kernel> K = setupKernel(P, *Rt, KernelName, D.Graph);
  P.Work.RegisteredBytes += Rt->registry().totalMappedBytes();
  bool UsesAtmem = Pol == Policy::Atmem;
  iterate(P, *Rt, *K, UsesAtmem);
  if (UsesAtmem)
    optimize(P, *Rt);
  double Measured = iterate(P, *Rt, *K, /*Profiled=*/false);
  P.Sim.MeasuredIterSimSec += Measured;
  if (Pol == Policy::AllSlow)
    P.Sim.AllSlowSimSec += Measured;
  if (UsesAtmem)
    P.Sim.AtmemSimSec += Measured;
  checkRun(P, O, D, *K, 2);
  P.time(Layer::Teardown, [&] {
    K.reset();
    Rt.reset();
  });
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Which placement a pass runs. The all-slow variant is run once, outside
/// timing, by the workloads whose passes contain no all-slow run, to give
/// model.gain_vs_all_slow its base.
enum class Variant { Atmem, AllSlowBaseline };

class Workload {
public:
  virtual ~Workload() = default;
  virtual void pass(Pass &P, Oracle &O, Variant V) = 0;
  /// True when pass(Atmem) already contains the all-slow runs.
  virtual bool hasAllSlowRuns() const { return false; }
  /// The inputs the seed drew, for the record.
  virtual std::string inputs() const = 0;
};

/// The ROADMAP acceptance run: atmem_run --kernel=pr --dataset=twitter.
class TwitterPr : public Workload {
public:
  void pass(Pass &P, Oracle &O, Variant V) override {
    graph::Dataset D = buildDataset(P, "twitter");
    runExperiment(P, O, D, "pr",
                  V == Variant::Atmem ? Policy::Atmem : Policy::AllSlow);
    P.time(Layer::Teardown, [&] { D = graph::Dataset(); });
  }
  std::string inputs() const override { return "twitter/pr/atmem"; }
};

/// fig05_nvm_overall --quick: {bfs, sssp} x {pokec, rmat24} x {all-slow,
/// atmem, all-fast}, serial engine, each dataset built once per pass. The
/// seed draws the order of the twelve runs.
class Fig05Quick : public Workload {
public:
  explicit Fig05Quick(uint64_t Seed) {
    for (const char *Kernel : {"bfs", "sssp"})
      for (int Data = 0; Data < 2; ++Data)
        for (Policy Pol : {Policy::AllSlow, Policy::Atmem, Policy::AllFast})
          Runs.push_back({Kernel, Data, Pol});
    Xoshiro256 Rng(Seed);
    for (size_t I = Runs.size(); I > 1; --I)
      std::swap(Runs[I - 1], Runs[Rng.nextBounded(I)]);
  }

  void pass(Pass &P, Oracle &O, Variant) override {
    graph::Dataset Data[2] = {buildDataset(P, "pokec"),
                              buildDataset(P, "rmat24")};
    for (const RunSpec &R : Runs)
      runExperiment(P, O, Data[R.Dataset], R.Kernel, R.Pol);
    P.time(Layer::Teardown, [&] {
      for (graph::Dataset &D : Data)
        D = graph::Dataset();
    });
  }

  bool hasAllSlowRuns() const override { return true; }

  std::string inputs() const override {
    std::string Out;
    for (const RunSpec &R : Runs)
      Out += std::string(Out.empty() ? "" : " ") + R.Kernel + "/" +
             (R.Dataset ? "rmat24" : "pokec") + "/" +
             baseline::policyName(R.Pol);
    return Out;
  }

private:
  struct RunSpec {
    const char *Kernel;
    int Dataset;
    Policy Pol;
  };
  std::vector<RunSpec> Runs;
};

/// One resident runtime on rmat24 with the 2-thread sharded engine and a
/// replay TLB; pr, bfs and spmv set up once; phases in a seed-drawn order,
/// each one profiled iteration, optimize(), two measured iterations.
class Rmat24Adaptive : public Workload {
public:
  static constexpr const char *Kernels[] = {"pr", "bfs", "spmv"};
  static constexpr uint32_t PhasesPerKernel = 2;
  static constexpr uint32_t MeasuredPerPhase = 2;

  explicit Rmat24Adaptive(uint64_t Seed) {
    // Each kernel PhasesPerKernel times, no kernel twice in a row, so
    // every optimize() demotes the previous phase's chunks.
    Xoshiro256 Rng(Seed);
    for (;;) {
      Order.clear();
      for (uint32_t K = 0; K < 3; ++K)
        Order.insert(Order.end(), PhasesPerKernel, K);
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[Rng.nextBounded(I)]);
      if (std::adjacent_find(Order.begin(), Order.end()) == Order.end())
        break;
    }
  }

  void pass(Pass &P, Oracle &O, Variant V) override {
    graph::Dataset D = buildDataset(P, "rmat24");
    auto Rt = P.time(Layer::RuntimeCtor, [&] {
      return std::make_unique<core::Runtime>(
          runtimeConfig(Policy::Atmem, /*SimThreads=*/2));
    });
    std::unique_ptr<apps::Kernel> K[3];
    for (uint32_t I = 0; I < 3; ++I)
      K[I] = setupKernel(P, *Rt, Kernels[I], D.Graph);
    P.Work.RegisteredBytes += Rt->registry().totalMappedBytes();
    sim::Tlb ReplayTlb = Rt->machine().makeTlb();
    Rt->setReplayTlb(&ReplayTlb);

    uint32_t Iterations[3] = {0, 0, 0};
    for (uint32_t Phase : Order) {
      apps::Kernel &Kernel = *K[Phase];
      bool Adapt = V == Variant::Atmem;
      iterate(P, *Rt, Kernel, /*Profiled=*/Adapt);
      if (Adapt)
        optimize(P, *Rt);
      for (uint32_t I = 0; I < MeasuredPerPhase; ++I) {
        double Measured = iterate(P, *Rt, Kernel, /*Profiled=*/false);
        P.Sim.MeasuredIterSimSec += Measured;
        (Adapt ? P.Sim.AtmemSimSec : P.Sim.AllSlowSimSec) += Measured;
      }
      Iterations[Phase] += 1 + MeasuredPerPhase;
      checkRun(P, O, D, Kernel, Iterations[Phase]);
    }
    Rt->setReplayTlb(nullptr);
    P.Sim.TlbMisses = ReplayTlb.misses();
    P.time(Layer::Teardown, [&] {
      for (auto &Kernel : K)
        Kernel.reset();
      Rt.reset();
      D = graph::Dataset();
    });
  }

  std::string inputs() const override {
    std::string Out;
    for (uint32_t Phase : Order)
      Out += std::string(Out.empty() ? "" : " ") + Kernels[Phase];
    return Out;
  }

private:
  std::vector<uint32_t> Order;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed) {
  if (Name == "twitter-pr")
    return std::make_unique<TwitterPr>();
  if (Name == "fig05-quick")
    return std::make_unique<Fig05Quick>(Seed);
  if (Name == "rmat24-adaptive")
    return std::make_unique<Rmat24Adaptive>(Seed);
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// Hash of the model outputs' exact bit patterns.
uint64_t modelHash(const Model &M, double Gain) {
  uint64_t Hash = FnvBasis;
  for (double V : {M.MeasuredIterSimSec, M.fastDataRatio(), M.MigrationSimSec,
                   Gain})
    Hash = fnv1a(Hash, &V, sizeof V);
  return fnv1a(Hash, &M.TlbMisses, sizeof M.TlbMisses);
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

/// Returns free heap memory to the kernel and restarts its peak-RSS mark
/// (VmHWM) at the resulting RSS, so that each pass starts from a state
/// like a fresh process's and the next support::peakRssBytes() is that
/// pass's peak. Where the kernel lacks the interface the mark stays
/// process-wide.
void resetPeakRss() {
  malloc_trim(0);
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

/// Appends printf-formatted text to \p Out.
template <typename... Args>
void appendf(std::string &Out, const char *Format, Args... Values) {
  int Len = std::snprintf(nullptr, 0, Format, Values...);
  size_t At = Out.size();
  Out.resize(At + Len + 1);
  std::snprintf(Out.data() + At, Len + 1, Format, Values...);
  Out.pop_back();
}

/// One finished pass as a JSON object (times, checks, counts, spans).
std::string passJson(const Pass &P, double WallSec, uint64_t PeakRss,
                     const Model &Reference) {
  const Counts &C = P.Work;
  std::string Out;
  appendf(Out,
          "{\"traced\": %s, \"wall_s\": %.17g, \"setup_s\": %.17g, "
          "\"peak_rss_bytes\": %llu, \"runs\": %u, \"failed\": %u, "
          "\"model_matches\": %s,\n"
          "   \"counts\": {\"graph.edges\": %llu, "
          "\"mem.registered_bytes\": %llu, \"exec.accesses\": %llu, "
          "\"exec.llc_misses\": %llu, \"exec.slow_misses\": %llu, "
          "\"profiler.samples\": %llu, \"profiler.misses_seen\": %llu, "
          "\"control.optimize_calls\": %llu, \"mem.bytes_moved\": %llu, "
          "\"mem.ranges\": %llu, \"mem.ptes_touched\": %llu, "
          "\"analyzer.plan_bytes\": %llu},\n   \"spans\": [",
          P.traced() ? "true" : "false", WallSec, P.setupSeconds(),
          (unsigned long long)PeakRss, P.Runs,
          P.Failed, P.Sim == Reference ? "true" : "false",
          (unsigned long long)C.GraphEdges,
          (unsigned long long)C.RegisteredBytes,
          (unsigned long long)C.Accesses, (unsigned long long)C.LlcMisses,
          (unsigned long long)C.SlowMisses,
          (unsigned long long)C.ProfilerSamples,
          (unsigned long long)C.ProfilerMissesSeen,
          (unsigned long long)C.OptimizeCalls,
          (unsigned long long)C.BytesMoved, (unsigned long long)C.Ranges,
          (unsigned long long)C.PtesTouched, (unsigned long long)C.PlanBytes);
  for (size_t I = 0; I < P.spans().size(); ++I) {
    const Span &S = P.spans()[I];
    appendf(Out, "%s[%d, \"%s\", %.9f, %.9f]", I ? ", " : "", S.Parent,
            layerName(S.Kind), S.Start, S.End);
  }
  return Out + "]}";
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Parser("atmem_perfbench: end-to-end ATMem benchmark driver");
  Parser.addString("workload", "", "twitter-pr | fig05-quick | rmat24-adaptive");
  Parser.addUnsigned("seed", 1, "workload seed");
  Parser.addDouble("seconds", 10.0, "host seconds of timed passes");
  Parser.addUnsigned("trace", 0, "1 = alternate traced and untraced passes");
  if (!Parser.parse(Argc, Argv))
    return 2;
  std::string Name = Parser.getString("workload");
  uint64_t Seed = Parser.getUnsigned("seed");
  double Budget = Parser.getDouble("seconds");
  bool Trace = Parser.getUnsigned("trace") != 0;
  std::unique_ptr<Workload> W = makeWorkload(Name, Seed);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Name.c_str());
    return 2;
  }

  Oracle O;
  // Warm-up pass: discarded, except that its model outputs are the
  // reference every timed pass must reproduce.
  Pass Warm(/*Traced=*/false);
  W->pass(Warm, O, Variant::Atmem);
  Model Reference = Warm.Sim;
  uint32_t WarmRuns = Warm.Runs;
  uint32_t WarmFailed = Warm.Failed;
  double SlowSimSec = Reference.AllSlowSimSec;
  if (!W->hasAllSlowRuns()) {
    Pass Base(/*Traced=*/false);
    W->pass(Base, O, Variant::AllSlowBaseline);
    SlowSimSec = Base.Sim.AllSlowSimSec;
    WarmRuns += Base.Runs;
    WarmFailed += Base.Failed;
  }
  double Gain =
      Reference.AtmemSimSec > 0 ? SlowSimSec / Reference.AtmemSimSec : 0.0;

  // Timed passes. In trace mode they alternate untraced/traced, so the two
  // kinds see the same host conditions and their difference is the
  // tracing overhead.
  std::vector<std::string> Passes;
  uint32_t Traced = 0;
  Clock::time_point Begin = Clock::now();
  for (uint32_t Index = 0;; ++Index) {
    resetPeakRss();
    Pass P(Trace && Index % 2 == 1);
    W->pass(P, O, Variant::Atmem);
    double WallSec = P.now();
    uint64_t PeakRss = support::peakRssBytes();
    Passes.push_back(passJson(P, WallSec, PeakRss, Reference));
    Traced += P.traced();
    size_t Untraced = Passes.size() - Traced;
    bool Enough = Trace ? Traced >= 2 && Untraced >= 2 : Untraced >= 3;
    if (Enough && secondsSince(Begin) >= Budget)
      break;
  }

  std::printf("{\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, "
              "\"trace\": %d,\n",
              jsonString(Name).c_str(), (unsigned long long)Seed, Budget,
              Trace ? 1 : 0);
  std::printf(" \"inputs\": %s,\n", jsonString(W->inputs()).c_str());
  std::printf(" \"provenance\": {\"git_sha\": %s, \"compiler\": %s, "
              "\"cpu_model\": %s, \"nproc\": %u, \"build_type\": %s},\n",
              jsonString(support::gitSha()).c_str(),
              jsonString(support::compilerId()).c_str(),
              jsonString(support::cpuModel()).c_str(),
              std::thread::hardware_concurrency(),
              jsonString(PERFBENCH_BUILD_TYPE).c_str());
  std::printf(" \"warmup_runs\": %u, \"warmup_failed\": %u,\n", WarmRuns,
              WarmFailed);
  std::printf(" \"model\": {\"model.measured_iter_sim_s\": %.17g, "
              "\"model.fast_data_ratio\": %.17g, "
              "\"model.migration_sim_s\": %.17g, \"model.tlb_misses\": %llu, "
              "\"model.gain_vs_all_slow\": %.17g},\n",
              Reference.MeasuredIterSimSec, Reference.fastDataRatio(),
              Reference.MigrationSimSec,
              (unsigned long long)Reference.TlbMisses, Gain);
  std::printf(" \"model_hash\": \"%016llx\",\n",
              (unsigned long long)modelHash(Reference, Gain));
  std::printf(" \"passes\": [\n");
  for (size_t I = 0; I < Passes.size(); ++I)
    std::printf("  %s%s\n", Passes[I].c_str(),
                I + 1 < Passes.size() ? "," : "");
  std::printf(" ]}\n");
  return 0;
}
