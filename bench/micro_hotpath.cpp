//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmark of the two runtime hot paths:
///
///   tracked_access — a kernel-style tracked gather whose footprint
///       exceeds the simulated LLC, timed from its first access through
///       endIteration() on a runtime with --sim-threads engine threads
///       (2 by default: the set-partitioned LLC replay; 1 is the inline
///       probe), with no miss consumer attached;
///   miss_drain — the miss consumers (core::MissConsumers: sampling
///       profiler, miss trace, TLB replay) fed an ordered miss stream in
///       replay-block-sized batches, as the replay feeds them.
///
/// Each section runs one untimed warmup pass and then N timed repeats;
/// the JSON reports min/median/max rates per section, with the legacy
/// scalar keys (wall_ms, accesses_per_sec, misses_per_sec) carrying the
/// median so perf_smoke.sh's gate reads the same keys it always did.
///
/// Results are appended as JSON (default micro_hotpath.json) so successive
/// PRs leave a perf trajectory behind, in the spirit of the figure
/// benches' bench_results.json.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "profiler/TraceFile.h"
#include "sim/Machine.h"
#include "sim/Tlb.h"
#include "support/BuildInfo.h"
#include "support/Options.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace atmem;

namespace {

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Machine whose LLC is far smaller than the bench arrays, so the gather
/// below is miss-dominated (the interesting regime for both paths).
sim::MachineConfig benchMachine() {
  sim::MachineConfig Config = sim::nvmDramTestbed(1.0 / 256);
  Config.Cache.SizeBytes = 1 << 20;
  return Config;
}

constexpr uint64_t LcgMul = 6364136223846793005ull;
constexpr uint64_t LcgAdd = 1442695040888963407ull;

struct SectionResult {
  uint64_t Events = 0;
  double WallMs = 0.0;

  double perSec() const {
    return WallMs > 0.0 ? static_cast<double>(Events) / (WallMs / 1000.0)
                        : 0.0;
  }
};

/// Min/median/max over N timed repeats of one section, ordered by rate.
/// The median repeat is the headline number (and what the perf gate
/// reads); min/max bound the run-to-run noise on the host.
struct SectionStats {
  SectionResult Min, Median, Max;
  uint32_t Repeats = 0;
};

SectionStats summarize(std::vector<SectionResult> Runs) {
  std::sort(Runs.begin(), Runs.end(),
            [](const SectionResult &A, const SectionResult &B) {
              return A.perSec() < B.perSec();
            });
  SectionStats S;
  S.Repeats = static_cast<uint32_t>(Runs.size());
  if (Runs.empty())
    return S;
  S.Min = Runs.front();
  S.Median = Runs[Runs.size() / 2];
  S.Max = Runs.back();
  return S;
}

/// Times \p Accesses tracked gathers over a 32 MiB array, through the
/// end of the iteration, on a runtime with \p SimThreads engine threads
/// and no miss consumers attached.
SectionResult benchTrackedAccess(uint64_t Accesses, uint32_t SimThreads) {
  core::RuntimeConfig Config;
  Config.Machine = benchMachine();
  Config.SimThreads = SimThreads;
  core::Runtime Rt(Config);
  constexpr uint64_t Elems = 1u << 22;
  core::TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("gather", Elems);
  for (uint64_t I = 0; I < Elems; ++I)
    Arr.raw()[I] = I * LcgMul;

  Rt.beginIteration();
  uint64_t State = 0x243f6a8885a308d3ull;
  uint64_t Sink = 0;
  // Untimed warmup: fault in the array and warm the simulated LLC so the
  // timed repeats all start from the same cache state.
  for (uint64_t I = 0; I < Accesses / 8; ++I) {
    State = State * LcgMul + LcgAdd;
    Sink ^= Arr[(State >> 11) & (Elems - 1)];
  }
  Rt.endIteration();
  Rt.beginIteration();
  double Begin = nowMs();
  for (uint64_t I = 0; I < Accesses; ++I) {
    State = State * LcgMul + LcgAdd;
    Sink ^= Arr[(State >> 11) & (Elems - 1)];
  }
  Rt.endIteration();
  double WallMs = nowMs() - Begin;
  // Keep the gather alive past the optimizer.
  if (Sink == 0x5ca1ab1e)
    std::fprintf(stderr, "sink\n");
  return {Accesses, WallMs};
}

/// A deterministic ordered miss stream: byte offsets into the gather
/// array.
std::vector<uint64_t> makeMissStream(uint64_t Misses) {
  constexpr uint64_t Elems = 1u << 22;
  std::vector<uint64_t> Stream;
  Stream.reserve(Misses);
  uint64_t State = 0x9e3779b97f4a7c15ull;
  for (uint64_t I = 0; I < Misses; ++I) {
    State = State * LcgMul + LcgAdd;
    Stream.push_back(((State >> 11) & (Elems - 1)) * 8);
  }
  return Stream;
}

/// Times the miss consumers (profiler + miss trace + TLB replay) over
/// \p Iterations passes of \p Stream, fed in batches of up to one replay
/// block, as the set-partitioned replay feeds them.
SectionResult benchMissDrain(uint32_t Iterations,
                             const std::vector<uint64_t> &Stream,
                             const std::string &TracePath) {
  core::RuntimeConfig Config;
  Config.Machine = benchMachine();
  core::Runtime Rt(Config);
  constexpr uint64_t Elems = 1u << 22;
  core::TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("gather", Elems);
  std::vector<uint64_t> Vas;
  Vas.reserve(Stream.size());
  for (uint64_t Off : Stream)
    Vas.push_back(Arr.va() + Off);

  sim::Tlb Tlb = Rt.machine().makeTlb();
  prof::TraceWriter Trace;
  if (!Trace.open(TracePath)) {
    std::fprintf(stderr, "micro_hotpath: cannot open %s\n",
                 TracePath.c_str());
    return {};
  }
  Rt.profilingStart();
  core::MissConsumers Consumers(Rt.profiler(), Rt.machine().pageTable());
  Consumers.setTlb(&Tlb);
  Consumers.setTrace(&Trace);

  SectionResult Result;
  // Pass 0 is an untimed warmup: it warms the translation cache, the
  // trace writer's recycle pool and the profile vectors.
  for (uint32_t Iter = 0; Iter <= Iterations; ++Iter) {
    // A replay block is 2^15 accesses, of which about a fifth miss.
    constexpr size_t Batch = core::SetReplay::BlockAccesses / 5;
    double Begin = nowMs();
    for (size_t Pos = 0; Pos < Vas.size(); Pos += Batch)
      Consumers.consumeBatch(Vas.data() + Pos,
                             std::min(Batch, Vas.size() - Pos));
    if (Iter != 0) {
      Result.WallMs += nowMs() - Begin;
      Result.Events += Vas.size();
    }
  }
  Rt.profilingStop();
  Trace.finish();
  std::remove(TracePath.c_str());
  return Result;
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Parser(
      "micro_hotpath: tracked-access and miss-consumer throughput");
  Parser.addFlag("quick", "Cut workload sizes for CI smoke runs");
  Parser.addUnsigned("sim-threads", 2,
                     "Engine threads for the tracked-access section: 1 "
                     "probes the LLC inline, N >= 2 replays it on N "
                     "set-range workers (same results)");
  Parser.addUnsigned("repeats", 0,
                     "Timed repeats per section (0 = 3 quick / 5 full)");
  Parser.addString("json", "micro_hotpath.json",
                   "Machine-readable results path (\"\" disables)");
  Parser.addString("trace-tmp", "micro_hotpath.mtrace",
                   "Scratch path for the drain section's miss trace");
  if (!Parser.parse(Argc, Argv))
    return 1;

  bool Quick = Parser.getFlag("quick");
  uint32_t SimThreads = Parser.getUnsigned32("sim-threads");
  auto Repeats = static_cast<uint32_t>(Parser.getUnsigned("repeats"));
  if (Repeats == 0)
    Repeats = Quick ? 3 : 5;
  uint64_t TrackedAccesses = Quick ? 4u << 20 : 32u << 20;
  uint32_t DrainIters = Quick ? 3 : 8;
  uint64_t DrainMisses = (Quick ? 2u << 20 : 8u << 20) / 10;

  // Part of the host-class key perf_smoke.sh compares baselines by.
  uint32_t HostThreads = std::max(1u, std::thread::hardware_concurrency());

  std::printf(
      "[micro_hotpath] quick=%d sim-threads=%u host-threads=%u repeats=%u\n",
      Quick ? 1 : 0, SimThreads, HostThreads, Repeats);

  auto report = [](const char *Name, const char *Unit,
                   const SectionStats &S) {
    std::printf("%-16s %12llu %s  median %9.2f ms  %12.0f /s  "
                "(min %.0f, max %.0f)\n",
                Name, static_cast<unsigned long long>(S.Median.Events),
                Unit, S.Median.WallMs, S.Median.perSec(), S.Min.perSec(),
                S.Max.perSec());
  };

  std::vector<SectionResult> TrackedRuns;
  for (uint32_t R = 0; R < Repeats; ++R)
    TrackedRuns.push_back(benchTrackedAccess(TrackedAccesses, SimThreads));
  SectionStats Tracked = summarize(std::move(TrackedRuns));
  report("tracked_access", "accesses", Tracked);

  std::string TracePath = Parser.getString("trace-tmp");
  std::vector<uint64_t> Stream = makeMissStream(DrainMisses);
  std::vector<SectionResult> DrainRuns;
  for (uint32_t R = 0; R < Repeats; ++R)
    DrainRuns.push_back(benchMissDrain(DrainIters, Stream, TracePath));
  SectionStats Batched = summarize(std::move(DrainRuns));
  report("miss_drain", "misses  ", Batched);

  std::string JsonPath = Parser.getString("json");
  if (!JsonPath.empty()) {
    std::FILE *Out = std::fopen(JsonPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "micro_hotpath: cannot write %s\n",
                   JsonPath.c_str());
      return 1;
    }
    // Scalar wall_ms / *_per_sec keys carry the median repeat so older
    // tooling (and perf_smoke.sh's gate) keeps reading the same keys;
    // min/median/max rates sit alongside them. The consumer rate keeps
    // its historical miss_drain.batched key.
    std::fprintf(Out,
                 "{\n"
                 "  \"bench\": \"micro_hotpath\",\n"
                 "  \"quick\": %s,\n"
                 "  \"sim_threads\": %u,\n"
                 "  \"repeats\": %u,\n"
                 "  \"host_hardware_threads\": %u,\n"
                 "  \"git_sha\": \"%s\",\n"
                 "  \"compiler\": \"%s\",\n"
                 "  \"cpu_model\": \"%s\",\n"
                 "  \"peak_rss_bytes\": %llu,\n"
                 "  \"tracked_access\": {\n"
                 "    \"accesses\": %llu,\n"
                 "    \"wall_ms\": %.3f,\n"
                 "    \"accesses_per_sec\": %.0f,\n"
                 "    \"min_per_sec\": %.0f,\n"
                 "    \"median_per_sec\": %.0f,\n"
                 "    \"max_per_sec\": %.0f\n"
                 "  },\n"
                 "  \"miss_drain\": {\n"
                 "    \"batched\": {\"misses\": %llu, \"wall_ms\": %.3f, "
                 "\"misses_per_sec\": %.0f, \"min_per_sec\": %.0f, "
                 "\"median_per_sec\": %.0f, \"max_per_sec\": %.0f}\n"
                 "  }\n"
                 "}\n",
                 Quick ? "true" : "false", SimThreads, Repeats,
                 HostThreads, support::gitSha(), support::compilerId(),
                 support::cpuModel().c_str(),
                 static_cast<unsigned long long>(support::peakRssBytes()),
                 static_cast<unsigned long long>(Tracked.Median.Events),
                 Tracked.Median.WallMs, Tracked.Median.perSec(),
                 Tracked.Min.perSec(), Tracked.Median.perSec(),
                 Tracked.Max.perSec(),
                 static_cast<unsigned long long>(Batched.Median.Events),
                 Batched.Median.WallMs, Batched.Median.perSec(),
                 Batched.Min.perSec(), Batched.Median.perSec(),
                 Batched.Max.perSec());
    std::fclose(Out);
    std::printf("results written to %s\n", JsonPath.c_str());
  }
  return 0;
}
