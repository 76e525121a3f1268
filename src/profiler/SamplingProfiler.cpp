#include "profiler/SamplingProfiler.h"

#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/Logging.h"

#include <algorithm>
#include <cmath>

using namespace atmem;
using namespace atmem::prof;

SamplingProfiler::SamplingProfiler(mem::DataObjectRegistry &Registry,
                                   ProfilerConfig Config)
    : Registry(Registry), Config(Config) {}

uint64_t SamplingProfiler::deriveInitialPeriod(uint64_t TotalChunks,
                                               uint64_t TotalBytes,
                                               uint32_t Threads) {
  // Empirical rule: one pass over the working set misses roughly once per
  // cache line; a profiling window covers a few passes. Aim the period so
  // the expected samples from one pass give each chunk a statistically
  // useful count (~16), keeping per-chunk Poisson noise from masquerading
  // as skew. Each hardware thread drains its own PEBS buffer, so the
  // thread count only nudges the period up slightly to bound aggregate
  // record volume on very wide machines.
  uint64_t ExpectedMissesPerPass = std::max<uint64_t>(TotalBytes / 64, 1);
  uint64_t WantedSamples = std::max<uint64_t>(TotalChunks * 16, 1024);
  uint64_t Period = ExpectedMissesPerPass / WantedSamples;
  if (Threads > 128)
    Period *= 2;
  Period = std::max<uint64_t>(Period, 16);
  return std::min<uint64_t>(Period, 1u << 20);
}

void SamplingProfiler::start(uint32_t ThreadsIn) {
  Profiles.clear();
  MissesSeen = 0;
  SamplesTaken = 0;
  Threads = std::max(1u, ThreadsIn);

  uint64_t TotalChunks = 0;
  uint64_t TotalBytes = 0;
  for (const mem::DataObject *Obj : Registry.liveObjects()) {
    TotalChunks += Obj->numChunks();
    TotalBytes += Obj->mappedBytes();
  }
  double Budget = Config.SamplesPerChunk * static_cast<double>(TotalChunks);
  SampleBudget = static_cast<uint64_t>(std::clamp<double>(
      Budget, static_cast<double>(Config.MinSampleBudget),
      static_cast<double>(Config.MaxSampleBudget)));

  Period = Config.InitialPeriod != 0
               ? Config.InitialPeriod
               : deriveInitialPeriod(TotalChunks, TotalBytes, Threads);
  StartPeriod = Period;
  Countdown = Period;
  Active = true;
  if (obs::enabled()) {
    obs::Tracer::instance().begin("profiler.window", "profiler");
    WindowSpanOpen = true;
  }
  logDebug("profiler armed: period=%llu budget=%llu chunks=%llu",
           static_cast<unsigned long long>(Period),
           static_cast<unsigned long long>(SampleBudget),
           static_cast<unsigned long long>(TotalChunks));
}

void SamplingProfiler::stop() {
  bool WasActive = Active;
  Active = false;
  if (WasActive && obs::enabled()) {
    // Window totals come from the existing aggregates — notifyMiss itself
    // is never instrumented, keeping the hot path untouched.
    static obs::Counter Samples("profiler.samples_taken");
    static obs::Counter Misses("profiler.misses_seen");
    static obs::Counter Unsampled("profiler.events_unsampled");
    Samples.add(SamplesTaken);
    Misses.add(MissesSeen);
    Unsampled.add(MissesSeen - SamplesTaken);
    obs::Gauge("profiler.period.initial")
        .set(static_cast<double>(StartPeriod));
    obs::Gauge("profiler.period.effective").set(static_cast<double>(Period));
    obs::Gauge("profiler.sample_budget")
        .set(static_cast<double>(SampleBudget));
  }
  if (WindowSpanOpen) {
    WindowSpanOpen = false;
    obs::Tracer::instance().end(
        "profiler.window", "profiler",
        {{"samples_taken", static_cast<double>(SamplesTaken)},
         {"misses_seen", static_cast<double>(MissesSeen)},
         {"period_initial", static_cast<double>(StartPeriod)},
         {"period_effective", static_cast<double>(Period)}});
  }
}

void SamplingProfiler::recordSample(uint64_t Va) {
  // The sample is weighted by the period in force when it was taken, so
  // capture it before the budget check below may double it.
  PendingSample S{Va, Period};
  ++SamplesTaken;
  // Budget control: once the budget is consumed, halve the sampling rate.
  // Estimates stay unbiased because each sample is weighted by the period
  // in force when it was taken.
  if (SamplesTaken % SampleBudget == 0)
    Period *= 2;
  mem::Attribution Attr;
  bool Attributed = Registry.attributeIndexed(Va, Attr, Hint);
  commitSample(S, Attributed, Attr);
}

void SamplingProfiler::selectSamples(const uint64_t *Vas, size_t N,
                                     std::vector<PendingSample> &Out) {
  if (!Active)
    return;
  // Equivalent to N ordered notifyMiss() calls: with Countdown events left
  // before the next sample, a span of R remaining misses contains a sample
  // iff R >= Countdown, and it is the (Countdown-1)-th of them. Everything
  // between samples is skipped in one arithmetic stride.
  size_t I = 0;
  while (N - I >= Countdown) {
    I += static_cast<size_t>(Countdown) - 1;
    Out.push_back({Vas[I], Period});
    ++I;
    ++SamplesTaken;
    if (SamplesTaken % SampleBudget == 0)
      Period *= 2;
    Countdown = Period;
  }
  Countdown -= N - I;
  MissesSeen += N;
}

void SamplingProfiler::commitSample(const PendingSample &S, bool Attributed,
                                    const mem::Attribution &Attr) {
  if (!Attributed)
    return;
  if (Profiles.size() <= Attr.Object)
    Profiles.resize(Attr.Object + 1);
  ObjectProfile &Profile = Profiles[Attr.Object];
  if (Profile.Samples.empty()) {
    uint32_t Chunks = Registry.object(Attr.Object).numChunks();
    Profile.Samples.assign(Chunks, 0);
    Profile.EstimatedMisses.assign(Chunks, 0.0);
  }
  ++Profile.Samples[Attr.Chunk];
  Profile.EstimatedMisses[Attr.Chunk] += static_cast<double>(S.PeriodInForce);
}

void SamplingProfiler::notifyMissBatch(const uint64_t *Vas, size_t N) {
  if (!Active || N == 0)
    return;
  PendingScratch.clear();
  selectSamples(Vas, N, PendingScratch);
  for (const PendingSample &S : PendingScratch) {
    mem::Attribution Attr;
    bool Attributed = Registry.attributeIndexed(S.Va, Attr, Hint);
    commitSample(S, Attributed, Attr);
  }
}

double SamplingProfiler::overheadSeconds() const {
  // Every application thread drains its own PEBS buffer concurrently.
  return static_cast<double>(SamplesTaken) * Config.SampleCostSec /
         static_cast<double>(Threads);
}

ObjectProfile SamplingProfiler::profileFor(mem::ObjectId Id) const {
  if (Id < Profiles.size() && !Profiles[Id].Samples.empty())
    return Profiles[Id];
  ObjectProfile Empty;
  uint32_t Chunks = Registry.object(Id).numChunks();
  Empty.Samples.assign(Chunks, 0);
  Empty.EstimatedMisses.assign(Chunks, 0.0);
  return Empty;
}
