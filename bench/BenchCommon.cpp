#include "BenchCommon.h"

#include "apps/Kernel.h"
#include "fault/FaultInjection.h"
#include "obs/DecisionLog.h"
#include "obs/Export.h"
#include "obs/TimeSeries.h"
#include "support/BuildInfo.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

using namespace atmem;
using namespace atmem::bench;

void bench::addCommonOptions(OptionParser &Parser) {
  Parser.addString("datasets", "all",
                   "comma-separated dataset names or 'all' "
                   "(pokec,rmat24,twitter,rmat27,friendster)");
  Parser.addString("kernels", "all",
                   "comma-separated kernel names or 'all' "
                   "(bfs,sssp,pr,bc,cc)");
  Parser.addDouble("scale", graph::DefaultScaleDivisor,
                   "dataset scale divisor (paper size / divisor)");
  Parser.addFlag("quick", "restrict to two datasets and two kernels");
  Parser.addUnsigned("sim-threads", 1,
                     "host threads replaying the LLC model (1 = inline "
                     "probe); every value gives the same results");
  Parser.addUnsigned("jobs", 1,
                     "concurrent experiment configurations "
                     "(0 = one per host hardware thread)");
  Parser.addString("json", "bench_results.json",
                   "machine-readable timing output path ('' disables)");
  Parser.addString("metrics-out", "",
                   "write a telemetry metrics snapshot (atmem-metrics-v1 "
                   "JSON) and embed a \"metrics\" block in the timing "
                   "output; also enables collection");
  Parser.addString("trace-out", "",
                   "write a Chrome trace-event JSON of the batch; also "
                   "enables collection");
  Parser.addString("decision-log", "",
                   "record every placement decision across the batch to this "
                   "binary flight-recorder file; inspect with atmem_explain");
  Parser.addString("timeseries-out", "",
                   "write per-epoch gauge snapshots of the whole batch as "
                   "atmem-timeseries-v1 JSONL (each job's epochs restart "
                   "at 1; validate with atmem_obs_check --timeseries)");
  Parser.addString("health-log", "",
                   "arm the online health monitor in every job and append "
                   "events as atmem-health-v1 JSONL to this path (triage "
                   "with atmem_doctor)");
  Parser.addString("health-knobs", "",
                   "detector tuning overrides for --health-log, "
                   "comma-separated knob=value");
  Parser.addString("fault-spec", "", fault::faultSpecHelp());
}

bool bench::readCommonOptions(const OptionParser &Parser, BenchOptions &Out) {
  Out.ScaleDivisor = Parser.getDouble("scale");
  Out.Quick = Parser.getFlag("quick");
  Out.SimThreads = std::max(Parser.getUnsigned32("sim-threads"), 1u);
  Out.Jobs = Parser.getUnsigned32("jobs");
  if (Out.Jobs == 0) {
    Out.Jobs = std::max(1u, std::thread::hardware_concurrency());
  }
  Out.JsonPath = Parser.getString("json");
  Out.Telemetry.MetricsPath = Parser.getString("metrics-out");
  Out.Telemetry.TracePath = Parser.getString("trace-out");
  Out.Telemetry.DecisionLogPath = Parser.getString("decision-log");
  Out.Telemetry.TimeSeriesPath = Parser.getString("timeseries-out");
  Out.Telemetry.HealthLogPath = Parser.getString("health-log");
  if (std::string Knobs = Parser.getString("health-knobs");
      !Knobs.empty()) {
    std::string KnobError;
    if (!obs::parseHealthKnobs(Knobs, Out.Telemetry.Health, &KnobError)) {
      std::fprintf(stderr, "error: bad --health-knobs: %s\n",
                   KnobError.c_str());
      return false;
    }
  }
  Out.Telemetry.Enabled = Out.Telemetry.anyOutput();
  if (Out.Telemetry.Enabled)
    obs::setEnabled(true);
  // Bench jobs build their own runtimes without the batch's telemetry
  // config, so the flight recorder is opened here for the whole batch;
  // exportIfConfigured finalizes it (trailer + close) after the last job.
  if (!Out.Telemetry.DecisionLogPath.empty()) {
    std::string LogError;
    if (!obs::DecisionLog::instance().open(Out.Telemetry.DecisionLogPath,
                                           &LogError)) {
      std::fprintf(stderr, "error: decision log: %s\n", LogError.c_str());
      return false;
    }
  }
  // Same pattern for the per-epoch series and the health layer: arm the
  // process-wide stores here so every job's runtime records into them.
  if (!Out.Telemetry.TimeSeriesPath.empty())
    obs::TimeSeries::instance().setEnabled(true);
  if (!Out.Telemetry.HealthLogPath.empty()) {
    std::string LogError;
    if (!obs::HealthLog::instance().open(Out.Telemetry.HealthLogPath,
                                         &LogError)) {
      std::fprintf(stderr, "error: health log: %s\n", LogError.c_str());
      return false;
    }
    obs::setHealthDefaultEnabled(true, Out.Telemetry.Health);
  }

  if (std::string SpecError; !fault::armFromEnvironment(&SpecError)) {
    std::fprintf(stderr, "error: bad ATMEM_FAULT_SPEC: %s\n",
                 SpecError.c_str());
    return false;
  }
  if (std::string Spec = Parser.getString("fault-spec"); !Spec.empty()) {
    std::string SpecError;
    if (!fault::armFromSpec(Spec, &SpecError)) {
      std::fprintf(stderr, "error: bad --fault-spec: %s\n",
                   SpecError.c_str());
      return false;
    }
  }

  std::string DatasetArg = Parser.getString("datasets");
  if (DatasetArg == "all") {
    Out.Datasets = graph::datasetNames();
  } else {
    for (const std::string &Name : splitString(DatasetArg, ',')) {
      if (!graph::isKnownDataset(Name)) {
        std::fprintf(stderr, "error: unknown dataset '%s'\n", Name.c_str());
        return false;
      }
      Out.Datasets.push_back(Name);
    }
  }

  std::string KernelArg = Parser.getString("kernels");
  if (KernelArg == "all") {
    Out.Kernels = apps::kernelNames();
  } else {
    for (const std::string &Name : splitString(KernelArg, ',')) {
      if (!apps::isKnownKernel(Name)) {
        std::fprintf(stderr, "error: unknown kernel '%s'\n", Name.c_str());
        return false;
      }
      Out.Kernels.push_back(Name);
    }
  }

  if (Out.Quick) {
    Out.Datasets = {"pokec", "rmat24"};
    Out.Kernels.resize(std::min<size_t>(Out.Kernels.size(), 2));
  }
  return true;
}

const graph::Dataset &DatasetCache::get(const std::string &Name) {
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return It->second;
  auto [NewIt, Inserted] =
      Cache.emplace(Name, graph::makeDataset(Name, ScaleDivisor));
  (void)Inserted;
  return NewIt->second;
}

void bench::printBanner(const std::string &Title,
                        const BenchOptions &Options) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", Title.c_str());
  std::printf("scale divisor: %.0f (paper-size graphs / %.0f; machine "
              "capacities scaled to match)\n",
              Options.ScaleDivisor, Options.ScaleDivisor);
  if (Options.SimThreads > 1 || Options.Jobs > 1)
    std::printf("engine: %u sim thread(s), %u concurrent job(s)\n",
                Options.SimThreads, Options.Jobs);
  std::printf("==============================================================="
              "=================\n");
  std::fflush(stdout);
}

baseline::RunResult bench::runOne(const std::string &Kernel,
                                  const graph::Dataset &Data,
                                  const sim::MachineConfig &Machine,
                                  baseline::Policy Policy,
                                  double EpsilonOffset, bool MeasureTlb,
                                  uint32_t SimThreads) {
  baseline::RunConfig Config;
  Config.KernelName = Kernel;
  Config.Graph = &Data.Graph;
  Config.Machine = Machine;
  Config.PolicyKind = Policy;
  Config.EpsilonOffset = EpsilonOffset;
  Config.MeasureTlb = MeasureTlb;
  Config.SimThreads = SimThreads;
  return baseline::runExperiment(Config);
}

std::vector<BenchRecord> bench::runConcurrent(const std::vector<BenchJob> &Jobs,
                                              DatasetCache &Cache,
                                              const sim::MachineConfig &Machine,
                                              const BenchOptions &Options,
                                              double *TotalWallMs) {
  using Clock = std::chrono::steady_clock;
  // Generate every referenced dataset up front: the cache is not
  // thread-safe, and sharing one generated graph across jobs is the point.
  for (const BenchJob &Job : Jobs)
    Cache.get(Job.Dataset);

  std::vector<BenchRecord> Records(Jobs.size());
  auto BatchStart = Clock::now();
  std::atomic<size_t> NextJob{0};
  auto Work = [&] {
    for (;;) {
      size_t I = NextJob.fetch_add(1, std::memory_order_relaxed);
      if (I >= Jobs.size())
        return;
      const BenchJob &Job = Jobs[I];
      auto JobStart = Clock::now();
      BenchRecord &Record = Records[I];
      Record.Job = Job;
      Record.Result =
          runOne(Job.Kernel, Cache.get(Job.Dataset), Machine, Job.PolicyKind,
                 Job.EpsilonOffset, Job.MeasureTlb, Options.SimThreads);
      Record.WallMs =
          std::chrono::duration<double, std::milli>(Clock::now() - JobStart)
              .count();
    }
  };

  uint32_t Workers =
      std::min<size_t>(std::max(Options.Jobs, 1u), Jobs.size());
  if (Workers <= 1) {
    Work();
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Workers);
    for (uint32_t W = 0; W < Workers; ++W)
      Threads.emplace_back(Work);
    for (std::thread &T : Threads)
      T.join();
  }
  if (TotalWallMs)
    *TotalWallMs =
        std::chrono::duration<double, std::milli>(Clock::now() - BatchStart)
            .count();
  return Records;
}

void bench::writeBenchResults(const std::string &BenchName,
                              const BenchOptions &Options,
                              const std::vector<BenchRecord> &Records,
                              double TotalWallMs) {
  // Telemetry artifacts (metrics, trace, decision log trailer + close,
  // time series) finalize even when the timing JSON is disabled — the
  // flight recorder must not lose its trailer to a '--json ""' run.
  if (Options.JsonPath.empty()) {
    if (!obs::exportIfConfigured(Options.Telemetry))
      std::fprintf(stderr, "warning: telemetry artifact export failed\n");
    return;
  }
  std::FILE *Out = std::fopen(Options.JsonPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "warning: cannot write '%s'\n",
                 Options.JsonPath.c_str());
    return;
  }
  std::fprintf(Out, "{\n");
  std::fprintf(Out, "  \"bench\": \"%s\",\n", BenchName.c_str());
  std::fprintf(Out, "  \"scale_divisor\": %.0f,\n", Options.ScaleDivisor);
  std::fprintf(Out, "  \"sim_threads\": %u,\n", Options.SimThreads);
  std::fprintf(Out, "  \"jobs\": %u,\n", Options.Jobs);
  std::fprintf(Out, "  \"host_hardware_threads\": %u,\n",
               std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(Out, "  \"git_sha\": \"%s\",\n", support::gitSha());
  std::fprintf(Out, "  \"compiler\": \"%s\",\n", support::compilerId());
  std::fprintf(Out, "  \"cpu_model\": \"%s\",\n",
               support::cpuModel().c_str());
  std::fprintf(Out, "  \"peak_rss_bytes\": %llu,\n",
               static_cast<unsigned long long>(support::peakRssBytes()));
  std::fprintf(Out, "  \"total_wall_ms\": %.3f,\n", TotalWallMs);
  std::fprintf(Out, "  \"runs\": [\n");
  for (size_t I = 0; I < Records.size(); ++I) {
    const BenchRecord &R = Records[I];
    std::fprintf(Out,
                 "    {\"kernel\": \"%s\", \"dataset\": \"%s\", "
                 "\"policy\": \"%s\", \"measured_iter_sec\": %.9g, "
                 "\"first_iter_sec\": %.9g, \"fast_data_ratio\": %.6f, "
                 "\"checksum\": %llu, \"wall_ms\": %.3f}%s\n",
                 R.Job.Kernel.c_str(), R.Job.Dataset.c_str(),
                 baseline::policyName(R.Job.PolicyKind),
                 R.Result.MeasuredIterSec, R.Result.FirstIterSec,
                 R.Result.FastDataRatio,
                 static_cast<unsigned long long>(R.Result.Checksum),
                 R.WallMs, I + 1 == Records.size() ? "" : ",");
  }
  std::fprintf(Out, "  ]");
  if (obs::enabled()) {
    // Telemetry was armed for this batch: embed the merged snapshot plus a
    // wall-clock spread summary of the runs. Emitted only when enabled, so
    // default bench output stays byte-identical.
    RunningStat Wall;
    for (const BenchRecord &R : Records)
      Wall.add(R.WallMs);
    std::fprintf(Out, ",\n  \"metrics\": {\n");
    std::fprintf(Out,
                 "    \"wall_ms\": {\"count\": %zu, \"mean\": %.3f, "
                 "\"min\": %.3f, \"max\": %.3f, \"stddev\": %.3f},\n",
                 Wall.count(), Wall.mean(), Wall.min(), Wall.max(),
                 Wall.stddev());
    std::string Snapshot =
        obs::metricsJson(obs::Registry::instance().snapshot(), "    ");
    std::fprintf(Out, "    \"snapshot\":\n%s\n  }", Snapshot.c_str());
  }
  std::fprintf(Out, "\n}\n");
  std::fclose(Out);
  std::printf("\ntiming block written to %s (total wall %.0f ms)\n",
              Options.JsonPath.c_str(), TotalWallMs);
  if (!obs::exportIfConfigured(Options.Telemetry))
    std::fprintf(stderr, "warning: telemetry artifact export failed\n");
}
