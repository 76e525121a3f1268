//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// atmem_doctor: post-hoc placement-health triage. Feeds any combination
/// of run artifacts — per-epoch time-series JSONL, metrics snapshot,
/// atdl/atdr decision log, health event log — through the same streaming
/// detectors the runtime runs live (obs/Health.h), then renders a triage
/// report that cross-links every finding to its offending epochs and,
/// when a decision log is present, to the why-chain of an implicated
/// chunk (obs/DecisionExplain.h).
///
/// Benchmark batches run several runtimes in one process, so a
/// time-series file may contain several runs back to back: the epoch
/// counter resetting to 1 starts a new segment, and each segment is
/// replayed independently. Decision-log epochs are process-wide and
/// monotonic, so segments align to the log positionally via cumulative
/// epoch offsets.
///
/// Exit codes: 0 healthy, 4 warning findings, 5 critical findings,
/// 2 usage error, 1 unreadable/invalid input.
///
/// Examples:
///   atmem_doctor --timeseries run.jsonl
///   atmem_doctor --timeseries run.jsonl --decision-log run.atdl
///   atmem_doctor --metrics m.json --health-log run.health.jsonl --json
///
//===----------------------------------------------------------------------===//

#include "obs/DecisionExplain.h"
#include "obs/DecisionLog.h"
#include "obs/Export.h"
#include "obs/Health.h"
#include "obs/Json.h"
#include "obs/RingLog.h"
#include "obs/TimeSeries.h"
#include "support/Options.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace atmem;

namespace {

enum ExitCodes {
  ExitHealthy = 0,
  ExitInvalid = 1,
  ExitUsage = 2,
  ExitWarning = 4,
  ExitCritical = 5,
};

/// One triage finding: a detector event lifted to report form, stamped
/// with the process-wide (decision-log) epoch and its run segment.
struct Finding {
  obs::HealthSeverity Severity = obs::HealthSeverity::Info;
  obs::HealthDetector Detector = obs::HealthDetector::SlowMissRegression;
  uint64_t Segment = 0;     ///< 1-based run segment in the time series.
  uint64_t Epoch = 0;       ///< Epoch within the segment (1-based).
  uint64_t GlobalEpoch = 0; ///< Segment base + Epoch (decision-log epoch).
  double Value = 0.0;
  double Threshold = 0.0;
  std::string Detail;
  std::string Source;   ///< Which artifact produced it.
  std::string WhyChain; ///< Decision-log causal chain ("" when unlinked).
};

std::string readFileToString(const std::string &Path, std::string *Error) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    if (Error)
      *Error = "cannot open '" + Path + "'";
    return "";
  }
  std::string Out;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
    Out.append(Buf, N);
  bool Bad = std::ferror(File) != 0;
  std::fclose(File);
  if (Bad) {
    if (Error)
      *Error = "read failure on '" + Path + "'";
    return "";
  }
  return Out;
}

/// Splits \p Samples into per-run segments: a sample whose epoch does not
/// exceed its predecessor's starts a new runtime's series.
std::vector<std::vector<obs::EpochSample>>
segmentSamples(const std::vector<obs::EpochSample> &Samples) {
  std::vector<std::vector<obs::EpochSample>> Segments;
  for (const obs::EpochSample &S : Samples) {
    if (Segments.empty() || (!Segments.back().empty() &&
                             S.Epoch <= Segments.back().back().Epoch))
      Segments.emplace_back();
    Segments.back().push_back(S);
  }
  return Segments;
}

/// Object-id -> interned-name map from the artifact's ObjectEpoch records
/// (migration events carry only the id).
std::map<uint32_t, std::string>
objectNames(const obs::DecisionArtifact &Artifact) {
  std::map<uint32_t, std::string> Names;
  for (const obs::DecisionRecord &R : Artifact.Records)
    if (R.Kind == obs::DecisionKind::ObjectEpoch)
      Names[R.Object.Object] = Artifact.name(R.Object.NameId);
  return Names;
}

/// Links \p F to the decision log: picks a migration event committed at
/// the finding's global epoch (the busiest range for storms, any for the
/// rest) and renders its chunk's why-chain.
void attachWhyChain(Finding &F, const obs::DecisionArtifact &Artifact,
                    const std::map<uint32_t, std::string> &Names) {
  const obs::MigrationEventRecord *Best = nullptr;
  for (const obs::DecisionRecord &R : Artifact.Records) {
    if (R.Kind != obs::DecisionKind::MigrationEvent ||
        R.Migration.Epoch != F.GlobalEpoch)
      continue;
    if (R.Migration.Phase != obs::DecisionPhase::Committed &&
        R.Migration.Phase != obs::DecisionPhase::Planned)
      continue;
    if (!Best || R.Migration.NumChunks > Best->NumChunks)
      Best = &R.Migration;
  }
  if (!Best)
    return;
  auto It = Names.find(Best->Object);
  if (It == Names.end() || It->second.empty())
    return;
  obs::WhyQuery Query;
  Query.Object = It->second;
  Query.Chunk = Best->FirstChunk;
  Query.Epoch = static_cast<int64_t>(F.GlobalEpoch);
  std::string Chain, Error;
  if (obs::explainChunk(Artifact, Query, Chain, &Error))
    F.WhyChain = Chain;
}

/// Decision-log-only replay: no time series means no miss-rate or wall
/// clock, so synthesize per-epoch samples carrying only the migration
/// lifecycle counts the storm and ping-pong detectors consume (the
/// regression/overhead/stale detectors stay quiet — documented limitation
/// of this mode).
std::vector<obs::EpochSample>
samplesFromArtifact(const obs::DecisionArtifact &Artifact) {
  std::map<uint64_t, obs::EpochSample> ByEpoch;
  for (const obs::DecisionRecord &R : Artifact.Records) {
    if (R.Kind != obs::DecisionKind::MigrationEvent)
      continue;
    obs::EpochSample &S = ByEpoch[R.Migration.Epoch];
    S.Epoch = R.Migration.Epoch;
    switch (R.Migration.Phase) {
    case obs::DecisionPhase::Committed:
      ++S.MigrationRanges;
      break;
    case obs::DecisionPhase::Retried:
      ++S.Retries;
      break;
    case obs::DecisionPhase::RolledBack:
      ++S.Rollbacks;
      break;
    default:
      break;
    }
  }
  std::vector<obs::EpochSample> Out;
  if (ByEpoch.empty())
    return Out;
  // Epochs with no migration traffic still happened; fill the gaps so
  // baselines and windows advance at true epoch cadence.
  uint64_t First = ByEpoch.begin()->first;
  uint64_t Last = ByEpoch.rbegin()->first;
  for (uint64_t E = First; E <= Last; ++E) {
    obs::EpochSample S;
    auto It = ByEpoch.find(E);
    if (It != ByEpoch.end())
      S = It->second;
    S.Epoch = E;
    Out.push_back(S);
  }
  return Out;
}

std::string escapeJson(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out;
}

const char *severityTag(obs::HealthSeverity S) {
  switch (S) {
  case obs::HealthSeverity::Info:
    return "INFO";
  case obs::HealthSeverity::Warn:
    return "WARN";
  case obs::HealthSeverity::Critical:
    return "CRIT";
  }
  return "?";
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Parser(
      "atmem_doctor: post-hoc placement-health triage. Replays the "
      "runtime's streaming anomaly detectors (slow-miss regression, "
      "migration storm, ping-pong, overhead budget, stale placement) "
      "over recorded artifacts and cross-links findings to decision-log "
      "why-chains.\n"
      "Exit codes: 0 healthy, 4 warning findings, 5 critical findings, "
      "2 usage error, 1 unreadable or invalid input.");
  Parser.addString("timeseries", "",
                   "atmem-timeseries-v1 JSONL to replay ('' skips); epoch "
                   "resets start a new run segment");
  Parser.addString("metrics", "",
                   "atmem-metrics-v1 snapshot: health.* counters and "
                   "health.slo.* verdicts are folded into the report");
  Parser.addString("decision-log", "",
                   "atdl-v1 file or atdr-v1 ring: links findings to "
                   "why-chains; replayed alone it drives the migration "
                   "detectors");
  Parser.addString("health-log", "",
                   "atmem-health-v1 event log from the live monitor, "
                   "folded into the report");
  Parser.addString("health-knobs", "",
                   "detector tuning overrides, comma-separated knob=value "
                   "(see docs/observability.md)");
  Parser.addFlag("json", "machine-readable atmem-doctor-v1 report on stdout");
  if (!Parser.parse(Argc, Argv))
    return ExitUsage;

  std::string TsPath = Parser.getString("timeseries");
  std::string MetricsPath = Parser.getString("metrics");
  std::string LogPath = Parser.getString("decision-log");
  std::string HealthLogPath = Parser.getString("health-log");
  bool Json = Parser.getFlag("json");
  if (TsPath.empty() && MetricsPath.empty() && LogPath.empty() &&
      HealthLogPath.empty()) {
    std::fprintf(stderr, "error: nothing to triage (pass --timeseries, "
                         "--metrics, --decision-log and/or --health-log)\n");
    return ExitUsage;
  }

  obs::HealthConfig Config;
  std::string Error;
  if (!parseHealthKnobs(Parser.getString("health-knobs"), Config, &Error)) {
    std::fprintf(stderr, "error: --health-knobs: %s\n", Error.c_str());
    return ExitUsage;
  }

  std::vector<std::string> Notes;
  std::vector<Finding> Findings;
  obs::SloStatus Worst[obs::NumHealthDetectors] = {};
  bool HaveReplay = false;

  // Decision log first: segments of the time series align against it.
  obs::DecisionArtifact Artifact;
  bool HaveArtifact = false;
  std::map<uint32_t, std::string> Names;
  if (!LogPath.empty()) {
    obs::RingRecoveryStats Recovery;
    bool WasRing = false;
    if (!obs::readDecisionLogAny(LogPath, Artifact, &Error, &Recovery,
                                 &WasRing)) {
      std::fprintf(stderr, "error: decision log '%s': %s\n", LogPath.c_str(),
                   Error.c_str());
      return ExitInvalid;
    }
    // A log whose only defect is a missing trailer (a producer killed
    // between records) is still triaged; any record-level defect is not,
    // because the replay trusts every chunk range it reads.
    if (!Artifact.HasTrailer) {
      Artifact.HasTrailer = true;
      Artifact.TrailerCount = Artifact.Records.size();
    }
    if (!obs::validateDecisionLog(Artifact, &Error)) {
      std::fprintf(stderr, "error: decision log '%s': invalid: %s\n",
                   LogPath.c_str(), Error.c_str());
      return ExitInvalid;
    }
    HaveArtifact = true;
    Names = objectNames(Artifact);
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "decision log '%s': %zu records%s",
                  LogPath.c_str(), Artifact.Records.size(),
                  WasRing ? " (salvaged from ring)" : "");
    Notes.push_back(Buf);
  }

  auto Absorb = [&](const obs::HealthReport &Report, uint64_t Segment,
                    uint64_t EpochBase, const char *Source) {
    HaveReplay = true;
    for (uint32_t D = 0; D < obs::NumHealthDetectors; ++D)
      Worst[D] = std::max(Worst[D], Report.Worst[D]);
    for (const obs::HealthEvent &E : Report.Events) {
      Finding F;
      F.Severity = E.Severity;
      F.Detector = E.Detector;
      F.Segment = Segment;
      F.Epoch = E.Epoch;
      F.GlobalEpoch = EpochBase + E.Epoch;
      F.Value = E.Value;
      F.Threshold = E.Threshold;
      F.Detail = E.Detail;
      F.Source = Source;
      if (HaveArtifact && E.Severity != obs::HealthSeverity::Info)
        attachWhyChain(F, Artifact, Names);
      Findings.push_back(std::move(F));
    }
  };

  if (!TsPath.empty()) {
    std::string Text = readFileToString(TsPath, &Error);
    if (Text.empty() && !Error.empty()) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return ExitInvalid;
    }
    std::vector<obs::EpochSample> Samples;
    if (!obs::parseTimeSeriesJsonl(Text, Samples, &Error)) {
      std::fprintf(stderr, "error: timeseries '%s': %s\n", TsPath.c_str(),
                   Error.c_str());
      return ExitInvalid;
    }
    std::vector<std::vector<obs::EpochSample>> Segments =
        segmentSamples(Samples);
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "timeseries '%s': %zu epochs in %zu run segment%s",
                  TsPath.c_str(), Samples.size(), Segments.size(),
                  Segments.size() == 1 ? "" : "s");
    Notes.push_back(Buf);
    uint64_t EpochBase = 0;
    for (size_t I = 0; I < Segments.size(); ++I) {
      obs::HealthReport Report = obs::replayHealth(
          Config, Segments[I], HaveArtifact ? &Artifact : nullptr, EpochBase);
      Absorb(Report, I + 1, EpochBase, "timeseries");
      EpochBase += Segments[I].size();
    }
  } else if (HaveArtifact) {
    // No time series: replay what the decision log alone can drive.
    Notes.push_back("no timeseries: replaying migration detectors only "
                    "(miss-rate, overhead and staleness signals need "
                    "--timeseries)");
    // The synthesized samples carry true process-wide log epochs, so a
    // base of 0 reports them 1:1.
    std::vector<obs::EpochSample> Samples = samplesFromArtifact(Artifact);
    obs::HealthReport Report =
        obs::replayHealth(Config, Samples, &Artifact, 0);
    Absorb(Report, 1, 0, "decision-log");
  }

  if (!HealthLogPath.empty()) {
    std::string Text = readFileToString(HealthLogPath, &Error);
    if (Text.empty() && !Error.empty()) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return ExitInvalid;
    }
    std::vector<obs::HealthEvent> Events;
    if (!obs::parseHealthLog(Text, Events, &Error)) {
      std::fprintf(stderr, "error: health log '%s': %s\n",
                   HealthLogPath.c_str(), Error.c_str());
      return ExitInvalid;
    }
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "health log '%s': %zu events",
                  HealthLogPath.c_str(), Events.size());
    Notes.push_back(Buf);
    for (const obs::HealthEvent &E : Events) {
      Finding F;
      F.Severity = E.Severity;
      F.Detector = E.Detector;
      F.Segment = 0;
      F.Epoch = E.Epoch;
      F.GlobalEpoch = E.Epoch;
      F.Value = E.Value;
      F.Threshold = E.Threshold;
      F.Detail = E.Detail;
      F.Source = "health-log";
      if (E.Severity == obs::HealthSeverity::Warn)
        Worst[static_cast<uint32_t>(E.Detector)] =
            std::max(Worst[static_cast<uint32_t>(E.Detector)],
                     obs::SloStatus::Yellow);
      else if (E.Severity == obs::HealthSeverity::Critical)
        Worst[static_cast<uint32_t>(E.Detector)] = obs::SloStatus::Red;
      if (HaveArtifact && E.Severity != obs::HealthSeverity::Info)
        attachWhyChain(F, Artifact, Names);
      Findings.push_back(std::move(F));
    }
  }

  if (!MetricsPath.empty()) {
    obs::JsonValue Doc;
    if (!obs::parseJsonFile(MetricsPath, Doc, &Error)) {
      std::fprintf(stderr, "error: metrics '%s': %s\n", MetricsPath.c_str(),
                   Error.c_str());
      return ExitInvalid;
    }
    if (!obs::validateMetricsJson(Doc, &Error)) {
      std::fprintf(stderr, "error: metrics '%s': %s\n", MetricsPath.c_str(),
                   Error.c_str());
      return ExitInvalid;
    }
    const obs::JsonValue *Gauges = Doc.find("gauges");
    uint64_t Verdicts = 0;
    for (uint32_t D = 0; D < obs::NumHealthDetectors; ++D) {
      std::string Key =
          std::string("health.slo.") +
          obs::healthDetectorName(static_cast<obs::HealthDetector>(D));
      const obs::JsonValue *V = Gauges ? Gauges->findNumber(Key) : nullptr;
      if (!V)
        continue;
      ++Verdicts;
      if (V->NumberVal >= 2.0)
        Worst[D] = obs::SloStatus::Red;
      else if (V->NumberVal >= 1.0)
        Worst[D] = std::max(Worst[D], obs::SloStatus::Yellow);
    }
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "metrics '%s': %" PRIu64 " stored health.slo.* verdicts",
                  MetricsPath.c_str(), Verdicts);
    Notes.push_back(Buf);
    (void)HaveReplay;
  }

  // Verdict: the worst surviving detector status decides the exit code.
  obs::SloStatus Overall = obs::SloStatus::Green;
  for (uint32_t D = 0; D < obs::NumHealthDetectors; ++D)
    Overall = std::max(Overall, Worst[D]);
  int Exit = Overall == obs::SloStatus::Red      ? ExitCritical
             : Overall == obs::SloStatus::Yellow ? ExitWarning
                                                 : ExitHealthy;

  if (Json) {
    std::string Out = "{\"schema\":\"atmem-doctor-v1\",\"overall\":\"";
    Out += obs::sloStatusName(Overall);
    Out += "\",\"slo\":{";
    for (uint32_t D = 0; D < obs::NumHealthDetectors; ++D) {
      if (D)
        Out += ",";
      Out += "\"";
      Out += obs::healthDetectorName(static_cast<obs::HealthDetector>(D));
      Out += "\":\"";
      Out += obs::sloStatusName(Worst[D]);
      Out += "\"";
    }
    Out += "},\"findings\":[";
    for (size_t I = 0; I < Findings.size(); ++I) {
      const Finding &F = Findings[I];
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"severity\":\"%s\",\"detector\":\"%s\","
                    "\"segment\":%" PRIu64 ",\"epoch\":%" PRIu64
                    ",\"global_epoch\":%" PRIu64
                    ",\"value\":%.6f,\"threshold\":%.6f,",
                    I ? "," : "", obs::healthSeverityName(F.Severity),
                    obs::healthDetectorName(F.Detector), F.Segment, F.Epoch,
                    F.GlobalEpoch, F.Value, F.Threshold);
      Out += Buf;
      Out += "\"source\":\"" + escapeJson(F.Source) + "\",";
      Out += "\"detail\":\"" + escapeJson(F.Detail) + "\",";
      Out += "\"why\":\"" + escapeJson(F.WhyChain) + "\"}";
    }
    Out += "]}\n";
    std::fputs(Out.c_str(), stdout);
    return Exit;
  }

  std::printf("atmem_doctor triage\n===================\n");
  for (const std::string &Note : Notes)
    std::printf("  %s\n", Note.c_str());
  std::printf("\nSLO verdicts\n");
  for (uint32_t D = 0; D < obs::NumHealthDetectors; ++D)
    std::printf("  %-22s %s\n",
                obs::healthDetectorName(static_cast<obs::HealthDetector>(D)),
                obs::sloStatusName(Worst[D]));
  if (Findings.empty()) {
    std::printf("\nNo findings: run looks healthy.\n");
  } else {
    std::printf("\nFindings (%zu)\n", Findings.size());
    for (const Finding &F : Findings) {
      if (F.Segment != 0)
        std::printf("  [%s] %s: segment %" PRIu64 " epoch %" PRIu64
                    " (log epoch %" PRIu64 "): %s "
                    "(value %.3f, threshold %.3f, from %s)\n",
                    severityTag(F.Severity),
                    obs::healthDetectorName(F.Detector), F.Segment, F.Epoch,
                    F.GlobalEpoch, F.Detail.c_str(), F.Value, F.Threshold,
                    F.Source.c_str());
      else
        std::printf("  [%s] %s: epoch %" PRIu64 ": %s "
                    "(value %.3f, threshold %.3f, from %s)\n",
                    severityTag(F.Severity),
                    obs::healthDetectorName(F.Detector), F.Epoch,
                    F.Detail.c_str(), F.Value, F.Threshold, F.Source.c_str());
      if (!F.WhyChain.empty()) {
        std::printf("        why-chain of an implicated chunk:\n");
        size_t Pos = 0;
        while (Pos < F.WhyChain.size()) {
          size_t End = F.WhyChain.find('\n', Pos);
          if (End == std::string::npos)
            End = F.WhyChain.size();
          std::printf("        | %s\n",
                      F.WhyChain.substr(Pos, End - Pos).c_str());
          Pos = End + 1;
        }
      }
    }
  }
  std::printf("\noverall: %s\n", obs::sloStatusName(Overall));
  return Exit;
}
