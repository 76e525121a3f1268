//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// atmem_obs_check: validates telemetry artifacts against the schemas the
/// runtime emits (obs/Export.h and obs/DecisionLog.h are the single source
/// of truth). CI runs it on the files produced by `atmem_run --metrics-out
/// --trace-out --decision-log`; exit status is non-zero on the first
/// violation, with the reason on stderr.
///
/// --decision-log accepts both flat atdl-v1 files and atdr-v1 rings (pass
/// the ring base path or any segment file); rings are salvaged by the
/// crash-recovery reader first and the salvage statistics are reported.
///
/// Unhealthy decision logs exit with a code naming the failure class, so
/// scripts can tell a crash-truncated log from a file that was never a
/// decision log at all (see ExitCodes below; also listed in --help).
///
/// Examples:
///   atmem_obs_check --metrics m.json
///   atmem_obs_check --metrics m.json --trace t.json
///   atmem_obs_check --decision-log run.atdl --metrics m.json
///   atmem_obs_check --decision-log run.atdr   # ring base path
///
//===----------------------------------------------------------------------===//

#include "obs/DecisionLog.h"
#include "obs/Export.h"
#include "obs/Health.h"
#include "obs/Json.h"
#include "obs/RingLog.h"
#include "obs/TimeSeries.h"
#include "support/Options.h"

#include <cstdio>
#include <string>

using namespace atmem;

namespace {

/// Exit codes, most specific wins when several checks fail. Documented in
/// the --help text; keep the two in sync.
enum ExitCodes {
  ExitOk = 0,         ///< Every requested artifact is valid.
  ExitInvalid = 1,    ///< Schema/validation/cross-check failure.
  ExitUsage = 2,      ///< Bad flags or nothing to check.
  ExitEmpty = 3,      ///< Decision log empty (or header-only).
  ExitHeaderless = 4, ///< Decision log lacks the ATDL header entirely.
  ExitTruncated = 5,  ///< Decision log cut off mid-record (torn write).
  ExitCorrupt = 6,    ///< Decision log decodes but violates invariants.
  ExitUnreadable = 7, ///< Decision log cannot be opened/read.
};

int exitCodeFor(obs::DecisionLogHealth Health) {
  switch (Health) {
  case obs::DecisionLogHealth::Ok:
    return ExitOk;
  case obs::DecisionLogHealth::Empty:
    return ExitEmpty;
  case obs::DecisionLogHealth::Headerless:
    return ExitHeaderless;
  case obs::DecisionLogHealth::Truncated:
    return ExitTruncated;
  case obs::DecisionLogHealth::Corrupt:
    return ExitCorrupt;
  case obs::DecisionLogHealth::Unreadable:
    return ExitUnreadable;
  }
  return ExitInvalid;
}

bool checkFile(const std::string &Path, const char *What,
               bool (*Validate)(const obs::JsonValue &, std::string *)) {
  obs::JsonValue Doc;
  std::string Error;
  if (!obs::parseJsonFile(Path, Doc, &Error)) {
    std::fprintf(stderr, "error: %s '%s': %s\n", What, Path.c_str(),
                 Error.c_str());
    return false;
  }
  if (!Validate(Doc, &Error)) {
    std::fprintf(stderr, "error: %s '%s': %s\n", What, Path.c_str(),
                 Error.c_str());
    return false;
  }
  std::printf("%s '%s': ok\n", What, Path.c_str());
  return true;
}

/// Decodes and validates a decision log — a flat atdl-v1 file or an
/// atdr-v1 ring, dispatched transparently. Flat files that fail get a
/// health diagnosis (empty / headerless / truncated / corrupt /
/// unreadable) and the matching exit code via \p ExitCode. When
/// \p MetricsPath names a metrics snapshot from the same run, the log's
/// aggregate counts are cross-checked against its migration.* and
/// analyzer.* counters.
bool checkDecisionLog(const std::string &Path, const std::string &MetricsPath,
                      int &ExitCode) {
  obs::DecisionArtifact Artifact;
  obs::RingRecoveryStats Recovery;
  bool WasRing = false;
  std::string Error;
  if (!obs::readDecisionLogAny(Path, Artifact, &Error, &Recovery, &WasRing)) {
    std::string Detail;
    obs::DecisionLogHealth Health =
        WasRing ? obs::DecisionLogHealth::Unreadable
                : obs::diagnoseDecisionLog(Path, &Detail);
    if (Detail.empty())
      Detail = Error;
    std::fprintf(stderr, "error: decision log '%s': %s: %s\n", Path.c_str(),
                 obs::decisionLogHealthName(Health), Detail.c_str());
    ExitCode = exitCodeFor(Health);
    return false;
  }
  obs::DecisionLogStats Stats;
  if (!obs::validateDecisionLog(Artifact, &Error, &Stats)) {
    std::string Detail;
    obs::DecisionLogHealth Health =
        WasRing ? obs::DecisionLogHealth::Corrupt
                : obs::diagnoseDecisionLog(Path, &Detail);
    std::fprintf(stderr, "error: decision log '%s': %s: %s\n", Path.c_str(),
                 obs::decisionLogHealthName(Health), Error.c_str());
    ExitCode = exitCodeFor(Health);
    return false;
  }
  if (WasRing)
    std::printf("decision ring '%s': salvaged %llu epochs from %llu "
                "segments (%llu frames, %llu torn, %llu dropped head, "
                "%llu dropped tail, %s close)\n",
                Path.c_str(),
                static_cast<unsigned long long>(Recovery.SalvagedEpochs),
                static_cast<unsigned long long>(Recovery.Segments),
                static_cast<unsigned long long>(Recovery.FramesRead),
                static_cast<unsigned long long>(Recovery.TornFrames),
                static_cast<unsigned long long>(Recovery.DroppedHead),
                static_cast<unsigned long long>(Recovery.DroppedTail),
                Recovery.CleanClose ? "clean" : "crash");
  std::printf("decision log '%s': ok (%zu records, %llu epochs, "
              "%llu objects, %llu chunk decisions, %llu promoted)\n",
              Path.c_str(), Artifact.Records.size(),
              static_cast<unsigned long long>(Stats.Epochs),
              static_cast<unsigned long long>(Stats.Objects),
              static_cast<unsigned long long>(Stats.Chunks),
              static_cast<unsigned long long>(Stats.PromotedChunks));

  if (MetricsPath.empty())
    return true;
  obs::JsonValue Metrics;
  if (!obs::parseJsonFile(MetricsPath, Metrics, &Error)) {
    std::fprintf(stderr, "error: metrics '%s': %s\n", MetricsPath.c_str(),
                 Error.c_str());
    return false;
  }
  if (!obs::crossCheckDecisionMetrics(Artifact, Metrics, &Error)) {
    std::fprintf(stderr,
                 "error: decision log '%s' vs metrics '%s': %s\n",
                 Path.c_str(), MetricsPath.c_str(), Error.c_str());
    return false;
  }
  std::printf("decision log '%s' vs metrics '%s': counters consistent\n",
              Path.c_str(), MetricsPath.c_str());
  return true;
}

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

/// Validates an atmem-timeseries-v1 JSONL file: schema header, per-line
/// parse, monotone epochs (a reset to a non-increasing epoch starts a new
/// run segment — bench batches share one file), and field-range checks on
/// the ratio fields the serializer guarantees are finite and bounded.
bool checkTimeSeries(const std::string &Path) {
  std::string Error;
  std::string Text = readFileToString(Path, &Error);
  if (Text.empty() && !Error.empty()) {
    std::fprintf(stderr, "error: timeseries '%s': %s\n", Path.c_str(),
                 Error.c_str());
    return false;
  }
  std::vector<obs::EpochSample> Samples;
  if (!obs::parseTimeSeriesJsonl(Text, Samples, &Error)) {
    std::fprintf(stderr, "error: timeseries '%s': %s\n", Path.c_str(),
                 Error.c_str());
    return false;
  }
  auto Fail = [&](size_t Index, const std::string &Message) {
    std::fprintf(stderr, "error: timeseries '%s': sample %zu: %s\n",
                 Path.c_str(), Index, Message.c_str());
    return false;
  };
  uint64_t Prev = 0;
  size_t Segments = 0;
  for (size_t I = 0; I < Samples.size(); ++I) {
    const obs::EpochSample &S = Samples[I];
    if (S.Epoch == 0)
      return Fail(I, "epoch is 0 (epochs are 1-based)");
    if (I == 0 || S.Epoch <= Prev) {
      // New run segment: it must restart at epoch 1.
      if (S.Epoch != 1)
        return Fail(I, "epoch " + std::to_string(S.Epoch) +
                           " does not continue " + std::to_string(Prev) +
                           " and does not restart a segment at 1");
      ++Segments;
    } else if (S.Epoch != Prev + 1) {
      return Fail(I, "epoch jumps from " + std::to_string(Prev) + " to " +
                         std::to_string(S.Epoch));
    }
    Prev = S.Epoch;
    if (S.SlowMissFraction < 0.0 || S.SlowMissFraction > 1.0)
      return Fail(I, "slow_miss_fraction outside [0,1]");
    if (S.FastDataRatio < 0.0 || S.FastDataRatio > 1.0)
      return Fail(I, "fast_data_ratio outside [0,1]");
    if (S.OptimizeWallUs < 0.0 || S.IterationWallUs < 0.0)
      return Fail(I, "negative wall-clock field");
    if (S.DrainMissesPerSec < 0.0 || S.MigrateSimSec < 0.0)
      return Fail(I, "negative rate or duration field");
    if (S.MissesFast + S.MissesSlow > S.Accesses)
      return Fail(I, "tier misses exceed accesses");
  }
  std::printf("timeseries '%s': ok (%zu epochs, %zu run segment%s)\n",
              Path.c_str(), Samples.size(), Segments,
              Segments == 1 ? "" : "s");
  return true;
}

/// Validates an OpenMetrics exposition file: at least one # TYPE family
/// and the mandatory "# EOF" terminator as the final line.
bool checkOpenMetrics(const std::string &Path) {
  std::string Error;
  std::string Text = readFileToString(Path, &Error);
  if (Text.empty()) {
    std::fprintf(stderr, "error: openmetrics '%s': %s\n", Path.c_str(),
                 Error.empty() ? "empty file" : Error.c_str());
    return false;
  }
  if (Text.find("# TYPE ") == std::string::npos) {
    std::fprintf(stderr, "error: openmetrics '%s': no # TYPE family\n",
                 Path.c_str());
    return false;
  }
  // Strip one trailing newline, then require the last line be "# EOF".
  std::string Body = Text;
  if (!Body.empty() && Body.back() == '\n')
    Body.pop_back();
  size_t LastLine = Body.rfind('\n');
  std::string Last =
      LastLine == std::string::npos ? Body : Body.substr(LastLine + 1);
  if (Last != "# EOF") {
    std::fprintf(stderr,
                 "error: openmetrics '%s': missing \"# EOF\" terminator "
                 "(file may be truncated)\n",
                 Path.c_str());
    return false;
  }
  std::printf("openmetrics '%s': ok\n", Path.c_str());
  return true;
}

/// Validates an atmem-health-v1 event log, mapping failures onto the
/// decision-log triage classes: unreadable I/O is ExitUnreadable, a
/// missing schema header is ExitHeaderless, and a malformed event line is
/// ExitCorrupt. A header-only log is healthy (a clean run has no events).
bool checkHealthLog(const std::string &Path, int &ExitCode) {
  std::string Error;
  std::string Text = readFileToString(Path, &Error);
  if (Text.empty() && !Error.empty()) {
    std::fprintf(stderr, "error: health log '%s': %s\n", Path.c_str(),
                 Error.c_str());
    ExitCode = ExitUnreadable;
    return false;
  }
  std::vector<obs::HealthEvent> Events;
  if (!obs::parseHealthLog(Text, Events, &Error)) {
    bool NoHeader = Text.empty() ||
                    Error.find("schema") != std::string::npos;
    std::fprintf(stderr, "error: health log '%s': %s\n", Path.c_str(),
                 Error.c_str());
    ExitCode = NoHeader ? ExitHeaderless : ExitCorrupt;
    return false;
  }
  uint64_t Warn = 0, Critical = 0;
  for (const obs::HealthEvent &E : Events) {
    if (E.Severity == obs::HealthSeverity::Warn)
      ++Warn;
    else if (E.Severity == obs::HealthSeverity::Critical)
      ++Critical;
  }
  std::printf("health log '%s': ok (%zu events, %llu warn, %llu critical)\n",
              Path.c_str(), Events.size(),
              static_cast<unsigned long long>(Warn),
              static_cast<unsigned long long>(Critical));
  return true;
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Parser(
      "atmem_obs_check: validate telemetry artifacts (metrics snapshots, "
      "Chrome trace exports, placement-decision flight recorder files or "
      "rings, per-epoch time-series JSONL, OpenMetrics expositions, and "
      "health event logs).\n"
      "Exit codes: 0 all artifacts valid; 1 schema/validation/cross-check "
      "failure; 2 usage error; decision-log and health-log classes: "
      "3 empty, 4 headerless (not such a log), 5 truncated (torn write), "
      "6 corrupt (decodes but violates invariants), 7 unreadable (I/O).");
  Parser.addString("metrics", "",
                   "atmem-metrics-v1 snapshot to validate ('' skips); with "
                   "--decision-log, also cross-checked against the log");
  Parser.addString("trace", "",
                   "Chrome trace-event JSON to validate ('' skips)");
  Parser.addString("decision-log", "",
                   "atdl-v1 decision log or atdr-v1 ring (base path or any "
                   "segment) to validate ('' skips)");
  Parser.addString("timeseries", "",
                   "atmem-timeseries-v1 per-epoch JSONL to validate "
                   "('' skips)");
  Parser.addString("openmetrics", "",
                   "OpenMetrics exposition file to validate ('' skips)");
  Parser.addString("health-log", "",
                   "atmem-health-v1 event log to validate ('' skips)");
  if (!Parser.parse(Argc, Argv))
    return ExitUsage;

  std::string MetricsPath = Parser.getString("metrics");
  std::string TracePath = Parser.getString("trace");
  std::string DecisionPath = Parser.getString("decision-log");
  std::string TimeSeriesPath = Parser.getString("timeseries");
  std::string OpenMetricsPath = Parser.getString("openmetrics");
  std::string HealthLogPath = Parser.getString("health-log");
  if (MetricsPath.empty() && TracePath.empty() && DecisionPath.empty() &&
      TimeSeriesPath.empty() && OpenMetricsPath.empty() &&
      HealthLogPath.empty()) {
    std::fprintf(stderr,
                 "error: nothing to check (pass --metrics, --trace, "
                 "--decision-log, --timeseries, --openmetrics and/or "
                 "--health-log)\n");
    return ExitUsage;
  }

  bool Ok = true;
  int ExitCode = ExitInvalid;
  if (!MetricsPath.empty())
    Ok = checkFile(MetricsPath, "metrics", obs::validateMetricsJson) && Ok;
  if (!TracePath.empty())
    Ok = checkFile(TracePath, "trace", obs::validateTraceJson) && Ok;
  if (!TimeSeriesPath.empty())
    Ok = checkTimeSeries(TimeSeriesPath) && Ok;
  if (!OpenMetricsPath.empty())
    Ok = checkOpenMetrics(OpenMetricsPath) && Ok;
  if (!HealthLogPath.empty()) {
    int HealthExit = ExitInvalid;
    if (!checkHealthLog(HealthLogPath, HealthExit)) {
      Ok = false;
      ExitCode = HealthExit;
    }
  }
  if (!DecisionPath.empty()) {
    int LogExit = ExitInvalid;
    if (!checkDecisionLog(DecisionPath, MetricsPath, LogExit)) {
      Ok = false;
      ExitCode = LogExit; // The health class is the most specific signal.
    }
  }
  return Ok ? ExitOk : ExitCode;
}
