//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming health detectors, the atmem-health-v1 JSONL event log,
/// and the offline replay the doctor tool builds on. All detector math is
/// deterministic: the same epoch stream (plus the same migration notes)
/// produces the same event sequence online and offline.
///
//===----------------------------------------------------------------------===//

#include "obs/Health.h"

#include "fault/FaultInjection.h"
#include "obs/DecisionLog.h"
#include "obs/Json.h"
#include "obs/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace atmem {
namespace obs {

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

const char *healthSeverityName(HealthSeverity Severity) {
  switch (Severity) {
  case HealthSeverity::Info:
    return "info";
  case HealthSeverity::Warn:
    return "warn";
  case HealthSeverity::Critical:
    return "critical";
  }
  return "unknown";
}

const char *healthDetectorName(HealthDetector Detector) {
  switch (Detector) {
  case HealthDetector::SlowMissRegression:
    return "slow_miss_regression";
  case HealthDetector::MigrationStorm:
    return "migration_storm";
  case HealthDetector::PingPong:
    return "ping_pong";
  case HealthDetector::OverheadBudget:
    return "overhead_budget";
  case HealthDetector::StalePlacement:
    return "stale_placement";
  }
  return "unknown";
}

const char *sloStatusName(SloStatus Status) {
  switch (Status) {
  case SloStatus::Green:
    return "green";
  case SloStatus::Yellow:
    return "yellow";
  case SloStatus::Red:
    return "red";
  }
  return "unknown";
}

bool healthDetectorFromName(const std::string &Name, HealthDetector &Out) {
  for (uint32_t D = 0; D < NumHealthDetectors; ++D)
    if (Name == healthDetectorName(static_cast<HealthDetector>(D))) {
      Out = static_cast<HealthDetector>(D);
      return true;
    }
  return false;
}

bool healthSeverityFromName(const std::string &Name, HealthSeverity &Out) {
  for (HealthSeverity S : {HealthSeverity::Info, HealthSeverity::Warn,
                           HealthSeverity::Critical})
    if (Name == healthSeverityName(S)) {
      Out = S;
      return true;
    }
  return false;
}

//===----------------------------------------------------------------------===//
// Knob spec
//===----------------------------------------------------------------------===//

const char *healthKnobsHelp() {
  return "comma-separated detector overrides, e.g. "
         "\"warmup_epochs=2,cusum_warn=0.1,storm_min_ranges=4\" "
         "(see docs/observability.md for the knob catalogue)";
}

bool parseHealthKnobs(const std::string &Spec, HealthConfig &Out,
                      std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message;
    return false;
  };
  HealthConfig Cfg = Out;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Entry = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Entry.empty())
      continue;
    size_t Eq = Entry.find('=');
    if (Eq == std::string::npos)
      return Fail("knob entry '" + Entry + "' lacks '='");
    std::string Key = Entry.substr(0, Eq);
    std::string Val = Entry.substr(Eq + 1);
    char *Rest = nullptr;
    double D = std::strtod(Val.c_str(), &Rest);
    if (Val.empty() || Rest == Val.c_str() || *Rest != '\0')
      return Fail("knob '" + Key + "' has malformed value '" + Val + "'");
    auto U32 = [&](uint32_t &Field) { Field = static_cast<uint32_t>(D); };
    auto U64 = [&](uint64_t &Field) { Field = static_cast<uint64_t>(D); };
    if (Key == "ewma_alpha")
      Cfg.EwmaAlpha = D;
    else if (Key == "cusum_slack")
      Cfg.CusumSlack = D;
    else if (Key == "cusum_warn")
      Cfg.CusumWarn = D;
    else if (Key == "cusum_critical")
      Cfg.CusumCritical = D;
    else if (Key == "warmup_epochs")
      U32(Cfg.WarmupEpochs);
    else if (Key == "storm_warn_factor")
      Cfg.StormWarnFactor = D;
    else if (Key == "storm_critical_factor")
      Cfg.StormCriticalFactor = D;
    else if (Key == "storm_min_ranges")
      U64(Cfg.StormMinRanges);
    else if (Key == "pingpong_window")
      U32(Cfg.PingPongWindowEpochs);
    else if (Key == "pingpong_warn_flips")
      U32(Cfg.PingPongWarnFlips);
    else if (Key == "pingpong_critical_flips")
      U32(Cfg.PingPongCriticalFlips);
    else if (Key == "overhead_warn")
      Cfg.OverheadWarnFraction = D;
    else if (Key == "overhead_critical")
      Cfg.OverheadCriticalFraction = D;
    else if (Key == "stale_warn_epochs")
      U32(Cfg.StaleWarnEpochs);
    else if (Key == "stale_critical_epochs")
      U32(Cfg.StaleCriticalEpochs);
    else if (Key == "stale_slow_miss")
      Cfg.StaleSlowMissFraction = D;
    else
      return Fail("unknown health knob '" + Key + "'");
  }
  Out = Cfg;
  return true;
}

//===----------------------------------------------------------------------===//
// HealthMonitor
//===----------------------------------------------------------------------===//

namespace {

/// Per-chunk ping-pong direction history.
struct ChunkFlips {
  uint8_t LastDir = 2; ///< 0 = to slow, 1 = to fast, 2 = unseen.
  /// Epochs of recent direction flips (pruned to the window).
  std::vector<uint64_t> FlipEpochs;
};

std::string formatDetail(const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

} // namespace

struct HealthMonitor::Impl {
  mutable std::mutex Mutex;

  DetectorState Dets[NumHealthDetectors];
  uint64_t EventsInfo = 0;
  uint64_t EventsWarn = 0;
  uint64_t EventsCritical = 0;
  uint64_t EpochsSeen = 0;
  uint64_t LastEpoch = 0;

  /// SlowMissRegression state.
  double SmfBaseline = 0.0;
  double Cusum = 0.0;
  bool HaveSmfBaseline = false;

  /// MigrationStorm state.
  double StormBaseline = 0.0;
  bool HaveStormBaseline = false;

  /// PingPong state: (object << 32 | chunk) -> flip history, plus the
  /// moves noted since the previous epoch boundary.
  struct PendingMove {
    uint64_t Object;
    uint32_t FirstChunk;
    uint32_t NumChunks;
    bool ToFast;
  };
  std::vector<PendingMove> PendingMoves;
  std::unordered_map<uint64_t, ChunkFlips> Flips;

  /// StalePlacement streak.
  uint64_t StaleStreak = 0;

  /// Applies the candidate verdict to detector \p D, emitting an event on
  /// every state transition (escalation, easing, recovery) and none on a
  /// steady state — the dedup/rate-limit contract.
  void transition(uint32_t D, uint64_t Epoch, SloStatus Cand, double Value,
                  double Threshold, std::string Detail,
                  std::vector<HealthEvent> &Out) {
    DetectorState &S = Dets[D];
    S.Value = Value;
    if (Cand == S.Status)
      return;
    HealthEvent E;
    E.Epoch = Epoch;
    E.Detector = static_cast<HealthDetector>(D);
    E.Value = Value;
    E.Threshold = Threshold;
    if (Cand == SloStatus::Green) {
      E.Severity = HealthSeverity::Info;
      E.Detail = "recovered";
      if (!Detail.empty())
        E.Detail += ": " + Detail;
    } else if (Cand == SloStatus::Red) {
      E.Severity = HealthSeverity::Critical;
      E.Detail = std::move(Detail);
    } else {
      E.Severity = HealthSeverity::Warn;
      E.Detail = S.Status == SloStatus::Red ? "easing: " + Detail
                                            : std::move(Detail);
    }
    S.Status = Cand;
    S.Worst = std::max(S.Worst, Cand);
    ++S.Events;
    S.LastEventEpoch = Epoch;
    S.Detail = E.Detail;
    switch (E.Severity) {
    case HealthSeverity::Info:
      ++EventsInfo;
      break;
    case HealthSeverity::Warn:
      ++EventsWarn;
      break;
    case HealthSeverity::Critical:
      ++EventsCritical;
      break;
    }
    Out.push_back(std::move(E));
  }
};

HealthMonitor::HealthMonitor(HealthConfig ConfigIn)
    : Config(ConfigIn), I(new Impl()) {}

HealthMonitor::~HealthMonitor() { delete I; }

void HealthMonitor::noteMigration(uint64_t Object, uint32_t FirstChunk,
                                  uint32_t NumChunks, bool ToFast) {
  if (NumChunks == 0)
    return;
  std::lock_guard<std::mutex> Lock(I->Mutex);
  I->PendingMoves.push_back({Object, FirstChunk, NumChunks, ToFast});
}

std::vector<HealthEvent>
HealthMonitor::observeEpoch(const EpochSample &Sample) {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  std::vector<HealthEvent> Out;
  ++I->EpochsSeen;
  I->LastEpoch = Sample.Epoch;
  const bool Warm = I->EpochsSeen > Config.WarmupEpochs;
  auto Ewma = [&](double &Baseline, bool &Have, double Value) {
    if (!Have) {
      Baseline = Value;
      Have = true;
    } else {
      Baseline += Config.EwmaAlpha * (Value - Baseline);
    }
  };

  // --- SlowMissRegression: one-sided CUSUM over an EWMA baseline. The
  // baseline only learns while the detector is green (and during warmup),
  // so a sustained regression cannot absorb itself into normality.
  {
    double Smf = Sample.SlowMissFraction;
    SloStatus Cand = SloStatus::Green;
    if (!Warm) {
      Ewma(I->SmfBaseline, I->HaveSmfBaseline, Smf);
    } else {
      double Excess = Smf - (I->SmfBaseline + Config.CusumSlack);
      I->Cusum = std::max(0.0, I->Cusum + Excess);
      Cand = I->Cusum >= Config.CusumCritical  ? SloStatus::Red
             : I->Cusum >= Config.CusumWarn    ? SloStatus::Yellow
                                               : SloStatus::Green;
      if (Cand == SloStatus::Green)
        Ewma(I->SmfBaseline, I->HaveSmfBaseline, Smf);
    }
    double Threshold = Cand == SloStatus::Red ? Config.CusumCritical
                                              : Config.CusumWarn;
    I->transition(
        static_cast<uint32_t>(HealthDetector::SlowMissRegression),
        Sample.Epoch, Cand, I->Cusum, Threshold,
        formatDetail("slow_miss_fraction %.4f vs baseline %.4f (cusum %.4f)",
                     Smf, I->SmfBaseline, I->Cusum),
        Out);
  }

  // --- MigrationStorm: committed ranges + retries + rollbacks, judged as
  // a multiple of their own EWMA baseline (floored at 1 so a perfectly
  // quiet history cannot make the first real migration a "storm" by
  // division alone — the absolute floor still gates).
  {
    double Activity = static_cast<double>(Sample.MigrationRanges +
                                          Sample.Retries + Sample.Rollbacks);
    SloStatus Cand = SloStatus::Green;
    double Factor = 0.0;
    if (!Warm) {
      Ewma(I->StormBaseline, I->HaveStormBaseline, Activity);
    } else {
      double Base = std::max(I->StormBaseline, 1.0);
      Factor = Activity / Base;
      bool BigEnough =
          Activity >= static_cast<double>(Config.StormMinRanges);
      Cand = BigEnough && Factor >= Config.StormCriticalFactor
                 ? SloStatus::Red
             : BigEnough && Factor >= Config.StormWarnFactor
                 ? SloStatus::Yellow
                 : SloStatus::Green;
      if (Cand == SloStatus::Green)
        Ewma(I->StormBaseline, I->HaveStormBaseline, Activity);
    }
    double Threshold = Cand == SloStatus::Red ? Config.StormCriticalFactor
                                              : Config.StormWarnFactor;
    I->transition(
        static_cast<uint32_t>(HealthDetector::MigrationStorm), Sample.Epoch,
        Cand, Factor, Threshold,
        formatDetail("%.0f migration ranges+retries+rollbacks vs baseline "
                     "%.2f (%.1fx)",
                     Activity, I->StormBaseline, Factor),
        Out);
  }

  // --- PingPong: per-chunk direction flips inside a sliding window. The
  // moves noted since the last boundary are stamped with this epoch.
  {
    for (const Impl::PendingMove &Move : I->PendingMoves) {
      uint8_t Dir = Move.ToFast ? 1 : 0;
      for (uint32_t C = Move.FirstChunk;
           C < Move.FirstChunk + Move.NumChunks; ++C) {
        ChunkFlips &F = I->Flips[(Move.Object << 32) | C];
        if (F.LastDir != 2 && F.LastDir != Dir)
          F.FlipEpochs.push_back(Sample.Epoch);
        F.LastDir = Dir;
      }
    }
    I->PendingMoves.clear();
    uint64_t WindowStart =
        Sample.Epoch >= Config.PingPongWindowEpochs
            ? Sample.Epoch - Config.PingPongWindowEpochs + 1
            : 0;
    uint64_t MaxFlips = 0;
    uint64_t WorstKey = 0;
    for (auto &[Key, F] : I->Flips) {
      F.FlipEpochs.erase(
          std::remove_if(F.FlipEpochs.begin(), F.FlipEpochs.end(),
                         [&](uint64_t E) { return E < WindowStart; }),
          F.FlipEpochs.end());
      uint64_t N = F.FlipEpochs.size();
      // Deterministic tie-break on the key so iteration order of the hash
      // map never changes which chunk the event names.
      if (N > MaxFlips || (N == MaxFlips && N > 0 && Key < WorstKey)) {
        MaxFlips = N;
        WorstKey = Key;
      }
    }
    SloStatus Cand = MaxFlips >= Config.PingPongCriticalFlips
                         ? SloStatus::Red
                     : MaxFlips >= Config.PingPongWarnFlips
                         ? SloStatus::Yellow
                         : SloStatus::Green;
    double Threshold = Cand == SloStatus::Red
                           ? Config.PingPongCriticalFlips
                           : Config.PingPongWarnFlips;
    I->transition(
        static_cast<uint32_t>(HealthDetector::PingPong), Sample.Epoch, Cand,
        static_cast<double>(MaxFlips), Threshold,
        formatDetail("object %" PRIu64 " chunk %u flipped tiers %" PRIu64
                     " times in %u epochs",
                     WorstKey >> 32,
                     static_cast<uint32_t>(WorstKey & 0xffffffffu), MaxFlips,
                     Config.PingPongWindowEpochs),
        Out);
  }

  // --- OverheadBudget: optimize() wall as a fraction of the iteration
  // wall it bounds. Epochs without an iteration measurement stay green.
  {
    SloStatus Cand = SloStatus::Green;
    double Frac = 0.0;
    if (Sample.IterationWallUs > 0.0) {
      Frac = Sample.OptimizeWallUs / Sample.IterationWallUs;
      Cand = Frac >= Config.OverheadCriticalFraction ? SloStatus::Red
             : Frac >= Config.OverheadWarnFraction   ? SloStatus::Yellow
                                                     : SloStatus::Green;
    }
    double Threshold = Cand == SloStatus::Red
                           ? Config.OverheadCriticalFraction
                           : Config.OverheadWarnFraction;
    I->transition(
        static_cast<uint32_t>(HealthDetector::OverheadBudget), Sample.Epoch,
        Cand, Frac, Threshold,
        formatDetail("optimize %.0f us vs iteration %.0f us (%.2fx)",
                     Sample.OptimizeWallUs, Sample.IterationWallUs, Frac),
        Out);
  }

  // --- StalePlacement: epochs in a row where nothing migrated while the
  // slow tier keeps eating misses — the runtime stopped adapting.
  {
    bool Stale = Sample.MigrationRanges == 0 &&
                 Sample.SlowMissFraction >= Config.StaleSlowMissFraction;
    I->StaleStreak = Stale ? I->StaleStreak + 1 : 0;
    SloStatus Cand = I->StaleStreak >= Config.StaleCriticalEpochs
                         ? SloStatus::Red
                     : I->StaleStreak >= Config.StaleWarnEpochs
                         ? SloStatus::Yellow
                         : SloStatus::Green;
    double Threshold = Cand == SloStatus::Red ? Config.StaleCriticalEpochs
                                              : Config.StaleWarnEpochs;
    I->transition(
        static_cast<uint32_t>(HealthDetector::StalePlacement), Sample.Epoch,
        Cand, static_cast<double>(I->StaleStreak), Threshold,
        formatDetail("%" PRIu64 " epochs without migrations at "
                     "slow_miss_fraction %.4f",
                     I->StaleStreak, Sample.SlowMissFraction),
        Out);
  }

  return Out;
}

HealthMonitor::Snapshot HealthMonitor::snapshot() const {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  Snapshot Out;
  for (uint32_t D = 0; D < NumHealthDetectors; ++D) {
    Out.Detectors[D] = I->Dets[D];
    Out.Overall = std::max(Out.Overall, I->Dets[D].Status);
    Out.WorstOverall = std::max(Out.WorstOverall, I->Dets[D].Worst);
  }
  Out.EventsInfo = I->EventsInfo;
  Out.EventsWarn = I->EventsWarn;
  Out.EventsCritical = I->EventsCritical;
  Out.LastEpoch = I->LastEpoch;
  return Out;
}

//===----------------------------------------------------------------------===//
// Process-wide default enable (bench harness)
//===----------------------------------------------------------------------===//

namespace {
std::atomic<bool> GHealthDefaultEnabled{false};
std::mutex GHealthDefaultMutex;
HealthConfig GHealthDefaultConfig;
} // namespace

void setHealthDefaultEnabled(bool On, const HealthConfig &Config) {
  std::lock_guard<std::mutex> Lock(GHealthDefaultMutex);
  GHealthDefaultConfig = Config;
  GHealthDefaultEnabled.store(On, std::memory_order_relaxed);
}

bool healthDefaultEnabled() {
  return GHealthDefaultEnabled.load(std::memory_order_relaxed);
}

HealthConfig healthDefaultConfig() {
  std::lock_guard<std::mutex> Lock(GHealthDefaultMutex);
  return GHealthDefaultConfig;
}

//===----------------------------------------------------------------------===//
// HealthLog
//===----------------------------------------------------------------------===//

namespace {

void countEmitFailed() {
  if (obs::enabled()) {
    static obs::Counter Failed("health.emit_failed");
    Failed.add(1);
  }
}

std::string escapeJsonString(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    // The short escapes round-trip through obs::parseJson (which passes
    // \uXXXX through verbatim by design); other control characters never
    // appear in detector detail strings.
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    if (C == '\t') {
      Out += "\\t";
      continue;
    }
    if (C == '\r') {
      Out += "\\r";
      continue;
    }
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

void appendFiniteDouble(std::string &Out, double V) {
  if (!std::isfinite(V)) {
    Out += "0";
    return;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
}

} // namespace

std::string healthEventJson(const HealthEvent &Event) {
  std::string Out;
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "{\"epoch\":%" PRIu64 ",\"detector\":\"",
                Event.Epoch);
  Out += Buf;
  Out += healthDetectorName(Event.Detector);
  Out += "\",\"severity\":\"";
  Out += healthSeverityName(Event.Severity);
  Out += "\",\"value\":";
  appendFiniteDouble(Out, Event.Value);
  Out += ",\"threshold\":";
  appendFiniteDouble(Out, Event.Threshold);
  Out += ",\"detail\":\"";
  Out += escapeJsonString(Event.Detail);
  Out += "\"}";
  return Out;
}

bool parseHealthLog(const std::string &Text, std::vector<HealthEvent> &Out,
                    std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message;
    return false;
  };
  size_t Pos = 0;
  size_t LineNo = 0;
  bool SawHeader = false;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    if (Line.empty())
      continue;
    JsonValue Doc;
    std::string ParseError;
    if (!parseJson(Line, Doc, &ParseError))
      return Fail("line " + std::to_string(LineNo) + ": " + ParseError);
    if (!SawHeader) {
      const JsonValue *Schema = Doc.findString("schema");
      if (!Schema || Schema->StringVal != "atmem-health-v1")
        return Fail("line 1 is not an atmem-health-v1 schema header");
      SawHeader = true;
      continue;
    }
    const JsonValue *Epoch = Doc.findNumber("epoch");
    const JsonValue *Detector = Doc.findString("detector");
    const JsonValue *Severity = Doc.findString("severity");
    const JsonValue *Value = Doc.findNumber("value");
    const JsonValue *Threshold = Doc.findNumber("threshold");
    const JsonValue *Detail = Doc.findString("detail");
    if (!Epoch || !Detector || !Severity || !Value || !Threshold || !Detail)
      return Fail("line " + std::to_string(LineNo) +
                  " lacks a required event field");
    HealthEvent E;
    E.Epoch = static_cast<uint64_t>(Epoch->NumberVal);
    if (!healthDetectorFromName(Detector->StringVal, E.Detector))
      return Fail("line " + std::to_string(LineNo) + " names unknown "
                  "detector '" + Detector->StringVal + "'");
    if (!healthSeverityFromName(Severity->StringVal, E.Severity))
      return Fail("line " + std::to_string(LineNo) + " names unknown "
                  "severity '" + Severity->StringVal + "'");
    E.Value = Value->NumberVal;
    E.Threshold = Threshold->NumberVal;
    E.Detail = Detail->StringVal;
    Out.push_back(std::move(E));
  }
  if (!SawHeader)
    return Fail("empty document (no schema header)");
  return true;
}

struct HealthLog::Impl {
  std::mutex Mutex;
  std::FILE *File = nullptr;
  std::string Path;
  uint64_t Dropped = 0;
  bool WriteFailed = false;
  fault::Site EmitSite{"obs.health_emit"};
};

HealthLog::Impl &HealthLog::impl() {
  static Impl I;
  return I;
}

HealthLog &HealthLog::instance() {
  static HealthLog Log;
  return Log;
}

bool HealthLog::open(const std::string &Path, std::string *Error) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (I.File)
    return true; // First opener wins; later runtimes share the stream.
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  const char Header[] = "{\"schema\":\"atmem-health-v1\"}\n";
  if (std::fwrite(Header, 1, sizeof(Header) - 1, File) !=
      sizeof(Header) - 1) {
    std::fclose(File);
    if (Error)
      *Error = "cannot write header to '" + Path + "'";
    return false;
  }
  I.File = File;
  I.Path = Path;
  I.Dropped = 0;
  I.WriteFailed = false;
  return true;
}

bool HealthLog::isOpen() const {
  Impl &I = const_cast<HealthLog *>(this)->impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  return I.File != nullptr;
}

std::string HealthLog::path() const {
  Impl &I = const_cast<HealthLog *>(this)->impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  return I.Path;
}

void HealthLog::append(const HealthEvent &Event) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (!I.File)
    return;
  // Graceful degradation (the RingSink pattern): a fired fault or a
  // failed write drops this line and latches the counter; the monitor,
  // the stats snapshot, and placement itself never notice.
  if (I.EmitSite.shouldFail()) {
    ++I.Dropped;
    countEmitFailed();
    return;
  }
  std::string Line = healthEventJson(Event);
  Line += "\n";
  if (std::fwrite(Line.data(), 1, Line.size(), I.File) != Line.size()) {
    ++I.Dropped;
    I.WriteFailed = true;
    countEmitFailed();
  }
}

bool HealthLog::close(std::string *Error) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (!I.File)
    return true;
  bool Ok = !I.WriteFailed;
  if (std::fclose(I.File) != 0)
    Ok = false;
  I.File = nullptr;
  I.Path.clear();
  if (!Ok && Error)
    *Error = "health log lost events to write failures";
  return Ok;
}

uint64_t HealthLog::dropped() const {
  Impl &I = const_cast<HealthLog *>(this)->impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  return I.Dropped;
}

//===----------------------------------------------------------------------===//
// Offline replay
//===----------------------------------------------------------------------===//

HealthReport replayHealth(const HealthConfig &Config,
                          const std::vector<EpochSample> &Samples,
                          const DecisionArtifact *Artifact,
                          uint64_t ArtifactEpochBase) {
  // Committed migration events per decision-log epoch (the ping-pong
  // detector's offline input).
  std::unordered_map<uint64_t, std::vector<const MigrationEventRecord *>>
      Committed;
  if (Artifact)
    for (const DecisionRecord &Rec : Artifact->Records)
      if (Rec.Kind == DecisionKind::MigrationEvent &&
          Rec.Migration.Phase == DecisionPhase::Committed)
        Committed[Rec.Migration.Epoch].push_back(&Rec.Migration);

  HealthMonitor Monitor(Config);
  HealthReport Report;
  for (const EpochSample &S : Samples) {
    auto It = Committed.find(ArtifactEpochBase + S.Epoch);
    if (It != Committed.end())
      for (const MigrationEventRecord *Mig : It->second)
        Monitor.noteMigration(Mig->Object, Mig->FirstChunk, Mig->NumChunks,
                              Mig->TargetFast != 0);
    std::vector<HealthEvent> Events = Monitor.observeEpoch(S);
    Report.Events.insert(Report.Events.end(), Events.begin(), Events.end());
  }
  HealthMonitor::Snapshot Snap = Monitor.snapshot();
  Report.Overall = Snap.WorstOverall;
  for (uint32_t D = 0; D < NumHealthDetectors; ++D)
    Report.Worst[D] = Snap.Detectors[D].Worst;
  Report.Epochs = Samples.size();
  return Report;
}

} // namespace obs
} // namespace atmem
