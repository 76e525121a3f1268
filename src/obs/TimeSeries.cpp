//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Epoch time-series store and the JSONL / OpenMetrics serializers.
///
//===----------------------------------------------------------------------===//

#include "obs/TimeSeries.h"

#include "obs/Json.h"

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <mutex>

namespace atmem {
namespace obs {

struct TimeSeries::Impl {
  std::atomic<bool> Enabled{false};
  mutable std::mutex Mutex;
  std::vector<EpochSample> Samples;
};

TimeSeries::TimeSeries() : I(new Impl()) {}

TimeSeries &TimeSeries::instance() {
  static TimeSeries TS;
  return TS;
}

bool TimeSeries::enabled() const {
  return I->Enabled.load(std::memory_order_relaxed);
}

void TimeSeries::setEnabled(bool On) {
  I->Enabled.store(On, std::memory_order_relaxed);
}

void TimeSeries::record(const EpochSample &Sample) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(I->Mutex);
  I->Samples.push_back(Sample);
}

std::vector<EpochSample> TimeSeries::snapshot() const {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  return I->Samples;
}

void TimeSeries::clear() {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  I->Samples.clear();
}

namespace {

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  int N = vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  if (N > 0)
    Out.append(Buf, static_cast<size_t>(N) < sizeof(Buf)
                        ? static_cast<size_t>(N)
                        : sizeof(Buf) - 1);
}

/// %.17g round-trips doubles exactly; integers print without exponent.
/// Non-finite values serialize as 0 — a ratio field poisoned by an inf/nan
/// intermediate must not produce invalid JSON or OpenMetrics text.
void appendDouble(std::string &Out, double Value) {
  if (!std::isfinite(Value)) {
    Out += '0';
    return;
  }
  appendf(Out, "%.17g", Value);
}

bool writeStringToFile(const std::string &Path, const std::string &Body,
                       std::string *Error) {
  FILE *File = fopen(Path.c_str(), "wb");
  if (!File) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  size_t Written = fwrite(Body.data(), 1, Body.size(), File);
  bool Ok = Written == Body.size();
  if (fclose(File) != 0)
    Ok = false;
  if (!Ok && Error)
    *Error = "write failure on '" + Path + "'";
  return Ok;
}

} // namespace

std::string timeSeriesJsonl(const std::vector<EpochSample> &Samples) {
  std::string Out;
  appendf(Out, "{\"schema\":\"atmem-timeseries-v1\",\"epochs\":%zu}\n",
          Samples.size());
  for (const EpochSample &S : Samples) {
    appendf(Out,
            "{\"epoch\":%" PRIu64 ",\"accesses\":%" PRIu64
            ",\"misses_fast\":%" PRIu64 ",\"misses_slow\":%" PRIu64,
            S.Epoch, S.Accesses, S.MissesFast, S.MissesSlow);
    Out += ",\"slow_miss_fraction\":";
    appendDouble(Out, S.SlowMissFraction);
    Out += ",\"drain_misses_per_sec\":";
    appendDouble(Out, S.DrainMissesPerSec);
    appendf(Out,
            ",\"migration_bytes\":%" PRIu64 ",\"migration_ranges\":%" PRIu64
            ",\"retries\":%" PRIu64 ",\"rollbacks\":%" PRIu64,
            S.MigrationBytes, S.MigrationRanges, S.Retries, S.Rollbacks);
    Out += ",\"migrate_sim_sec\":";
    appendDouble(Out, S.MigrateSimSec);
    Out += ",\"fast_data_ratio\":";
    appendDouble(Out, S.FastDataRatio);
    Out += ",\"optimize_wall_us\":";
    appendDouble(Out, S.OptimizeWallUs);
    Out += ",\"iteration_wall_us\":";
    appendDouble(Out, S.IterationWallUs);
    Out += "}\n";
  }
  return Out;
}

bool parseTimeSeriesJsonl(const std::string &Text,
                          std::vector<EpochSample> &Out, std::string *Error) {
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
      if (!Schema || Schema->StringVal != "atmem-timeseries-v1")
        return Fail("line 1 is not an atmem-timeseries-v1 schema header");
      SawHeader = true;
      continue;
    }
    auto Num = [&](const char *Key) {
      const JsonValue *V = Doc.findNumber(Key);
      return V ? V->NumberVal : 0.0;
    };
    auto U64 = [&](const char *Key) {
      return static_cast<uint64_t>(Num(Key));
    };
    if (!Doc.findNumber("epoch"))
      return Fail("line " + std::to_string(LineNo) + " lacks \"epoch\"");
    EpochSample S;
    S.Epoch = U64("epoch");
    S.Accesses = U64("accesses");
    S.MissesFast = U64("misses_fast");
    S.MissesSlow = U64("misses_slow");
    S.SlowMissFraction = Num("slow_miss_fraction");
    S.DrainMissesPerSec = Num("drain_misses_per_sec");
    S.MigrationBytes = U64("migration_bytes");
    S.MigrationRanges = U64("migration_ranges");
    S.Retries = U64("retries");
    S.Rollbacks = U64("rollbacks");
    S.MigrateSimSec = Num("migrate_sim_sec");
    S.FastDataRatio = Num("fast_data_ratio");
    S.OptimizeWallUs = Num("optimize_wall_us");
    S.IterationWallUs = Num("iteration_wall_us");
    Out.push_back(S);
  }
  if (!SawHeader)
    return Fail("empty document (no schema header)");
  return true;
}

std::string openMetricsEscapeLabel(const std::string &Value) {
  // The exposition format's label escapes: backslash, double quote, and
  // line feed; everything else passes through byte-for-byte.
  std::string Out;
  Out.reserve(Value.size());
  for (char C : Value) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

namespace {

/// One OpenMetrics gauge family: a TYPE line, then one labelled sample
/// per epoch produced by \p Value. \p RunLabel is pre-escaped ("" = no
/// run label).
template <typename Fn>
void emitFamily(std::string &Out, const char *Name,
                const std::vector<EpochSample> &Samples,
                const std::string &RunLabel, Fn Value) {
  appendf(Out, "# TYPE %s gauge\n", Name);
  for (const EpochSample &S : Samples) {
    if (RunLabel.empty())
      appendf(Out, "%s{epoch=\"%" PRIu64 "\"} ", Name, S.Epoch);
    else
      appendf(Out, "%s{run=\"%s\",epoch=\"%" PRIu64 "\"} ", Name,
              RunLabel.c_str(), S.Epoch);
    appendDouble(Out, Value(S));
    Out += "\n";
  }
}

} // namespace

std::string timeSeriesOpenMetrics(const std::vector<EpochSample> &Samples,
                                  const std::string &RunLabel) {
  std::string Out;
  std::string Run = openMetricsEscapeLabel(RunLabel);
  auto U = [](uint64_t V) { return static_cast<double>(V); };
  emitFamily(Out, "atmem_epoch_accesses", Samples, Run,
             [&](const EpochSample &S) { return U(S.Accesses); });
  emitFamily(Out, "atmem_epoch_misses_fast", Samples, Run,
             [&](const EpochSample &S) { return U(S.MissesFast); });
  emitFamily(Out, "atmem_epoch_misses_slow", Samples, Run,
             [&](const EpochSample &S) { return U(S.MissesSlow); });
  emitFamily(Out, "atmem_epoch_slow_miss_fraction", Samples, Run,
             [](const EpochSample &S) { return S.SlowMissFraction; });
  emitFamily(Out, "atmem_epoch_drain_misses_per_sec", Samples, Run,
             [](const EpochSample &S) { return S.DrainMissesPerSec; });
  emitFamily(Out, "atmem_epoch_migration_bytes", Samples, Run,
             [&](const EpochSample &S) { return U(S.MigrationBytes); });
  emitFamily(Out, "atmem_epoch_migration_ranges", Samples, Run,
             [&](const EpochSample &S) { return U(S.MigrationRanges); });
  emitFamily(Out, "atmem_epoch_migration_retries", Samples, Run,
             [&](const EpochSample &S) { return U(S.Retries); });
  emitFamily(Out, "atmem_epoch_migration_rollbacks", Samples, Run,
             [&](const EpochSample &S) { return U(S.Rollbacks); });
  emitFamily(Out, "atmem_epoch_migrate_sim_sec", Samples, Run,
             [](const EpochSample &S) { return S.MigrateSimSec; });
  emitFamily(Out, "atmem_epoch_fast_data_ratio", Samples, Run,
             [](const EpochSample &S) { return S.FastDataRatio; });
  emitFamily(Out, "atmem_epoch_optimize_wall_us", Samples, Run,
             [](const EpochSample &S) { return S.OptimizeWallUs; });
  emitFamily(Out, "atmem_epoch_iteration_wall_us", Samples, Run,
             [](const EpochSample &S) { return S.IterationWallUs; });
  Out += "# EOF\n";
  return Out;
}

bool writeTimeSeriesJsonl(const std::string &Path, std::string *Error) {
  return writeStringToFile(
      Path, timeSeriesJsonl(TimeSeries::instance().snapshot()), Error);
}

bool writeTimeSeriesOpenMetrics(const std::string &Path, std::string *Error) {
  return writeStringToFile(
      Path, timeSeriesOpenMetrics(TimeSeries::instance().snapshot()), Error);
}

} // namespace obs
} // namespace atmem
