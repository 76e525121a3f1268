//===----------------------------------------------------------------------===//
// Tests for the per-epoch time series (obs/TimeSeries.h): the enable
// gate, the JSONL and OpenMetrics serializers (every line must parse and
// every field must round-trip), the file writers and the exportIfConfigured
// hook, and the Runtime integration — one sample per optimize() call with
// the gauges a plot would be built from.
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "obs/Export.h"
#include "obs/Json.h"
#include "obs/Telemetry.h"
#include "obs/TimeSeries.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

using namespace atmem;
using namespace atmem::obs;

namespace {

/// The sample store is process-wide like the metric registry: every test
/// starts and ends with it disabled and empty.
class TimeSeriesTest : public ::testing::Test {
protected:
  void SetUp() override {
    TimeSeries::instance().setEnabled(false);
    TimeSeries::instance().clear();
  }
  void TearDown() override {
    TimeSeries::instance().setEnabled(false);
    TimeSeries::instance().clear();
  }

  static std::string tempPath(const char *Name) {
    return ::testing::TempDir() + Name;
  }
};

EpochSample sampleOne() {
  EpochSample S;
  S.Epoch = 1;
  S.Accesses = 1000;
  S.MissesFast = 40;
  S.MissesSlow = 120;
  S.SlowMissFraction = 0.75;
  S.DrainMissesPerSec = 1.5e6;
  S.MigrationBytes = 1 << 20;
  S.MigrationRanges = 3;
  S.Retries = 1;
  S.Rollbacks = 0;
  S.MigrateSimSec = 0.0125;
  S.FastDataRatio = 0.25;
  S.OptimizeWallUs = 842.0;
  return S;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

double number(const JsonValue &Doc, const char *Key) {
  const JsonValue *V = Doc.findNumber(Key);
  EXPECT_NE(V, nullptr) << Key;
  return V ? V->NumberVal : -1.0;
}

//===----------------------------------------------------------------------===//
// Store semantics
//===----------------------------------------------------------------------===//

TEST_F(TimeSeriesTest, DisabledRecordIsDropped) {
  ASSERT_FALSE(TimeSeries::instance().enabled());
  TimeSeries::instance().record(sampleOne());
  EXPECT_TRUE(TimeSeries::instance().snapshot().empty());
}

TEST_F(TimeSeriesTest, EnabledRecordAccumulatesInOrder) {
  TimeSeries::instance().setEnabled(true);
  EpochSample S = sampleOne();
  TimeSeries::instance().record(S);
  S.Epoch = 2;
  S.Accesses = 2000;
  TimeSeries::instance().record(S);

  std::vector<EpochSample> Samples = TimeSeries::instance().snapshot();
  ASSERT_EQ(Samples.size(), 2u);
  EXPECT_EQ(Samples[0].Epoch, 1u);
  EXPECT_EQ(Samples[1].Epoch, 2u);
  EXPECT_EQ(Samples[1].Accesses, 2000u);

  TimeSeries::instance().clear();
  EXPECT_TRUE(TimeSeries::instance().snapshot().empty());
}

//===----------------------------------------------------------------------===//
// Serializers
//===----------------------------------------------------------------------===//

TEST_F(TimeSeriesTest, JsonlEveryLineParsesAndFieldsRoundTrip) {
  EpochSample S = sampleOne();
  EpochSample S2 = S;
  S2.Epoch = 2;
  S2.SlowMissFraction = 0.125;
  std::vector<std::string> Lines = splitLines(timeSeriesJsonl({S, S2}));
  ASSERT_EQ(Lines.size(), 3u); // Header + one line per epoch.

  JsonValue Header;
  std::string Error;
  ASSERT_TRUE(parseJson(Lines[0], Header, &Error)) << Error;
  const JsonValue *Schema = Header.findString("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->StringVal, "atmem-timeseries-v1");
  EXPECT_EQ(number(Header, "epochs"), 2.0);

  JsonValue Doc;
  ASSERT_TRUE(parseJson(Lines[1], Doc, &Error)) << Error;
  EXPECT_EQ(number(Doc, "epoch"), 1.0);
  EXPECT_EQ(number(Doc, "accesses"), 1000.0);
  EXPECT_EQ(number(Doc, "misses_fast"), 40.0);
  EXPECT_EQ(number(Doc, "misses_slow"), 120.0);
  EXPECT_DOUBLE_EQ(number(Doc, "slow_miss_fraction"), 0.75);
  EXPECT_DOUBLE_EQ(number(Doc, "drain_misses_per_sec"), 1.5e6);
  EXPECT_EQ(number(Doc, "migration_bytes"), 1048576.0);
  EXPECT_EQ(number(Doc, "migration_ranges"), 3.0);
  EXPECT_EQ(number(Doc, "retries"), 1.0);
  EXPECT_EQ(number(Doc, "rollbacks"), 0.0);
  EXPECT_DOUBLE_EQ(number(Doc, "migrate_sim_sec"), 0.0125);
  EXPECT_DOUBLE_EQ(number(Doc, "fast_data_ratio"), 0.25);
  EXPECT_DOUBLE_EQ(number(Doc, "optimize_wall_us"), 842.0);

  JsonValue Doc2;
  ASSERT_TRUE(parseJson(Lines[2], Doc2, &Error)) << Error;
  EXPECT_EQ(number(Doc2, "epoch"), 2.0);
  EXPECT_DOUBLE_EQ(number(Doc2, "slow_miss_fraction"), 0.125);
}

TEST_F(TimeSeriesTest, OpenMetricsLabelsEveryEpochAndTerminates) {
  EpochSample S = sampleOne();
  EpochSample S2 = S;
  S2.Epoch = 2;
  std::string Text = timeSeriesOpenMetrics({S, S2});

  EXPECT_NE(Text.find("# TYPE atmem_epoch_slow_miss_fraction gauge\n"),
            std::string::npos);
  EXPECT_NE(Text.find("atmem_epoch_slow_miss_fraction{epoch=\"1\"} 0.75\n"),
            std::string::npos);
  EXPECT_NE(Text.find("atmem_epoch_slow_miss_fraction{epoch=\"2\"} 0.75\n"),
            std::string::npos);
  EXPECT_NE(Text.find("atmem_epoch_accesses{epoch=\"1\"} 1000\n"),
            std::string::npos);
  EXPECT_NE(Text.find("atmem_epoch_optimize_wall_us{epoch=\"1\"} 842\n"),
            std::string::npos);
  // The OpenMetrics spec requires the EOF marker as the last line.
  ASSERT_GE(Text.size(), 6u);
  EXPECT_EQ(Text.substr(Text.size() - 6), "# EOF\n");
}

//===----------------------------------------------------------------------===//
// Serializer edge cases
//===----------------------------------------------------------------------===//

TEST_F(TimeSeriesTest, EmptySeriesSerializesAndParses) {
  std::string Jsonl = timeSeriesJsonl({});
  std::vector<std::string> Lines = splitLines(Jsonl);
  ASSERT_EQ(Lines.size(), 1u); // Header only.
  EXPECT_NE(Lines[0].find("\"epochs\":0"), std::string::npos);

  std::vector<EpochSample> Parsed;
  std::string Error;
  ASSERT_TRUE(parseTimeSeriesJsonl(Jsonl, Parsed, &Error)) << Error;
  EXPECT_TRUE(Parsed.empty());

  // Every family still emits its TYPE line, and the terminator stands.
  std::string Om = timeSeriesOpenMetrics({});
  EXPECT_NE(Om.find("# TYPE atmem_epoch_accesses gauge\n"),
            std::string::npos);
  EXPECT_EQ(Om.substr(Om.size() - 6), "# EOF\n");
}

TEST_F(TimeSeriesTest, SingleEpochRoundTrips) {
  std::vector<EpochSample> Parsed;
  std::string Error;
  ASSERT_TRUE(
      parseTimeSeriesJsonl(timeSeriesJsonl({sampleOne()}), Parsed, &Error))
      << Error;
  ASSERT_EQ(Parsed.size(), 1u);
  EXPECT_EQ(Parsed[0].Epoch, 1u);
  EXPECT_EQ(Parsed[0].Accesses, 1000u);
  EXPECT_DOUBLE_EQ(Parsed[0].SlowMissFraction, 0.75);
  EXPECT_DOUBLE_EQ(Parsed[0].OptimizeWallUs, 842.0);
}

TEST_F(TimeSeriesTest, NonFiniteRatioFieldsSerializeAsZero) {
  EpochSample S = sampleOne();
  S.SlowMissFraction = std::numeric_limits<double>::quiet_NaN();
  S.DrainMissesPerSec = std::numeric_limits<double>::infinity();
  S.FastDataRatio = -std::numeric_limits<double>::infinity();

  std::vector<std::string> Lines = splitLines(timeSeriesJsonl({S}));
  ASSERT_EQ(Lines.size(), 2u);
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Lines[1], Doc, &Error)) << Error;
  EXPECT_DOUBLE_EQ(number(Doc, "slow_miss_fraction"), 0.0);
  EXPECT_DOUBLE_EQ(number(Doc, "drain_misses_per_sec"), 0.0);
  EXPECT_DOUBLE_EQ(number(Doc, "fast_data_ratio"), 0.0);

  // The OpenMetrics exposition must stay numeric too — no "nan"/"inf".
  std::string Om = timeSeriesOpenMetrics({S});
  EXPECT_EQ(Om.find("nan"), std::string::npos);
  EXPECT_EQ(Om.find("inf"), std::string::npos);
  EXPECT_NE(Om.find("atmem_epoch_slow_miss_fraction{epoch=\"1\"} 0\n"),
            std::string::npos);
}

TEST_F(TimeSeriesTest, IterationWallUsSerializesAndDefaultsWhenAbsent) {
  EpochSample S = sampleOne();
  S.IterationWallUs = 1234.5;
  std::vector<EpochSample> Parsed;
  std::string Error;
  ASSERT_TRUE(parseTimeSeriesJsonl(timeSeriesJsonl({S}), Parsed, &Error))
      << Error;
  ASSERT_EQ(Parsed.size(), 1u);
  EXPECT_DOUBLE_EQ(Parsed[0].IterationWallUs, 1234.5);

  // Logs written before the field existed still load, defaulting to 0,
  // and the retired lookahead_* keys of older logs are ignored.
  std::string Old = "{\"schema\":\"atmem-timeseries-v1\",\"epochs\":2}\n"
                    "{\"epoch\":1,\"accesses\":10}\n"
                    "{\"epoch\":2,\"accesses\":20,\"lookahead_staged\":3,"
                    "\"lookahead_cancelled\":1,\"lookahead_overlap_sec\":0.5,"
                    "\"fast_data_ratio\":0.25}\n";
  Parsed.clear();
  ASSERT_TRUE(parseTimeSeriesJsonl(Old, Parsed, &Error)) << Error;
  ASSERT_EQ(Parsed.size(), 2u);
  EXPECT_DOUBLE_EQ(Parsed[0].IterationWallUs, 0.0);
  EXPECT_EQ(Parsed[0].Accesses, 10u);
  EXPECT_EQ(Parsed[1].Accesses, 20u);
  EXPECT_DOUBLE_EQ(Parsed[1].FastDataRatio, 0.25);
}

TEST_F(TimeSeriesTest, ParseRejectsMissingHeaderAndBadLines) {
  std::vector<EpochSample> Parsed;
  std::string Error;
  EXPECT_FALSE(parseTimeSeriesJsonl("", Parsed, &Error));
  EXPECT_FALSE(
      parseTimeSeriesJsonl("{\"epoch\":1}\n", Parsed, &Error));
  EXPECT_FALSE(parseTimeSeriesJsonl(
      "{\"schema\":\"atmem-timeseries-v1\",\"epochs\":1}\nnot json\n",
      Parsed, &Error));
  EXPECT_FALSE(parseTimeSeriesJsonl(
      "{\"schema\":\"atmem-timeseries-v1\",\"epochs\":1}\n"
      "{\"accesses\":5}\n",
      Parsed, &Error)); // An epoch line without "epoch".
}

TEST_F(TimeSeriesTest, OpenMetricsLabelEscaping) {
  EXPECT_EQ(openMetricsEscapeLabel("plain"), "plain");
  EXPECT_EQ(openMetricsEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(openMetricsEscapeLabel("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(openMetricsEscapeLabel("two\nlines"), "two\\nlines");

  std::string Om = timeSeriesOpenMetrics({sampleOne()}, "run \"a\"\n1");
  EXPECT_NE(Om.find("atmem_epoch_accesses{run=\"run \\\"a\\\"\\n1\","
                    "epoch=\"1\"} 1000\n"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// File writers and the export hook
//===----------------------------------------------------------------------===//

TEST_F(TimeSeriesTest, WritersEmitTheRecordedSeries) {
  TimeSeries::instance().setEnabled(true);
  TimeSeries::instance().record(sampleOne());

  std::string Jsonl = tempPath("timeseries.jsonl");
  std::string Metrics = tempPath("timeseries.om");
  std::string Error;
  ASSERT_TRUE(writeTimeSeriesJsonl(Jsonl, &Error)) << Error;
  ASSERT_TRUE(writeTimeSeriesOpenMetrics(Metrics, &Error)) << Error;

  EXPECT_EQ(readFile(Jsonl),
            timeSeriesJsonl(TimeSeries::instance().snapshot()));
  EXPECT_EQ(readFile(Metrics),
            timeSeriesOpenMetrics(TimeSeries::instance().snapshot()));
}

TEST_F(TimeSeriesTest, ExportIfConfiguredWritesBothFormats) {
  TimeSeries::instance().setEnabled(true);
  TimeSeries::instance().record(sampleOne());

  TelemetryConfig Config;
  Config.TimeSeriesPath = tempPath("ts_export.jsonl");
  Config.OpenMetricsPath = tempPath("ts_export.om");
  ASSERT_TRUE(exportIfConfigured(Config));

  std::vector<std::string> Lines = splitLines(readFile(Config.TimeSeriesPath));
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_NE(Lines[0].find("atmem-timeseries-v1"), std::string::npos);
  std::string Metrics = readFile(Config.OpenMetricsPath);
  EXPECT_NE(Metrics.find("# TYPE atmem_epoch_accesses gauge"),
            std::string::npos);
  EXPECT_NE(Metrics.find("# EOF"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Runtime integration: one sample per optimize()
//===----------------------------------------------------------------------===//

TEST_F(TimeSeriesTest, RuntimeCapturesOneSamplePerOptimize) {
  TimeSeries::instance().setEnabled(true);

  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
  core::Runtime Rt(Config);
  core::TrackedArray<uint64_t> Hot = Rt.allocate<uint64_t>("hot", 1 << 16);

  for (int Epoch = 0; Epoch < 2; ++Epoch) {
    Rt.profilingStart();
    Rt.beginIteration();
    uint64_t State = 9001;
    for (int I = 0; I < 50000; ++I) {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      Hot[(State >> 33) & ((1 << 16) - 1)] += 1;
    }
    Rt.endIteration();
    Rt.profilingStop();
    Rt.optimize();
  }

  std::vector<EpochSample> Samples = TimeSeries::instance().snapshot();
  ASSERT_EQ(Samples.size(), 2u);
  EXPECT_EQ(Samples[0].Epoch, 1u);
  EXPECT_EQ(Samples[1].Epoch, 2u);
  // The first epoch saw a cold slow tier: accesses flowed, every tier
  // miss was slow, and the optimize pass took measurable wall time.
  EXPECT_GT(Samples[0].Accesses, 0u);
  EXPECT_GT(Samples[0].MissesSlow, 0u);
  EXPECT_DOUBLE_EQ(Samples[0].SlowMissFraction, 1.0);
  EXPECT_GT(Samples[0].OptimizeWallUs, 0.0);
  // It also migrated the hot object toward the fast tier, which the
  // second sample's placement gauge must reflect.
  EXPECT_GT(Samples[0].MigrationBytes, 0u);
  EXPECT_GT(Samples[0].MigrationRanges, 0u);
  EXPECT_GT(Samples[1].FastDataRatio, 0.0);
  EXPECT_LE(Samples[1].FastDataRatio, 1.0);
}

TEST_F(TimeSeriesTest, RuntimeSkipsCaptureWhenDisabled) {
  ASSERT_FALSE(TimeSeries::instance().enabled());

  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
  core::Runtime Rt(Config);
  core::TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("v", 1 << 14);

  Rt.profilingStart();
  Rt.beginIteration();
  for (size_t I = 0; I < Arr.size(); ++I)
    Arr[I] = I;
  Rt.endIteration();
  Rt.profilingStop();
  Rt.optimize();

  EXPECT_TRUE(TimeSeries::instance().snapshot().empty());
}

} // namespace
