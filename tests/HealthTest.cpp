//===----------------------------------------------------------------------===//
// Tests for the online placement-health monitor (obs/Health.h): planted
// anomaly streams with exact event sequences for every detector, the
// transition dedup (events only on state changes), warmup gating, the knob
// parser, the JSONL event log with its obs.health_emit fault site, offline
// replay equivalence (replayHealth must agree with the live monitor), the
// Runtime integration (stats-socket health panel + event log), and the
// shipped atmem_doctor / atmem_obs_check binaries over synthetic artifacts.
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "fault/FaultInjection.h"
#include "obs/DecisionLog.h"
#include "obs/Health.h"
#include "obs/Json.h"
#include "obs/StatsSocket.h"
#include "obs/Telemetry.h"
#include "obs/TimeSeries.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <sys/wait.h>
#include <vector>

using namespace atmem;
using namespace atmem::obs;

namespace {

/// Health state is process-wide where it touches the shared logs and the
/// metric registry; every test starts and ends with all of it quiescent.
class HealthTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::setEnabled(false);
    fault::FaultRegistry::instance().disarmAll();
    HealthLog::instance().close();
    DecisionLog::instance().close();
    setHealthDefaultEnabled(false);
  }
  void TearDown() override {
    obs::setEnabled(false);
    fault::FaultRegistry::instance().disarmAll();
    HealthLog::instance().close();
    DecisionLog::instance().close();
    setHealthDefaultEnabled(false);
  }

  static std::string tempPath(const char *Name) {
    return ::testing::TempDir() + Name;
  }
};

EpochSample quietSample(uint64_t Epoch) {
  EpochSample S;
  S.Epoch = Epoch;
  S.Accesses = 1000;
  S.MissesFast = 10;
  S.MissesSlow = 10;
  S.SlowMissFraction = 0.0;
  return S;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

/// Runs a shipped tool via the shell, captures its exit code (and stdout
/// into \p OutPath when non-empty).
int runTool(const std::string &Command, const std::string &OutPath = "") {
  std::string Full = Command;
  if (!OutPath.empty())
    Full += " > " + OutPath;
  Full += " 2> /dev/null";
  int Status = std::system(Full.c_str());
  EXPECT_TRUE(WIFEXITED(Status)) << Command;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Asserts one event's identity (epoch, detector, severity).
void expectEvent(const HealthEvent &E, uint64_t Epoch, HealthDetector D,
                 HealthSeverity Severity) {
  EXPECT_EQ(E.Epoch, Epoch);
  EXPECT_EQ(E.Detector, D);
  EXPECT_EQ(E.Severity, Severity);
}

//===----------------------------------------------------------------------===//
// Knob parser and name tables
//===----------------------------------------------------------------------===//

TEST_F(HealthTest, KnobParserAppliesOverridesAndRejectsGarbage) {
  HealthConfig Cfg;
  std::string Error;
  ASSERT_TRUE(parseHealthKnobs(
      "ewma_alpha=0.5,cusum_warn=0.2,warmup_epochs=4,storm_min_ranges=16,"
      "pingpong_window=8,overhead_critical=2.0,stale_slow_miss=0.75",
      Cfg, &Error))
      << Error;
  EXPECT_DOUBLE_EQ(Cfg.EwmaAlpha, 0.5);
  EXPECT_DOUBLE_EQ(Cfg.CusumWarn, 0.2);
  EXPECT_EQ(Cfg.WarmupEpochs, 4u);
  EXPECT_EQ(Cfg.StormMinRanges, 16u);
  EXPECT_EQ(Cfg.PingPongWindowEpochs, 8u);
  EXPECT_DOUBLE_EQ(Cfg.OverheadCriticalFraction, 2.0);
  EXPECT_DOUBLE_EQ(Cfg.StaleSlowMissFraction, 0.75);
  // Untouched knobs keep their defaults.
  EXPECT_DOUBLE_EQ(Cfg.CusumCritical, 0.4);

  // An empty spec is a no-op, not an error.
  HealthConfig Default;
  EXPECT_TRUE(parseHealthKnobs("", Default, &Error));

  // Unknown knobs and malformed values fail without mutating the output.
  HealthConfig Before = Cfg;
  EXPECT_FALSE(parseHealthKnobs("no_such_knob=1", Cfg, &Error));
  EXPECT_NE(Error.find("no_such_knob"), std::string::npos);
  // Knobs of retired detectors are unknown too.
  EXPECT_FALSE(parseHealthKnobs("waste_window=4", Cfg, &Error));
  EXPECT_NE(Error.find("waste_window"), std::string::npos);
  EXPECT_DOUBLE_EQ(Cfg.EwmaAlpha, Before.EwmaAlpha);
  EXPECT_FALSE(parseHealthKnobs("ewma_alpha=abc", Cfg, &Error));
  EXPECT_FALSE(parseHealthKnobs("ewma_alpha", Cfg, &Error));
  EXPECT_DOUBLE_EQ(Cfg.EwmaAlpha, Before.EwmaAlpha);
}

TEST_F(HealthTest, NameTablesRoundTrip) {
  for (uint32_t D = 0; D < NumHealthDetectors; ++D) {
    HealthDetector In = static_cast<HealthDetector>(D);
    HealthDetector Out;
    ASSERT_TRUE(healthDetectorFromName(healthDetectorName(In), Out));
    EXPECT_EQ(Out, In);
  }
  for (HealthSeverity In : {HealthSeverity::Info, HealthSeverity::Warn,
                            HealthSeverity::Critical}) {
    HealthSeverity Out;
    ASSERT_TRUE(healthSeverityFromName(healthSeverityName(In), Out));
    EXPECT_EQ(Out, In);
  }
  HealthDetector D;
  HealthSeverity S;
  EXPECT_FALSE(healthDetectorFromName("bogus", D));
  EXPECT_FALSE(healthSeverityFromName("bogus", S));
}

//===----------------------------------------------------------------------===//
// Planted anomaly streams: exact event sequences per detector
//===----------------------------------------------------------------------===//

TEST_F(HealthTest, WarmupEpochsOnlyFeedBaselines) {
  HealthMonitor Mon;
  // Wild swings inside the warmup window must stay silent.
  EpochSample S = quietSample(1);
  S.SlowMissFraction = 0.0;
  S.MigrationRanges = 100;
  EXPECT_TRUE(Mon.observeEpoch(S).empty());
  S = quietSample(2);
  S.SlowMissFraction = 0.9;
  S.MigrationRanges = 100;
  EXPECT_TRUE(Mon.observeEpoch(S).empty());
  // Epoch 3 is the first judged epoch: the jump over the half-learned
  // baseline fires the regression detector straight to critical.
  S = quietSample(3);
  S.SlowMissFraction = 0.9;
  S.MigrationRanges = 100;
  std::vector<HealthEvent> Events = Mon.observeEpoch(S);
  ASSERT_EQ(Events.size(), 1u);
  expectEvent(Events[0], 3, HealthDetector::SlowMissRegression,
              HealthSeverity::Critical);
}

TEST_F(HealthTest, SlowMissRegressionEscalatesEasesAndRecovers) {
  HealthMonitor Mon;
  std::vector<HealthEvent> All;
  auto Feed = [&](uint64_t Epoch, double Smf) {
    EpochSample S = quietSample(Epoch);
    S.SlowMissFraction = Smf;
    for (HealthEvent &E : Mon.observeEpoch(S))
      All.push_back(std::move(E));
  };
  Feed(1, 0.10); // warmup: baseline learns 0.10
  Feed(2, 0.10);
  Feed(3, 0.40); // cusum 0.25 -> warn
  Feed(4, 0.40); // cusum 0.50 -> critical
  Feed(5, 0.00); // cusum 0.35 -> easing back to warn
  Feed(6, 0.00); // cusum 0.20 -> still yellow, no event (dedup)
  Feed(7, 0.00); // cusum 0.05 -> recovered

  ASSERT_EQ(All.size(), 4u);
  expectEvent(All[0], 3, HealthDetector::SlowMissRegression,
              HealthSeverity::Warn);
  EXPECT_NEAR(All[0].Value, 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(All[0].Threshold, 0.15);
  expectEvent(All[1], 4, HealthDetector::SlowMissRegression,
              HealthSeverity::Critical);
  EXPECT_NEAR(All[1].Value, 0.50, 1e-9);
  EXPECT_DOUBLE_EQ(All[1].Threshold, 0.4);
  expectEvent(All[2], 5, HealthDetector::SlowMissRegression,
              HealthSeverity::Warn);
  EXPECT_EQ(All[2].Detail.rfind("easing: ", 0), 0u) << All[2].Detail;
  expectEvent(All[3], 7, HealthDetector::SlowMissRegression,
              HealthSeverity::Info);
  EXPECT_EQ(All[3].Detail.rfind("recovered", 0), 0u) << All[3].Detail;

  HealthMonitor::Snapshot Snap = Mon.snapshot();
  EXPECT_EQ(Snap.Overall, SloStatus::Green);
  EXPECT_EQ(Snap.WorstOverall, SloStatus::Red);
  EXPECT_EQ(Snap.EventsInfo, 1u);
  EXPECT_EQ(Snap.EventsWarn, 2u);
  EXPECT_EQ(Snap.EventsCritical, 1u);
  const HealthMonitor::DetectorState &D = Snap.Detectors[static_cast<uint32_t>(
      HealthDetector::SlowMissRegression)];
  EXPECT_EQ(D.Status, SloStatus::Green);
  EXPECT_EQ(D.Worst, SloStatus::Red);
  EXPECT_EQ(D.Events, 4u);
  EXPECT_EQ(D.LastEventEpoch, 7u);
  EXPECT_EQ(Snap.LastEpoch, 7u);
}

TEST_F(HealthTest, MigrationStormSpikesOverBaseline) {
  HealthMonitor Mon;
  std::vector<HealthEvent> All;
  auto Feed = [&](uint64_t Epoch, uint64_t Ranges, uint64_t Retries,
                  uint64_t Rollbacks) {
    EpochSample S = quietSample(Epoch);
    S.MigrationRanges = Ranges;
    S.Retries = Retries;
    S.Rollbacks = Rollbacks;
    for (HealthEvent &E : Mon.observeEpoch(S))
      All.push_back(std::move(E));
  };
  Feed(1, 2, 0, 0); // warmup: baseline learns 2
  Feed(2, 2, 0, 0);
  Feed(3, 40, 14, 10); // activity 64 = 32x baseline -> critical
  Feed(4, 2, 0, 0);    // back to baseline -> recovered
  Feed(5, 9, 0, 0);    // 4.5x baseline and >= floor -> warn
  Feed(6, 2, 0, 0);    // recovered again

  ASSERT_EQ(All.size(), 4u);
  expectEvent(All[0], 3, HealthDetector::MigrationStorm,
              HealthSeverity::Critical);
  EXPECT_NEAR(All[0].Value, 32.0, 1e-9);
  EXPECT_DOUBLE_EQ(All[0].Threshold, 8.0);
  EXPECT_NE(All[0].Detail.find("64 migration ranges"), std::string::npos)
      << All[0].Detail;
  expectEvent(All[1], 4, HealthDetector::MigrationStorm, HealthSeverity::Info);
  expectEvent(All[2], 5, HealthDetector::MigrationStorm, HealthSeverity::Warn);
  EXPECT_NEAR(All[2].Value, 4.5, 1e-9);
  expectEvent(All[3], 6, HealthDetector::MigrationStorm, HealthSeverity::Info);
}

TEST_F(HealthTest, MigrationStormRespectsAbsoluteFloor) {
  // A spike below StormMinRanges is never a storm, however large the
  // relative factor (quiet runs would otherwise alarm on their first
  // real migration).
  HealthMonitor Mon;
  std::vector<HealthEvent> All;
  for (uint64_t Epoch = 1; Epoch <= 2; ++Epoch)
    EXPECT_TRUE(Mon.observeEpoch(quietSample(Epoch)).empty());
  EpochSample S = quietSample(3);
  S.MigrationRanges = 7; // 7x a floored baseline of 1, but below the floor
  EXPECT_TRUE(Mon.observeEpoch(S).empty());
}

TEST_F(HealthTest, PingPongCountsDirectionFlipsInWindow) {
  HealthMonitor Mon;
  std::vector<HealthEvent> All;
  auto Observe = [&](uint64_t Epoch) {
    for (HealthEvent &E : Mon.observeEpoch(quietSample(Epoch)))
      All.push_back(std::move(E));
  };
  auto Thrash = [&] {
    Mon.noteMigration(7, 9, 1, /*ToFast=*/true);
    Mon.noteMigration(7, 9, 1, /*ToFast=*/false);
  };
  Thrash();
  Observe(1); // first move sets the direction, second flips: 1 flip
  Thrash();
  Observe(2); // 3 flips in window -> warn
  Thrash();
  Observe(3); // 5 flips in window -> critical
  Observe(4); // window [1,4] still holds 5 flips -> red, no event
  Observe(5); // window [2,5] holds 4 -> easing to warn
  Observe(6); // window [3,6] holds 2 -> recovered

  ASSERT_EQ(All.size(), 4u);
  expectEvent(All[0], 2, HealthDetector::PingPong, HealthSeverity::Warn);
  EXPECT_DOUBLE_EQ(All[0].Value, 3.0);
  expectEvent(All[1], 3, HealthDetector::PingPong, HealthSeverity::Critical);
  EXPECT_DOUBLE_EQ(All[1].Value, 5.0);
  EXPECT_EQ(All[1].Detail,
            "object 7 chunk 9 flipped tiers 5 times in 4 epochs");
  expectEvent(All[2], 5, HealthDetector::PingPong, HealthSeverity::Warn);
  EXPECT_EQ(All[2].Detail.rfind("easing: ", 0), 0u);
  expectEvent(All[3], 6, HealthDetector::PingPong, HealthSeverity::Info);
}

TEST_F(HealthTest, OverheadBudgetComparesOptimizeToIterationWall) {
  HealthConfig Cfg;
  Cfg.OverheadCriticalFraction = 0.9; // opt in (default is disabled)
  HealthMonitor Mon(Cfg);
  std::vector<HealthEvent> All;
  auto Feed = [&](uint64_t Epoch, double OptUs, double IterUs) {
    EpochSample S = quietSample(Epoch);
    S.OptimizeWallUs = OptUs;
    S.IterationWallUs = IterUs;
    for (HealthEvent &E : Mon.observeEpoch(S))
      All.push_back(std::move(E));
  };
  Feed(1, 600.0, 1000.0); // 0.6 -> warn (no warmup gate on this detector)
  Feed(2, 950.0, 1000.0); // 0.95 -> critical
  Feed(3, 100.0, 1000.0); // 0.1 -> recovered
  Feed(4, 900.0, 0.0);    // no iteration measurement -> stays green

  ASSERT_EQ(All.size(), 3u);
  expectEvent(All[0], 1, HealthDetector::OverheadBudget, HealthSeverity::Warn);
  EXPECT_NEAR(All[0].Value, 0.6, 1e-9);
  expectEvent(All[1], 2, HealthDetector::OverheadBudget,
              HealthSeverity::Critical);
  EXPECT_NEAR(All[1].Value, 0.95, 1e-9);
  expectEvent(All[2], 3, HealthDetector::OverheadBudget, HealthSeverity::Info);
}

TEST_F(HealthTest, StalePlacementCountsIdleEpochsUnderHighMissRate) {
  HealthMonitor Mon;
  std::vector<HealthEvent> All;
  auto Feed = [&](uint64_t Epoch, uint64_t Ranges, double Smf) {
    EpochSample S = quietSample(Epoch);
    S.MigrationRanges = Ranges;
    S.SlowMissFraction = Smf;
    for (HealthEvent &E : Mon.observeEpoch(S))
      All.push_back(std::move(E));
  };
  for (uint64_t Epoch = 1; Epoch <= 6; ++Epoch)
    Feed(Epoch, 0, 0.6); // streak grows: warn at 3, critical at 6
  Feed(7, 5, 0.6);       // a migration resets the streak -> recovered

  ASSERT_EQ(All.size(), 3u);
  expectEvent(All[0], 3, HealthDetector::StalePlacement, HealthSeverity::Warn);
  EXPECT_DOUBLE_EQ(All[0].Value, 3.0);
  expectEvent(All[1], 6, HealthDetector::StalePlacement,
              HealthSeverity::Critical);
  EXPECT_DOUBLE_EQ(All[1].Value, 6.0);
  EXPECT_NE(All[1].Detail.find("6 epochs without migrations"),
            std::string::npos)
      << All[1].Detail;
  expectEvent(All[2], 7, HealthDetector::StalePlacement, HealthSeverity::Info);
}

//===----------------------------------------------------------------------===//
// Event JSON and the health log
//===----------------------------------------------------------------------===//

TEST_F(HealthTest, EventJsonRoundTripsThroughParser) {
  HealthEvent E;
  E.Epoch = 42;
  E.Detector = HealthDetector::PingPong;
  E.Severity = HealthSeverity::Critical;
  E.Value = 5.0;
  E.Threshold = 5.0;
  E.Detail = "tricky \"quoted\" \\ back\nslash";

  std::string Doc = "{\"schema\":\"atmem-health-v1\"}\n";
  Doc += healthEventJson(E) + "\n";
  std::vector<HealthEvent> Parsed;
  std::string Error;
  ASSERT_TRUE(parseHealthLog(Doc, Parsed, &Error)) << Error;
  ASSERT_EQ(Parsed.size(), 1u);
  EXPECT_EQ(Parsed[0].Epoch, 42u);
  EXPECT_EQ(Parsed[0].Detector, HealthDetector::PingPong);
  EXPECT_EQ(Parsed[0].Severity, HealthSeverity::Critical);
  EXPECT_DOUBLE_EQ(Parsed[0].Value, 5.0);
  EXPECT_EQ(Parsed[0].Detail, E.Detail);

  // Non-finite values serialize as 0 so the log always parses.
  E.Value = std::numeric_limits<double>::quiet_NaN();
  E.Threshold = std::numeric_limits<double>::infinity();
  std::string Line = healthEventJson(E);
  EXPECT_EQ(Line.find("nan"), std::string::npos);
  EXPECT_EQ(Line.find("inf"), std::string::npos);
  EXPECT_NE(Line.find("\"value\":0"), std::string::npos);
}

TEST_F(HealthTest, ParseHealthLogRejectsMalformedDocuments) {
  std::vector<HealthEvent> Out;
  std::string Error;
  EXPECT_FALSE(parseHealthLog("", Out, &Error));
  EXPECT_FALSE(parseHealthLog("{\"epoch\":1}\n", Out, &Error));
  EXPECT_NE(Error.find("schema"), std::string::npos);
  std::string Doc = "{\"schema\":\"atmem-health-v1\"}\n{\"epoch\":1}\n";
  Out.clear();
  EXPECT_FALSE(parseHealthLog(Doc, Out, &Error));
  Doc = "{\"schema\":\"atmem-health-v1\"}\n"
        "{\"epoch\":1,\"detector\":\"martian\",\"severity\":\"warn\","
        "\"value\":1,\"threshold\":1,\"detail\":\"\"}\n";
  Out.clear();
  EXPECT_FALSE(parseHealthLog(Doc, Out, &Error));
  EXPECT_NE(Error.find("martian"), std::string::npos);
}

TEST_F(HealthTest, HealthLogWritesHeaderAndEvents) {
  std::string Path = tempPath("health_basic.jsonl");
  std::string Error;
  ASSERT_TRUE(HealthLog::instance().open(Path, &Error)) << Error;
  EXPECT_TRUE(HealthLog::instance().isOpen());
  EXPECT_EQ(HealthLog::instance().path(), Path);
  // Second open while running is the shared-stream no-op.
  EXPECT_TRUE(HealthLog::instance().open(tempPath("other.jsonl")));
  EXPECT_EQ(HealthLog::instance().path(), Path);

  HealthEvent E;
  E.Epoch = 3;
  E.Detector = HealthDetector::MigrationStorm;
  E.Severity = HealthSeverity::Warn;
  E.Value = 4.5;
  E.Threshold = 4.0;
  E.Detail = "storm";
  HealthLog::instance().append(E);
  EXPECT_EQ(HealthLog::instance().dropped(), 0u);
  ASSERT_TRUE(HealthLog::instance().close(&Error)) << Error;
  EXPECT_FALSE(HealthLog::instance().isOpen());

  std::string Text = readFile(Path);
  EXPECT_EQ(Text.rfind("{\"schema\":\"atmem-health-v1\"}\n", 0), 0u);
  std::vector<HealthEvent> Parsed;
  ASSERT_TRUE(parseHealthLog(Text, Parsed, &Error)) << Error;
  ASSERT_EQ(Parsed.size(), 1u);
  EXPECT_EQ(Parsed[0].Epoch, 3u);
  EXPECT_EQ(Parsed[0].Detector, HealthDetector::MigrationStorm);
}

TEST_F(HealthTest, EmitFaultDropsEventAndLatchesCounter) {
  std::string Path = tempPath("health_fault.jsonl");
  ASSERT_TRUE(HealthLog::instance().open(Path));

  obs::setEnabled(true);
  Registry::instance().resetValues();

  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::EveryKth;
  Plan.N = 1;
  fault::FaultRegistry::instance().arm("obs.health_emit", Plan);

  HealthEvent E;
  E.Epoch = 1;
  E.Detector = HealthDetector::StalePlacement;
  E.Severity = HealthSeverity::Warn;
  E.Detail = "dropped";
  HealthLog::instance().append(E);
  EXPECT_EQ(HealthLog::instance().dropped(), 1u);

  // After disarming, the stream keeps working: degradation, not failure.
  fault::FaultRegistry::instance().disarmAll();
  E.Detail = "kept";
  HealthLog::instance().append(E);
  EXPECT_EQ(HealthLog::instance().dropped(), 1u);

  // A fault-injected drop does not taint the close verdict.
  std::string Error;
  EXPECT_TRUE(HealthLog::instance().close(&Error)) << Error;

  std::vector<HealthEvent> Parsed;
  ASSERT_TRUE(parseHealthLog(readFile(Path), Parsed, &Error)) << Error;
  ASSERT_EQ(Parsed.size(), 1u);
  EXPECT_EQ(Parsed[0].Detail, "kept");

  TelemetrySnapshot Snap = Registry::instance().snapshot();
  const uint64_t *Failed = Snap.counter("health.emit_failed");
  ASSERT_NE(Failed, nullptr);
  EXPECT_EQ(*Failed, 1u);
}

//===----------------------------------------------------------------------===//
// Offline replay (the atmem_doctor engine)
//===----------------------------------------------------------------------===//

TEST_F(HealthTest, ReplayAgreesWithOnlineMonitor) {
  std::vector<EpochSample> Samples;
  for (uint64_t Epoch = 1; Epoch <= 6; ++Epoch) {
    EpochSample S = quietSample(Epoch);
    S.SlowMissFraction = Epoch >= 3 ? 0.45 : 0.10;
    S.MigrationRanges = Epoch == 3 ? 64 : 2;
    Samples.push_back(S);
  }

  HealthConfig Cfg;
  HealthMonitor Mon(Cfg);
  std::vector<HealthEvent> Online;
  for (const EpochSample &S : Samples)
    for (HealthEvent &E : Mon.observeEpoch(S))
      Online.push_back(std::move(E));

  HealthReport Report = replayHealth(Cfg, Samples);
  EXPECT_EQ(Report.Epochs, Samples.size());
  ASSERT_EQ(Report.Events.size(), Online.size());
  for (size_t I = 0; I < Online.size(); ++I) {
    EXPECT_EQ(Report.Events[I].Epoch, Online[I].Epoch);
    EXPECT_EQ(Report.Events[I].Detector, Online[I].Detector);
    EXPECT_EQ(Report.Events[I].Severity, Online[I].Severity);
    EXPECT_DOUBLE_EQ(Report.Events[I].Value, Online[I].Value);
    EXPECT_EQ(Report.Events[I].Detail, Online[I].Detail);
  }
  HealthMonitor::Snapshot Snap = Mon.snapshot();
  EXPECT_EQ(Report.Overall, Snap.WorstOverall);
  EXPECT_EQ(Report.Worst[static_cast<uint32_t>(
                HealthDetector::MigrationStorm)],
            SloStatus::Red);
}

TEST_F(HealthTest, ReplayFeedsPingPongFromDecisionArtifact) {
  // Fabricate an atdl artifact whose committed migrations thrash one chunk.
  std::string Path = tempPath("pingpong.atdl");
  DecisionLog &Log = DecisionLog::instance();
  ASSERT_TRUE(Log.open(Path));
  uint32_t Name = Log.nameId("arr");
  std::vector<uint64_t> Epochs;
  for (int Round = 0; Round < 3; ++Round) {
    Epochs.push_back(Log.beginEpoch());
    ObjectEpochRecord Obj;
    Obj.Object = 7;
    Obj.NameId = Name;
    Obj.NumChunks = 16;
    Log.recordObject(Obj);
    for (int Dir = 0; Dir < 2; ++Dir) {
      MigrationEventRecord M;
      M.Object = 7;
      M.FirstChunk = 9;
      M.NumChunks = 1;
      M.TargetFast = Dir == 0 ? 1 : 0;
      M.Phase = DecisionPhase::Committed;
      Log.recordMigration(M);
    }
  }
  ASSERT_TRUE(Log.close());

  DecisionArtifact Artifact;
  std::string Error;
  ASSERT_TRUE(readDecisionLog(Path, Artifact, &Error)) << Error;

  std::vector<EpochSample> Samples;
  for (uint64_t E : Epochs)
    Samples.push_back(quietSample(E));

  HealthReport Report = replayHealth(HealthConfig(), Samples, &Artifact, 0);
  std::vector<HealthEvent> PingPong;
  for (const HealthEvent &E : Report.Events)
    if (E.Detector == HealthDetector::PingPong)
      PingPong.push_back(E);
  ASSERT_EQ(PingPong.size(), 2u);
  expectEvent(PingPong[0], Epochs[1], HealthDetector::PingPong,
              HealthSeverity::Warn);
  expectEvent(PingPong[1], Epochs[2], HealthDetector::PingPong,
              HealthSeverity::Critical);
  EXPECT_EQ(Report.Worst[static_cast<uint32_t>(HealthDetector::PingPong)],
            SloStatus::Red);

  // Without the artifact the ping-pong detector has no input.
  HealthReport Bare = replayHealth(HealthConfig(), Samples);
  EXPECT_EQ(Bare.Worst[static_cast<uint32_t>(HealthDetector::PingPong)],
            SloStatus::Green);
}

//===----------------------------------------------------------------------===//
// Runtime integration: live monitor, stats-socket panel, event log
//===----------------------------------------------------------------------===//

TEST_F(HealthTest, RuntimeServesHealthPanelAndWritesEventLog) {
  std::string Socket = tempPath("health_live.sock");
  std::string LogPath = tempPath("health_live.jsonl");

  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
  Config.Telemetry.StatsSocketPath = Socket;
  Config.Telemetry.HealthEnabled = true;
  Config.Telemetry.HealthLogPath = LogPath;
  // An impossible overhead budget makes the detector fire deterministically
  // on the first epoch that carries an iteration wall measurement.
  std::string Error;
  ASSERT_TRUE(
      parseHealthKnobs("overhead_warn=0.0", Config.Telemetry.Health, &Error))
      << Error;

  {
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

    std::string Body;
    ASSERT_TRUE(statsSocketFetch(Socket, Body, &Error)) << Error;
    JsonValue Doc;
    ASSERT_TRUE(parseJson(Body, Doc, &Error)) << Error;
    const JsonValue *Health = Doc.find("health");
    ASSERT_NE(Health, nullptr);
    const JsonValue *Overall = Health->findString("overall");
    ASSERT_NE(Overall, nullptr);
    EXPECT_EQ(Overall->StringVal, "yellow");
    const JsonValue *Events = Health->find("events");
    ASSERT_NE(Events, nullptr);
    const JsonValue *Warn = Events->findNumber("warn");
    ASSERT_NE(Warn, nullptr);
    EXPECT_GE(Warn->NumberVal, 1.0);
    const JsonValue *Detectors = Health->find("detectors");
    ASSERT_NE(Detectors, nullptr);
    ASSERT_TRUE(Detectors->isArray());
    ASSERT_EQ(Detectors->Array.size(), NumHealthDetectors);
    bool SawOverhead = false;
    for (const JsonValue &Det : Detectors->Array) {
      const JsonValue *Name = Det.findString("name");
      ASSERT_NE(Name, nullptr);
      if (Name->StringVal != "overhead_budget")
        continue;
      SawOverhead = true;
      const JsonValue *Status = Det.findString("status");
      ASSERT_NE(Status, nullptr);
      EXPECT_EQ(Status->StringVal, "yellow");
      const JsonValue *Evs = Det.findNumber("events");
      ASSERT_NE(Evs, nullptr);
      EXPECT_EQ(Evs->NumberVal, 1.0);
      const JsonValue *Detail = Det.findString("detail");
      ASSERT_NE(Detail, nullptr);
      EXPECT_NE(Detail->StringVal.find("optimize"), std::string::npos);
    }
    EXPECT_TRUE(SawOverhead);
  }

  // The log is process-wide; finalize it the way exportIfConfigured does
  // and check the live events landed.
  ASSERT_TRUE(HealthLog::instance().close(&Error)) << Error;
  std::vector<HealthEvent> Parsed;
  ASSERT_TRUE(parseHealthLog(readFile(LogPath), Parsed, &Error)) << Error;
  bool SawOverheadWarn = false;
  for (const HealthEvent &E : Parsed)
    if (E.Detector == HealthDetector::OverheadBudget &&
        E.Severity == HealthSeverity::Warn)
      SawOverheadWarn = true;
  EXPECT_TRUE(SawOverheadWarn);
}

TEST_F(HealthTest, RuntimeWithoutHealthServesNoHealthSection) {
  std::string Socket = tempPath("health_off.sock");
  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
  Config.Telemetry.StatsSocketPath = Socket;
  core::Runtime Rt(Config);
  core::TrackedArray<uint64_t> Arr = Rt.allocate<uint64_t>("v", 1 << 14);
  Rt.profilingStart();
  Rt.beginIteration();
  for (size_t I = 0; I < Arr.size(); ++I)
    Arr[I] = I;
  Rt.endIteration();
  Rt.profilingStop();
  Rt.optimize();

  std::string Body, Error;
  ASSERT_TRUE(statsSocketFetch(Socket, Body, &Error)) << Error;
  JsonValue Doc;
  ASSERT_TRUE(parseJson(Body, Doc, &Error)) << Error;
  EXPECT_EQ(Doc.find("health"), nullptr);
}

//===----------------------------------------------------------------------===//
// atmem_doctor: end-to-end triage over synthetic artifacts
//===----------------------------------------------------------------------===//

#ifdef ATMEM_DOCTOR_PATH

/// The acceptance scenario: a planted epoch-3 migration storm plus a
/// sustained slow-miss regression, with a decision log supplying the
/// why-chains. The doctor must report both findings at the right epochs
/// with the right severities and exit 5.
TEST_F(HealthTest, DoctorFlagsPlantedStormAndRegression) {
  std::string TsPath = tempPath("doctor_planted.timeseries.jsonl");
  std::string LogPath = tempPath("doctor_planted.atdl");
  std::string OutPath = tempPath("doctor_planted.json");

  // Decision log: object "arr" active every epoch; epoch 3 commits a
  // 64-range storm, the other epochs commit a quiet 2.
  DecisionLog &Log = DecisionLog::instance();
  ASSERT_TRUE(Log.open(LogPath));
  uint32_t Name = Log.nameId("arr");
  for (uint64_t Epoch = 1; Epoch <= 4; ++Epoch) {
    ASSERT_EQ(Log.beginEpoch(), Epoch);
    ObjectEpochRecord Obj;
    Obj.Object = 1;
    Obj.NameId = Name;
    Obj.NumChunks = 128;
    Log.recordObject(Obj);
    uint64_t Ranges = Epoch == 3 ? 64 : 2;
    for (uint64_t R = 0; R < Ranges; ++R) {
      MigrationEventRecord M;
      M.Object = 1;
      M.FirstChunk = static_cast<uint32_t>(R);
      M.NumChunks = 1;
      M.TargetFast = 1;
      M.Phase = DecisionPhase::Committed;
      Log.recordMigration(M);
    }
  }
  ASSERT_TRUE(Log.close());

  // Matching time series: quiet warmup, then the storm epoch also begins
  // a sustained slow-miss regression (warn at 3, critical at 4).
  std::vector<EpochSample> Samples;
  for (uint64_t Epoch = 1; Epoch <= 4; ++Epoch) {
    EpochSample S = quietSample(Epoch);
    S.SlowMissFraction = Epoch >= 3 ? 0.45 : 0.10;
    S.MigrationRanges = Epoch == 3 ? 64 : 2;
    Samples.push_back(S);
  }
  writeFile(TsPath, timeSeriesJsonl(Samples));

  int Exit = runTool(std::string(ATMEM_DOCTOR_PATH) + " --timeseries " +
                         TsPath + " --decision-log " + LogPath + " --json",
                     OutPath);
  EXPECT_EQ(Exit, 5);

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(readFile(OutPath), Doc, &Error)) << Error;
  const JsonValue *Schema = Doc.findString("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->StringVal, "atmem-doctor-v1");
  ASSERT_NE(Doc.findString("overall"), nullptr);
  EXPECT_EQ(Doc.findString("overall")->StringVal, "red");
  const JsonValue *Slo = Doc.find("slo");
  ASSERT_NE(Slo, nullptr);
  ASSERT_NE(Slo->findString("migration_storm"), nullptr);
  EXPECT_EQ(Slo->findString("migration_storm")->StringVal, "red");
  ASSERT_NE(Slo->findString("slow_miss_regression"), nullptr);
  EXPECT_EQ(Slo->findString("slow_miss_regression")->StringVal, "red");

  const JsonValue *Findings = Doc.find("findings");
  ASSERT_NE(Findings, nullptr);
  ASSERT_TRUE(Findings->isArray());
  bool StormAt3 = false, RegressionAt4 = false;
  for (const JsonValue &F : Findings->Array) {
    const JsonValue *Detector = F.findString("detector");
    const JsonValue *Severity = F.findString("severity");
    const JsonValue *Epoch = F.findNumber("epoch");
    const JsonValue *Why = F.findString("why");
    ASSERT_NE(Detector, nullptr);
    ASSERT_NE(Severity, nullptr);
    ASSERT_NE(Epoch, nullptr);
    if (Detector->StringVal == "migration_storm" &&
        Severity->StringVal == "critical" && Epoch->NumberVal == 3.0) {
      StormAt3 = true;
      // The storm finding is cross-linked to a committed chunk's
      // decision-log why-chain.
      ASSERT_NE(Why, nullptr);
      EXPECT_NE(Why->StringVal.find("object 'arr'"), std::string::npos)
          << Why->StringVal;
      EXPECT_NE(Why->StringVal.find("committed"), std::string::npos);
    }
    if (Detector->StringVal == "slow_miss_regression" &&
        Severity->StringVal == "critical" && Epoch->NumberVal == 4.0)
      RegressionAt4 = true;
  }
  EXPECT_TRUE(StormAt3);
  EXPECT_TRUE(RegressionAt4);
}

TEST_F(HealthTest, DoctorReportsHealthyStreamAsExitZero) {
  std::string TsPath = tempPath("doctor_healthy.timeseries.jsonl");
  std::vector<EpochSample> Samples;
  for (uint64_t Epoch = 1; Epoch <= 8; ++Epoch) {
    EpochSample S = quietSample(Epoch);
    S.SlowMissFraction = 0.10;
    S.MigrationRanges = 2;
    Samples.push_back(S);
  }
  writeFile(TsPath, timeSeriesJsonl(Samples));
  EXPECT_EQ(runTool(std::string(ATMEM_DOCTOR_PATH) + " --timeseries " +
                    TsPath),
            0);
  // Custom knobs ride through --health-knobs: an absurdly low storm floor
  // plus warn factor turns the same quiet stream into a warning.
  EXPECT_EQ(runTool(std::string(ATMEM_DOCTOR_PATH) + " --timeseries " +
                    TsPath +
                    " --health-knobs storm_min_ranges=1,storm_warn_factor="
                    "0.5,warmup_epochs=1"),
            4);
  // Unknown knobs are a usage error.
  EXPECT_EQ(runTool(std::string(ATMEM_DOCTOR_PATH) + " --timeseries " +
                    TsPath + " --health-knobs no_such=1"),
            2);
}

TEST_F(HealthTest, DoctorRejectsHostileDecisionLog) {
  // A committed range of 0xFFFFFFF0 chunks on a 16-chunk object would
  // have the ping-pong replay walk billions of chunks; the doctor
  // validates the log it loads and refuses it as invalid input.
  std::string TsPath = tempPath("doctor_hostile.timeseries.jsonl");
  std::string LogPath = tempPath("doctor_hostile.atdl");
  writeFile(TsPath, timeSeriesJsonl({quietSample(1)}));
  auto writeLog = [&](uint32_t NumChunks) {
    DecisionLog &Log = DecisionLog::instance();
    ASSERT_TRUE(Log.open(LogPath));
    Log.beginEpoch();
    ObjectEpochRecord Obj;
    Obj.Object = 1;
    Obj.NameId = Log.nameId("arr");
    Obj.NumChunks = 16;
    Log.recordObject(Obj);
    MigrationEventRecord M;
    M.Object = 1;
    M.NumChunks = NumChunks;
    M.TargetFast = 1;
    M.Phase = DecisionPhase::Committed;
    Log.recordMigration(M);
    ASSERT_TRUE(Log.close());
  };
  std::string Command = std::string(ATMEM_DOCTOR_PATH) + " --timeseries " +
                        TsPath + " --decision-log " + LogPath;
  writeLog(0xFFFFFFF0u);
  EXPECT_EQ(runTool(Command), 1);

  // A log whose only defect is a lost trailer (4-byte length, kind byte,
  // 8-byte count) is still triaged.
  writeLog(16);
  std::string Bytes = readFile(LogPath);
  writeFile(LogPath, Bytes.substr(0, Bytes.size() - 13));
  EXPECT_EQ(runTool(Command), 0);
}

#endif // ATMEM_DOCTOR_PATH

//===----------------------------------------------------------------------===//
// atmem_obs_check: the new artifact validators
//===----------------------------------------------------------------------===//

#ifdef ATMEM_OBS_CHECK_PATH

TEST_F(HealthTest, ObsCheckValidatesTimeSeries) {
  std::string Good = tempPath("check_good.timeseries.jsonl");
  std::vector<EpochSample> Samples;
  for (uint64_t Epoch = 1; Epoch <= 3; ++Epoch)
    Samples.push_back(quietSample(Epoch));
  // A second run segment restarting at 1 is legal (bench batches share
  // one file).
  Samples.push_back(quietSample(1));
  Samples.push_back(quietSample(2));
  writeFile(Good, timeSeriesJsonl(Samples));
  EXPECT_EQ(runTool(std::string(ATMEM_OBS_CHECK_PATH) + " --timeseries " +
                    Good),
            0);

  // An epoch gap inside a segment is invalid.
  std::string Gap = tempPath("check_gap.timeseries.jsonl");
  std::vector<EpochSample> Gapped = {quietSample(1), quietSample(3)};
  writeFile(Gap, timeSeriesJsonl(Gapped));
  EXPECT_EQ(runTool(std::string(ATMEM_OBS_CHECK_PATH) + " --timeseries " +
                    Gap),
            1);

  // A ratio outside [0,1] is invalid.
  std::string Range = tempPath("check_range.timeseries.jsonl");
  std::vector<EpochSample> Bad = {quietSample(1)};
  Bad[0].SlowMissFraction = 1.5;
  writeFile(Range, timeSeriesJsonl(Bad));
  EXPECT_EQ(runTool(std::string(ATMEM_OBS_CHECK_PATH) + " --timeseries " +
                    Range),
            1);
}

TEST_F(HealthTest, ObsCheckValidatesOpenMetrics) {
  std::string Good = tempPath("check_good.om");
  std::vector<EpochSample> Samples = {quietSample(1), quietSample(2)};
  writeFile(Good, timeSeriesOpenMetrics(Samples));
  EXPECT_EQ(runTool(std::string(ATMEM_OBS_CHECK_PATH) + " --openmetrics " +
                    Good),
            0);

  // Truncation loses the mandatory "# EOF" terminator.
  std::string Truncated = tempPath("check_truncated.om");
  std::string Text = timeSeriesOpenMetrics(Samples);
  writeFile(Truncated, Text.substr(0, Text.size() / 2));
  EXPECT_EQ(runTool(std::string(ATMEM_OBS_CHECK_PATH) + " --openmetrics " +
                    Truncated),
            1);
}

TEST_F(HealthTest, ObsCheckTriagesHealthLog) {
  // A header-only log is a healthy run.
  std::string Clean = tempPath("check_clean.health.jsonl");
  writeFile(Clean, "{\"schema\":\"atmem-health-v1\"}\n");
  EXPECT_EQ(runTool(std::string(ATMEM_OBS_CHECK_PATH) + " --health-log " +
                    Clean),
            0);

  // Events parse and count.
  HealthEvent E;
  E.Epoch = 3;
  E.Detector = HealthDetector::MigrationStorm;
  E.Severity = HealthSeverity::Critical;
  E.Detail = "storm";
  std::string WithEvents = tempPath("check_events.health.jsonl");
  writeFile(WithEvents,
            "{\"schema\":\"atmem-health-v1\"}\n" + healthEventJson(E) + "\n");
  EXPECT_EQ(runTool(std::string(ATMEM_OBS_CHECK_PATH) + " --health-log " +
                    WithEvents),
            0);

  // Missing schema header maps to the headerless triage class.
  std::string NoHeader = tempPath("check_noheader.health.jsonl");
  writeFile(NoHeader, healthEventJson(E) + "\n");
  EXPECT_EQ(runTool(std::string(ATMEM_OBS_CHECK_PATH) + " --health-log " +
                    NoHeader),
            4);

  // A malformed event line maps to the corrupt class.
  std::string Corrupt = tempPath("check_corrupt.health.jsonl");
  writeFile(Corrupt,
            "{\"schema\":\"atmem-health-v1\"}\n{\"epoch\":1}\n");
  EXPECT_EQ(runTool(std::string(ATMEM_OBS_CHECK_PATH) + " --health-log " +
                    Corrupt),
            6);

  // An unreadable path maps to the unreadable class.
  EXPECT_EQ(runTool(std::string(ATMEM_OBS_CHECK_PATH) + " --health-log " +
                    tempPath("does_not_exist.health.jsonl")),
            7);
}

#endif // ATMEM_OBS_CHECK_PATH

} // namespace
