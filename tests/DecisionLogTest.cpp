//===----------------------------------------------------------------------===//
// Tests for the placement-decision flight recorder (obs/DecisionLog.h) and
// the atmem_explain rendering layer: binary round-trips, validator
// corruption rejection, the Eq. 5 edge cases the log must capture, the
// end-to-end causal chain behind every promoted chunk of a planted-hot-set
// run, fault-site attribution with re-nomination, and the guarantee that
// recording does not change placement.
//===----------------------------------------------------------------------===//

#include "analyzer/Analyzer.h"
#include "core/Runtime.h"
#include "fault/FaultInjection.h"
#include "obs/DecisionExplain.h"
#include "obs/DecisionLog.h"
#include "obs/Json.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

using namespace atmem;
using namespace atmem::obs;

namespace {

/// Every test starts and ends with the process-wide log closed; a leaked
/// open log would silently record into later tests of this binary.
class DecisionLogTest : public ::testing::Test {
protected:
  void SetUp() override {
    DecisionLog::instance().close();
    fault::FaultRegistry::instance().disarmAll();
  }
  void TearDown() override {
    DecisionLog::instance().close();
    fault::FaultRegistry::instance().disarmAll();
  }

  static std::string tempPath(const char *Name) {
    return ::testing::TempDir() + Name;
  }
};

DecisionArtifact readBack(const std::string &Path) {
  DecisionArtifact Artifact;
  std::string Error;
  EXPECT_TRUE(readDecisionLog(Path, Artifact, &Error)) << Error;
  return Artifact;
}

//===----------------------------------------------------------------------===//
// Writer / reader round-trip and validator basics
//===----------------------------------------------------------------------===//

TEST_F(DecisionLogTest, RoundTripPreservesEveryField) {
  std::string Path = tempPath("decision_roundtrip.atdl");
  DecisionLog &Log = DecisionLog::instance();
  ASSERT_FALSE(DecisionLog::enabled());
  std::string Error;
  ASSERT_TRUE(Log.open(Path, &Error)) << Error;
  EXPECT_TRUE(DecisionLog::enabled());
  EXPECT_EQ(Log.path(), Path);

  EXPECT_EQ(Log.beginEpoch(), 1u);
  uint32_t Name = Log.nameId("rank");
  EXPECT_NE(Name, 0u);
  EXPECT_EQ(Log.nameId("rank"), Name); // Interned: same id, no new record.

  ObjectEpochRecord Obj;
  Obj.Object = 7;
  Obj.NameId = Name;
  Obj.NumChunks = 32;
  Obj.ChunkBytes = 4096;
  Obj.SamplePeriod = 64;
  Obj.Weight = 0.25;
  Obj.WeightRank = 2;
  Obj.RankedObjects = 3;
  Obj.TrThreshold = 0.375;
  Obj.Theta = 0.5;
  Obj.ThetaPercentile = 0.5;
  Obj.ThetaDerivative = 0.125;
  Obj.ThetaNoiseFloor = 0.0625;
  Obj.Winner = ThetaWinner::Percentile;
  Obj.SampledCritical = 5;
  Obj.PromotedCount = 2;
  Log.recordObject(Obj);

  ChunkDecisionRecord Chunk;
  Chunk.Object = 7;
  Chunk.Chunk = 17;
  Chunk.Samples = 9;
  Chunk.EstimatedMisses = 576.0;
  Chunk.Priority = 0.140625;
  Chunk.Flags = DecisionChunkSampledCritical | DecisionChunkPromoted;
  Chunk.NodeTreeRatio = 0.75;
  Log.recordChunk(Chunk);

  MigrationEventRecord Event;
  Event.Object = 7;
  Event.FirstChunk = 16;
  Event.NumChunks = 4;
  Event.TargetFast = 1;
  Event.Phase = DecisionPhase::RolledBack;
  Event.FaultSiteNameId = Log.nameId("migrator.remap");
  Event.Priority = 0.140625;
  Log.recordMigration(Event);

  ASSERT_TRUE(Log.close(&Error)) << Error;
  EXPECT_FALSE(DecisionLog::enabled());

  DecisionArtifact Artifact = readBack(Path);
  DecisionLogStats Stats;
  ASSERT_TRUE(validateDecisionLog(Artifact, &Error, &Stats)) << Error;
  EXPECT_TRUE(Artifact.HasTrailer);
  EXPECT_EQ(Artifact.TrailerCount, Artifact.Records.size());
  EXPECT_EQ(Stats.Epochs, 1u);
  EXPECT_EQ(Stats.Objects, 1u);
  EXPECT_EQ(Stats.Chunks, 1u);
  EXPECT_EQ(Stats.PromotedChunks, 1u);
  EXPECT_EQ(Stats.RolledBack, 1u);
  EXPECT_EQ(Artifact.name(Name), "rank");

  const ObjectEpochRecord *GotObj = nullptr;
  const ChunkDecisionRecord *GotChunk = nullptr;
  const MigrationEventRecord *GotEvent = nullptr;
  for (const DecisionRecord &Rec : Artifact.Records) {
    if (Rec.Kind == DecisionKind::ObjectEpoch)
      GotObj = &Rec.Object;
    if (Rec.Kind == DecisionKind::ChunkDecision)
      GotChunk = &Rec.Chunk;
    if (Rec.Kind == DecisionKind::MigrationEvent)
      GotEvent = &Rec.Migration;
  }
  ASSERT_TRUE(GotObj && GotChunk && GotEvent);
  EXPECT_EQ(GotObj->Epoch, 1u); // Stamped by the writer.
  EXPECT_EQ(GotObj->Object, 7u);
  EXPECT_EQ(GotObj->NumChunks, 32u);
  EXPECT_DOUBLE_EQ(GotObj->Weight, 0.25);
  EXPECT_EQ(GotObj->WeightRank, 2u);
  EXPECT_DOUBLE_EQ(GotObj->TrThreshold, 0.375);
  EXPECT_DOUBLE_EQ(GotObj->ThetaDerivative, 0.125);
  EXPECT_EQ(GotObj->Winner, ThetaWinner::Percentile);
  EXPECT_EQ(GotChunk->Chunk, 17u);
  EXPECT_EQ(GotChunk->Samples, 9u);
  EXPECT_DOUBLE_EQ(GotChunk->NodeTreeRatio, 0.75);
  EXPECT_EQ(GotChunk->Flags,
            DecisionChunkSampledCritical | DecisionChunkPromoted);
  EXPECT_EQ(GotEvent->Phase, DecisionPhase::RolledBack);
  EXPECT_EQ(Artifact.name(GotEvent->FaultSiteNameId), "migrator.remap");
  EXPECT_EQ(GotEvent->FirstChunk, 16u);
}

TEST_F(DecisionLogTest, RecordingWhileClosedIsANoOp) {
  ObjectEpochRecord Obj;
  DecisionLog::instance().recordObject(Obj); // Must not crash or write.
  EXPECT_EQ(DecisionLog::instance().nameId("ignored"), 0u);
  EXPECT_EQ(DecisionLog::instance().beginEpoch(), 0u);
  EXPECT_FALSE(DecisionLog::instance().isOpen());
}

TEST_F(DecisionLogTest, ValidatorRejectsCorruption) {
  std::string Path = tempPath("decision_corrupt.atdl");
  DecisionLog &Log = DecisionLog::instance();
  ASSERT_TRUE(Log.open(Path));
  Log.beginEpoch();
  ObjectEpochRecord Obj;
  Obj.Object = 1;
  Log.recordObject(Obj);
  ASSERT_TRUE(Log.close());

  std::string Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    std::stringstream Buf;
    Buf << In.rdbuf();
    Bytes = Buf.str();
  }
  ASSERT_GT(Bytes.size(), 16u);

  auto writeVariant = [&](const std::string &Data) {
    std::string Variant = tempPath("decision_corrupt_variant.atdl");
    std::ofstream Out(Variant, std::ios::binary | std::ios::trunc);
    Out.write(Data.data(), static_cast<std::streamsize>(Data.size()));
    Out.close();
    return Variant;
  };

  DecisionArtifact Artifact;
  std::string Error;

  // Bad magic.
  std::string BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_FALSE(readDecisionLog(writeVariant(BadMagic), Artifact, &Error));
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;

  // Unsupported version.
  std::string BadVersion = Bytes;
  BadVersion[4] = 99;
  EXPECT_FALSE(readDecisionLog(writeVariant(BadVersion), Artifact, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;

  // Truncation mid-record: reads what it can but flags the missing
  // trailer at validation time.
  std::string Truncated = Bytes.substr(0, Bytes.size() - 5);
  EXPECT_FALSE(readDecisionLog(writeVariant(Truncated), Artifact, &Error));

  // Clean truncation at a record boundary (producer crashed between
  // records): the read succeeds, the validator reports the lost trailer.
  // Trailer record = 4-byte length + 1-byte kind + 8-byte count.
  std::string NoTrailer = Bytes.substr(0, Bytes.size() - 13);
  ASSERT_TRUE(readDecisionLog(writeVariant(NoTrailer), Artifact, &Error));
  EXPECT_FALSE(validateDecisionLog(Artifact, &Error));
  EXPECT_NE(Error.find("trailer"), std::string::npos) << Error;

  // Corrupted trailer count.
  std::string BadCount = Bytes;
  BadCount[Bytes.size() - 1] ^= 0x40;
  ASSERT_TRUE(readDecisionLog(writeVariant(BadCount), Artifact, &Error));
  EXPECT_FALSE(validateDecisionLog(Artifact, &Error));
  EXPECT_NE(Error.find("trailer claims"), std::string::npos) << Error;

  // The untouched original still validates.
  Artifact = readBack(Path);
  EXPECT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;

  // Crafted records that decode fine but would make the tools walk
  // billions of chunks or misread an enum: each is emitted after a valid
  // ObjectEpoch of a 16-chunk object.
  auto craft = [&](const std::function<void()> &Emit) {
    std::string CraftPath = tempPath("decision_crafted.atdl");
    EXPECT_TRUE(Log.open(CraftPath));
    Log.beginEpoch();
    ObjectEpochRecord Obj16;
    Obj16.Object = 1;
    Obj16.NumChunks = 16;
    Log.recordObject(Obj16);
    Emit();
    EXPECT_TRUE(Log.close());
    return readBack(CraftPath);
  };
  auto event = [&](uint32_t FirstChunk, uint32_t NumChunks) {
    MigrationEventRecord Event;
    Event.Object = 1;
    Event.FirstChunk = FirstChunk;
    Event.NumChunks = NumChunks;
    Event.TargetFast = 1;
    Event.Phase = DecisionPhase::Committed;
    return Event;
  };
  auto recordEvent = [&](MigrationEventRecord Event) {
    return [&Log, Event] { Log.recordMigration(Event); };
  };
  // The harness itself produces valid logs: a whole-object range passes.
  Artifact = craft(recordEvent(event(0, 16)));
  EXPECT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;

  MigrationEventRecord Unknown = event(0, 1);
  Unknown.Object = 2;
  MigrationEventRecord BadPhase = event(0, 1);
  BadPhase.Phase = static_cast<DecisionPhase>(200);
  MigrationEventRecord Retired9 = event(0, 1);
  Retired9.Phase = static_cast<DecisionPhase>(9);
  MigrationEventRecord Retired10 = event(0, 1);
  Retired10.Phase = static_cast<DecisionPhase>(10);
  MigrationEventRecord BadTarget = event(0, 1);
  BadTarget.TargetFast = 2;
  ChunkDecisionRecord PastEnd;
  PastEnd.Object = 1;
  PastEnd.Chunk = 16;
  ObjectEpochRecord BadWinner;
  BadWinner.Object = 3;
  BadWinner.NumChunks = 4;
  BadWinner.Winner = static_cast<ThetaWinner>(3);
  const std::pair<const char *, std::function<void()>> Crafted[] = {
      {"range far past the object", recordEvent(event(0, 0xFFFFFFF0u))},
      {"range one past the end", recordEvent(event(15, 2))},
      {"range wrapping in 32 bits", recordEvent(event(0xFFFFFFF0u, 0x20))},
      {"empty range", recordEvent(event(3, 0))},
      {"event without an ObjectEpoch", recordEvent(Unknown)},
      {"phase byte 200", recordEvent(BadPhase)},
      {"retired phase 9", recordEvent(Retired9)},
      {"retired phase 10", recordEvent(Retired10)},
      {"target byte 2", recordEvent(BadTarget)},
      {"chunk index past the object", [&] { Log.recordChunk(PastEnd); }},
      {"theta winner 3", [&] { Log.recordObject(BadWinner); }},
  };
  for (const auto &[What, Emit] : Crafted) {
    Artifact = craft(Emit);
    EXPECT_FALSE(validateDecisionLog(Artifact, &Error)) << What;
  }
}

//===----------------------------------------------------------------------===//
// Eq. 5 edge cases (equal weights, single object, zero samples) must be
// recorded with the clamped TR' the promoter actually used.
//===----------------------------------------------------------------------===//

/// Hands the analyzer hand-built per-chunk profiles.
class StubProfiler : public prof::ProfileSource {
public:
  std::map<mem::ObjectId, prof::ObjectProfile> Profiles;
  uint64_t Period = 16;

  prof::ObjectProfile profileFor(mem::ObjectId Id) const override {
    auto It = Profiles.find(Id);
    if (It != Profiles.end())
      return It->second;
    return {};
  }
  uint64_t period() const override { return Period; }

  /// A skewed profile: chunk 0 very hot (16 samples), chunks 1-2 warm
  /// (2 samples each), the rest cold. The hot/warm separation exceeds
  /// the selector's StrongSeparation, so chunk 0 classifies critical and
  /// the object's weight is strictly positive.
  void setSkewedProfile(mem::ObjectId Id, uint32_t NumChunks) {
    prof::ObjectProfile P;
    P.Samples.assign(NumChunks, 0);
    P.EstimatedMisses.assign(NumChunks, 0.0);
    const uint64_t Hits[] = {16, 2, 2};
    for (uint32_t C = 0; C < 3 && C < NumChunks; ++C) {
      P.Samples[C] = Hits[C];
      P.EstimatedMisses[C] = static_cast<double>(Hits[C] * Period);
    }
    Profiles[Id] = P;
  }
};

/// Registry + stub-profiler fixture for driving Analyzer::classify
/// directly (no runtime, no kernels).
class Eq5EdgeCaseTest : public DecisionLogTest {
protected:
  Eq5EdgeCaseTest()
      : M(sim::nvmDramTestbed(1.0 / 1024)), Registry(M) {}

  mem::DataObject &makeObject(const char *Name, uint32_t NumChunks) {
    return Registry.create(Name, NumChunks * 4096ull,
                           mem::InitialPlacement::Slow, 4096);
  }

  /// Runs classify with the decision log capturing, returns the log
  /// artifact plus the classifications for ground truth.
  std::vector<analyzer::ObjectClassification>
  classifyLogged(const std::string &Path) {
    DecisionLog &Log = DecisionLog::instance();
    EXPECT_TRUE(Log.open(Path));
    Log.beginEpoch();
    auto Classes = analyzer::Analyzer().classify(Registry, Profiler);
    EXPECT_TRUE(Log.close());
    return Classes;
  }

  static const ObjectEpochRecord &
  objectRecord(const DecisionArtifact &Artifact, uint32_t Object) {
    for (const DecisionRecord &Rec : Artifact.Records)
      if (Rec.Kind == DecisionKind::ObjectEpoch &&
          Rec.Object.Object == Object)
        return Rec.Object;
    ADD_FAILURE() << "no ObjectEpoch record for object " << Object;
    static ObjectEpochRecord Dummy;
    return Dummy;
  }

  sim::Machine M;
  mem::DataObjectRegistry Registry;
  StubProfiler Profiler;
};

TEST_F(Eq5EdgeCaseTest, EqualWeightsUseMidpointNorm) {
  // Two objects with byte-identical profiles: maxW == minW, so Eq. 5's
  // norm degenerates and the midpoint 0.5 must be used for both —
  // TR' = eps + 0.5 * thetaTR = 1/8 + 0.25 = 0.375 with the defaults.
  mem::DataObject &A = makeObject("a", 8);
  mem::DataObject &B = makeObject("b", 8);
  Profiler.setSkewedProfile(A.id(), 8);
  Profiler.setSkewedProfile(B.id(), 8);

  std::string Path = tempPath("decision_eq5_equal.atdl");
  auto Classes = classifyLogged(Path);
  DecisionArtifact Artifact = readBack(Path);
  std::string Error;
  ASSERT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;

  const ObjectEpochRecord &RecA = objectRecord(Artifact, A.id());
  const ObjectEpochRecord &RecB = objectRecord(Artifact, B.id());
  EXPECT_DOUBLE_EQ(RecA.Weight, RecB.Weight);
  EXPECT_GT(RecA.Weight, 0.0);
  EXPECT_DOUBLE_EQ(RecA.TrThreshold, 0.375);
  EXPECT_DOUBLE_EQ(RecB.TrThreshold, 0.375);
  // The log reports the TR' the promoter actually applied.
  for (const auto &Class : Classes) {
    const ObjectEpochRecord &Rec = objectRecord(Artifact, Class.Object);
    EXPECT_DOUBLE_EQ(Rec.TrThreshold, Class.Promotion.Threshold);
    EXPECT_DOUBLE_EQ(Rec.Weight, Class.Promotion.Weight);
  }
}

TEST_F(Eq5EdgeCaseTest, SingleObjectUsesMidpointNorm) {
  mem::DataObject &A = makeObject("only", 8);
  Profiler.setSkewedProfile(A.id(), 8);

  std::string Path = tempPath("decision_eq5_single.atdl");
  auto Classes = classifyLogged(Path);
  DecisionArtifact Artifact = readBack(Path);
  const ObjectEpochRecord &Rec = objectRecord(Artifact, A.id());
  EXPECT_DOUBLE_EQ(Rec.TrThreshold, 0.375); // eps + 0.5 * thetaTR.
  EXPECT_EQ(Rec.WeightRank, 1u);
  EXPECT_EQ(Rec.RankedObjects, 1u);
  ASSERT_EQ(Classes.size(), 1u);
  EXPECT_DOUBLE_EQ(Rec.TrThreshold, Classes[0].Promotion.Threshold);
}

TEST_F(Eq5EdgeCaseTest, ZeroSampleObjectRecordsClampedThreshold) {
  mem::DataObject &Hot = makeObject("hot", 8);
  mem::DataObject &Cold = makeObject("cold", 8);
  Profiler.setSkewedProfile(Hot.id(), 8);
  // "cold" gets no profile at all: zero samples, zero weight.

  std::string Path = tempPath("decision_eq5_zero.atdl");
  auto Classes = classifyLogged(Path);
  DecisionArtifact Artifact = readBack(Path);

  const ObjectEpochRecord &ColdRec = objectRecord(Artifact, Cold.id());
  EXPECT_DOUBLE_EQ(ColdRec.Weight, 0.0);
  EXPECT_EQ(ColdRec.WeightRank, 0u); // Unranked: carries no weight.
  EXPECT_DOUBLE_EQ(ColdRec.TrThreshold, 2.0); // Clamped: never promotes.
  EXPECT_EQ(ColdRec.SampledCritical, 0u);
  EXPECT_EQ(ColdRec.PromotedCount, 0u);
  for (const auto &Class : Classes)
    if (Class.Object == Cold.id())
      EXPECT_DOUBLE_EQ(Class.Promotion.Threshold, 2.0);

  // Cold chunks are implied by absence: no ChunkDecision records.
  for (const DecisionRecord &Rec : Artifact.Records)
    if (Rec.Kind == DecisionKind::ChunkDecision)
      EXPECT_NE(Rec.Chunk.Object, Cold.id());
}

//===----------------------------------------------------------------------===//
// End-to-end: planted hot set through the full runtime
//===----------------------------------------------------------------------===//

/// Runtime-level fixture: a planted hot array beside a cold one, so
/// optimize() must select, promote and migrate a known region.
class RuntimeDecisionTest : public DecisionLogTest {
protected:
  static core::RuntimeConfig testConfig(const std::string &LogPath = "") {
    core::RuntimeConfig Config;
    Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
    Config.Telemetry.DecisionLogPath = LogPath;
    return Config;
  }

  template <typename ArrayT>
  static void profiledHotIteration(core::Runtime &Rt, ArrayT &Hot) {
    Rt.profilingStart();
    Rt.beginIteration();
    uint64_t State = 12345;
    for (int I = 0; I < 200000; ++I) {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      Hot[(State >> 33) & (Hot.size() - 1)] += 1;
    }
    Rt.endIteration();
    Rt.profilingStop();
  }
};

TEST_F(RuntimeDecisionTest, PromotedChunksHaveCompleteCausalChains) {
  std::string Path = tempPath("decision_planted.atdl");
  core::Runtime Rt(testConfig(Path));
  ASSERT_TRUE(DecisionLog::enabled()); // The constructor opened the log.
  auto Hot = Rt.allocate<uint64_t>("hot", 1 << 17);
  profiledHotIteration(Rt, Hot);
  mem::MigrationResult Result = Rt.optimize();
  EXPECT_GT(Result.BytesMoved, 0u);
  ASSERT_TRUE(DecisionLog::instance().close());

  DecisionArtifact Artifact = readBack(Path);
  std::string Error;
  DecisionLogStats Stats;
  ASSERT_TRUE(validateDecisionLog(Artifact, &Error, &Stats)) << Error;
  EXPECT_EQ(Stats.Epochs, 1u);
  EXPECT_GT(Stats.CommittedRanges, 0u);

  // Index the artifact: object verdicts, committed chunk set.
  std::map<uint32_t, const ObjectEpochRecord *> Objects;
  std::map<uint32_t, std::vector<const MigrationEventRecord *>> Events;
  for (const DecisionRecord &Rec : Artifact.Records) {
    if (Rec.Kind == DecisionKind::ObjectEpoch)
      Objects[Rec.Object.Object] = &Rec.Object;
    if (Rec.Kind == DecisionKind::MigrationEvent)
      Events[Rec.Migration.Object].push_back(&Rec.Migration);
  }

  uint32_t PromotedSeen = 0;
  for (const DecisionRecord &Rec : Artifact.Records) {
    if (Rec.Kind != DecisionKind::ChunkDecision ||
        !(Rec.Chunk.Flags & DecisionChunkPromoted))
      continue;
    ++PromotedSeen;
    const ChunkDecisionRecord &Chunk = Rec.Chunk;

    // 1. The object verdict exists and its theta is the max of its terms.
    ASSERT_TRUE(Objects.count(Chunk.Object));
    const ObjectEpochRecord &Obj = *Objects[Chunk.Object];
    double MaxTerm = std::max({Obj.ThetaPercentile, Obj.ThetaDerivative,
                               Obj.ThetaNoiseFloor});
    EXPECT_DOUBLE_EQ(Obj.Theta, MaxTerm);
    const double Terms[] = {Obj.ThetaPercentile, Obj.ThetaDerivative,
                            Obj.ThetaNoiseFloor};
    EXPECT_DOUBLE_EQ(Terms[static_cast<int>(Obj.Winner)], Obj.Theta);

    // 2. The promotion was justified: the recorded tree-node ratio
    //    cleared the recorded (valid) TR' threshold.
    EXPECT_LE(Obj.TrThreshold, 1.0);
    EXPECT_GE(Chunk.NodeTreeRatio, Obj.TrThreshold);

    // 3. A promoted chunk was not sampled critical (it was estimated).
    EXPECT_FALSE(Chunk.Flags & DecisionChunkSampledCritical);

    // 4. The full migration lifecycle covers the chunk.
    bool Planned = false, Staged = false, Remapped = false,
         Committed = false;
    for (const MigrationEventRecord *Event : Events[Chunk.Object]) {
      if (Chunk.Chunk < Event->FirstChunk ||
          Chunk.Chunk >= Event->FirstChunk + Event->NumChunks)
        continue;
      EXPECT_EQ(Event->TargetFast, 1u);
      switch (Event->Phase) {
      case DecisionPhase::Planned:
        Planned = true;
        break;
      case DecisionPhase::Staged:
        Staged = true;
        break;
      case DecisionPhase::Remapped:
        Remapped = true;
        break;
      case DecisionPhase::Committed:
        Committed = true;
        break;
      default:
        break;
      }
    }
    EXPECT_TRUE(Planned) << "chunk " << Chunk.Chunk;
    EXPECT_TRUE(Staged) << "chunk " << Chunk.Chunk;
    EXPECT_TRUE(Remapped) << "chunk " << Chunk.Chunk;
    EXPECT_TRUE(Committed) << "chunk " << Chunk.Chunk;

    // 5. atmem_explain reproduces the chain from the artifact alone.
    WhyQuery Query;
    Query.Object = Artifact.name(Obj.NameId);
    Query.Chunk = Chunk.Chunk;
    std::string Explanation;
    ASSERT_TRUE(explainChunk(Artifact, Query, Explanation, &Error))
        << Error;
    EXPECT_NE(Explanation.find("Eq.2 theta"), std::string::npos);
    EXPECT_NE(Explanation.find("Eq.5 TR'"), std::string::npos);
    EXPECT_NE(Explanation.find("promoted"), std::string::npos);
    EXPECT_NE(Explanation.find("committed"), std::string::npos);
  }
  EXPECT_GT(PromotedSeen, 0u) << "planted hot set promoted nothing";
  EXPECT_EQ(PromotedSeen, Stats.PromotedChunks);

  // The rendering helpers run over the same artifact.
  std::string Heatmap = renderHeatmap(Artifact, "hot");
  EXPECT_NE(Heatmap.find("epoch"), std::string::npos);
  std::string Summary = summarizeDecisions(Artifact);
  EXPECT_NE(Summary.find("hot"), std::string::npos);
  EXPECT_EQ(diffDecisions(Artifact, Artifact),
            "placement decisions identical\n");
}

TEST_F(RuntimeDecisionTest, RecordingDoesNotChangePlacement) {
  // Identical runs with the flight recorder off and on must produce the
  // same per-chunk placement (the "--decision-log off keeps fig05
  // byte-identical" guarantee, asserted at the placement level).
  auto runOnce = [&](const std::string &LogPath) {
    core::Runtime Rt(testConfig(LogPath));
    auto Hot = Rt.allocate<uint64_t>("hot", 1 << 17);
    auto Cold = Rt.allocate<uint64_t>("cold", 1 << 18);
    profiledHotIteration(Rt, Hot);
    Rt.optimize();
    std::vector<uint8_t> Tiers;
    for (mem::ObjectId Id : {Hot.objectId(), Cold.objectId()}) {
      const mem::DataObject &Obj = Rt.registry().object(Id);
      for (uint32_t C = 0; C < Obj.numChunks(); ++C)
        Tiers.push_back(Obj.chunkTier(C) == sim::TierId::Fast ? 1 : 0);
    }
    if (!LogPath.empty())
      EXPECT_TRUE(DecisionLog::instance().close());
    return Tiers;
  };

  std::vector<uint8_t> Off = runOnce("");
  std::vector<uint8_t> On =
      runOnce(tempPath("decision_equivalence.atdl"));
  EXPECT_EQ(Off, On);
}

TEST_F(RuntimeDecisionTest, FaultAttributionAndRenomination) {
  std::string Path = tempPath("decision_faulted.atdl");
  core::RuntimeConfig Config = testConfig(Path);
  Config.MigrationMaxRetries = 1;
  core::Runtime Rt(Config);
  auto Hot = Rt.allocate<uint64_t>("hot", 1 << 17);
  profiledHotIteration(Rt, Hot);

  // Every staging allocation fails: the log must attribute the rollbacks
  // to the staging fault site, record the exhausted retry and the skip.
  fault::FaultPlan Plan;
  Plan.Mode = fault::Trigger::EveryKth;
  Plan.N = 1;
  fault::FaultRegistry::instance().arm("migrator.staging_alloc", Plan);
  mem::MigrationResult Faulted = Rt.optimize();
  fault::FaultRegistry::instance().disarmAll();
  EXPECT_EQ(Faulted.BytesMoved, 0u);
  ASSERT_FALSE(Rt.skippedChunks().empty());

  // The next, unfaulted epoch re-nominates and places the skipped chunks.
  mem::MigrationResult Recovered = Rt.optimize();
  EXPECT_GT(Recovered.BytesMoved, 0u);
  ASSERT_TRUE(DecisionLog::instance().close());

  DecisionArtifact Artifact = readBack(Path);
  std::string Error;
  DecisionLogStats Stats;
  ASSERT_TRUE(validateDecisionLog(Artifact, &Error, &Stats)) << Error;
  EXPECT_EQ(Stats.Epochs, 2u);
  EXPECT_GT(Stats.RolledBack, 0u);
  EXPECT_GT(Stats.Retried, 0u);
  EXPECT_GT(Stats.Skipped, 0u);
  EXPECT_GT(Stats.Renominated, 0u);
  EXPECT_GT(Stats.CommittedRanges, 0u);

  // Every rollback in epoch 1 names the armed fault site; epoch 2 holds
  // the re-nominations and the commits.
  uint64_t Epoch1Rollbacks = 0, Epoch2Commits = 0, Epoch2Renominated = 0;
  for (const DecisionRecord &Rec : Artifact.Records) {
    if (Rec.Kind != DecisionKind::MigrationEvent)
      continue;
    const MigrationEventRecord &Event = Rec.Migration;
    if (Event.Phase == DecisionPhase::RolledBack) {
      EXPECT_EQ(Event.Epoch, 1u);
      EXPECT_EQ(Artifact.name(Event.FaultSiteNameId),
                "migrator.staging_alloc");
      ++Epoch1Rollbacks;
    }
    if (Event.Phase == DecisionPhase::Committed && Event.Epoch == 2)
      ++Epoch2Commits;
    if (Event.Phase == DecisionPhase::Renominated) {
      EXPECT_EQ(Event.Epoch, 2u);
      ++Epoch2Renominated;
    }
  }
  EXPECT_GT(Epoch1Rollbacks, 0u);
  EXPECT_GT(Epoch2Commits, 0u);
  EXPECT_GT(Epoch2Renominated, 0u);

  // The causal chain of the failure is renderable: the why-query for a
  // skipped chunk reports the rollback with its fault site.
  const MigrationEventRecord *Skip = nullptr;
  for (const DecisionRecord &Rec : Artifact.Records)
    if (Rec.Kind == DecisionKind::MigrationEvent &&
        Rec.Migration.Phase == DecisionPhase::Skipped) {
      Skip = &Rec.Migration;
      break;
    }
  ASSERT_NE(Skip, nullptr);
  WhyQuery Query;
  Query.Object = "hot";
  Query.Chunk = Skip->FirstChunk;
  Query.Epoch = 1;
  std::string Explanation;
  ASSERT_TRUE(explainChunk(Artifact, Query, Explanation, &Error)) << Error;
  EXPECT_NE(Explanation.find("rolled_back"), std::string::npos)
      << Explanation;
  EXPECT_NE(Explanation.find("migrator.staging_alloc"), std::string::npos)
      << Explanation;
  EXPECT_NE(Explanation.find("skipped"), std::string::npos) << Explanation;
}

TEST_F(RuntimeDecisionTest, JsonlExportParsesLineByLine) {
  std::string Path = tempPath("decision_jsonl.atdl");
  core::Runtime Rt(testConfig(Path));
  auto Hot = Rt.allocate<uint64_t>("hot", 1 << 17);
  profiledHotIteration(Rt, Hot);
  Rt.optimize();
  ASSERT_TRUE(DecisionLog::instance().close());

  DecisionArtifact Artifact = readBack(Path);
  std::string Jsonl = decisionJsonl(Artifact);
  ASSERT_FALSE(Jsonl.empty());
  size_t Lines = 0;
  std::istringstream In(Jsonl);
  std::string Line;
  bool SawObject = false, SawChunk = false, SawMigration = false;
  while (std::getline(In, Line)) {
    ++Lines;
    JsonValue Doc;
    std::string Error;
    ASSERT_TRUE(parseJson(Line, Doc, &Error)) << Error << "\n" << Line;
    const JsonValue *Kind = Doc.findString("kind");
    ASSERT_NE(Kind, nullptr) << Line;
    SawObject |= Kind->StringVal == "object";
    SawChunk |= Kind->StringVal == "chunk";
    SawMigration |= Kind->StringVal == "migration";
  }
  // Every record except the trailer exports exactly one line.
  EXPECT_EQ(Lines, Artifact.Records.size());
  EXPECT_TRUE(SawObject);
  EXPECT_TRUE(SawChunk);
  EXPECT_TRUE(SawMigration);
}

} // namespace
