//===----------------------------------------------------------------------===//
// Tests for the crash-resilient decision ring (obs/RingLog.h): clean
// round-trips through the mmap segment writer, rotation with NameDef
// replay under the byte cap, the torn-write corpus the recovery reader
// must survive (CRC flips, missing segments, bad headers), injected
// device failure at the obs.ring_write site, ring-head publication, the
// salvage-to-flat-file export, and the headline guarantee: a SIGKILLed
// atmem_run loses at most the epoch that was in flight.
//===----------------------------------------------------------------------===//

#include "fault/FaultInjection.h"
#include "obs/DecisionLog.h"
#include "obs/RingLog.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace atmem;
using namespace atmem::obs;

namespace {

/// Every test starts and ends with the process-wide log closed and all
/// fault sites disarmed; a leaked ring sink would record into later
/// tests of this binary.
class RingLogTest : public ::testing::Test {
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

/// Emits one epoch's worth of records (EpochBegin + ObjectEpoch + chunk +
/// migration) through the process-wide log.
void emitEpoch(const char *ObjectName) {
  DecisionLog &Log = DecisionLog::instance();
  Log.beginEpoch();
  uint32_t Name = Log.nameId(ObjectName);

  ObjectEpochRecord Obj;
  Obj.Object = 1;
  Obj.NameId = Name;
  Obj.NumChunks = 8;
  Obj.ChunkBytes = 4096;
  Obj.Theta = 0.5;
  Obj.TrThreshold = 0.375;
  Log.recordObject(Obj);

  ChunkDecisionRecord Chunk;
  Chunk.Object = 1;
  Chunk.Chunk = 3;
  Chunk.Samples = 5;
  Chunk.Priority = 0.25;
  Chunk.Flags = DecisionChunkSampledCritical;
  Log.recordChunk(Chunk);

  MigrationEventRecord Event;
  Event.Object = 1;
  Event.FirstChunk = 3;
  Event.NumChunks = 1;
  Event.TargetFast = 1;
  Event.Phase = DecisionPhase::Committed;
  Log.recordMigration(Event);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

uint32_t loadU32At(const std::string &Bytes, size_t Pos) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(Bytes[Pos + I]))
         << (8 * I);
  return V;
}

/// Byte offsets of every frame in a segment file (atdr-v1 framing:
/// 16-byte segment header, then u32 len | u32 crc | u64 seq | payload;
/// zero length ends the used region).
std::vector<size_t> frameOffsets(const std::string &Bytes) {
  std::vector<size_t> Offsets;
  size_t Pos = 16;
  while (Pos + 16 <= Bytes.size()) {
    uint32_t Len = loadU32At(Bytes, Pos);
    if (Len == 0 || Pos + 16 + Len > Bytes.size())
      break;
    Offsets.push_back(Pos);
    Pos += 16 + Len;
  }
  return Offsets;
}

//===----------------------------------------------------------------------===//
// Clean round-trip and head publication
//===----------------------------------------------------------------------===//

TEST_F(RingLogTest, CleanCloseRoundTripSalvagesEveryEpoch) {
  std::string Base = tempPath("ring_roundtrip.atdr");
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, RingLogOptions(), &Error)) << Error;
  EXPECT_TRUE(DecisionLog::enabled());
  EXPECT_EQ(DecisionLog::instance().path(), Base);

  emitEpoch("rank");
  emitEpoch("rank");
  emitEpoch("rank");
  ASSERT_TRUE(DecisionLog::instance().close(&Error)) << Error;

  ASSERT_TRUE(isRingLog(Base));
  DecisionArtifact Artifact;
  RingRecoveryStats Stats;
  ASSERT_TRUE(readRingLog(Base, Artifact, &Error, &Stats)) << Error;
  EXPECT_TRUE(Stats.CleanClose);
  EXPECT_EQ(Stats.SalvagedEpochs, 3u);
  EXPECT_EQ(Stats.TornFrames, 0u);
  EXPECT_EQ(Stats.DroppedHead, 0u);
  EXPECT_EQ(Stats.DroppedTail, 0u);
  EXPECT_EQ(Stats.Segments, 1u);

  DecisionLogStats LogStats;
  ASSERT_TRUE(validateDecisionLog(Artifact, &Error, &LogStats)) << Error;
  EXPECT_EQ(LogStats.Epochs, 3u);
  EXPECT_EQ(LogStats.Objects, 3u);
  EXPECT_EQ(LogStats.Chunks, 3u);
  EXPECT_EQ(LogStats.CommittedRanges, 3u);
  EXPECT_TRUE(Artifact.HasTrailer);
  EXPECT_EQ(Artifact.TrailerCount, Artifact.Records.size());

  // Name interning survived the salvage.
  bool FoundObject = false;
  for (const DecisionRecord &Rec : Artifact.Records)
    if (Rec.Kind == DecisionKind::ObjectEpoch) {
      EXPECT_EQ(Artifact.name(Rec.Object.NameId), "rank");
      FoundObject = true;
    }
  EXPECT_TRUE(FoundObject);
}

TEST_F(RingLogTest, DispatchAcceptsBaseAndSegmentPaths) {
  std::string Base = tempPath("ring_dispatch.atdr");
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, RingLogOptions(), &Error)) << Error;
  emitEpoch("v");
  emitEpoch("v");
  ASSERT_TRUE(DecisionLog::instance().close(&Error)) << Error;

  std::vector<std::string> Segments = ringSegmentFiles(Base);
  ASSERT_EQ(Segments.size(), 1u);
  EXPECT_EQ(Segments[0], Base + ".000000");

  for (const std::string &Path : {Base, Segments[0]}) {
    DecisionArtifact Artifact;
    bool WasRing = false;
    ASSERT_TRUE(readDecisionLogAny(Path, Artifact, &Error, nullptr,
                                   &WasRing))
        << Path << ": " << Error;
    EXPECT_TRUE(WasRing) << Path;
    EXPECT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;
  }
}

TEST_F(RingLogTest, RingHeadPublishedWhileOpenZeroAfterClose) {
  std::string Base = tempPath("ring_head.atdr");
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, RingLogOptions(), &Error)) << Error;

  RingHead AtOpen = ringHead();
  EXPECT_EQ(AtOpen.Segment, 0u);
  EXPECT_EQ(AtOpen.Offset, 16u); // Just past the segment header.
  EXPECT_EQ(AtOpen.NextSeq, 0u);

  emitEpoch("v");
  RingHead AfterEpoch = ringHead();
  EXPECT_GT(AfterEpoch.Offset, AtOpen.Offset);
  EXPECT_GE(AfterEpoch.NextSeq, 5u); // EpochBegin + NameDef + 3 records.

  ASSERT_TRUE(DecisionLog::instance().close(&Error)) << Error;
  RingHead AfterClose = ringHead();
  EXPECT_EQ(AfterClose.Segment, 0u);
  EXPECT_EQ(AfterClose.Offset, 0u);
  EXPECT_EQ(AfterClose.NextSeq, 0u);
}

//===----------------------------------------------------------------------===//
// Rotation
//===----------------------------------------------------------------------===//

TEST_F(RingLogTest, RotationReplaysNamesAndUnlinksBeyondByteCap) {
  std::string Base = tempPath("ring_rotate.atdr");
  RingLogOptions Options;
  Options.SegmentBytes = 4096; // The clamp minimum: rotate often.
  Options.MaxBytes = 8192;     // Two live segments.
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, Options, &Error)) << Error;

  const char *Name = "object-with-a-name-long-enough-to-matter";
  for (int I = 0; I < 200; ++I)
    emitEpoch(Name);
  ASSERT_TRUE(DecisionLog::instance().close(&Error)) << Error;

  // The cap held and rotation unlinked the oldest segments.
  std::vector<std::string> Segments = ringSegmentFiles(Base);
  ASSERT_GE(Segments.size(), 1u);
  ASSERT_LE(Segments.size(), 2u);
  EXPECT_EQ(readFile(Segments.back()).size(), 4096u);
  EXPECT_NE(Segments[0], Base + ".000000"); // Segment 0 aged out.

  // The surviving window is self-contained: salvage validates and every
  // object record's interned name resolves (the rotation replay).
  DecisionArtifact Artifact;
  RingRecoveryStats Stats;
  ASSERT_TRUE(readRingLog(Base, Artifact, &Error, &Stats)) << Error;
  EXPECT_TRUE(Stats.CleanClose);
  EXPECT_EQ(Stats.Segments, Segments.size());
  EXPECT_GT(Stats.SalvagedEpochs, 0u);
  EXPECT_LT(Stats.SalvagedEpochs, 200u); // Older epochs aged out.
  ASSERT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;
  size_t Objects = 0;
  for (const DecisionRecord &Rec : Artifact.Records)
    if (Rec.Kind == DecisionKind::ObjectEpoch) {
      EXPECT_EQ(Artifact.name(Rec.Object.NameId), Name);
      ++Objects;
    }
  EXPECT_EQ(Objects, Stats.SalvagedEpochs);
}

//===----------------------------------------------------------------------===//
// Torn-write corpus
//===----------------------------------------------------------------------===//

TEST_F(RingLogTest, TornFrameDropsUnterminatedTailEpoch) {
  std::string Base = tempPath("ring_torn.atdr");
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, RingLogOptions(), &Error)) << Error;
  emitEpoch("v");
  emitEpoch("v");
  emitEpoch("v");
  ASSERT_TRUE(DecisionLog::instance().close(&Error)) << Error;

  // Flip one payload byte of the last frame (the trailer): the CRC check
  // must tear it, turning the clean close into a crash-shaped log whose
  // final epoch is unterminated.
  std::string Segment = Base + ".000000";
  std::string Bytes = readFile(Segment);
  std::vector<size_t> Frames = frameOffsets(Bytes);
  ASSERT_GE(Frames.size(), 4u);
  Bytes[Frames.back() + 16] ^= 0x5a;
  writeFile(Segment, Bytes);

  DecisionArtifact Artifact;
  RingRecoveryStats Stats;
  ASSERT_TRUE(readRingLog(Base, Artifact, &Error, &Stats)) << Error;
  EXPECT_FALSE(Stats.CleanClose);
  EXPECT_EQ(Stats.TornFrames, 1u);
  EXPECT_EQ(Stats.SalvagedEpochs, 2u); // Epoch 3 was in flight: dropped.
  EXPECT_GT(Stats.DroppedTail, 0u);
  ASSERT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;
}

TEST_F(RingLogTest, TornFirstFrameSalvagesNothingButStaysReadable) {
  std::string Base = tempPath("ring_torn_first.atdr");
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, RingLogOptions(), &Error)) << Error;
  emitEpoch("v");
  ASSERT_TRUE(DecisionLog::instance().close(&Error)) << Error;

  std::string Segment = Base + ".000000";
  std::string Bytes = readFile(Segment);
  std::vector<size_t> Frames = frameOffsets(Bytes);
  ASSERT_FALSE(Frames.empty());
  Bytes[Frames.front() + 16] ^= 0xff;
  writeFile(Segment, Bytes);

  DecisionArtifact Artifact;
  RingRecoveryStats Stats;
  ASSERT_TRUE(readRingLog(Base, Artifact, &Error, &Stats)) << Error;
  EXPECT_EQ(Stats.TornFrames, 1u);
  EXPECT_EQ(Stats.FramesRead, 0u);
  EXPECT_EQ(Stats.SalvagedEpochs, 0u);
  EXPECT_TRUE(Artifact.Records.empty());
  // Even total loss normalizes into a valid (empty) artifact.
  EXPECT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;
}

TEST_F(RingLogTest, BadFirstSegmentHeaderIsAHardError) {
  std::string Base = tempPath("ring_badmagic.atdr");
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, RingLogOptions(), &Error)) << Error;
  emitEpoch("v");
  ASSERT_TRUE(DecisionLog::instance().close(&Error)) << Error;

  std::string Segment = Base + ".000000";
  std::string Bytes = readFile(Segment);
  Bytes[0] = 'X';
  writeFile(Segment, Bytes);

  DecisionArtifact Artifact;
  EXPECT_FALSE(readRingLog(Base, Artifact, &Error));
  EXPECT_NE(Error.find("bad ring segment header"), std::string::npos)
      << Error;
}

TEST_F(RingLogTest, MissingMiddleSegmentStopsAtTheIndexGap) {
  std::string Base = tempPath("ring_gap.atdr");
  RingLogOptions Options;
  Options.SegmentBytes = 4096;
  Options.MaxBytes = 1 << 20; // Cap far away: keep every segment live.
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, Options, &Error)) << Error;
  for (int I = 0; I < 60; ++I)
    emitEpoch("v");
  ASSERT_TRUE(DecisionLog::instance().close(&Error)) << Error;

  std::vector<std::string> Segments = ringSegmentFiles(Base);
  ASSERT_GE(Segments.size(), 3u);
  ASSERT_EQ(::unlink(Segments[1].c_str()), 0);

  // The scan must stop at the hole instead of splicing unrelated windows:
  // only segment 0's complete epochs survive, and the result validates.
  DecisionArtifact Artifact;
  RingRecoveryStats Stats;
  ASSERT_TRUE(readRingLog(Base, Artifact, &Error, &Stats)) << Error;
  EXPECT_EQ(Stats.Segments, 1u);
  EXPECT_FALSE(Stats.CleanClose);
  EXPECT_GT(Stats.SalvagedEpochs, 0u);
  EXPECT_LT(Stats.SalvagedEpochs, 60u);
  ASSERT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;
}

//===----------------------------------------------------------------------===//
// Injected device failure at obs.ring_write
//===----------------------------------------------------------------------===//

TEST_F(RingLogTest, WriteFaultDropsRecordsWithoutMovingTheHead) {
  std::string Base = tempPath("ring_fault.atdr");
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, RingLogOptions(), &Error)) << Error;
  RingHead Before = ringHead();

  ASSERT_TRUE(fault::armFromSpec("obs.ring_write=every:1", &Error)) << Error;
  emitEpoch("v");
  EXPECT_GT(fault::FaultRegistry::instance().fires("obs.ring_write"), 0u);

  // Every write was dropped: the head never advanced.
  RingHead After = ringHead();
  EXPECT_EQ(After.Segment, Before.Segment);
  EXPECT_EQ(After.Offset, Before.Offset);
  EXPECT_EQ(After.NextSeq, Before.NextSeq);

  // The latched failure surfaces at close, exactly like the file sink.
  EXPECT_FALSE(DecisionLog::instance().close(&Error));
  EXPECT_NE(Error.find("write failure"), std::string::npos) << Error;

  // The untouched segment structure still reads as an empty, valid ring.
  fault::FaultRegistry::instance().disarmAll();
  DecisionArtifact Artifact;
  RingRecoveryStats Stats;
  ASSERT_TRUE(readRingLog(Base, Artifact, &Error, &Stats)) << Error;
  EXPECT_EQ(Stats.FramesRead, 0u);
  EXPECT_EQ(Stats.SalvagedEpochs, 0u);
  EXPECT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;
}

//===----------------------------------------------------------------------===//
// Salvage export
//===----------------------------------------------------------------------===//

TEST_F(RingLogTest, SalvageExportsToAFlatTrailerCompleteFile) {
  std::string Base = tempPath("ring_export.atdr");
  std::string Error;
  ASSERT_TRUE(openDecisionLogRing(Base, RingLogOptions(), &Error)) << Error;
  emitEpoch("v");
  emitEpoch("v");
  ASSERT_TRUE(DecisionLog::instance().close(&Error)) << Error;

  DecisionArtifact Salvaged;
  ASSERT_TRUE(readRingLog(Base, Salvaged, &Error)) << Error;

  std::string Flat = tempPath("ring_export.atdl");
  ASSERT_TRUE(writeDecisionLogFile(Salvaged, Flat, &Error)) << Error;

  DecisionArtifact Reread;
  ASSERT_TRUE(readDecisionLog(Flat, Reread, &Error)) << Error;
  ASSERT_TRUE(validateDecisionLog(Reread, &Error)) << Error;
  EXPECT_TRUE(Reread.HasTrailer);
  EXPECT_EQ(Reread.Records.size(), Salvaged.Records.size());
  EXPECT_FALSE(isRingLog(Flat));
}

//===----------------------------------------------------------------------===//
// The headline guarantee: SIGKILL loses at most the in-flight epoch
//===----------------------------------------------------------------------===//

TEST_F(RingLogTest, SigkilledRunSalvagesEveryCompleteEpoch) {
  std::string Base = tempPath("ring_crash.atdr");
  // A killed earlier run leaves its segments behind; the first peek below
  // must not count their epochs before the child truncates them.
  for (const auto &Entry :
       std::filesystem::directory_iterator(::testing::TempDir()))
    if (Entry.path().filename().string().starts_with("ring_crash.atdr."))
      std::filesystem::remove(Entry.path());

  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // A long multi-epoch run: --reoptimize emits one decision-log epoch
    // per measured iteration, and the iteration count is far more than
    // the parent will ever let finish.
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0) {
      ::dup2(Null, 1);
      ::dup2(Null, 2);
    }
    ::execl(ATMEM_RUN_PATH, ATMEM_RUN_PATH, "--kernel", "pr", "--dataset",
            "rmat24", "--scale", "16384", "--iterations", "1000000",
            "--reoptimize", "--decision-log-ring", Base.c_str(),
            static_cast<char *>(nullptr));
    ::_exit(127);
  }

  // Wait until at least three complete epochs are salvageable, then pull
  // the plug mid-run — with one epoch per iteration the kill lands mid-
  // epoch with overwhelming probability.
  std::string Error;
  uint64_t SeenEpochs = 0;
  for (int Tries = 0; Tries < 600; ++Tries) {
    DecisionArtifact Peek;
    RingRecoveryStats PeekStats;
    if (readRingLog(Base, Peek, &Error, &PeekStats) &&
        PeekStats.SalvagedEpochs >= 3) {
      SeenEpochs = PeekStats.SalvagedEpochs;
      break;
    }
    int Status = 0;
    ASSERT_EQ(::waitpid(Child, &Status, WNOHANG), 0)
        << "atmem_run exited early with status " << Status;
    ::usleep(50 * 1000);
  }
  ASSERT_GE(SeenEpochs, 3u) << "no epochs appeared within 30s";

  ASSERT_EQ(::kill(Child, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFSIGNALED(Status));
  ASSERT_EQ(WTERMSIG(Status), SIGKILL);

  // Everything complete at observation time survived the kill, nothing
  // torn leaked through, and the salvage passes full validation.
  DecisionArtifact Artifact;
  RingRecoveryStats Stats;
  ASSERT_TRUE(readRingLog(Base, Artifact, &Error, &Stats)) << Error;
  EXPECT_FALSE(Stats.CleanClose);
  EXPECT_GE(Stats.SalvagedEpochs, SeenEpochs);
  ASSERT_TRUE(validateDecisionLog(Artifact, &Error)) << Error;

  // The shipped checker agrees: exit 0 on the crash-recovered ring.
  std::string Command = std::string(ATMEM_OBS_CHECK_PATH) +
                        " --decision-log " + Base + " > /dev/null 2>&1";
  int CheckStatus = std::system(Command.c_str());
  ASSERT_TRUE(WIFEXITED(CheckStatus));
  EXPECT_EQ(WEXITSTATUS(CheckStatus), 0);
}

} // namespace
