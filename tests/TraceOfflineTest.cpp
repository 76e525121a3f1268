//===----------------------------------------------------------------------===//
// Tests for the trace-recording subsystem, the offline (full-information)
// profiler, binary CSR serialization, and the interleaved placement
// policy.
//===----------------------------------------------------------------------===//

#include "analyzer/Analyzer.h"
#include "baseline/Experiment.h"
#include "core/Runtime.h"
#include "graph/CsrBinaryIO.h"
#include "graph/Generators.h"
#include "profiler/OfflineProfiler.h"
#include "profiler/TraceFile.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

using namespace atmem;

namespace {

std::string tempPath(const char *Name) {
  return testing::TempDir() + Name;
}

//===----------------------------------------------------------------------===//
// TraceFile
//===----------------------------------------------------------------------===//

TEST(TraceFileTest, WriteReadRoundTrip) {
  std::string Path = tempPath("trace_roundtrip.bin");
  prof::TraceWriter Writer;
  ASSERT_TRUE(Writer.open(Path));
  for (uint64_t I = 0; I < 1000; ++I)
    Writer.record(I * 64);
  EXPECT_EQ(Writer.eventCount(), 1000u);
  ASSERT_TRUE(Writer.finish());

  prof::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path));
  EXPECT_EQ(Reader.eventCount(), 1000u);
  uint64_t Next = 0;
  ASSERT_TRUE(Reader.forEach([&](uint64_t Va) {
    EXPECT_EQ(Va, Next * 64);
    ++Next;
  }));
  EXPECT_EQ(Next, 1000u);
  std::remove(Path.c_str());
}

TEST(TraceFileTest, LargeTraceCrossesFlushBoundaries) {
  std::string Path = tempPath("trace_large.bin");
  prof::TraceWriter Writer;
  ASSERT_TRUE(Writer.open(Path));
  constexpr uint64_t N = 200000; // Exceeds the 64K flush threshold.
  for (uint64_t I = 0; I < N; ++I)
    Writer.record(I);
  ASSERT_TRUE(Writer.finish());
  prof::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path));
  uint64_t Count = 0;
  ASSERT_TRUE(Reader.forEach([&](uint64_t) { ++Count; }));
  EXPECT_EQ(Count, N);
  std::remove(Path.c_str());
}

TEST(TraceFileTest, MissingFileFailsToOpen) {
  prof::TraceReader Reader;
  EXPECT_FALSE(Reader.open("/nonexistent/trace.bin"));
}

TEST(TraceFileTest, BadMagicRejected) {
  std::string Path = tempPath("trace_badmagic.bin");
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  uint64_t Junk[4] = {0xdeadbeef, 0, 0, 0};
  std::fwrite(Junk, sizeof(Junk), 1, File);
  std::fclose(File);
  prof::TraceReader Reader;
  EXPECT_FALSE(Reader.open(Path));
  std::remove(Path.c_str());
}

TEST(TraceFileTest, TruncatedFileDetected) {
  std::string Path = tempPath("trace_trunc.bin");
  prof::TraceWriter Writer;
  ASSERT_TRUE(Writer.open(Path));
  for (uint64_t I = 0; I < 100; ++I)
    Writer.record(I);
  ASSERT_TRUE(Writer.finish());
  // Chop off the last 40 bytes.
  std::FILE *File = std::fopen(Path.c_str(), "rb+");
  ASSERT_NE(File, nullptr);
  std::fseek(File, 0, SEEK_END);
  long Size = std::ftell(File);
  std::fclose(File);
  ASSERT_EQ(truncate(Path.c_str(), Size - 40), 0);

  prof::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path));
  uint64_t Count = 0;
  EXPECT_FALSE(Reader.forEach([&](uint64_t) { ++Count; }));
  EXPECT_LT(Count, 100u);
  std::remove(Path.c_str());
}

TEST(TraceFileTest, RecordWithoutOpenIsNoop) {
  prof::TraceWriter Writer;
  Writer.record(42);
  EXPECT_EQ(Writer.eventCount(), 0u);
  EXPECT_FALSE(Writer.finish());
}

//===----------------------------------------------------------------------===//
// OfflineProfiler
//===----------------------------------------------------------------------===//

class OfflineProfilerTest : public ::testing::Test {
protected:
  OfflineProfilerTest()
      : M(sim::nvmDramTestbed(1.0 / 1024)), Registry(M) {}

  sim::Machine M;
  mem::DataObjectRegistry Registry;
};

TEST_F(OfflineProfilerTest, ExactCounts) {
  mem::DataObject &Obj =
      Registry.create("a", 1 << 20, mem::InitialPlacement::Slow, 65536);
  prof::OfflineProfiler Offline(Registry);
  for (int I = 0; I < 100; ++I)
    Offline.notifyMiss(Obj.va());
  for (int I = 0; I < 37; ++I)
    Offline.notifyMiss(Obj.va() + 65536);
  EXPECT_EQ(Offline.missCount(), 137u);
  prof::ObjectProfile Profile = Offline.profileFor(Obj.id());
  EXPECT_DOUBLE_EQ(Profile.EstimatedMisses[0], 100.0);
  EXPECT_DOUBLE_EQ(Profile.EstimatedMisses[1], 37.0);
  EXPECT_EQ(Offline.period(), 1u);
}

TEST_F(OfflineProfilerTest, LoadTraceAccumulates) {
  mem::DataObject &Obj =
      Registry.create("a", 1 << 20, mem::InitialPlacement::Slow, 65536);
  std::string Path = tempPath("offline_trace.bin");
  prof::TraceWriter Writer;
  ASSERT_TRUE(Writer.open(Path));
  for (int I = 0; I < 500; ++I)
    Writer.record(Obj.va() + (I % 4) * 65536);
  ASSERT_TRUE(Writer.finish());

  prof::OfflineProfiler Offline(Registry);
  ASSERT_TRUE(Offline.loadTrace(Path));
  prof::ObjectProfile Profile = Offline.profileFor(Obj.id());
  EXPECT_DOUBLE_EQ(Profile.EstimatedMisses[0], 125.0);
  EXPECT_DOUBLE_EQ(Profile.EstimatedMisses[3], 125.0);
  std::remove(Path.c_str());
}

TEST_F(OfflineProfilerTest, WorksAsAnalyzerSource) {
  mem::DataObject &Obj =
      Registry.create("a", 1 << 20, mem::InitialPlacement::Slow, 65536);
  prof::OfflineProfiler Offline(Registry);
  // A hot head: chunk 0 gets 100x the misses of the rest.
  for (int I = 0; I < 10000; ++I)
    Offline.notifyMiss(Obj.va());
  for (uint32_t C = 1; C < Obj.numChunks(); ++C)
    for (int I = 0; I < 100; ++I)
      Offline.notifyMiss(Obj.va() + static_cast<uint64_t>(C) * 65536);
  analyzer::Analyzer Anal;
  auto Classes = Anal.classify(Registry, Offline);
  ASSERT_EQ(Classes.size(), 1u);
  EXPECT_TRUE(Classes[0].Local.Critical[0]);
}

/// The headline property: an offline (full-information) placement and the
/// sampled+patched ATMem placement select strongly overlapping chunk
/// sets, quantifying that the tree promotion recovers most of what
/// sampling misses (paper Objective II).
TEST_F(OfflineProfilerTest, SampledPlacementApproximatesOfflinePlacement) {
  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
  core::Runtime Rt(Config);
  auto Hot = Rt.allocate<uint64_t>("hot", 1 << 15);
  auto Cold = Rt.allocate<uint64_t>("cold", 1 << 18);

  prof::OfflineProfiler Offline(Rt.registry());
  std::string Path = tempPath("objective2_trace.bin");
  prof::TraceWriter Writer;
  ASSERT_TRUE(Writer.open(Path));
  Rt.setMissTrace(&Writer);
  Rt.profilingStart();
  Rt.beginIteration();
  uint64_t State = 9;
  for (int I = 0; I < 400000; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    Hot[(State >> 33) & ((1 << 15) - 1)] += 1;
    if (I % 8 == 0)
      Cold[(State >> 20) & ((1 << 18) - 1)] += 1;
  }
  Rt.endIteration();
  Rt.profilingStop();
  Rt.setMissTrace(nullptr);
  ASSERT_TRUE(Writer.finish());
  ASSERT_TRUE(Offline.loadTrace(Path));

  analyzer::Analyzer Anal;
  auto Sampled = Anal.classify(Rt.registry(), Rt.profiler());
  auto Exact = Anal.classify(Rt.registry(), Offline);

  // Placement quality = fraction of the *true* (offline-counted) misses
  // covered by the selected chunks. Individual marginal chunks may
  // differ between the sources (sampling noise reorders the near-ties),
  // but the sampled placement must capture nearly as much real traffic
  // as the full-information one (Objective II).
  auto coverage = [&](const std::vector<analyzer::ObjectClassification>
                          &Classes) {
    double Covered = 0.0, Total = 0.0;
    for (const auto &Class : Classes) {
      prof::ObjectProfile Truth = Offline.profileFor(Class.Object);
      for (uint32_t C = 0; C < Class.numChunks(); ++C) {
        Total += Truth.EstimatedMisses[C];
        if (Class.isSelected(C))
          Covered += Truth.EstimatedMisses[C];
      }
    }
    return Total == 0.0 ? 0.0 : Covered / Total;
  };
  double SampledCoverage = coverage(Sampled);
  double ExactCoverage = coverage(Exact);
  EXPECT_GT(ExactCoverage, 0.5);
  EXPECT_GT(SampledCoverage, 0.8 * ExactCoverage);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Binary CSR IO
//===----------------------------------------------------------------------===//

TEST(CsrBinaryIOTest, RoundTripUnweighted) {
  graph::PowerLawParams Params;
  Params.NumVertices = 2000;
  Params.AverageDegree = 8;
  graph::CsrGraph G = graph::generatePowerLaw(Params);
  std::string Path = tempPath("csr_roundtrip.bin");
  ASSERT_TRUE(graph::writeCsrBinary(G, Path));
  auto Loaded = graph::readCsrBinary(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->rowOffsets(), G.rowOffsets());
  EXPECT_EQ(Loaded->cols(), G.cols());
  EXPECT_FALSE(Loaded->hasWeights());
  std::remove(Path.c_str());
}

TEST(CsrBinaryIOTest, RoundTripWeighted) {
  graph::CsrGraph G = graph::buildCsr(4, {{0, 1}, {1, 2}, {2, 3}});
  G = graph::withRandomWeights(G, 100, 3);
  std::string Path = tempPath("csr_weighted.bin");
  ASSERT_TRUE(graph::writeCsrBinary(G, Path));
  auto Loaded = graph::readCsrBinary(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->weights(), G.weights());
  std::remove(Path.c_str());
}

TEST(CsrBinaryIOTest, CorruptionDetected) {
  graph::CsrGraph G = graph::buildCsr(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  std::string Path = tempPath("csr_corrupt.bin");
  ASSERT_TRUE(graph::writeCsrBinary(G, Path));
  // Flip a payload byte past the header.
  std::FILE *File = std::fopen(Path.c_str(), "rb+");
  ASSERT_NE(File, nullptr);
  std::fseek(File, sizeof(graph::CsrBinaryHeader) + 12, SEEK_SET);
  std::fputc(0x5A, File);
  std::fclose(File);
  EXPECT_FALSE(graph::readCsrBinary(Path).has_value());
  std::remove(Path.c_str());
}

TEST(CsrBinaryIOTest, BadMagicRejected) {
  std::string Path = tempPath("csr_badmagic.bin");
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  const char Junk[64] = "not a csr file";
  std::fwrite(Junk, sizeof(Junk), 1, File);
  std::fclose(File);
  EXPECT_FALSE(graph::readCsrBinary(Path).has_value());
  std::remove(Path.c_str());
}

TEST(CsrBinaryIOTest, MissingFileFails) {
  EXPECT_FALSE(graph::readCsrBinary("/nonexistent/graph.csr").has_value());
}

TEST(CsrBinaryIOTest, DigestIsOrderSensitive) {
  uint64_t A = graph::fnv1aDigest("ab", 2);
  uint64_t B = graph::fnv1aDigest("ba", 2);
  EXPECT_NE(A, B);
  EXPECT_EQ(graph::fnv1aDigest("ab", 2), A);
}

std::vector<char> readBytes(const std::string &Path) {
  std::vector<char> Bytes;
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return Bytes;
  char Buffer[4096];
  size_t Got;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Bytes.insert(Bytes.end(), Buffer, Buffer + Got);
  std::fclose(File);
  return Bytes;
}

void writeBytes(const std::string &Path, const std::vector<char> &Bytes) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  if (!Bytes.empty())
    std::fwrite(Bytes.data(), 1, Bytes.size(), File);
  std::fclose(File);
}

/// The payload digest of \p G, in file order.
uint64_t payloadDigest(const graph::CsrGraph &G) {
  uint64_t Digest =
      graph::fnv1aDigest(G.rowOffsets().data(),
                         G.rowOffsets().size() * sizeof(uint64_t));
  Digest = graph::fnv1aDigest(
      G.cols().data(), G.cols().size() * sizeof(graph::VertexId), Digest);
  return graph::fnv1aDigest(G.weights().data(),
                            G.weights().size() * sizeof(uint32_t), Digest);
}

TEST(CsrBinaryIOTest, HeaderCountsMustMatchFileSize) {
  // Each header alone, with no payload. The reader used to allocate what
  // the header declared: 2^61 edges threw std::length_error, 2^38 edges
  // threw std::bad_alloc under a 4 GB address-space cap, 2^32 vertices
  // truncated to 0, and 2^32 - 1 vertices asked for 32 GiB of offsets.
  struct Counts {
    uint64_t NumVertices, NumEdges;
  };
  const Counts Hostile[] = {{1, 1ull << 61},
                            {1, 1ull << 38},
                            {1ull << 32, 0},
                            {(1ull << 32) - 1, 0}};
  std::string Path = tempPath("csr_hostile_header.bin");
  for (const Counts &C : Hostile) {
    graph::CsrBinaryHeader Header;
    Header.NumVertices = C.NumVertices;
    Header.NumEdges = C.NumEdges;
    const char *Raw = reinterpret_cast<const char *>(&Header);
    writeBytes(Path, std::vector<char>(Raw, Raw + sizeof(Header)));
    EXPECT_FALSE(graph::readCsrBinary(Path).has_value())
        << C.NumVertices << " vertices, " << C.NumEdges << " edges";
  }

  // A valid file one byte short or one byte long.
  ASSERT_TRUE(graph::writeCsrBinary(
      graph::buildCsr(4, {{0, 1}, {1, 2}, {2, 3}}), Path));
  std::vector<char> Bytes = readBytes(Path);
  ASSERT_TRUE(graph::readCsrBinary(Path).has_value());
  std::vector<char> Short(Bytes.begin(), Bytes.end() - 1);
  writeBytes(Path, Short);
  EXPECT_FALSE(graph::readCsrBinary(Path).has_value());
  std::vector<char> Long = Bytes;
  Long.push_back(0);
  writeBytes(Path, Long);
  EXPECT_FALSE(graph::readCsrBinary(Path).has_value());
  std::remove(Path.c_str());
}

TEST(CsrBinaryIOTest, MutationFuzzNeverLoadsADifferentGraph) {
  // Every truncation and 1,000 seeded single-byte flips of a small
  // weighted file: each load fails cleanly or returns the original graph.
  graph::CsrGraph G = graph::withRandomWeights(
      graph::buildCsr(6, {{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 4}, {4, 3},
                          {4, 5}, {5, 0}}),
      1000, 9);
  std::string Path = tempPath("csr_fuzz_source.bin");
  ASSERT_TRUE(graph::writeCsrBinary(G, Path));
  std::vector<char> Original = readBytes(Path);
  ASSERT_GT(Original.size(), sizeof(graph::CsrBinaryHeader));
  uint64_t Want = payloadDigest(G);

  std::string MutantPath = tempPath("csr_fuzz_mutant.bin");
  for (size_t Len = 0; Len < Original.size(); ++Len) {
    writeBytes(MutantPath,
               std::vector<char>(Original.begin(), Original.begin() + Len));
    EXPECT_FALSE(graph::readCsrBinary(MutantPath).has_value())
        << "prefix of " << Len << " bytes";
  }

  Xoshiro256 Rng(4099);
  for (int Iter = 0; Iter < 1000; ++Iter) {
    std::vector<char> Mutant = Original;
    uint64_t Pos = Rng.nextBounded(Mutant.size());
    Mutant[Pos] = static_cast<char>(Mutant[Pos] ^ (1 + Rng.nextBounded(255)));
    writeBytes(MutantPath, Mutant);
    auto Loaded = graph::readCsrBinary(MutantPath);
    if (Loaded) {
      EXPECT_EQ(payloadDigest(*Loaded), Want) << "flip at byte " << Pos;
    }
  }
  std::remove(Path.c_str());
  std::remove(MutantPath.c_str());
}

//===----------------------------------------------------------------------===//
// Interleaved placement
//===----------------------------------------------------------------------===//

TEST(InterleavedPlacementTest, SplitsPagesRoughlyEvenly) {
  sim::Machine M(sim::nvmDramTestbed(1.0 / 1024));
  mem::DataObjectRegistry Registry(M);
  mem::DataObject &Obj =
      Registry.create("a", 16 << 20, mem::InitialPlacement::Interleaved);
  double FastFraction =
      static_cast<double>(M.pageTable().mappedBytesOn(sim::TierId::Fast)) /
      static_cast<double>(Obj.mappedBytes());
  EXPECT_NEAR(FastFraction, 0.5, 0.05);
}

TEST(InterleavedPlacementTest, FallsBackWhenOneTierFills) {
  // Fast tier holds only 2 MiB; an 8 MiB interleaved region must still
  // map fully, overflowing onto the slow tier.
  sim::FrameAllocator Fast(sim::TierId::Fast, 2ull << 20);
  sim::FrameAllocator Slow(sim::TierId::Slow, 64ull << 20);
  sim::PageTable PT(Fast, Slow);
  uint64_t Va = 0x100000000000ull;
  uint64_t OnFast = PT.mapRegionInterleaved(Va, 8ull << 20, true);
  EXPECT_EQ(OnFast, 2ull << 20);
  EXPECT_EQ(PT.mappedBytesOn(sim::TierId::Fast) +
                PT.mappedBytesOn(sim::TierId::Slow),
            8ull << 20);
}

TEST(InterleavedPlacementTest, PolicyNameRegistered) {
  EXPECT_STREQ(baseline::policyName(baseline::Policy::Interleaved),
               "interleaved");
  EXPECT_FALSE(baseline::policyUsesAtmem(baseline::Policy::Interleaved));
}

TEST(InterleavedPlacementTest, ExperimentRunsUnderInterleave) {
  graph::PowerLawParams Params;
  Params.NumVertices = 4000;
  Params.AverageDegree = 8;
  graph::CsrGraph G = graph::generatePowerLaw(Params);
  baseline::RunConfig Config;
  Config.KernelName = "bfs";
  Config.Graph = &G;
  Config.Machine = sim::nvmDramTestbed(1.0 / 1024);
  Config.PolicyKind = baseline::Policy::Interleaved;
  baseline::RunResult Result = baseline::runExperiment(Config);
  EXPECT_GT(Result.FastDataRatio, 0.3);
  EXPECT_LT(Result.FastDataRatio, 0.7);
  EXPECT_GT(Result.MeasuredIterSec, 0.0);
}

} // namespace
