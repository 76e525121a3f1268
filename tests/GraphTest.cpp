//===----------------------------------------------------------------------===//
// Unit tests for the graph library: CSR building, generators, datasets,
// and edge-list IO. The generators and the CSR build are also checked
// byte for byte against reference implementations kept in this file, and
// the five datasets against golden digests, at several thread counts.
//===----------------------------------------------------------------------===//

#include "graph/CsrBinaryIO.h"
#include "graph/CsrGraph.h"
#include "graph/Datasets.h"
#include "graph/EdgeListIO.h"
#include "graph/Generators.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace atmem;
using namespace atmem::graph;

namespace {

//===----------------------------------------------------------------------===//
// Reference implementations: the binary-search power-law sampler, the
// branching R-MAT descent and the scatter-then-sort CSR build. The
// production versions must emit exactly their bytes.
//===----------------------------------------------------------------------===//

CsrGraph referenceBuildCsr(uint32_t NumVertices, std::vector<Edge> Edges,
                           const BuildOptions &Options = {}) {
  if (Options.Symmetrize) {
    size_t Original = Edges.size();
    Edges.reserve(Original * 2);
    for (size_t I = 0; I < Original; ++I)
      Edges.emplace_back(Edges[I].second, Edges[I].first);
  }
  if (Options.RemoveSelfLoops) {
    Edges.erase(std::remove_if(Edges.begin(), Edges.end(),
                               [](const Edge &E) {
                                 return E.first == E.second;
                               }),
                Edges.end());
  }
  std::vector<uint64_t> RowOffsets(NumVertices + 1, 0);
  for (const Edge &E : Edges)
    ++RowOffsets[E.first + 1];
  for (uint32_t V = 0; V < NumVertices; ++V)
    RowOffsets[V + 1] += RowOffsets[V];

  std::vector<VertexId> Cols(Edges.size());
  std::vector<uint64_t> Cursor(RowOffsets.begin(), RowOffsets.end() - 1);
  for (const Edge &E : Edges)
    Cols[Cursor[E.first]++] = E.second;
  for (uint32_t V = 0; V < NumVertices; ++V)
    std::sort(Cols.begin() + RowOffsets[V], Cols.begin() + RowOffsets[V + 1]);

  if (Options.DeduplicateEdges) {
    std::vector<uint64_t> NewOffsets(NumVertices + 1, 0);
    std::vector<VertexId> NewCols;
    NewCols.reserve(Cols.size());
    for (uint32_t V = 0; V < NumVertices; ++V) {
      VertexId Last = ~0u;
      for (uint64_t I = RowOffsets[V]; I < RowOffsets[V + 1]; ++I) {
        if (Cols[I] == Last)
          continue;
        NewCols.push_back(Cols[I]);
        Last = Cols[I];
      }
      NewOffsets[V + 1] = NewCols.size();
    }
    return CsrGraph(std::move(NewOffsets), std::move(NewCols));
  }
  return CsrGraph(std::move(RowOffsets), std::move(Cols));
}

CsrGraph referenceRmat(const RmatParams &Params) {
  uint32_t NumVertices = 1u << Params.Scale;
  auto NumEdges = static_cast<uint64_t>(Params.EdgeFactor * NumVertices);
  Xoshiro256 Rng(Params.Seed);
  std::vector<Edge> Edges;
  Edges.reserve(NumEdges);
  double AB = Params.A + Params.B;
  double ABC = AB + Params.C;
  for (uint64_t E = 0; E < NumEdges; ++E) {
    uint32_t Src = 0, Dst = 0;
    for (uint32_t Bit = 0; Bit < Params.Scale; ++Bit) {
      double R = Rng.nextDouble();
      Src <<= 1;
      Dst <<= 1;
      if (R < Params.A) {
        // Top-left quadrant: both bits zero.
      } else if (R < AB) {
        Dst |= 1;
      } else if (R < ABC) {
        Src |= 1;
      } else {
        Src |= 1;
        Dst |= 1;
      }
    }
    Edges.emplace_back(Src, Dst);
  }
  return referenceBuildCsr(NumVertices, std::move(Edges));
}

CsrGraph referencePowerLaw(const PowerLawParams &Params) {
  uint32_t NumVertices = Params.NumVertices;
  auto NumEdges =
      static_cast<uint64_t>(Params.AverageDegree * NumVertices);
  double Exponent = -1.0 / (Params.Gamma - 1.0);
  double V0 = static_cast<double>(NumVertices) * 0.001 + 1.0;
  std::vector<double> Cumulative(NumVertices);
  double Sum = 0.0;
  for (uint32_t V = 0; V < NumVertices; ++V) {
    Sum += std::pow(static_cast<double>(V) + V0, Exponent);
    Cumulative[V] = Sum;
  }
  Xoshiro256 Rng(Params.Seed);
  auto SampleVertex = [&]() -> uint32_t {
    double R = Rng.nextDouble() * Sum;
    auto It = std::lower_bound(Cumulative.begin(), Cumulative.end(), R);
    if (It == Cumulative.end())
      return NumVertices - 1;
    return static_cast<uint32_t>(It - Cumulative.begin());
  };
  std::vector<Edge> Edges;
  Edges.reserve(NumEdges);
  for (uint64_t E = 0; E < NumEdges; ++E) {
    uint32_t Src = SampleVertex();
    uint32_t Dst = SampleVertex();
    Edges.emplace_back(Src, Dst);
  }
  return referenceBuildCsr(NumVertices, std::move(Edges));
}

void expectSameGraph(const CsrGraph &Actual, const CsrGraph &Expected,
                     const std::string &What) {
  EXPECT_EQ(Actual.rowOffsets(), Expected.rowOffsets()) << What;
  EXPECT_EQ(Actual.cols(), Expected.cols()) << What;
}

/// Thread counts the parallel build is checked at: one, even and odd
/// counts, and more threads than this host may have.
constexpr unsigned BuildThreadCounts[] = {1, 2, 3, 4, 7};

std::string onThreads(unsigned Threads) {
  return " on " + std::to_string(Threads) + " threads";
}

/// A random edge list over \p NumVertices with self-loops, duplicates, one
/// hub row, and empty rows (ordinary endpoints come from the lower half).
std::vector<Edge> randomEdgeList(uint32_t NumVertices, Xoshiro256 &Rng) {
  std::vector<Edge> Edges;
  if (NumVertices == 0)
    return Edges;
  uint64_t Count = Rng.nextBounded(4 * static_cast<uint64_t>(NumVertices) + 2);
  auto Hub = static_cast<VertexId>(Rng.nextBounded(NumVertices));
  uint64_t Lower = NumVertices > 3 ? NumVertices / 2 : NumVertices;
  auto Draw = [&](uint64_t Range) {
    return static_cast<VertexId>(Rng.nextBounded(Range));
  };
  for (uint64_t I = 0; I < Count; ++I) {
    uint64_t Kind = Rng.nextBounded(8);
    if (Kind == 0 && !Edges.empty()) {
      Edges.push_back(Edges[Rng.nextBounded(Edges.size())]);
    } else if (Kind == 1) {
      VertexId V = Draw(NumVertices);
      Edges.push_back({V, V});
    } else if (Kind <= 3) {
      Edges.push_back({Hub, Draw(NumVertices)});
    } else {
      Edges.push_back({Draw(Lower), Draw(Lower)});
    }
  }
  return Edges;
}

TEST(CsrGraphTest, BuildFromEdges) {
  CsrGraph G = buildCsr(4, {{0, 1}, {0, 2}, {1, 2}, {3, 0}});
  EXPECT_EQ(G.numVertices(), 4u);
  EXPECT_EQ(G.numEdges(), 4u);
  EXPECT_EQ(G.outDegree(0), 2u);
  EXPECT_EQ(G.outDegree(2), 0u);
  auto N0 = G.neighbors(0);
  ASSERT_EQ(N0.size(), 2u);
  EXPECT_EQ(N0[0], 1u);
  EXPECT_EQ(N0[1], 2u);
}

TEST(CsrGraphTest, SelfLoopsRemovedByDefault) {
  CsrGraph G = buildCsr(3, {{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(G.numEdges(), 1u);
}

TEST(CsrGraphTest, SelfLoopsKeptOnRequest) {
  BuildOptions Options;
  Options.RemoveSelfLoops = false;
  CsrGraph G = buildCsr(3, {{0, 0}, {0, 1}}, Options);
  EXPECT_EQ(G.numEdges(), 2u);
}

TEST(CsrGraphTest, DeduplicateEdges) {
  BuildOptions Options;
  Options.DeduplicateEdges = true;
  CsrGraph G = buildCsr(3, {{0, 1}, {0, 1}, {0, 2}, {0, 2}}, Options);
  EXPECT_EQ(G.numEdges(), 2u);
}

TEST(CsrGraphTest, SymmetrizeAddsReverseEdges) {
  BuildOptions Options;
  Options.Symmetrize = true;
  CsrGraph G = buildCsr(3, {{0, 1}}, Options);
  EXPECT_EQ(G.numEdges(), 2u);
  EXPECT_EQ(G.neighbors(1)[0], 0u);
}

TEST(CsrGraphTest, NeighborsSorted) {
  CsrGraph G = buildCsr(4, {{0, 3}, {0, 1}, {0, 2}});
  auto N = G.neighbors(0);
  EXPECT_TRUE(std::is_sorted(N.begin(), N.end()));
}

TEST(CsrGraphTest, BuildMatchesReferenceUnderEveryOption) {
  Xoshiro256 Rng(2024);
  for (uint32_t NumVertices : {0u, 1u, 2u, 3u, 7u, 64u, 300u}) {
    for (int Trial = 0; Trial < 4; ++Trial) {
      std::vector<Edge> Edges = randomEdgeList(NumVertices, Rng);
      for (int Mask = 0; Mask < 8; ++Mask) {
        BuildOptions Options;
        Options.RemoveSelfLoops = Mask & 1;
        Options.Symmetrize = Mask & 2;
        Options.DeduplicateEdges = Mask & 4;
        CsrGraph Expected = referenceBuildCsr(NumVertices, Edges, Options);
        std::string What = "V=" + std::to_string(NumVertices) + " trial " +
                           std::to_string(Trial) + " options " +
                           std::to_string(Mask);
        expectSameGraph(buildCsr(NumVertices, Edges, Options), Expected,
                        What);
        for (unsigned Threads : BuildThreadCounts)
          expectSameGraph(
              detail::buildCsr(NumVertices, Edges, Options, Threads),
              Expected, What + onThreads(Threads));
      }
    }
  }
}

TEST(CsrGraphTest, MaxDegreeVertex) {
  CsrGraph G = buildCsr(4, {{2, 0}, {2, 1}, {2, 3}, {0, 1}});
  EXPECT_EQ(G.maxDegreeVertex(), 2u);
}

TEST(CsrGraphTest, EmptyGraph) {
  CsrGraph G = buildCsr(0, {});
  EXPECT_EQ(G.numVertices(), 0u);
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_EQ(G.maxDegreeVertex(), 0u);
}

TEST(CsrGraphTest, TopDegreeEdgeShare) {
  // Vertex 0 owns 9 of 10 edges.
  std::vector<Edge> Edges;
  for (uint32_t I = 1; I < 10; ++I)
    Edges.push_back({0, I});
  Edges.push_back({1, 2});
  CsrGraph G = buildCsr(10, Edges);
  EXPECT_NEAR(G.topDegreeEdgeShare(0.1), 0.9, 1e-9);
  EXPECT_DOUBLE_EQ(G.topDegreeEdgeShare(1.0), 1.0);
}

TEST(CsrGraphTest, RandomWeightsDeterministicAndInRange) {
  CsrGraph G = buildCsr(4, {{0, 1}, {0, 2}, {1, 3}});
  CsrGraph W1 = withRandomWeights(G, 255, 42);
  CsrGraph W2 = withRandomWeights(G, 255, 42);
  ASSERT_TRUE(W1.hasWeights());
  EXPECT_EQ(W1.weights(), W2.weights());
  for (uint32_t W : W1.weights()) {
    EXPECT_GE(W, 1u);
    EXPECT_LE(W, 255u);
  }
}

TEST(RmatGeneratorTest, DeterministicForSeed) {
  RmatParams Params;
  Params.Scale = 10;
  Params.EdgeFactor = 8;
  CsrGraph A = generateRmat(Params);
  CsrGraph B = generateRmat(Params);
  EXPECT_EQ(A.cols(), B.cols());
  EXPECT_EQ(A.rowOffsets(), B.rowOffsets());
}

TEST(RmatGeneratorTest, SizeMatchesParameters) {
  RmatParams Params;
  Params.Scale = 10;
  Params.EdgeFactor = 8;
  CsrGraph G = generateRmat(Params);
  EXPECT_EQ(G.numVertices(), 1024u);
  // Self loops removed, so slightly under V * EdgeFactor.
  EXPECT_LE(G.numEdges(), 8192u);
  EXPECT_GT(G.numEdges(), 7000u);
}

TEST(RmatGeneratorTest, ProducesSkewedDegrees) {
  RmatParams Params;
  Params.Scale = 12;
  Params.EdgeFactor = 16;
  CsrGraph G = generateRmat(Params);
  // Graph500 parameters concentrate edges heavily.
  EXPECT_GT(G.topDegreeEdgeShare(0.01), 0.1);
}

TEST(RmatGeneratorTest, MatchesReference) {
  struct Quadrants {
    double A, B, C;
  };
  const Quadrants Sweep[] = {
      {0.57, 0.19, 0.19}, {0.25, 0.25, 0.25}, {0.9, 0.05, 0.04},
      {0.0, 0.5, 0.0}};
  uint64_t Seed = 1;
  for (uint32_t Scale : {1u, 2u, 6u, 11u})
    for (double EdgeFactor : {0.5, 2.0, 16.0})
      for (const Quadrants &Q : Sweep) {
        RmatParams Params;
        Params.Scale = Scale;
        Params.EdgeFactor = EdgeFactor;
        Params.A = Q.A;
        Params.B = Q.B;
        Params.C = Q.C;
        Params.Seed = Seed++;
        CsrGraph Expected = referenceRmat(Params);
        std::string What = "scale " + std::to_string(Scale) + " factor " +
                           std::to_string(EdgeFactor) + " A " +
                           std::to_string(Q.A) + " seed " +
                           std::to_string(Params.Seed);
        expectSameGraph(generateRmat(Params), Expected, What);
        for (unsigned Threads : BuildThreadCounts)
          expectSameGraph(detail::generateRmat(Params, Threads), Expected,
                          What + onThreads(Threads));
      }
}

TEST(PowerLawGeneratorTest, MatchesReference) {
  // Gamma 1.05 gives exponent -20: the weights underflow the running sum
  // after a few vertices, so Cumulative has long flat runs.
  uint64_t Seed = 1;
  for (uint32_t NumVertices : {1u, 2u, 3u, 17u, 1000u, 5003u})
    for (double Gamma : {1.05, 1.3, 1.9, 2.6, 4.0})
      for (double AverageDegree : {0.5, 3.0, 16.0}) {
        PowerLawParams Params;
        Params.NumVertices = NumVertices;
        Params.AverageDegree = AverageDegree;
        Params.Gamma = Gamma;
        Params.Seed = Seed++;
        CsrGraph Expected = referencePowerLaw(Params);
        std::string What = "V=" + std::to_string(NumVertices) + " gamma " +
                           std::to_string(Gamma) + " degree " +
                           std::to_string(AverageDegree);
        expectSameGraph(generatePowerLaw(Params), Expected, What);
        for (unsigned Threads : BuildThreadCounts)
          expectSameGraph(detail::generatePowerLaw(Params, Threads), Expected,
                          What + onThreads(Threads));
      }
}

TEST(PowerLawGeneratorTest, DeterministicForSeed) {
  PowerLawParams Params;
  Params.NumVertices = 2000;
  Params.AverageDegree = 8;
  CsrGraph A = generatePowerLaw(Params);
  CsrGraph B = generatePowerLaw(Params);
  EXPECT_EQ(A.cols(), B.cols());
}

TEST(PowerLawGeneratorTest, HubsAtLowIds) {
  PowerLawParams Params;
  Params.NumVertices = 4096;
  Params.AverageDegree = 16;
  Params.Gamma = 2.0;
  CsrGraph G = generatePowerLaw(Params);
  uint64_t FrontDegrees = 0, BackDegrees = 0;
  for (VertexId V = 0; V < 100; ++V)
    FrontDegrees += G.outDegree(V);
  for (VertexId V = G.numVertices() - 100; V < G.numVertices(); ++V)
    BackDegrees += G.outDegree(V);
  EXPECT_GT(FrontDegrees, 5 * BackDegrees);
}

TEST(PowerLawGeneratorTest, GammaControlsSkew) {
  PowerLawParams Heavy;
  Heavy.NumVertices = 8192;
  Heavy.AverageDegree = 16;
  Heavy.Gamma = 1.9; // Twitter-like.
  PowerLawParams Light = Heavy;
  Light.Gamma = 2.6; // Pokec-like.
  double HeavyShare = generatePowerLaw(Heavy).topDegreeEdgeShare(0.01);
  double LightShare = generatePowerLaw(Light).topDegreeEdgeShare(0.01);
  EXPECT_GT(HeavyShare, LightShare);
}

TEST(DatasetTest, NamesRegistry) {
  EXPECT_EQ(datasetNames().size(), 5u);
  for (const std::string &Name : datasetNames())
    EXPECT_TRUE(isKnownDataset(Name));
  EXPECT_FALSE(isKnownDataset("orkut"));
}

TEST(DatasetTest, ScaledSizesOrdered) {
  // Relative sizes survive scaling: pokec < rmat24 < twitter <= friendster.
  double Scale = 512;
  Dataset Pokec = makeDataset("pokec", Scale);
  Dataset Rmat24 = makeDataset("rmat24", Scale);
  Dataset Twitter = makeDataset("twitter", Scale);
  EXPECT_LT(Pokec.Graph.numEdges(), Rmat24.Graph.numEdges());
  EXPECT_LT(Rmat24.Graph.numEdges(), Twitter.Graph.numEdges());
}

TEST(DatasetTest, DeterministicAcrossCalls) {
  Dataset A = makeDataset("pokec", 512);
  Dataset B = makeDataset("pokec", 512);
  EXPECT_EQ(A.Graph.cols(), B.Graph.cols());
}

TEST(DatasetTest, GoldenDigests) {
  // FNV-1a over the row offsets, then the cols (the binary-CSR digest
  // order). Placement depends on each graph's exact degree skew and
  // vertex order, so a change to the generators or the CSR build must
  // keep every one of these.
  struct Golden {
    const char *Name;
    double Divisor;
    uint64_t Digest;
  };
  const Golden Goldens[] = {
      {"pokec", 2048, 0x2bf3b4473720cd50ull},
      {"rmat24", 2048, 0x5cb5e6e141ee4d02ull},
      {"twitter", 2048, 0x7cae2af16afbe2cfull},
      {"rmat27", 2048, 0x7b435e04453dc55aull},
      {"friendster", 2048, 0xdf7e8f86661215b9ull},
      {"pokec", 256, 0xe7e0ad499c1fe3efull},
      {"rmat24", 256, 0x87a3e45f670e0839ull},
      {"twitter", 256, 0xc83c3173d5cf8393ull},
  };
  for (const Golden &Want : Goldens) {
    CsrGraph G = makeDataset(Want.Name, Want.Divisor).Graph;
    uint64_t Digest =
        fnv1aDigest(G.rowOffsets().data(),
                    G.rowOffsets().size() * sizeof(uint64_t));
    Digest = fnv1aDigest(G.cols().data(), G.cols().size() * sizeof(VertexId),
                         Digest);
    EXPECT_EQ(Digest, Want.Digest)
        << Want.Name << " at divisor " << Want.Divisor;
  }
}

TEST(DatasetTest, GoldenDigestsAtEveryThreadCount) {
  // GoldenDigests' eight datasets and digests, built through the entry
  // point that fixes the thread count: the sampling slices, the weight
  // slices and both counting sorts' slices must not move a byte.
  struct Golden {
    const char *Name;
    double Divisor;
    uint64_t Digest;
  };
  const Golden Goldens[] = {
      {"pokec", 2048, 0x2bf3b4473720cd50ull},
      {"rmat24", 2048, 0x5cb5e6e141ee4d02ull},
      {"twitter", 2048, 0x7cae2af16afbe2cfull},
      {"rmat27", 2048, 0x7b435e04453dc55aull},
      {"friendster", 2048, 0xdf7e8f86661215b9ull},
      {"pokec", 256, 0xe7e0ad499c1fe3efull},
      {"rmat24", 256, 0x87a3e45f670e0839ull},
      {"twitter", 256, 0xc83c3173d5cf8393ull},
  };
  for (unsigned Threads : BuildThreadCounts) {
    for (const Golden &Want : Goldens) {
      CsrGraph G = detail::makeDataset(Want.Name, Want.Divisor, Threads).Graph;
      uint64_t Digest =
          fnv1aDigest(G.rowOffsets().data(),
                      G.rowOffsets().size() * sizeof(uint64_t));
      Digest = fnv1aDigest(G.cols().data(),
                           G.cols().size() * sizeof(VertexId), Digest);
      EXPECT_EQ(Digest, Want.Digest)
          << Want.Name << " at divisor " << Want.Divisor << onThreads(Threads);
    }
  }
}

TEST(DatasetTest, MinimumVertexFloor) {
  Dataset Tiny = makeDataset("pokec", 1e9);
  EXPECT_GE(Tiny.Graph.numVertices(), 1024u);
}

TEST(EdgeListIOTest, RoundTrip) {
  CsrGraph G = buildCsr(5, {{0, 1}, {1, 2}, {2, 3}, {4, 0}});
  std::string Path = testing::TempDir() + "atmem_edges_test.txt";
  ASSERT_TRUE(writeEdgeList(G, Path));
  auto Loaded = readEdgeList(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->numVertices(), G.numVertices());
  EXPECT_EQ(Loaded->cols(), G.cols());
  EXPECT_EQ(Loaded->rowOffsets(), G.rowOffsets());
  std::remove(Path.c_str());
}

TEST(EdgeListIOTest, MissingFileFails) {
  EXPECT_FALSE(readEdgeList("/nonexistent/path/graph.txt").has_value());
}

TEST(EdgeListIOTest, CommentsIgnored) {
  std::string Path = testing::TempDir() + "atmem_edges_comments.txt";
  std::FILE *File = std::fopen(Path.c_str(), "w");
  ASSERT_NE(File, nullptr);
  std::fputs("# header comment\n0 1\n\n1 2\n", File);
  std::fclose(File);
  auto Loaded = readEdgeList(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->numEdges(), 2u);
  std::remove(Path.c_str());
}

/// Writes \p Text to \p Path.
void writeText(const std::string &Path, const char *Text) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  ASSERT_NE(File, nullptr);
  std::fputs(Text, File);
  std::fclose(File);
}

TEST(EdgeListIOTest, RejectsOutOfRangeVertexIds) {
  // The vertex count is max id + 1, so 4294967295 would wrap it to 0;
  // "-1" and "+1" carry a sign; 99999999999 does not fit 32 bits.
  std::string Path = testing::TempDir() + "atmem_edges_range.txt";
  for (const char *Text : {"0 4294967295\n", "4294967295 0\n", "0 -1\n",
                           "0 99999999999\n", "+1 0\n"}) {
    writeText(Path, Text);
    EXPECT_FALSE(readEdgeList(Path).has_value()) << Text;
  }
  std::remove(Path.c_str());
}

TEST(EdgeListIOTest, TabsAndTrailingColumnsAccepted) {
  // SNAP files separate ids with tabs; weighted lists add a third column.
  std::string Path = testing::TempDir() + "atmem_edges_tabs.txt";
  writeText(Path, "0\t2\n  2   1 7\n1 0\r\n");
  auto Loaded = readEdgeList(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->numVertices(), 3u);
  EXPECT_EQ(Loaded->cols(), (std::vector<VertexId>{2, 0, 1}));
  std::remove(Path.c_str());
}

TEST(EdgeListIOTest, MalformedLineFails) {
  std::string Path = testing::TempDir() + "atmem_edges_bad.txt";
  std::FILE *File = std::fopen(Path.c_str(), "w");
  ASSERT_NE(File, nullptr);
  std::fputs("0 1\nbogus line\n", File);
  std::fclose(File);
  EXPECT_FALSE(readEdgeList(Path).has_value());
  std::remove(Path.c_str());
}

} // namespace
