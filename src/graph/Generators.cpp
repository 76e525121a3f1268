#include "graph/Generators.h"

#include "support/Error.h"
#include "support/Prng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

using namespace atmem;
using namespace atmem::graph;

CsrGraph graph::generateRmat(const RmatParams &Params) {
  if (Params.A + Params.B + Params.C >= 1.0)
    reportFatalError("R-MAT quadrant probabilities must sum below 1");
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
      // Quadrants in order A (0,0), B (0,1), C (1,0), D (1,1). The three
      // comparisons select the quadrant without a data-dependent branch:
      // the source bit is set in C and D, the destination bit in B and D.
      double R = Rng.nextDouble();
      bool InA = R < Params.A;
      bool InAB = R < AB;
      bool InABC = R < ABC;
      Src = (Src << 1) | static_cast<uint32_t>(!InAB);
      Dst = (Dst << 1) | static_cast<uint32_t>((!InA & InAB) | !InABC);
    }
    Edges.emplace_back(Src, Dst);
  }
  return buildCsr(NumVertices, std::move(Edges));
}

namespace {

/// Draws the Chung-Lu edge list: one inverse-CDF sample for the source,
/// then one for the destination, per edge.
std::vector<Edge> samplePowerLawEdges(const PowerLawParams &Params) {
  uint32_t NumVertices = Params.NumVertices;
  auto NumEdges =
      static_cast<uint64_t>(Params.AverageDegree * NumVertices);

  // Chung-Lu expected-degree weights: w_v proportional to
  // (v + v0)^(-1/(gamma-1)); v0 softens the head so the top hub does not
  // absorb a constant fraction of all edges regardless of size.
  double Exponent = -1.0 / (Params.Gamma - 1.0);
  double V0 = static_cast<double>(NumVertices) * 0.001 + 1.0;
  std::vector<double> Cumulative(NumVertices);
  double Sum = 0.0;
  for (uint32_t V = 0; V < NumVertices; ++V) {
    Sum += std::pow(static_cast<double>(V) + V0, Exponent);
    Cumulative[V] = Sum;
  }

  // Guide table (Chen and Asau): splits [0, Sum) into NumVertices equal
  // buckets and records, per bucket, the first vertex whose cumulative
  // weight falls in it or later. Bucket() is monotone, so every vertex
  // with Cumulative[V] >= R lies at or after Guide[Bucket(R)], and the
  // forward scan from there returns exactly the first such vertex, which
  // is what a binary search over Cumulative returns. Building the table
  // with the same Bucket() the sampler uses keeps it exact under
  // rounding.
  double BucketsPerWeight = static_cast<double>(NumVertices) / Sum;
  auto Bucket = [&](double Weight) {
    return static_cast<uint32_t>(std::min(
        Weight * BucketsPerWeight, static_cast<double>(NumVertices - 1)));
  };
  std::vector<uint32_t> Guide(NumVertices, NumVertices);
  uint32_t NextBucket = 0;
  for (uint32_t V = 0; V < NumVertices; ++V)
    for (uint32_t Last = Bucket(Cumulative[V]); NextBucket <= Last;)
      Guide[NextBucket++] = V;

  Xoshiro256 Rng(Params.Seed);
  auto SampleVertex = [&]() -> uint32_t {
    double R = Rng.nextDouble() * Sum;
    uint32_t V = Guide[Bucket(R)];
    while (V < NumVertices && Cumulative[V] < R)
      ++V;
    return V == NumVertices ? NumVertices - 1 : V;
  };

  std::vector<Edge> Edges;
  Edges.reserve(NumEdges);
  for (uint64_t E = 0; E < NumEdges; ++E) {
    uint32_t Src = SampleVertex();
    uint32_t Dst = SampleVertex();
    Edges.emplace_back(Src, Dst);
  }
  return Edges;
}

} // namespace

CsrGraph graph::generatePowerLaw(const PowerLawParams &Params) {
  assert(Params.Gamma > 1.0 && "power-law exponent must exceed 1");
  // The sampling tables are released before the CSR build allocates.
  return buildCsr(Params.NumVertices, samplePowerLawEdges(Params));
}
