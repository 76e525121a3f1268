#include "graph/Generators.h"

#include "support/Error.h"
#include "support/Parallel.h"
#include "support/Prng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

using namespace atmem;
using namespace atmem::graph;

// Both generators sample their edges in contiguous slices, one per thread.
// Every edge takes a fixed number of draws from the one Xoshiro256 stream
// (R-MAT exactly Scale, Chung-Lu exactly 2), so a slice starting at edge
// Begin starts at draw Begin * DrawsPerEdge, reached with discard(), and
// the edge array is the serial stream's bit for bit.

namespace {

/// The edge count for \p PerVertex edges per vertex over \p NumVertices.
/// Aborts unless \p PerVertex is finite and non-negative and the count
/// fits in 64 bits.
uint64_t edgeCount(double PerVertex, uint32_t NumVertices,
                   const std::string &What) {
  double Count = PerVertex * NumVertices;
  if (!(PerVertex >= 0.0 && Count < 0x1p64)) // Also rejects NaN.
    reportFatalError(What + " must be finite and non-negative and give "
                            "fewer than 2^64 edges, got " +
                     std::to_string(PerVertex));
  return static_cast<uint64_t>(Count);
}

/// Frees an edge array from allocateEdges().
struct FreeEdges {
  void operator()(Edge *Edges) const { ::operator delete(Edges); }
};
using EdgeArray = std::unique_ptr<Edge[], FreeEdges>;

/// Uninitialized storage for \p Count edges, so the sampling threads are
/// the first to touch its pages: a std::vector would zero them all on the
/// calling thread first. ::operator new implicitly creates the Edge
/// objects (a pair of integers is an implicit-lifetime type).
EdgeArray allocateEdges(uint64_t Count) {
  if (Count > SIZE_MAX / sizeof(Edge))
    throw std::bad_alloc();
  return EdgeArray(static_cast<Edge *>(::operator new(Count * sizeof(Edge))));
}

/// Fills \p Edges with Chung-Lu samples: one inverse-CDF sample for the
/// source, then one for the destination, per edge.
void samplePowerLawEdges(const PowerLawParams &Params, std::span<Edge> Edges,
                         unsigned Threads) {
  uint32_t NumVertices = Params.NumVertices;

  // Chung-Lu expected-degree weights: w_v proportional to
  // (v + v0)^(-1/(gamma-1)); v0 softens the head so the top hub does not
  // absorb a constant fraction of all edges regardless of size. The pow()
  // calls run in parallel and the running sum serially, so every partial
  // sum is the one a serial loop computes.
  double Exponent = -1.0 / (Params.Gamma - 1.0);
  double V0 = static_cast<double>(NumVertices) * 0.001 + 1.0;
  std::vector<double> Cumulative(NumVertices);
  parallelFor(Threads, NumVertices,
              [&](unsigned, uint64_t Begin, uint64_t End) {
                for (uint64_t V = Begin; V < End; ++V)
                  Cumulative[V] =
                      std::pow(static_cast<double>(V) + V0, Exponent);
              });
  double Sum = 0.0;
  for (double &Weight : Cumulative) {
    Sum += Weight;
    Weight = Sum;
  }
  // With every weight underflowed, Bucket() below would divide by zero.
  if (!(Sum > 0.0))
    reportFatalError("power-law weights underflow to 0: gamma " +
                     std::to_string(Params.Gamma) + " is too close to 1");

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

  auto SampleVertex = [&](Xoshiro256 &Rng) -> uint32_t {
    double R = Rng.nextDouble() * Sum;
    uint32_t V = Guide[Bucket(R)];
    while (V < NumVertices && Cumulative[V] < R)
      ++V;
    return V == NumVertices ? NumVertices - 1 : V;
  };
  parallelFor(Threads, Edges.size(),
              [&](unsigned, uint64_t Begin, uint64_t End) {
                Xoshiro256 Rng(Params.Seed);
                Rng.discard(2 * Begin);
                for (uint64_t E = Begin; E < End; ++E) {
                  uint32_t Src = SampleVertex(Rng);
                  uint32_t Dst = SampleVertex(Rng);
                  Edges[E] = {Src, Dst};
                }
              });
}

} // namespace

CsrGraph graph::generateRmat(const RmatParams &Params) {
  return detail::generateRmat(Params, 0);
}

CsrGraph graph::detail::generateRmat(const RmatParams &Params,
                                     unsigned Threads) {
  if (Params.Scale < 1 || Params.Scale > 31)
    reportFatalError("R-MAT scale must be 1 to 31, got " +
                     std::to_string(Params.Scale));
  if (!(Params.A >= 0.0 && Params.B >= 0.0 && Params.C >= 0.0 &&
        Params.A + Params.B + Params.C < 1.0))
    reportFatalError("R-MAT quadrant probabilities must be non-negative "
                     "and sum below 1");
  uint32_t NumVertices = 1u << Params.Scale;
  uint64_t NumEdges =
      edgeCount(Params.EdgeFactor, NumVertices, "R-MAT edge factor");
  if (Threads == 0)
    Threads = parallelThreads(NumEdges * Params.Scale);

  EdgeArray Edges = allocateEdges(NumEdges);
  double AB = Params.A + Params.B;
  double ABC = AB + Params.C;
  parallelFor(Threads, NumEdges, [&](unsigned, uint64_t Begin, uint64_t End) {
    Xoshiro256 Rng(Params.Seed);
    Rng.discard(Begin * Params.Scale);
    for (uint64_t E = Begin; E < End; ++E) {
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
      Edges[E] = {Src, Dst};
    }
  });
  return buildCsrInPlace(NumVertices, {Edges.get(), NumEdges},
                         /*RemoveSelfLoops=*/true, Threads);
}

CsrGraph graph::generatePowerLaw(const PowerLawParams &Params) {
  return detail::generatePowerLaw(Params, 0);
}

CsrGraph graph::detail::generatePowerLaw(const PowerLawParams &Params,
                                         unsigned Threads) {
  if (Params.NumVertices == 0)
    reportFatalError("a power-law graph needs at least one vertex");
  if (!(Params.Gamma > 1.0 && std::isfinite(Params.Gamma)))
    reportFatalError("power-law exponent gamma must be finite and above 1, "
                     "got " +
                     std::to_string(Params.Gamma));
  uint64_t NumEdges = edgeCount(Params.AverageDegree, Params.NumVertices,
                                "power-law average degree");
  if (Threads == 0)
    Threads = parallelThreads(2 * NumEdges);

  EdgeArray Edges = allocateEdges(NumEdges);
  // The sampling tables are released before the CSR build allocates.
  samplePowerLawEdges(Params, {Edges.get(), NumEdges}, Threads);
  return buildCsrInPlace(Params.NumVertices, {Edges.get(), NumEdges},
                         /*RemoveSelfLoops=*/true, Threads);
}
