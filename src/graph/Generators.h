//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic synthetic graph generators standing in for the paper's
/// datasets (Table 2). Two families:
///
///  - R-MAT (recursive matrix) for the rmat24/rmat27 inputs, with the
///    standard Graph500 parameters;
///  - Chung-Lu style power-law generation for the social graphs (pokec,
///    twitter, friendster), where vertex weights follow a power law with a
///    per-dataset exponent so cross-dataset skew differences survive the
///    scale-down. Hubs receive the lowest vertex ids, giving the spatial
///    hot-region clustering real social-graph orderings exhibit.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_GRAPH_GENERATORS_H
#define ATMEM_GRAPH_GENERATORS_H

#include "graph/CsrGraph.h"

#include <cstdint>

namespace atmem {
namespace graph {

/// R-MAT parameters (defaults are the Graph500 quadrant probabilities).
struct RmatParams {
  uint32_t Scale = 16;     ///< 2^Scale vertices.
  double EdgeFactor = 16;  ///< Edges per vertex.
  double A = 0.57;
  double B = 0.19;
  double C = 0.19;
  uint64_t Seed = 1;
};

/// Generates an R-MAT graph as CSR (self-loops removed, neighbors sorted).
/// Aborts unless Scale is 1 to 31, EdgeFactor is finite and non-negative,
/// and the quadrant probabilities are non-negative and sum below 1.
CsrGraph generateRmat(const RmatParams &Params);

/// Chung-Lu power-law parameters.
struct PowerLawParams {
  uint32_t NumVertices = 1 << 16;
  double AverageDegree = 16.0;
  /// Degree distribution exponent gamma (smaller = heavier tail):
  /// twitter-like ~1.9, friendster-like ~2.3, pokec-like ~2.6.
  double Gamma = 2.2;
  uint64_t Seed = 1;
};

/// Generates a power-law graph: expected vertex degrees follow
/// w_v ~ (v+1)^(-1/(Gamma-1)), endpoints sampled proportionally to weight.
/// Vertex 0 is the heaviest hub. Aborts unless NumVertices is positive,
/// AverageDegree is finite and non-negative, and Gamma is finite and
/// above 1.
CsrGraph generatePowerLaw(const PowerLawParams &Params);

namespace detail {

/// generateRmat() and generatePowerLaw() on \p Threads threads, or with 0
/// on every hardware thread but at most one per 2^20 random draws. Tests
/// use them to check that the output does not depend on the count.
CsrGraph generateRmat(const RmatParams &Params, unsigned Threads);
CsrGraph generatePowerLaw(const PowerLawParams &Params, unsigned Threads);

} // namespace detail

} // namespace graph
} // namespace atmem

#endif // ATMEM_GRAPH_GENERATORS_H
