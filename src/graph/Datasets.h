//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registry of the paper's five evaluation graphs (Table 2), reproduced as
/// scaled-down synthetic equivalents. Every dataset keeps the original's
/// relative size and degree skew:
///
///   name        | paper V / E       | family     | skew
///   ------------+-------------------+------------+----------------------
///   pokec       | 1.6 M  / 30.6 M   | power-law  | mild  (gamma 2.6)
///   rmat24      | 16.8 M / 268.4 M  | R-MAT s24  | Graph500 params
///   twitter     | 41.7 M / 1.5 B    | power-law  | heavy (gamma 1.9)
///   rmat27      | 134.2 M / 2.1 B   | R-MAT s27  | Graph500 params
///   friendster  | 68.3 M / 2.1 B    | power-law  | medium (gamma 2.3)
///
/// The \p ScaleDivisor shrinks vertex counts (default 256) while average
/// degree is preserved, so capacity-pressure experiments use machine
/// configurations scaled by the same divisor (see sim::nvmDramTestbed).
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_GRAPH_DATASETS_H
#define ATMEM_GRAPH_DATASETS_H

#include "graph/CsrGraph.h"

#include <string>
#include <vector>

namespace atmem {
namespace graph {

/// Metadata plus the generated graph of one dataset.
struct Dataset {
  std::string Name;
  CsrGraph Graph;
  /// The divisor used to scale this instance down from the paper's size.
  double ScaleDivisor = 1.0;
};

/// Names of the five paper datasets in evaluation order.
const std::vector<std::string> &datasetNames();

/// True when \p Name is one of the five datasets.
bool isKnownDataset(const std::string &Name);

/// Builds dataset \p Name at \p ScaleDivisor (paper size / divisor).
/// Aborts on unknown names; check isKnownDataset() first for user input.
Dataset makeDataset(const std::string &Name, double ScaleDivisor = 256.0);

/// Default divisor used across benchmarks; keeps every figure sweep
/// in the minutes range while preserving the paper's relative shapes.
inline constexpr double DefaultScaleDivisor = 256.0;

namespace detail {

/// makeDataset() with its generator on \p Threads threads (0 as in
/// detail::generateRmat()). Tests use it to check that the output does
/// not depend on the count.
Dataset makeDataset(const std::string &Name, double ScaleDivisor,
                    unsigned Threads);

} // namespace detail

} // namespace graph
} // namespace atmem

#endif // ATMEM_GRAPH_DATASETS_H
