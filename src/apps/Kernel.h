//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Kernel interface for the paper's five graph applications (BFS, SSSP,
/// PageRank, BC, CC; Section 6) plus the SpMV generalization (Section 9).
/// A kernel registers its data objects with an ATMem runtime during
/// setup() — CSR arrays plus its per-vertex property arrays — and then
/// executes *iterations*: one full tracked execution of the algorithm.
/// The experiment harnesses profile the first iteration, migrate, and
/// report the time of the second (paper Section 6's methodology).
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_APPS_KERNEL_H
#define ATMEM_APPS_KERNEL_H

#include "core/Runtime.h"
#include "graph/CsrGraph.h"

#include <memory>
#include <string>
#include <vector>

namespace atmem {
namespace apps {

/// CSR arrays registered with a runtime, shared by every kernel.
struct GraphArrays {
  core::TrackedArray<uint64_t> RowOffsets;
  core::TrackedArray<graph::VertexId> Cols;
  core::TrackedArray<uint32_t> Weights; ///< Empty unless weighted.
  uint32_t NumVertices = 0;
  uint64_t NumEdges = 0;
};

/// Registers \p G's arrays with \p Rt (copying the adjacency into tracked
/// memory). Weights are registered only when \p WithWeights and present.
GraphArrays registerGraph(core::Runtime &Rt, const graph::CsrGraph &G,
                          bool WithWeights);

/// One graph application.
class Kernel {
public:
  virtual ~Kernel();

  /// Short name ("bfs", "pr", ...).
  virtual std::string name() const = 0;

  /// True when the kernel consumes edge weights (SSSP, SpMV).
  virtual bool needsWeights() const { return false; }

  /// Registers all data objects with \p Rt and prepares initial state.
  /// Must be called exactly once before the first iteration.
  virtual void setup(core::Runtime &Rt, const graph::CsrGraph &G) = 0;

  /// Runs one full tracked execution of the algorithm.
  virtual void runIteration() = 0;

  /// Order-independent checksum of the current result, for validation
  /// against the reference implementations.
  virtual uint64_t checksum() const = 0;
};

/// Kernel names in the paper's evaluation order.
const std::vector<std::string> &kernelNames();

/// True when \p Name identifies a kernel (including "spmv").
bool isKnownKernel(const std::string &Name);

/// Creates the kernel named \p Name ("bfs", "sssp", "pr", "bc", "cc",
/// "spmv"). Aborts on unknown names.
std::unique_ptr<Kernel> makeKernel(const std::string &Name);

} // namespace apps
} // namespace atmem

#endif // ATMEM_APPS_KERNEL_H
