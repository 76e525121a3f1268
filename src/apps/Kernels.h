//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete kernel classes. Exposed (rather than hidden behind the
/// factory) so tests can reach the typed result arrays.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_APPS_KERNELS_H
#define ATMEM_APPS_KERNELS_H

#include "apps/Kernel.h"

namespace atmem {
namespace apps {

/// Breadth-first search from the graph's max-degree hub. Result: per
/// vertex BFS level (-1 unreached).
class BfsKernel : public Kernel {
public:
  std::string name() const override { return "bfs"; }
  void setup(core::Runtime &Rt, const graph::CsrGraph &G) override;
  void runIteration() override;
  uint64_t checksum() const override;

  const core::TrackedArray<int32_t> &levels() const { return Levels; }
  graph::VertexId source() const { return Source; }

private:
  GraphArrays Arrays;
  core::TrackedArray<int32_t> Levels;
  graph::VertexId Source = 0;
  std::vector<graph::VertexId> Frontier; ///< Untracked scratch.
  std::vector<graph::VertexId> Next;
};

/// Single-source shortest path (frontier Bellman-Ford) from the hub.
/// Result: per-vertex distance (UINT32_MAX unreached).
class SsspKernel : public Kernel {
public:
  std::string name() const override { return "sssp"; }
  bool needsWeights() const override { return true; }
  void setup(core::Runtime &Rt, const graph::CsrGraph &G) override;
  void runIteration() override;
  uint64_t checksum() const override;

  const core::TrackedArray<uint32_t> &distances() const { return Dist; }
  graph::VertexId source() const { return Source; }

private:
  GraphArrays Arrays;
  core::TrackedArray<uint32_t> Dist;
  graph::VertexId Source = 0;
  std::vector<graph::VertexId> Frontier;
  std::vector<graph::VertexId> Next;
  std::vector<uint8_t> InNext; ///< Untracked frontier membership bits.
};

/// One PageRank power iteration per runIteration() (push style, damping
/// 0.85). Result: per-vertex rank.
class PageRankKernel : public Kernel {
public:
  std::string name() const override { return "pr"; }
  void setup(core::Runtime &Rt, const graph::CsrGraph &G) override;
  void runIteration() override;
  uint64_t checksum() const override;

  const core::TrackedArray<float> &ranks() const { return Rank; }

private:
  GraphArrays Arrays;
  core::TrackedArray<float> Rank;
  core::TrackedArray<float> NextRank;
  core::TrackedArray<float> InvDegree;
};

/// Betweenness centrality (Brandes) from the hub: forward BFS counting
/// shortest paths, then dependency accumulation. Result: per-vertex delta.
class BcKernel : public Kernel {
public:
  std::string name() const override { return "bc"; }
  void setup(core::Runtime &Rt, const graph::CsrGraph &G) override;
  void runIteration() override;
  uint64_t checksum() const override;

  const core::TrackedArray<float> &deltas() const { return Delta; }
  graph::VertexId source() const { return Source; }

private:
  GraphArrays Arrays;
  core::TrackedArray<float> Sigma;
  core::TrackedArray<float> Delta;
  core::TrackedArray<int32_t> Depth;
  graph::VertexId Source = 0;
  std::vector<graph::VertexId> Order; ///< Untracked discovery order.
};

/// Connected components (label propagation with pointer jumping over the
/// undirected closure). Result: per-vertex component label; iterations
/// continue from the current state and each performs one full edge pass.
class CcKernel : public Kernel {
public:
  std::string name() const override { return "cc"; }
  void setup(core::Runtime &Rt, const graph::CsrGraph &G) override;
  void runIteration() override;
  uint64_t checksum() const override;

  const core::TrackedArray<uint32_t> &components() const { return Comp; }
  /// True once a full pass made no update (fixpoint reached).
  bool converged() const { return Converged; }

private:
  GraphArrays Arrays;
  core::TrackedArray<uint32_t> Comp;
  bool Converged = false;
};

/// Triangle counting over the undirected closure: for every edge (u, v)
/// with u < v, intersect the sorted forward-neighbor lists. A classic
/// irregular kernel beyond the paper's five, exercising heavy sequential
/// scans of the edge array with data-dependent reuse.
class TriangleCountKernel : public Kernel {
public:
  std::string name() const override { return "tc"; }
  void setup(core::Runtime &Rt, const graph::CsrGraph &G) override;
  void runIteration() override;
  uint64_t checksum() const override;

  uint64_t triangles() const { return Triangles; }

private:
  GraphArrays Arrays; ///< Forward (degree-ordered, deduplicated) edges.
  core::TrackedArray<uint64_t> PerVertex; ///< Triangles closed per vertex.
  uint64_t Triangles = 0;
};

/// k-core decomposition by iterative peeling over the undirected closure:
/// each runIteration() removes every vertex whose residual degree is
/// below the current k, raising k when the round is stable; coreness is
/// final once no vertex remains.
class KCoreKernel : public Kernel {
public:
  std::string name() const override { return "kcore"; }
  void setup(core::Runtime &Rt, const graph::CsrGraph &G) override;
  void runIteration() override;
  uint64_t checksum() const override;

  const core::TrackedArray<uint32_t> &coreness() const { return Core; }
  bool converged() const { return Converged; }

private:
  GraphArrays Arrays; ///< Symmetrized edges.
  core::TrackedArray<uint32_t> Degree; ///< Residual degree (~0 = removed).
  core::TrackedArray<uint32_t> Core;   ///< Assigned coreness.
  uint32_t CurrentK = 1;
  uint32_t Remaining = 0;
  bool Converged = false;
};

/// Sparse matrix-vector multiply y = A x over the weighted adjacency
/// matrix (the Section 9 generalization workload).
class SpmvKernel : public Kernel {
public:
  std::string name() const override { return "spmv"; }
  bool needsWeights() const override { return true; }
  void setup(core::Runtime &Rt, const graph::CsrGraph &G) override;
  void runIteration() override;
  uint64_t checksum() const override;

  const core::TrackedArray<float> &result() const { return Y; }

private:
  GraphArrays Arrays;
  core::TrackedArray<float> X;
  core::TrackedArray<float> Y;
};

} // namespace apps
} // namespace atmem

#endif // ATMEM_APPS_KERNELS_H
