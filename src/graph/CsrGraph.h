//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compressed sparse row graph representation matching the layout of the
/// paper's SIMD graph framework (GraphPhi): a row-offset array, a column
/// index array, and an optional edge-weight array. These three arrays are
/// exactly the "massive data structures with skewed access patterns" that
/// ATMem's adaptive chunks subdivide.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_GRAPH_CSRGRAPH_H
#define ATMEM_GRAPH_CSRGRAPH_H

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace atmem {
namespace graph {

/// Vertex identifier.
using VertexId = uint32_t;
/// A directed edge (source, destination).
using Edge = std::pair<VertexId, VertexId>;

/// Immutable CSR adjacency structure.
class CsrGraph {
public:
  CsrGraph() = default;
  CsrGraph(std::vector<uint64_t> RowOffsets, std::vector<VertexId> Cols,
           std::vector<uint32_t> Weights = {});

  uint32_t numVertices() const {
    return RowOffsets.empty()
               ? 0
               : static_cast<uint32_t>(RowOffsets.size() - 1);
  }
  uint64_t numEdges() const { return Cols.size(); }
  bool hasWeights() const { return !Weights.empty(); }

  uint64_t outDegree(VertexId V) const {
    return RowOffsets[V + 1] - RowOffsets[V];
  }

  /// Neighbors of \p V (untracked view; the instrumented kernels use their
  /// own tracked copies of the arrays).
  std::span<const VertexId> neighbors(VertexId V) const {
    return {Cols.data() + RowOffsets[V],
            static_cast<size_t>(outDegree(V))};
  }

  const std::vector<uint64_t> &rowOffsets() const { return RowOffsets; }
  const std::vector<VertexId> &cols() const { return Cols; }
  const std::vector<uint32_t> &weights() const { return Weights; }

  /// Vertex with the largest out-degree (the kernels' default source);
  /// 0 for empty graphs.
  VertexId maxDegreeVertex() const;

  /// Fraction of all edges owned by the top \p Fraction of vertices by
  /// degree — the skew metric the generators are validated against.
  double topDegreeEdgeShare(double Fraction) const;

private:
  std::vector<uint64_t> RowOffsets;
  std::vector<VertexId> Cols;
  std::vector<uint32_t> Weights;
};

/// Options controlling edge-list to CSR conversion.
struct BuildOptions {
  bool RemoveSelfLoops = true;
  bool DeduplicateEdges = false;
  /// Adds the reverse of every edge (undirected view).
  bool Symmetrize = false;
};

/// Builds a CSR graph over \p NumVertices from \p Edges. Every row comes
/// out sorted by neighbor id. Aborts if an endpoint is not below
/// \p NumVertices. Large edge lists are sorted on every hardware thread;
/// the output does not depend on the thread count.
CsrGraph buildCsr(uint32_t NumVertices, std::vector<Edge> Edges,
                  const BuildOptions &Options = {});

/// Attaches deterministic pseudo-random edge weights in [1, MaxWeight]
/// derived from \p Seed and the edge endpoints (stable across builds).
/// Aborts if \p MaxWeight is 0.
CsrGraph withRandomWeights(CsrGraph G, uint32_t MaxWeight, uint64_t Seed);

namespace detail {

/// buildCsr() on \p Threads threads, or with 0 on every hardware thread
/// but at most one per 2^20 edges. Tests use it to check that the output
/// does not depend on the count.
CsrGraph buildCsr(uint32_t NumVertices, std::vector<Edge> Edges,
                  const BuildOptions &Options, unsigned Threads);

/// The sort behind buildCsr() (no symmetrizing or deduplication) over an
/// edge array the caller owns; it overwrites the array as scratch. The
/// generators call it on edges their sampling threads first-touched.
CsrGraph buildCsrInPlace(uint32_t NumVertices, std::span<Edge> Edges,
                         bool RemoveSelfLoops, unsigned Threads);

} // namespace detail

} // namespace graph
} // namespace atmem

#endif // ATMEM_GRAPH_CSRGRAPH_H
