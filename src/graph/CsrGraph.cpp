#include "graph/CsrGraph.h"

#include "support/Error.h"
#include "support/Prng.h"

#include <algorithm>
#include <cassert>

using namespace atmem;
using namespace atmem::graph;

CsrGraph::CsrGraph(std::vector<uint64_t> RowOffsetsIn,
                   std::vector<VertexId> ColsIn,
                   std::vector<uint32_t> WeightsIn)
    : RowOffsets(std::move(RowOffsetsIn)), Cols(std::move(ColsIn)),
      Weights(std::move(WeightsIn)) {
  if (RowOffsets.empty())
    reportFatalError("CSR row offsets must contain at least one entry");
  if (RowOffsets.back() != Cols.size())
    reportFatalError("CSR row offsets do not cover the column array");
  if (!Weights.empty() && Weights.size() != Cols.size())
    reportFatalError("CSR weight array size mismatch");
}

VertexId CsrGraph::maxDegreeVertex() const {
  VertexId Best = 0;
  uint64_t BestDegree = 0;
  for (VertexId V = 0; V < numVertices(); ++V) {
    uint64_t Degree = outDegree(V);
    if (Degree > BestDegree) {
      BestDegree = Degree;
      Best = V;
    }
  }
  return Best;
}

double CsrGraph::topDegreeEdgeShare(double Fraction) const {
  if (numEdges() == 0 || numVertices() == 0)
    return 0.0;
  std::vector<uint64_t> Degrees(numVertices());
  for (VertexId V = 0; V < numVertices(); ++V)
    Degrees[V] = outDegree(V);
  std::sort(Degrees.begin(), Degrees.end(), std::greater<uint64_t>());
  auto Top = static_cast<size_t>(Fraction * numVertices());
  if (Top == 0)
    Top = 1;
  uint64_t Sum = 0;
  for (size_t I = 0; I < Top && I < Degrees.size(); ++I)
    Sum += Degrees[I];
  return static_cast<double>(Sum) / static_cast<double>(numEdges());
}

CsrGraph graph::buildCsr(uint32_t NumVertices, std::vector<Edge> Edges,
                         const BuildOptions &Options) {
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

  // Out- and in-degrees, prefix-summed into row offsets (by source) and
  // column offsets (by destination).
  std::vector<uint64_t> RowOffsets(NumVertices + 1, 0);
  std::vector<uint64_t> InOffsets(NumVertices + 1, 0);
  for (const Edge &E : Edges) {
    if (E.first >= NumVertices || E.second >= NumVertices)
      reportFatalError("edge endpoint out of range");
    ++RowOffsets[E.first + 1];
    ++InOffsets[E.second + 1];
  }
  for (uint32_t V = 0; V < NumVertices; ++V) {
    RowOffsets[V + 1] += RowOffsets[V];
    InOffsets[V + 1] += InOffsets[V];
  }

  // Two stable counting sorts sort every row without comparisons. Pass 1
  // groups the sources by destination; pass 2 walks the destinations in
  // ascending order and appends each to its source's row, which
  // therefore comes out sorted. Pass 2 writes into Edges[I].first, free
  // once pass 1 has read it, and the result is copied into Cols. Each
  // pass advances its offsets as cursors, leaving Offsets[V] at the end
  // of group V.
  std::vector<VertexId> Cols(Edges.size());
  for (const Edge &E : Edges)
    Cols[InOffsets[E.second]++] = E.first;
  uint64_t Begin = 0;
  for (VertexId Dst = 0; Dst < NumVertices; ++Dst) {
    for (uint64_t I = Begin; I < InOffsets[Dst]; ++I)
      Edges[RowOffsets[Cols[I]]++].first = Dst;
    Begin = InOffsets[Dst];
  }
  std::move_backward(RowOffsets.begin(), RowOffsets.end() - 1,
                     RowOffsets.end());
  RowOffsets[0] = 0;
  for (size_t I = 0; I < Cols.size(); ++I)
    Cols[I] = Edges[I].first;

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

CsrGraph graph::withRandomWeights(CsrGraph G, uint32_t MaxWeight,
                                  uint64_t Seed) {
  assert(MaxWeight > 0 && "weights need a positive range");
  std::vector<uint32_t> Weights(G.numEdges());
  const std::vector<uint64_t> &Offsets = G.rowOffsets();
  const std::vector<VertexId> &Cols = G.cols();
  for (VertexId V = 0; V + 1 < Offsets.size(); ++V) {
    for (uint64_t I = Offsets[V]; I < Offsets[V + 1]; ++I) {
      // Stable per-edge weight: hash of (seed, src, dst).
      SplitMix64 Hash(Seed ^ (static_cast<uint64_t>(V) << 32) ^ Cols[I]);
      Weights[I] = static_cast<uint32_t>(Hash.next() % MaxWeight) + 1;
    }
  }
  return CsrGraph(std::vector<uint64_t>(G.rowOffsets()),
                  std::vector<VertexId>(G.cols()), std::move(Weights));
}
