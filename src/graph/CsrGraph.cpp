#include "graph/CsrGraph.h"

#include "support/Error.h"
#include "support/Parallel.h"
#include "support/Prng.h"

#include <algorithm>
#include <memory>

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

namespace {

/// Turns the per-slice key counts in \p Counts (slice S's at
/// Counts[S * NumKeys + K]) into each slice's first position within each
/// key's group, and writes each group's start into \p Offsets
/// (NumKeys + 1 entries). Groups follow key order and, within a group,
/// slices follow slice order, so a scatter through these cursors is a
/// stable counting sort whatever the slice count.
void prefixSumBySlice(uint32_t *Counts, unsigned Slices, uint32_t NumKeys,
                      std::vector<uint64_t> &Offsets) {
  Offsets[0] = 0;
  for (uint32_t Key = 0; Key < NumKeys; ++Key) {
    uint64_t Group = 0;
    for (unsigned Slice = 0; Slice < Slices; ++Slice) {
      uint32_t &Count = Counts[uint64_t(Slice) * NumKeys + Key];
      uint64_t Before = Group;
      Group += Count;
      Count = static_cast<uint32_t>(Before);
    }
    if (Group > UINT32_MAX)
      reportFatalError("a vertex has 2^32 or more edges");
    Offsets[Key + 1] = Offsets[Key] + Group;
  }
}

/// Keeps one copy of each repeated neighbor in every (sorted) row.
CsrGraph deduplicate(const CsrGraph &G) {
  uint32_t NumVertices = G.numVertices();
  const std::vector<uint64_t> &RowOffsets = G.rowOffsets();
  const std::vector<VertexId> &Cols = G.cols();
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

} // namespace

CsrGraph graph::buildCsr(uint32_t NumVertices, std::vector<Edge> Edges,
                         const BuildOptions &Options) {
  return detail::buildCsr(NumVertices, std::move(Edges), Options, 0);
}

CsrGraph graph::detail::buildCsr(uint32_t NumVertices,
                                 std::vector<Edge> Edges,
                                 const BuildOptions &Options,
                                 unsigned Threads) {
  if (Options.Symmetrize) {
    size_t Original = Edges.size();
    Edges.reserve(Original * 2);
    for (size_t I = 0; I < Original; ++I)
      Edges.emplace_back(Edges[I].second, Edges[I].first);
  }
  CsrGraph G =
      buildCsrInPlace(NumVertices, Edges, Options.RemoveSelfLoops, Threads);
  if (Options.DeduplicateEdges)
    return deduplicate(G);
  return G;
}

CsrGraph graph::detail::buildCsrInPlace(uint32_t NumVertices,
                                        std::span<Edge> Edges,
                                        bool RemoveSelfLoops,
                                        unsigned Threads) {
  if (Threads == 0)
    Threads = parallelThreads(Edges.size());
  // Each slice counts keys in 32 bits, so no slice may hold 2^32 edges.
  auto Slices = static_cast<unsigned>(
      std::max<uint64_t>(Threads, (Edges.size() >> 32) + 1));

  // Two stable counting sorts sort every row without comparisons. Pass 1
  // groups the sources by destination into Cols; pass 2 walks Cols in
  // order, so destinations ascend, and appends each destination to its
  // source's row in Edges[I].first, free once pass 1 has read it. Each
  // pass splits its input into contiguous slices, one per thread: a slice
  // counts its keys, the counts are prefix-summed in slice order, and the
  // slice scatters through its own cursors. Slice order is input order,
  // so both sorts are stable and the output bytes do not depend on the
  // slice count. Self-loops are skipped by pass 1's count and scatter.
  // Every buffer is allocated here; the slices only fill them.
  auto Cursors = std::make_unique_for_overwrite<uint32_t[]>(
      uint64_t(Slices) * NumVertices);
  auto SliceCursors = [&](unsigned Slice) {
    uint32_t *Begin = Cursors.get() + uint64_t(Slice) * NumVertices;
    return std::span<uint32_t>(Begin, NumVertices);
  };
  auto Skip = [RemoveSelfLoops](const Edge &E) {
    return RemoveSelfLoops && E.first == E.second;
  };

  std::vector<uint64_t> InOffsets(NumVertices + 1);
  parallelFor(Slices, Edges.size(), [&](unsigned Slice, uint64_t Begin,
                                        uint64_t End) {
    std::span<uint32_t> Count = SliceCursors(Slice);
    std::fill(Count.begin(), Count.end(), 0);
    for (uint64_t I = Begin; I < End; ++I) {
      const Edge &E = Edges[I];
      if (Skip(E))
        continue;
      if (E.first >= NumVertices || E.second >= NumVertices)
        reportFatalError("edge endpoint out of range");
      ++Count[E.second];
    }
  });
  prefixSumBySlice(Cursors.get(), Slices, NumVertices, InOffsets);
  std::vector<VertexId> Cols(InOffsets[NumVertices]);
  parallelFor(Slices, Edges.size(), [&](unsigned Slice, uint64_t Begin,
                                        uint64_t End) {
    std::span<uint32_t> Next = SliceCursors(Slice);
    for (uint64_t I = Begin; I < End; ++I) {
      const Edge &E = Edges[I];
      if (!Skip(E))
        Cols[InOffsets[E.second] + Next[E.second]++] = E.first;
    }
  });

  std::vector<uint64_t> RowOffsets(NumVertices + 1);
  parallelFor(Slices, Cols.size(), [&](unsigned Slice, uint64_t Begin,
                                       uint64_t End) {
    std::span<uint32_t> Count = SliceCursors(Slice);
    std::fill(Count.begin(), Count.end(), 0);
    for (uint64_t I = Begin; I < End; ++I)
      ++Count[Cols[I]];
  });
  prefixSumBySlice(Cursors.get(), Slices, NumVertices, RowOffsets);
  parallelFor(Slices, Cols.size(), [&](unsigned Slice, uint64_t Begin,
                                       uint64_t End) {
    if (Begin == End)
      return;
    std::span<uint32_t> Next = SliceCursors(Slice);
    // The destination whose group holds position Begin.
    auto Dst = static_cast<VertexId>(
        std::upper_bound(InOffsets.begin(), InOffsets.end(), Begin) -
        InOffsets.begin() - 1);
    for (uint64_t I = Begin; I < End; ++I) {
      while (InOffsets[Dst + 1] <= I)
        ++Dst;
      VertexId Src = Cols[I];
      Edges[RowOffsets[Src] + Next[Src]++].first = Dst;
    }
  });
  parallelFor(Slices, Cols.size(), [&](unsigned, uint64_t Begin,
                                       uint64_t End) {
    for (uint64_t I = Begin; I < End; ++I)
      Cols[I] = Edges[I].first;
  });
  return CsrGraph(std::move(RowOffsets), std::move(Cols));
}

CsrGraph graph::withRandomWeights(CsrGraph G, uint32_t MaxWeight,
                                  uint64_t Seed) {
  if (MaxWeight == 0)
    reportFatalError("edge weights need a maximum of at least 1");
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
