#include "apps/Kernels.h"

#include <cmath>
#include <cstring>

using namespace atmem;
using namespace atmem::apps;
using graph::VertexId;

/// Registers an all-ones weight array when the input graph carries none,
/// so the weighted kernels work on any dataset.
static void ensureWeights(core::Runtime &Rt, GraphArrays &Arrays) {
  if (Arrays.Weights.size() == Arrays.NumEdges)
    return;
  bool WasTracking = Rt.trackingEnabled();
  Rt.setTrackingEnabled(false);
  Arrays.Weights = Rt.allocate<uint32_t>("csr.weights", Arrays.NumEdges);
  for (uint64_t E = 0; E < Arrays.NumEdges; ++E)
    Arrays.Weights.raw()[E] = 1;
  Rt.setTrackingEnabled(WasTracking);
}

//===----------------------------------------------------------------------===//
// BFS
//===----------------------------------------------------------------------===//

void BfsKernel::setup(core::Runtime &Rt, const graph::CsrGraph &G) {
  Arrays = registerGraph(Rt, G, /*WithWeights=*/false);
  bool WasTracking = Rt.trackingEnabled();
  Rt.setTrackingEnabled(false);
  Levels = Rt.allocate<int32_t>("bfs.levels", Arrays.NumVertices);
  Rt.setTrackingEnabled(WasTracking);
  Source = G.maxDegreeVertex();
  Frontier.reserve(Arrays.NumVertices);
  Next.reserve(Arrays.NumVertices);
}

void BfsKernel::runIteration() {
  uint32_t N = Arrays.NumVertices;
  for (uint32_t V = 0; V < N; ++V)
    Levels[V] = -1;
  if (N == 0)
    return;

  Frontier.clear();
  Frontier.push_back(Source);
  Levels[Source] = 0;
  int32_t Depth = 0;
  while (!Frontier.empty()) {
    Next.clear();
    for (VertexId U : Frontier) {
      uint64_t Begin = Arrays.RowOffsets[U];
      uint64_t End = Arrays.RowOffsets[U + 1];
      for (uint64_t E = Begin; E < End; ++E) {
        VertexId V = Arrays.Cols[E];
        if (Levels[V] == -1) {
          Levels[V] = Depth + 1;
          Next.push_back(V);
        }
      }
    }
    Frontier.swap(Next);
    ++Depth;
  }
}

uint64_t BfsKernel::checksum() const {
  uint64_t Sum = 0;
  for (uint32_t V = 0; V < Arrays.NumVertices; ++V) {
    int32_t Level = Levels.raw()[V];
    Sum += Level >= 0 ? static_cast<uint64_t>(Level) + 1 : 0;
  }
  return Sum;
}

//===----------------------------------------------------------------------===//
// SSSP (frontier Bellman-Ford)
//===----------------------------------------------------------------------===//

void SsspKernel::setup(core::Runtime &Rt, const graph::CsrGraph &G) {
  Arrays = registerGraph(Rt, G, /*WithWeights=*/true);
  ensureWeights(Rt, Arrays);
  bool WasTracking = Rt.trackingEnabled();
  Rt.setTrackingEnabled(false);
  Dist = Rt.allocate<uint32_t>("sssp.dist", Arrays.NumVertices);
  Rt.setTrackingEnabled(WasTracking);
  Source = G.maxDegreeVertex();
  InNext.assign(Arrays.NumVertices, 0);
}

void SsspKernel::runIteration() {
  uint32_t N = Arrays.NumVertices;
  constexpr uint32_t Inf = ~0u;
  for (uint32_t V = 0; V < N; ++V)
    Dist[V] = Inf;
  if (N == 0)
    return;

  Frontier.clear();
  Frontier.push_back(Source);
  Dist[Source] = 0;
  while (!Frontier.empty()) {
    Next.clear();
    for (VertexId U : Frontier) {
      uint64_t Begin = Arrays.RowOffsets[U];
      uint64_t End = Arrays.RowOffsets[U + 1];
      uint32_t DistU = Dist[U];
      for (uint64_t E = Begin; E < End; ++E) {
        VertexId V = Arrays.Cols[E];
        uint32_t Candidate = DistU + Arrays.Weights[E];
        if (Candidate < Dist[V]) {
          Dist[V] = Candidate;
          if (!InNext[V]) {
            InNext[V] = 1;
            Next.push_back(V);
          }
        }
      }
    }
    for (VertexId V : Next)
      InNext[V] = 0;
    Frontier.swap(Next);
  }
}

uint64_t SsspKernel::checksum() const {
  uint64_t Sum = 0;
  for (uint32_t V = 0; V < Arrays.NumVertices; ++V) {
    uint32_t D = Dist.raw()[V];
    Sum += D == ~0u ? 0 : D + 1;
  }
  return Sum;
}

//===----------------------------------------------------------------------===//
// PageRank (push style, damping 0.85)
//===----------------------------------------------------------------------===//

void PageRankKernel::setup(core::Runtime &Rt, const graph::CsrGraph &G) {
  Arrays = registerGraph(Rt, G, /*WithWeights=*/false);
  bool WasTracking = Rt.trackingEnabled();
  Rt.setTrackingEnabled(false);
  uint32_t N = Arrays.NumVertices;
  Rank = Rt.allocate<float>("pr.rank", N);
  NextRank = Rt.allocate<float>("pr.next_rank", N);
  InvDegree = Rt.allocate<float>("pr.inv_degree", N);
  float Initial = N == 0 ? 0.0f : 1.0f / static_cast<float>(N);
  for (uint32_t V = 0; V < N; ++V) {
    Rank.raw()[V] = Initial;
    NextRank.raw()[V] = 0.0f;
    uint64_t Degree = G.outDegree(V);
    InvDegree.raw()[V] =
        Degree == 0 ? 0.0f : 1.0f / static_cast<float>(Degree);
  }
  Rt.setTrackingEnabled(WasTracking);
}

void PageRankKernel::runIteration() {
  uint32_t N = Arrays.NumVertices;
  if (N == 0)
    return;
  constexpr float Damping = 0.85f;
  for (uint32_t U = 0; U < N; ++U) {
    float Contribution = Rank[U] * InvDegree[U];
    if (Contribution == 0.0f)
      continue;
    uint64_t Begin = Arrays.RowOffsets[U];
    uint64_t End = Arrays.RowOffsets[U + 1];
    for (uint64_t E = Begin; E < End; ++E)
      NextRank[Arrays.Cols[E]] += Contribution;
  }
  float Base = (1.0f - Damping) / static_cast<float>(N);
  for (uint32_t V = 0; V < N; ++V) {
    Rank[V] = Base + Damping * NextRank[V];
    NextRank[V] = 0.0f;
  }
}

uint64_t PageRankKernel::checksum() const {
  // Quantize so the checksum is robust to sub-ulp noise while still
  // catching real divergences.
  uint64_t Sum = 0;
  for (uint32_t V = 0; V < Arrays.NumVertices; ++V)
    Sum += static_cast<uint64_t>(
        std::lround(static_cast<double>(Rank.raw()[V]) * 1e7));
  return Sum;
}

//===----------------------------------------------------------------------===//
// Betweenness centrality (Brandes, single source)
//===----------------------------------------------------------------------===//

void BcKernel::setup(core::Runtime &Rt, const graph::CsrGraph &G) {
  Arrays = registerGraph(Rt, G, /*WithWeights=*/false);
  bool WasTracking = Rt.trackingEnabled();
  Rt.setTrackingEnabled(false);
  uint32_t N = Arrays.NumVertices;
  Sigma = Rt.allocate<float>("bc.sigma", N);
  Delta = Rt.allocate<float>("bc.delta", N);
  Depth = Rt.allocate<int32_t>("bc.depth", N);
  Rt.setTrackingEnabled(WasTracking);
  Source = G.maxDegreeVertex();
  Order.reserve(N);
}

void BcKernel::runIteration() {
  uint32_t N = Arrays.NumVertices;
  if (N == 0)
    return;
  for (uint32_t V = 0; V < N; ++V) {
    Sigma[V] = 0.0f;
    Delta[V] = 0.0f;
    Depth[V] = -1;
  }

  // Forward phase: BFS computing shortest-path counts.
  Order.clear();
  Order.push_back(Source);
  Sigma[Source] = 1.0f;
  Depth[Source] = 0;
  for (size_t Head = 0; Head < Order.size(); ++Head) {
    VertexId U = Order[Head];
    int32_t DepthU = Depth[U];
    float SigmaU = Sigma[U];
    uint64_t Begin = Arrays.RowOffsets[U];
    uint64_t End = Arrays.RowOffsets[U + 1];
    for (uint64_t E = Begin; E < End; ++E) {
      VertexId V = Arrays.Cols[E];
      if (Depth[V] == -1) {
        Depth[V] = DepthU + 1;
        Order.push_back(V);
      }
      if (Depth[V] == DepthU + 1)
        Sigma[V] += SigmaU;
    }
  }

  // Backward phase: dependency accumulation in reverse discovery order.
  for (size_t I = Order.size(); I-- > 0;) {
    VertexId U = Order[I];
    int32_t DepthU = Depth[U];
    float SigmaU = Sigma[U];
    float Acc = 0.0f;
    uint64_t Begin = Arrays.RowOffsets[U];
    uint64_t End = Arrays.RowOffsets[U + 1];
    for (uint64_t E = Begin; E < End; ++E) {
      VertexId V = Arrays.Cols[E];
      if (Depth[V] == DepthU + 1)
        Acc += SigmaU / Sigma[V] * (1.0f + Delta[V]);
    }
    Delta[U] += Acc;
  }
}

uint64_t BcKernel::checksum() const {
  uint64_t Sum = 0;
  for (uint32_t V = 0; V < Arrays.NumVertices; ++V)
    Sum += static_cast<uint64_t>(
        std::lround(static_cast<double>(Delta.raw()[V]) * 1e3));
  return Sum;
}

//===----------------------------------------------------------------------===//
// Connected components (label propagation + pointer jumping)
//===----------------------------------------------------------------------===//

void CcKernel::setup(core::Runtime &Rt, const graph::CsrGraph &G) {
  Arrays = registerGraph(Rt, G, /*WithWeights=*/false);
  bool WasTracking = Rt.trackingEnabled();
  Rt.setTrackingEnabled(false);
  Comp = Rt.allocate<uint32_t>("cc.comp", Arrays.NumVertices);
  for (uint32_t V = 0; V < Arrays.NumVertices; ++V)
    Comp.raw()[V] = V;
  Rt.setTrackingEnabled(WasTracking);
}

void CcKernel::runIteration() {
  uint32_t N = Arrays.NumVertices;
  bool Changed = false;
  // Hooking pass over every edge, updating both endpoints so components
  // form over the undirected closure of the edge set.
  for (uint32_t U = 0; U < N; ++U) {
    uint64_t Begin = Arrays.RowOffsets[U];
    uint64_t End = Arrays.RowOffsets[U + 1];
    for (uint64_t E = Begin; E < End; ++E) {
      VertexId V = Arrays.Cols[E];
      uint32_t CompU = Comp[U];
      uint32_t CompV = Comp[V];
      if (CompU < CompV) {
        Comp[V] = CompU;
        Changed = true;
      } else if (CompV < CompU) {
        Comp[U] = CompV;
        Changed = true;
      }
    }
  }
  // Pointer-jumping compression pass.
  for (uint32_t V = 0; V < N; ++V) {
    uint32_t Label = Comp[V];
    while (Label != Comp[Label])
      Label = Comp[Label];
    Comp[V] = Label;
  }
  Converged = !Changed;
}

uint64_t CcKernel::checksum() const {
  uint64_t Sum = 0;
  for (uint32_t V = 0; V < Arrays.NumVertices; ++V)
    Sum += Comp.raw()[V];
  return Sum;
}

//===----------------------------------------------------------------------===//
// Triangle counting
//===----------------------------------------------------------------------===//

void TriangleCountKernel::setup(core::Runtime &Rt,
                                const graph::CsrGraph &G) {
  // Forward graph: undirected closure, deduplicated, keeping only edges
  // to higher-ranked endpoints (rank = (degree, id)) so each triangle is
  // counted exactly once at its lowest-ranked vertex.
  graph::BuildOptions Options;
  Options.Symmetrize = true;
  Options.DeduplicateEdges = true;
  graph::CsrGraph Undirected =
      graph::buildCsr(G.numVertices(),
                      [&] {
                        std::vector<graph::Edge> Edges;
                        Edges.reserve(G.numEdges());
                        for (VertexId U = 0; U < G.numVertices(); ++U)
                          for (VertexId V : G.neighbors(U))
                            Edges.push_back({U, V});
                        return Edges;
                      }(),
                      Options);
  auto Rank = [&](VertexId V) {
    return std::make_pair(Undirected.outDegree(V), V);
  };
  std::vector<graph::Edge> Forward;
  Forward.reserve(Undirected.numEdges() / 2);
  for (VertexId U = 0; U < Undirected.numVertices(); ++U)
    for (VertexId V : Undirected.neighbors(U))
      if (Rank(U) < Rank(V))
        Forward.push_back({U, V});
  graph::CsrGraph ForwardGraph =
      graph::buildCsr(G.numVertices(), std::move(Forward));

  Arrays = registerGraph(Rt, ForwardGraph, /*WithWeights=*/false);
  bool WasTracking = Rt.trackingEnabled();
  Rt.setTrackingEnabled(false);
  PerVertex = Rt.allocate<uint64_t>("tc.per_vertex", Arrays.NumVertices);
  Rt.setTrackingEnabled(WasTracking);
}

void TriangleCountKernel::runIteration() {
  uint32_t N = Arrays.NumVertices;
  Triangles = 0;
  for (uint32_t U = 0; U < N; ++U) {
    uint64_t Count = 0;
    uint64_t UBegin = Arrays.RowOffsets[U];
    uint64_t UEnd = Arrays.RowOffsets[U + 1];
    for (uint64_t E = UBegin; E < UEnd; ++E) {
      VertexId V = Arrays.Cols[E];
      // Two-pointer intersection of forward(U) and forward(V).
      uint64_t I = UBegin;
      uint64_t J = Arrays.RowOffsets[V];
      uint64_t JEnd = Arrays.RowOffsets[V + 1];
      while (I < UEnd && J < JEnd) {
        VertexId A = Arrays.Cols[I];
        VertexId B = Arrays.Cols[J];
        if (A == B) {
          ++Count;
          ++I;
          ++J;
        } else if (A < B) {
          ++I;
        } else {
          ++J;
        }
      }
    }
    PerVertex[U] = Count;
    Triangles += Count;
  }
}

uint64_t TriangleCountKernel::checksum() const { return Triangles; }

//===----------------------------------------------------------------------===//
// k-core decomposition (iterative peeling)
//===----------------------------------------------------------------------===//

void KCoreKernel::setup(core::Runtime &Rt, const graph::CsrGraph &G) {
  graph::BuildOptions Options;
  Options.Symmetrize = true;
  Options.DeduplicateEdges = true;
  std::vector<graph::Edge> Edges;
  Edges.reserve(G.numEdges());
  for (VertexId U = 0; U < G.numVertices(); ++U)
    for (VertexId V : G.neighbors(U))
      Edges.push_back({U, V});
  graph::CsrGraph Undirected =
      graph::buildCsr(G.numVertices(), std::move(Edges), Options);

  Arrays = registerGraph(Rt, Undirected, /*WithWeights=*/false);
  bool WasTracking = Rt.trackingEnabled();
  Rt.setTrackingEnabled(false);
  uint32_t N = Arrays.NumVertices;
  Degree = Rt.allocate<uint32_t>("kcore.degree", N);
  Core = Rt.allocate<uint32_t>("kcore.core", N);
  for (uint32_t V = 0; V < N; ++V) {
    Degree.raw()[V] = static_cast<uint32_t>(Undirected.outDegree(V));
    Core.raw()[V] = 0;
  }
  Rt.setTrackingEnabled(WasTracking);
  CurrentK = 1;
  Remaining = N;
  Converged = N == 0;
}

void KCoreKernel::runIteration() {
  if (Converged)
    return;
  constexpr uint32_t Removed = ~0u;
  uint32_t N = Arrays.NumVertices;
  // One peel round at the current k: remove every vertex whose residual
  // degree is below k; its coreness is k-1.
  bool Peeled = false;
  for (uint32_t V = 0; V < N; ++V) {
    uint32_t D = Degree[V];
    if (D == Removed || D >= CurrentK)
      continue;
    Degree[V] = Removed;
    Core[V] = CurrentK - 1;
    --Remaining;
    Peeled = true;
    uint64_t Begin = Arrays.RowOffsets[V];
    uint64_t End = Arrays.RowOffsets[V + 1];
    for (uint64_t E = Begin; E < End; ++E) {
      VertexId W = Arrays.Cols[E];
      uint32_t DW = Degree[W];
      if (DW != Removed && DW > 0)
        Degree[W] = DW - 1;
    }
  }
  if (Remaining == 0) {
    Converged = true;
    return;
  }
  if (!Peeled)
    ++CurrentK;
}

uint64_t KCoreKernel::checksum() const {
  uint64_t Sum = 0;
  for (uint32_t V = 0; V < Arrays.NumVertices; ++V)
    Sum += Core.raw()[V];
  return Sum;
}

//===----------------------------------------------------------------------===//
// SpMV
//===----------------------------------------------------------------------===//

void SpmvKernel::setup(core::Runtime &Rt, const graph::CsrGraph &G) {
  Arrays = registerGraph(Rt, G, /*WithWeights=*/true);
  ensureWeights(Rt, Arrays);
  bool WasTracking = Rt.trackingEnabled();
  Rt.setTrackingEnabled(false);
  uint32_t N = Arrays.NumVertices;
  X = Rt.allocate<float>("spmv.x", N);
  Y = Rt.allocate<float>("spmv.y", N);
  for (uint32_t V = 0; V < N; ++V)
    X.raw()[V] = 1.0f + static_cast<float>(V % 7);
  Rt.setTrackingEnabled(WasTracking);
}

void SpmvKernel::runIteration() {
  uint32_t N = Arrays.NumVertices;
  for (uint32_t U = 0; U < N; ++U) {
    float Acc = 0.0f;
    uint64_t EdgeBegin = Arrays.RowOffsets[U];
    uint64_t EdgeEnd = Arrays.RowOffsets[U + 1];
    for (uint64_t E = EdgeBegin; E < EdgeEnd; ++E)
      Acc += static_cast<float>(Arrays.Weights[E]) * X[Arrays.Cols[E]];
    Y[U] = Acc;
  }
}

uint64_t SpmvKernel::checksum() const {
  uint64_t Sum = 0;
  for (uint32_t V = 0; V < Arrays.NumVertices; ++V)
    Sum += static_cast<uint64_t>(
        std::lround(static_cast<double>(Y.raw()[V])));
  return Sum;
}
