#include "apps/Kernel.h"

#include "apps/Kernels.h"
#include "support/Error.h"

#include <algorithm>

using namespace atmem;
using namespace atmem::apps;

Kernel::~Kernel() = default;

GraphArrays apps::registerGraph(core::Runtime &Rt, const graph::CsrGraph &G,
                                bool WithWeights) {
  GraphArrays Arrays;
  Arrays.NumVertices = G.numVertices();
  Arrays.NumEdges = G.numEdges();

  bool WasTracking = Rt.trackingEnabled();
  Rt.setTrackingEnabled(false);
  // std::copy, not memcpy: an edgeless graph's cols() is empty and its
  // data() may be null, which memcpy must never be passed.
  Arrays.RowOffsets =
      Rt.allocate<uint64_t>("csr.row_offsets", G.rowOffsets().size());
  std::copy(G.rowOffsets().begin(), G.rowOffsets().end(),
            Arrays.RowOffsets.raw());
  Arrays.Cols = Rt.allocate<graph::VertexId>("csr.cols", G.cols().size());
  std::copy(G.cols().begin(), G.cols().end(), Arrays.Cols.raw());
  if (WithWeights && G.hasWeights()) {
    Arrays.Weights = Rt.allocate<uint32_t>("csr.weights", G.weights().size());
    std::copy(G.weights().begin(), G.weights().end(), Arrays.Weights.raw());
  }
  Rt.setTrackingEnabled(WasTracking);
  return Arrays;
}

const std::vector<std::string> &apps::kernelNames() {
  static const std::vector<std::string> Names = {"bfs", "sssp", "pr", "bc",
                                                 "cc"};
  return Names;
}

bool apps::isKnownKernel(const std::string &Name) {
  if (Name == "spmv" || Name == "tc" || Name == "kcore")
    return true;
  for (const std::string &Known : kernelNames())
    if (Known == Name)
      return true;
  return false;
}

std::unique_ptr<Kernel> apps::makeKernel(const std::string &Name) {
  if (Name == "bfs")
    return std::make_unique<BfsKernel>();
  if (Name == "sssp")
    return std::make_unique<SsspKernel>();
  if (Name == "pr")
    return std::make_unique<PageRankKernel>();
  if (Name == "bc")
    return std::make_unique<BcKernel>();
  if (Name == "cc")
    return std::make_unique<CcKernel>();
  if (Name == "spmv")
    return std::make_unique<SpmvKernel>();
  if (Name == "tc")
    return std::make_unique<TriangleCountKernel>();
  if (Name == "kcore")
    return std::make_unique<KCoreKernel>();
  reportFatalError("unknown kernel: " + Name);
}
