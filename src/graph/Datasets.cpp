#include "graph/Datasets.h"

#include "graph/Generators.h"
#include "support/Error.h"

#include <cmath>

using namespace atmem;
using namespace atmem::graph;

const std::vector<std::string> &graph::datasetNames() {
  static const std::vector<std::string> Names = {
      "pokec", "rmat24", "twitter", "rmat27", "friendster"};
  return Names;
}

bool graph::isKnownDataset(const std::string &Name) {
  for (const std::string &Known : datasetNames())
    if (Known == Name)
      return true;
  return false;
}

namespace {

/// Paper-size description of one dataset.
struct DatasetSpec {
  const char *Name;
  double Vertices;   ///< Paper vertex count.
  double AvgDegree;  ///< Paper edges / vertices.
  bool IsRmat;
  double Gamma;      ///< Power-law exponent (ignored for R-MAT).
  uint64_t Seed;
};

const DatasetSpec Specs[] = {
    {"pokec", 1.6e6, 19.1, false, 2.6, 0xA01},
    {"rmat24", 16.8e6, 16.0, true, 0.0, 0xA02},
    {"twitter", 41.7e6, 36.0, false, 1.9, 0xA03},
    {"rmat27", 134.2e6, 15.6, true, 0.0, 0xA04},
    {"friendster", 68.3e6, 30.7, false, 2.3, 0xA05},
};

const DatasetSpec *findSpec(const std::string &Name) {
  for (const DatasetSpec &Spec : Specs)
    if (Name == Spec.Name)
      return &Spec;
  return nullptr;
}

} // namespace

Dataset graph::makeDataset(const std::string &Name, double ScaleDivisor) {
  return detail::makeDataset(Name, ScaleDivisor, 0);
}

Dataset graph::detail::makeDataset(const std::string &Name,
                                   double ScaleDivisor, unsigned Threads) {
  const DatasetSpec *Spec = findSpec(Name);
  if (!Spec)
    reportFatalError("unknown dataset: " + Name);
  if (!(ScaleDivisor >= 1.0)) // Also rejects NaN.
    reportFatalError("dataset scale divisor must be >= 1");

  Dataset Result;
  Result.Name = Name;
  Result.ScaleDivisor = ScaleDivisor;

  auto Vertices =
      static_cast<uint32_t>(Spec->Vertices / ScaleDivisor);
  if (Vertices < 1024)
    Vertices = 1024;

  if (Spec->IsRmat) {
    RmatParams Params;
    // Match the scaled vertex count with the nearest power of two.
    Params.Scale = static_cast<uint32_t>(std::lround(std::log2(Vertices)));
    if (Params.Scale < 10)
      Params.Scale = 10;
    Params.EdgeFactor = Spec->AvgDegree;
    Params.Seed = Spec->Seed;
    Result.Graph = generateRmat(Params, Threads);
  } else {
    PowerLawParams Params;
    Params.NumVertices = Vertices;
    Params.AverageDegree = Spec->AvgDegree;
    Params.Gamma = Spec->Gamma;
    Params.Seed = Spec->Seed;
    Result.Graph = generatePowerLaw(Params, Threads);
  }
  return Result;
}
