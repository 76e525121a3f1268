//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// atmem_graphgen: generates the synthetic evaluation datasets (or custom
/// R-MAT / power-law graphs) and saves them as checksummed binary CSR or
/// text edge lists, so repeated experiment campaigns skip regeneration
/// and external tools can consume the same inputs.
///
/// Examples:
///   atmem_graphgen --dataset=friendster --out=friendster.csr
///   atmem_graphgen --family=rmat --scale-log2=18 --out=big.csr
///   atmem_graphgen --family=powerlaw --vertices=100000 --gamma=2.1
///                  --format=edgelist --out=plaw.txt
///   atmem_graphgen --verify=friendster.csr
///
//===----------------------------------------------------------------------===//

#include "graph/CsrBinaryIO.h"
#include "graph/Datasets.h"
#include "graph/EdgeListIO.h"
#include "graph/Generators.h"
#include "support/Options.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace atmem;

int main(int Argc, const char **Argv) {
  OptionParser Parser("atmem_graphgen: generate and serialize the "
                      "framework's synthetic graphs");
  Parser.addString("dataset", "",
                   "named dataset to generate (pokec, rmat24, twitter, "
                   "rmat27, friendster)");
  Parser.addString("family", "",
                   "custom generator instead of a named dataset: "
                   "rmat | powerlaw");
  Parser.addUnsigned("scale-log2", 16, "rmat: log2 of the vertex count");
  Parser.addUnsigned("vertices", 1 << 16, "powerlaw: vertex count");
  Parser.addDouble("degree", 16.0, "average degree");
  Parser.addDouble("gamma", 2.2, "powerlaw: degree exponent");
  Parser.addUnsigned("seed", 1, "generator seed");
  Parser.addDouble("dataset-scale", graph::DefaultScaleDivisor,
                   "scale divisor for named datasets");
  Parser.addUnsigned("weights", 0,
                     "attach random edge weights in [1, N] (0 = none)");
  Parser.addString("format", "csr", "output format: csr | edgelist");
  Parser.addString("out", "", "output path");
  Parser.addString("verify", "",
                   "instead of generating: load a binary CSR file, check "
                   "its digest, and print its statistics");
  if (!Parser.parse(Argc, Argv))
    return 1;

  if (std::string Path = Parser.getString("verify"); !Path.empty()) {
    auto Loaded = graph::readCsrBinary(Path);
    if (!Loaded) {
      std::fprintf(stderr, "error: '%s' failed to load or its digest does "
                           "not match\n",
                   Path.c_str());
      return 1;
    }
    std::printf("%s: OK — %u vertices, %llu edges, %s, top-1%% degree "
                "share %.2f\n",
                Path.c_str(), Loaded->numVertices(),
                static_cast<unsigned long long>(Loaded->numEdges()),
                Loaded->hasWeights() ? "weighted" : "unweighted",
                Loaded->topDegreeEdgeShare(0.01));
    return 0;
  }

  std::string Out = Parser.getString("out");
  if (Out.empty()) {
    std::fprintf(stderr, "error: --out is required when generating\n");
    return 1;
  }

  graph::CsrGraph Graph;
  if (std::string Name = Parser.getString("dataset"); !Name.empty()) {
    if (!graph::isKnownDataset(Name)) {
      std::fprintf(stderr, "error: unknown dataset '%s'\n", Name.c_str());
      return 1;
    }
    Graph =
        graph::makeDataset(Name, Parser.getDouble("dataset-scale")).Graph;
  } else if (std::string Family = Parser.getString("family");
             Family == "rmat") {
    graph::RmatParams Params;
    Params.Scale = Parser.getUnsigned32("scale-log2");
    Params.EdgeFactor = Parser.getDouble("degree");
    Params.Seed = Parser.getUnsigned("seed");
    Graph = graph::generateRmat(Params);
  } else if (Family == "powerlaw") {
    graph::PowerLawParams Params;
    Params.NumVertices = Parser.getUnsigned32("vertices");
    Params.AverageDegree = Parser.getDouble("degree");
    Params.Gamma = Parser.getDouble("gamma");
    Params.Seed = Parser.getUnsigned("seed");
    Graph = graph::generatePowerLaw(Params);
  } else {
    std::fprintf(stderr,
                 "error: pass --dataset=<name> or --family=rmat|powerlaw\n");
    return 1;
  }

  if (uint32_t MaxWeight = Parser.getUnsigned32("weights"); MaxWeight > 0)
    Graph = graph::withRandomWeights(Graph, MaxWeight,
                                     Parser.getUnsigned("seed"));

  bool Ok;
  std::string Format = Parser.getString("format");
  if (Format == "csr") {
    Ok = graph::writeCsrBinary(Graph, Out);
  } else if (Format == "edgelist") {
    Ok = graph::writeEdgeList(Graph, Out);
  } else {
    std::fprintf(stderr, "error: unknown format '%s'\n", Format.c_str());
    return 1;
  }
  if (!Ok) {
    std::fprintf(stderr, "error: writing '%s' failed\n", Out.c_str());
    return 1;
  }
  std::printf("wrote %s: %u vertices, %llu edges (%s)\n", Out.c_str(),
              Graph.numVertices(),
              static_cast<unsigned long long>(Graph.numEdges()),
              Format.c_str());
  return 0;
}
