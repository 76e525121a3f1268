//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text edge-list input/output so users can run the framework on their own
/// graphs (one "src dst" pair per line; '#' comments ignored), matching
/// the SNAP distribution format of the paper's real datasets.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_GRAPH_EDGELISTIO_H
#define ATMEM_GRAPH_EDGELISTIO_H

#include "graph/CsrGraph.h"

#include <optional>
#include <string>

namespace atmem {
namespace graph {

/// Writes \p G as a text edge list to \p Path. Returns false on I/O error.
bool writeEdgeList(const CsrGraph &G, const std::string &Path);

/// Loads a text edge list from \p Path and builds a CSR graph; vertex ids
/// are taken verbatim, with the vertex count being max id + 1. Returns
/// std::nullopt on I/O or parse errors, including an id with a sign or
/// above 4294967294.
std::optional<CsrGraph> readEdgeList(const std::string &Path,
                                     const BuildOptions &Options = {});

} // namespace graph
} // namespace atmem

#endif // ATMEM_GRAPH_EDGELISTIO_H
