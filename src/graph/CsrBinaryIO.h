//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary CSR serialization. Generating the large synthetic datasets
/// costs seconds; persisting them as binary CSR lets repeated experiment
/// runs load in milliseconds, and gives users a compact interchange
/// format. The format is versioned and checksummed:
///
///   [CsrBinaryHeader][row offsets][cols][weights?]
///
/// with a FNV-1a digest over the payload detecting truncation and
/// corruption on load.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_GRAPH_CSRBINARYIO_H
#define ATMEM_GRAPH_CSRBINARYIO_H

#include "graph/CsrGraph.h"

#include <cstdint>
#include <optional>
#include <string>

namespace atmem {
namespace graph {

/// On-disk header of the binary CSR format (all fields little-endian).
struct CsrBinaryHeader {
  static constexpr uint64_t MagicValue = 0x314d454d54414243ull; // "CBATMEM1".

  uint64_t Magic = MagicValue;
  uint32_t Version = 1;
  uint32_t HasWeights = 0;
  uint64_t NumVertices = 0;
  uint64_t NumEdges = 0;
  /// FNV-1a over the three payload arrays, in file order.
  uint64_t PayloadDigest = 0;
};

/// FNV-1a digest used by the format (exposed for tests).
uint64_t fnv1aDigest(const void *Data, size_t Bytes,
                     uint64_t Seed = 0xcbf29ce484222325ull);

/// Writes \p G to \p Path. Returns false on I/O failure.
bool writeCsrBinary(const CsrGraph &G, const std::string &Path);

/// Loads a graph previously written by writeCsrBinary(). Returns
/// std::nullopt on I/O failure, bad magic/version, a header whose counts
/// do not match the file size, or digest mismatch.
std::optional<CsrGraph> readCsrBinary(const std::string &Path);

} // namespace graph
} // namespace atmem

#endif // ATMEM_GRAPH_CSRBINARYIO_H
