#include "graph/CsrBinaryIO.h"

#include <cstdio>
#include <memory>

using namespace atmem;
using namespace atmem::graph;

uint64_t graph::fnv1aDigest(const void *Data, size_t Bytes, uint64_t Seed) {
  const auto *Bytes8 = static_cast<const uint8_t *>(Data);
  uint64_t Hash = Seed;
  for (size_t I = 0; I < Bytes; ++I) {
    Hash ^= Bytes8[I];
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

namespace {

/// RAII FILE handle.
struct FileCloser {
  void operator()(std::FILE *File) const {
    if (File)
      std::fclose(File);
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

uint64_t digestGraph(const CsrGraph &G) {
  uint64_t Digest = fnv1aDigest(G.rowOffsets().data(),
                                G.rowOffsets().size() * sizeof(uint64_t));
  Digest = fnv1aDigest(G.cols().data(),
                       G.cols().size() * sizeof(VertexId), Digest);
  if (G.hasWeights())
    Digest = fnv1aDigest(G.weights().data(),
                         G.weights().size() * sizeof(uint32_t), Digest);
  return Digest;
}

bool writeBlock(std::FILE *File, const void *Data, size_t Bytes) {
  return Bytes == 0 || std::fwrite(Data, 1, Bytes, File) == Bytes;
}

bool readBlock(std::FILE *File, void *Data, size_t Bytes) {
  return Bytes == 0 || std::fread(Data, 1, Bytes, File) == Bytes;
}

/// Bytes from the current position of \p File to its end, or
/// std::nullopt when the stream cannot seek.
std::optional<uint64_t> remainingBytes(std::FILE *File) {
  long Here = std::ftell(File);
  if (Here < 0 || std::fseek(File, 0, SEEK_END) != 0)
    return std::nullopt;
  long End = std::ftell(File);
  if (End < Here || std::fseek(File, Here, SEEK_SET) != 0)
    return std::nullopt;
  return static_cast<uint64_t>(End - Here);
}

} // namespace

bool graph::writeCsrBinary(const CsrGraph &G, const std::string &Path) {
  FileHandle File(std::fopen(Path.c_str(), "wb"));
  if (!File)
    return false;

  CsrBinaryHeader Header;
  Header.HasWeights = G.hasWeights() ? 1 : 0;
  Header.NumVertices = G.numVertices();
  Header.NumEdges = G.numEdges();
  Header.PayloadDigest = digestGraph(G);

  if (!writeBlock(File.get(), &Header, sizeof(Header)))
    return false;
  if (!writeBlock(File.get(), G.rowOffsets().data(),
                  G.rowOffsets().size() * sizeof(uint64_t)))
    return false;
  if (!writeBlock(File.get(), G.cols().data(),
                  G.cols().size() * sizeof(VertexId)))
    return false;
  if (G.hasWeights() &&
      !writeBlock(File.get(), G.weights().data(),
                  G.weights().size() * sizeof(uint32_t)))
    return false;
  return std::fflush(File.get()) == 0;
}

std::optional<CsrGraph> graph::readCsrBinary(const std::string &Path) {
  FileHandle File(std::fopen(Path.c_str(), "rb"));
  if (!File)
    return std::nullopt;

  CsrBinaryHeader Header;
  if (!readBlock(File.get(), &Header, sizeof(Header)))
    return std::nullopt;
  if (Header.Magic != CsrBinaryHeader::MagicValue || Header.Version != 1 ||
      Header.HasWeights > 1)
    return std::nullopt;
  // The vertex count must fit in a VertexId.
  if (Header.NumVertices >= (1ull << 32))
    return std::nullopt;
  // Nothing is allocated unless the header describes exactly the payload
  // the file holds. Dividing the edge bytes instead of multiplying the
  // declared edge count cannot overflow.
  std::optional<uint64_t> PayloadBytes = remainingBytes(File.get());
  uint64_t OffsetBytes = (Header.NumVertices + 1) * sizeof(uint64_t);
  uint64_t BytesPerEdge =
      sizeof(VertexId) + (Header.HasWeights ? sizeof(uint32_t) : 0);
  if (!PayloadBytes || *PayloadBytes < OffsetBytes ||
      (*PayloadBytes - OffsetBytes) % BytesPerEdge != 0 ||
      (*PayloadBytes - OffsetBytes) / BytesPerEdge != Header.NumEdges)
    return std::nullopt;

  std::vector<uint64_t> RowOffsets(Header.NumVertices + 1);
  std::vector<VertexId> Cols(Header.NumEdges);
  std::vector<uint32_t> Weights(Header.HasWeights ? Header.NumEdges : 0);
  if (!readBlock(File.get(), RowOffsets.data(),
                 RowOffsets.size() * sizeof(uint64_t)))
    return std::nullopt;
  if (!readBlock(File.get(), Cols.data(), Cols.size() * sizeof(VertexId)))
    return std::nullopt;
  if (!Weights.empty() &&
      !readBlock(File.get(), Weights.data(),
                 Weights.size() * sizeof(uint32_t)))
    return std::nullopt;

  // Structural validation before constructing (CsrGraph aborts on
  // inconsistent arrays; a corrupt file must fail gracefully instead).
  if (RowOffsets.front() != 0 || RowOffsets.back() != Cols.size())
    return std::nullopt;
  for (size_t I = 0; I + 1 < RowOffsets.size(); ++I)
    if (RowOffsets[I] > RowOffsets[I + 1])
      return std::nullopt;
  for (VertexId V : Cols)
    if (V >= Header.NumVertices)
      return std::nullopt;

  CsrGraph G(std::move(RowOffsets), std::move(Cols), std::move(Weights));
  if (digestGraph(G) != Header.PayloadDigest)
    return std::nullopt;
  return G;
}
