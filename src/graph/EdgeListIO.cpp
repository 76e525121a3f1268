#include "graph/EdgeListIO.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>

using namespace atmem;
using namespace atmem::graph;

bool graph::writeEdgeList(const CsrGraph &G, const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  std::fprintf(File, "# vertices=%u edges=%" PRIu64 "\n", G.numVertices(),
               G.numEdges());
  for (VertexId V = 0; V < G.numVertices(); ++V)
    for (VertexId Dst : G.neighbors(V))
      std::fprintf(File, "%u %u\n", V, Dst);
  bool Ok = std::fclose(File) == 0;
  return Ok;
}

namespace {

/// Largest accepted vertex id: the vertex count, max id + 1, must fit in
/// a VertexId.
constexpr uint64_t MaxVertexId = 0xFFFFFFFEull;

/// Parses one unsigned vertex id at \p Pos after optional whitespace and
/// advances \p Pos past it. Rejects signs and ids above MaxVertexId.
bool parseVertexId(const char *&Pos, const char *End, VertexId &Id) {
  while (Pos < End && std::isspace(static_cast<unsigned char>(*Pos)))
    ++Pos;
  uint64_t Value = 0;
  auto [Next, Ec] = std::from_chars(Pos, End, Value);
  if (Ec != std::errc() || Value > MaxVertexId)
    return false;
  Pos = Next;
  Id = static_cast<VertexId>(Value);
  return true;
}

} // namespace

std::optional<CsrGraph> graph::readEdgeList(const std::string &Path,
                                            const BuildOptions &Options) {
  std::FILE *File = std::fopen(Path.c_str(), "r");
  if (!File)
    return std::nullopt;

  std::vector<Edge> Edges;
  VertexId MaxVertex = 0;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), File)) {
    if (Line[0] == '#' || Line[0] == '\n')
      continue;
    const char *Pos = Line;
    const char *End = Line + std::strlen(Line);
    VertexId Src = 0, Dst = 0;
    if (!parseVertexId(Pos, End, Src) || !parseVertexId(Pos, End, Dst)) {
      std::fclose(File);
      return std::nullopt;
    }
    Edges.emplace_back(Src, Dst);
    MaxVertex = std::max({MaxVertex, Src, Dst});
  }
  std::fclose(File);
  uint32_t NumVertices = Edges.empty() ? 0 : MaxVertex + 1;
  return buildCsr(NumVertices, std::move(Edges), Options);
}
