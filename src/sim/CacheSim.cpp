#include "sim/CacheSim.h"

#include "support/Error.h"

#include <bit>
#include <cassert>
#include <string>

using namespace atmem;
using namespace atmem::sim;

static uint32_t floorLog2(uint64_t Value) {
  assert(Value != 0);
  return 63 - static_cast<uint32_t>(std::countl_zero(Value));
}

CacheSim::CacheSim(const CacheConfig &Config)
    : Ways(Config.Ways), LineBytes(Config.LineBytes) {
  if (Ways == 0 || Ways > MaxWays)
    reportFatalError("LLC model supports 1 to " + std::to_string(MaxWays) +
                     " ways, got " + std::to_string(Ways));
  if (!std::has_single_bit(LineBytes))
    reportFatalError("LLC line size must be a power of two, got " +
                     std::to_string(LineBytes));
  LineShift = floorLog2(LineBytes);
  uint64_t Lines = Config.SizeBytes / LineBytes;
  uint64_t WantedSets = Lines / Ways;
  // Round the set count down to a power of two so indexing is a mask.
  Sets = WantedSets == 0 ? 1 : (1u << floorLog2(WantedSets));
  SetMask = Sets - 1;
  SetShift = floorLog2(Sets);
  Meta.resize(Sets);
  Tags.resize(static_cast<size_t>(Sets) * MaxWays);
  flushAll();
}

void CacheSim::flushAll() {
  for (uint64_t &Tag : Tags)
    Tag = ~0ull;
  // Stale fingerprints stay: their ways' tags no longer match anything.
  for (SetRows &Rows : Meta)
    for (uint32_t W = 0; W < MaxWays; ++W)
      Rows.Rank[W] = W < Ways ? static_cast<uint8_t>(W) : PaddingRank;
}
