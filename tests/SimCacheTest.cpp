//===----------------------------------------------------------------------===//
// Unit tests for the set-associative LLC model.
//===----------------------------------------------------------------------===//

#include "sim/CacheSim.h"

#include <gtest/gtest.h>

using namespace atmem::sim;

namespace {

CacheConfig tinyCache() {
  CacheConfig Config;
  Config.SizeBytes = 4096; // 64 lines.
  Config.Ways = 4;
  Config.LineBytes = 64;
  return Config;
}

TEST(CacheSimTest, ColdMissThenHit) {
  CacheSim Cache(tinyCache());
  EXPECT_FALSE(Cache.access(0x1000));
  EXPECT_TRUE(Cache.access(0x1000));
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 1u);
}

TEST(CacheSimTest, SameLineSharesEntry) {
  CacheSim Cache(tinyCache());
  Cache.access(0x1000);
  EXPECT_TRUE(Cache.access(0x1030)); // Offset 48, same 64-byte line.
  EXPECT_FALSE(Cache.access(0x1040)); // Next line.
}

TEST(CacheSimTest, SizeRoundsToPowerOfTwoSets) {
  CacheConfig Config;
  Config.SizeBytes = 100 * 64; // 100 lines, 4 ways -> 25 sets -> 16 sets.
  Config.Ways = 4;
  Config.LineBytes = 64;
  CacheSim Cache(Config);
  EXPECT_EQ(Cache.sizeBytes(), 16u * 4 * 64);
}

TEST(CacheSimTest, CapacityEviction) {
  CacheSim Cache(tinyCache()); // 64 lines total.
  // Touch 128 distinct lines; all miss.
  for (uint64_t L = 0; L < 128; ++L)
    EXPECT_FALSE(Cache.access(L * 64));
  // Re-touch the first lines: they were evicted.
  EXPECT_FALSE(Cache.access(0));
}

TEST(CacheSimTest, WorkingSetWithinCapacityHits) {
  CacheSim Cache(tinyCache());
  for (int Pass = 0; Pass < 3; ++Pass)
    for (uint64_t L = 0; L < 32; ++L)
      Cache.access(L * 64);
  // Second and third passes hit: 64 hits (32 lines x 2 passes).
  EXPECT_EQ(Cache.hits(), 64u);
  EXPECT_EQ(Cache.misses(), 32u);
}

TEST(CacheSimTest, LruKeepsHotLine) {
  CacheConfig Config;
  Config.SizeBytes = 4 * 64; // One set, 4 ways.
  Config.Ways = 4;
  Config.LineBytes = 64;
  CacheSim Cache(Config);
  Cache.access(0 * 64);
  for (uint64_t L = 1; L < 4; ++L)
    Cache.access(L * 64);
  Cache.access(0); // Refresh line 0; line 1 is now LRU.
  Cache.access(4 * 64); // Evicts line 1.
  EXPECT_TRUE(Cache.access(0));
  EXPECT_FALSE(Cache.access(1 * 64));
}

TEST(CacheSimTest, LruStampsSurviveClockWraparound) {
  // Regression: recency used to be a uint32_t stamp from a global access
  // clock, so past 2^32 accesses a freshly touched line looked oldest and
  // the replacement order inverted. Recency is now a per-set rank with no
  // clock to wrap; the eviction order below is what the fix pinned.
  CacheConfig Config;
  Config.SizeBytes = 2 * 64; // One set, 2 ways.
  Config.Ways = 2;
  Config.LineBytes = 64;
  CacheSim Cache(Config);
  Cache.access(0 * 64); // A
  Cache.access(1 * 64); // B
  Cache.access(2 * 64); // C must evict A, the true LRU line, not B.
  EXPECT_TRUE(Cache.access(1 * 64));
  EXPECT_FALSE(Cache.access(0 * 64));
}

TEST(CacheSimTest, FlushAllEmptiesCache) {
  CacheSim Cache(tinyCache());
  Cache.access(0x40);
  Cache.flushAll();
  EXPECT_FALSE(Cache.access(0x40));
}

TEST(CacheSimTest, ResetCountersKeepsContents) {
  CacheSim Cache(tinyCache());
  Cache.access(0x40);
  Cache.resetCounters();
  EXPECT_TRUE(Cache.access(0x40));
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 0u);
}

TEST(CacheSimTest, SequentialScanMissesOncePerLine) {
  CacheSim Cache(tinyCache());
  // 16 4-byte elements per 64-byte line.
  for (uint64_t Off = 0; Off < 1024; Off += 4)
    Cache.access(Off);
  EXPECT_EQ(Cache.misses(), 16u);
  EXPECT_EQ(Cache.hits(), 1024u / 4 - 16);
}

} // namespace
