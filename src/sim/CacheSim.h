//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set-associative last-level cache model. Every tracked access from the
/// graph kernels passes through this model; its miss verdicts are both the
/// profiler's sampling signal (PEBS samples LLC-miss loads, Eq. 1 of the
/// paper) and the cost model's timing signal. The model is deliberately a
/// plain LRU cache: the paper's observation that graph workloads defeat
/// cache optimization is exactly reproduced by skewed miss concentration in
/// the hot chunks.
///
/// Each set keeps three rows, padded to MaxWays lanes:
///   - the full 64-bit tags (~0 marks an invalid or padding way);
///   - a one-byte fingerprint per way, the tag's low byte, so the probe
///     compares one 16-byte row and checks the full tag only for the
///     (almost always single) candidate way;
///   - a one-byte recency rank per way, 0 the most recent. The ranks of a
///     set are a permutation of 0..Ways-1, so a touch ages every younger
///     way by one and the replacement victim is the way ranked Ways-1.
///     Padding lanes hold a rank no update ever reaches.
///
/// Replacement is "the last invalid way, else the least recently used
/// way". flushAll() resets every set's ranks to the way index, which
/// keeps the invalid ways ranked above the valid ones in way order, so
/// the way ranked Ways-1 is the last invalid way while one remains. Sets
/// share no state: there is no global clock, and probe()/fill() count
/// nothing, so the set-partitioned replay (core/Engine.h) runs one set
/// range per thread on one cache.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_SIM_CACHESIM_H
#define ATMEM_SIM_CACHESIM_H

#include "sim/MachineConfig.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace atmem {
namespace sim {

/// LRU set-associative cache indexed by simulated virtual address.
class CacheSim {
public:
  /// Widest supported set: one 16-byte row of ranks or fingerprints.
  static constexpr uint32_t MaxWays = 16;

  /// Aborts with a fatal error unless 1 <= Ways <= MaxWays and the line
  /// size is a power of two.
  explicit CacheSim(const CacheConfig &Config);

  /// Records an access to \p Va and counts it in hits() or misses().
  /// Returns true on a hit.
  bool access(uint64_t Va) {
    if (probe(Va)) {
      ++Hits;
      return true;
    }
    fill(Va);
    ++Misses;
    return false;
  }

  /// Hit half of access(): on a hit refreshes the line's recency and
  /// returns true; on a miss changes nothing and returns false. Callers
  /// that see false must call fill(Va) next. probe() and fill() touch
  /// only \p Va's set and count nothing, so threads may use them
  /// concurrently on disjoint sets.
  [[gnu::always_inline]] bool probe(uint64_t Va) {
    uint64_t Line = Va >> LineShift;
    uint32_t Set = static_cast<uint32_t>(Line) & SetMask;
    return probeSet(Meta[Set], Tags.data() + static_cast<size_t>(Set) * MaxWays,
                    Line >> SetShift);
  }

  /// Miss half of access(): installs \p Va's line in its set's victim way
  /// (the way ranked Ways-1) as the most recent line. Only valid right
  /// after probe(Va) returned false.
  void fill(uint64_t Va) {
    uint64_t Line = Va >> LineShift;
    uint32_t Set = static_cast<uint32_t>(Line) & SetMask;
    uint64_t Tag = Line >> SetShift;
    unsigned Way = replace(Meta[Set], static_cast<uint8_t>(Ways - 1),
                           static_cast<uint8_t>(Tag));
    Tags[static_cast<size_t>(Set) * MaxWays + Way] = Tag;
  }

  /// probe() and, on a miss, fill() for the address in the \p VaMask bits
  /// of each of \p N keys, in order; calls OnMiss(I) after key I's fill.
  /// The geometry is copied into locals first, so the loop does not
  /// reload it after every set update, and a hit touches no counter.
  template <typename MissFn>
  void replay(const uint64_t *Keys, size_t N, uint64_t VaMask,
              MissFn &&OnMiss) {
    SetRows *MetaRows = Meta.data();
    uint64_t *TagRows = Tags.data();
    const uint32_t Shift = LineShift, Mask = SetMask, TagShift = SetShift;
    const auto Lru = static_cast<uint8_t>(Ways - 1);
    for (size_t I = 0; I < N; ++I) {
      uint64_t Line = (Keys[I] & VaMask) >> Shift;
      uint32_t Set = static_cast<uint32_t>(Line) & Mask;
      uint64_t Tag = Line >> TagShift;
      uint64_t *TagRow = TagRows + static_cast<size_t>(Set) * MaxWays;
      if (probeSet(MetaRows[Set], TagRow, Tag))
        continue;
      TagRow[replace(MetaRows[Set], Lru, static_cast<uint8_t>(Tag))] = Tag;
      OnMiss(I);
    }
  }

  /// Empties the cache (used between measured iterations when cold-cache
  /// behaviour is wanted).
  void flushAll();

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  void resetCounters() {
    Hits = 0;
    Misses = 0;
  }

  uint32_t sets() const { return Sets; }
  /// log2(sets()) and log2(lineBytes()): \p Va maps to set
  /// (Va >> lineShift()) & (sets() - 1).
  uint32_t setShift() const { return SetShift; }
  uint32_t lineShift() const { return LineShift; }
  uint32_t lineBytes() const { return LineBytes; }
  uint64_t sizeBytes() const {
    return static_cast<uint64_t>(Sets) * Ways * LineBytes;
  }

private:
  /// Rank of a padding lane: above every real rank, so no touch ages it
  /// and no victim search selects it.
  static constexpr uint8_t PaddingRank = 0x7f;

  struct alignas(32) SetRows {
    uint8_t Fingerprint[MaxWays] = {};
    uint8_t Rank[MaxWays] = {};
  };

  /// The probe of one set: on a tag match touches the way and returns
  /// true.
  [[gnu::always_inline]] static bool probeSet(SetRows &Rows,
                                              const uint64_t *TagRow,
                                              uint64_t Tag) {
    for (unsigned Candidates = matchFingerprint(Rows, Tag); Candidates;
         Candidates &= Candidates - 1) {
      unsigned Way = static_cast<unsigned>(__builtin_ctz(Candidates));
      if (TagRow[Way] == Tag) {
        touch(Rows, Rows.Rank[Way]);
        return true;
      }
    }
    return false;
  }

  /// Bit W set when way W's fingerprint equals \p Tag's low byte.
  static unsigned matchFingerprint(const SetRows &Rows, uint64_t Tag) {
#if defined(__SSE2__)
    __m128i Row =
        _mm_load_si128(reinterpret_cast<const __m128i *>(Rows.Fingerprint));
    __m128i Key = _mm_set1_epi8(static_cast<char>(Tag));
    return static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(Row, Key)));
#else
    unsigned Mask = 0;
    for (unsigned W = 0; W < MaxWays; ++W)
      Mask |= unsigned{Rows.Fingerprint[W] == static_cast<uint8_t>(Tag)} << W;
    return Mask;
#endif
  }

  /// Makes the way ranked \p Rank the most recent: every more recent way
  /// ages by one rank and it becomes rank 0.
  static void touch(SetRows &Rows, uint8_t Rank) {
#if defined(__SSE2__)
    __m128i *Row = reinterpret_cast<__m128i *>(Rows.Rank);
    __m128i Ranks = _mm_load_si128(Row);
    __m128i Old = _mm_set1_epi8(static_cast<char>(Rank));
    // Ranks stay below 0x80, so the signed byte compare orders them.
    __m128i Younger = _mm_cmpgt_epi8(Old, Ranks);
    __m128i Self = _mm_cmpeq_epi8(Ranks, Old);
    _mm_store_si128(Row,
                    _mm_andnot_si128(Self, _mm_sub_epi8(Ranks, Younger)));
#else
    for (uint8_t &R : Rows.Rank)
      R = R == Rank ? 0 : static_cast<uint8_t>(R + (R < Rank));
#endif
  }

  /// Touches the way ranked \p LruRank, gives it fingerprint \p Print and
  /// returns its index.
  static unsigned replace(SetRows &Rows, uint8_t LruRank, uint8_t Print) {
#if defined(__SSE2__)
    __m128i *RankRow = reinterpret_cast<__m128i *>(Rows.Rank);
    __m128i *PrintRow = reinterpret_cast<__m128i *>(Rows.Fingerprint);
    __m128i Ranks = _mm_load_si128(RankRow);
    __m128i Lru = _mm_set1_epi8(static_cast<char>(LruRank));
    __m128i Victim = _mm_cmpeq_epi8(Ranks, Lru);
    __m128i Younger = _mm_cmpgt_epi8(Lru, Ranks);
    _mm_store_si128(RankRow,
                    _mm_andnot_si128(Victim, _mm_sub_epi8(Ranks, Younger)));
    // Whole-row fingerprint store: the next probe's 16-byte load then
    // forwards from it instead of stalling behind a byte store.
    __m128i Prints = _mm_load_si128(PrintRow);
    __m128i Key = _mm_set1_epi8(static_cast<char>(Print));
    _mm_store_si128(PrintRow, _mm_or_si128(_mm_andnot_si128(Victim, Prints),
                                           _mm_and_si128(Victim, Key)));
    return static_cast<unsigned>(
        __builtin_ctz(static_cast<unsigned>(_mm_movemask_epi8(Victim))));
#else
    unsigned Way = 0;
    while (Rows.Rank[Way] != LruRank)
      ++Way;
    touch(Rows, LruRank);
    Rows.Fingerprint[Way] = Print;
    return Way;
#endif
  }

  uint32_t Sets;
  uint32_t SetMask;
  uint32_t SetShift = 0;
  uint32_t Ways;
  uint32_t LineBytes;
  uint32_t LineShift;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  std::vector<SetRows> Meta;  ///< One fingerprint + rank row pair per set.
  std::vector<uint64_t> Tags; ///< Sets*MaxWays tags; ~0 means invalid.
};

} // namespace sim
} // namespace atmem

#endif // ATMEM_SIM_CACHESIM_H
