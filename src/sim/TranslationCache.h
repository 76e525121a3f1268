//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct-mapped software translation cache sitting in front of
/// PageTable::translate. TLB replay touches every buffered miss once per
/// iteration; the pages of a dense graph object are revisited thousands of
/// times per drain, so a small direct-mapped array absorbs almost all of
/// the page-table walks. Mirroring the TLB model itself, the cache keeps
/// split arrays for the two page sizes: a 2 MiB-tagged array (one entry
/// covers 512 small pages, so a handful of tags span a whole graph object
/// when ATMem's remap has preserved huge pages) probed first, then a
/// 4 KiB-tagged array for fragmented mappings. Entries are packed to
/// 16 bytes — tag plus frame/tier word — and the full Translation is
/// reconstructed arithmetically on a hit, keeping the probe's cache
/// footprint minimal. Consistency is epoch-based: the cache compares
/// PageTable::mutationEpoch() on every lookup and lazily drops its entire
/// contents when the table changed, so cached results are always exactly
/// what the table would return — the cache is observably transparent.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_SIM_TRANSLATIONCACHE_H
#define ATMEM_SIM_TRANSLATIONCACHE_H

#include "sim/PageTable.h"

#include <cstdint>
#include <vector>

namespace atmem {
namespace sim {

/// Direct-mapped, epoch-validated, split small/huge translation cache.
/// Not thread-safe: each (serial) user owns its own instance.
class TranslationCache {
public:
  /// \p Log2Entries selects each array's size; 4096 huge entries cover an
  /// 8 GiB huge-backed working set, 4096 small ones a 16 MiB fragmented
  /// residue.
  explicit TranslationCache(const PageTable &PT, uint32_t Log2Entries = 12)
      : PT(PT), Mask((1ull << Log2Entries) - 1),
        HugeSlots(1ull << Log2Entries), SmallSlots(1ull << Log2Entries) {}

  /// Drops every cached entry if the page table mutated since the last
  /// call. translate() runs this implicitly; loops that translate many
  /// addresses while the table is known-quiescent (the batched drain) can
  /// call it once and use translatePageBytes() inside the loop.
  void revalidate() {
    if (Epoch == PT.mutationEpoch())
      return;
    for (Slot &S : HugeSlots)
      S.Tag = InvalidTag;
    for (Slot &S : SmallSlots)
      S.Tag = InvalidTag;
    Epoch = PT.mutationEpoch();
  }

  /// Translates \p Va, consulting the page table only on a cache miss or
  /// after the table mutated. Identical results to PT.translate(Va, Out).
  bool translate(uint64_t Va, Translation &Out) {
    revalidate();
    ++Lookups;
    uint64_t HugeVpn = Va >> HugeShift;
    const Slot &H = HugeSlots[HugeVpn & Mask];
    if (H.Tag == HugeVpn) {
      ++Hits;
      unpack(H, HugeVpn << HugeShift, HugePageBytes, Out);
      return true;
    }
    uint64_t SmallVpn = Va >> SmallShift;
    const Slot &S = SmallSlots[SmallVpn & Mask];
    if (S.Tag == SmallVpn) {
      ++Hits;
      unpack(S, SmallVpn << SmallShift, SmallPageBytes, Out);
      return true;
    }
    if (!PT.translate(Va, Out))
      return false; // Negative results are never cached.
    bool Huge = Out.PageBytes == HugePageBytes;
    Slot &Fill = Huge ? HugeSlots[HugeVpn & Mask] : SmallSlots[SmallVpn & Mask];
    Fill.Tag = Huge ? HugeVpn : SmallVpn;
    Fill.FrameAndTier =
        Out.FrameBase | (Out.Tier == TierId::Fast ? FastBit : 0);
    return true;
  }

  /// Cheapest possible probe for the quiescent replay loop: true when the
  /// huge-page slot for \p HugeVpn (= Va >> 21) is cached, meaning the
  /// address is huge-mapped. One load and one compare; no counter updates
  /// (the hit/lookup tallies are internal diagnostics, and the replay
  /// loop's throughput is worth more than their precision there). The
  /// caller must have run revalidate() and keep the table quiescent.
  bool isCachedHuge(uint64_t HugeVpn) const {
    return HugeSlots[HugeVpn & Mask].Tag == HugeVpn;
  }

  /// TLB-replay fast path: like translate() but yields only the page size
  /// and skips the epoch check — the caller must have run revalidate()
  /// and guarantee the page table does not mutate until the loop ends.
  /// Counter updates and cache fills match translate() exactly.
  bool translatePageBytes(uint64_t Va, uint64_t &PageBytes) {
    ++Lookups;
    uint64_t HugeVpn = Va >> HugeShift;
    if (HugeSlots[HugeVpn & Mask].Tag == HugeVpn) {
      ++Hits;
      PageBytes = HugePageBytes;
      return true;
    }
    uint64_t SmallVpn = Va >> SmallShift;
    if (SmallSlots[SmallVpn & Mask].Tag == SmallVpn) {
      ++Hits;
      PageBytes = SmallPageBytes;
      return true;
    }
    // Fall back to the full path; its probe misses again (the slots are
    // unchanged), so it counts this lookup once and fills the cache.
    --Lookups;
    Translation Out;
    if (!translate(Va, Out))
      return false;
    PageBytes = Out.PageBytes;
    return true;
  }

  uint64_t hits() const { return Hits; }
  uint64_t lookups() const { return Lookups; }

private:
  static constexpr uint64_t InvalidTag = ~0ull;
  static constexpr uint64_t FastBit = 1ull << 63;
  static constexpr uint32_t SmallShift = 12;
  static constexpr uint32_t HugeShift = 21;
  static_assert(SmallPageBytes == 1ull << SmallShift &&
                    HugePageBytes == 1ull << HugeShift,
                "packed slots assume 4 KiB / 2 MiB page geometry");

  /// One cached mapping: the page-size-specific VPN plus the frame base
  /// with the tier in the top bit (frames never reach bit 63).
  struct Slot {
    uint64_t Tag = InvalidTag;
    uint64_t FrameAndTier = 0;
  };

  static void unpack(const Slot &S, uint64_t PageVa, uint64_t PageBytes,
                     Translation &Out) {
    Out.PageVa = PageVa;
    Out.PageBytes = PageBytes;
    Out.FrameBase = S.FrameAndTier & ~FastBit;
    Out.Tier = S.FrameAndTier & FastBit ? TierId::Fast : TierId::Slow;
  }

  const PageTable &PT;
  uint64_t Epoch = ~0ull; ///< Forces a flush on first use.
  uint64_t Mask;
  std::vector<Slot> HugeSlots;
  std::vector<Slot> SmallSlots;
  uint64_t Hits = 0;
  uint64_t Lookups = 0;
};

} // namespace sim
} // namespace atmem

#endif // ATMEM_SIM_TRANSLATIONCACHE_H
