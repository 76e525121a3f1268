//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set-associative data-TLB model with split 4 KiB / 2 MiB arrays, used to
/// measure post-migration TLB behaviour (Table 4 of the paper). The two
/// migration mechanisms leave the page table in different shapes — mbind
/// fragments huge pages into 4 KiB entries while ATMem's remap preserves
/// them — and this model turns that difference into a miss count by
/// replaying an application iteration's access stream.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_SIM_TLB_H
#define ATMEM_SIM_TLB_H

#include "sim/FrameAllocator.h"
#include "sim/MachineConfig.h"
#include "sim/SimdProbe.h"
#include "support/Error.h"

#include <cstdint>
#include <vector>

namespace atmem {
namespace sim {

/// LRU set-associative translation cache for one page size.
class TlbArray {
public:
  /// Creates an array with \p Entries total entries of \p Ways
  /// associativity for pages of \p PageBytes.
  TlbArray(uint32_t Entries, uint32_t Ways, uint64_t PageBytes);

  /// Looks up the page containing \p Va, inserting it on a miss. Returns
  /// true on a hit. Defined inline: the batched drain calls this once per
  /// buffered miss, and a cross-TU call costs as much as the probe itself.
  bool access(uint64_t Va) {
    uint64_t Vpn = PageShift ? Va >> PageShift : Va / PageBytes;
    return accessVpn(Vpn);
  }

  /// access() after the VPN computation: callers that already derived the
  /// VPN (the batched drain translates a 2 MiB run once and then replays
  /// every miss of the run here) skip recomputing it. Verdicts, counters
  /// and LRU state are exactly those of access().
  bool accessVpn(uint64_t Vpn) {
    size_t Base = static_cast<size_t>(setOf(Vpn)) * Ways;
    uint64_t *VpnRow = Vpns.data() + Base;
    uint64_t *StampRow = Stamps.data() + Base;
    ++Clock;

    // Hit probe first: a VPN-only scan over one SoA row (a whole set fits
    // in a single cache line), no victim bookkeeping on the common path.
    // The shipped geometries are 4-way; a branchless probe replaces four
    // data-dependent early-exit branches (the hit way is effectively
    // random, so they mispredict) with one predictable hit/miss branch.
    // At most one way matches: inserts happen only on a miss, so a set
    // never holds duplicate VPNs, and Vpn != InvalidVpn for real pages.
    if (Ways == 4) {
#if ATMEM_SIMD_PROBE
      // Two 128-bit compares replace the four scalar ones; probeWay4
      // returns the first (lowest) matching way like the scalar scan, so
      // verdict and LRU update stay bit-identical.
      int Way = probeWay4(VpnRow, Vpn);
      if (Way >= 0) {
        StampRow[Way] = Clock;
        ++Hits;
        return true;
      }
#else
      bool H1 = VpnRow[1] == Vpn;
      bool H2 = VpnRow[2] == Vpn;
      bool H3 = VpnRow[3] == Vpn;
      if ((VpnRow[0] == Vpn) | H1 | H2 | H3) {
        uint32_t Way = static_cast<uint32_t>(H1) + 2u * H2 + 3u * H3;
        StampRow[Way] = Clock;
        ++Hits;
        return true;
      }
#endif
    } else {
      for (uint32_t I = 0; I < Ways; ++I) {
        if (VpnRow[I] == Vpn) {
          StampRow[I] = Clock;
          ++Hits;
          return true;
        }
      }
    }

    // Miss: replicate the historical fused loop's victim rule exactly —
    // the last invalid way wins; otherwise the first way with the minimal
    // stamp (stamps were only compared while the running victim was
    // valid).
    uint32_t Victim = 0;
    bool VictimValid = VpnRow[0] != InvalidVpn;
    uint64_t VictimStamp = StampRow[0];
    for (uint32_t I = 1; I < Ways; ++I) {
      if (VpnRow[I] == InvalidVpn) {
        Victim = I;
        VictimValid = false;
      } else if (VictimValid && StampRow[I] < VictimStamp) {
        Victim = I;
        VictimStamp = StampRow[I];
      }
    }
    ++Misses;
    VpnRow[Victim] = Vpn;
    StampRow[Victim] = Clock;
    return false;
  }

  /// Counts \p N hits without probing: exactly what \p N calls of
  /// accessVpn() on the VPN this array accessed last would do. That way
  /// already holds the newest stamp, so a repeat changes no LRU order and
  /// no later victim; only the hit count moves. The batched TLB replay
  /// collapses runs of misses to one 2 MiB page through this.
  void countHits(uint64_t N) { Hits += N; }

  /// Invalidates the entry for the page containing \p Va, if present.
  void flushPage(uint64_t Va);

  /// Invalidates everything.
  void flushAll();

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  void resetCounters() {
    Hits = 0;
    Misses = 0;
  }

private:
  /// Sentinel VPN marking an invalid way. Unreachable for real pages:
  /// a VPN of ~0 would need a virtual address beyond 2^64.
  static constexpr uint64_t InvalidVpn = ~0ull;

  uint32_t setOf(uint64_t Vpn) const {
    if (SetMask)
      return static_cast<uint32_t>(Vpn & SetMask);
    return static_cast<uint32_t>(Vpn % Sets);
  }

  uint32_t Sets;
  uint32_t SetMask = 0;   ///< Sets-1 when Sets is a power of two, else 0.
  uint32_t PageShift = 0; ///< log2(PageBytes) when a power of two, else 0.
  uint32_t Ways;
  uint64_t PageBytes;
  uint64_t Clock = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  /// Structure-of-arrays ways: the probe touches only the VPN row (one
  /// cache line covers a whole set), stamps only on the update that
  /// follows.
  std::vector<uint64_t> Vpns;   ///< InvalidVpn marks an empty way.
  std::vector<uint64_t> Stamps;
};

/// The full data TLB: a 4 KiB array and a 2 MiB array. The caller decides,
/// from the page table, which array a given access consults.
class Tlb {
public:
  explicit Tlb(const TlbConfig &Config);

  /// Records an access to \p Va translated by a page of \p PageBytes.
  /// Returns true on a TLB hit. Inline for the same reason as
  /// TlbArray::access — it sits inside the batched drain's per-miss loop.
  bool access(uint64_t Va, uint64_t PageBytes) {
    if (PageBytes == SmallPageBytes)
      return Small.access(Va);
    if (PageBytes == HugePageBytes)
      return Huge.access(Va);
    ATMEM_UNREACHABLE("unsupported page size");
  }

  /// Invalidates the translation for one page (models a TLB shootdown
  /// after a page move).
  void flushPage(uint64_t Va, uint64_t PageBytes);

  /// Full flush (context-switch scale invalidation).
  void flushAll();

  /// \name Direct per-size array access
  /// The batched drain resolves the page size once per translation run
  /// and then feeds the run's misses straight to the owning array via
  /// accessVpn(), skipping the per-access size dispatch above.
  /// @{
  TlbArray &smallArray() { return Small; }
  TlbArray &hugeArray() { return Huge; }
  /// @}

  uint64_t hits() const { return Small.hits() + Huge.hits(); }
  uint64_t misses() const { return Small.misses() + Huge.misses(); }
  void resetCounters() {
    Small.resetCounters();
    Huge.resetCounters();
  }

private:
  TlbArray Small;
  TlbArray Huge;
};

} // namespace sim
} // namespace atmem

#endif // ATMEM_SIM_TLB_H
