//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulated virtual address space. Registered data objects receive
/// disjoint, 2 MiB-aligned virtual ranges so that huge-page mappings are
/// always available to the page table. Virtual addresses are never reused;
/// a released range leaves a hole (matching how a long-lived process's
/// address space behaves, and keeping sample attribution unambiguous).
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_MEM_ADDRESSSPACE_H
#define ATMEM_MEM_ADDRESSSPACE_H

#include <cstdint>

namespace atmem {
namespace mem {

/// Bump allocator over a simulated 64-bit virtual address space.
class AddressSpace {
public:
  /// Base virtual address of the first region handed out.
  static constexpr uint64_t BaseVa = 0x100000000000ull;
  /// Every region ends below this: the LLC replay's access records keep
  /// 48 address bits (core/Engine.h).
  static constexpr uint64_t LimitVa = uint64_t{1} << 48;

  /// Reserves a region of at least \p SizeBytes. The returned address is
  /// 2 MiB aligned and the reserved length is \p SizeBytes rounded up to a
  /// whole number of 4 KiB pages. A 2 MiB guard gap separates consecutive
  /// regions. Aborts when the region would reach LimitVa.
  uint64_t reserve(uint64_t SizeBytes);

  /// Total bytes reserved so far (excluding guard gaps).
  uint64_t reservedBytes() const { return Reserved; }

private:
  uint64_t Next = BaseVa;
  uint64_t Reserved = 0;
};

} // namespace mem
} // namespace atmem

#endif // ATMEM_MEM_ADDRESSSPACE_H
