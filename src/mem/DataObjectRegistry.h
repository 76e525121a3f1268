//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registry of all live data objects. Owns the objects, assigns their
/// simulated virtual ranges, maps them on the machine under a chosen
/// initial tier, and resolves sampled addresses back to (object, chunk)
/// pairs for the profiler.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_MEM_DATAOBJECTREGISTRY_H
#define ATMEM_MEM_DATAOBJECTREGISTRY_H

#include "mem/AddressSpace.h"
#include "mem/DataObject.h"
#include "sim/Machine.h"

#include <memory>
#include <string>
#include <vector>

namespace atmem {
namespace mem {

/// Where a sampled address landed.
struct Attribution {
  ObjectId Object = 0;
  uint32_t Chunk = 0;
};

/// Caller-owned memo for attributeIndexed(): remembers which interval the
/// last address landed in. Sampled misses are heavily clustered by object,
/// so the memo turns most attributions into a bounds check. Each
/// attributing thread owns its own hint — the registry never writes shared
/// state on lookups. Padded to a cache line so per-thread hints packed in
/// an array don't false-share.
struct alignas(64) AttributionHint {
  uint32_t Slot = ~0u;
};

/// Initial placement policy for a new registration.
enum class InitialPlacement {
  Slow,          ///< Everything on the large-capacity tier (baseline).
  Fast,          ///< Everything on the fast tier (the paper's ideal case).
  PreferredFast, ///< numactl -p model: fast until full, then overflow.
  Interleaved,   ///< numactl -i model: pages alternate between tiers.
};

/// Creates, maps, looks up, and destroys data objects on one machine.
class DataObjectRegistry {
public:
  explicit DataObjectRegistry(sim::Machine &M) : M(M) {}

  /// Registers an object of \p SizeBytes named \p Name. Chunk size is
  /// chosen adaptively unless \p ChunkBytesOverride is non-zero. The
  /// backing pages are mapped per \p Placement. Aborts when the initial
  /// tier cannot hold the object; use tryCreate() to handle that case.
  DataObject &create(const std::string &Name, uint64_t SizeBytes,
                     InitialPlacement Placement,
                     uint64_t ChunkBytesOverride = 0);

  /// Like create(), but returns nullptr (registering nothing) when the
  /// initial tier lacks capacity or the `addrspace.alloc` fault site
  /// fires. The Slow/Fast placements are all-or-nothing; the Preferred/
  /// Interleaved policies overflow instead of failing.
  DataObject *tryCreate(const std::string &Name, uint64_t SizeBytes,
                        InitialPlacement Placement,
                        uint64_t ChunkBytesOverride = 0);

  /// Unmaps and destroys the object identified by \p Id.
  void destroy(ObjectId Id);

  /// Resolves a simulated virtual address to its object and chunk, or
  /// returns false for addresses outside every live object. O(log
  /// objects) over a sorted interval index that is rebuilt on
  /// create/destroy, with an O(1) last-hit fast path through \p Hint.
  /// Safe to call concurrently from many threads (each with its own hint)
  /// as long as no object is created or destroyed meanwhile.
  bool attributeIndexed(uint64_t Va, Attribution &Out,
                        AttributionHint &Hint) const;

  DataObject &object(ObjectId Id);
  const DataObject &object(ObjectId Id) const;

  /// All live objects, in registration order.
  std::vector<DataObject *> liveObjects();
  std::vector<const DataObject *> liveObjects() const;

  /// Total mapped bytes across live objects.
  uint64_t totalMappedBytes() const;

  /// Bytes of live objects whose chunks sit on \p Tier.
  uint64_t totalBytesOn(sim::TierId Tier) const;

  sim::Machine &machine() { return M; }
  const sim::Machine &machine() const { return M; }

  /// Reserves a scratch virtual range (e.g. for a migration staging
  /// buffer) from the same address space as the data objects, so scratch
  /// mappings never collide with object mappings in the shared page table.
  uint64_t reserveScratchVa(uint64_t SizeBytes) {
    return Space.reserve(SizeBytes);
  }

private:
  /// One live object's address range, denormalized for attribution.
  struct AttrInterval {
    uint64_t Begin = 0; ///< Object VA.
    uint64_t End = 0;   ///< Object VA + mapped bytes.
    ObjectId Object = 0;
    uint32_t ChunkShift = 0;
  };

  void rebuildAttributionIndex();

  sim::Machine &M;
  AddressSpace Space;
  /// Index = ObjectId; nullptr for destroyed objects.
  std::vector<std::unique_ptr<DataObject>> Objects;
  /// Live-object ranges sorted by Begin (ranges are disjoint — the
  /// address space never reuses or overlaps allocations).
  std::vector<AttrInterval> AttrIndex;
};

} // namespace mem
} // namespace atmem

#endif // ATMEM_MEM_DATAOBJECTREGISTRY_H
