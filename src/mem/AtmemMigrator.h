//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's multi-stage multi-threaded migration mechanism
/// (Section 4.4, Figure 4). For each contiguous range: (a) the live bytes
/// are copied into a staging buffer whose pages reside on the target tier,
/// (b) the virtual range is remapped onto fresh target-tier frames — no
/// data moves and virtual addresses are unchanged, huge pages re-form
/// where alignment allows — and (c) the staged bytes are copied back into
/// the (now target-resident) range. Data moves twice, once across tiers
/// and once within the target tier, and the mapping stays huge-page
/// friendly.
///
/// The paper runs both copies on many threads. Here each copy is one
/// memcpy on the calling thread: the reported migration time comes from
/// MigrationCostModel, which divides each copy by
/// MigrationConfig::CopyThreads, so host threads would change only the
/// wall time of the simulation, never a simulated number.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_MEM_ATMEMMIGRATOR_H
#define ATMEM_MEM_ATMEMMIGRATOR_H

#include "mem/DataObjectRegistry.h"
#include "mem/Migrator.h"

namespace atmem {
namespace mem {

/// Application-level staged migrator.
class AtmemMigrator : public Migrator {
public:
  /// \p Registry supplies the machine and scratch virtual addresses.
  explicit AtmemMigrator(DataObjectRegistry &Registry) : Registry(Registry) {}

  std::string name() const override { return "atmem"; }

  MigrationStatus migrate(DataObject &Obj,
                          const std::vector<ChunkRange> &Ranges,
                          sim::TierId Target,
                          MigrationResult &Result) override;

  uint64_t capacityNeeded(uint64_t PayloadBytes,
                          uint64_t MaxRangeBytes) const override;

private:
  DataObjectRegistry &Registry;
};

} // namespace mem
} // namespace atmem

#endif // ATMEM_MEM_ATMEMMIGRATOR_H
