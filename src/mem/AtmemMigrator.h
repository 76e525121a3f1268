//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's multi-stage multi-threaded migration mechanism
/// (Section 4.4, Figure 4). For each contiguous range: (a) worker threads
/// copy the live bytes into a staging buffer whose pages reside on the
/// target tier, (b) the virtual range is remapped onto fresh target-tier
/// frames — no data moves and virtual addresses are unchanged, huge pages
/// re-form where alignment allows — and (c) worker threads copy the staged
/// bytes back into the (now target-resident) range. Data moves twice, once
/// across tiers and once within the target tier, but both copies run at
/// full thread-parallel bandwidth and the mapping stays huge-page friendly.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_MEM_ATMEMMIGRATOR_H
#define ATMEM_MEM_ATMEMMIGRATOR_H

#include "mem/DataObjectRegistry.h"
#include "mem/Migrator.h"
#include "mem/ThreadPool.h"

namespace atmem {
namespace mem {

/// Application-level staged migrator.
class AtmemMigrator : public Migrator {
public:
  /// \p Registry supplies the machine and scratch virtual addresses;
  /// \p Pool runs the staged copies.
  AtmemMigrator(DataObjectRegistry &Registry, ThreadPool &Pool)
      : Registry(Registry), Pool(Pool) {}

  std::string name() const override { return "atmem"; }

  MigrationStatus migrate(DataObject &Obj,
                          const std::vector<ChunkRange> &Ranges,
                          sim::TierId Target,
                          MigrationResult &Result) override;

  uint64_t capacityNeeded(uint64_t PayloadBytes,
                          uint64_t MaxRangeBytes) const override;

private:
  DataObjectRegistry &Registry;
  ThreadPool &Pool;
};

} // namespace mem
} // namespace atmem

#endif // ATMEM_MEM_ATMEMMIGRATOR_H
