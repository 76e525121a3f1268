//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Demonstrates the multi-stage multi-threaded migration mechanism
/// (Section 4.4) head-to-head against the mbind system service on an
/// identical placement: same object, same chunk ranges, both directions
/// of the Table 4 comparison (migration time and post-migration mapping
/// quality). Also shows the staging mechanics: data is copied out to a
/// staging buffer on the target tier, the virtual range is remapped onto
/// fresh target frames, and the data is copied back — addresses never
/// change and huge pages re-form.
///
//===----------------------------------------------------------------------===//

#include "mem/AtmemMigrator.h"
#include "mem/MbindMigrator.h"
#include "sim/Machine.h"
#include "support/Error.h"
#include "support/Options.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <cstring>

using namespace atmem;
using namespace atmem::mem;
using namespace atmem::sim;

namespace {

/// Runs one mechanism on a fresh machine and reports its counters.
struct Outcome {
  MigrationResult Result;
  uint64_t HugePagesAfter = 0;
  uint64_t SmallPagesAfter = 0;
  bool DataIntact = false;
};

Outcome runMechanism(bool UseMbind, uint64_t ObjectBytes) {
  Machine M(nvmDramTestbed(1.0 / 256));
  DataObjectRegistry Registry(M);
  AtmemMigrator Atmem(Registry);
  MbindMigrator Mbind(Registry);

  DataObject &Obj =
      Registry.create("payload", ObjectBytes, InitialPlacement::Slow);
  for (uint64_t I = 0; I < Obj.mappedBytes(); ++I)
    Obj.data()[I] = static_cast<std::byte>((I * 31 + 5) & 0xFF);

  Outcome Out;
  Migrator &Mig = UseMbind ? static_cast<Migrator &>(Mbind)
                           : static_cast<Migrator &>(Atmem);
  if (Mig.migrate(Obj, {{0, Obj.numChunks()}}, TierId::Fast, Out.Result) !=
      MigrationStatus::Success)
    reportFatalError("migration unexpectedly refused");

  Out.HugePagesAfter = M.pageTable().hugePageCount();
  Out.SmallPagesAfter = M.pageTable().smallPageCount();
  Out.DataIntact = true;
  for (uint64_t I = 0; I < Obj.mappedBytes(); ++I)
    if (Obj.data()[I] != static_cast<std::byte>((I * 31 + 5) & 0xFF)) {
      Out.DataIntact = false;
      break;
    }
  return Out;
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Parser("migration_comparison: multi-stage multi-threaded "
                      "migration vs the mbind system service");
  Parser.addUnsigned("mib", 64, "payload size to migrate, MiB");
  if (!Parser.parse(Argc, Argv))
    return 1;
  uint64_t Bytes = Parser.getUnsigned("mib") << 20;

  std::printf("Migrating %s from NVM to DRAM through both mechanisms...\n\n",
              formatBytes(Bytes).c_str());

  Outcome Atmem = runMechanism(/*UseMbind=*/false, Bytes);
  Outcome Mbind = runMechanism(/*UseMbind=*/true, Bytes);

  TablePrinter Table({"mechanism", "time (modelled)", "PTEs written",
                      "huge pages after", "4K pages after", "data intact"});
  Table.addRow({"ATMem (staged, multi-threaded)",
                formatSeconds(Atmem.Result.SimSeconds),
                std::to_string(Atmem.Result.PtesTouched),
                std::to_string(Atmem.HugePagesAfter),
                std::to_string(Atmem.SmallPagesAfter),
                Atmem.DataIntact ? "yes" : "NO"});
  Table.addRow({"mbind (system service)",
                formatSeconds(Mbind.Result.SimSeconds),
                std::to_string(Mbind.Result.PtesTouched),
                std::to_string(Mbind.HugePagesAfter),
                std::to_string(Mbind.SmallPagesAfter),
                Mbind.DataIntact ? "yes" : "NO"});
  Table.print();

  std::printf("\nspeedup: %s; mbind split %llu huge pages, leaving the "
              "mapping fragmented into 4 KiB entries (the Table 4 TLB "
              "effect), while ATMem's remap re-formed huge pages on the "
              "target tier.\n",
              formatSpeedup(Mbind.Result.SimSeconds /
                            Atmem.Result.SimSeconds)
                  .c_str(),
              static_cast<unsigned long long>(
                  Mbind.Result.HugePagesSplit));
  return 0;
}
