#include "mem/AddressSpace.h"

#include "sim/FrameAllocator.h"
#include "support/Error.h"

using namespace atmem;
using namespace atmem::mem;

uint64_t AddressSpace::reserve(uint64_t SizeBytes) {
  uint64_t Pages =
      (SizeBytes + sim::SmallPageBytes - 1) / sim::SmallPageBytes;
  if (Pages == 0)
    Pages = 1;
  uint64_t Va = Next;
  if (Va >= LimitVa || Pages > (LimitVa - Va) / sim::SmallPageBytes)
    reportFatalError("simulated address space exhausted");
  uint64_t Length = Pages * sim::SmallPageBytes;
  // Advance to the next 2 MiB boundary past the region plus a guard gap.
  uint64_t End = Va + Length + sim::HugePageBytes;
  Next = (End + sim::HugePageBytes - 1) & ~(sim::HugePageBytes - 1);
  Reserved += Length;
  return Va;
}
