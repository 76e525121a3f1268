//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fork-join data parallelism over std::thread for the dataset build, the
/// one parallel layer outside the runtime (whose only threads are the LLC
/// replay workers, core::SetReplay). Callers split work into contiguous
/// slices and keep every result independent of the slice count.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_SUPPORT_PARALLEL_H
#define ATMEM_SUPPORT_PARALLEL_H

#include <cstdint>
#include <functional>

namespace atmem {

/// Thread count for \p Work units of data-parallel work (random draws or
/// edges): every hardware thread, but no more than one per 2^20 units, so
/// small inputs stay on the calling thread.
unsigned parallelThreads(uint64_t Work);

/// Splits [0, Count) into \p Slices (at least 1) contiguous slices in index
/// order and runs Body(Slice, Begin, End) for each: slice 0 on the calling
/// thread, every other slice on a std::thread of its own (or on the calling
/// thread if that thread cannot start). Returns once every slice has
/// finished.
void parallelFor(
    unsigned Slices, uint64_t Count,
    const std::function<void(unsigned Slice, uint64_t Begin, uint64_t End)>
        &Body);

} // namespace atmem

#endif // ATMEM_SUPPORT_PARALLEL_H
