#include "support/Parallel.h"

#include <algorithm>
#include <system_error>
#include <thread>
#include <vector>

using namespace atmem;

unsigned atmem::parallelThreads(uint64_t Work) {
  uint64_t Hardware = std::max(std::thread::hardware_concurrency(), 1u);
  return static_cast<unsigned>(std::clamp<uint64_t>(Work >> 20, 1, Hardware));
}

void atmem::parallelFor(
    unsigned Slices, uint64_t Count,
    const std::function<void(unsigned, uint64_t, uint64_t)> &Body) {
  uint64_t Base = Count / Slices, Extra = Count % Slices;
  auto Run = [&](unsigned Slice) {
    uint64_t Begin = Slice * Base + std::min<uint64_t>(Slice, Extra);
    Body(Slice, Begin, Begin + Base + (Slice < Extra));
  };
  // jthreads join when Workers goes out of scope, on every path.
  std::vector<std::jthread> Workers;
  Workers.reserve(Slices - 1);
  for (unsigned Slice = 1; Slice < Slices; ++Slice) {
    try {
      Workers.emplace_back(Run, Slice);
    } catch (const std::system_error &) {
      Run(Slice);
    }
  }
  Run(0);
}
