#include "mem/ThreadPool.h"

#include "fault/FaultInjection.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <system_error>

using namespace atmem;
using namespace atmem::mem;

namespace {

fault::Site SpawnFault("threadpool.spawn");

} // namespace

ThreadPool::ThreadPool(uint32_t Threads) {
  uint32_t Count = std::max<uint32_t>(Threads, 1);
  Workers.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    // A failed spawn (injected, or real resource exhaustion) degrades the
    // pool rather than killing the process; parallelForThreaded falls back
    // to inline execution when no worker came up at all.
    if (SpawnFault.shouldFail())
      continue;
    try {
      Workers.emplace_back([this] { workerLoop(); });
    } catch (const std::system_error &) {
      break;
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkReady.wait(Lock, [this] { return ShuttingDown || !Tasks.empty(); });
      if (ShuttingDown && Tasks.empty())
        return;
      Task = std::move(Tasks.front());
      Tasks.pop();
    }
    Task();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      assert(Pending > 0 && "task accounting out of sync");
      --Pending;
    }
    WorkDone.notify_all();
  }
}

void ThreadPool::parallelForThreaded(uint64_t Begin, uint64_t End,
                                     uint64_t ChunkSize,
                                     const ThreadedBody &Body) {
  if (Begin >= End)
    return;
  if (Workers.empty()) {
    Body(0, Begin, End);
    return;
  }
  uint64_t Total = End - Begin;
  if (ChunkSize == 0)
    ChunkSize = std::max<uint64_t>(Total / (Workers.size() * 8), 1);
  uint64_t NumChunks = (Total + ChunkSize - 1) / ChunkSize;
  // One participant task per worker, capped by the chunk count so tiny
  // ranges don't pay wakeups for participants with nothing to grab.
  auto Participants = static_cast<uint32_t>(
      std::min<uint64_t>(Workers.size(), NumChunks));

  // The grab cursor lives on this stack frame; the call blocks until all
  // participants drain, so the reference captures below stay valid.
  std::atomic<uint64_t> NextChunk{0};
  auto Run = [&, ChunkSize](uint32_t Index) {
    for (;;) {
      uint64_t Chunk = NextChunk.fetch_add(1, std::memory_order_relaxed);
      if (Chunk >= NumChunks)
        return;
      uint64_t ChunkBegin = Begin + Chunk * ChunkSize;
      uint64_t ChunkEnd = std::min(ChunkBegin + ChunkSize, End);
      Body(Index, ChunkBegin, ChunkEnd);
    }
  };

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (uint32_t P = 0; P < Participants; ++P) {
      ++Pending;
      Tasks.push([&Run, P] { Run(P); });
    }
  }
  WorkReady.notify_all();
  std::unique_lock<std::mutex> Lock(Mutex);
  WorkDone.wait(Lock, [this] { return Pending == 0; });
}
