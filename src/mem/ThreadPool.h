//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small blocking thread pool: the kernel pool of the parallel
/// tracked-execution engine (Runtime::parallelTracked), which a Runtime
/// builds only when SimThreads > 1. It is the only host thread pool a
/// Runtime owns; the migrator's copies and the miss drain run on the
/// calling thread.
///
/// Work distribution is chunked dynamic scheduling: parallelForThreaded
/// carves [Begin, End) into fixed-size chunks that participants grab with
/// one atomic fetch-add each. Skewed iterations (a hub vertex's huge
/// adjacency list) therefore cannot straggle an entire slice the way a
/// one-contiguous-slice-per-worker split could.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_MEM_THREADPOOL_H
#define ATMEM_MEM_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace atmem {
namespace mem {

/// Fixed-size worker pool with a blocking parallel-for.
class ThreadPool {
public:
  /// Loop body: the participant index, then the chunk's [Begin, End).
  /// Accesses made by the body can be keyed on the index (one simulation
  /// shard per participant).
  using ThreadedBody = std::function<void(uint32_t, uint64_t, uint64_t)>;

  /// Spawns \p Threads workers (at least one).
  explicit ThreadPool(uint32_t Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  uint32_t threadCount() const { return static_cast<uint32_t>(Workers.size()); }

  /// Runs \p Body over [Begin, End) split into dynamically scheduled
  /// chunks of at most \p ChunkSize (0 picks a size aimed at ~8 chunks per
  /// worker) and blocks until the range completes. The participant index
  /// is in [0, threadCount()): at most threadCount() participants run
  /// concurrently and no index is ever active on two chunks at once, so a
  /// body may use the index to address un-synchronized per-participant
  /// state. Chunks are grabbed dynamically; which chunks land on which
  /// index is scheduling-dependent. With no worker (every spawn failed)
  /// the body runs inline as Body(0, Begin, End).
  void parallelForThreaded(uint64_t Begin, uint64_t End, uint64_t ChunkSize,
                           const ThreadedBody &Body);

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::mutex Mutex;
  std::condition_variable WorkReady;
  std::condition_variable WorkDone;
  std::queue<std::function<void()>> Tasks;
  uint32_t Pending = 0;
  bool ShuttingDown = false;
};

} // namespace mem
} // namespace atmem

#endif // ATMEM_MEM_THREADPOOL_H
