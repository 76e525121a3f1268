//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small blocking thread pool used by the ATMem migrator for its
/// multi-threaded staging copies (paper Section 4.4) and by the parallel
/// tracked-execution engine for kernel iterations. The pool is real —
/// the staged copies move real bytes through real threads — while the
/// *reported* migration time comes from the MigrationCostModel so results
/// do not depend on the host machine.
///
/// Work distribution is chunked dynamic scheduling: a parallel-for carves
/// [Begin, End) into fixed-size chunks that participants grab with one
/// atomic fetch-add each. Skewed iterations (a hub vertex's huge adjacency
/// list) therefore cannot straggle an entire slice the way the previous
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

/// Fixed-size worker pool with blocking parallel-for primitives.
class ThreadPool {
public:
  /// Body form that also receives the participant index; accesses made by
  /// the body can be keyed on it (one simulation shard per participant).
  using ThreadedBody = std::function<void(uint32_t, uint64_t, uint64_t)>;

  /// Spawns \p Threads workers (at least one).
  explicit ThreadPool(uint32_t Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  uint32_t threadCount() const { return static_cast<uint32_t>(Workers.size()); }

  /// Runs \p Body(ChunkBegin, ChunkEnd) over [Begin, End) split into
  /// dynamically scheduled chunks of at most \p ChunkSize (0 picks a size
  /// aimed at ~8 chunks per worker). Blocks until the range completes.
  void parallelFor(uint64_t Begin, uint64_t End,
                   const std::function<void(uint64_t, uint64_t)> &Body,
                   uint64_t ChunkSize = 0);

  /// Like parallelFor, but \p Body also receives a stable participant
  /// index in [0, threadCount()): at most threadCount() participants run
  /// concurrently and no index is ever active on two chunks at once, so a
  /// body may use the index to address un-synchronized per-participant
  /// state. Chunks are grabbed dynamically; which chunks land on which
  /// index is scheduling-dependent.
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
