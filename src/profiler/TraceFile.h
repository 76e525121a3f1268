//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary miss-trace recording. A trace is the stream of LLC-miss virtual
/// addresses of one profiled window, with a versioned header and an event
/// count so truncated files are detected. Traces feed the OfflineProfiler
/// (full-information placement analysis) and make profiling runs
/// reproducible and inspectable offline.
///
/// The writer spills asynchronously: full segments are handed to a
/// dedicated writer thread over a bounded FIFO queue, so the recording
/// thread (the end-of-iteration drain) never blocks on the file system.
/// Segments are written strictly in hand-off order, so the file bytes are
/// identical to a synchronous writer's; drained segments return through a
/// recycle pool, making the batched drain's hand-off allocation-free and
/// copy-free (it donates the iteration's miss buffer itself).
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_PROFILER_TRACEFILE_H
#define ATMEM_PROFILER_TRACEFILE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace atmem {
namespace prof {

/// On-disk header of a miss trace.
struct TraceHeader {
  static constexpr uint64_t MagicValue = 0x3143524d54414d54ull; // "TMATMRC1".

  uint64_t Magic = MagicValue;
  uint32_t Version = 1;
  uint32_t Reserved = 0;
  uint64_t EventCount = 0;
};

/// Buffered writer for a miss trace. The header's event count is patched
/// on finish(), so an unfinished file is recognizably incomplete.
///
/// Thread model: record()/recordBatch()/recordBatchOwned() must come from
/// one producer thread; the internal writer thread owns the FILE between
/// open() and finish().
class TraceWriter {
public:
  TraceWriter() = default;
  ~TraceWriter();

  TraceWriter(const TraceWriter &) = delete;
  TraceWriter &operator=(const TraceWriter &) = delete;

  /// Opens \p Path for writing and starts the spill thread. Returns false
  /// on I/O failure.
  bool open(const std::string &Path);

  /// Appends one miss address. No-op when not open.
  void record(uint64_t Va) {
    if (!File)
      return;
    Buffer.push_back(Va);
    ++Events;
    if (Buffer.size() >= FlushThreshold)
      spillBuffer();
  }

  /// Appends \p N miss addresses in order — one bulk hand-off instead of
  /// N per-event calls. The resulting file bytes are identical to N
  /// record() calls (the event stream alone determines the output):
  /// small batches join the buffer; flush-sized ones are copied into a
  /// recycled segment and queued behind any pending buffered events.
  void recordBatch(const uint64_t *Vas, size_t N);

  /// Zero-copy variant of recordBatch(): takes ownership of \p Vas and
  /// queues it for the spill thread directly — the drain donates each
  /// iteration's miss buffer instead of copying 8 bytes per miss through
  /// the file API. Pair with takeRecycled() to get a drained buffer back.
  void recordBatchOwned(std::vector<uint64_t> &&Vas);

  /// A spent segment from the recycle pool (empty, capacity warm), or an
  /// empty vector when none is available yet.
  std::vector<uint64_t> takeRecycled();

  /// Drains the spill queue, patches the header, and closes. Returns
  /// false when any write failed.
  bool finish();

  bool isOpen() const { return File != nullptr; }
  uint64_t eventCount() const { return Events; }

private:
  /// Moves the producer-side Buffer into the spill queue (order
  /// preserved) and replaces it with a recycled segment.
  void spillBuffer();
  /// Queues \p Segment for the writer thread; blocks only when the
  /// bounded queue is full (spill thread persistently behind).
  void enqueue(std::vector<uint64_t> &&Segment);
  void writerLoop();

  static constexpr size_t FlushThreshold = 1 << 16;
  /// Bounded queue depth: a few flush-sized segments of headroom, small
  /// enough to cap memory.
  static constexpr size_t MaxQueuedSegments = 8;
  static constexpr size_t MaxPooledSegments = 8;

  std::FILE *File = nullptr;
  std::vector<uint64_t> Buffer;
  uint64_t Events = 0;
  std::atomic<bool> WriteFailed{false};

  std::thread Writer;
  std::mutex QueueMutex;
  std::condition_variable QueueCv; ///< Signals the writer: work/shutdown.
  std::condition_variable SpaceCv; ///< Signals producers: queue drained.
  std::deque<std::vector<uint64_t>> Queue;
  std::vector<std::vector<uint64_t>> Pool;
  bool ShuttingDown = false;
};

/// Streaming reader over a miss trace.
class TraceReader {
public:
  /// Opens \p Path and validates the header. Returns false on failure.
  bool open(const std::string &Path);
  ~TraceReader();

  TraceReader() = default;
  TraceReader(const TraceReader &) = delete;
  TraceReader &operator=(const TraceReader &) = delete;

  /// Invokes \p Consume for every event; returns false when the file
  /// ends early (truncation).
  bool forEach(const std::function<void(uint64_t)> &Consume);

  uint64_t eventCount() const { return Header.EventCount; }

private:
  std::FILE *File = nullptr;
  TraceHeader Header;
};

} // namespace prof
} // namespace atmem

#endif // ATMEM_PROFILER_TRACEFILE_H
