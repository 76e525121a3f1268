//===----------------------------------------------------------------------===//
// Unit tests for the kernel thread pool.
//===----------------------------------------------------------------------===//

#include "mem/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <vector>

using namespace atmem::mem;

namespace {

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool Pool(0);
  EXPECT_GE(Pool.threadCount(), 1u);
}

TEST(ThreadPoolTest, RequestedWorkerCount) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.threadCount(), 4u);
}

TEST(ThreadPoolTest, SlicesAreContiguousAndOrderedWithinSlice) {
  ThreadPool Pool(3);
  std::vector<int> Data(300, 0);
  Pool.parallelForThreaded(0, 300, /*ChunkSize=*/0,
                           [&](uint32_t, uint64_t Begin, uint64_t End) {
                             for (uint64_t I = Begin; I < End; ++I)
                               Data[I] = static_cast<int>(I);
                           });
  for (int I = 0; I < 300; ++I)
    ASSERT_EQ(Data[I], I);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool Pool(4);
  for (int Round = 0; Round < 50; ++Round) {
    std::atomic<uint64_t> Count{0};
    Pool.parallelForThreaded(0, 64, /*ChunkSize=*/0,
                             [&](uint32_t, uint64_t Begin, uint64_t End) {
                               Count += End - Begin;
                             });
    ASSERT_EQ(Count.load(), 64u);
  }
}

TEST(ThreadPoolTest, ActuallyRunsConcurrently) {
  // Rendezvous: all four slices must be in flight at the same time for
  // any of them to finish (bounded by a timeout so scheduler hiccups fail
  // the expectation instead of hanging the suite).
  ThreadPool Pool(4);
  std::mutex Mutex;
  std::condition_variable AllArrived;
  int Arrived = 0;
  bool SawFullOverlap = false;
  Pool.parallelForThreaded(0, 4, /*ChunkSize=*/1,
                           [&](uint32_t, uint64_t, uint64_t) {
                             std::unique_lock<std::mutex> Lock(Mutex);
                             if (++Arrived == 4)
                               SawFullOverlap = true;
                             AllArrived.notify_all();
                             AllArrived.wait_for(Lock, std::chrono::seconds(5),
                                                 [&] { return Arrived == 4; });
                           });
  EXPECT_TRUE(SawFullOverlap);
}

TEST(ThreadPoolTest, ThreadedCoversRangeExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Touched(1000);
  Pool.parallelForThreaded(
      0, 1000, /*ChunkSize=*/64,
      [&](uint32_t ThreadIdx, uint64_t Begin, uint64_t End) {
        EXPECT_LT(ThreadIdx, Pool.threadCount());
        for (uint64_t I = Begin; I < End; ++I)
          ++Touched[I];
      });
  for (int I = 0; I < 1000; ++I)
    ASSERT_EQ(Touched[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, ThreadedEmptyRangeIsNoop) {
  ThreadPool Pool(2);
  std::atomic<int> Calls{0};
  Pool.parallelForThreaded(7, 7, 16,
                           [&](uint32_t, uint64_t, uint64_t) { ++Calls; });
  Pool.parallelForThreaded(9, 7, 16,
                           [&](uint32_t, uint64_t, uint64_t) { ++Calls; });
  EXPECT_EQ(Calls.load(), 0);
}

TEST(ThreadPoolTest, ThreadedRangeSmallerThanChunkIsOneChunk) {
  ThreadPool Pool(4);
  std::atomic<int> Calls{0};
  std::atomic<uint64_t> Sum{0};
  Pool.parallelForThreaded(10, 13, /*ChunkSize=*/100,
                           [&](uint32_t, uint64_t Begin, uint64_t End) {
                             ++Calls;
                             for (uint64_t I = Begin; I < End; ++I)
                               Sum += I;
                           });
  EXPECT_EQ(Calls.load(), 1);
  EXPECT_EQ(Sum.load(), 10u + 11 + 12);
}

TEST(ThreadPoolTest, ThreadedMoreWorkersThanItems) {
  // 8 workers, 3 single-item chunks: only 3 participants are enqueued and
  // every thread index stays below the participant cap.
  ThreadPool Pool(8);
  std::vector<std::atomic<int>> Touched(3);
  Pool.parallelForThreaded(0, 3, /*ChunkSize=*/1,
                           [&](uint32_t ThreadIdx, uint64_t Begin,
                               uint64_t End) {
                             EXPECT_LT(ThreadIdx, 3u);
                             for (uint64_t I = Begin; I < End; ++I)
                               ++Touched[I];
                           });
  for (int I = 0; I < 3; ++I)
    ASSERT_EQ(Touched[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, ThreadedDefaultChunkSizeCoversRange) {
  ThreadPool Pool(3);
  std::atomic<uint64_t> Count{0};
  Pool.parallelForThreaded(0, 12345, /*ChunkSize=*/0,
                           [&](uint32_t, uint64_t Begin, uint64_t End) {
                             Count += End - Begin;
                           });
  EXPECT_EQ(Count.load(), 12345u);
}

TEST(ThreadPoolTest, ThreadedChunksAlignToChunkSize) {
  // Dynamic scheduling still hands out fixed-size, contiguous, aligned
  // chunks; only the final chunk may be short.
  ThreadPool Pool(4);
  constexpr uint64_t ChunkSize = 32;
  std::mutex Mutex;
  std::vector<std::pair<uint64_t, uint64_t>> Chunks;
  Pool.parallelForThreaded(0, 1000, ChunkSize,
                           [&](uint32_t, uint64_t Begin, uint64_t End) {
                             std::lock_guard<std::mutex> Lock(Mutex);
                             Chunks.emplace_back(Begin, End);
                           });
  for (const auto &[Begin, End] : Chunks) {
    EXPECT_EQ(Begin % ChunkSize, 0u);
    EXPECT_TRUE(End == Begin + ChunkSize || End == 1000u);
  }
  EXPECT_EQ(Chunks.size(), (1000 + ChunkSize - 1) / ChunkSize);
}

TEST(ThreadPoolTest, LargeByteRangeSplits) {
  ThreadPool Pool(4);
  std::vector<uint8_t> Src(1 << 20, 0xAB);
  std::vector<uint8_t> Dst(1 << 20, 0);
  Pool.parallelForThreaded(0, Src.size(), /*ChunkSize=*/0,
                           [&](uint32_t, uint64_t Begin, uint64_t End) {
                             std::copy(Src.begin() + Begin, Src.begin() + End,
                                       Dst.begin() + Begin);
                           });
  EXPECT_EQ(Src, Dst);
}

} // namespace
