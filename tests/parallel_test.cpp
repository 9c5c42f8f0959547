#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace match::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, ZeroRequestsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, DestructorDrainsPendingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&counter] { ++counter; });
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, GlobalPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) pool.submit([&counter] { ++counter; });
  pool.shutdown();
  // Shutdown drains pending work before joining, so nothing is lost...
  EXPECT_EQ(counter.load(), 20);
  // ...and any later submit would otherwise be silently dropped.
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();  // must not hang or double-join
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  bool ran = false;
  parallel_for(5, 5, [&](std::size_t) { ran = true; });
  parallel_for(7, 3, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, NonZeroBaseOffset) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(40, 60, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 40 && i < 60) ? 1 : 0);
  }
}

TEST(ParallelFor, SerialCutoffRunsInline) {
  ForOptions opts;
  opts.serial_cutoff = 1000;
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(10);
  parallel_for(
      0, 10, [&](std::size_t i) { ids[i] = std::this_thread::get_id(); }, opts);
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

/// Threads in this process, read from the `Threads:` line of
/// /proc/self/status; 0 when that line cannot be read.
std::size_t process_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

TEST(ParallelFor, ForcedSerialLoopStartsNoThreads) {
  // A loop at or below its serial cutoff with no pool attached runs
  // inline and must not construct the process-global pool on the way.
  // Only a fresh process is sure not to hold that pool already, so the
  // check runs in a re-executed death-test child.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const std::size_t before = process_thread_count();
        ForOptions opts;
        opts.serial_cutoff = std::numeric_limits<std::size_t>::max();
        std::size_t sum = 0;
        parallel_for(0, 1000, [&](std::size_t i) { sum += i; }, opts);
        const std::size_t after = process_thread_count();
        std::fprintf(stderr, "threads %zu -> %zu\n", before, after);
        std::exit(before > 0 && after == before && sum == 499500 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ParallelForChunked, ChunksAreDisjointAndCovering) {
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  ForOptions opts;
  opts.serial_cutoff = 0;
  opts.grain = 16;
  parallel_for_chunked(
      0, kN,
      [&](std::size_t lo, std::size_t hi, std::size_t /*chunk*/) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      opts);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForChunked, ChunkIndicesAreDense) {
  ForOptions opts;
  opts.serial_cutoff = 0;
  opts.grain = 8;
  std::mutex mu;
  std::vector<std::size_t> chunk_ids;
  parallel_for_chunked(
      0, 1000,
      [&](std::size_t, std::size_t, std::size_t chunk) {
        std::lock_guard<std::mutex> lock(mu);
        chunk_ids.push_back(chunk);
      },
      opts);
  std::sort(chunk_ids.begin(), chunk_ids.end());
  for (std::size_t k = 0; k < chunk_ids.size(); ++k) EXPECT_EQ(chunk_ids[k], k);
}

TEST(ParallelTransform, ComputesEveryElement) {
  constexpr std::size_t kN = 4096;
  std::vector<double> out(kN, -1.0);
  parallel_transform(kN, out.data(),
                     [](std::size_t i) { return static_cast<double>(i * i); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i * i));
  }
}

TEST(ParallelFor, SumMatchesSerialReference) {
  constexpr std::size_t kN = 100000;
  std::vector<double> values(kN);
  for (std::size_t i = 0; i < kN; ++i) values[i] = std::sqrt(static_cast<double>(i));

  std::atomic<double> parallel_sum{0.0};
  parallel_for_chunked(0, kN, [&](std::size_t lo, std::size_t hi, std::size_t) {
    double local = 0.0;
    for (std::size_t i = lo; i < hi; ++i) local += values[i];
    double expected = parallel_sum.load();
    while (!parallel_sum.compare_exchange_weak(expected, expected + local)) {
    }
  });
  const double serial_sum = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_NEAR(parallel_sum.load(), serial_sum, 1e-6 * serial_sum);
}

class ParallelForSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelForSizeTest, CoversRangeForManySizes) {
  const std::size_t n = GetParam();
  std::vector<std::atomic<int>> hits(n == 0 ? 1 : n);
  ForOptions opts;
  opts.serial_cutoff = 4;
  opts.grain = 3;
  parallel_for(
      0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, opts);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelForSizeTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 64u, 65u, 1023u,
                                           1024u, 4097u));

}  // namespace
}  // namespace match::parallel
